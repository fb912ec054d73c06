"""Filter tests: prediction, Gauss-Newton fusion, error-state Kalman update,
and the Euler baseline. Scalar Kalman blends and Monte Carlo covariance
propagation serve as the independent oracles."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from radiopose import lie, simkit, tracking
from radiopose.bounds import measurement_covariance
from radiopose.errors import GimbalLock
from radiopose.lie import Pose, se3_exp, se3_log, so3_exp, so3_log
from radiopose.tracking import FilterState, MotionCommand, PoseMeasurement


def command(v, w, dt=0.5, q=None):
    q = np.zeros((6, 6)) if q is None else q
    return MotionCommand(v=np.asarray(v, float), w=np.asarray(w, float), dt=dt, process_noise=q)


def random_state(rng, cov_scale=0.01):
    pose = se3_exp(rng.standard_normal(6))
    a = rng.standard_normal((6, 6))
    cov = cov_scale * (a @ a.T + 6 * np.eye(6))
    return FilterState(pose, cov)


class TestPredict:
    def test_zero_motion_only_adds_process_noise(self):
        rng = np.random.default_rng(0)
        state = random_state(rng)
        q = 1e-4 * np.eye(6)
        out = tracking.predict(state, command([0, 0, 0], [0, 0, 0], q=q))
        np.testing.assert_allclose(out.pose.matrix(), state.pose.matrix(), atol=1e-15)
        np.testing.assert_allclose(out.cov, state.cov + q, atol=1e-15)

    def test_process_noise_checked_where_it_enters(self):
        # predict no longer checks the covariance it returns, so a bad process
        # noise is rejected by the command that brings it in
        with pytest.raises(ValueError):
            command([0, 0, 0], [0, 0, 0], q=-1e-4 * np.eye(6))

    def test_pure_translation_shifts_block(self):
        state = FilterState(Pose.identity(), np.eye(6))
        out = tracking.predict(state, command([1.0, 0, 0], [0, 0, 0], dt=1.0))
        np.testing.assert_allclose(out.pose.translation_block, [1.0, 0, 0])
        np.testing.assert_allclose(out.pose.rotation, np.eye(3))

    def test_default_first_segment_matches_matrix_product(self):
        from radiopose.simkit import default_scenario

        start = default_scenario().ue_start
        cmd = command([0.5, 0, 0], [0, 0, -np.pi / 4], dt=0.5)
        out = tracking.predict(FilterState(start, np.zeros((6, 6))), cmd)
        f = np.eye(4)
        f[:3, :3] = so3_exp(np.array([0, 0, -np.pi / 4]) * 0.5)
        f[:3, 3] = np.array([0.5, 0, 0]) * 0.5
        np.testing.assert_allclose(out.pose.matrix(), f @ start.matrix(), atol=1e-14)

    def test_covariance_propagation_matches_monte_carlo(self):
        # sampled process noise reproduces the adjoint-propagated covariance
        rng = np.random.default_rng(1)
        state = random_state(rng, cov_scale=1e-4)
        q = np.diag([1e-4, 2e-4, 1.5e-4, 5e-5, 8e-5, 6e-5])
        cmd = command([0.4, -0.2, 0.1], [0.1, 0.2, -0.3], q=q)
        predicted = tracking.predict(state, cmd)
        f = tracking.motion_matrix(cmd)

        samples = np.empty((10_000, 6))
        l_state = np.linalg.cholesky(state.cov)
        l_q = np.linalg.cholesky(q)
        for i in range(samples.shape[0]):
            xi0 = l_state @ rng.standard_normal(6)
            qn = l_q @ rng.standard_normal(6)
            truth = se3_exp(xi0) @ state.pose
            propagated = se3_exp(qn) @ (f @ truth)
            samples[i] = se3_log(propagated @ predicted.pose.inverse())
        emp = np.cov(samples.T)
        assert np.abs(emp - predicted.cov).max() < 0.1 * np.abs(predicted.cov).max()


class TestFusion:
    def test_identical_sources_halve_covariance(self):
        rng = np.random.default_rng(2)
        pose = se3_exp(rng.standard_normal(6))
        a = rng.standard_normal((6, 6))
        cov = a @ a.T + 6 * np.eye(6)
        out = tracking.fuse_poses([(pose, cov), (pose, cov)], initial=pose)
        assert out.converged
        np.testing.assert_allclose(out.pose.matrix(), pose.matrix(), atol=1e-12)
        np.testing.assert_allclose(out.cov, cov / 2.0, atol=1e-10)

    def test_huge_measurement_covariance_keeps_prediction(self):
        rng = np.random.default_rng(3)
        pred = se3_exp(rng.standard_normal(6))
        meas = se3_exp(se3_log(pred) + 0.05 * rng.standard_normal(6))
        out = tracking.fuse_poses(
            [(meas, 1e12 * np.eye(6)), (pred, 1e-2 * np.eye(6))], initial=pred
        )
        assert np.linalg.norm(se3_log(out.pose @ pred.inverse())) < 1e-5

    def test_scalar_kalman_blend_on_z_rotation(self):
        # 1-DoF embedded problem: rotations about z, diagonal covariances
        theta_p, theta_m = 0.3, 0.42
        sig_p2, sig_m2 = 0.04, 0.01
        pred = Pose(so3_exp([0, 0, theta_p]), np.zeros(3))
        meas = Pose(so3_exp([0, 0, theta_m]), np.zeros(3))
        cov_p = np.diag([1.0] * 3 + [1.0, 1.0, sig_p2])
        cov_m = np.diag([1.0] * 3 + [1.0, 1.0, sig_m2])
        out = tracking.fuse_poses([(meas, cov_m), (pred, cov_p)], initial=pred)
        expected = (sig_p2 * theta_m + sig_m2 * theta_p) / (sig_p2 + sig_m2)
        got = so3_log(out.pose.rotation)[2]
        assert abs(got - expected) < 1e-8

    def test_gradient_small_at_convergence(self):
        rng = np.random.default_rng(4)
        sources = []
        for _ in range(2):
            pose = se3_exp(0.3 * rng.standard_normal(6))
            a = rng.standard_normal((6, 6))
            sources.append((pose, 0.1 * (a @ a.T + 6 * np.eye(6))))
        out = tracking.fuse_poses(sources, initial=sources[0][0])
        assert out.converged
        grad = np.zeros(6)
        for pose, cov in sources:
            h = se3_log(pose @ out.pose.inverse())
            a = tracking._fusion_gain(h)
            grad += -2.0 * a.T @ np.linalg.solve(cov, h)
        assert np.linalg.norm(grad) < 10 * 1e-8

    def test_stationary_point_of_the_fused_cost(self, monkeypatch):
        # The returned pose minimises sum h' W h: the central finite-difference
        # gradient over left perturbations vanishes (independent of _fusion_gain).
        monkeypatch.setattr(tracking, "_FUSION_EPS", 1e-10)

        def cost(sources, pose):
            hs = [se3_log(p @ pose.inverse()) for p, _ in sources]
            return sum(h @ np.linalg.solve(cov, h) for h, (_, cov) in zip(hs, sources))

        rng = np.random.default_rng(15)
        step = 1e-6
        for _ in range(20):
            sources = []
            for _ in range(2):
                a = rng.standard_normal((6, 6))
                sources.append((se3_exp(0.3 * rng.standard_normal(6)), 0.1 * (a @ a.T + 6 * np.eye(6))))
            out = tracking.fuse_poses(sources, initial=sources[0][0])
            assert out.converged
            grad = [
                (cost(sources, se3_exp(step * e) @ out.pose) - cost(sources, se3_exp(-step * e) @ out.pose))
                / (2 * step)
                for e in np.eye(6)
            ]
            assert np.linalg.norm(grad) < 10 * 1e-8

    def test_reports_non_convergence(self, monkeypatch):
        monkeypatch.setattr(tracking, "_FUSION_MAX_ITERS", 1)
        monkeypatch.setattr(tracking, "_FUSION_EPS", 1e-16)
        rng = np.random.default_rng(5)
        pose_a = se3_exp(rng.standard_normal(6))
        pose_b = se3_exp(rng.standard_normal(6))
        out = tracking.fuse_poses([(pose_a, np.eye(6)), (pose_b, np.eye(6))], initial=pose_b)
        assert not out.converged


class TestEskf:
    def test_zero_innovation_keeps_pose(self):
        rng = np.random.default_rng(6)
        pose = se3_exp(rng.standard_normal(6))
        a = rng.standard_normal((6, 6))
        cov_p = a @ a.T + 6 * np.eye(6)
        cov_m = np.eye(6)
        out = tracking.eskf_core(pose, cov_p, pose, cov_m)
        np.testing.assert_allclose(out.pose.matrix(), pose.matrix(), atol=1e-12)
        gain = cov_p @ np.linalg.inv(cov_p + cov_m)
        np.testing.assert_allclose(out.cov, (np.eye(6) - gain) @ cov_p, atol=1e-9)

    def test_tiny_measurement_covariance_takes_measurement(self):
        rng = np.random.default_rng(7)
        pred = se3_exp(rng.standard_normal(6))
        meas = se3_exp(se3_log(pred) + 0.01 * rng.standard_normal(6))
        out = tracking.eskf_core(pred, np.eye(6), meas, 1e-12 * np.eye(6))
        assert np.linalg.norm(se3_log(out.pose @ meas.inverse())) < 1e-6

    def test_agrees_with_fusion_for_small_innovations(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            pred = se3_exp(rng.standard_normal(6))
            delta = rng.standard_normal(6)
            delta *= 1e-3 / np.linalg.norm(delta)
            meas = se3_exp(delta) @ pred
            a = rng.standard_normal((6, 6))
            cov = 0.01 * (a @ a.T + 6 * np.eye(6))
            fused = tracking.fuse_poses([(meas, cov), (pred, cov)], initial=pred)
            kalman = tracking.eskf_core(pred, cov, meas, cov)
            diff = se3_log(fused.pose @ kalman.pose.inverse())
            assert np.linalg.norm(diff) < 1e-5

    def test_scalar_blend_on_z_rotation(self):
        theta_p, theta_m = -0.2, -0.05
        sig_p2, sig_m2 = 0.02, 0.05
        pred = Pose(so3_exp([0, 0, theta_p]), np.zeros(3))
        meas = Pose(so3_exp([0, 0, theta_m]), np.zeros(3))
        cov_p = np.diag([1.0] * 5 + [sig_p2])
        cov_m = np.diag([1.0] * 5 + [sig_m2])
        out = tracking.eskf_core(pred, cov_p, meas, cov_m)
        expected = (sig_p2 * theta_m + sig_m2 * theta_p) / (sig_p2 + sig_m2)
        assert abs(so3_log(out.pose.rotation)[2] - expected) < 1e-12


class TestOrthogonalityPreservation:
    def test_long_random_filter_sequences(self):
        rng = np.random.default_rng(9)
        state = random_state(rng, cov_scale=0.01)
        q = np.diag([1e-4] * 3 + [2.5e-5] * 3)
        for k in range(200):
            cmd = command(rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.5, 0.5, 3), q=q)
            state = tracking.predict(state, cmd)
            noise = 0.05 * rng.standard_normal(6)
            meas_pose = se3_exp(noise) @ state.pose
            cov_m = 0.01 * np.eye(6)
            if k % 2 == 0:
                state = tracking.fuse_poses([(meas_pose, cov_m), (state.pose, state.cov)], initial=state.pose)
            else:
                state = tracking.eskf_core(state.pose, state.cov, meas_pose, cov_m)
            rot = state.pose.rotation
            assert np.linalg.norm(rot.T @ rot - np.eye(3)) < 1e-10
            assert abs(np.linalg.det(rot) - 1.0) < 1e-10


class TestMeasurementTangentCovariance:
    def _measurement(self):
        rng = np.random.default_rng(20)
        a = rng.standard_normal((6, 6))
        return PoseMeasurement(se3_exp(rng.standard_normal(6)), 1e-3 * (a @ a.T + 6 * np.eye(6)))

    def test_equals_transform_at_measured_rotation(self):
        meas = self._measurement()
        expected = measurement_covariance(meas.cov_state_icrb, meas.pose.rotation)
        assert np.array_equal(meas.cov_tangent, expected)

    def test_read_only(self):
        meas = self._measurement()
        with pytest.raises(FrozenInstanceError):
            meas.cov_tangent = np.eye(6)
        with pytest.raises(ValueError):
            meas.cov_tangent[0, 0] = 1.0
        with pytest.raises(ValueError):
            meas.cov_state_icrb[0, 0] = 1.0

    def test_fusion_and_eskf_share_one_transform(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return measurement_covariance(*args)

        monkeypatch.setattr(tracking, "measurement_covariance", counting)
        rng = np.random.default_rng(21)
        pred = random_state(rng, cov_scale=1e-3)
        meas = self._measurement()
        tracking.fusion_update(pred, meas)
        tracking.eskf_update(pred, meas)
        assert len(calls) == 1


class TestChecksAtTheBoundary:
    def test_group_operations_and_filters_do_not_recheck(self, monkeypatch):
        rng = np.random.default_rng(30)
        pose, other = se3_exp(rng.standard_normal(6)), se3_exp(rng.standard_normal(6))
        state = random_state(rng, cov_scale=1e-3)
        a = rng.standard_normal((6, 6))
        meas_pose = se3_exp(0.01 * rng.standard_normal(6)) @ state.pose
        meas = PoseMeasurement(meas_pose, 1e-4 * (a @ a.T + 6 * np.eye(6)))
        cmd = command([0.5, 0.0, 0.0], [0.0, 0.0, 0.3], q=1e-4 * np.eye(6))

        calls = []
        real_rotation, real_cov = lie.require_rotation, tracking.check_cov_tangent

        def rotation_check(*args, **kwargs):
            calls.append("rotation")
            return real_rotation(*args, **kwargs)

        def cov_check(*args, **kwargs):
            calls.append("cov")
            return real_cov(*args, **kwargs)

        monkeypatch.setattr(lie, "require_rotation", rotation_check)
        monkeypatch.setattr(tracking, "check_cov_tangent", cov_check)
        pose @ other
        pose.inverse()
        se3_log(se3_exp(rng.standard_normal(6)) @ pose)
        pred = tracking.predict(state, cmd)
        tracking.fusion_update(pred, meas)
        tracking.eskf_update(pred, meas)
        assert calls == []

        with pytest.raises(ValueError):
            Pose(np.eye(3) * 1.001, np.zeros(3))
        FilterState(pose, np.eye(6))
        assert calls == ["rotation", "cov"]


class TestEulerBaseline:
    def test_round_trip_conversions(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            ypr = np.array(
                [rng.uniform(-np.pi, np.pi), rng.uniform(-1.4, 1.4), rng.uniform(-np.pi, np.pi)]
            )
            back = tracking.euler_from_rotation(tracking.rotation_from_euler(ypr))
            np.testing.assert_allclose(back, ypr, atol=1e-12)

    def test_conversion_matches_scipy(self):
        from scipy.spatial.transform import Rotation as ScipyRotation

        rng = np.random.default_rng(11)
        for _ in range(50):
            ypr = np.array(
                [rng.uniform(-np.pi, np.pi), rng.uniform(-1.4, 1.4), rng.uniform(-np.pi, np.pi)]
            )
            ours = tracking.rotation_from_euler(ypr)
            theirs = ScipyRotation.from_euler("ZYX", ypr).as_matrix()
            np.testing.assert_allclose(ours, theirs, atol=1e-12)

    def test_zero_innovation_keeps_state(self):
        rng = np.random.default_rng(12)
        pose = Pose.from_rotation_position(tracking.rotation_from_euler([0.3, 0.2, -0.1]), rng.standard_normal(3))
        state = tracking.euler_state_from_pose(pose)
        cov = 0.1 * np.eye(6)
        meas = PoseMeasurement(pose, 0.05 * np.eye(6))
        new_state, _ = tracking.euler_ekf_update(state, cov, meas)
        np.testing.assert_allclose(new_state, state, atol=1e-12)

    def test_position_only_innovation_blends_positions(self):
        pose = Pose.from_rotation_position(tracking.rotation_from_euler([0.3, 0.2, -0.1]), np.zeros(3))
        state = tracking.euler_state_from_pose(pose)
        meas_pose = Pose.from_rotation_position(pose.rotation, np.array([1.0, 0, 0]))
        cov = np.diag([0.04] * 3 + [0.01] * 3)
        meas_cov = np.diag([0.04] * 3 + [0.01] * 3)
        new_state, _ = tracking.euler_ekf_update(state, cov, PoseMeasurement(meas_pose, meas_cov))
        np.testing.assert_allclose(new_state[0], 0.5, atol=1e-12)
        np.testing.assert_allclose(new_state[1:3], 0.0, atol=1e-12)
        np.testing.assert_allclose(new_state[3:], state[3:], atol=1e-12)

    def test_gimbal_guard(self):
        state = np.array([0.0, 0, 0, 0.1, np.pi / 2 - 1e-5, 0.0])
        meas = PoseMeasurement(Pose.identity(), np.eye(6))
        with pytest.raises(GimbalLock):
            tracking.euler_ekf_update(state, np.eye(6), meas)

    def test_rotation_near_gimbal_rejected_in_conversion(self):
        rot = tracking.rotation_from_euler([0.0, np.pi / 2 - 1e-5, 0.0])
        with pytest.raises(GimbalLock):
            tracking.euler_from_rotation(rot)

    def test_euler_rate_matrix_is_the_angle_derivative(self):
        # R(ypr + h e_j) = exp(h E e_j) R(ypr): changing one angle turns R about
        # a fixed global axis, column j of E, so this holds at finite h as well
        rng = np.random.default_rng(14)
        for _ in range(50):
            ypr = np.array([rng.uniform(-np.pi, np.pi), rng.uniform(-1.4, 1.4), rng.uniform(-np.pi, np.pi)])
            rate = tracking.euler_rate_matrix(ypr)
            for j in range(3):
                h = rng.uniform(-0.5, 0.5)
                bumped = tracking.rotation_from_euler(ypr + h * np.eye(3)[j])
                turned = so3_exp(h * rate[:, j]) @ tracking.rotation_from_euler(ypr)
                assert np.abs(bumped - turned).max() < 1e-14

    def test_prediction_jacobian_matches_central_differences(self):
        # oracle: the propagation written out with scipy's Z-Y-X extraction,
        # differenced centrally with the angle rows wrapped; yaw sits near
        # +/-pi, so the bumped angles cross the wrap
        from scipy.spatial.transform import Rotation as ScipyRotation

        def propagate(s, cmd):
            rot = so3_exp(cmd.dt * cmd.w) @ tracking.rotation_from_euler(s[3:])
            ypr = ScipyRotation.from_matrix(rot).as_euler("ZYX")
            return np.concatenate([s[:3] + rot.T @ (cmd.dt * cmd.v), ypr])

        rng = np.random.default_rng(15)
        commands = [command(seg.v, seg.w, seg.dt) for seg in simkit.default_scenario().segments]
        commands += [command(rng.standard_normal(3), 0.05 * rng.standard_normal(3)) for _ in range(4)]
        h = 1e-6
        for cmd in commands:
            for _ in range(20):
                ypr = [tracking.wrap_angle(np.pi + rng.uniform(-0.3, 0.3)), rng.uniform(-1.4, 1.4),
                       rng.uniform(-np.pi, np.pi)]
                state = np.concatenate([rng.standard_normal(3), ypr])
                new_state, jac = tracking._euler_transition(state, cmd)
                ref = propagate(state, cmd)
                np.testing.assert_allclose(new_state[:3], ref[:3], atol=1e-12)
                assert np.abs(tracking.wrap_angle(new_state[3:] - ref[3:])).max() < 1e-12
                fd = np.empty((6, 6))
                for j in range(6):
                    step = h * np.eye(6)[j]
                    diff = propagate(state + step, cmd) - propagate(state - step, cmd)
                    diff[3:] = tracking.wrap_angle(diff[3:])
                    fd[:, j] = diff / (2.0 * h)
                assert np.abs(jac - fd).max() <= 1e-6 * np.abs(fd).max()

        q = np.diag([1e-4] * 3 + [1e-5] * 3)
        cmd = command([0.5, 0.0, 0.0], [0.0, 0.1, -0.2], q=q)
        cov = random_state(rng).cov
        new_state, cov_out = tracking.euler_predict(state, cov, cmd)
        _, jac = tracking._euler_transition(state, cmd)
        np.testing.assert_allclose(cov_out, jac @ cov @ jac.T + q, atol=1e-15)

    def test_angle_residuals_wrap(self):
        pose = Pose.from_rotation_position(tracking.rotation_from_euler([np.pi - 0.05, 0, 0]), np.zeros(3))
        state = tracking.euler_state_from_pose(pose)
        meas_pose = Pose.from_rotation_position(tracking.rotation_from_euler([-np.pi + 0.05, 0, 0]), np.zeros(3))
        new_state, _ = tracking.euler_ekf_update(state, np.eye(6), PoseMeasurement(meas_pose, np.eye(6)))
        # the 0.1 rad shortest-path residual is split evenly, never the long way
        assert abs(abs(new_state[3]) - np.pi) < 0.06


class TestWrapAngle:
    def test_half_open_interval(self):
        assert tracking.wrap_angle(np.pi) == pytest.approx(np.pi)
        assert tracking.wrap_angle(-np.pi) == pytest.approx(np.pi)
        assert tracking.wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
        np.testing.assert_allclose(tracking.wrap_angle([0.1, -0.1]), [0.1, -0.1])
