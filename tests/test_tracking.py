"""Filter tests: prediction, Gauss-Newton fusion, error-state Kalman update,
and the Euler baseline. Scalar Kalman blends and Monte Carlo covariance
propagation serve as the independent oracles."""

from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from radiopose import lie, simkit, tracking
from radiopose.bounds import measurement_covariance
from radiopose.errors import GimbalLock
from radiopose.lie import Pose, se3_exp, se3_log, so3_exp, so3_log
from radiopose.tracking import FilterState, MotionCommand, PoseMeasurement
from references import se3_left_jacobian_inv


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
        f = cmd.factor

        # one batch of 10,000 samples: per sample a state draw, then a noise draw
        z = rng.standard_normal((10_000, 2, 6))
        xi0 = z[:, 0] @ np.linalg.cholesky(state.cov).T
        qn = z[:, 1] @ np.linalg.cholesky(q).T
        truth = se3_exp(xi0) @ state.pose
        propagated = se3_exp(qn) @ (f @ truth)
        samples = se3_log(propagated @ predicted.pose.inverse())
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
            a = se3_left_jacobian_inv(-h)
            grad += -2.0 * a.T @ np.linalg.solve(cov, h)
        assert np.linalg.norm(grad) < 10 * 1e-8

    def test_stationary_point_of_the_fused_cost(self, monkeypatch):
        # The returned pose minimises sum h' W h: the central finite-difference
        # gradient over left perturbations vanishes (independent of the gain
        # J_l(-h)^-1 that fuse_poses linearizes with).
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


    @staticmethod
    def _sources(seed):
        rng = np.random.default_rng(seed)
        sources = []
        for _ in range(2):
            a = rng.standard_normal((6, 6))
            sources.append((se3_exp(0.3 * rng.standard_normal(6)), 0.1 * (a @ a.T + 6 * np.eye(6))))
        return sources

    def test_posterior_is_the_inverse_normal_matrix_at_the_returned_pose(self):
        # recomputed from the public log and SE(3) Jacobian at the pose that
        # comes back, not at the step that was solved but not applied
        for seed in range(5):
            sources = self._sources(seed)
            out = tracking.fuse_poses(sources, initial=sources[0][0])
            normal = np.zeros((6, 6))
            for pose, cov in sources:
                a = se3_left_jacobian_inv(-se3_log(pose @ out.pose.inverse()))
                normal += a.T @ np.linalg.inv(cov) @ a
            expected = np.linalg.inv(normal)
            np.testing.assert_allclose(out.cov, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    def test_step_below_tolerance_is_not_applied(self):
        # started at the optimum, the first solved step is below 1e-8: no step
        # is taken and the initial pose comes back as it is
        pose, cov = self._sources(8)[0]
        out = tracking.fuse_poses([(pose, cov), (pose, cov)], initial=pose)
        assert out.converged and int(out.iterations) == 0
        assert np.array_equal(out.pose.matrix(), pose.matrix())

    def test_convergence_on_the_last_allowed_solve_is_convergence(self, monkeypatch):
        sources = self._sources(9)
        steps = int(tracking.fuse_poses(sources, initial=sources[0][0]).iterations)
        assert steps >= 1
        # a limit of steps + 1 solves lets the run take its steps and then
        # solve the step below tolerance, which it does not take
        monkeypatch.setattr(tracking, "_FUSION_MAX_ITERS", steps + 1)
        out = tracking.fuse_poses(sources, initial=sources[0][0])
        assert out.converged and int(out.iterations) == steps < tracking._FUSION_MAX_ITERS
        monkeypatch.setattr(tracking, "_FUSION_MAX_ITERS", steps)
        out = tracking.fuse_poses(sources, initial=sources[0][0])
        assert not out.converged and int(out.iterations) == steps == tracking._FUSION_MAX_ITERS


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

    @pytest.mark.parametrize("bad", ["asymmetric", "not_psd"])
    def test_batched_state_checks_each_row(self, bad):
        # row 1's defect is large on its own scale (1) but small on the
        # scale of the other rows (1e5), so only a check per row catches it
        rng = np.random.default_rng(31)
        covs = np.stack([random_state(rng, cov_scale=1e4).cov, np.eye(6), random_state(rng, cov_scale=1e4).cov])
        if bad == "asymmetric":
            covs[1, 0, 1] += 1e-9
        else:
            covs[1, 5, 5] = -1e-8
        poses = se3_exp(rng.standard_normal((3, 6)))
        with pytest.raises(ValueError):
            FilterState(poses, covs)
        with pytest.raises(ValueError):
            FilterState(poses[1], covs[1])
        for i in (0, 2):
            FilterState(poses[i], covs[i])

    def test_batched_state_equals_stacked_states(self):
        rng = np.random.default_rng(32)
        states = [random_state(rng) for _ in range(4)]
        a = rng.standard_normal((6, 6))
        covs = np.stack([s.cov for s in states]) + 1e-17 * (a - a.T)  # asymmetric within tolerance
        batch = FilterState(lie._pose(np.stack([s.pose.rotation for s in states]),
                                      np.stack([s.pose.translation_block for s in states])), covs)
        assert not batch.cov.flags.writeable
        for i, s in enumerate(states):
            np.testing.assert_array_equal(batch.cov[i], FilterState(s.pose, covs[i]).cov)
            np.testing.assert_array_equal(batch.pose[i].matrix(), s.pose.matrix())


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


def batch_of(states):
    """One batched FilterState holding the given unbatched states as rows."""
    pose = lie._pose(np.stack([s.pose.rotation for s in states]), np.stack([s.pose.translation_block for s in states]))
    return FilterState(pose, np.stack([s.cov for s in states]))


def assert_only_bad_rows_raise(error, call, n, bad):
    """``call(rows)`` on all ``n`` rows of a batch raises ``error``; so does
    each row in ``bad`` called alone, and no other row called alone raises."""
    with pytest.raises(error):
        call(slice(None))
    for i in range(n):
        if i in bad:
            with pytest.raises(error):
                call(i)
        else:
            call(i)


def measurement_batch(poses, icrb):
    pose = lie._pose(np.stack([p.rotation for p in poses]), np.stack([p.translation_block for p in poses]))
    return PoseMeasurement(pose, icrb)


class TestBatchedFilters:
    """Filters over a leading run axis: every run's numbers are those of its
    unbatched call, and a batch with a failing run raises the error that run
    raises alone, which names it."""

    def _problems(self, n=6, seed=50, offsets=None):
        rng = np.random.default_rng(seed)
        states = [random_state(rng, cov_scale=1e-3) for _ in range(n)]
        offsets = [0.05] * n if offsets is None else offsets
        meas = [se3_exp(o * rng.standard_normal(6)) @ s.pose for o, s in zip(offsets, states)]
        a = rng.standard_normal((6, 6))
        icrb = 1e-3 * (a @ a.T + 6 * np.eye(6))
        cmd = command([0.5, 0.1, 0.0], [0.0, 0.05, -0.3], q=1e-4 * np.eye(6))
        return states, meas, icrb, cmd

    def test_rows_equal_unbatched_calls(self):
        states, meas, icrb, cmd = self._problems()
        batch, batch_meas = batch_of(states), measurement_batch(meas, icrb)
        pred = tracking.predict(batch, cmd)
        outs = {
            "predict": pred,
            "fusion": tracking.fusion_update(pred, batch_meas),
            "eskf": tracking.eskf_update(pred, batch_meas),
        }
        for i, state in enumerate(states):
            single_pred = tracking.predict(state, cmd)
            single_meas = PoseMeasurement(meas[i], icrb)
            refs = {
                "predict": single_pred,
                "fusion": tracking.fusion_update(single_pred, single_meas),
                "eskf": tracking.eskf_update(single_pred, single_meas),
            }
            for name, ref in refs.items():
                np.testing.assert_array_equal(outs[name].pose[i].matrix(), ref.pose.matrix(), err_msg=name)
                np.testing.assert_array_equal(outs[name].cov[i], ref.cov, err_msg=name)

        euler = np.stack([tracking.euler_state_from_pose(s.pose) for s in states])
        covs = np.stack([s.cov for s in states])
        e_state, e_cov = tracking.euler_ekf_update(*tracking.euler_predict(euler, covs, cmd), batch_meas)
        for i in range(len(states)):
            ref_state, ref_cov = tracking.euler_ekf_update(
                *tracking.euler_predict(euler[i], covs[i], cmd), PoseMeasurement(meas[i], icrb)
            )
            np.testing.assert_array_equal(e_state[i], ref_state)
            np.testing.assert_array_equal(e_cov[i], ref_cov)

    def test_fusion_iterations_do_not_depend_on_the_batch(self):
        # innovations from 1e-9 to 1 make the runs stop after different steps
        states, meas, icrb, _ = self._problems(n=8, seed=51, offsets=[1e-9, 1e-4, 1e-2, 0.1, 0.3, 0.6, 1.0, 0.02])
        pred, meas_pose, meas_cov = batch_of(states), measurement_batch(meas, icrb).pose, 1e-3 * np.eye(6)
        batched = tracking.fuse_poses([(meas_pose, meas_cov), (pred.pose, pred.cov)], initial=pred.pose)
        alone = [tracking.fuse_poses([(m, meas_cov), (s.pose, s.cov)], initial=s.pose) for m, s in zip(meas, states)]
        assert batched.converged and all(a.converged for a in alone)
        assert list(batched.iterations) == [int(a.iterations) for a in alone]
        assert len(set(batched.iterations)) > 1  # the runs stop at different steps
        for i, a in enumerate(alone):
            np.testing.assert_array_equal(batched.pose[i].matrix(), a.pose.matrix())
        flipped = tracking.fuse_poses(
            [(meas_pose[::-1], meas_cov), (pred.pose[::-1], pred.cov[::-1])], initial=pred.pose[::-1]
        )
        assert list(flipped.iterations) == list(batched.iterations[::-1])

    def test_singular_row_is_named(self):
        states, meas, icrb, _ = self._problems(n=4, seed=52)
        pred = batch_of(states)
        covs = np.array(pred.cov)
        covs[1] = 0.0
        meas_pose = measurement_batch(meas, icrb).pose
        assert_only_bad_rows_raise(
            tracking.SingularInnovationCovariance,
            lambda r: tracking.eskf_core(pred.pose[r], covs[r], meas_pose[r], np.zeros((6, 6))),
            4, [1],
        )
        assert_only_bad_rows_raise(
            tracking.SingularNormalEquations,
            lambda r: tracking.fuse_poses([(pred.pose[r], covs[r]), (pred.pose[r], pred.cov[r])], initial=pred.pose[r]),
            4, [1],
        )

    def test_near_pi_source_is_named_by_run(self):
        # the sources share one log per pass over (source, run); the run whose
        # source is half a turn away raises alone, the others do not
        states, meas, icrb, _ = self._problems(n=4, seed=53)
        half_turn = lie.so3_exp(np.array([0.0, np.pi - 1e-8, 0.0]))
        meas[3] = Pose(half_turn, np.zeros(3)) @ states[3].pose
        pred, meas_pose = batch_of(states), measurement_batch(meas, icrb).pose
        assert_only_bad_rows_raise(
            lie.NearPiRotation,
            lambda r: tracking.fusion_update(FilterState(pred.pose[r], pred.cov[r]), PoseMeasurement(meas_pose[r], icrb)),
            4, [3],
        )

    def test_gimbal_locked_row_is_named(self):
        states = np.zeros((3, 6))
        states[2, 4] = np.pi / 2 - 1e-5
        covs = np.broadcast_to(np.eye(6), (3, 6, 6))
        meas = PoseMeasurement(Pose.identity(), np.eye(6))
        assert_only_bad_rows_raise(GimbalLock, lambda r: tracking.euler_ekf_update(states[r], covs[r], meas), 3, [2])
        rot = np.stack([tracking.rotation_from_euler([0.1, p, 0.2]) for p in (0.3, np.pi / 2 - 1e-5, -0.2)])
        assert_only_bad_rows_raise(GimbalLock, lambda r: tracking.euler_from_rotation(rot[r]), 3, [1])


class TestSlicing:
    """Measurements and filter states index themselves along their leading
    axes, as ``Pose`` does."""

    def _stack(self, seed=60):
        # (3 runs, 4 steps) of measured poses, each with its own bound
        rng = np.random.default_rng(seed)
        pose = se3_exp(0.5 * rng.standard_normal((3, 4, 6)))
        a = rng.standard_normal((3, 4, 6, 6))
        return pose, 1e-3 * (a @ a.mT + 6 * np.eye(6))

    @pytest.mark.parametrize(
        "index", [(slice(None), 2), (np.array([True, False, True]), 1), (1, 3)], ids=["step", "run_mask", "single_run"]
    )
    def test_measurement_slice_equals_a_fresh_measurement(self, index):
        pose, icrb = self._stack()
        part = PoseMeasurement(pose, icrb).evaluated()[index]
        fresh = PoseMeasurement(pose[index], icrb[index])
        # the slice holds its share of the stack's terms; the fresh one evaluates its own
        assert {"cov_tangent", "euler_state"} <= vars(part).keys()
        np.testing.assert_array_equal(part.pose.rotation, fresh.pose.rotation)
        np.testing.assert_array_equal(part.pose.translation_block, fresh.pose.translation_block)
        for name in ("cov_state_icrb", "cov_tangent", "euler_state"):
            np.testing.assert_array_equal(getattr(part, name), getattr(fresh, name))
            assert not getattr(part, name).flags.writeable

    def test_slice_before_evaluation_evaluates_its_own_terms(self):
        pose, icrb = self._stack()
        meas = PoseMeasurement(pose, icrb)
        part = meas[:, 0]
        assert "cov_tangent" not in vars(meas) and "cov_tangent" not in vars(part)
        np.testing.assert_array_equal(part.cov_tangent, meas.cov_tangent[:, 0])

    def test_bound_is_a_read_only_view_broadcast_to_the_pose(self):
        pose, icrb = self._stack()
        meas = PoseMeasurement(pose, icrb[0])  # one bound per step, shared by the runs
        assert meas.cov_state_icrb.shape == (3, 4, 6, 6)
        assert meas.cov_state_icrb.strides[0] == 0
        assert not meas.cov_state_icrb.flags.writeable
        np.testing.assert_array_equal(meas.cov_state_icrb[2], (icrb[0] + icrb[0].mT) / 2.0)

    def test_gimbal_band_measurement_has_an_euler_state_the_filter_refuses(self):
        locked = Pose(tracking.rotation_from_euler(np.array([0.3, np.pi / 2, 0.1])), np.zeros(3))
        meas = PoseMeasurement(locked, np.eye(6))
        assert np.all(np.isfinite(meas.euler_state))
        with pytest.raises(GimbalLock, match="^pitch within guard band"):
            tracking.euler_initial(meas)
        with pytest.raises(GimbalLock, match="^pitch within guard band"):
            tracking.euler_ekf_update(np.zeros(6), np.eye(6), meas)

    @pytest.mark.parametrize("index", [2, np.array([0, 3]), np.array([True, False, True, False])])
    def test_state_slice_carries_the_matching_rows(self, index):
        rng = np.random.default_rng(61)
        states = [random_state(rng) for _ in range(4)]
        measured = [se3_exp(0.01 * rng.standard_normal(6)) @ s.pose for s in states]
        fused = tracking.fusion_update(batch_of(states), measurement_batch(measured, 1e-4 * np.eye(6)))
        part = fused[index]
        np.testing.assert_array_equal(part.pose.rotation, fused.pose.rotation[index])
        np.testing.assert_array_equal(part.pose.translation_block, fused.pose.translation_block[index])
        np.testing.assert_array_equal(part.cov, fused.cov[index])
        np.testing.assert_array_equal(part.iterations, fused.iterations[index])
        assert not part.cov.flags.writeable
        assert batch_of(states)[index].iterations is None


class TestConvergenceRecord:
    def test_converged_is_derived_from_iterations(self):
        pose, cov = Pose.identity(), np.eye(6)
        assert "converged" not in {f.name for f in fields(FilterState)}
        assert FilterState(pose, cov).converged
        limit = tracking._FUSION_MAX_ITERS
        assert FilterState(pose, cov, iterations=np.array(limit - 1)).converged
        assert not FilterState(pose, cov, iterations=np.array(limit)).converged
        # over a batch: False where any run reached the limit
        poses = se3_exp(np.zeros((2, 6)))
        assert not FilterState(poses, np.stack([cov, cov]), iterations=np.array([3, limit])).converged
        with pytest.raises(FrozenInstanceError):
            FilterState(pose, cov).converged = False
