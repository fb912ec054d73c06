"""Channel geometry tests: direction vectors, delays, steering vectors, the
received-signal tensor against a scalar-loop oracle, and the unconstrained
FIM against central finite differences."""

from dataclasses import replace

import numpy as np
import pytest

from radiopose import bounds, channel, lie
from radiopose.channel import SPEED_OF_LIGHT, ArrayGeometry
from radiopose.errors import CoincidentPositions, PolarSingularity
from radiopose.simkit import default_scenario


def small_signal(**overrides):
    base = dict(
        carrier_hz=30e9,
        subcarrier_spacing_hz=120e3,
        num_subcarriers=8,
        num_transmissions=3,
        tx_power_dbm=20.0,
        noise_psd_dbm_hz=-173.855,
        bandwidth_hz=100e6,
        rng_seed=5,
    )
    base.update(overrides)
    return channel.SignalConfig(**base)


def random_geometry(rng, n_bs=4, n_ue=3):
    """Random anchor/UE pair with small arrays, safely separated."""
    anchor = channel.AnchorConfig(
        position=rng.uniform(-10, 10, 3),
        orientation=lie.so3_exp(rng.standard_normal(3)),
        array=ArrayGeometry.half_wavelength_upa(n_bs, n_bs, 30e9),
    )
    ue_pos = anchor.position + rng.uniform(3, 15) * _random_unit(rng)
    ue = lie.Pose.from_rotation_position(lie.so3_exp(rng.standard_normal(3)), ue_pos)
    ue_array = ArrayGeometry.half_wavelength_upa(n_ue, n_ue, 30e9)
    return ue, anchor, ue_array


def _random_unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


class TestDirectionVectors:
    def test_axis_aligned(self):
        ue = lie.Pose.from_rotation_position(np.eye(3), np.array([1.0, 0, 0]))
        anchor = channel.AnchorConfig(np.zeros(3), np.eye(3), ArrayGeometry(np.zeros((1, 3))))
        dir_bs, dir_ue = channel.direction_vectors(ue, anchor)
        np.testing.assert_allclose(dir_bs, [1.0, 0, 0])
        np.testing.assert_allclose(dir_ue, [-1.0, 0, 0])

    def test_default_scenario_geometry(self):
        ue = lie.Pose.from_rotation_position(np.eye(3), np.array([-5.0, -5.0, 0.0]))
        anchor = channel.AnchorConfig(
            np.array([5.0, 0, 0]), np.eye(3), ArrayGeometry(np.zeros((1, 3)))
        )
        dir_bs, _ = channel.direction_vectors(ue, anchor)
        expected = np.array([-10.0, -5.0, 0.0]) / np.sqrt(125.0)
        np.testing.assert_allclose(dir_bs, expected, atol=1e-15)

    def test_rotating_ue_changes_only_its_local_direction(self):
        rng = np.random.default_rng(0)
        ue, anchor, _ = random_geometry(rng)
        dir_bs0, dir_ue0 = channel.direction_vectors(ue, anchor)
        rot = lie.so3_exp(rng.standard_normal(3))
        spun = lie.Pose.from_rotation_position(rot @ ue.rotation, ue.position)
        dir_bs1, dir_ue1 = channel.direction_vectors(spun, anchor)
        np.testing.assert_allclose(dir_bs1, dir_bs0, atol=1e-12)
        np.testing.assert_allclose(dir_ue1, spun.rotation.T @ (ue.rotation @ dir_ue0), atol=1e-12)

    def test_frame_identity_holds(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            ue, anchor, _ = random_geometry(rng)
            dir_bs, dir_ue = channel.direction_vectors(ue, anchor)
            residual = anchor.orientation @ dir_bs + ue.rotation @ dir_ue
            assert np.linalg.norm(residual) < 1e-12

    def test_coincident_positions_raise(self):
        anchor = channel.AnchorConfig(np.zeros(3), np.eye(3), ArrayGeometry(np.zeros((1, 3))))
        ue = lie.Pose.from_rotation_position(np.eye(3), np.zeros(3))
        with pytest.raises(CoincidentPositions):
            channel.direction_vectors(ue, anchor)


class TestDelay:
    def _anchor(self, pos):
        return channel.AnchorConfig(np.asarray(pos, float), np.eye(3), ArrayGeometry(np.zeros((1, 3))))

    def test_bias_only_limit(self):
        ue = lie.Pose.from_rotation_position(np.eye(3), np.array([1e-5, 0, 0]))
        tau = channel.delay(ue, self._anchor([0, 0, 0]), clock_bias_s=0.5e-9)
        assert abs(tau - 0.5e-9) < 1e-13

    def test_light_second(self):
        ue = lie.Pose.from_rotation_position(np.eye(3), np.array([SPEED_OF_LIGHT, 0, 0]))
        assert abs(channel.delay(ue, self._anchor([0, 0, 0]), 0.0) - 1.0) < 1e-12

    def test_default_geometry_value(self):
        ue = lie.Pose.from_rotation_position(np.eye(3), np.array([-5.0, -5.0, 0]))
        tau = channel.delay(ue, self._anchor([5.0, 0, 0]), 0.0)
        assert abs(tau - np.sqrt(125.0) / SPEED_OF_LIGHT) < 1e-20

    def test_coincidence_threshold_shared_by_every_los_quantity(self):
        # 5e-7 m is inside the 1e-6 m coincidence radius: the delay, the
        # directions, the channel parameters and the state Jacobian all refuse it
        ue = lie.Pose.from_rotation_position(np.eye(3), np.array([5e-7, 0, 0]))
        anchor = self._anchor([0, 0, 0])
        for call in (
            lambda: channel.delay(ue, anchor, 0.0),
            lambda: channel.direction_vectors(ue, anchor),
            lambda: channel.channel_params(ue, anchor, small_signal()),
            lambda: bounds.state_jacobian_tz(ue, [anchor]),
        ):
            with pytest.raises(CoincidentPositions):
                call()


class TestSteeringVector:
    def test_single_element(self):
        arr = ArrayGeometry(np.zeros((1, 3)))
        np.testing.assert_allclose(channel.steering_vector(arr, [1.0, 0, 0], 30e9), [1.0 + 0j])

    def test_perpendicular_elements_give_ones(self):
        arr = ArrayGeometry(np.array([[0, 0.01, 0], [0, -0.01, 0], [0, 0, 0.02], [0, 0, -0.02]]))
        a = channel.steering_vector(arr, [1.0, 0, 0], 30e9)
        np.testing.assert_allclose(a, np.ones(4), atol=1e-14)

    def test_quarter_wavelength_phases(self):
        lam = SPEED_OF_LIGHT / 30e9
        arr = ArrayGeometry(np.array([[lam / 4, 0, 0], [-lam / 4, 0, 0]]))
        a = channel.steering_vector(arr, [1.0, 0, 0], 30e9)
        np.testing.assert_allclose(np.angle(a), [np.pi / 2, -np.pi / 2], atol=1e-12)

    def test_unit_modulus(self):
        rng = np.random.default_rng(2)
        arr = ArrayGeometry.half_wavelength_upa(4, 4, 30e9)
        for _ in range(20):
            a = channel.steering_vector(arr, _random_unit(rng), 30e9)
            np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-14)


class TestNoiseFreeSignal:
    def test_zero_gain_zeroes_tensor(self, monkeypatch):
        rng = np.random.default_rng(3)
        ue, anchor, ue_array = random_geometry(rng)
        sig = small_signal()
        beams = channel.draw_beams([anchor], ue_array, sig)
        par = channel.channel_params(ue, anchor, sig)
        silent = channel.ChannelParams(par.delay_s, par.dir_ue, par.dir_bs, 0.0)
        monkeypatch.setattr(channel, "channel_params", lambda *args: silent)
        out = channel.noise_free_signal(ue, [anchor], ue_array, sig, beams)
        assert np.array_equal(out, np.zeros_like(out))

    def test_single_antennas_zero_delay_constant_over_subcarriers(self, monkeypatch):
        rng = np.random.default_rng(4)
        anchor = channel.AnchorConfig(np.zeros(3), np.eye(3), ArrayGeometry(np.zeros((1, 3))))
        ue = lie.Pose.from_rotation_position(np.eye(3), np.array([7.0, 0, 0]))
        ue_array = ArrayGeometry(np.zeros((1, 3)))
        sig = small_signal()
        beams = channel.draw_beams([anchor], ue_array, sig)
        par = channel.channel_params(ue, anchor, sig)
        flat = channel.ChannelParams(0.0, par.dir_ue, par.dir_bs, par.gain)
        monkeypatch.setattr(channel, "channel_params", lambda *args: flat)
        out = channel.noise_free_signal(ue, [anchor], ue_array, sig, beams)
        # each transmission is constant across subcarriers
        np.testing.assert_allclose(out, out[:, :, :1] * np.ones(sig.num_subcarriers), atol=1e-18)

    def test_matches_scalar_loop_oracle(self):
        cfg = default_scenario()
        sig = replace(cfg.signal, num_subcarriers=6, num_transmissions=2)
        beams = channel.draw_beams(cfg.anchors, cfg.ue_array, sig)
        out = channel.noise_free_signal(cfg.ue_start, cfg.anchors, cfg.ue_array, sig, beams)

        kappa = 2 * np.pi * sig.carrier_hz / SPEED_OF_LIGHT
        x = np.sqrt(10 ** ((sig.tx_power_dbm - 30) / 10) / sig.num_subcarriers)
        for n, anchor in enumerate(cfg.anchors):
            diff = cfg.ue_start.position - anchor.position
            dist = np.linalg.norm(diff)
            u = diff / dist
            t_bs = anchor.orientation.T @ u
            t_ue = -(cfg.ue_start.rotation.T @ u)
            lam = SPEED_OF_LIGHT / sig.carrier_hz
            gain = lam / (4 * np.pi * dist) * np.exp(-2j * np.pi * sig.carrier_hz * dist / SPEED_OF_LIGHT)
            tau = dist / SPEED_OF_LIGHT
            for g in range(sig.num_transmissions):
                bu = sum(
                    beams.combiners[n][g, d] * np.exp(1j * kappa * (cfg.ue_array.element_positions[d] @ t_ue))
                    for d in range(cfg.ue_array.num_elements)
                )
                bb = sum(
                    beams.precoders[n][g, d] * np.exp(1j * kappa * (anchor.array.element_positions[d] @ t_bs))
                    for d in range(anchor.array.num_elements)
                )
                for c in range(sig.num_subcarriers):
                    expected = gain * bu * bb * np.exp(-2j * np.pi * tau * c * sig.subcarrier_spacing_hz) * x
                    assert abs(out[n, g, c] - expected) < 1e-12 * abs(expected)


class TestFimUnconstrained:
    def test_power_linearity(self):
        rng = np.random.default_rng(5)
        ue, anchor, ue_array = random_geometry(rng)
        sig = small_signal()
        beams = channel.draw_beams([anchor], ue_array, sig)
        f1 = channel.fim_unconstrained(ue, [anchor], ue_array, sig, beams)
        doubled = replace(sig, tx_power_dbm=sig.tx_power_dbm + 10 * np.log10(2.0))
        f2 = channel.fim_unconstrained(ue, [anchor], ue_array, doubled, beams)
        np.testing.assert_allclose(f2, 2.0 * f1, rtol=1e-12, atol=1e-12 * np.abs(f1).max())

    def test_power_scaling_law(self):
        rng = np.random.default_rng(6)
        ue, anchor, ue_array = random_geometry(rng)
        sig = small_signal()
        beams = channel.draw_beams([anchor], ue_array, sig)
        f1 = channel.fim_unconstrained(ue, [anchor], ue_array, sig, beams)
        f2 = channel.fim_unconstrained(
            ue, [anchor], ue_array, replace(sig, tx_power_dbm=sig.tx_power_dbm + 20.0), beams
        )
        np.testing.assert_allclose(f2, 100.0 * f1, rtol=1e-9, atol=1e-9 * np.abs(f1).max())

    def test_symmetric_psd(self):
        rng = np.random.default_rng(7)
        cfg = default_scenario()
        sig = replace(cfg.signal, num_subcarriers=16, num_transmissions=4)
        beams = channel.draw_beams(cfg.anchors, cfg.ue_array, sig)
        f = channel.fim_unconstrained(cfg.ue_start, cfg.anchors, cfg.ue_array, sig, beams)
        scale = np.linalg.norm(f)
        assert np.linalg.norm(f - f.T) < 1e-10 * scale
        assert np.linalg.eigvalsh(f).min() >= -1e-8 * scale

    def test_gain_block_equal_diagonal(self):
        rng = np.random.default_rng(8)
        ue, anchor, ue_array = random_geometry(rng)
        sig = small_signal()
        beams = channel.draw_beams([anchor], ue_array, sig)
        f = channel.fim_unconstrained(ue, [anchor], ue_array, sig, beams)
        assert abs(f[7, 7] - f[8, 8]) < 1e-9 * abs(f[7, 7])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            ue, anchor, ue_array = random_geometry(rng)
            sig = small_signal()
            beams = channel.draw_beams([anchor], ue_array, sig)
            grad = channel._anchor_signal_gradient(
                ue, anchor, ue_array, sig, beams.precoders[0], beams.combiners[0]
            )
            par = channel.channel_params(ue, anchor, sig)

            # smooth extension of the signal in the unconstrained parameters
            def mu_raw(tau, t_ue, t_bs, gain):
                a_ue = np.exp(
                    1j * 2 * np.pi * sig.carrier_hz / SPEED_OF_LIGHT * (ue_array.element_positions @ t_ue)
                )
                a_bs = np.exp(
                    1j * 2 * np.pi * sig.carrier_hz / SPEED_OF_LIGHT * (anchor.array.element_positions @ t_bs)
                )
                ug = beams.combiners[0] @ a_ue
                bg = beams.precoders[0] @ a_bs
                ph = np.exp(-2j * np.pi * tau * np.arange(sig.num_subcarriers) * sig.subcarrier_spacing_hz)
                return gain * sig.subcarrier_amplitude * np.outer(ug * bg, ph)

            base = (par.delay_s, np.array(par.dir_ue), np.array(par.dir_bs), par.gain)

            # exactly-zero rows (planar-array blind axis) are compared
            # against the overall gradient scale
            def row_tol(row):
                return 1e-4 * max(np.abs(grad[row]).max(), 1e-10 * np.abs(grad).max())

            h_tau = 1e-6 * max(par.delay_s, 1e-9)
            fd = (mu_raw(base[0] + h_tau, *base[1:]) - mu_raw(base[0] - h_tau, *base[1:])) / (2 * h_tau)
            assert np.abs(fd - grad[0]).max() < row_tol(0)
            for m in range(3):
                h = 1e-7
                up, dn = base[1].copy(), base[1].copy()
                up[m] += h
                dn[m] -= h
                fd = (mu_raw(base[0], up, base[2], base[3]) - mu_raw(base[0], dn, base[2], base[3])) / (2 * h)
                assert np.abs(fd - grad[1 + m]).max() < row_tol(1 + m)
                up, dn = base[2].copy(), base[2].copy()
                up[m] += h
                dn[m] -= h
                fd = (mu_raw(base[0], base[1], up, base[3]) - mu_raw(base[0], base[1], dn, base[3])) / (2 * h)
                assert np.abs(fd - grad[4 + m]).max() < row_tol(4 + m)
            h = 1e-6 * max(abs(par.gain), 1e-12)
            fd = (mu_raw(base[0], base[1], base[2], base[3] + h) - mu_raw(base[0], base[1], base[2], base[3] - h)) / (2 * h)
            assert np.abs(fd - grad[7]).max() < row_tol(7)
            fd = (mu_raw(base[0], base[1], base[2], base[3] + 1j * h) - mu_raw(base[0], base[1], base[2], base[3] - 1j * h)) / (2 * h)
            assert np.abs(fd - grad[8]).max() < row_tol(8)


def _unit(v):
    return v / np.linalg.norm(v)


class TestAngleJacobian:
    def test_x_axis(self):
        np.testing.assert_allclose(
            channel.angle_jacobian([1.0, 0, 0]), [[0, 1, 0], [0, 0, 1.0]], atol=1e-15
        )

    def test_polar_singularity(self):
        with pytest.raises(PolarSingularity):
            channel.angle_jacobian([0.0, 0.0, 1.0])
        with pytest.raises(PolarSingularity):
            channel.angle_jacobian([1e-9, 0.0, np.sqrt(1 - 1e-18)])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            t = _random_unit(rng)
            if abs(t[2]) > 0.95:
                t[2] = 0.5
                t = _unit(t)
            jac = channel.angle_jacobian(t)

            def angles(v):
                return np.array([np.arctan2(v[1], v[0]), np.arcsin(v[2])])

            h = 1e-7
            fd = np.zeros((2, 3))
            for m in range(3):
                up, dn = t.copy(), t.copy()
                up[m] += h
                dn[m] -= h
                fd[:, m] = (angles(up) - angles(dn)) / (2 * h)
            assert np.abs(jac - fd).max() / np.abs(fd).max() < 1e-6


class TestFimDirectionFromAngles:
    def test_zero_fim(self):
        out = channel.fim_direction_from_angles(np.zeros((2, 2)), [1.0, 0, 0])
        assert np.array_equal(out, np.zeros((3, 3)))

    def test_identity_fim_at_x_axis(self):
        out = channel.fim_direction_from_angles(np.eye(2), [1.0, 0, 0])
        jac = channel.angle_jacobian([1.0, 0, 0])
        np.testing.assert_allclose(out, jac.T @ jac)

    def test_rank_at_most_two(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            t = _random_unit(rng)
            if abs(t[2]) > 0.9:
                t[2] = 0.0
                t = _unit(t)
            a = rng.standard_normal((2, 2))
            out = channel.fim_direction_from_angles(a @ a.T, t)
            assert np.linalg.matrix_rank(out, tol=1e-10 * max(np.abs(out).max(), 1e-30)) <= 2

    def test_null_direction_for_horizontal_directions(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            az = rng.uniform(-np.pi, np.pi)
            t = np.array([np.cos(az), np.sin(az), 0.0])
            a = rng.standard_normal((2, 2))
            fim = a @ a.T
            out = channel.fim_direction_from_angles(fim, t)
            assert np.linalg.norm(out @ t) < 1e-12 * np.abs(out).max()

    def test_chain_rule_consistency_with_signal_fim(self):
        # direction-vector block of the signal FIM, pushed to angles and back,
        # must agree with the raw block once both are restricted to the
        # tangent plane of the constraint sphere
        from radiopose.bounds import tangent_basis

        rng = np.random.default_rng(14)
        for _ in range(5):
            ue, anchor, ue_array = random_geometry(rng)
            par = channel.channel_params(ue, anchor, small_signal())
            if abs(par.dir_ue[2]) > 0.9:
                continue
            sig = small_signal()
            beams = channel.draw_beams([anchor], ue_array, sig)
            f = channel.fim_unconstrained(ue, [anchor], ue_array, sig, beams)
            f_t = f[1:4, 1:4]  # t_ue block
            t = par.dir_ue
            az, el = np.arctan2(t[1], t[0]), np.arcsin(t[2])
            t_gamma = np.array(
                [
                    [-np.cos(el) * np.sin(az), -np.sin(el) * np.cos(az)],
                    [np.cos(el) * np.cos(az), -np.sin(el) * np.sin(az)],
                    [0.0, np.cos(el)],
                ]
            )
            f_angles = t_gamma.T @ f_t @ t_gamma
            back = channel.fim_direction_from_angles(f_angles, t)
            b = tangent_basis(t)
            lhs = b @ back @ b.T
            rhs = b @ f_t @ b.T
            assert np.abs(lhs - rhs).max() < 1e-6 * np.abs(rhs).max()


class TestConfigValidation:
    def test_single_subcarrier_rejected(self):
        with pytest.raises(ValueError):
            small_signal(num_subcarriers=1)

    def test_nonpositive_carrier_rejected(self):
        with pytest.raises(ValueError):
            small_signal(carrier_hz=0.0)

    @pytest.mark.parametrize("name", ["tx_power_dbm", "noise_psd_dbm_hz", "bandwidth_hz", "clock_bias_s"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_rejected(self, name, value):
        with pytest.raises(ValueError):
            small_signal(**{name: value})

    def test_negative_beam_seed_rejected(self):
        with pytest.raises(ValueError):
            small_signal(rng_seed=-1)

    def test_default_bandwidth_is_occupied_band(self):
        sig = channel.SignalConfig(
            carrier_hz=30e9,
            subcarrier_spacing_hz=120e3,
            num_subcarriers=100,
            num_transmissions=4,
            tx_power_dbm=10.0,
            noise_psd_dbm_hz=-173.855,
        )
        assert sig.bandwidth_hz == 100 * 120e3

    def test_array_centroid_enforced(self):
        with pytest.raises(ValueError):
            ArrayGeometry(np.array([[1.0, 0, 0], [1.0, 0, 0]]))

    def test_direction_unit_norm_enforced(self):
        with pytest.raises(ValueError):
            channel.ChannelParams(1e-9, np.array([1.0, 1.0, 0]), np.array([1.0, 0, 0]), 1.0)


class TestFimAnglesPerAnchor:
    def test_blocks_and_consistency(self):
        rng = np.random.default_rng(15)
        ue, anchor, ue_array = random_geometry(rng)
        par = channel.channel_params(ue, anchor, small_signal())
        if abs(par.dir_ue[2]) > 0.95 or abs(par.dir_bs[2]) > 0.95:
            pytest.skip("polar geometry drawn")
        sig = small_signal()
        beams = channel.draw_beams([anchor], ue_array, sig)
        f9 = channel.fim_unconstrained(ue, [anchor], ue_array, sig, beams)
        f7 = channel.fim_angles_per_anchor(f9, par.dir_ue, par.dir_bs)
        scale = np.abs(f7).max()
        assert f7.shape == (7, 7)
        assert np.linalg.norm(f7 - f7.T) < 1e-10 * scale
        assert np.linalg.eigvalsh(f7).min() >= -1e-8 * scale
        # delay and gain rows pass through the angle re-parametrization
        np.testing.assert_allclose(f7[0, 0], f9[0, 0])
        np.testing.assert_allclose(f7[5:, 5:], f9[7:, 7:])
        # the UE az/el block pulled back to the sphere tangent matches the
        # projected direction-vector block
        from radiopose.bounds import tangent_basis

        back = channel.fim_direction_from_angles(f7[3:5, 3:5], par.dir_ue)
        b = tangent_basis(par.dir_ue)
        np.testing.assert_allclose(
            b @ back @ b.T, b @ f9[1:4, 1:4] @ b.T, rtol=0, atol=1e-6 * scale
        )


class TestErrorPaths:
    def test_zero_fim_gain_block_unrecoverable(self):
        from radiopose.bounds import efim_remove_gains
        from radiopose.errors import SingularNuisanceBlock

        with pytest.raises(SingularNuisanceBlock):
            efim_remove_gains(np.zeros((14, 14)))

    def test_singular_source_covariance_rejected_in_fusion(self):
        from radiopose import tracking
        from radiopose.errors import SingularNormalEquations
        from radiopose.lie import Pose

        with pytest.raises(SingularNormalEquations):
            tracking.fuse_poses(
                [(Pose.identity(), np.zeros((6, 6)))], initial=Pose.identity()
            )
