"""Channel geometry tests: direction vectors, delays, steering vectors, the
received-signal tensor against a scalar-loop oracle, and the unconstrained
FIM against central finite differences."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from radiopose import bounds, channel, lie, simkit
from radiopose.channel import SPEED_OF_LIGHT, ArrayGeometry
from radiopose.errors import CoincidentPositions, PolarSingularity, RadioPoseError
from radiopose.simkit import default_scenario
from references import fim_angles_per_anchor, fim_direction_from_angles
from test_bound_oracle import mixed_arrays, reduced_wideband


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
    def test_anchor_rejects_orientation_stack(self):
        with pytest.raises(ValueError, match=r"rotation must be 3x3, got \(2, 3, 3\)"):
            channel.AnchorConfig(np.zeros(3), np.stack([np.eye(3)] * 2), ArrayGeometry(np.zeros((1, 3))))

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

    @pytest.mark.parametrize("batched", [False, True])
    def test_coincidence_threshold_shared_by_every_los_quantity(self, batched):
        # 5e-7 m is inside the 1e-6 m coincidence radius: the delay, the
        # directions, the channel parameters and the state Jacobian all refuse
        # it, also as one pose of a batch whose other pose is 3 m away
        ue = lie.Pose.from_rotation_position(np.eye(3), np.array([5e-7, 0, 0]))
        if batched:
            ue = lie.se3_exp(np.array([[3.0, 0, 0, 0, 0, 0], [5e-7, 0, 0, 0, 0, 0]]))
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


def reference_beams(anchors, ue_array, sig):
    """The beam draw written out: per anchor, precoder then combiner, real
    part then imaginary, each row scaled to unit norm."""
    rng = np.random.default_rng(sig.rng_seed)
    precoders, combiners = [], []
    for anchor in anchors:
        for out, n_elements in ((precoders, anchor.array.num_elements), (combiners, ue_array.num_elements)):
            shape = (sig.num_transmissions, n_elements)
            z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            out.append(z / np.linalg.norm(z, axis=1, keepdims=True))
    return channel.BeamSet(tuple(precoders), tuple(combiners))


def same_beams(a, b):
    arrays_a, arrays_b = a.precoders + a.combiners, b.precoders + b.combiners
    return len(arrays_a) == len(arrays_b) and all(map(np.array_equal, arrays_a, arrays_b))


class TestDrawBeams:
    """Beams are drawn once per (seed, transmissions, element counts) and shared read-only."""

    @pytest.mark.parametrize("scenario", ["default", "wideband_reduced"])
    def test_matches_reference_draw(self, scenario):
        cfg = default_scenario() if scenario == "default" else reduced_wideband()
        beams = channel.draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
        assert same_beams(beams, reference_beams(cfg.anchors, cfg.ue_array, cfg.signal))

    def test_each_key_field_changes_the_beams(self):
        cfg = default_scenario()
        carrier = cfg.signal.carrier_hz
        bigger = channel.AnchorConfig(
            cfg.anchors[0].position, cfg.anchors[0].orientation, ArrayGeometry.half_wavelength_upa(4, 4, carrier)
        )
        variants = {
            "rng_seed": (cfg.anchors, cfg.ue_array, replace(cfg.signal, rng_seed=cfg.signal.rng_seed + 1)),
            "num_transmissions": (cfg.anchors, cfg.ue_array, replace(cfg.signal, num_transmissions=7)),
            "anchor elements": ((bigger,) + cfg.anchors[1:], cfg.ue_array, cfg.signal),
            "ue elements": (cfg.anchors, ArrayGeometry.half_wavelength_upa(2, 2, carrier), cfg.signal),
        }
        base = channel.draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
        for name, args in variants.items():
            beams = channel.draw_beams(*args)
            assert not same_beams(beams, base), name
            assert same_beams(beams, reference_beams(*args)), name

    def test_equal_element_counts_share_one_draw(self):
        cfg = default_scenario()
        moved = tuple(
            channel.AnchorConfig(a.position + 3.0, lie.so3_exp(np.array([0.1, -0.2, 0.3])), a.array)
            for a in cfg.anchors
        )
        # a 1x16 line has the 16 elements of the default 4x4 UE array
        line = ArrayGeometry.upa(1, 16, 0.005)
        assert line.num_elements == cfg.ue_array.num_elements
        other_carrier = replace(cfg.signal, carrier_hz=2 * cfg.signal.carrier_hz)
        base = channel.draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
        assert channel.draw_beams(moved, line, other_carrier) is base

    def test_beams_are_read_only(self):
        cfg = default_scenario()
        beams = channel.draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
        for array in beams.precoders + beams.combiners:
            with pytest.raises(ValueError):
                array[0, 0] = 1.0

    @pytest.mark.parametrize("source", ["drawn", "built"])
    def test_stacked_beams_are_padded_read_only_and_built_once(self, source):
        # the anchor axis of the beam-factor pass, over anchors of 64, 16 and 6
        # elements: a drawn set and a set built from separate arrays
        cfg = mixed_arrays()
        draw = channel.draw_beams if source == "drawn" else reference_beams
        beams = draw(cfg.anchors, cfg.ue_array, cfg.signal)
        precoders, combiners = beams.stacked
        assert beams.stacked[0] is precoders and beams.stacked[1] is combiners
        g = cfg.signal.num_transmissions
        assert precoders.shape == (3, g, 64) and combiners.shape == (3, g, cfg.ue_array.num_elements)
        for n, (b, u) in enumerate(zip(beams.precoders, beams.combiners)):
            elements = cfg.anchors[n].array.num_elements
            assert np.array_equal(precoders[n, :, :elements], b) and not precoders[n, :, elements:].any()
            assert np.array_equal(combiners[n], u)
            # a drawn set keeps one copy: its per-anchor arrays are views of the stacked ones
            assert np.shares_memory(b, precoders) == np.shares_memory(u, combiners) == (source == "drawn")
        for array in (precoders, combiners):
            with pytest.raises(ValueError):
                array[0, 0, 0] = 1.0

    def test_cold_and_warm_sweeps_agree(self):
        cfg = reduced_wideband()
        channel._draw_beams.cache_clear()
        cold = simkit.bounds_sweep(cfg, [-20.0, 0.0, 20.0])
        hits = channel._draw_beams.cache_info().hits
        warm = simkit.bounds_sweep(cfg, [-20.0, 0.0, 20.0])
        assert channel._draw_beams.cache_info().hits == hits + 1
        assert warm == cold


# both take (ue, anchors, ue_array, sig, beams)
BEAM_CONSUMERS = pytest.mark.parametrize(
    "call", [bounds.pose_error_bounds, channel.noise_free_signal], ids=["bounds", "signal"]
)


class TestBeamMismatch:
    """A beam set drawn for another scenario is rejected, not broadcast."""

    @BEAM_CONSUMERS
    def test_fewer_transmissions_than_beams(self, call):
        cfg = default_scenario()
        beams = channel.draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
        with pytest.raises(ValueError, match="num_transmissions 3"):
            call(cfg.ue_start, cfg.anchors, cfg.ue_array, replace(cfg.signal, num_transmissions=3), beams)

    @BEAM_CONSUMERS
    def test_beams_of_more_anchors(self, call):
        cfg = default_scenario()
        beams = channel.draw_beams(reduced_wideband().anchors, cfg.ue_array, cfg.signal)
        with pytest.raises(ValueError, match="4 precoder and 4 combiner arrays for 2 anchors"):
            call(cfg.ue_start, cfg.anchors, cfg.ue_array, cfg.signal, beams)

    @BEAM_CONSUMERS
    def test_wrong_element_count(self, call):
        cfg = default_scenario()
        small_ue = ArrayGeometry.half_wavelength_upa(2, 2, cfg.signal.carrier_hz)
        beams = channel.draw_beams(cfg.anchors, small_ue, cfg.signal)
        with pytest.raises(ValueError, match=r"anchor 0 combiners have shape \(20, 4\)"):
            call(cfg.ue_start, cfg.anchors, cfg.ue_array, cfg.signal, beams)


class TestSubcarrierGram:
    """The Gram of the subcarrier profiles is kept per (C, spacing), read-only."""

    def test_cached_and_read_only(self):
        gram = channel._subcarrier_gram(100, 120e3)
        assert channel._subcarrier_gram(100, 120e3) is gram
        with pytest.raises(ValueError):
            gram[0, 0] = 1.0

    def test_overflowing_spacing_raises_on_every_call(self):
        # a raising call is not cached: the second call raises the same error
        cfg = default_scenario()
        sig = replace(cfg.signal, subcarrier_spacing_hz=1e300)
        beams = channel.draw_beams(cfg.anchors, cfg.ue_array, sig)
        for _ in range(2):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(RadioPoseError, match="not finite: subcarrier_spacing_hz 1e\\+300"):
                    bounds.pose_error_bounds(cfg.ue_start, cfg.anchors, cfg.ue_array, sig, beams)


class TestNoiseFreeSignal:
    def test_zero_gain_zeroes_tensor(self, monkeypatch):
        rng = np.random.default_rng(3)
        ue, anchor, ue_array = random_geometry(rng)
        sig = small_signal()
        beams = channel.draw_beams([anchor], ue_array, sig)
        links = channel._links

        def silent_links(*args):
            u, dist, par = links(*args)
            return u, dist, replace(par, gain=np.zeros_like(par.gain))

        monkeypatch.setattr(channel, "_links", silent_links)
        out = channel.noise_free_signal(ue, [anchor], ue_array, sig, beams)
        assert np.array_equal(out, np.zeros_like(out))

    def test_single_antennas_zero_delay_constant_over_subcarriers(self):
        anchor = channel.AnchorConfig(np.zeros(3), np.eye(3), ArrayGeometry(np.zeros((1, 3))))
        ue = lie.Pose.from_rotation_position(np.eye(3), np.array([7.0, 0, 0]))
        ue_array = ArrayGeometry(np.zeros((1, 3)))
        # a clock bias that cancels the propagation time: zero delay from the physics
        sig = small_signal(clock_bias_s=-7.0 / SPEED_OF_LIGHT)
        assert channel.delay(ue, anchor, sig.clock_bias_s) == 0.0
        beams = channel.draw_beams([anchor], ue_array, sig)
        out = channel.noise_free_signal(ue, [anchor], ue_array, sig, beams)
        # each transmission is constant across subcarriers
        np.testing.assert_allclose(out, out[:, :, :1] * np.ones(sig.num_subcarriers), atol=1e-18)

    @pytest.mark.parametrize("scenario", ["default", "mixed_arrays"])
    def test_pose_batch_matches_unbatched_calls(self, scenario):
        cfg = default_scenario() if scenario == "default" else mixed_arrays()
        sig = replace(cfg.signal, num_subcarriers=16)
        beams = channel.draw_beams(cfg.anchors, cfg.ue_array, sig)
        poses = simkit.generate_trajectory(cfg.ue_start, cfg.segments)[::23]
        out = channel.noise_free_signal(lie.Pose.stack(poses), cfg.anchors, cfg.ue_array, sig, beams)
        rows = [channel.noise_free_signal(pose, cfg.anchors, cfg.ue_array, sig, beams) for pose in poses]
        assert out.shape == (len(poses), len(cfg.anchors), sig.num_transmissions, sig.num_subcarriers)
        assert np.array_equal(out, np.stack(rows))

    def test_matches_scalar_loop_oracle(self):
        cfg = default_scenario()
        sig = replace(cfg.signal, num_subcarriers=6, num_transmissions=2)
        beams = channel.draw_beams(cfg.anchors, cfg.ue_array, sig)
        kappa = 2 * np.pi * sig.carrier_hz / SPEED_OF_LIGHT
        x = np.sqrt(10 ** ((sig.tx_power_dbm - 30) / 10) / sig.num_subcarriers)
        # the start pose is equidistant from both anchors; trajectory pose 37 is not
        for ue in (cfg.ue_start, simkit.generate_trajectory(cfg.ue_start, cfg.segments)[37]):
            out = channel.noise_free_signal(ue, cfg.anchors, cfg.ue_array, sig, beams)
            for n, anchor in enumerate(cfg.anchors):
                diff = ue.position - anchor.position
                dist = np.linalg.norm(diff)
                u = diff / dist
                t_bs = anchor.orientation.T @ u
                t_ue = -(ue.rotation.T @ u)
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

    @pytest.mark.parametrize("scenario", ["default", "wideband_reduced"])
    def test_closed_form_matches_gradient_tensor(self, scenario):
        # the subcarrier sum in closed form against the explicit sum over
        # every (beam, subcarrier) entry of the (9, G, C) gradient tensor
        cfg = default_scenario() if scenario == "default" else reduced_wideband()
        sig = replace(cfg.signal, clock_bias_s=3.7e-8)
        beams = channel.draw_beams(cfg.anchors, cfg.ue_array, sig)
        ue = cfg.ue_start
        f = channel.fim_unconstrained(ue, cfg.anchors, cfg.ue_array, sig, beams)
        n_anchors = len(cfg.anchors)
        for n, anchor in enumerate(cfg.anchors):
            grad = channel._anchor_signal_gradient(
                ue, anchor, cfg.ue_array, sig, beams.precoders[n], beams.combiners[n]
            ).reshape(channel.PARAMS_PER_ANCHOR, -1)
            expected = (2.0 / sig.noise_variance_w) * np.real(np.conj(grad) @ grad.T)
            dirs, gains = n_anchors + 6 * n, 7 * n_anchors + 2 * n
            idx = np.array([n, *range(dirs, dirs + 6), gains, gains + 1])
            block = f[np.ix_(idx, idx)]
            # entries on the scale sqrt(F_ii F_jj); a planar array's blind
            # axis is an exact zero row on both sides
            d = np.sqrt(np.diag(expected))
            assert np.all(np.abs(block - expected) <= 1e-12 * np.outer(d, d))

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
        out = fim_direction_from_angles(np.zeros((2, 2)), [1.0, 0, 0])
        assert np.array_equal(out, np.zeros((3, 3)))

    def test_identity_fim_at_x_axis(self):
        out = fim_direction_from_angles(np.eye(2), [1.0, 0, 0])
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
            out = fim_direction_from_angles(a @ a.T, t)
            assert np.linalg.matrix_rank(out, tol=1e-10 * max(np.abs(out).max(), 1e-30)) <= 2

    def test_null_direction_for_horizontal_directions(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            az = rng.uniform(-np.pi, np.pi)
            t = np.array([np.cos(az), np.sin(az), 0.0])
            a = rng.standard_normal((2, 2))
            fim = a @ a.T
            out = fim_direction_from_angles(fim, t)
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
            back = fim_direction_from_angles(f_angles, t)
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
        f7 = fim_angles_per_anchor(f9, par.dir_ue, par.dir_bs)
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

        back = fim_direction_from_angles(f7[3:5, 3:5], par.dir_ue)
        b = tangent_basis(par.dir_ue)
        np.testing.assert_allclose(
            b @ back @ b.T, b @ f9[1:4, 1:4] @ b.T, rtol=0, atol=1e-6 * scale
        )


class TestErrorPaths:
    def test_zero_fim_gain_block_unrecoverable(self):
        from radiopose.bounds import efim_remove_gains
        from radiopose.errors import SingularNuisanceBlock

        with pytest.raises(SingularNuisanceBlock):
            efim_remove_gains(np.zeros((2, 9, 9)))

    def test_singular_source_covariance_rejected_in_fusion(self):
        from radiopose import tracking
        from radiopose.errors import SingularNormalEquations
        from radiopose.lie import Pose

        with pytest.raises(SingularNormalEquations):
            tracking.fuse_poses(
                [(Pose.identity(), np.zeros((6, 6)))], initial=Pose.identity()
            )


class TestSizeCaps:
    """Each size a scenario sets has a cap, checked when the value is built
    and before anything of that size is allocated."""

    @pytest.mark.parametrize(
        "name, cap", [("num_subcarriers", channel.MAX_SUBCARRIERS), ("num_transmissions", channel.MAX_TRANSMISSIONS)]
    )
    def test_signal_size_cap(self, name, cap):
        assert getattr(small_signal(**{name: cap}), name) == cap
        with pytest.raises(ValueError, match=f"{name} must be at most {cap}, got {cap + 1}"):
            small_signal(**{name: cap + 1})

    def test_array_element_cap_is_checked_before_the_grid(self):
        assert ArrayGeometry.upa(64, 64, 0.005).num_elements == channel.MAX_ARRAY_ELEMENTS
        for shape in ((65, 64), (10**12, 10**12)):  # no grid of the second shape could be allocated
            with pytest.raises(ValueError, match=f"exceeds {channel.MAX_ARRAY_ELEMENTS} elements"):
                ArrayGeometry.upa(*shape, 0.005)
