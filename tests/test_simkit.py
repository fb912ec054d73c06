"""Scenario, trajectory, sampling, Monte Carlo, CSV, config, and CLI tests."""

import copy
import pathlib
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
import yaml

from radiopose import bounds, channel, cli, lie, simkit, tracking
from radiopose.errors import (
    ConfigError,
    LengthMismatch,
    RadioPoseError,
    SingularInnovationCovariance,
    UnobservableState,
)


def tiny_scenario(mc_runs=2, steps=3, n_segments=2, **overrides):
    cfg = simkit.default_scenario()
    segments = tuple(replace(s, steps=steps) for s in cfg.segments[:n_segments])
    return replace(cfg, segments=segments, mc_runs=mc_runs, **overrides)


def holds(meas, target):
    """Where the measured poses ``meas`` (batched or not) are ``target``, the
    pose one run measured at one step."""
    return np.all(meas.pose.translation_block == target.translation_block, axis=-1)


def failing_on(update, target, message):
    """``update`` that raises SingularInnovationCovariance(message) whenever it
    is given the measured pose ``target``, in a batch or alone."""

    def failing(pred, meas):
        if np.any(holds(meas, target)):
            raise SingularInnovationCovariance(message)
        return update(pred, meas)

    return failing


# (poison of the true rotation, reason the run is dropped) for an ESKF estimate
# poisoned at step 2
_NAN_ESTIMATE = (lambda truth: np.full((3, 3), np.nan), "estimate is not finite at step 2")
_HALF_TURN_ESTIMATE = (
    lambda truth: lie.so3_exp(np.array([0.0, 0.0, np.pi])) @ truth,
    "rotation angle within 1e-6 of pi",
)


class TestDefaultScenario:
    def test_published_signal_parameters(self):
        cfg = simkit.default_scenario()
        assert cfg.signal.carrier_hz == 3.0e10
        assert cfg.signal.subcarrier_spacing_hz == 120e3
        assert cfg.signal.num_subcarriers == 100
        assert cfg.signal.num_transmissions == 20
        assert cfg.signal.tx_power_dbm == 20.0
        assert cfg.signal.noise_psd_dbm_hz == -173.855
        assert cfg.signal.bandwidth_hz == 100e6

    def test_anchor_layout(self):
        cfg = simkit.default_scenario()
        assert len(cfg.anchors) == 2
        np.testing.assert_allclose(cfg.anchors[0].position, [5.0, 0, 0])
        np.testing.assert_allclose(cfg.anchors[1].position, [0, 5.0, 0])
        assert cfg.anchors[0].array.num_elements == 64
        assert cfg.ue_array.num_elements == 16

    def test_ue_start(self):
        cfg = simkit.default_scenario()
        np.testing.assert_allclose(cfg.ue_start.position, [-5.0, -5.0, 0], atol=1e-12)
        ypr = tracking.euler_from_rotation(cfg.ue_start.rotation)
        np.testing.assert_allclose(np.rad2deg(ypr), [20.0, -30.0, 0.0], atol=1e-10)

    def test_literal_is_the_schema_the_writer_writes(self):
        # the loader's schema is the literal: the writer gives the same keys
        # and value types at every level
        def kinds(value):
            if isinstance(value, dict):
                return {k: kinds(v) for k, v in value.items()}
            if isinstance(value, list):
                return [kinds(v) for v in value]
            return type(value)

        assert kinds(simkit.scenario_to_dict(simkit.default_scenario())) == kinds(simkit._DEFAULT_SCENARIO)

    def test_published_rotations_and_turn_rates_are_exact(self):
        cfg = simkit.default_scenario()
        for anchor, deg in zip(cfg.anchors, ([0.0, 15.0, 0.0], [-30.0, 15.0, 0.0]), strict=True):
            np.testing.assert_array_equal(anchor.orientation, tracking.rotation_from_euler(np.deg2rad(deg)))
        np.testing.assert_array_equal(
            cfg.ue_start.rotation, tracking.rotation_from_euler(np.deg2rad([20.0, -30.0, 0.0]))
        )
        turn, still = [0.0, 0.0, -np.pi / 4], [0.0, 0.0, 0.0]
        for seg, w in zip(cfg.segments, [turn, still, turn, still, turn, turn], strict=True):
            np.testing.assert_array_equal(seg.w, w)

    def test_two_anchor_minimum_enforced(self):
        cfg = simkit.default_scenario()
        with pytest.raises(ValueError):
            replace(cfg, anchors=cfg.anchors[:1])

    def test_one_segment_minimum_enforced(self):
        with pytest.raises(ValueError, match="at least 1 trajectory segment"):
            replace(simkit.default_scenario(), segments=())

    @pytest.mark.parametrize(
        "name", ["measurement_noise_scale", "process_noise_rho_m", "process_noise_rot_rad"]
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_noise_fields_must_be_finite_and_non_negative(self, name, value):
        with pytest.raises(ValueError):
            replace(simkit.default_scenario(), **{name: value})

    @pytest.mark.parametrize("seed", [-1, 2**64, 99999999999999999999999])
    def test_seed_must_fit_the_64_bit_key(self, seed):
        # run_rng keys each run's generator with the seed as a uint64: a seed
        # outside [0, 2**64) would wrap onto another seed's study
        with pytest.raises(ValueError, match="seed must be in"):
            replace(simkit.default_scenario(), seed=seed)
        for edge in (0, 2**64 - 1):
            assert replace(simkit.default_scenario(), seed=edge).seed == edge

    @pytest.mark.parametrize("name", ["process_noise_rho_m", "process_noise_rot_rad"])
    def test_process_noise_must_have_a_finite_square(self, name):
        # the process-noise covariance holds the square, which overflows
        cfg = simkit.default_scenario()
        with pytest.raises(ValueError, match=f"{name} squared must be finite"):
            replace(cfg, **{name: 1e200})
        with pytest.raises(ConfigError, match=name):
            simkit.scenario_from_dict({**simkit.scenario_to_dict(cfg), name: 1e200})


class TestTrajectory:
    def test_stationary_segment(self):
        cfg = simkit.default_scenario()
        seg = simkit.TrajectorySegment(v=np.zeros(3), w=np.zeros(3), steps=5, dt=0.5)
        poses = simkit.generate_trajectory(cfg.ue_start, [seg])
        assert len(poses) == 5
        for pose in poses:
            np.testing.assert_allclose(pose.matrix(), cfg.ue_start.matrix(), atol=1e-14)

    @pytest.mark.parametrize("field", ["v", "w"])
    @pytest.mark.parametrize("value", [np.zeros(2), np.zeros((1, 3)), np.array([0.0, np.nan, 0.0])])
    def test_segment_rates_must_be_finite_3_vectors(self, field, value):
        rates = {"v": np.zeros(3), "w": np.zeros(3), field: value}
        with pytest.raises(ValueError, match=f"{field} must be a finite 3-vector"):
            simkit.TrajectorySegment(**rates, steps=5, dt=0.5)

    def test_default_length_is_120(self):
        cfg = simkit.default_scenario()
        assert len(simkit.generate_trajectory(cfg.ue_start, cfg.segments)) == 120

    def test_segment_commands_share_one_object_per_segment(self):
        cfg = simkit.default_scenario()
        commands = simkit.segment_commands(cfg.segments, cfg.process_noise)
        assert len(commands) == sum(seg.steps for seg in cfg.segments)
        assert len({id(cmd) for cmd in commands}) == len(cfg.segments)
        start = 0
        for seg in cfg.segments:
            assert all(cmd is commands[start] for cmd in commands[start:start + seg.steps])
            start += seg.steps

    def test_cached_factor_is_exact_and_read_only(self):
        for seg in simkit.default_scenario().segments:
            cmd = simkit.segment_commands([seg])[0]
            ref = lie._pose(lie.so3_exp(seg.dt * seg.w), seg.dt * seg.v)
            assert cmd.factor is cmd.factor and cmd.factor_adjoint is cmd.factor_adjoint
            np.testing.assert_array_equal(cmd.factor.rotation, ref.rotation)
            np.testing.assert_array_equal(cmd.factor.translation_block, ref.translation_block)
            np.testing.assert_array_equal(cmd.factor_adjoint, lie.adjoint(ref))
            for array in (cmd.factor.rotation, cmd.factor.translation_block, cmd.factor_adjoint):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0.0

    def test_study_evaluates_motion_once_per_segment(self, monkeypatch):
        calls = []
        original = tracking.so3_exp
        monkeypatch.setattr(tracking, "so3_exp", lambda r: calls.append(r) or original(r))
        cfg = replace(simkit.default_scenario(), mc_runs=2)
        simkit.run_monte_carlo(cfg)
        # one factor per segment for the truth trajectory and one for the
        # filters' commands, against 120 steps
        assert len(calls) == 2 * len(cfg.segments)

    def test_trajectory_equals_per_step_factors(self):
        cfg = simkit.default_scenario()
        pose, expected = cfg.ue_start, []
        for seg in cfg.segments:
            for _ in range(seg.steps):
                pose = lie._pose(lie.so3_exp(seg.dt * seg.w), seg.dt * seg.v) @ pose
                expected.append(pose)
        poses = simkit.generate_trajectory(cfg.ue_start, cfg.segments)
        assert len(poses) == len(expected)
        for got, ref in zip(poses, expected):
            np.testing.assert_array_equal(got.matrix(), ref.matrix())

    def test_each_step_matches_noise_free_predict(self):
        cfg = simkit.default_scenario()
        poses = simkit.generate_trajectory(cfg.ue_start, cfg.segments)
        commands = simkit.segment_commands(cfg.segments)
        state = tracking.FilterState(cfg.ue_start, np.zeros((6, 6)))
        for pose, cmd in zip(poses, commands):
            state = tracking.predict(state, cmd)
            np.testing.assert_allclose(state.pose.matrix(), pose.matrix(), atol=1e-12)


class TestSampleMeasurement:
    def test_zero_covariance_returns_truth(self):
        cfg = simkit.default_scenario()
        report = bounds.IcrbReport(icrb=np.zeros((6, 6)), peb_m=0.0, rmeb_rad=0.0)
        normals = simkit.run_rng(0, 0).standard_normal(6)
        meas = simkit.sample_measurement(cfg.ue_start, report.icrb_sqrt, normals, 1.0)
        np.testing.assert_allclose(meas.matrix(), cfg.ue_start.matrix(), atol=1e-15)

    def test_rotation_invariants_always_hold(self):
        cfg = simkit.default_scenario()
        icrb = np.diag([0.5] * 3 + [0.4] * 3)
        report = bounds.IcrbReport(icrb=icrb, peb_m=1.0, rmeb_rad=1.0)
        normals = simkit.run_rng(1, 0).standard_normal((100, 6))
        for rot in simkit.sample_measurement(cfg.ue_start, report.icrb_sqrt, normals, 1.0).rotation:
            assert np.linalg.norm(rot.T @ rot - np.eye(3)) < 1e-12

    def test_huge_finite_noise_still_samples_rotations(self):
        # rotation errors of about 1e44 rad are whole turns plus a remainder
        cfg = simkit.default_scenario()
        normals = simkit.run_rng(2, 0).standard_normal((50, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rot = simkit.sample_measurement(cfg.ue_start, 1e44 * np.eye(6), normals, 1.0).rotation
        assert np.abs(rot @ rot.mT - np.eye(3)).max() < 1e-12
        assert np.abs(np.linalg.det(rot) - 1.0).max() < 1e-12

    def test_overflowing_noise_is_a_radiopose_error(self):
        # the draw overflows at this scale: the sampler names the setting,
        # without a numpy warning, before any filter runs
        cfg = tiny_scenario(mc_runs=1, measurement_noise_scale=1e200)
        beams = channel.draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
        truths, reports = simkit.scenario_reports(cfg, beams)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RadioPoseError, match="measurement_noise_scale"):
                normals = simkit.run_rng(0, 0).standard_normal(6)
                simkit.sample_measurement(truths[0], reports[0].icrb_sqrt, normals, 1e200)
            with pytest.raises(RadioPoseError, match="measurement_noise_scale"):
                simkit.run_monte_carlo(cfg)

    def test_bound_factored_once_per_study(self, monkeypatch):
        # every run draws from the same batched report of the K steps, so the
        # square-root factors of all bounds are computed once per study, not
        # once per run or per step
        prop = bounds.IcrbReport.__dict__["icrb_sqrt"]
        original = prop.func
        calls = []
        monkeypatch.setattr(prop, "func", lambda report: calls.append(report) or original(report))
        cfg = tiny_scenario(mc_runs=3)
        simkit.run_monte_carlo(cfg)
        assert len(calls) == 1
        assert calls[0].icrb.shape == (sum(s.steps for s in cfg.segments), 6, 6)
        assert not calls[0].icrb.flags.writeable and not calls[0].icrb_sqrt.flags.writeable

    def test_empirical_covariance_matches_transform(self):
        from radiopose.bounds import measurement_covariance

        cfg = simkit.default_scenario()
        beams = channel.draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
        from radiopose.bounds import pose_error_bounds

        report = pose_error_bounds(cfg.ue_start, cfg.anchors, cfg.ue_array, cfg.signal, beams)
        sigma = measurement_covariance(report.icrb, cfg.ue_start.rotation)
        # one batched draw: the same normals as n successive draws of 6
        n = 100_000
        normals = simkit.run_rng(2, 0).standard_normal((n, 6))
        meas = simkit.sample_measurement(cfg.ue_start, report.icrb_sqrt, normals, 1.0)
        samples = lie.se3_log(meas @ cfg.ue_start.inverse())
        emp = samples.T @ samples / n
        scale = np.sqrt(np.outer(np.diag(sigma), np.diag(sigma)))
        assert np.abs(emp - sigma).max() / scale.max() < 0.05
        np.testing.assert_allclose(emp, sigma, atol=0.05 * scale.max())


class TestRunMonteCarlo:
    def test_noiseless_runs_are_exact(self):
        cfg = tiny_scenario(mc_runs=1, steps=4, measurement_noise_scale=0.0)
        series = simkit.run_monte_carlo(cfg)
        for metrics in series.filters.values():
            assert metrics.pos_rmse_m.max() < 1e-8
            assert metrics.rot_rmse_rad.max() < 1e-8

    def test_run_order_independence(self):
        cfg = tiny_scenario(mc_runs=3, steps=3)
        beams = channel.draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
        truths, reports = simkit.scenario_reports(cfg, beams)
        commands = simkit.segment_commands(cfg.segments, cfg.process_noise)
        first = simkit.run_single(cfg, 2, truths, reports, commands)
        again = simkit.run_single(cfg, 2, truths, reports, commands)
        for a, b in zip(first.measurements, again.measurements):
            np.testing.assert_array_equal(a.pose.matrix(), b.pose.matrix())

    def test_doubling_runs_keeps_rmse_statistically_stable(self):
        cfg = tiny_scenario(mc_runs=16, steps=4)
        small = simkit.run_monte_carlo(cfg)
        big = simkit.run_monte_carlo(replace(cfg, mc_runs=32))
        for name in small.filters:
            a = np.mean(small.filters[name].rot_rmse_rad)
            b = np.mean(big.filters[name].rot_rmse_rad)
            assert abs(a - b) / a < 3.0 / np.sqrt(16)

    def test_all_rotation_errors_within_log_range(self):
        cfg = tiny_scenario(mc_runs=2, steps=4)
        beams = channel.draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
        truths, reports = simkit.scenario_reports(cfg, beams)
        commands = simkit.segment_commands(cfg.segments, cfg.process_noise)
        result = simkit.run_single(cfg, 0, truths, reports, commands)
        for name, err in result.tangent_errors.items():
            rot_norm = np.linalg.norm(err[:, 3:], axis=1)
            assert np.all(np.isfinite(rot_norm))
            assert rot_norm.max() <= np.pi + 1e-12

    def test_failing_filter_is_isolated(self, monkeypatch):
        cfg = tiny_scenario(mc_runs=2, steps=3)
        beams = channel.draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
        truths, reports = simkit.scenario_reports(cfg, beams)
        commands = simkit.segment_commands(cfg.segments, cfg.process_noise)
        clean = simkit.run_single(cfg, 0, truths, reports, commands)

        # the ESKF update fails on run 0's measurement at step 3
        failing = failing_on(simkit.eskf_update, clean.measurements[3].pose, "injected at step 3")
        monkeypatch.setattr(simkit, "eskf_update", failing)
        result = simkit.run_single(cfg, 0, truths, reports, commands)
        assert result.failed == {"fusion": None, "eskf": "injected at step 3", "euler": None}
        assert len(result.estimates["eskf"]) == 3
        assert np.all(np.isfinite(result.tangent_errors["eskf"][:3]))
        assert np.all(np.isnan(result.tangent_errors["eskf"][3:]))
        for name in ("fusion", "euler"):
            assert len(result.estimates[name]) == len(truths)
            for a, b in zip(result.estimates[name], clean.estimates[name]):
                assert np.array_equal(a.matrix(), b.matrix())
            assert np.array_equal(result.tangent_errors[name], clean.tangent_errors[name])

        series = simkit.run_monte_carlo(cfg)  # run 0 fails at step 3, run 1 runs clean
        assert (series.n_runs, series.n_failed_runs) == (2, 1)
        assert series.dropped_runs == {0: {"eskf": "injected at step 3"}}
        assert series.filters["fusion"].per_run_rot_rmse_rad.shape == (1,)

    def test_batch_only_failure_propagates(self, monkeypatch):
        # a step that fails in the batch but in no run alone is no run's failure
        real_update = simkit.eskf_update

        def failing_in_batches(pred, meas):
            if meas.pose.translation_block.ndim > 1:
                raise SingularInnovationCovariance("injected in batches")
            return real_update(pred, meas)

        monkeypatch.setattr(simkit, "eskf_update", failing_in_batches)
        with pytest.raises(SingularInnovationCovariance, match="injected in batches"):
            simkit.run_monte_carlo(tiny_scenario(mc_runs=2, steps=3))

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_estimate_ends_the_filter(self, monkeypatch):
        cfg = tiny_scenario(mc_runs=1, steps=3)
        beams = channel.draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
        truths, reports = simkit.scenario_reports(cfg, beams)
        commands = simkit.segment_commands(cfg.segments, cfg.process_noise)

        def diverged(pred, meas):
            return tracking.FilterState(lie.se3_exp(np.full(6, np.nan)), pred.cov)

        monkeypatch.setattr(simkit, "eskf_update", diverged)
        result = simkit.run_single(cfg, 0, truths, reports, commands)
        assert result.failed == {"fusion": None, "eskf": "estimate is not finite at step 1", "euler": None}
        assert len(result.estimates["eskf"]) == 1
        assert np.all(np.isnan(result.tangent_errors["eskf"][1:]))

    def test_dropped_run_keeps_its_reason(self, monkeypatch, tmp_path, capsys):
        cfg = tiny_scenario(mc_runs=3, steps=3)
        beams = channel.draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
        truths, reports = simkit.scenario_reports(cfg, beams)
        commands = simkit.segment_commands(cfg.segments, cfg.process_noise)
        target = simkit.run_single(cfg, 1, truths, reports, commands).measurements[2].pose

        # the ESKF update fails on run 1's measurement at step 2
        monkeypatch.setattr(simkit, "eskf_update", failing_on(simkit.eskf_update, target, "injected in run 1"))
        series = simkit.run_monte_carlo(cfg)
        assert series.dropped_runs == {1: {"eskf": "injected in run 1"}}
        assert series.n_failed_runs == 1

        cfg_path = tmp_path / "cfg.yaml"
        simkit.save_scenario(cfg, cfg_path)
        rc = cli.main(["mc", "--config", str(cfg_path), "--out-prefix", str(tmp_path / "mc")])
        assert rc == 0
        captured = capsys.readouterr()
        assert "dropped 1 run(s), eskf: injected in run 1" in captured.err
        assert "2/3 runs" in captured.out

    def test_run_single_is_a_row_of_the_batch(self):
        cfg = tiny_scenario(mc_runs=5, steps=3)
        beams = channel.draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
        truths, reports = simkit.scenario_reports(cfg, beams)
        commands = simkit.segment_commands(cfg.segments, cfg.process_noise)
        _, measured, tracks = simkit._run_batch(cfg, range(5), truths, reports, commands)
        for i in (0, 3):
            single = simkit.run_single(cfg, i, truths, reports, commands)
            for k, meas in enumerate(single.measurements):
                np.testing.assert_array_equal(meas.pose.matrix(), measured[i, k].matrix())
            for name, track in tracks.items():
                np.testing.assert_array_equal(single.tangent_errors[name], track.errors[i])
                for k, est in enumerate(single.estimates[name]):
                    np.testing.assert_array_equal(est.matrix(), track.estimates[i, k].matrix())

    @pytest.mark.parametrize(
        "poisons",
        [{2: _NAN_ESTIMATE}, {2: _HALF_TURN_ESTIMATE}, {1: _HALF_TURN_ESTIMATE, 2: _NAN_ESTIMATE}],
        ids=["nan", "near_pi", "near_pi_and_nan"],
    )
    def test_bad_row_drops_only_its_run(self, monkeypatch, poisons):
        # the ESKF estimate of each poisoned run turns NaN, or half a turn
        # away from the truth, at step 2, whether that run is stepped in a
        # batch or alone; the other runs' numbers stay as they were
        cfg = tiny_scenario(mc_runs=4, steps=3)
        beams = channel.draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
        truths, reports = simkit.scenario_reports(cfg, beams)
        commands = simkit.segment_commands(cfg.segments, cfg.process_noise)
        _, measured, clean = simkit._run_batch(cfg, range(4), truths, reports, commands)
        real_update = simkit.eskf_update

        def poisoned(pred, meas):
            out = real_update(pred, meas)
            rot = np.array(out.pose.rotation)
            for run, (poison, _) in poisons.items():
                # a 0-d mask, for a run stepped alone, selects its whole rotation
                rot[holds(meas, measured[run, 2])] = poison(truths[2].rotation)
            return tracking.FilterState(lie._pose(rot, np.array(out.pose.translation_block)), out.cov)

        monkeypatch.setattr(simkit, "eskf_update", poisoned)
        _, _, tracks = simkit._run_batch(cfg, range(4), truths, reports, commands)
        assert tracks["eskf"].failed == [poisons[run][1] if run in poisons else None for run in range(4)]
        for run in poisons:
            assert np.all(np.isnan(tracks["eskf"].errors[run, 2:]))
            np.testing.assert_array_equal(tracks["eskf"].errors[run, :2], clean["eskf"].errors[run, :2])
        for name in clean:
            for run in range(4):
                if name != "eskf" or run not in poisons:
                    np.testing.assert_array_equal(tracks[name].errors[run], clean[name].errors[run])

        series = simkit.run_monte_carlo(cfg)
        assert series.dropped_runs == {run: {"eskf": reason} for run, (_, reason) in poisons.items()}

    @pytest.mark.parametrize(
        "poison_step, raise_step, nan_block, reason",
        [(1, 2, False, "rotation angle within 1e-6 of pi"), (2, None, True, "estimate is not finite at step 2")],
        ids=["near_pi_before_a_loop_failure", "loop_failure_at_the_near_pi_step"],
    )
    def test_near_pi_error_ends_its_run_at_its_step(self, monkeypatch, poison_step, raise_step, nan_block, reason):
        # run 1's ESKF estimate turns half a turn away from the truth at
        # poison_step. Its errors are taken after the loop, yet the run ends
        # there: with the near-pi message even though its update raises at a
        # later step, but with the loop's own failure when the estimate at that
        # step is not finite either
        cfg = tiny_scenario(mc_runs=3, steps=3)
        beams = channel.draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
        truths, reports = simkit.scenario_reports(cfg, beams)
        commands = simkit.segment_commands(cfg.segments, cfg.process_noise)
        _, measured, clean = simkit._run_batch(cfg, range(3), truths, reports, commands)
        real_update = simkit.eskf_update

        def poisoned(pred, meas):
            if raise_step is not None and np.any(holds(meas, measured[1, raise_step])):
                raise SingularInnovationCovariance("injected in run 1")
            out = real_update(pred, meas)
            rot, block = np.array(out.pose.rotation), np.array(out.pose.translation_block)
            bad = holds(meas, measured[1, poison_step])
            rot[bad] = _HALF_TURN_ESTIMATE[0](truths[poison_step].rotation)
            if nan_block:
                block[bad] = np.nan
            return tracking.FilterState(lie._pose(rot, block), out.cov)

        monkeypatch.setattr(simkit, "eskf_update", poisoned)
        _, _, tracks = simkit._run_batch(cfg, range(3), truths, reports, commands)
        eskf = tracks["eskf"]
        assert eskf.failed == [None, reason, None]
        assert np.all(np.isnan(eskf.errors[1, poison_step:]))
        assert np.all(np.isnan(eskf.estimates[1, poison_step:].rotation))
        np.testing.assert_array_equal(eskf.errors[1, :poison_step], clean["eskf"].errors[1, :poison_step])
        for name in clean:
            for run in (0, 2):
                np.testing.assert_array_equal(tracks[name].errors[run], clean[name].errors[run])
        single = simkit.run_single(cfg, 1, truths, reports, commands)
        assert single.failed["eskf"] == reason
        assert len(single.estimates["eskf"]) == poison_step

    @pytest.mark.parametrize("steps", [2, 5])
    def test_error_series_takes_one_log_per_filter(self, monkeypatch, steps):
        # log(est truth^-1) is taken once per filter over all (run, step)
        # estimates after the step loop, whatever the number of steps
        calls = []
        real_log = simkit.se3_log
        monkeypatch.setattr(simkit, "se3_log", lambda pose: calls.append(pose.rotation.shape) or real_log(pose))
        simkit.run_monte_carlo(tiny_scenario(mc_runs=3, steps=steps))
        assert calls == [(3 * 2 * steps, 3, 3)] * 3

    def test_measurement_terms_evaluated_once_per_study(self, monkeypatch):
        # every step reads its slice of one evaluation over the (R, K) stack
        calls = {"cov_tangent": [], "euler_state": []}
        for name, shapes in calls.items():
            prop = tracking.PoseMeasurement.__dict__[name]
            monkeypatch.setattr(
                prop, "func", lambda meas, f=prop.func, shapes=shapes: shapes.append(meas.pose.rotation.shape) or f(meas)
            )
        simkit.run_monte_carlo(tiny_scenario(mc_runs=3, steps=3))
        assert calls == {"cov_tangent": [(3, 6, 3, 3)], "euler_state": [(3, 6, 3, 3)]}

    def test_runs_left_after_a_drop_keep_reading_their_slices(self, monkeypatch):
        # the runs retaken alone at the failing step, and the two runs left
        # after it, read the study's slices
        cfg = tiny_scenario(mc_runs=3, steps=3)
        beams = channel.draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
        truths, reports = simkit.scenario_reports(cfg, beams)
        commands = simkit.segment_commands(cfg.segments, cfg.process_noise)
        _, measured, _ = simkit._run_batch(cfg, range(3), truths, reports, commands)
        monkeypatch.setattr(simkit, "eskf_update", failing_on(simkit.eskf_update, measured[1, 1], "injected"))
        prop = tracking.PoseMeasurement.__dict__["cov_tangent"]
        shapes = []
        monkeypatch.setattr(prop, "func", lambda meas, f=prop.func: shapes.append(meas.pose.rotation.shape) or f(meas))
        assert simkit.run_monte_carlo(cfg).dropped_runs == {1: {"eskf": "injected"}}
        assert shapes == [(3, 6, 3, 3)]

    def test_gimbal_locked_measurement_fails_only_its_run(self, monkeypatch):
        # the Euler state of the stack is computed without the guard; a
        # measurement in the guard band still ends its own run at its step
        cfg = tiny_scenario(mc_runs=3, steps=3)
        beams = channel.draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
        truths, reports = simkit.scenario_reports(cfg, beams)
        commands = simkit.segment_commands(cfg.segments, cfg.process_noise)
        _, _, clean = simkit._run_batch(cfg, range(3), truths, reports, commands)
        real_sample = simkit.sample_measurement
        locked = tracking.rotation_from_euler(np.array([0.3, np.pi / 2, 0.0]))

        def sample_locked(truth, icrb_sqrt, normals, scale):
            out = real_sample(truth, icrb_sqrt, normals, scale)
            rot = np.array(out.rotation)
            rot[1, 2] = locked  # run 1 at step 2
            return lie._pose(rot, np.array(out.translation_block))

        monkeypatch.setattr(simkit, "sample_measurement", sample_locked)
        _, _, tracks = simkit._run_batch(cfg, range(3), truths, reports, commands)
        assert tracks["euler"].failed == [None, "pitch within guard band of +/-pi/2", None]
        assert np.all(np.isnan(tracks["euler"].errors[1, 2:]))
        np.testing.assert_array_equal(tracks["euler"].errors[1, :2], clean["euler"].errors[1, :2])
        for run in (0, 2):
            np.testing.assert_array_equal(tracks["euler"].errors[run], clean["euler"].errors[run])

    def test_fusion_non_convergence_is_counted(self, monkeypatch, tmp_path, capsys):
        cfg = tiny_scenario(mc_runs=3, steps=3)
        assert simkit.run_monte_carlo(cfg).fusion_nonconverged == 0
        monkeypatch.setattr(tracking, "_FUSION_MAX_ITERS", 1)
        series = simkit.run_monte_carlo(cfg)
        # every fusion update after the first step stops at the one allowed step
        assert series.fusion_nonconverged == 3 * (6 - 1)
        assert series.n_failed_runs == 0

        cfg_path = tmp_path / "cfg.yaml"
        simkit.save_scenario(cfg, cfg_path)
        rc = cli.main(["mc", "--config", str(cfg_path), "--out-prefix", str(tmp_path / "mc")])
        assert rc == 0
        assert "fusion hit the Gauss-Newton iteration limit in 15 update(s)" in capsys.readouterr().err
        header = (tmp_path / "mc_rmse.csv").read_text().splitlines()[0]
        assert "converge" not in header

    def test_track_reports_fusion_non_convergence(self, monkeypatch, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        simkit.save_scenario(tiny_scenario(steps=3), cfg_path)
        monkeypatch.setattr(tracking, "_FUSION_MAX_ITERS", 1)
        rc = cli.main(["track", "--config", str(cfg_path), "--out", str(tmp_path / "track.csv")])
        assert rc == 0
        # every fusion update after the first step stops at the one allowed step
        assert "fusion hit the Gauss-Newton iteration limit in 5 update(s)" in capsys.readouterr().err
        for path in tmp_path.glob("track*.csv"):
            assert "converge" not in path.read_text()

    def test_fusion_converging_on_its_last_allowed_solve_is_not_counted(self, monkeypatch):
        cfg = tiny_scenario(mc_runs=3, steps=3)
        real_fuse = tracking.fuse_poses
        states = []
        monkeypatch.setattr(tracking, "fuse_poses", lambda *a, **k: states.append(real_fuse(*a, **k)) or states[-1])
        simkit.run_monte_carlo(cfg)
        most = max(int(np.max(s.iterations)) for s in states)
        needing_most = sum(int(np.sum(s.iterations == most)) for s in states)
        assert needing_most > 0
        # most + 1 solves let every update take its steps and solve the one
        # below tolerance after them
        monkeypatch.setattr(tracking, "_FUSION_MAX_ITERS", most + 1)
        states.clear()
        assert simkit.run_monte_carlo(cfg).fusion_nonconverged == 0
        assert all(s.converged for s in states)
        assert sum(int(np.sum(s.iterations == most)) for s in states) == needing_most
        # one solve fewer stops exactly the updates that needed them all
        monkeypatch.setattr(tracking, "_FUSION_MAX_ITERS", most)
        states.clear()
        assert simkit.run_monte_carlo(cfg).fusion_nonconverged == needing_most
        assert sum(int(np.sum(s.iterations >= most)) for s in states) == needing_most
        assert sum(not s.converged for s in states) == sum(bool(np.any(s.iterations >= most)) for s in states)

    def test_unobservable_truth_pose_is_named(self, monkeypatch):
        # a study needs the bound at every true pose: the first pose whose
        # state FIM is unobservable ends it, by index
        original = bounds._chain_jacobian

        def blind_at_4_and_6(*args):
            jac = original(*args)
            jac[[4, 6]] = 0.0
            return jac

        monkeypatch.setattr(bounds, "_chain_jacobian", blind_at_4_and_6)
        cfg = tiny_scenario(steps=4)
        beams = channel.draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
        with pytest.raises(UnobservableState, match="truth pose 4 of 8"):
            simkit.scenario_reports(cfg, beams)

    def test_unobservable_pose_of_a_later_chunk_is_named_globally(self, monkeypatch):
        # chunks of 3 truth poses: pose 4 is row 1 of the second chunk, and
        # the study ends there, before the chunk that holds pose 6 runs
        original = bounds._chain_jacobian
        seen = [0]

        def blind_at_4_and_6(*args):
            jac = original(*args)
            rows = seen[0] + np.arange(len(jac))
            seen[0] += len(jac)
            jac[np.isin(rows, [4, 6])] = 0.0
            return jac

        monkeypatch.setattr(bounds, "_chain_jacobian", blind_at_4_and_6)
        monkeypatch.setattr(simkit, "_REPORT_CHUNK", 3)
        cfg = tiny_scenario(steps=4)
        beams = channel.draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
        with pytest.raises(UnobservableState, match="truth pose 4 of 8"):
            simkit.scenario_reports(cfg, beams)
        assert seen[0] == 6

    @pytest.mark.parametrize("chunk", [1, 7, 120])
    def test_report_chunks_do_not_change_a_number(self, monkeypatch, chunk):
        # the default trajectory's 120 poses are one chunk at the module's size
        cfg = simkit.default_scenario()
        beams = channel.draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
        calls = []
        original = simkit.pose_error_bounds

        def counted(ue, *args):
            calls.append(len(ue.rotation))
            return original(ue, *args)

        monkeypatch.setattr(simkit, "pose_error_bounds", counted)
        truths, whole = simkit.scenario_reports(cfg, beams)
        assert calls == [len(truths)] == [120]
        monkeypatch.setattr(simkit, "_REPORT_CHUNK", chunk)
        _, chunked = simkit.scenario_reports(cfg, beams)
        assert calls[1:] == [min(chunk, 120 - k) for k in range(0, 120, chunk)]
        for name in ("icrb", "peb_m", "rmeb_rad", "observable"):
            assert np.array_equal(getattr(chunked, name), getattr(whole, name)), name

    def test_overflowing_trajectory_names_its_first_pose(self, monkeypatch):
        # the third segment turns through dt * w = inf rad; the error names its
        # first pose, without a numpy warning, before the bound pipeline runs
        cfg = tiny_scenario(n_segments=3)
        cfg = replace(cfg, segments=cfg.segments[:2] + (replace(cfg.segments[2], dt=1e308),))
        beams = channel.draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)

        def no_bounds(*args):
            raise AssertionError("the bound pipeline ran")

        monkeypatch.setattr(simkit, "pose_error_bounds", no_bounds)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RadioPoseError, match="truth pose 6 of 9 is not finite"):
                simkit.scenario_reports(cfg, beams)

    def test_metric_series_shapes(self):
        cfg = tiny_scenario(mc_runs=2, steps=3, filter_selection="fusion")
        series = simkit.run_monte_carlo(cfg)
        assert list(series.filters) == ["fusion"]
        assert series.time_s.shape == (6,)
        assert series.filters["fusion"].pos_rmse_m.shape == (6,)
        err, cdf = series.filters["fusion"].terminal_rotation_cdf()
        assert np.all(np.diff(cdf) >= 0) and cdf[-1] == 1.0


class TestBoundsSweep:
    def test_exact_decade_scaling(self):
        cfg = simkit.default_scenario()
        rows = simkit.bounds_sweep(cfg, [0.0, 20.0])
        ratio = rows[0]["peb_m"] / rows[1]["peb_m"]
        assert abs(ratio - 10.0) < 1e-6 * 10.0
        ratio = rows[0]["rmeb_rad"] / rows[1]["rmeb_rad"]
        assert abs(ratio - 10.0) < 1e-6 * 10.0

    def test_unobservable_rows_flagged_not_fatal(self):
        cfg = simkit.default_scenario()
        single = channel.ArrayGeometry(np.zeros((1, 3)))
        anchors = tuple(
            channel.AnchorConfig(a.position, a.orientation, single) for a in cfg.anchors
        )
        blind = replace(cfg, anchors=anchors, ue_array=single)
        rows = simkit.bounds_sweep(blind, [0.0, 10.0])
        assert all(not r["observable"] for r in rows)
        assert all(np.isnan(r["peb_m"]) for r in rows)

    def test_zero_information_power_is_a_flagged_row(self):
        # at -5000 dBm the transmit power underflows to 0 W: the signal carries
        # no information, the row is unobservable, and every row around it in
        # the same batch equals its one-power sweep
        cfg = simkit.default_scenario()
        powers = [-20.0, -5000.0, 0.0, -15.0, -10.0, -5.0, 5.0, 10.0, 15.0, 20.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = simkit.bounds_sweep(cfg, powers)
            singles = [simkit.bounds_sweep(cfg, [power])[0] for power in powers]
        silent = rows[1]
        assert not silent["observable"] and np.isnan(silent["peb_m"]) and np.isnan(silent["rmeb_rad"])
        assert not singles[1]["observable"] and np.isnan(singles[1]["peb_m"])
        for k in (0, *range(2, len(powers))):
            assert rows[k] == singles[k] and rows[k]["observable"]

    @pytest.mark.parametrize("n_powers", [1, 9])
    def test_one_bound_pass_per_sweep(self, monkeypatch, n_powers):
        # the pipeline runs once, at unit weight, whatever the number of
        # powers: one state FIM row into icrb_report, and one LOS geometry
        # for all anchors; it takes no tangent basis and no projection
        cfg = simkit.default_scenario()
        shapes, geometries = [], []
        report, geometry = bounds.icrb_report, channel._los_geometry
        monkeypatch.setattr(bounds, "icrb_report", lambda f: shapes.append(np.shape(f)) or report(f))
        monkeypatch.setattr(channel, "_los_geometry", lambda *args: geometries.append(1) or geometry(*args))
        for name in ("tangent_basis", "project_fim", "state_jacobian_tz"):
            monkeypatch.setattr(bounds, name, lambda *args: pytest.fail("the bound took the intrinsic route"))
        rows = simkit.bounds_sweep(cfg, [-20.0 + 5.0 * k for k in range(n_powers)])
        assert len(rows) == n_powers and all(r["observable"] for r in rows)
        assert shapes == [(1, 6, 6)]
        assert len(geometries) == 1

    def test_empty_power_list_rejected(self):
        with pytest.raises(ValueError):
            simkit.bounds_sweep(simkit.default_scenario(), [])

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_power_rejected(self, bad):
        with pytest.raises(ValueError, match=f"tx_power_dbm must be finite, got {bad}"):
            simkit.bounds_sweep(simkit.default_scenario(), [0.0, float(bad)])


class TestEmitCsv:
    def test_empty_table_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        simkit.emit_csv((["a", "b"], []), path)
        assert path.read_bytes() == b"a,b\r\n"

    def test_single_row_has_trailing_newline(self, tmp_path):
        path = tmp_path / "one.csv"
        simkit.emit_csv((["x"], [(1.5,)]), path)
        assert path.read_bytes() == b"x\r\n1.5\r\n"

    def test_floats_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(0)
        values = [tuple(rng.standard_normal(3) * 10.0**rng.integers(-12, 12)) for _ in range(20)]
        path = tmp_path / "rt.csv"
        simkit.emit_csv((["a", "b", "c"], values), path)
        lines = path.read_bytes().decode().strip().split("\r\n")[1:]
        for line, row in zip(lines, values):
            parsed = tuple(float(tok) for tok in line.split(","))
            assert parsed == row


class TestScenarioIo:
    def test_round_trip(self, tmp_path):
        cfg = simkit.default_scenario()
        path = tmp_path / "scenario.yaml"
        simkit.save_scenario(cfg, path)
        loaded = simkit.load_scenario(path)
        assert simkit.scenario_to_dict(loaded)["signal"] == simkit.scenario_to_dict(cfg)["signal"]
        assert loaded.seed == cfg.seed and loaded.mc_runs == cfg.mc_runs
        np.testing.assert_allclose(loaded.ue_start.matrix(), cfg.ue_start.matrix(), atol=1e-12)
        for a, b in zip(loaded.anchors, cfg.anchors):
            np.testing.assert_allclose(a.position, b.position)
            np.testing.assert_allclose(a.orientation, b.orientation, atol=1e-12)
            np.testing.assert_allclose(a.array.element_positions, b.array.element_positions)
        for a, b in zip(loaded.segments, cfg.segments):
            np.testing.assert_allclose(a.v, b.v)
            np.testing.assert_allclose(a.w, b.w)
            assert (a.steps, a.dt) == (b.steps, b.dt)

    def test_round_trip_with_snr_calibrated_power(self, tmp_path):
        cfg = simkit.default_scenario()
        power = simkit.power_for_target_snr(cfg, 5.0)
        cfg = replace(cfg, signal=replace(cfg.signal, tx_power_dbm=power))
        path = tmp_path / "scenario.yaml"
        simkit.save_scenario(cfg, path)
        assert simkit.load_scenario(path).signal.tx_power_dbm == power

    def test_round_trip_non_square_array(self, tmp_path):
        cfg = simkit.default_scenario()
        wide = channel.ArrayGeometry.half_wavelength_upa(8, 4, cfg.signal.carrier_hz)
        anchors = (replace(cfg.anchors[0], array=wide),) + cfg.anchors[1:]
        cfg = replace(cfg, anchors=anchors)
        path = tmp_path / "scenario.yaml"
        simkit.save_scenario(cfg, path)
        loaded = simkit.load_scenario(path)
        for a, b in zip(loaded.anchors, cfg.anchors):
            assert np.array_equal(a.array.element_positions, b.array.element_positions)

    def test_array_off_the_saved_grid_raises_config_error(self, tmp_path):
        cfg = simkit.default_scenario()
        spaced = channel.ArrayGeometry.upa(4, 4, 0.01)
        anchors = (replace(cfg.anchors[0], array=spaced),) + cfg.anchors[1:]
        with pytest.raises(ConfigError):
            simkit.save_scenario(replace(cfg, anchors=anchors), tmp_path / "scenario.yaml")

    @pytest.mark.parametrize("pitch_deg", [0.0, 90.0, -90.0, 89.99])
    def test_round_trip_any_pitch(self, tmp_path, pitch_deg):
        cfg = simkit.default_scenario()
        pitched = tracking.rotation_from_euler(np.deg2rad([25.0, pitch_deg, -40.0]))
        anchors = (replace(cfg.anchors[0], orientation=pitched),) + cfg.anchors[1:]
        ue_start = lie.Pose.from_rotation_position(pitched, cfg.ue_start.position)
        cfg = replace(cfg, anchors=anchors, ue_start=ue_start)
        path = tmp_path / "scenario.yaml"
        simkit.save_scenario(cfg, path)
        raw = yaml.safe_load(path.read_text())
        assert set(raw["anchors"][0]) == {"position_m", "orientation_deg_zyx", "array_shape"}
        assert set(raw["ue"]) == {"start_position_m", "start_orientation_deg_zyx", "array_shape"}
        loaded = simkit.load_scenario(path)
        assert np.abs(loaded.anchors[0].orientation - pitched).max() < 1e-12
        assert np.abs(loaded.ue_start.rotation - pitched).max() < 1e-12
        assert np.abs(loaded.ue_start.position - cfg.ue_start.position).max() < 1e-12

    def test_overflowing_process_noise_raises_config_error(self, tmp_path):
        raw = simkit.scenario_to_dict(tiny_scenario())
        raw["process_noise_rho_m"] = 1e200
        path = tmp_path / "noise.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        with pytest.raises(ConfigError, match="process_noise_rho_m"):
            simkit.load_scenario(path)
        rc = cli.main(["mc", "--config", str(path), "--runs", "1", "--out-prefix", str(tmp_path / "mc")])
        assert rc == 2

    def test_empty_trajectory_raises_config_error(self, tmp_path):
        raw = simkit.scenario_to_dict(tiny_scenario())
        raw["segments"] = []
        path = tmp_path / "empty.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        with pytest.raises(ConfigError, match="segment"):
            simkit.load_scenario(path)
        out = str(tmp_path / "out")
        assert cli.main(["mc", "--config", str(path), "--runs", "1", "--out-prefix", out]) == 2
        assert cli.main(["track", "--config", str(path), "--out", out + ".csv"]) == 2
        assert cli.main(["bounds", "--config", str(path), "--powers", "0", "--out", out + ".csv"]) == 2

    def test_non_finite_noise_scale_raises_config_error(self, tmp_path):
        raw = simkit.scenario_to_dict(tiny_scenario())
        raw["measurement_noise_scale"] = float("nan")
        path = tmp_path / "nan.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        assert "measurement_noise_scale: .nan" in path.read_text()
        with pytest.raises(ConfigError):
            simkit.load_scenario(path)
        rc = cli.main(["mc", "--config", str(path), "--runs", "1", "--out-prefix", str(tmp_path / "mc")])
        assert rc == 2

    # an integer beyond the float range overflows the cast to a float
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), pytest.param(10**400, id="int10**400")])
    @pytest.mark.parametrize(
        "section, key",
        [
            ("anchors", "position_m"),
            ("anchors", "orientation_deg_zyx"),
            ("ue", "start_position_m"),
            ("ue", "start_orientation_deg_zyx"),
            ("segments", "v_mps"),
            ("segments", "w_radps"),
            ("segments", "dt_s"),
        ],
    )
    def test_non_finite_value_raises_config_error(self, tmp_path, section, key, value):
        raw = simkit.scenario_to_dict(tiny_scenario())
        entry = raw[section] if section == "ue" else raw[section][0]
        if isinstance(entry[key], list):
            entry[key][1] = value
        else:
            entry[key] = value
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            simkit.load_scenario(path)
        out = str(tmp_path / "out")
        assert cli.main(["bounds", "--config", str(path), "--powers", "0", "--out", out + ".csv"]) == 2
        assert cli.main(["mc", "--config", str(path), "--runs", "1", "--out-prefix", out]) == 2

    def test_readme_example_loads(self, tmp_path):
        # YAML 1.1 reads an exponent without a sign, as in 3.0e10, as a string
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
        assert yaml.safe_load(block)["signal"]["carrier_hz"] == "3.0e10"
        path = tmp_path / "readme.yaml"
        path.write_text(block)
        signal = simkit.load_scenario(path).signal
        assert (signal.carrier_hz, signal.subcarrier_spacing_hz, signal.bandwidth_hz) == (3.0e10, 1.2e5, 1.0e8)

    @pytest.mark.parametrize("value", [None, [3.0e10], "fast", True, "nan"])
    def test_non_number_names_the_key(self, tmp_path, value):
        raw = simkit.scenario_to_dict(tiny_scenario())
        raw["signal"]["carrier_hz"] = value
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        with pytest.raises(ConfigError, match="carrier_hz must be (a number|finite)"):
            simkit.load_scenario(path)
        assert cli.main(["mc", "--config", str(path), "--runs", "1", "--out-prefix", str(tmp_path / "mc")]) == 2

    @pytest.mark.parametrize("command", ["bounds", "mc"])
    def test_negative_beam_seed_raises_config_error(self, tmp_path, command):
        raw = simkit.scenario_to_dict(tiny_scenario())
        raw["signal"]["rng_seed"] = -1
        path = tmp_path / "seed.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        with pytest.raises(ConfigError):
            simkit.load_scenario(path)
        out = str(tmp_path / "out")
        args = {"bounds": ["--powers", "0", "--out", out + ".csv"], "mc": ["--runs", "1", "--out-prefix", out]}
        assert cli.main([command, "--config", str(path)] + args[command]) == 2

    def test_run_steps_cap(self):
        # built only: a study at the cap is never run here
        cfg = tiny_scenario(mc_runs=1, steps=3)  # 6 steps per run
        runs = simkit.MAX_RUN_STEPS // 6
        assert replace(cfg, mc_runs=runs).mc_runs == runs
        with pytest.raises(ValueError, match=f"at most {simkit.MAX_RUN_STEPS}, got {6 * (runs + 1)}"):
            replace(cfg, mc_runs=runs + 1)

    def test_trajectory_steps_cap(self, tmp_path, capsys):
        # built only: a trajectory at the cap is never run here; one run keeps
        # it under the run-step cap, which bounds the trajectory only with mc_runs
        cfg = tiny_scenario(mc_runs=1, n_segments=1)
        cap = simkit.MAX_TRAJECTORY_STEPS
        at_cap = replace(cfg, segments=(replace(cfg.segments[0], steps=cap),))
        assert at_cap.segments[0].steps == cap
        with pytest.raises(ValueError, match=f"trajectory steps must be at most {cap}, got {cap + 1}"):
            replace(cfg, segments=(replace(cfg.segments[0], steps=cap + 1),))
        raw = simkit.scenario_to_dict(at_cap)
        raw["segments"][0]["steps"] = cap + 1
        path = tmp_path / "long.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        with pytest.raises(ConfigError, match=f"steps must be at most {cap}, got {cap + 1}"):
            simkit.load_scenario(path)
        rc = cli.main(["mc", "--config", str(path), "--out-prefix", str(tmp_path / "mc")])
        assert rc == 2
        assert f"must be at most {cap}" in capsys.readouterr().err
        assert not list(tmp_path.glob("mc*"))

    @pytest.mark.parametrize(
        "key, cap, edit",
        [
            ("num_subcarriers", channel.MAX_SUBCARRIERS, lambda raw: raw["signal"].update(num_subcarriers=10**13)),
            ("num_transmissions", channel.MAX_TRANSMISSIONS,
             lambda raw: raw["signal"].update(num_transmissions=channel.MAX_TRANSMISSIONS + 1)),
            ("array_shape", channel.MAX_ARRAY_ELEMENTS, lambda raw: raw["anchors"][1].update(array_shape=[10**6, 10**6])),
            ("mc_runs", simkit.MAX_RUN_STEPS, lambda raw: raw.update(mc_runs=10**9)),
            ("steps", simkit.MAX_RUN_STEPS, lambda raw: raw["segments"][0].update(steps=10**15)),
        ],
    )
    def test_oversized_scenario_raises_config_error(self, tmp_path, key, cap, edit):
        raw = simkit.scenario_to_dict(tiny_scenario())
        edit(raw)
        path = tmp_path / "big.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        with pytest.raises(ConfigError, match=f"{key}.*{cap}"):
            simkit.load_scenario(path)
        out = str(tmp_path / "out")
        assert cli.main(["bounds", "--config", str(path), "--powers", "0", "--out", out + ".csv"]) == 2
        assert cli.main(["mc", "--config", str(path), "--out-prefix", out]) == 2
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_raises_config_error(self, tmp_path, seed):
        raw = simkit.scenario_to_dict(tiny_scenario())
        raw["seed"] = seed
        path = tmp_path / "seed.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        with pytest.raises(ConfigError, match="seed must be in"):
            simkit.load_scenario(path)
        rc = cli.main(["mc", "--config", str(path), "--runs", "1", "--out-prefix", str(tmp_path / "mc")])
        assert rc == 2

    @pytest.mark.parametrize(
        "section, key",
        [(None, "measurement_noise_scal"), ("signal", "tx_power_dBm"), ("anchors", "position"),
         ("ue", "array"), ("segments", "dt")],
    )
    def test_unknown_key_raises_config_error(self, tmp_path, section, key):
        raw = simkit.scenario_to_dict(tiny_scenario())
        entry = raw if section is None else raw[section]
        (entry[0] if isinstance(entry, list) else entry)[key] = 7.0
        path = tmp_path / "typo.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        with pytest.raises(ConfigError, match=key):
            simkit.load_scenario(path)
        assert cli.main(["mc", "--config", str(path), "--runs", "1", "--out-prefix", str(tmp_path / "mc")]) == 2

    @pytest.mark.parametrize(
        "path, value",
        [
            (("mc_runs",), 2.7),
            (("mc_runs",), True),
            (("seed",), 3.9),
            (("segments", 0, "steps"), 20.9),
            (("signal", "num_subcarriers"), 100.5),
            (("signal", "rng_seed"), 1.7),
            (("anchors", 0, "array_shape", 0), 8.6),
            (("ue", "array_shape", 1), False),
            (("measurement_noise_scale",), True),
            (("segments", 0, "dt_s"), True),
            (("anchors", 0, "position_m", 0), True),
            (("anchors", 1, "orientation_deg_zyx", 2), False),
            (("ue", "start_position_m", 1), True),
            (("ue", "start_orientation_deg_zyx", 0), True),
            (("segments", 0, "v_mps", 0), True),
            (("segments", 1, "w_radps", 2), False),
            (("segments", 0, "v_mps"), [0.5, 0.0]),
            (("segments", 1, "w_radps"), [[0.0, 0.0, 0.0]]),
            *(
                (where, shape)
                for where in (("anchors", 1, "array_shape"), ("ue", "array_shape"))
                for shape in ([8], [8, 8, 1], [0, 4], [-2, 4])
            ),
        ],
        ids=lambda p: str(p) if not isinstance(p, tuple) else ".".join(map(str, p)),
    )
    def test_number_of_the_wrong_kind_raises_config_error(self, tmp_path, path, value):
        # a cast would load mc_runs 2.7 as 2, an array shape [8.6, 8] as 8x8,
        # or a position [true, 0, 0] as [1, 0, 0]; a vector of the wrong
        # length would fail later, inside the study, and an array shape of
        # the wrong length or with a non-positive side in a message that
        # does not name the key
        raw = simkit.scenario_to_dict(tiny_scenario())
        entry = raw
        for step in path[:-1]:
            entry = entry[step]
        entry[path[-1]] = value
        cfg_path = tmp_path / "kind.yaml"
        cfg_path.write_text(yaml.safe_dump(raw, sort_keys=False))
        key = next(step for step in reversed(path) if isinstance(step, str))
        with pytest.raises(ConfigError, match=key):
            simkit.load_scenario(cfg_path)
        assert cli.main(["mc", "--config", str(cfg_path), "--out-prefix", str(tmp_path / "mc")]) == 2

    def test_integral_float_loads_as_integer(self, tmp_path):
        raw = simkit.scenario_to_dict(tiny_scenario())
        raw["mc_runs"], raw["signal"]["num_subcarriers"] = 3.0, 100.0
        cfg_path = tmp_path / "whole.yaml"
        cfg_path.write_text(yaml.safe_dump(raw, sort_keys=False))
        loaded = simkit.load_scenario(cfg_path)
        assert (loaded.mc_runs, loaded.signal.num_subcarriers) == (3, 100)
        assert type(loaded.mc_runs) is int

    def test_optional_keys_take_the_literal_and_signal_defaults(self, tmp_path):
        # the six settings and the beam seed default to the literal's values,
        # the other two signal keys to SignalConfig's
        raw = simkit.scenario_to_dict(tiny_scenario(mc_runs=7, seed=11, measurement_noise_scale=2.0))
        options = ("seed", "mc_runs", "filter_selection", "measurement_noise_scale",
                   "process_noise_rho_m", "process_noise_rot_rad")
        for key in options:
            del raw[key]
        for key in ("bandwidth_hz", "clock_bias_s", "rng_seed"):
            del raw["signal"][key]
        path = tmp_path / "bare.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        loaded = simkit.load_scenario(path)
        assert {key: getattr(loaded, key) for key in options} == {
            key: simkit._DEFAULT_SCENARIO[key] for key in options
        }
        sig = loaded.signal
        assert sig == channel.SignalConfig(
            sig.carrier_hz, sig.subcarrier_spacing_hz, sig.num_subcarriers, sig.num_transmissions,
            sig.tx_power_dbm, sig.noise_psd_dbm_hz, rng_seed=simkit._DEFAULT_SCENARIO["signal"]["rng_seed"],
        )
        assert sig.bandwidth_hz == sig.num_subcarriers * sig.subcarrier_spacing_hz
        assert (sig.clock_bias_s, sig.rng_seed) == (0.0, 1)

    def test_file_without_seed_runs_the_literal_seed(self, tmp_path):
        raw = simkit.scenario_to_dict(tiny_scenario(seed=simkit._DEFAULT_SCENARIO["seed"]))
        (tmp_path / "seeded.yaml").write_text(yaml.safe_dump(raw, sort_keys=False))
        del raw["seed"]
        (tmp_path / "bare.yaml").write_text(yaml.safe_dump(raw, sort_keys=False))
        for name in ("seeded", "bare"):
            rc = cli.main(["mc", "--config", str(tmp_path / f"{name}.yaml"), "--out-prefix", str(tmp_path / name)])
            assert rc == 0
        for suffix in ("_rmse.csv", "_rmse_cdf_fusion.csv", "_rmse_cdf_eskf.csv", "_rmse_cdf_euler.csv"):
            assert (tmp_path / f"bare{suffix}").read_bytes() == (tmp_path / f"seeded{suffix}").read_bytes()

    def test_file_without_beam_seed_draws_the_literal_beams(self, tmp_path):
        raw = simkit.scenario_to_dict(simkit.default_scenario())
        del raw["signal"]["rng_seed"]
        (tmp_path / "bare.yaml").write_text(yaml.safe_dump(raw, sort_keys=False))
        for name, config in (("default", []), ("bare", ["--config", str(tmp_path / "bare.yaml")])):
            assert cli.main(["bounds", *config, "--powers=-20:10:20", "--out", str(tmp_path / f"{name}.csv")]) == 0
        assert (tmp_path / "bare.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()

    def test_missing_key_raises_config_error(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("seed: 1\n")
        with pytest.raises(ConfigError):
            simkit.load_scenario(path)

    def test_bad_yaml_raises_config_error(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("{unbalanced")
        with pytest.raises(ConfigError):
            simkit.load_scenario(path)

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    def test_libyaml_loader_gives_the_python_loaders_dict(self, tmp_path):
        assert simkit._YAML_LOADER is yaml.CSafeLoader
        path = tmp_path / "default.yaml"
        simkit.save_scenario(simkit.default_scenario(), path)
        text = path.read_text()
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)

    def test_python_loader_fallback_loads_the_same_scenario(self, tmp_path, monkeypatch):
        path = tmp_path / "default.yaml"
        simkit.save_scenario(simkit.default_scenario(), path)
        loaded = simkit.scenario_to_dict(simkit.load_scenario(path))
        monkeypatch.setattr(simkit, "_YAML_LOADER", yaml.SafeLoader)
        assert simkit.scenario_to_dict(simkit.load_scenario(path)) == loaded

    @pytest.mark.parametrize("loader", ["libyaml", "python"])
    @pytest.mark.parametrize("text", [
        b"{unbalanced", b"seed:\n\tmc_runs: 1\n", b"seed: *missing\n", b"seed: !!python/object:os.system 1\n",
        b"seed: 1\n---\nseed: 2\n", b"seed: \x01\n", b"seed: \xff\xfe\n",
    ])
    def test_malformed_yaml_is_config_error(self, tmp_path, monkeypatch, capsys, loader, text):
        if loader == "python":
            monkeypatch.setattr(simkit, "_YAML_LOADER", yaml.SafeLoader)
        elif not yaml.__with_libyaml__:
            pytest.skip("PyYAML built without libyaml")
        path = tmp_path / "broken.yaml"
        path.write_bytes(text)
        with pytest.raises(ConfigError, match="invalid YAML"):
            simkit.load_scenario(path)
        rc = cli.main(["bounds", "--config", str(path), "--powers=0", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "invalid YAML" in capsys.readouterr().err

    def test_missing_file_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            simkit.load_scenario(tmp_path / "nope.yaml")


def _leaves(node, path=()):
    """The paths to every value of a scenario's dict form that is not a dict or list."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [leaf for key, value in items for leaf in _leaves(value, path + (key,))]
    return [path]


class TestBoundaryFuzz:
    def test_non_finite_and_huge_leaves_end_in_a_documented_exit_without_warnings(self, tmp_path):
        # every leaf of a small scenario file, set in turn to each value, goes
        # through ``radiopose mc``: each call exits 0, 2, 3 or 4, without an
        # exception or a numpy warning (ConfigError at the leaf, or a
        # computation error where a huge value overflows the study)
        cfg = tiny_scenario()
        cfg = replace(cfg, signal=replace(cfg.signal, num_subcarriers=8, num_transmissions=4))
        base = simkit.scenario_to_dict(cfg)
        leaves = _leaves(base)
        assert len(leaves) == 55
        path = tmp_path / "fuzz.yaml"
        dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)  # libyaml's emitter, for the time
        outcomes = {}
        for leaf in leaves:
            for value in (float("nan"), float("inf"), float("-inf"), 1e300, -1e300):
                raw = copy.deepcopy(base)
                entry = raw
                for step in leaf[:-1]:
                    entry = entry[step]
                entry[leaf[-1]] = value
                path.write_text(yaml.dump(raw, Dumper=dumper))
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        rc = cli.main(["mc", "--config", str(path), "--out-prefix", str(tmp_path / "mc")])
                    except Exception as exc:  # every escape is a failure to report
                        rc = repr(exc)
                outcomes[leaf + (value,)] = rc
        assert {k: rc for k, rc in outcomes.items() if rc not in (0, 2, 3, 4)} == {}


class TestBootstrap:
    def test_shape_mismatch(self):
        with pytest.raises(LengthMismatch):
            simkit.bootstrap_mean_diff(np.ones(3), np.ones(4))

    def test_detects_clear_separation(self):
        rng = np.random.default_rng(1)
        x = rng.normal(1.0, 0.1, 50)
        y = rng.normal(0.5, 0.1, 50)
        diffs = simkit.bootstrap_mean_diff(x, y, n_boot=500, seed=0)
        assert np.quantile(diffs, 0.05) > 0


class TestCli:
    def _write_config(self, tmp_path, cfg):
        path = tmp_path / "cfg.yaml"
        simkit.save_scenario(cfg, path)
        return str(path)

    def test_bounds_subcommand(self, tmp_path):
        cfg_path = self._write_config(tmp_path, tiny_scenario())
        out = tmp_path / "bounds.csv"
        rc = cli.main(["bounds", "--config", cfg_path, "--powers", "0:10:20", "--out", str(out)])
        assert rc == 0
        lines = out.read_bytes().decode().strip().split("\r\n")
        assert lines[0] == "power_dbm,peb_m,rmeb_rad"
        assert len(lines) == 4

    def test_powers_comma_list(self):
        assert cli.parse_powers("1,2.5,3") == [1.0, 2.5, 3.0]

    def test_powers_bad_spec(self):
        with pytest.raises(ConfigError):
            cli.parse_powers("5:-1:0")

    @pytest.mark.parametrize("text", ["nan", "1,inf", "0:5:inf", "nan:1:5"])
    def test_powers_non_finite(self, text):
        with pytest.raises(ConfigError):
            cli.parse_powers(text)

    def test_powers_count_bounded(self):
        assert len(cli.parse_powers(f"0:1:{cli.MAX_POWERS - 1}")) == cli.MAX_POWERS
        for text in [f"0:1:{cli.MAX_POWERS}", "0:1e-6:1", "0:1e-300:1e300", ",".join(["1"] * 10_001)]:
            with pytest.raises(ConfigError):
                cli.parse_powers(text)

    @pytest.mark.parametrize("text", ["", ",", " "])
    def test_empty_powers_exit_config_error(self, tmp_path, text, capsys):
        with pytest.raises(ConfigError, match="no power values"):
            cli.parse_powers(text)
        rc = cli.main(["bounds", f"--powers={text}", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert f"bad --powers specification {text!r}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_too_many_powers_exit_config_error(self, tmp_path):
        rc = cli.main(["bounds", "--powers", "0:1e-6:1", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_track_subcommand(self, tmp_path):
        cfg_path = self._write_config(tmp_path, tiny_scenario(steps=2))
        out = tmp_path / "track.csv"
        rc = cli.main(["track", "--config", cfg_path, "--filter", "fusion", "--out", str(out)])
        assert rc == 0
        header = out.read_bytes().decode().split("\r\n")[0].split(",")
        assert header[:2] == ["step", "time_s"]
        assert "pos_rmse_m_fusion" in header and "rot_rmse_rad_fusion" in header
        assert (tmp_path / "track_cdf_fusion.csv").exists()

    def test_track_keeps_the_scenario_filter_selection(self, tmp_path):
        cfg_path = self._write_config(tmp_path, tiny_scenario(steps=2, filter_selection="fusion"))
        out = tmp_path / "track.csv"
        assert cli.main(["track", "--config", cfg_path, "--out", str(out)]) == 0
        header = out.read_bytes().decode().split("\r\n")[0].split(",")
        assert header == ["step", "time_s", "pos_rmse_m_fusion", "rot_rmse_rad_fusion",
                          "pos_rmse_m_meas", "rot_rmse_rad_meas"]
        assert sorted(p.name for p in tmp_path.glob("track_cdf_*.csv")) == ["track_cdf_fusion.csv"]

    def test_mc_determinism_byte_identical(self, tmp_path):
        cfg_path = self._write_config(tmp_path, tiny_scenario(mc_runs=2, steps=2))
        rc1 = cli.main(["mc", "--config", cfg_path, "--runs", "2", "--seed", "7",
                        "--out-prefix", str(tmp_path / "a")])
        rc2 = cli.main(["mc", "--config", cfg_path, "--runs", "2", "--seed", "7",
                        "--out-prefix", str(tmp_path / "b")])
        assert rc1 == 0 and rc2 == 0
        for suffix in ["_rmse.csv", "_rmse_cdf_fusion.csv", "_rmse_cdf_eskf.csv", "_rmse_cdf_euler.csv"]:
            a = (tmp_path / f"a{suffix}").read_bytes()
            b = (tmp_path / f"b{suffix}").read_bytes()
            assert a == b

    def test_exit_code_config_error(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("seed: 1\n")
        rc = cli.main(["bounds", "--config", str(bad), "--powers", "0:10:20",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_exit_code_unobservable(self, tmp_path):
        cfg = tiny_scenario()
        single = channel.ArrayGeometry(np.zeros((1, 3)))
        anchors = tuple(channel.AnchorConfig(a.position, a.orientation, single) for a in cfg.anchors)
        blind = replace(cfg, anchors=anchors, ue_array=single)
        cfg_path = self._write_config(tmp_path, blind)
        rc = cli.main(["bounds", "--config", cfg_path, "--powers", "0:10:20",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 3

    @pytest.mark.parametrize("power", ["3000", "5000", "0,3000"])
    def test_overflowing_power_exits_3(self, tmp_path, power, capsys):
        # the FIM overflows at 3000 dBm and dBm -> W overflows a float at 5000;
        # in a batch the overflowing row fails the sweep and is the one named
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["bounds", f"--powers={power}", "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        assert f"tx_power_dbm {power.split(',')[-1]}," in capsys.readouterr().err

    def test_non_finite_powers_exit_config_error(self, tmp_path):
        rc = cli.main(["bounds", "--powers", "nan", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_ue_on_anchor_exits_unobservable(self, tmp_path):
        cfg = tiny_scenario()
        on_anchor = lie.Pose.from_rotation_position(cfg.ue_start.rotation, cfg.anchors[0].position)
        cfg_path = self._write_config(tmp_path, replace(cfg, ue_start=on_anchor))
        rc = cli.main(["bounds", "--config", cfg_path, "--powers", "0:10:20",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 3

    def test_all_runs_failed_exits_3(self, tmp_path, monkeypatch, capsys):
        cfg_path = self._write_config(tmp_path, tiny_scenario(mc_runs=2, steps=2))

        def failing_predict(*args):
            # every filter's first prediction fails in every run, batched or alone
            raise RadioPoseError("injected")

        monkeypatch.setattr(simkit, "predict", failing_predict)
        monkeypatch.setattr(simkit, "euler_predict", failing_predict)
        rc = cli.main(["mc", "--config", cfg_path, "--out-prefix", str(tmp_path / "mc")])
        assert rc == 3
        assert "all Monte Carlo runs failed (run 0: fusion: injected;" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "99999999999999999999999"])
    def test_seed_override_out_of_range_exits_config_error(self, tmp_path, seed, capsys):
        rc = cli.main(["--seed", seed, "mc", "--runs", "1", "--out-prefix", str(tmp_path / "mc")])
        assert rc == 2
        assert "seed must be in [0, 2**64)" in capsys.readouterr().err
        assert not (tmp_path / "mc_rmse.csv").exists()

    @pytest.mark.parametrize("runs", ["0", "-3"])
    def test_bad_runs_override_exits_config_error(self, tmp_path, runs, capsys):
        rc = cli.main(["mc", "--runs", runs, "--out-prefix", str(tmp_path / "mc")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("configuration error:")

    def test_runs_over_the_cap_exit_config_error(self, tmp_path, capsys):
        rc = cli.main(["mc", "--runs", str(simkit.MAX_RUN_STEPS + 1), "--out-prefix", str(tmp_path / "mc")])
        assert rc == 2
        assert f"must be at most {simkit.MAX_RUN_STEPS}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_run_cap_applies_to_the_runs_a_command_runs(self, tmp_path, capsys):
        # the command-line values replace the file's before the one check:
        # track runs one run, so a file whose mc_runs x steps is over the cap
        # runs, as does mc with --runs 1, while mc on the file alone does not
        raw = simkit.scenario_to_dict(tiny_scenario())
        raw["mc_runs"] = simkit.MAX_RUN_STEPS
        path = tmp_path / "many.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        out = str(tmp_path / "out")
        assert cli.main(["track", "--config", str(path), "--out", out + ".csv"]) == 0
        assert cli.main(["mc", "--config", str(path), "--runs", "1", "--out-prefix", out]) == 0
        capsys.readouterr()
        assert cli.main(["mc", "--config", str(path), "--out-prefix", out + "_all"]) == 2
        assert f"must be at most {simkit.MAX_RUN_STEPS}, got {6 * simkit.MAX_RUN_STEPS}" in capsys.readouterr().err
        assert not list(tmp_path.glob("out_all*"))

    @pytest.mark.parametrize("command", ["mc", "track"])
    @pytest.mark.parametrize("bandwidth", [1e200, 1e300])
    def test_huge_bandwidth_exits_3_where_the_covariance_overflows(self, tmp_path, command, bandwidth, capsys):
        # the bound grows with the noise bandwidth and stays finite, and the
        # measurements drawn with it are rotations, but the filter steps taken
        # with that much noise overflow, so every run fails
        raw = simkit.scenario_to_dict(tiny_scenario())
        raw["signal"]["bandwidth_hz"] = bandwidth
        path = tmp_path / "wide.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        cfg = simkit.load_scenario(path)
        _, reports = simkit.scenario_reports(cfg, channel.draw_beams(cfg.anchors, cfg.ue_array, cfg.signal))
        assert np.isfinite(reports.icrb).all()
        args = ["--out-prefix", str(tmp_path / "mc")] if command == "mc" else ["--out", str(tmp_path / "t.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main([command, "--config", str(path), *args])
        assert rc == 3
        assert "all Monte Carlo runs failed" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e6, 1e200])
    def test_huge_measurement_noise_ends_cleanly(self, tmp_path, scale):
        # 1e6 made the fusion posterior fail the covariance symmetry check and
        # 1e200 overflows the sampled rotation to NaN; neither may escape as a
        # bare exception
        cfg = replace(simkit.default_scenario(), measurement_noise_scale=scale)
        cfg_path = self._write_config(tmp_path, cfg)
        rc = cli.main(["mc", "--config", cfg_path, "--runs", "1", "--out-prefix", str(tmp_path / "mc")])
        assert rc in (0, 3)

    def test_huge_measurement_noise_scale_exits_3_at_sampling(self, tmp_path, capsys):
        # unlike the process noise, the scale is never squared: the file loads
        # and the study fails where the draw overflows
        cfg_path = self._write_config(tmp_path, tiny_scenario(mc_runs=1, measurement_noise_scale=1e200))
        rc = cli.main(["mc", "--config", cfg_path, "--out-prefix", str(tmp_path / "mc")])
        assert rc == 3
        assert "measurement_noise_scale 1e+200 overflows" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda raw: raw["anchors"][1].update(position_m=[1e300, 5.0, 0.0]), "UE-anchor distance is not finite"),
            (lambda raw: raw["ue"].update(start_position_m=[-1e300, 0.0, 0.0]), "UE-anchor distance is not finite"),
            (lambda raw: raw["signal"].update(subcarrier_spacing_hz=1e300),
             "Fisher information is not finite: subcarrier_spacing_hz 1e+300"),
        ],
        ids=["far_anchor", "far_ue", "wide_spacing"],
    )
    def test_overflowing_geometry_exits_3_naming_it(self, tmp_path, capsys, edit, message):
        # finite values whose distance or subcarrier Gram overflows a float
        raw = simkit.scenario_to_dict(tiny_scenario())
        edit(raw)
        path = tmp_path / "far.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["bounds", "--config", str(path), "--powers=0", "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        assert message in capsys.readouterr().err

    def test_overflowing_trajectory_exits_3_naming_the_pose(self, tmp_path, capsys):
        raw = simkit.scenario_to_dict(tiny_scenario(n_segments=3))
        raw["segments"][2]["dt_s"] = 1e308
        path = tmp_path / "dt.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        rc = cli.main(["mc", "--config", str(path), "--runs", "1", "--out-prefix", str(tmp_path / "mc")])
        assert rc == 3
        assert "truth pose 6 of 9 is not finite" in capsys.readouterr().err

    def test_exit_code_io_error(self, tmp_path):
        cfg_path = self._write_config(tmp_path, tiny_scenario())
        rc = cli.main(["bounds", "--config", cfg_path, "--powers", "0:10:20",
                       "--out", "/nonexistent-dir/x.csv"])
        assert rc == 4

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "radiopose.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "bounds" in proc.stdout and "track" in proc.stdout and "mc" in proc.stdout
