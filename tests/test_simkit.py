"""Scenario, trajectory, sampling, Monte Carlo, CSV, config, and CLI tests."""

import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
import yaml

from radiopose import bounds, channel, cli, lie, simkit, tracking
from radiopose.errors import ConfigError, LengthMismatch, RadioPoseError, SingularInnovationCovariance


def tiny_scenario(mc_runs=2, steps=3, n_segments=2, **overrides):
    cfg = simkit.default_scenario()
    segments = tuple(replace(s, steps=steps) for s in cfg.segments[:n_segments])
    return replace(cfg, segments=segments, mc_runs=mc_runs, **overrides)


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

    def test_two_anchor_minimum_enforced(self):
        cfg = simkit.default_scenario()
        with pytest.raises(ValueError):
            replace(cfg, anchors=cfg.anchors[:1])

    @pytest.mark.parametrize(
        "name", ["measurement_noise_scale", "process_noise_rho_m", "process_noise_rot_rad"]
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_noise_fields_must_be_finite_and_non_negative(self, name, value):
        with pytest.raises(ValueError):
            replace(simkit.default_scenario(), **{name: value})


class TestTrajectory:
    def test_stationary_segment(self):
        cfg = simkit.default_scenario()
        seg = simkit.TrajectorySegment(v=np.zeros(3), w=np.zeros(3), steps=5, dt=0.5)
        poses = simkit.generate_trajectory(cfg.ue_start, [seg])
        assert len(poses) == 5
        for pose in poses:
            np.testing.assert_allclose(pose.matrix(), cfg.ue_start.matrix(), atol=1e-14)

    def test_default_length_is_120(self):
        cfg = simkit.default_scenario()
        assert len(simkit.generate_trajectory(cfg.ue_start, cfg.segments)) == 120

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
        report = simkit.IcrbReport(icrb=np.zeros((6, 6)), peb_m=0.0, rmeb_rad=0.0)
        rng = simkit.run_rng(0, 0)
        meas = simkit.sample_measurement(cfg.ue_start, report, rng, 1.0)
        np.testing.assert_allclose(meas.pose.matrix(), cfg.ue_start.matrix(), atol=1e-15)

    def test_rotation_invariants_always_hold(self):
        cfg = simkit.default_scenario()
        icrb = np.diag([0.5] * 3 + [0.4] * 3)
        report = simkit.IcrbReport(icrb=icrb, peb_m=1.0, rmeb_rad=1.0)
        rng = simkit.run_rng(1, 0)
        for _ in range(100):
            meas = simkit.sample_measurement(cfg.ue_start, report, rng, 1.0)
            rot = meas.pose.rotation
            assert np.linalg.norm(rot.T @ rot - np.eye(3)) < 1e-12

    def test_overflowing_noise_is_a_radiopose_error(self):
        # the draw overflows at this scale: the sampler names the setting,
        # without a numpy warning, before any filter runs
        cfg = tiny_scenario(mc_runs=1, measurement_noise_scale=1e200)
        beams = channel.draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
        truths, reports = simkit.scenario_reports(cfg, beams)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RadioPoseError, match="measurement_noise_scale"):
                simkit.sample_measurement(truths[0], reports[0], simkit.run_rng(0, 0), 1e200)
            with pytest.raises(RadioPoseError, match="measurement_noise_scale"):
                simkit.run_monte_carlo(cfg)

    def test_bound_factored_once_per_step(self, monkeypatch):
        # every run draws from the same per-step reports, so the square-root
        # factor of each bound is computed once per study, not once per run
        prop = bounds.IcrbReport.__dict__["icrb_sqrt"]
        original = prop.func
        calls = []
        monkeypatch.setattr(prop, "func", lambda report: calls.append(report) or original(report))
        cfg = tiny_scenario(mc_runs=3)
        simkit.run_monte_carlo(cfg)
        assert len(calls) == sum(s.steps for s in cfg.segments)
        assert not calls[0].icrb.flags.writeable and not calls[0].icrb_sqrt.flags.writeable

    def test_empirical_covariance_matches_transform(self):
        from radiopose.bounds import measurement_covariance

        cfg = simkit.default_scenario()
        beams = channel.draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
        from radiopose.bounds import pose_error_bounds

        report = pose_error_bounds(cfg.ue_start, cfg.anchors, cfg.ue_array, cfg.signal, beams)
        sigma = measurement_covariance(report.icrb, cfg.ue_start.rotation)
        rng = simkit.run_rng(2, 0)
        n = 100_000
        samples = np.empty((n, 6))
        inv = cfg.ue_start.inverse()
        for i in range(n):
            meas = simkit.sample_measurement(cfg.ue_start, report, rng, 1.0)
            samples[i] = lie.se3_log(meas.pose @ inv)
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

        calls = []
        real_update = simkit.eskf_update

        def update_failing_at_step_3(pred, meas):
            calls.append(meas)
            if len(calls) == 3:  # updates start at step 1
                raise SingularInnovationCovariance("injected at step 3")
            return real_update(pred, meas)

        monkeypatch.setattr(simkit, "eskf_update", update_failing_at_step_3)
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

        calls.clear()  # run 0 fails at step 3, run 1 runs clean
        series = simkit.run_monte_carlo(cfg)
        assert (series.n_runs, series.n_failed_runs) == (2, 1)
        assert series.filters["fusion"].per_run_rot_rmse_rad.shape == (1,)

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
        calls = []
        real_update = simkit.eskf_update

        def update_failing_in_run_1(pred, meas):
            calls.append(meas)
            if len(calls) == 7:  # 5 updates per run of 6 steps: call 7 is in run 1
                raise SingularInnovationCovariance("injected in run 1")
            return real_update(pred, meas)

        monkeypatch.setattr(simkit, "eskf_update", update_failing_in_run_1)
        series = simkit.run_monte_carlo(cfg)
        assert series.dropped_runs == {1: {"eskf": "injected in run 1"}}
        assert series.n_failed_runs == 1

        calls.clear()
        cfg_path = tmp_path / "cfg.yaml"
        simkit.save_scenario(cfg, cfg_path)
        rc = cli.main(["mc", "--config", str(cfg_path), "--out-prefix", str(tmp_path / "mc")])
        assert rc == 0
        captured = capsys.readouterr()
        assert "dropped 1 run(s), eskf: injected in run 1" in captured.err
        assert "2/3 runs" in captured.out

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
        # at -5000 dBm the transmit power underflows to 0 W: the gain block is
        # singular, the row is unobservable, and the 0 dBm row is unaffected
        cfg = simkit.default_scenario()
        silent, loud = simkit.bounds_sweep(cfg, [-5000.0, 0.0])
        assert not silent["observable"] and np.isnan(silent["peb_m"]) and np.isnan(silent["rmeb_rad"])
        assert loud == simkit.bounds_sweep(cfg, [0.0])[0]

    def test_empty_power_list_rejected(self):
        with pytest.raises(ValueError):
            simkit.bounds_sweep(simkit.default_scenario(), [])


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

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
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
        with pytest.raises(ConfigError):
            simkit.load_scenario(path)
        out = str(tmp_path / "out")
        assert cli.main(["bounds", "--config", str(path), "--powers", "0", "--out", out + ".csv"]) == 2
        assert cli.main(["mc", "--config", str(path), "--runs", "1", "--out-prefix", out]) == 2

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

    def test_required_keys_only_take_dataclass_defaults(self, tmp_path):
        raw = simkit.scenario_to_dict(tiny_scenario())
        options = ("seed", "mc_runs", "filter_selection", "measurement_noise_scale",
                   "process_noise_rho_m", "process_noise_rot_rad")
        for key in options:
            del raw[key]
        for key in ("bandwidth_hz", "clock_bias_s", "rng_seed"):
            del raw["signal"][key]
        path = tmp_path / "bare.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        loaded = simkit.load_scenario(path)
        bare = simkit.ScenarioConfig(
            loaded.anchors, loaded.ue_array, loaded.signal, loaded.ue_start, loaded.segments
        )
        assert all(getattr(loaded, key) == getattr(bare, key) for key in options)
        sig = loaded.signal
        assert sig == channel.SignalConfig(
            sig.carrier_hz, sig.subcarrier_spacing_hz, sig.num_subcarriers, sig.num_transmissions,
            sig.tx_power_dbm, sig.noise_psd_dbm_hz,
        )

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

    def test_missing_file_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            simkit.load_scenario(tmp_path / "nope.yaml")


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

    @pytest.mark.parametrize("power", ["3000", "5000"])
    def test_overflowing_power_exits_3(self, tmp_path, power, capsys):
        # the FIM overflows at 3000 dBm and dBm -> W overflows a float at 5000
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["bounds", f"--powers={power}", "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        assert "tx_power_dbm" in capsys.readouterr().err

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

        def failing_run(cfg, run_index, truths, reports, commands):
            failed = {name: "injected" for name in cfg.selected_filters}
            return simkit.RunResult(truths, [], {}, {}, failed)

        monkeypatch.setattr(simkit, "run_single", failing_run)
        rc = cli.main(["mc", "--config", cfg_path, "--out-prefix", str(tmp_path / "mc")])
        assert rc == 3
        assert "all Monte Carlo runs failed (run 0: fusion: injected;" in capsys.readouterr().err

    @pytest.mark.parametrize("runs", ["0", "-3"])
    def test_bad_runs_override_exits_config_error(self, tmp_path, runs, capsys):
        rc = cli.main(["mc", "--runs", runs, "--out-prefix", str(tmp_path / "mc")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("configuration error:")

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
