"""Scenario configuration, trajectory generation, bound-calibrated
measurement sampling, Monte Carlo orchestration, and CSV emission.

Determinism: beams come from the signal seed, measurement noise from a
counter-based generator keyed by (scenario seed, run index), so runs are
order-independent and byte-identical output follows from identical
(config, seed).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np
import yaml

from .bounds import IcrbReport, pose_error_bounds
from .channel import (
    AnchorConfig,
    ArrayGeometry,
    BeamSet,
    SignalConfig,
    draw_beams,
    noise_free_signal,
)
from .errors import ConfigError, LengthMismatch, RadioPoseError, UnobservableState
from .lie import Pose, _pose, _so3_log, se3_log, so3_exp
from .tracking import (
    FilterState,
    MotionCommand,
    PoseMeasurement,
    _euler_from_rotation,
    eskf_update,
    euler_ekf_update,
    euler_predict,
    euler_state_from_pose,
    fusion_update,
    motion_matrix,
    pose_from_euler_state,
    predict,
    rotation_from_euler,
)

FILTER_NAMES = ("fusion", "eskf", "euler")


@dataclass(frozen=True)
class TrajectorySegment:
    """Constant-velocity trajectory piece."""

    v: np.ndarray  # m/s, local frame
    w: np.ndarray  # rad/s
    steps: int
    dt: float  # s

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        for name in ("v", "w"):
            value = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce a bounds sweep or a tracking run."""

    anchors: tuple
    ue_array: ArrayGeometry
    signal: SignalConfig
    ue_start: Pose
    segments: tuple
    mc_runs: int = 100
    seed: int = 0
    filter_selection: str = "all"
    measurement_noise_scale: float = 1.0
    process_noise_rho_m: float = 0.01
    process_noise_rot_rad: float = 0.005

    def __post_init__(self):
        object.__setattr__(self, "anchors", tuple(self.anchors))
        object.__setattr__(self, "segments", tuple(self.segments))
        if not np.all(np.isfinite(self.ue_start.translation_block)):
            raise ValueError("ue_start position must be finite")
        if len(self.anchors) < 2:
            raise ValueError("at least 2 anchors are required for observability")
        if self.mc_runs < 1:
            raise ValueError("mc_runs must be >= 1")
        if self.filter_selection not in FILTER_NAMES + ("all",):
            raise ValueError(f"filter_selection must be one of {FILTER_NAMES + ('all',)}")
        for name in ("measurement_noise_scale", "process_noise_rho_m", "process_noise_rot_rad"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {getattr(self, name)}")

    @property
    def selected_filters(self) -> tuple:
        if self.filter_selection == "all":
            return FILTER_NAMES
        return (self.filter_selection,)

    @property
    def process_noise(self) -> np.ndarray:
        q = np.zeros((6, 6))
        q[:3, :3] = self.process_noise_rho_m**2 * np.eye(3)
        q[3:, 3:] = self.process_noise_rot_rad**2 * np.eye(3)
        return q


def default_segments() -> tuple:
    """Six equal constant-velocity segments, 20 samples each at 0.5 s."""
    velocities = [
        [0.5, 0.0, 0.0],
        [0.0, 0.5, 0.0],
        [-0.5, 0.0, 0.5],
        [0.5, 0.5, 0.0],
        [0.0, -0.5, 0.0],
        [-0.5, 0.0, -0.5],
    ]
    turn = -np.pi / 4.0
    rates = [
        [0.0, 0.0, turn],
        [0.0, 0.0, 0.0],
        [0.0, 0.0, turn],
        [0.0, 0.0, 0.0],
        [0.0, 0.0, turn],
        [0.0, 0.0, turn],
    ]
    return tuple(
        TrajectorySegment(v=np.array(v), w=np.array(w), steps=20, dt=0.5)
        for v, w in zip(velocities, rates)
    )


def default_scenario() -> ScenarioConfig:
    """Default two-anchor 30 GHz scenario.

    8x8 anchor arrays and a 4x4 UE array at half-wavelength spacing,
    120 kHz subcarriers (100 of them) in a 100 MHz noise bandwidth,
    20 random beam pairs per snapshot, anchors at [5,0,0] / [0,5,0] with
    Z-Y-X orientations (0,15,0) and (-30,15,0) degrees, UE starting at
    [-5,-5,0] with orientation (20,-30,0) degrees.
    """
    carrier_hz = 30e9
    signal = SignalConfig(
        carrier_hz=carrier_hz,
        subcarrier_spacing_hz=120e3,
        num_subcarriers=100,
        num_transmissions=20,
        tx_power_dbm=20.0,
        noise_psd_dbm_hz=-173.855,
        bandwidth_hz=100e6,
        clock_bias_s=0.0,
        rng_seed=1,
    )
    bs_array = ArrayGeometry.half_wavelength_upa(8, 8, carrier_hz)
    ue_array = ArrayGeometry.half_wavelength_upa(4, 4, carrier_hz)
    anchors = (
        AnchorConfig(np.array([5.0, 0.0, 0.0]), rotation_from_euler(np.deg2rad([0.0, 15.0, 0.0])), bs_array),
        AnchorConfig(np.array([0.0, 5.0, 0.0]), rotation_from_euler(np.deg2rad([-30.0, 15.0, 0.0])), bs_array),
    )
    ue_start = Pose.from_rotation_position(
        rotation_from_euler(np.deg2rad([20.0, -30.0, 0.0])), np.array([-5.0, -5.0, 0.0])
    )
    return ScenarioConfig(
        anchors=anchors,
        ue_array=ue_array,
        signal=signal,
        ue_start=ue_start,
        segments=default_segments(),
        mc_runs=100,
        seed=3,
        filter_selection="all",
    )


def segment_commands(segments, process_noise: np.ndarray | None = None):
    """Flatten segments into one MotionCommand per step."""
    q = np.zeros((6, 6)) if process_noise is None else process_noise
    out = []
    for seg in segments:
        out.extend(MotionCommand(v=seg.v, w=seg.w, dt=seg.dt, process_noise=q) for _ in range(seg.steps))
    return out


def generate_trajectory(start: Pose, segments):
    """Poses visited after each motion step (the start pose is not included)."""
    poses = []
    pose = start
    for cmd in segment_commands(segments):
        pose = motion_matrix(cmd) @ pose
        poses.append(pose)
    return poses


def sample_measurement(truth: Pose, report: IcrbReport, rng, noise_scale: float) -> PoseMeasurement:
    """Draw a pose measurement around the truth in the bound's own coordinates.

    delta = noise_scale * S z with S = ``report.icrb_sqrt`` (S S.T = icrb)
    shifts the global position by delta[:3] and turns the rotation by the
    left increment delta[3:] (R <- exp(hat(delta[3:])) R), as in
    ``bounds.state_jacobian_tz``, so the sampled error has the bound as
    covariance. Noise that overflows raises RadioPoseError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        delta = noise_scale * (report.icrb_sqrt @ rng.standard_normal(6))
        rot = so3_exp(delta[3:]) @ truth.rotation
        block = rot @ (truth.position + delta[:3])
    if not (np.all(np.isfinite(rot)) and np.all(np.isfinite(block))):
        raise RadioPoseError(
            f"sampled measurement is not finite: measurement_noise_scale {noise_scale:g} overflows"
        )
    return PoseMeasurement(pose=_pose(rot, block), cov_state_icrb=report.icrb)


def run_rng(seed: int, run_index: int):
    """Counter-based per-run generator keyed by (seed, run index)."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(run_index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class RunResult:
    """Per-step series of one tracking run."""

    truths: list
    measurements: list
    estimates: dict  # filter name -> list of Pose
    tangent_errors: dict  # filter name -> (steps, 6) array, log(est truth^-1)
    failed: dict  # filter name -> error message or None


@dataclass
class FilterMetrics:
    """Aggregated error series of one estimator across Monte Carlo runs."""

    pos_rmse_m: np.ndarray  # per step
    rot_rmse_rad: np.ndarray  # per step
    per_run_pos_rmse_m: np.ndarray
    per_run_rot_rmse_rad: np.ndarray
    terminal_rot_err_rad: np.ndarray

    def terminal_rotation_cdf(self):
        """Sorted terminal rotation errors with empirical CDF levels."""
        err = np.sort(self.terminal_rot_err_rad)
        return err, np.arange(1, err.size + 1) / err.size


@dataclass
class MetricSeries:
    """Monte Carlo aggregate: per-step RMSE per filter plus raw-measurement RMSE."""

    time_s: np.ndarray
    filters: dict
    measurement: FilterMetrics
    n_runs: int
    dropped_runs: dict  # run index -> {filter name: error message} of each run left out

    @property
    def n_failed_runs(self) -> int:
        return len(self.dropped_runs)


def scenario_reports(cfg: ScenarioConfig, beams: BeamSet):
    """Truth trajectory with the error-bound report at every true pose."""
    truths = generate_trajectory(cfg.ue_start, cfg.segments)
    reports = [
        pose_error_bounds(pose, cfg.anchors, cfg.ue_array, cfg.signal, beams) for pose in truths
    ]
    return truths, reports


def _tangent_state(meas: PoseMeasurement) -> FilterState:
    return FilterState(meas.pose, meas.cov_tangent)


# Per filter: (state from the first measurement, one predict + update step,
# estimated pose of a state). The lambdas resolve the filter functions when
# called, so a rebinding of the module attribute is honoured.
_FILTERS = {
    "fusion": (_tangent_state, lambda s, cmd, m: fusion_update(predict(s, cmd), m), lambda s: s.pose),
    "eskf": (_tangent_state, lambda s, cmd, m: eskf_update(predict(s, cmd), m), lambda s: s.pose),
    "euler": (
        lambda m: (euler_state_from_pose(m.pose), np.array(m.cov_state_icrb)),
        lambda s, cmd, m: euler_ekf_update(*euler_predict(*s, cmd), m),
        lambda s: pose_from_euler_state(s[0]),
    ),
}


def run_single(cfg: ScenarioConfig, run_index: int, truths, reports, commands) -> RunResult:
    """Sample one measurement sequence and run the selected filters.

    A filter that raises a RadioPoseError, or whose estimate stops being
    finite, stops there: its message goes to ``failed`` and its estimates end
    at the last good step, while the other filters run on.
    """
    rng = run_rng(cfg.seed, run_index)
    measurements = [
        sample_measurement(t, r, rng, cfg.measurement_noise_scale) for t, r in zip(truths, reports)
    ]

    estimates = {name: [] for name in cfg.selected_filters}
    errors = {name: np.full((len(truths), 6), np.nan) for name in cfg.selected_filters}
    failed = {name: None for name in cfg.selected_filters}

    for name in cfg.selected_filters:
        init, step, pose_of = _FILTERS[name]
        try:
            state = init(measurements[0])
            for k, meas in enumerate(measurements):
                if k > 0:
                    state = step(state, commands[k], meas)
                est_pose = pose_of(state)
                errors[name][k] = se3_log(est_pose @ truths[k].inverse())
                if not np.all(np.isfinite(errors[name][k])):
                    raise RadioPoseError(f"estimate is not finite at step {k}")
                estimates[name].append(est_pose)
        except RadioPoseError as exc:
            failed[name] = str(exc)

    return RunResult(
        truths=truths,
        measurements=measurements,
        estimates=estimates,
        tangent_errors=errors,
        failed=failed,
    )


def _norms(vectors) -> np.ndarray:
    """Euclidean norm of each vector, taken one vector at a time (a norm over
    axis=1 sums in another order and can differ in the last bit)."""
    return np.array([np.linalg.norm(v) for v in vectors])


def _position_errors(poses, truths) -> np.ndarray:
    return _norms(p.position - t.position for p, t in zip(poses, truths))


def _metrics_from_errors(pos_err: np.ndarray, rot_err: np.ndarray) -> FilterMetrics:
    """pos_err, rot_err have shape (runs, steps)."""
    return FilterMetrics(
        pos_rmse_m=np.sqrt(np.mean(pos_err**2, axis=0)),
        rot_rmse_rad=np.sqrt(np.mean(rot_err**2, axis=0)),
        per_run_pos_rmse_m=np.sqrt(np.mean(pos_err**2, axis=1)),
        per_run_rot_rmse_rad=np.sqrt(np.mean(rot_err**2, axis=1)),
        terminal_rot_err_rad=rot_err[:, -1].copy(),
    )


def run_monte_carlo(cfg: ScenarioConfig) -> MetricSeries:
    """Independent tracking runs over the deterministic truth trajectory.

    The bound reports are computed once (the truth is shared by all runs);
    each run samples its own measurement noise from a per-run generator.
    Runs in which any filter fails are dropped from the aggregates, and
    their failure messages kept in ``dropped_runs``; a filter failure never
    aborts the batch, but noise that ``sample_measurement`` cannot draw does.
    """
    beams = draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
    truths, reports = scenario_reports(cfg, beams)
    commands = segment_commands(cfg.segments, cfg.process_noise)

    pos_err = {name: [] for name in cfg.selected_filters}
    rot_err = {name: [] for name in cfg.selected_filters}
    meas_pos_err = []
    meas_rot_err = []
    dropped = {}

    for run in range(cfg.mc_runs):
        result = run_single(cfg, run, truths, reports, commands)
        failed = {name: msg for name, msg in result.failed.items() if msg is not None}
        if failed:
            dropped[run] = failed
            continue
        for name in cfg.selected_filters:
            pos_err[name].append(_position_errors(result.estimates[name], truths))
            rot_err[name].append(_norms(result.tangent_errors[name][:, 3:]))
        measured = [m.pose for m in result.measurements]
        meas_pos_err.append(_position_errors(measured, truths))
        meas_rot_err.append(_norms(_so3_log(m.rotation @ t.rotation.T) for m, t in zip(measured, truths)))

    if not meas_pos_err:
        reasons = "; ".join(f"{name}: {msg}" for name, msg in dropped[0].items())
        raise RadioPoseError(f"all Monte Carlo runs failed (run 0: {reasons})")

    filters = {
        name: _metrics_from_errors(np.array(pos_err[name]), np.array(rot_err[name]))
        for name in cfg.selected_filters
    }
    time_s = np.cumsum([cmd.dt for cmd in commands])
    return MetricSeries(
        time_s=time_s,
        filters=filters,
        measurement=_metrics_from_errors(np.array(meas_pos_err), np.array(meas_rot_err)),
        n_runs=cfg.mc_runs,
        dropped_runs=dropped,
    )


def bounds_sweep(cfg: ScenarioConfig, powers_dbm) -> list:
    """PEB/RMEB at the start pose for each transmit power, identical beams.

    Unobservable rows carry NaN bounds and observable=False; the sweep
    continues past them.
    """
    powers = list(powers_dbm)
    if not powers:
        raise ValueError("powers_dbm must be nonempty")
    beams = draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
    rows = []
    for power in powers:
        sig = replace(cfg.signal, tx_power_dbm=float(power))
        try:
            report = pose_error_bounds(cfg.ue_start, cfg.anchors, cfg.ue_array, sig, beams)
            rows.append(
                {
                    "power_dbm": float(power),
                    "peb_m": report.peb_m,
                    "rmeb_rad": report.rmeb_rad,
                    "observable": True,
                }
            )
        except UnobservableState:
            rows.append(
                {"power_dbm": float(power), "peb_m": np.nan, "rmeb_rad": np.nan, "observable": False}
            )
    return rows


def mean_sample_snr_db(cfg: ScenarioConfig) -> float:
    """Mean post-beamforming per-sample SNR at the start pose over anchors, beams, subcarriers."""
    beams = draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
    mu = noise_free_signal(cfg.ue_start, cfg.anchors, cfg.ue_array, cfg.signal, beams)
    snr = float(np.mean(np.abs(mu) ** 2) / cfg.signal.noise_variance_w)
    return 10.0 * np.log10(snr)


def power_for_target_snr(cfg: ScenarioConfig, target_snr_db: float) -> float:
    """Transmit power (dBm) at which the mean per-sample SNR at the start pose hits the target."""
    baseline = mean_sample_snr_db(cfg)
    return cfg.signal.tx_power_dbm + (target_snr_db - baseline)


def bootstrap_mean_diff(x, y, n_boot: int = 2000, seed: int = 0) -> np.ndarray:
    """Bootstrap samples of mean(x) - mean(y) under paired run resampling."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise LengthMismatch(f"shape {x.shape} vs {y.shape}")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, x.size, size=(n_boot, x.size))
    return x[idx].mean(axis=1) - y[idx].mean(axis=1)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def emit_csv(table, path) -> None:
    """Write an RFC-4180 CSV (CRLF line endings, header row, shortest
    round-trip float formatting).

    ``table`` is a (header, rows) pair with ``header`` a list of column
    names and ``rows`` an iterable of records. OSError propagates to the
    caller (the CLI maps it to its I/O exit code).
    """
    header, rows = table
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


def bounds_table(rows) -> tuple:
    header = ["power_dbm", "peb_m", "rmeb_rad"]
    records = [(r["power_dbm"], r["peb_m"], r["rmeb_rad"]) for r in rows]
    return header, records


def metric_table(series: MetricSeries) -> tuple:
    """step,time_s plus suffixed RMSE columns per filter and the raw measurement."""
    names = list(series.filters)
    header = ["step", "time_s"]
    for name in names + ["meas"]:
        header += [f"pos_rmse_m_{name}", f"rot_rmse_rad_{name}"]
    records = []
    for k, t in enumerate(series.time_s):
        row = [k, t]
        for name in names:
            row += [series.filters[name].pos_rmse_m[k], series.filters[name].rot_rmse_rad[k]]
        row += [series.measurement.pos_rmse_m[k], series.measurement.rot_rmse_rad[k]]
        records.append(row)
    return header, records


def cdf_table(metrics: FilterMetrics) -> tuple:
    err, cdf = metrics.terminal_rotation_cdf()
    return ["error_rad", "cdf"], list(zip(err, cdf))


# ---------------------------------------------------------------------------
# Scenario file I/O (YAML, units spelled out in key names)
# ---------------------------------------------------------------------------


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """Plain-Python (YAML-safe) form of a scenario; raises ConfigError when
    an array is not a half-wavelength planar grid, which the file cannot hold."""
    return {
        "seed": int(cfg.seed),
        "mc_runs": int(cfg.mc_runs),
        "filter_selection": cfg.filter_selection,
        "measurement_noise_scale": float(cfg.measurement_noise_scale),
        "process_noise_rho_m": float(cfg.process_noise_rho_m),
        "process_noise_rot_rad": float(cfg.process_noise_rot_rad),
        "signal": {
            "carrier_hz": float(cfg.signal.carrier_hz),
            "subcarrier_spacing_hz": float(cfg.signal.subcarrier_spacing_hz),
            "num_subcarriers": int(cfg.signal.num_subcarriers),
            "num_transmissions": int(cfg.signal.num_transmissions),
            "tx_power_dbm": float(cfg.signal.tx_power_dbm),
            "noise_psd_dbm_hz": float(cfg.signal.noise_psd_dbm_hz),
            "bandwidth_hz": float(cfg.signal.bandwidth_hz),
            "clock_bias_s": float(cfg.signal.clock_bias_s),
            "rng_seed": int(cfg.signal.rng_seed),
        },
        "anchors": [
            {
                "position_m": np.asarray(a.position).tolist(),
                "orientation_deg_zyx": np.rad2deg(_euler_from_rotation(a.orientation)).tolist(),
                "array_shape": _grid_shape(a.array, cfg.signal.carrier_hz),
            }
            for a in cfg.anchors
        ],
        "ue": {
            "start_position_m": np.asarray(cfg.ue_start.position).tolist(),
            "start_orientation_deg_zyx": np.rad2deg(_euler_from_rotation(cfg.ue_start.rotation)).tolist(),
            "array_shape": _grid_shape(cfg.ue_array, cfg.signal.carrier_hz),
        },
        "segments": [
            {
                "v_mps": np.asarray(s.v).tolist(),
                "w_radps": np.asarray(s.w).tolist(),
                "steps": int(s.steps),
                "dt_s": float(s.dt),
            }
            for s in cfg.segments
        ],
    }


def _grid_shape(array: ArrayGeometry, carrier_hz: float) -> list:
    """[nx, ny] from the distinct element x and y coordinates; ConfigError
    unless the elements are exactly the half-wavelength grid that
    ``load_scenario`` rebuilds from that shape."""
    pos = array.element_positions
    nx, ny = (len(set(pos[:, axis].tolist())) for axis in (0, 1))
    grid = ArrayGeometry.half_wavelength_upa(nx, ny, carrier_hz).element_positions
    if grid.shape != pos.shape or not np.allclose(grid, pos, rtol=0.0, atol=1e-12):
        raise ConfigError(
            f"array of {array.num_elements} elements is not a half-wavelength {nx}x{ny} grid"
        )
    return [nx, ny]


def save_scenario(cfg: ScenarioConfig, path) -> None:
    with open(path, "w") as handle:
        yaml.safe_dump(scenario_to_dict(cfg), handle, sort_keys=False)


def load_scenario(path) -> ScenarioConfig:
    """Parse a YAML scenario file; raises ConfigError on any schema problem."""
    try:
        with open(path) as handle:
            raw = yaml.safe_load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("scenario file must contain a mapping")
    return scenario_from_dict(raw)


def _known_keys(raw, template: dict, where: str) -> dict:
    """``raw`` as a dict; ConfigError naming each key that ``template``, what
    ``scenario_to_dict`` writes at this level, does not have."""
    raw = dict(raw)
    unknown = sorted(str(k) for k in raw.keys() - template.keys())
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    return raw


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    """Scenario from the form ``scenario_to_dict`` writes; raises ConfigError
    on a missing, unknown or invalid key.

    The keys and value types ``scenario_to_dict`` writes for the default
    scenario are the schema. An optional key that is absent takes the
    dataclass default.
    """
    template = scenario_to_dict(default_scenario())
    try:
        raw = _known_keys(raw, template, "scenario")
        sig_raw = _known_keys(raw["signal"], template["signal"], "signal")
        anchors_raw = [_known_keys(a, template["anchors"][0], "anchor") for a in raw["anchors"]]
        ue_raw = _known_keys(raw["ue"], template["ue"], "ue")
        segments_raw = [_known_keys(s, template["segments"][0], "segment") for s in raw["segments"]]

        signal = SignalConfig(**{k: type(template["signal"][k])(v) for k, v in sig_raw.items()})
        anchors = []
        for a in anchors_raw:
            nx, ny = (int(v) for v in a["array_shape"])
            anchors.append(
                AnchorConfig(
                    position=np.asarray(a["position_m"], dtype=float),
                    orientation=rotation_from_euler(np.deg2rad(np.asarray(a["orientation_deg_zyx"], dtype=float))),
                    array=ArrayGeometry.half_wavelength_upa(nx, ny, signal.carrier_hz),
                )
            )
        nx, ny = (int(v) for v in ue_raw["array_shape"])
        ue_array = ArrayGeometry.half_wavelength_upa(nx, ny, signal.carrier_hz)
        ue_start = Pose.from_rotation_position(
            rotation_from_euler(np.deg2rad(np.asarray(ue_raw["start_orientation_deg_zyx"], dtype=float))),
            np.asarray(ue_raw["start_position_m"], dtype=float),
        )
        segments = [
            TrajectorySegment(
                v=np.asarray(s["v_mps"], dtype=float),
                w=np.asarray(s["w_radps"], dtype=float),
                steps=int(s["steps"]),
                dt=float(s["dt_s"]),
            )
            for s in segments_raw
        ]
        sections = ("signal", "anchors", "ue", "segments")
        return ScenarioConfig(
            anchors=tuple(anchors),
            ue_array=ue_array,
            signal=signal,
            ue_start=ue_start,
            segments=tuple(segments),
            **{k: type(template[k])(v) for k, v in raw.items() if k not in sections},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad scenario configuration: {exc}") from exc
