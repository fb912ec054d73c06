"""Scenario configuration, trajectory generation, bound-calibrated
measurement sampling, Monte Carlo orchestration, and CSV emission.

Determinism: beams come from the signal seed, measurement noise from a
counter-based generator keyed by (scenario seed, run index), so runs are
order-independent and byte-identical output follows from identical
(config, seed). A study runs its filters over all runs at once, one batched
step per time step, and each run's numbers do not depend on the batch.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

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
from . import tracking
from .errors import ConfigError, LengthMismatch, RadioPoseError, UnobservableState
from .lie import _LOG_PI_MARGIN, Pose, _norm, _pose, _so3_log, se3_log, so3_exp
from .tracking import (
    FilterState,
    MotionCommand,
    PoseMeasurement,
    _euler_from_rotation,
    eskf_update,
    euler_ekf_update,
    euler_initial,
    euler_predict,
    fusion_update,
    initial_state,
    pose_from_euler_state,
    predict,
    rotation_from_euler,
)

FILTER_NAMES = ("fusion", "eskf", "euler")
# cap on mc_runs x trajectory steps: a study holds about 1.1 kB per run-step, 2.2 GB at the cap
MAX_RUN_STEPS = 2_000_000
# cap on trajectory steps alone: the truth poses and their bounds hold about 1.5 kB per truth pose, 0.2 GB at the cap
MAX_TRAJECTORY_STEPS = 2**17
# truth poses per pass of the bound pipeline in scenario_reports; the default trajectory is one pass
_REPORT_CHUNK = 512
# libyaml's parser when PyYAML was built with it; the constructor is SafeLoader's either way
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


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
            if value.shape != (3,) or not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be a finite 3-vector, got {value}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce a bounds sweep or a tracking run."""

    anchors: tuple
    ue_array: ArrayGeometry
    signal: SignalConfig
    ue_start: Pose
    segments: tuple
    mc_runs: int
    seed: int
    filter_selection: str
    measurement_noise_scale: float
    process_noise_rho_m: float
    process_noise_rot_rad: float

    def __post_init__(self):
        object.__setattr__(self, "anchors", tuple(self.anchors))
        object.__setattr__(self, "segments", tuple(self.segments))
        if not np.all(np.isfinite(self.ue_start.translation_block)):
            raise ValueError("ue_start position must be finite")
        if len(self.anchors) < 2:
            raise ValueError("at least 2 anchors are required for observability")
        if not self.segments:
            raise ValueError("at least 1 trajectory segment is required")
        if self.mc_runs < 1:
            raise ValueError("mc_runs must be >= 1")
        steps = sum(s.steps for s in self.segments)
        run_steps = self.mc_runs * steps
        if run_steps > MAX_RUN_STEPS:
            raise ValueError(f"mc_runs x trajectory steps must be at most {MAX_RUN_STEPS}, got {run_steps}")
        if steps > MAX_TRAJECTORY_STEPS:
            raise ValueError(f"trajectory steps must be at most {MAX_TRAJECTORY_STEPS}, got {steps}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.filter_selection not in FILTER_NAMES + ("all",):
            raise ValueError(f"filter_selection must be one of {FILTER_NAMES + ('all',)}")
        for name in ("measurement_noise_scale", "process_noise_rho_m", "process_noise_rot_rad"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {getattr(self, name)}")
        for name in ("process_noise_rho_m", "process_noise_rot_rad"):
            # the process-noise covariance holds the square
            value = float(getattr(self, name))
            if not np.isfinite(value * value):
                raise ValueError(f"{name} squared must be finite, got {value:g}")

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


# The default scenario in file form: its keys and value types are the schema, its settings the defaults.
_DEFAULT_SCENARIO = {
    "seed": 3,
    "mc_runs": 100,
    "filter_selection": "all",
    "measurement_noise_scale": 1.0,
    "process_noise_rho_m": 0.01,
    "process_noise_rot_rad": 0.005,
    "signal": {
        "carrier_hz": 30e9,
        "subcarrier_spacing_hz": 120e3,
        "num_subcarriers": 100,
        "num_transmissions": 20,
        "tx_power_dbm": 20.0,
        "noise_psd_dbm_hz": -173.855,
        "bandwidth_hz": 100e6,
        "clock_bias_s": 0.0,
        "rng_seed": 1,
    },
    "anchors": [
        {"position_m": [5.0, 0.0, 0.0], "orientation_deg_zyx": [0.0, 15.0, 0.0], "array_shape": [8, 8]},
        {"position_m": [0.0, 5.0, 0.0], "orientation_deg_zyx": [-30.0, 15.0, 0.0], "array_shape": [8, 8]},
    ],
    "ue": {
        "start_position_m": [-5.0, -5.0, 0.0],
        "start_orientation_deg_zyx": [20.0, -30.0, 0.0],
        "array_shape": [4, 4],
    },
    "segments": [
        {"v_mps": [0.5, 0.0, 0.0], "w_radps": [0.0, 0.0, -np.pi / 4], "steps": 20, "dt_s": 0.5},
        {"v_mps": [0.0, 0.5, 0.0], "w_radps": [0.0, 0.0, 0.0], "steps": 20, "dt_s": 0.5},
        {"v_mps": [-0.5, 0.0, 0.5], "w_radps": [0.0, 0.0, -np.pi / 4], "steps": 20, "dt_s": 0.5},
        {"v_mps": [0.5, 0.5, 0.0], "w_radps": [0.0, 0.0, 0.0], "steps": 20, "dt_s": 0.5},
        {"v_mps": [0.0, -0.5, 0.0], "w_radps": [0.0, 0.0, -np.pi / 4], "steps": 20, "dt_s": 0.5},
        {"v_mps": [-0.5, 0.0, -0.5], "w_radps": [0.0, 0.0, -np.pi / 4], "steps": 20, "dt_s": 0.5},
    ],
}


def default_scenario() -> ScenarioConfig:
    """Default two-anchor 30 GHz scenario: ``_DEFAULT_SCENARIO`` through the
    constructors and checks of any scenario file."""
    return scenario_from_dict(_DEFAULT_SCENARIO)


def segment_commands(segments, process_noise: np.ndarray | None = None):
    """One MotionCommand per step; a segment's steps share one, so its factor is evaluated once."""
    q = np.zeros((6, 6)) if process_noise is None else process_noise
    out = []
    for seg in segments:
        out.extend([MotionCommand(v=seg.v, w=seg.w, dt=seg.dt, process_noise=q)] * seg.steps)
    return out


def generate_trajectory(start: Pose, segments):
    """Poses visited after each motion step (the start pose is not included)."""
    poses = []
    pose = start
    for cmd in segment_commands(segments):
        pose = cmd.factor @ pose
        poses.append(pose)
    return poses


def sample_measurement(truth: Pose, icrb_sqrt: np.ndarray, normals: np.ndarray, noise_scale: float) -> Pose:
    """Measured poses drawn around the truth in the bound's own coordinates.

    delta = noise_scale * S z, with S = ``IcrbReport.icrb_sqrt`` (S S.T = icrb)
    and z the standard ``normals``, shifts the global position by delta[:3]
    and turns the rotation by the left increment delta[3:]
    (R <- exp(hat(delta[3:])) R), as in ``bounds.state_jacobian_tz``, so the
    sampled error has the bound as covariance. The arguments broadcast over
    leading axes: K truths, (K, 6, 6) factors and (R, K, 6) normals give the
    (R, K) measurements of a study. Noise that overflows raises RadioPoseError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        delta = noise_scale * np.matvec(icrb_sqrt, normals)
        rot = so3_exp(delta[..., 3:]) @ truth.rotation
        block = np.matvec(rot, truth.position + delta[..., :3])
    if not (np.all(np.isfinite(rot)) and np.all(np.isfinite(block))):
        raise RadioPoseError(
            f"sampled measurement is not finite: measurement_noise_scale {noise_scale:g} overflows"
        )
    return _pose(rot, block)


def run_rng(seed: int, run_index: int):
    """Counter-based per-run generator keyed by (seed, run index)."""
    key = np.array([seed, run_index], dtype=np.uint64)
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
    fusion_nonconverged: int = 0  # fusion updates, over all runs, that hit the Gauss-Newton limit

    @property
    def n_failed_runs(self) -> int:
        return len(self.dropped_runs)


def scenario_reports(cfg: ScenarioConfig, beams: BeamSet):
    """Truth trajectory (a list of K poses) with the error-bound report at
    every true pose: one report with a leading axis of K rows, from batched
    passes of the bound pipeline over ``_REPORT_CHUNK`` poses at a time, so
    that its temporaries do not grow with K (rows are independent, so the
    chunking does not change a number). Raises RadioPoseError naming the
    first true pose that is not finite, before any bound, and
    UnobservableState naming the first whose bound is unobservable."""
    with np.errstate(over="ignore", invalid="ignore"):
        truths = generate_trajectory(cfg.ue_start, cfg.segments)
    stacked = Pose.stack(truths)
    finite = np.isfinite(stacked.matrix()).all(axis=(-2, -1))
    if not finite.all():
        first = int(np.flatnonzero(~finite)[0])
        raise RadioPoseError(f"truth pose {first} of {len(truths)} is not finite: the trajectory overflows")
    chunks = []
    for start in range(0, len(truths), _REPORT_CHUNK):
        chunk = pose_error_bounds(stacked[start : start + _REPORT_CHUNK], cfg.anchors, cfg.ue_array, cfg.signal, beams)
        if not chunk.observable.all():
            first = start + int(np.flatnonzero(~chunk.observable)[0])
            raise UnobservableState(f"state FIM unobservable at truth pose {first} of {len(truths)}")
        chunks.append(chunk)
    fields = ("icrb", "peb_m", "rmeb_rad", "observable")
    return truths, IcrbReport(*(np.concatenate([getattr(c, name) for c in chunks]) for name in fields))


# Per filter: (state from the first measurement, one predict + update step,
# estimated pose of a state), each over a batch of runs. The lambdas resolve
# the filter functions when called, so a rebinding of the module attribute
# is honoured.
_FILTERS = {
    "fusion": (initial_state, lambda s, cmd, m: fusion_update(predict(s, cmd), m), lambda s: s.pose),
    "eskf": (initial_state, lambda s, cmd, m: eskf_update(predict(s, cmd), m), lambda s: s.pose),
    "euler": (
        euler_initial,
        lambda s, cmd, m: euler_ekf_update(*euler_predict(*s, cmd), m),
        lambda s: pose_from_euler_state(s[0]),
    ),
}


def _runs_of(state, runs):
    """The runs ``runs`` (a boolean mask, or indices) of a batched filter state, or None."""
    return state[runs] if isinstance(state, FilterState) else state and tuple(part[runs] for part in state)


@dataclass
class _Track:
    """One filter over a batch of runs: estimates (R, K) and tangent errors
    log(est truth^-1) (R, K, 6), NaN from a run's failure on; per run the
    failure message or None; and the count of updates in which a run hit
    the fusion Gauss-Newton limit."""

    estimates: Pose
    errors: np.ndarray
    failed: list
    nonconverged: int


def _track(name: str, n_runs: int, measurements, commands) -> tuple:
    """Run one filter over ``n_runs`` runs, one batched step per time step,
    for ``_with_errors``: the (R, K) estimates NaN from a run's failure on.

    The one place that knows a batch can fail in some of its runs: a batched
    step that raises a RadioPoseError, or leaves an estimate that is not
    finite, is taken again run by run through the unbatched kernels. A run
    that fails alone ends with its own message and the batched step is taken
    again for the others, whose numbers equal their unbatched calls. When no
    run fails alone, the batch's error propagates. A step that overflows
    fails through the finiteness check, without numpy warnings.
    """
    init, step, pose_of = _FILTERS[name]

    def advance(k, state, meas):
        with np.errstate(over="ignore", invalid="ignore"):
            new = init(meas) if k == 0 else step(state, commands[k], meas)
            est = pose_of(new)
        if not (np.isfinite(est.rotation).all() and np.isfinite(est.translation_block).all()):
            raise RadioPoseError(f"estimate is not finite at step {k}")
        return new, est

    def failure_alone(k, state, meas, i):
        try:
            advance(k, _runs_of(state, i), meas[i])
        except RadioPoseError as exc:
            return str(exc)
        return None

    n_steps = len(measurements)
    rotation = np.full((n_runs, n_steps, 3, 3), np.nan)
    block = np.full((n_runs, n_steps, 3), np.nan)
    limited = np.zeros((n_runs, n_steps), dtype=bool)
    failed = [None] * n_runs
    alive = np.arange(n_runs)
    state = None
    for k in range(n_steps):
        while alive.size:
            meas = measurements[k] if alive.size == n_runs else measurements[k][alive]
            try:
                new, est = advance(k, state, meas)
                break
            except RadioPoseError as exc:
                # an unbatched run's failure is its own
                own = [str(exc)] if n_runs == 1 else [failure_alone(k, state, meas, i) for i in range(alive.size)]
                ended = np.array([message is not None for message in own])
                if not ended.any():
                    raise
                for run, message in zip(alive, own):
                    failed[run] = message
                alive = alive[~ended]
                if alive.size:
                    state = _runs_of(state, ~ended)
        if not alive.size:
            break
        state = new
        rotation[alive, k], block[alive, k] = est.rotation, est.translation_block
        if getattr(new, "iterations", None) is not None:
            limited[alive, k] = new.iterations >= tracking._FUSION_MAX_ITERS
    return rotation, block, limited, failed


def _with_errors(rotation, block, limited, failed, truth_inv: Pose) -> _Track:
    """The ``_Track`` of a ``_track`` loop, errors from one ``se3_log``. A run
    whose error is within 1e-6 of pi at step k, where that log raises, ends
    at k, overriding a later failure in the loop but not one at k itself."""
    near_pi = _norm(_so3_log(rotation @ truth_inv.rotation)) > np.pi - _LOG_PI_MARGIN  # NaN rows: False
    for run in np.flatnonzero(near_pi.any(axis=1)):
        k = np.argmax(near_pi[run])
        failed[run] = "rotation angle within 1e-6 of pi"
        rotation[run, k:], block[run, k:] = np.nan, np.nan
    estimates = _pose(rotation, block)
    done = np.isfinite(block[..., 0])
    logs = se3_log((estimates @ truth_inv)[done])
    errors = np.full(block.shape[:-1] + (6,), np.nan)
    errors[done] = logs
    return _Track(estimates, errors, failed, int(np.count_nonzero(limited & done)))


def _run_batch(cfg: ScenarioConfig, runs, truths, reports, commands):
    """The runs ``runs`` (run indices) of a study in one pass, with the K
    truths and their batched bound report (``scenario_reports``): the stacked
    truths (K,), the measurements (R, K) and a ``_Track`` per selected filter.

    Each run draws its (K, 6) normals from its own generator (``run_rng``):
    the same numbers, in the same order, as K draws of 6. The terms the
    filters read from the measurements are evaluated once over the (R, K)
    stack, and each step holds its slice. A single run goes through the
    filters without a run axis: the unbatched case of the same kernels,
    which costs less per call than a batch of one.
    """
    truth = Pose.stack(truths)
    normals = [run_rng(cfg.seed, run).standard_normal((len(truths), 6)) for run in runs]
    measured = sample_measurement(truth, reports.icrb_sqrt, np.stack(normals), cfg.measurement_noise_scale)
    del normals  # before the (R, K, 6, 6) covariances, the study's largest arrays
    meas = PoseMeasurement(measured, reports.icrb).evaluated()
    rows = slice(None) if len(runs) > 1 else 0
    steps = [meas[rows, k] for k in range(len(truths))]
    loops = {name: _track(name, len(runs), steps, commands) for name in cfg.selected_filters}
    # the errors' batched log needs the room that the measurements' terms take
    del steps, meas
    truth_inv = truth.inverse()
    return truth, measured, {name: _with_errors(*loop, truth_inv) for name, loop in loops.items()}


def run_single(cfg: ScenarioConfig, run_index: int, truths, reports, commands) -> RunResult:
    """Sample one measurement sequence and run the selected filters: the
    one-run case of the batched pass of ``run_monte_carlo``, with the same
    numbers as that run's row in any batch.

    A filter that raises a RadioPoseError, or whose estimate stops being
    finite, stops there: its message goes to ``failed`` and its estimates end
    at the last good step, while the other filters run on.
    """
    _, measured, tracks = _run_batch(cfg, [run_index], truths, reports, commands)
    return RunResult(
        truths=truths,
        measurements=[PoseMeasurement(measured[0, k], icrb) for k, icrb in enumerate(reports.icrb)],
        estimates={
            name: [t.estimates[0, k] for k in np.flatnonzero(np.isfinite(t.errors[0, :, 0]))]
            for name, t in tracks.items()
        },
        tangent_errors={name: t.errors[0] for name, t in tracks.items()},
        failed={name: t.failed[0] for name, t in tracks.items()},
    )


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
    each run samples its own measurement noise from a per-run generator, and
    each filter steps all runs together (``_run_batch``). Runs in which any
    filter fails are dropped from the aggregates, and their failure messages
    kept in ``dropped_runs``; a filter failure never aborts the batch, but
    noise that ``sample_measurement`` cannot draw does.
    """
    beams = draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
    truths, reports = scenario_reports(cfg, beams)
    commands = segment_commands(cfg.segments, cfg.process_noise)
    truth, measured, tracks = _run_batch(cfg, range(cfg.mc_runs), truths, reports, commands)

    dropped = {}
    for run in range(cfg.mc_runs):
        failed = {name: t.failed[run] for name, t in tracks.items() if t.failed[run] is not None}
        if failed:
            dropped[run] = failed
    kept = np.array([run not in dropped for run in range(cfg.mc_runs)])
    if not kept.any():
        reasons = "; ".join(f"{name}: {msg}" for name, msg in dropped[0].items())
        raise RadioPoseError(f"all Monte Carlo runs failed (run 0: {reasons})")

    filters = {
        name: _metrics_from_errors(
            _norm(t.estimates[kept].position - truth.position), _norm(t.errors[kept, :, 3:])
        )
        for name, t in tracks.items()
    }
    meas = measured[kept]
    time_s = np.cumsum([cmd.dt for cmd in commands])
    return MetricSeries(
        time_s=time_s,
        filters=filters,
        measurement=_metrics_from_errors(
            _norm(meas.position - truth.position), _norm(_so3_log(meas.rotation @ truth.rotation.mT))
        ),
        n_runs=cfg.mc_runs,
        dropped_runs=dropped,
        fusion_nonconverged=sum(t.nonconverged for t in tracks.values()),
    )


def bounds_sweep(cfg: ScenarioConfig, powers_dbm) -> list:
    """PEB/RMEB at the start pose for each transmit power, identical beams.

    One pass of the bound pipeline at unit FIM weight, and each power a row
    that scales its result (``pose_error_bounds``). Unobservable rows carry
    NaN bounds and observable=False; the sweep continues past them. A NaN or
    infinite power raises ValueError.
    """
    powers = [float(p) for p in powers_dbm]
    if not powers:
        raise ValueError("powers_dbm must be nonempty")
    finite = np.isfinite(powers)
    if not finite.all():
        raise ValueError(f"tx_power_dbm must be finite, got {powers[int(np.argmin(finite))]}")
    beams = draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
    report = pose_error_bounds(cfg.ue_start, cfg.anchors, cfg.ue_array, cfg.signal, beams, powers)
    return [
        {"power_dbm": power, "peb_m": float(peb), "rmeb_rad": float(rmeb), "observable": bool(ok)}
        for power, peb, rmeb, ok in zip(powers, report.peb_m, report.rmeb_rad, report.observable)
    ]


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
    an array is not a half-wavelength planar grid, which the file cannot hold.
    The settings and the signal block take the keys and value types of ``_DEFAULT_SCENARIO``."""
    template = _DEFAULT_SCENARIO
    return {
        **{k: type(v)(getattr(cfg, k)) for k, v in template.items() if not isinstance(v, (dict, list))},
        "signal": {k: type(v)(getattr(cfg.signal, k)) for k, v in template["signal"].items()},
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
            {"v_mps": s.v.tolist(), "w_radps": s.w.tolist(), "steps": int(s.steps), "dt_s": float(s.dt)}
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


def _read_scenario(path) -> dict:
    """The mapping of a YAML scenario file, unchecked; ConfigError when the
    file cannot be read or does not hold a mapping."""
    try:
        with open(path) as handle:
            raw = yaml.load(handle, Loader=_YAML_LOADER)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file: {exc}") from exc
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"invalid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("scenario file must contain a mapping")
    return raw


def load_scenario(path) -> ScenarioConfig:
    """Parse a YAML scenario file; raises ConfigError on any schema problem."""
    return scenario_from_dict(_read_scenario(path))


def _known_keys(raw, template: dict, where: str) -> dict:
    """``raw`` as a dict; ConfigError naming each key that ``template``, the
    ``_DEFAULT_SCENARIO`` entry at this level, does not have."""
    raw = dict(raw)
    unknown = sorted(str(k) for k in raw.keys() - template.keys())
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    return raw


def _typed(key: str, kind: type, value):
    """``value`` as ``kind``, the type ``_DEFAULT_SCENARIO`` holds at ``key``; ConfigError for a boolean or a value
    ``float()`` cannot read (YAML 1.1 loads ``3.0e10`` as a string, which it can) where a number is due, an
    integer that a cast would truncate, or a non-finite float."""
    if kind in (int, float) and isinstance(value, bool):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    if kind is int and not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    try:
        typed = kind(value)
    except OverflowError:  # an integer beyond the float range
        typed = math.inf
    except (TypeError, ValueError):  # None, a list or a string float() cannot read
        raise ConfigError(f"{key} must be a number, got {value!r}") from None
    if kind is float and not math.isfinite(typed):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return typed


def _vector(entry: dict, key: str) -> np.ndarray:
    """``entry[key]`` as a 3-vector, each value ``_typed`` as a float;
    ConfigError naming ``key`` for any other length."""
    value = entry[key]
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{key} must be a list of 3 numbers, got {value!r}")
    return np.array([_typed(key, float, v) for v in value])


def _grid_array(entry: dict, carrier_hz: float) -> ArrayGeometry:
    """The half-wavelength grid of ``entry["array_shape"]``; ConfigError naming
    ``array_shape`` unless it is exactly two positive integers."""
    value = entry["array_shape"]
    shape = [_typed("array_shape", int, v) for v in value] if isinstance(value, (list, tuple)) else []
    if len(shape) != 2 or min(shape) < 1:
        raise ConfigError(f"array_shape must be a list of 2 positive integers, got {value!r}")
    return ArrayGeometry.half_wavelength_upa(*shape, carrier_hz)


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    """Scenario from the form ``scenario_to_dict`` writes; raises ConfigError
    on a missing, unknown or invalid key.

    The keys and value types of ``_DEFAULT_SCENARIO`` are the schema
    (``_typed``). An absent setting or ``signal.rng_seed`` takes the literal's
    value; an absent ``bandwidth_hz`` or ``clock_bias_s``, SignalConfig's.
    """
    template = _DEFAULT_SCENARIO
    try:
        raw = _known_keys(raw, template, "scenario")
        sig_raw = _known_keys(raw["signal"], template["signal"], "signal")
        sig_raw = {"rng_seed": template["signal"]["rng_seed"], **sig_raw}
        anchors_raw = [_known_keys(a, template["anchors"][0], "anchor") for a in raw["anchors"]]
        ue_raw = _known_keys(raw["ue"], template["ue"], "ue")
        segments_raw = [_known_keys(s, template["segments"][0], "segment") for s in raw["segments"]]

        signal = SignalConfig(**{k: _typed(k, type(template["signal"][k]), v) for k, v in sig_raw.items()})
        anchors = tuple(
            AnchorConfig(
                position=_vector(a, "position_m"),
                orientation=rotation_from_euler(np.deg2rad(_vector(a, "orientation_deg_zyx"))),
                array=_grid_array(a, signal.carrier_hz),
            )
            for a in anchors_raw
        )
        ue_array = _grid_array(ue_raw, signal.carrier_hz)
        ue_start = Pose.from_rotation_position(
            rotation_from_euler(np.deg2rad(_vector(ue_raw, "start_orientation_deg_zyx"))),
            _vector(ue_raw, "start_position_m"),
        )
        segments = [
            TrajectorySegment(
                v=_vector(s, "v_mps"),
                w=_vector(s, "w_radps"),
                steps=_typed("steps", int, s["steps"]),
                dt=_typed("dt_s", float, s["dt_s"]),
            )
            for s in segments_raw
        ]
        return ScenarioConfig(
            anchors=anchors,
            ue_array=ue_array,
            signal=signal,
            ue_start=ue_start,
            segments=tuple(segments),
            **{k: _typed(k, type(v), raw.get(k, v))
               for k, v in template.items() if not isinstance(v, (dict, list))},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad scenario configuration: {exc}") from exc
