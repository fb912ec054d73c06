"""The three benchmark workloads and the checks on their outputs.

Each workload builds its inputs from the workload seed only, is driven as a
closed loop by one caller (the next call starts when the previous one has
returned), and uses only public functions of ``radiopose``. One *call* is a
top-level library call; one *operation* is the unit of work a user counts:
a completed Monte Carlo run on ``mc_op5db``, one pose x power bound
evaluation on the two bounds workloads.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import replace
from pathlib import Path

import numpy as np

from radiopose import cli, simkit
from radiopose.channel import AnchorConfig, ArrayGeometry
from radiopose.errors import RadioPoseError
from radiopose.tracking import rotation_from_euler

POWERS_DBM = tuple(-20.0 + 5.0 * k for k in range(9))
# criterion 3: bounds sit on the 10^(-P/20) line to this relative tolerance
SCALING_TOL = 1e-6
# criterion 6 operating point: mean per-sample SNR in dB
OPERATING_SNR_DB = 5.0
FILTERS = ("fusion", "eskf", "euler")


class McOp5db:
    """``radiopose mc`` in process at the 5 dB operating point, all three filters."""

    name = "mc_op5db"
    unit_op = "run"

    def __init__(self, seed: int, out_dir: Path, runs_per_call: int = 4,
                 steps_per_segment: int | None = None, rmse_calls: int = 6):
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.runs_per_call = runs_per_call
        self.steps_per_segment = steps_per_segment
        # calls whose runs feed the RMSE figures and the ordering check; a
        # fixed count, so both are exact for a given seed
        self.rmse_calls = rmse_calls
        self.min_calls = rmse_calls
        self._per_run = {name: [] for name in FILTERS + ("meas", "pos_fusion")}
        self._pooled: set = set()
        self._first_csvs: dict | None = None
        self._captured = None

    def setup(self) -> None:
        cfg = simkit.default_scenario()
        if self.steps_per_segment is not None:
            cfg = replace(cfg, segments=tuple(replace(s, steps=self.steps_per_segment) for s in cfg.segments))
        # float(): save_scenario cannot write the numpy scalar this returns
        power = float(simkit.power_for_target_snr(cfg, OPERATING_SNR_DB))
        cfg = replace(cfg, signal=replace(cfg.signal, tx_power_dbm=power))
        self.config_path = self.out_dir / "scenario.yaml"
        simkit.save_scenario(cfg, self.config_path)
        self._install_capture()

    def _install_capture(self) -> None:
        """Keep the MetricSeries that ``cli mc`` computes, for the RMSE figures."""
        original = simkit.run_monte_carlo

        def capture(cfg):
            self._captured = original(cfg)
            return self._captured

        capture.__wrapped__ = original
        cli.run_monte_carlo = capture

    def teardown(self) -> None:
        cli.run_monte_carlo = simkit.run_monte_carlo

    def _argv(self, call_seed: int, runs: int) -> list:
        return [
            "mc", "--config", str(self.config_path), "--runs", str(runs), "--seed", str(call_seed),
            "--out-prefix", str(self.out_dir / "mc"),
        ]

    def _call_seed(self, index: int) -> int:
        return self.seed * 1000 + index

    def warm_up(self) -> None:
        self._run_cli(self._argv(self._call_seed(999), 1))

    def _run_cli(self, argv):
        self._captured = None
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        return rc, self._captured

    def call(self, index: int):
        return self._run_cli(self._argv(self._call_seed(index), self.runs_per_call))

    def _csv_bytes(self) -> dict:
        return {p.name: p.read_bytes() for p in sorted(self.out_dir.glob("mc_*.csv"))}

    def account(self, index: int, out) -> tuple[int, int, int]:
        """(operations completed, attempted, failed) for one call; a dropped
        Monte Carlo run is a failed operation."""
        rc, series = out
        if rc != 0 or series is None:
            return 0, self.runs_per_call, self.runs_per_call
        if index == 0 and self._first_csvs is None:
            self._first_csvs = self._csv_bytes()
        if index < self.rmse_calls and index not in self._pooled:
            self._pooled.add(index)
            for name in FILTERS:
                self._per_run[name].extend(series.filters[name].per_run_rot_rmse_rad)
            self._per_run["meas"].extend(series.measurement.per_run_rot_rmse_rad)
            self._per_run["pos_fusion"].extend(series.filters["fusion"].per_run_pos_rmse_m)
        done = self.runs_per_call - series.n_failed_runs
        return done, self.runs_per_call, series.n_failed_runs

    def final_checks(self) -> dict:
        """Output checks made once per benchmark run, after timing."""
        rc, _ = self.call(0)
        deterministic = rc == 0 and self._first_csvs is not None and self._csv_bytes() == self._first_csvs
        return {"mc_csv_byte_identical": deterministic, "mc_rmse_ordering": self._ordering_holds()}

    def _ordering_holds(self) -> bool:
        """fusion <= eskf <= euler < meas in mean per-run rotation RMSE.

        Over a few dozen runs the fusion/ESKF gap is smaller than the
        sampling noise of the means, so a pair counts as out of order only
        when a paired bootstrap puts the reversal beyond 99% confidence.
        """
        rot = {name: np.asarray(self._per_run[name]) for name in FILTERS + ("meas",)}
        if any(v.size == 0 for v in rot.values()):
            return False
        pairs = [("eskf", "fusion"), ("euler", "eskf"), ("meas", "euler")]
        for worse, better in pairs:
            diff = simkit.bootstrap_mean_diff(rot[worse], rot[better], n_boot=2000, seed=self.seed % 2**32)
            if np.quantile(diff, 0.99) < 0.0:
                return False
        return True

    def summary(self) -> dict:
        out = {}
        for name in FILTERS:
            out[f"rot_rmse_{name}_rad"] = (float(np.mean(self._per_run[name])), "rad")
        out["pos_rmse_fusion_m"] = (float(np.mean(self._per_run["pos_fusion"])), "m")
        out["rmse_runs"] = (len(self._per_run["fusion"]), "count")
        return out


class BoundsSweep:
    """``simkit.bounds_sweep`` over seeded trajectory poses, 9 powers each."""

    unit_op = "evaluation"
    min_calls = 1

    def __init__(self, name: str, seed: int, make_config, n_poses: int | None = None):
        self.name = name
        self.seed = seed
        self.make_config = make_config
        self.n_poses = n_poses

    def setup(self) -> None:
        self.cfg = self.make_config()
        truths = simkit.generate_trajectory(self.cfg.ue_start, self.cfg.segments)
        order = np.random.default_rng(self.seed % 2**32).permutation(len(truths))
        if self.n_poses is not None:
            order = order[: self.n_poses]
        self.poses = [truths[k] for k in order]

    def teardown(self) -> None:
        pass

    def warm_up(self) -> None:
        simkit.bounds_sweep(replace(self.cfg, ue_start=self.poses[0]), POWERS_DBM)

    def call(self, index: int):
        pose = self.poses[index % len(self.poses)]
        try:
            return simkit.bounds_sweep(replace(self.cfg, ue_start=pose), POWERS_DBM)
        except RadioPoseError:
            return None

    def account(self, index: int, rows) -> tuple[int, int, int]:
        """(evaluations completed, attempted, failed) for one sweep.

        Raising calls and unobservable or non-finite rows are failed
        evaluations; the scaling-line check of the sweep is one more
        attempted operation, failed when the sweep leaves the line.
        """
        n = len(POWERS_DBM)
        if rows is None:
            return 0, n + 1, n + 1
        good = sum(
            1 for r in rows if r["observable"] and np.isfinite(r["peb_m"]) and np.isfinite(r["rmeb_rad"])
        )
        on_line = good == n and _on_scaling_line(rows)
        return good, n + 1, n - good + (0 if on_line else 1)

    def final_checks(self) -> dict:
        return {}

    def summary(self) -> dict:
        return {}


def _on_scaling_line(rows) -> bool:
    """PEB * 10^(P/20) and RMEB * 10^(P/20) constant across the sweep."""
    for key in ("peb_m", "rmeb_rad"):
        scaled = np.array([r[key] * 10.0 ** (r["power_dbm"] / 20.0) for r in rows])
        if np.max(np.abs(scaled - scaled[-1])) > SCALING_TOL * scaled[-1]:
            return False
    return True


def wideband_config(num_subcarriers: int = 400, num_transmissions: int = 64, bs_side: int = 16,
                    ue_side: int = 8):
    """Four 16x16 anchors, an 8x8 UE array, 400 subcarriers in 48 MHz, 64 beams."""
    cfg = simkit.default_scenario()
    carrier = cfg.signal.carrier_hz
    bs_array = ArrayGeometry.half_wavelength_upa(bs_side, bs_side, carrier)
    positions = ([5.0, 0.0, 0.0], [0.0, 5.0, 0.0], [-10.0, 5.0, 2.0], [5.0, -12.0, 2.0])
    orientations_deg = ((0.0, 15.0, 0.0), (-30.0, 15.0, 0.0), (-60.0, 10.0, 0.0), (120.0, 10.0, 0.0))
    anchors = tuple(
        AnchorConfig(np.array(p), rotation_from_euler(np.deg2rad(o)), bs_array)
        for p, o in zip(positions, orientations_deg)
    )
    signal = replace(
        cfg.signal,
        num_subcarriers=num_subcarriers,
        bandwidth_hz=48e6,
        num_transmissions=num_transmissions,
    )
    return replace(
        cfg,
        anchors=anchors,
        ue_array=ArrayGeometry.half_wavelength_upa(ue_side, ue_side, carrier),
        signal=signal,
    )


def make(name: str, seed: int, out_dir: Path):
    """Workload ``name`` at its benchmark size."""
    if name == "mc_op5db":
        return McOp5db(seed, out_dir)
    if name == "bounds_sweep_traj":
        return BoundsSweep(name, seed, simkit.default_scenario)
    if name == "bounds_wideband":
        return BoundsSweep(name, seed, wideband_config, n_poses=30)
    raise ValueError(f"unknown workload {name!r}")

