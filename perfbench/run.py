"""radiopose benchmark: Monte Carlo tracking, trajectory bound sweeps and
wideband bounds, timed end to end (untraced) and per layer (traced).

Usage, from the repository root:

    python3 perfbench/run.py --workload mc_op5db --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

The library is imported from ``src/`` next to this directory. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
workload summary and the provenance of the result. See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS / OpenMP thread: set before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("mc_op5db", "bounds_sweep_traj", "bounds_wideband")


def import_library() -> None:
    """Import radiopose from the checkout's ``src/``, and from nowhere else."""
    if not (SRC / "radiopose" / "__init__.py").is_file():
        raise SystemExit(f"error: no radiopose package under {SRC}")
    sys.path.insert(0, str(SRC))
    import radiopose

    if Path(radiopose.__file__).resolve().parent != SRC / "radiopose":
        raise SystemExit(f"error: radiopose imported from {radiopose.__file__}, not from {SRC}")


def import_seconds() -> float:
    """Median time to import radiopose in a fresh interpreter, over SETUP_REPEATS."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import radiopose; print(time.perf_counter() - t)"
    )
    times = [
        float(subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True, text=True,
                             check=True, timeout=120).stdout)
        for _ in range(SETUP_REPEATS)
    ]
    return statistics.median(times)


class Phase:
    """Closed-loop timing of consecutive calls of one workload."""

    def __init__(self):
        self.call_s: list[float] = []
        self.done = self.attempted = self.failed = 0

    @property
    def busy_s(self) -> float:
        return sum(self.call_s)


def run_phases(wl, seconds: float, min_calls: int, tracer=None) -> tuple[Phase, Phase]:
    """Call the workload back to back, with call indices 0, 1, ..., until
    ``seconds`` have passed and at least ``min_calls`` calls are done.

    With a tracer, each call is made twice in a row: untraced, then traced
    with the span wrappers installed, so both phases do the same work at
    nearly the same time. Only the calls themselves are timed; output checks
    run between them.
    """
    untraced, traced = Phase(), Phase()
    index = 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or index < min_calls:
        _timed_call(wl, index, untraced)
        if tracer is not None:
            tracer.op_id = index
            tracer.install()
            try:
                _timed_call(wl, index, traced)
            finally:
                tracer.uninstall()
        index += 1
    return untraced, traced


def _timed_call(wl, index: int, phase: Phase) -> None:
    t0 = perf_counter()
    out = wl.call(index)
    phase.call_s.append(perf_counter() - t0)
    done, attempted, failed = wl.account(index, out)
    phase.done += done
    phase.attempted += attempted
    phase.failed += failed


def set_up(name: str, seed: int, import_s: float, make):
    """Build the inputs and make one untimed warm-up call, SETUP_REPEATS
    times from scratch; setup time is the median import plus the median
    repeat."""
    (OUT / name).mkdir(parents=True, exist_ok=True)
    repeats = []
    wl = None
    for _ in range(SETUP_REPEATS):
        if wl is not None:
            wl.teardown()
        t0 = perf_counter()
        wl = make(name, seed, OUT / name)
        wl.setup()
        wl.warm_up()
        repeats.append(perf_counter() - t0)
    return wl, import_s + statistics.median(repeats)


def quantile_ms(call_s: list, q: float) -> float:
    if len(call_s) == 1:
        return call_s[0] * 1e3
    return statistics.quantiles(call_s, n=100, method="inclusive")[round(q * 100) - 1] * 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(phase: Phase, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (phase.done / phase.busy_s, "1/s"),
        "call_ms_p50": (quantile_ms(phase.call_s, 0.5), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer_metrics(wl, tracer, traced: Phase, untraced: Phase) -> dict:
    """Per-layer counts and self times from the traced phase, per operation."""
    ops = max(traced.done, 1)
    totals = tracer.layer_totals()
    out = {}
    for name, t in totals.items():
        out[f"{name}.calls"] = (t["calls"] / ops, "calls/op")
        out[f"{name}.self_s"] = (t["self_s"] / ops, "s/op")
    c = tracer.counters
    fusion_calls = totals["tracking.fusion_update"]["calls"]
    gn_iters = tracer.count_inside("lie.se3_exp", "tracking.fusion_update")
    out["tracking.fusion_update.gn_iters_per_update"] = (
        gn_iters / fusion_calls if fusion_calls else 0.0, "ratio")
    out["tracking.fusion_update.nonconverged_frac"] = (
        c.get("fusion_nonconverged", 0) / fusion_calls if fusion_calls else 0.0, "ratio")
    steps = c.get("filter_steps", 0)
    out["bounds.measurement_covariance.calls_per_filter_step"] = (
        totals["bounds.measurement_covariance"]["calls"] / steps if steps else 0.0, "ratio")
    out["bounds.pose_error_bounds.total_s"] = (totals["bounds.pose_error_bounds"]["total_s"] / ops, "s/op")
    out["channel.fim_unconstrained.bytes_computed"] = (c.get("fim_bytes", 0) / ops, "B/op")
    out["channel.fim_unconstrained.flops_computed"] = (c.get("fim_flops", 0) / ops, "flop/op")
    sweeps = totals["simkit.bounds_sweep"]["calls"]
    fim_in_sweeps = tracer.count_inside("channel.fim_unconstrained", "simkit.bounds_sweep")
    out["channel.fim_unconstrained.calls_per_sweep"] = (fim_in_sweeps / sweeps if sweeps else 0.0, "ratio")
    out["simkit.emit_csv.bytes"] = (c.get("emit_csv_bytes", 0) / ops, "B/op")
    summary = wl.summary()
    for key in ("rot_rmse_fusion_rad", "rot_rmse_eskf_rad", "rot_rmse_euler_rad", "pos_rmse_fusion_m"):
        value, unit = summary.get(key, (0.0, "m" if key.endswith("_m") else "rad"))
        out[f"simkit.run_monte_carlo.{key}"] = (value, unit)
    out["trace.overhead_frac"] = (traced.busy_s / untraced.busy_s - 1.0, "ratio")
    return out


def provenance(seed: int) -> dict:
    import numpy

    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True).stdout.split()
        sha = top[1] if Path(top[0]).resolve() == ROOT else "unknown"
    except (OSError, subprocess.SubprocessError, IndexError):
        sha = "unknown"
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload_seed": seed,
        "src_lines": src_lines,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, import_s: float, make=None) -> dict:
    """Set up, time and check one workload; print its summary and result lines.

    ``make(name, seed, out_dir)`` builds the workload; the default gives
    its benchmark size.
    """
    import spans
    import workloads

    wl, setup_s = set_up(name, seed, import_s, make or workloads.make)
    try:
        tracer = spans.Tracer() if trace else None
        untraced, traced = run_phases(wl, seconds, wl.min_calls, tracer)
        checks = wl.final_checks()
    finally:
        wl.teardown()

    attempted = untraced.attempted + traced.attempted + len(checks)
    failed = untraced.failed + traced.failed + sum(1 for ok in checks.values() if not ok)
    if trace:
        metrics = per_layer_metrics(wl, tracer, traced, untraced)
        tracer.write(OUT / name / "spans.csv.gz")
    else:
        metrics = end_to_end_metrics(untraced, setup_s)

    summary = {
        "workload": name,
        "trace": int(trace),
        "operation": wl.unit_op,
        "calls": len(untraced.call_s),
        "failed_frac": failed / attempted,
        "checks": checks,
        "workload_metrics": _workload_metrics(wl, untraced),
        "provenance": provenance(seed),
    }
    print(json.dumps(summary))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return result


def _workload_metrics(wl, phase: Phase) -> dict:
    """The untraced figures under their workload-specific names."""
    rate = phase.done / phase.busy_s
    n = len(phase.call_s)
    if wl.unit_op == "run":
        out = {"mc_runs_per_s": (rate, "1/s"), "mc_call_ms_p50": (quantile_ms(phase.call_s, 0.5), "ms")}
    else:
        out = {
            "bounds_evals_per_s": (rate, "1/s"),
            "bounds_call_ms_p50": (quantile_ms(phase.call_s, 0.5), "ms"),
            "bounds_call_ms_p90": (quantile_ms(phase.call_s, 0.9), "ms"),
        }
    out["call_samples"] = (n, "count")
    out.update(wl.summary())
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import_s = import_seconds()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        run_workload(name, args.seed, args.seconds, bool(args.trace), import_s)
    return 0


if __name__ == "__main__":
    sys.exit(main())
