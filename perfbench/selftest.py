"""Smoke self-test of the benchmark at tiny size.

Runs every workload shrunk to a few calls, untraced and traced, and checks
that each run is correct and emits exactly the metrics, with the units,
that BENCHMARK.json names. From the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys

import run


def tiny(name: str, seed: int, out_dir):
    """Each workload shrunk to a few milliseconds per call."""
    import workloads
    from radiopose import simkit

    if name == "mc_op5db":
        return workloads.McOp5db(seed, out_dir, runs_per_call=2, steps_per_segment=3, rmse_calls=2)
    if name == "bounds_sweep_traj":
        return workloads.BoundsSweep(name, seed, simkit.default_scenario, n_poses=3)
    def small_wideband():
        return workloads.wideband_config(num_subcarriers=32, num_transmissions=8, bs_side=4, ue_side=2)

    return workloads.BoundsSweep(name, seed, small_wideband, n_poses=3)


def main() -> int:
    run.import_library()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOAD_NAMES")
    for name in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            with contextlib.redirect_stdout(io.StringIO()) as captured:
                run.run_workload(name, 1, 0.2, bool(trace), 0.0, make=tiny)
            result = json.loads(captured.getvalue().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            tag = f"{name} --trace {trace}"
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                problems.append(f"{tag}: missing {missing}, unexpected {extra}, or units differ")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: not correct ({result['failed']}/{result['attempted']} failed)")
            bad = [k for k, v in result["metrics"].items() if not math.isfinite(v["value"])]
            if bad:
                problems.append(f"{tag}: non-finite {bad}")
            print(f"{tag}: {len(got)} metrics, {result['attempted']} attempted", file=sys.stderr)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
