"""Command-line front end: bounds sweeps, single tracking runs, Monte Carlo.

Exit codes: 0 success, 2 configuration error, 3 the computation failed:
unobservable geometry (including a UE on an anchor) or any other radiopose
error, for example every Monte Carlo run failing, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

import numpy as np

from .errors import CoincidentPositions, ConfigError, RadioPoseError, UnobservableState
from .simkit import (
    _DEFAULT_SCENARIO,
    _read_scenario,
    bounds_sweep,
    bounds_table,
    cdf_table,
    emit_csv,
    metric_table,
    run_monte_carlo,
    scenario_from_dict,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNOBSERVABLE = 3
EXIT_IO = 4
MAX_POWERS = 10_000


def parse_powers(text: str):
    """Parse 'start:step:stop' (inclusive) or a comma-separated dBm list of
    at most MAX_POWERS finite values."""
    try:
        ranged = ":" in text
        values = [float(v) for v in text.split(":" if ranged else ",") if ranged or v.strip()]
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if ranged:
            start, step, stop = values
            if step <= 0:
                raise ValueError("step must be positive")
            count = np.floor((stop - start) / step + 1e-9) + 1  # a float: may be huge or inf
        else:
            count = len(values)
        if count < 1:
            raise ValueError("empty power range" if ranged else "no power values")
        if count > MAX_POWERS:
            raise ValueError(f"more than {MAX_POWERS} powers")
        return [start + k * step for k in range(int(count))] if ranged else values
    except ValueError as exc:
        raise ConfigError(f"bad --powers specification {text!r}: {exc}") from exc


def _load_config(args, **overrides) -> "ScenarioConfig":
    """The scenario of ``--config``, or the default one, with the set
    command-line values (``--seed`` and ``overrides``) written into its file
    form before it is built and checked, once (``scenario_from_dict``)."""
    raw = _read_scenario(args.config) if args.config else dict(_DEFAULT_SCENARIO)
    overrides["seed"] = getattr(args, "seed", None)
    raw.update({key: value for key, value in overrides.items() if value is not None})
    return scenario_from_dict(raw)


def _cmd_bounds(args) -> int:
    cfg = _load_config(args)
    rows = bounds_sweep(cfg, parse_powers(args.powers))
    emit_csv(bounds_table(rows), args.out)
    flagged = sum(1 for r in rows if not r["observable"])
    print(f"wrote {len(rows)} rows to {args.out}" + (f" ({flagged} unobservable)" if flagged else ""))
    if flagged == len(rows):
        return EXIT_UNOBSERVABLE
    return EXIT_OK


def _study(cfg, rmse_path: str):
    """Run the study of ``cfg`` and write its RMSE CSV and one CDF CSV per
    filter; report to stderr what the CSVs leave out: the dropped runs, by
    reason, and the fusion updates that hit the Gauss-Newton iteration limit."""
    series = run_monte_carlo(cfg)
    emit_csv(metric_table(series), rmse_path)
    stem = rmse_path[:-4] if rmse_path.endswith(".csv") else rmse_path
    for name, metrics in series.filters.items():
        emit_csv(cdf_table(metrics), f"{stem}_cdf_{name}.csv")
    reasons = Counter(
        f"{name}: {reason}" for failed in series.dropped_runs.values() for name, reason in failed.items()
    )
    for reason, count in reasons.most_common():
        print(f"dropped {count} run(s), {reason}", file=sys.stderr)
    if series.fusion_nonconverged:
        print(f"fusion hit the Gauss-Newton iteration limit in {series.fusion_nonconverged} update(s)",
              file=sys.stderr)
    return series


def _cmd_track(args) -> int:
    cfg = _load_config(args, filter_selection=args.filter, mc_runs=1)
    series = _study(cfg, args.out)
    print(f"wrote per-step series for {', '.join(series.filters)} to {args.out}")
    return EXIT_OK


def _cmd_mc(args) -> int:
    cfg = _load_config(args, filter_selection=args.filter, mc_runs=args.runs)
    rmse_path = f"{args.out_prefix}_rmse.csv"
    series = _study(cfg, rmse_path)
    msg = f"wrote {series.n_runs - series.n_failed_runs}/{series.n_runs} runs to {rmse_path}"
    if series.n_failed_runs:
        msg += f" ({series.n_failed_runs} failed)"
    print(msg)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radiopose",
        description="6D localization error bounds and tracking over multi-anchor radio links",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="sweep PEB/RMEB over transmit powers")
    p_bounds.add_argument("--config", default=None, help="scenario YAML (default: built-in scenario)")
    p_bounds.add_argument("--powers", required=True, help="dBm values, 'start:step:stop' or comma list")
    p_bounds.add_argument("--out", required=True, help="output CSV path")
    p_bounds.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_track = sub.add_parser("track", help="run one tracking pass and emit per-step errors")
    p_track.add_argument("--config", default=None)
    p_track.add_argument("--filter", default=None, choices=["fusion", "eskf", "euler", "all"])
    p_track.add_argument("--out", required=True)
    p_track.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p_track.set_defaults(func=_cmd_track)

    p_mc = sub.add_parser("mc", help="Monte Carlo tracking study")
    p_mc.add_argument("--config", default=None)
    p_mc.add_argument("--filter", default=None, choices=["fusion", "eskf", "euler", "all"])
    p_mc.add_argument("--runs", type=int, default=None, help="override mc_runs")
    p_mc.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p_mc.add_argument("--out-prefix", required=True, help="prefix for the emitted CSV files")
    p_mc.set_defaults(func=_cmd_mc)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (UnobservableState, CoincidentPositions) as exc:
        print(f"unobservable geometry: {exc}", file=sys.stderr)
        return EXIT_UNOBSERVABLE
    except RadioPoseError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_UNOBSERVABLE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
