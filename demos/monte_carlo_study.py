#!/usr/bin/env python3
"""Monte Carlo comparison of the three filters at the low-SNR operating
point: per-step RMSE aggregates and the terminal rotation-error CDF.

Run: python demos/monte_carlo_study.py   (30 runs, a few seconds)
"""
import os
from dataclasses import replace

import numpy as np

from radiopose import simkit

out_dir = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(out_dir, exist_ok=True)

cfg = simkit.default_scenario()
power = simkit.power_for_target_snr(cfg, 5.0)
cfg = replace(cfg, signal=replace(cfg.signal, tx_power_dbm=power), mc_runs=30)
print(f"{cfg.mc_runs} independent runs at {power:.1f} dBm ...")
series = simkit.run_monte_carlo(cfg)

print(f"\n{'filter':>8} {'mean rot rmse':>14} {'mean pos rmse':>14}")
for name, metrics in series.filters.items():
    print(
        f"{name:>8} {np.mean(metrics.per_run_rot_rmse_rad):14.4f}"
        f" {np.mean(metrics.per_run_pos_rmse_m):14.4f}"
    )
print(
    f"{'meas':>8} {np.mean(series.measurement.per_run_rot_rmse_rad):14.4f}"
    f" {np.mean(series.measurement.per_run_pos_rmse_m):14.4f}"
)

simkit.emit_csv(simkit.metric_table(series), os.path.join(out_dir, "mc_rmse.csv"))
for name, metrics in series.filters.items():
    simkit.emit_csv(simkit.cdf_table(metrics), os.path.join(out_dir, f"mc_cdf_{name}.csv"))
print(f"\nwrote {out_dir}/mc_rmse.csv and per-filter CDF files")

# paired bootstrap quantifies how solid the ordering is across runs
diff = simkit.bootstrap_mean_diff(
    series.filters["eskf"].per_run_rot_rmse_rad,
    series.filters["fusion"].per_run_rot_rmse_rad,
    n_boot=2000,
    seed=0,
)
lo, hi = np.quantile(diff, [0.05, 0.95])
print(f"eskf - fusion mean rotation RMSE: 90% bootstrap interval [{lo:.2e}, {hi:.2e}]")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 3.5))
    for name, metrics in series.filters.items():
        ax1.semilogy(series.time_s, metrics.rot_rmse_rad, label=name)
        err, cdf = metrics.terminal_rotation_cdf()
        ax2.plot(err, cdf, label=name)
    ax1.semilogy(series.time_s, series.measurement.rot_rmse_rad, "k--", label="measurement")
    ax1.set_xlabel("time [s]")
    ax1.set_ylabel("rotation RMSE [rad]")
    ax1.grid(True, which="both", alpha=0.4)
    ax1.legend()
    ax2.set_xlabel("terminal rotation error [rad]")
    ax2.set_ylabel("CDF")
    ax2.grid(True, alpha=0.4)
    ax2.legend()
    fig.tight_layout()
    fig.savefig(os.path.join(out_dir, "monte_carlo.png"), dpi=120)
    print(f"wrote {out_dir}/monte_carlo.png")
except ImportError:
    print("matplotlib not available; skipped the plot")
