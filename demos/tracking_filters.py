#!/usr/bin/env python3
"""One tracking pass over the default trajectory: bound-calibrated pose
measurements fed to the Gauss-Newton fusion filter, the error-state Kalman
filter, and the Euler-angle EKF baseline.

Run: python demos/tracking_filters.py
"""
import os
from dataclasses import replace

import numpy as np

from radiopose import channel, lie, simkit

out_dir = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(out_dir, exist_ok=True)

# drop to the low-SNR operating point where filtering actually matters
cfg = simkit.default_scenario()
power = simkit.power_for_target_snr(cfg, 5.0)
cfg = replace(cfg, signal=replace(cfg.signal, tx_power_dbm=power))
print(f"tracking at {power:.1f} dBm (5 dB mean per-sample SNR)")

beams = channel.draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
truths, reports = simkit.scenario_reports(cfg, beams)
commands = simkit.segment_commands(cfg.segments, cfg.process_noise)
result = simkit.run_single(cfg, run_index=0, truths=truths, reports=reports, commands=commands)

print(f"{'step':>5} {'meas rot err':>13} {'fusion':>9} {'eskf':>9} {'euler':>9}")
for k in range(0, len(truths), 12):
    meas_err = np.linalg.norm(
        lie.so3_log(result.measurements[k].pose.rotation @ truths[k].rotation.T)
    )
    row = [np.linalg.norm(result.tangent_errors[n][k, 3:]) for n in ("fusion", "eskf", "euler")]
    print(f"{k:5d} {meas_err:13.4f} {row[0]:9.4f} {row[1]:9.4f} {row[2]:9.4f}")

for name in ("fusion", "eskf", "euler"):
    rot = np.linalg.norm(result.tangent_errors[name][:, 3:], axis=1)
    pos = [np.linalg.norm(e.position - t.position) for e, t in zip(result.estimates[name], truths)]
    print(
        f"{name:7s}: rotation rmse {np.sqrt(np.mean(rot**2)):.4f} rad,"
        f" position rmse {np.sqrt(np.mean(np.square(pos))):.4f} m"
    )

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 3.5))
    xs = np.arange(len(truths))
    track = np.array([t.position for t in truths])
    est = np.array([p.position for p in result.estimates["fusion"]])
    ax1.plot(track[:, 0], track[:, 1], "k-", label="truth")
    ax1.plot(est[:, 0], est[:, 1], "r.", ms=3, label="fusion estimate")
    ax1.set_xlabel("x [m]")
    ax1.set_ylabel("y [m]")
    ax1.axis("equal")
    ax1.legend()
    for name in ("fusion", "eskf", "euler"):
        ax2.semilogy(xs, np.linalg.norm(result.tangent_errors[name][:, 3:], axis=1), label=name)
    ax2.set_xlabel("step")
    ax2.set_ylabel("rotation error [rad]")
    ax2.grid(True, which="both", alpha=0.4)
    ax2.legend()
    fig.tight_layout()
    fig.savefig(os.path.join(out_dir, "tracking.png"), dpi=120)
    print(f"wrote {out_dir}/tracking.png")
except ImportError:
    print("matplotlib not available; skipped the plot")
