"""Statistical consistency at the 5 dB operating point: sampled measurement
errors carry the bound as covariance in the bound's own coordinates, and the
filters' reported covariances cover their actual errors (NEES)."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2

from radiopose import channel, lie, simkit, tracking

NEES_RUNS = 20


@pytest.fixture(scope="module")
def op5db():
    cfg = simkit.default_scenario()
    cfg = replace(cfg, signal=replace(cfg.signal, tx_power_dbm=simkit.power_for_target_snr(cfg, 5.0)))
    beams = channel.draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
    truths, reports = simkit.scenario_reports(cfg, beams)
    return cfg, truths, reports, simkit.segment_commands(cfg.segments, cfg.process_noise)


@pytest.mark.parametrize("step", [0, 30, 60])
def test_sampled_error_has_bound_covariance(op5db, step):
    # criterion-2 coordinates: global position offset and left rotation
    # increment log(R_m R^T); |log R| is 0.53, 1.32 and 2.80 rad at these steps
    _, truths, reports, _ = op5db
    truth, icrb = truths[step], reports[step].icrb
    rng = simkit.run_rng(5, step)
    n = 20_000
    err = np.empty((n, 6))
    for i in range(n):
        meas = simkit.sample_measurement(truth, reports[step], rng, 1.0).pose
        err[i, :3] = meas.position - truth.position
        err[i, 3:] = lie._so3_log(meas.rotation @ truth.rotation.T)
    emp = err.T @ err / n
    pp, rr = np.linalg.norm(icrb[:3, :3]), np.linalg.norm(icrb[3:, 3:])
    assert np.linalg.norm(emp[:3, :3] - icrb[:3, :3]) < 0.05 * pp
    assert np.linalg.norm(emp[3:, 3:] - icrb[3:, 3:]) < 0.05 * rr
    assert np.linalg.norm(emp[:3, 3:] - icrb[:3, 3:]) < 0.05 * np.sqrt(pp * rr)


@pytest.mark.parametrize("update", [tracking.fusion_update, tracking.eskf_update], ids=["fusion", "eskf"])
def test_time_averaged_nees_below_chi2_bound(op5db, update):
    # One-sided (Bar-Shalom, Li & Kirubarajan 2001, 5.4): the truth has no
    # process noise while the filters add Q, so the expected NEES is below 6.
    cfg, truths, reports, commands = op5db
    total = 0.0
    for run in range(NEES_RUNS):
        rng = simkit.run_rng(cfg.seed, run)
        meas = [simkit.sample_measurement(t, r, rng, 1.0) for t, r in zip(truths, reports)]
        state = tracking.FilterState(meas[0].pose, meas[0].cov_tangent)
        for k, truth in enumerate(truths):
            if k > 0:
                state = update(tracking.predict(state, commands[k]), meas[k])
            err = lie.se3_log(truth @ state.pose.inverse())
            total += err @ np.linalg.solve(state.cov, err)
    n_terms = NEES_RUNS * len(truths)
    assert total < chi2.ppf(0.975, 6 * n_terms), f"mean NEES {total / n_terms:.2f}"
