"""End-to-end check of the 6x6 bound against a parametrization that shares
none of the pipeline's layers.

The noise-free signal is differentiated directly, by central differences, in
the bound's coordinates [delta p, theta] (global position offset, left
rotation increment R <- exp(hat(theta)) R) plus each anchor's free complex
gain (Re, Im). The Slepian-Bangs formula F = (2 / sigma^2) Re(J^H J) (Kay,
Fundamentals of Statistical Signal Processing, Vol. I, ch. 15), with the
gains removed by a Schur complement, must equal the inverse of the bound
that ``pose_error_bounds`` returns, and its inverse that bound.
"""

from dataclasses import replace

import numpy as np
import pytest

from radiopose import bounds, channel, lie
from radiopose.channel import AnchorConfig, ArrayGeometry
from radiopose.simkit import default_scenario, generate_trajectory
from radiopose.tracking import rotation_from_euler
from references import signal_of

STEP_POSITION_M = 1e-6
STEP_ROTATION_RAD = 1e-7
TOL = 1e-6

EXTRA_ANCHORS = (
    ([-10.0, 5.0, 2.0], (-60.0, 10.0, 0.0)),
    ([5.0, -12.0, 2.0], (120.0, 10.0, 0.0)),
)


def _anchor(position, orientation_deg, array):
    return AnchorConfig(np.array(position), rotation_from_euler(np.deg2rad(orientation_deg)), array)


def with_extra_anchors(cfg, count):
    """The default scenario with ``count`` more anchors of the same array."""
    array = cfg.anchors[0].array
    extra = tuple(_anchor(p, o, array) for p, o in EXTRA_ANCHORS[:count])
    return replace(cfg, anchors=cfg.anchors + extra)


def reduced_wideband():
    """Four 4x4 anchors, a 2x2 UE array, 32 subcarriers in 48 MHz, 8 beams: the
    wideband benchmark geometry at reduced size."""
    cfg = default_scenario()
    carrier = cfg.signal.carrier_hz
    bs_array = ArrayGeometry.half_wavelength_upa(4, 4, carrier)
    placements = (
        ([5.0, 0.0, 0.0], (0.0, 15.0, 0.0)),
        ([0.0, 5.0, 0.0], (-30.0, 15.0, 0.0)),
        *EXTRA_ANCHORS,
    )
    return replace(
        cfg,
        anchors=tuple(_anchor(p, o, bs_array) for p, o in placements),
        ue_array=ArrayGeometry.half_wavelength_upa(2, 2, carrier),
        signal=replace(cfg.signal, num_subcarriers=32, bandwidth_hz=48e6, num_transmissions=8),
    )


def mixed_arrays():
    """The default scenario's two anchors with 8x8 and 4x4 arrays and a third
    with a 2x3 array: three element counts, so the beam-factor pass zero-pads
    the two smaller anchors to 64 elements."""
    cfg = default_scenario()
    carrier = cfg.signal.carrier_hz
    arrays = [ArrayGeometry.half_wavelength_upa(nx, ny, carrier) for nx, ny in ((8, 8), (4, 4), (2, 3))]
    anchors = [AnchorConfig(a.position, a.orientation, arr) for a, arr in zip(cfg.anchors, arrays)]
    anchors.append(_anchor(*EXTRA_ANCHORS[0], arrays[2]))
    return replace(cfg, anchors=tuple(anchors))


def oracle_state_fim(ue, anchors, ue_array, sig, beams):
    """Slepian-Bangs FIM over [delta p, theta] with the gains Schur-complemented out."""
    gains = [channel.channel_params(ue, a, sig).gain for a in anchors]
    z0 = np.concatenate([np.zeros(6), np.column_stack([np.real(gains), np.imag(gains)]).ravel()])
    steps = np.concatenate(
        [np.full(3, STEP_POSITION_M), np.full(3, STEP_ROTATION_RAD), np.repeat(1e-6 * np.abs(gains), 2)]
    )
    jac = np.empty((signal_of(z0, ue, anchors, ue_array, sig, beams).size, z0.size), dtype=complex)
    for k, h in enumerate(steps):
        dz = np.zeros_like(z0)
        dz[k] = h
        jac[:, k] = (
            signal_of(z0 + dz, ue, anchors, ue_array, sig, beams)
            - signal_of(z0 - dz, ue, anchors, ue_array, sig, beams)
        ) / (2 * h)
    f = (2.0 / sig.noise_variance_w) * np.real(jac.conj().T @ jac)
    return f[:6, :6] - f[:6, 6:] @ np.linalg.solve(f[6:, 6:], f[6:, :6])


def pipeline_state_fim(ue, anchors, ue_array, sig, beams):
    """The state FIM of the bound that runs: the inverse of ``pose_error_bounds``."""
    return np.linalg.inv(bounds.pose_error_bounds(ue, anchors, ue_array, sig, beams).icrb)


def worst_relative(actual, expected):
    """Largest entry error, each entry on the scale sqrt(E_ii E_jj) of the
    symmetric positive definite ``expected``."""
    d = np.sqrt(np.diag(expected))
    return np.max(np.abs(actual - expected) / np.outer(d, d))


def _trajectory_pose(k):
    cfg = default_scenario()
    return cfg, generate_trajectory(cfg.ue_start, cfg.segments)[k]


def _with_pitch(pitch_deg):
    cfg = default_scenario()
    rot = rotation_from_euler(np.deg2rad([20.0, pitch_deg, 0.0]))
    return cfg, lie.Pose.from_rotation_position(rot, cfg.ue_start.position)


CASES = {
    "start": lambda: (default_scenario(), default_scenario().ue_start),
    "trajectory_19": lambda: _trajectory_pose(19),
    "trajectory_50": lambda: _trajectory_pose(50),
    "trajectory_87": lambda: _trajectory_pose(87),
    "trajectory_119": lambda: _trajectory_pose(119),
    "pitch_+89.99": lambda: _with_pitch(89.99),
    "pitch_-89.99": lambda: _with_pitch(-89.99),
    "three_anchors": lambda: (with_extra_anchors(default_scenario(), 1), default_scenario().ue_start),
    "four_anchors": lambda: (with_extra_anchors(default_scenario(), 2), default_scenario().ue_start),
    "wideband_reduced": lambda: (reduced_wideband(), default_scenario().ue_start),
    "mixed_arrays": lambda: (mixed_arrays(), default_scenario().ue_start),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bound_matches_direct_signal_differentiation(case):
    cfg, ue = CASES[case]()
    beams = channel.draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
    args = (ue, cfg.anchors, cfg.ue_array, cfg.signal, beams)
    expected = oracle_state_fim(*args)
    assert worst_relative(pipeline_state_fim(*args), expected) < TOL
    icrb = bounds.pose_error_bounds(*args).icrb
    assert worst_relative(icrb, np.linalg.inv(expected)) < TOL
