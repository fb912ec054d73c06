"""Property tests (hypothesis, derandomized): Lie-core identities over angles
that include 0, 1e-8 rad and 2^-26 rad, below which the SO(3) log's ratio
angle / sin(angle) is exactly 1, the 0.2 rad switch of the coefficients that
the SO(3)/SE(3) exp, log and Jacobians share, 1e-2 rad,
inside the Taylor range where the closed forms would cancel, and the
neighbourhood of pi, and the scenario save -> load round trip."""

from dataclasses import replace

import numpy as np
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from radiopose import channel, lie, simkit, tracking

from references import small_adjoint
from test_lie import expm_series, jacobian_series

LIE = settings(derandomize=True, database=None, max_examples=100, deadline=None)
SCENARIO = settings(derandomize=True, database=None, max_examples=30, deadline=None)

_SWITCH = lie._TAYLOR_ANGLE
_EDGE_ANGLES = [0.0, 1e-12, 1e-9, 1e-8 - 1e-20, 1e-8, 1e-8 + 1e-20, 2.0**-26, 1e-6, 1e-3,
                1e-2 - 1e-14, 1e-2, 1e-2 + 1e-14,
                _SWITCH - 1e-12, _SWITCH, _SWITCH + 1e-12, np.pi - 1e-3, np.pi - 1e-5]

finite = st.floats(-1.0, 1.0)
directions = st.tuples(finite, finite, finite).map(np.array).filter(lambda v: np.linalg.norm(v) > 1e-3)


def angles(max_angle):
    return st.one_of(
        st.sampled_from([a for a in _EDGE_ANGLES if a <= max_angle]),
        st.floats(0.0, max_angle),
        st.floats(_SWITCH * 0.9, _SWITCH * 1.1),
    )


def rotvecs(max_angle=np.pi):
    return st.builds(lambda d, a: d / np.linalg.norm(d) * a, directions, angles(max_angle))


def tangents(max_angle=np.pi, max_trans=10.0):
    trans = st.tuples(*[st.floats(-max_trans, max_trans)] * 3).map(np.array)
    return st.builds(lambda rho, r: np.concatenate([rho, r]), trans, rotvecs(max_angle))


def rel_err(a, b):
    return np.abs(a - b).max() / max(1.0, np.abs(b).max())


@LIE
@given(rotvecs())
def test_so3_exp_of_log_is_identity(r):
    rot = lie.so3_exp(r)
    log = lie.so3_log(rot)
    angle = np.linalg.norm(log)
    assert angle <= np.pi + 1e-12
    assert np.abs(lie.so3_exp(log) - rot).max() < 1e-12


@LIE
@given(tangents(max_angle=np.pi - 1e-5))
def test_se3_log_of_exp_is_identity(xi):
    assert rel_err(lie.se3_log(lie.se3_exp(xi)), xi) < 1e-9


@LIE
@given(tangents(), tangents())
def test_adjoint_conjugates_the_algebra(xi_pose, xi):
    pose = lie.se3_exp(xi_pose)
    rhs = lie.se3_vee(pose.matrix() @ lie.se3_hat(xi) @ pose.inverse().matrix())
    assert rel_err(lie.adjoint(pose) @ xi, rhs) < 1e-12


@LIE
@given(tangents())
def test_se3_left_jacobian_matches_series(xi):
    ref = jacobian_series(small_adjoint(xi), 60)
    assert rel_err(lie.se3_left_jacobian(xi), ref) <= 1e-14


@LIE
@given(tangents())
def test_left_jacobian_is_adjoint_times_jacobian_at_negated(xi):
    # J_l(xi) = Ad(exp xi) J_l(-xi), i.e. J_l = Ad(exp xi) J_r
    rhs = lie.adjoint(lie.se3_exp(xi)) @ lie.se3_left_jacobian(-xi)
    assert rel_err(lie.se3_left_jacobian(xi), rhs) < 1e-12


@LIE
@given(rotvecs())
def test_so3_left_jacobian_matches_series(r):
    # so3_exp shares the Jacobian's coefficients, so both are checked here
    ref = jacobian_series(lie.hat3(r), 60)
    assert rel_err(lie.so3_left_jacobian(r), ref) <= 1e-14
    assert rel_err(lie.so3_exp(r), expm_series(lie.hat3(r), 60)) <= 1e-14


CHAIN = settings(derandomize=True, database=None, max_examples=10, deadline=None)


@CHAIN
@given(st.integers(0, 2**32 - 1), angles(np.pi), st.floats(0.0, 10.0))
def test_long_composition_chain_stays_a_rotation(seed, max_angle, max_trans):
    # Poses from @, inverse and se3_exp are not re-checked; the rotation of a
    # long chain of them must still pass the constructor's check.
    rng = np.random.default_rng(seed)
    pose = lie.Pose.identity()
    for _ in range(1000):
        r = rng.standard_normal(3)
        r *= rng.uniform(0.0, max_angle) / np.linalg.norm(r)
        pose = lie.se3_exp(np.concatenate([rng.uniform(-max_trans, max_trans, 3), r])) @ pose
        if rng.random() < 0.5:
            pose = pose.inverse()
        lie.require_rotation(pose.rotation)


# ---------------------------------------------------------------------------
# Scenario save -> load
# ---------------------------------------------------------------------------

coords = st.floats(-100.0, 100.0)
positions = st.tuples(coords, coords, coords).map(np.array)
degrees = st.floats(-180.0, 180.0)
pitches = st.one_of(st.sampled_from([-90.0, 90.0, -89.99, 0.0]), st.floats(-90.0, 90.0))
rotations = st.builds(
    lambda y, p, r: tracking.rotation_from_euler(np.deg2rad([y, p, r])), degrees, pitches, degrees
)
shapes = st.tuples(st.integers(1, 4), st.integers(1, 4))
rates = st.tuples(*[st.floats(-2.0, 2.0)] * 3).map(np.array)
segments = st.builds(
    simkit.TrajectorySegment,
    v=rates,
    w=rates,
    steps=st.integers(1, 30),
    dt=st.floats(1e-3, 10.0),
)
noise = st.floats(0.0, 10.0)


@st.composite
def scenarios(draw):
    base = simkit.default_scenario()
    carrier = base.signal.carrier_hz

    def array():
        return channel.ArrayGeometry.half_wavelength_upa(*draw(shapes), carrier)

    anchors = tuple(
        channel.AnchorConfig(draw(positions), draw(rotations), array())
        for _ in range(draw(st.integers(2, 4)))
    )
    return replace(
        base,
        anchors=anchors,
        ue_array=array(),
        ue_start=lie.Pose.from_rotation_position(draw(rotations), draw(positions)),
        segments=tuple(draw(st.lists(segments, min_size=1, max_size=4))),
        signal=replace(base.signal, tx_power_dbm=draw(st.floats(-50.0, 50.0))),
        mc_runs=draw(st.integers(1, 1000)),
        seed=draw(st.integers(0, 2**63)),
        filter_selection=draw(st.sampled_from(simkit.FILTER_NAMES + ("all",))),
        measurement_noise_scale=draw(noise),
        process_noise_rho_m=draw(noise),
        process_noise_rot_rad=draw(noise),
    )


def _keys(tree):
    if isinstance(tree, dict):
        return {k: _keys(v) for k, v in tree.items()}
    if isinstance(tree, list) and tree and isinstance(tree[0], dict):
        return [_keys(v) for v in tree]
    return None


def _close(a, b):
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


@SCENARIO
@given(scenarios())
def test_scenario_survives_save_and_load(tmp_path_factory, cfg):
    path = tmp_path_factory.mktemp("scenario") / "scenario.yaml"
    simkit.save_scenario(cfg, path)
    loaded = simkit.load_scenario(path)

    assert _keys(yaml.safe_load(path.read_text())) == _keys(simkit.scenario_to_dict(loaded))
    assert loaded.signal == cfg.signal
    for name in ("mc_runs", "seed", "filter_selection", "measurement_noise_scale",
                 "process_noise_rho_m", "process_noise_rot_rad"):
        assert getattr(loaded, name) == getattr(cfg, name)
    assert len(loaded.anchors) == len(cfg.anchors)
    for a, b in zip(loaded.anchors, cfg.anchors):
        _close(a.position, b.position)
        _close(a.orientation, b.orientation)
        assert np.array_equal(a.array.element_positions, b.array.element_positions)
    assert np.array_equal(loaded.ue_array.element_positions, cfg.ue_array.element_positions)
    _close(loaded.ue_start.rotation, cfg.ue_start.rotation)
    _close(loaded.ue_start.position, cfg.ue_start.position)
    assert len(loaded.segments) == len(cfg.segments)
    for a, b in zip(loaded.segments, cfg.segments):
        assert np.array_equal(a.v, b.v) and np.array_equal(a.w, b.w)
        assert (a.steps, a.dt) == (b.steps, b.dt)
