"""Pose prediction and measurement-update filters on SE(3).

Two manifold-correct updates are provided: an iterated Gauss-Newton fusion
of the predicted and measured poses, and an error-state Kalman filter that
linearizes the left-tangent error. An Euler-angle EKF baseline ships for
comparison.

All covariances live in the left-perturbation tangent ordered [rho, r]:
T = exp(hat(xi)) @ T_nominal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bounds import measurement_covariance
from .errors import (
    GimbalLock,
    SingularInnovationCovariance,
    SingularNormalEquations,
)
from .lie import (
    Pose,
    _pose,
    adjoint,
    hat3,
    se3_exp,
    se3_left_jacobian,
    se3_log,
    so3_exp,
)

_GIMBAL_GUARD = 1e-3
_FUSION_EPS = 1e-8
_FUSION_MAX_ITERS = 50


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2.0


def check_cov_tangent(cov: np.ndarray) -> np.ndarray:
    """Validate a 6x6 tangent covariance: symmetric, eigenvalues above the
    negative-noise floor. Returns the symmetrized matrix."""
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (6, 6):
        raise ValueError("covariance must be 6x6")
    scale = max(1.0, float(np.abs(cov).max()))
    if np.abs(cov - cov.T).max() > 1e-12 * scale:
        raise ValueError("covariance is not symmetric within tolerance")
    out = _symmetrize(cov)
    if np.linalg.eigvalsh(out)[0] < -1e-10 * scale:
        raise ValueError("covariance is not positive semidefinite within tolerance")
    return out


@dataclass(frozen=True)
class FilterState:
    """Nominal pose plus 6x6 tangent covariance (left perturbation).

    The constructor checks the covariance (``check_cov_tangent``); the states
    that ``predict`` and the updates return are symmetrized but not checked.
    """

    pose: Pose
    cov: np.ndarray
    converged: bool = True

    def __post_init__(self):
        cov = check_cov_tangent(self.cov)
        cov.flags.writeable = False
        object.__setattr__(self, "cov", cov)


def _state(pose: Pose, cov: np.ndarray, converged: bool = True) -> FilterState:
    """FilterState of a covariance the filters computed: symmetrized and frozen
    like the constructor does, without ``check_cov_tangent``."""
    state = object.__new__(FilterState)
    cov = _symmetrize(cov)
    cov.flags.writeable = False
    for name, value in (("pose", pose), ("cov", cov), ("converged", converged)):
        object.__setattr__(state, name, value)
    return state


@dataclass(frozen=True)
class MotionCommand:
    """Constant-velocity step: local translation velocity v, rotation rate w,
    and a process noise covariance that ``check_cov_tangent`` accepts."""

    v: np.ndarray  # m/s
    w: np.ndarray  # rad/s
    dt: float  # s
    process_noise: np.ndarray = field(default_factory=lambda: np.zeros((6, 6)))

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))
        object.__setattr__(self, "process_noise", check_cov_tangent(self.process_noise))


@dataclass(frozen=True)
class PoseMeasurement:
    """Measured pose with its 6x6 state-domain bound over [position, rotation]."""

    pose: Pose
    cov_state_icrb: np.ndarray

    def __post_init__(self):
        cov = _symmetrize(np.asarray(self.cov_state_icrb, dtype=float))
        cov.flags.writeable = False
        object.__setattr__(self, "cov_state_icrb", cov)

    @cached_property
    def cov_tangent(self) -> np.ndarray:
        """The bound mapped into the [rho, r] tangent at the measured rotation,
        computed once and shared by every filter that consumes this measurement."""
        cov = measurement_covariance(self.cov_state_icrb, self.pose.rotation)
        cov.flags.writeable = False
        return cov


def motion_matrix(cmd: MotionCommand) -> Pose:
    """Left-multiplied kinematics factor with rotation exp(dt w^) and block dt v."""
    return _pose(so3_exp(cmd.dt * cmd.w), cmd.dt * cmd.v)


def predict(state: FilterState, cmd: MotionCommand) -> FilterState:
    """Propagate pose and covariance one step: T <- F T, P <- Ad(F) P Ad(F)' + Q."""
    f = motion_matrix(cmd)
    ad = adjoint(f)
    return _state(f @ state.pose, ad @ state.cov @ ad.T + cmd.process_noise)


def _fusion_gain(h: np.ndarray) -> np.ndarray:
    """A = J_l(-h)^-1, so that h = log(T_m T^-1) moves by -A eps when T <- exp(eps) T."""
    return np.linalg.inv(se3_left_jacobian(-h))


def fuse_poses(sources, initial: Pose) -> FilterState:
    """Iterated Gauss-Newton fusion of pose estimates in the tangent space.

    ``sources`` is a sequence of (pose, tangent covariance) pairs. Each
    iteration linearizes the errors h_m = log(T_m T_in^-1) around the
    current iterate, solves the weighted normal equations for the step, and
    applies it as a left perturbation, until a step is shorter than
    ``_FUSION_EPS`` (1e-8). The posterior covariance is the inverse normal
    matrix at the converged iterate. A state with converged=False is
    returned after ``_FUSION_MAX_ITERS`` (50) steps without convergence.
    """
    weights = []
    for _, cov in sources:
        try:
            weights.append(np.linalg.inv(np.asarray(cov, dtype=float)))
        except np.linalg.LinAlgError as exc:
            raise SingularNormalEquations("source covariance is singular") from exc

    # Each pass accumulates the normal equations at the current iterate; the
    # pass after the last step supplies the posterior information.
    t_in = initial
    converged = False
    for it in range(_FUSION_MAX_ITERS + 1):
        normal = np.zeros((6, 6))
        rhs = np.zeros(6)
        for (pose, _), w in zip(sources, weights):
            h = se3_log(pose @ t_in.inverse())
            a = _fusion_gain(h)
            aw = a.T @ w
            normal += aw @ a
            rhs += aw @ h
        if converged or it == _FUSION_MAX_ITERS:
            break
        try:
            eps = np.linalg.solve(normal, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularNormalEquations("normal equations singular") from exc
        t_in = se3_exp(eps) @ t_in
        converged = bool(np.linalg.norm(eps) < _FUSION_EPS)

    try:
        post_cov = np.linalg.inv(normal)
    except np.linalg.LinAlgError as exc:
        raise SingularNormalEquations("posterior information matrix singular") from exc
    return _state(t_in, post_cov, converged)


def fusion_update(pred: FilterState, meas: PoseMeasurement) -> FilterState:
    """Fusion measurement update, initialized at the predicted pose."""
    return fuse_poses([(meas.pose, meas.cov_tangent), (pred.pose, pred.cov)], initial=pred.pose)


def eskf_core(pred_pose: Pose, pred_cov: np.ndarray, meas_pose: Pose, meas_cov: np.ndarray) -> FilterState:
    """Error-state Kalman update with tangent covariances already in [rho, r]."""
    gamma = se3_log(meas_pose @ pred_pose.inverse())
    innov_cov = np.asarray(pred_cov) + np.asarray(meas_cov)
    try:
        gain = np.linalg.solve(innov_cov.T, np.asarray(pred_cov).T).T
    except np.linalg.LinAlgError as exc:
        raise SingularInnovationCovariance("innovation covariance singular") from exc
    delta = gain @ gamma
    pose = se3_exp(delta) @ pred_pose
    sigma_eps = (np.eye(6) - gain) @ pred_cov
    jac = se3_left_jacobian(delta)
    return _state(pose, jac @ _symmetrize(sigma_eps) @ jac.T)


def eskf_update(pred: FilterState, meas: PoseMeasurement) -> FilterState:
    """Error-state Kalman measurement update."""
    return eskf_core(pred.pose, pred.cov, meas.pose, meas.cov_tangent)


# ---------------------------------------------------------------------------
# Euler-angle EKF baseline
# ---------------------------------------------------------------------------


def wrap_angle(a):
    """Wrap angles to (-pi, pi]."""
    out = np.asarray(a, dtype=float)
    out = -((-out + np.pi) % (2.0 * np.pi) - np.pi)
    return out


def rotation_from_euler(ypr: np.ndarray) -> np.ndarray:
    """Rotation matrix from intrinsic Z-Y-X (yaw, pitch, roll) in radians."""
    yaw, pitch, roll = np.asarray(ypr, dtype=float)
    cz, sz = np.cos(yaw), np.sin(yaw)
    cy, sy = np.cos(pitch), np.sin(pitch)
    cx, sx = np.cos(roll), np.sin(roll)
    rz = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
    return rz @ ry @ rx


def euler_from_rotation(rot: np.ndarray) -> np.ndarray:
    """Intrinsic Z-Y-X (yaw, pitch, roll) angles of a rotation matrix.

    Raises GimbalLock when the pitch is within the guard band of +/-pi/2.
    """
    rot = np.asarray(rot, dtype=float)
    if abs(rot[2, 0]) >= np.sin(np.pi / 2.0 - _GIMBAL_GUARD):
        raise GimbalLock("pitch within guard band of +/-pi/2")
    return _euler_from_rotation(rot)


def _euler_from_rotation(rot: np.ndarray) -> np.ndarray:
    """Z-Y-X (yaw, pitch, roll) that ``rotation_from_euler`` maps back to
    ``rot``, at any pitch including +/-pi/2.

    Roll is read first and removed, which leaves Rz(yaw) Ry(pitch); yaw and
    pitch then come from entries of that product that stay well conditioned
    at gimbal lock, where any roll is consistent.
    """
    roll = np.arctan2(rot[2, 1], rot[2, 2])
    m = rot @ rotation_from_euler(np.array([0.0, 0.0, roll])).T
    # + 0.0 turns -0.0 into 0.0, which a scenario file would print as -0.0
    return np.array([np.arctan2(-m[0, 1], m[1, 1]), np.arctan2(-m[2, 0], m[2, 2]), roll]) + 0.0


def euler_rate_matrix(ypr: np.ndarray) -> np.ndarray:
    """E = [z, Rz y, Rz Ry x]: the global rotation increment per unit Z-Y-X angle
    change, R(ypr + d) = exp(hat(E d)) R(ypr) to first order in d."""
    yaw, pitch, _ = ypr
    cz, sz = np.cos(yaw), np.sin(yaw)
    cy, sy = np.cos(pitch), np.sin(pitch)
    return np.array([[0.0, -sz, cz * cy], [0.0, cz, sz * cy], [1.0, 0.0, -sy]])


def euler_state_from_pose(pose: Pose) -> np.ndarray:
    """[position, yaw, pitch, roll] state vector of a pose."""
    return np.concatenate([pose.position, euler_from_rotation(pose.rotation)])


def pose_from_euler_state(state: np.ndarray) -> Pose:
    state = np.asarray(state, dtype=float)
    rot = rotation_from_euler(state[3:])
    return _pose(rot, rot @ state[:3])


def _euler_transition(state: np.ndarray, cmd: MotionCommand):
    """Propagated Euler state through the motion model of ``predict``, T <- F T,
    and the exact Jacobian of the map [p, ypr] -> [p', ypr'].

    p' = p + R'^T dt v and R' = R_w R(ypr) with R_w = exp(dt w), so a change d
    of the angles, a global increment R_w E(ypr) d of R', moves p' by
    R'^T hat(dt v) R_w E(ypr) d and ypr' by E(ypr')^-1 R_w E(ypr) d.
    """
    f = motion_matrix(cmd)
    pose = f @ pose_from_euler_state(state)
    new_state = euler_state_from_pose(pose)
    rate = f.rotation @ euler_rate_matrix(state[3:])
    jac = np.eye(6)
    jac[:3, 3:] = pose.rotation.T @ hat3(f.translation_block) @ rate
    jac[3:, 3:] = np.linalg.solve(euler_rate_matrix(new_state[3:]), rate)
    return new_state, jac


def euler_predict(state: np.ndarray, cov: np.ndarray, cmd: MotionCommand):
    """EKF prediction: the exact propagation ``_euler_transition`` and P <- J P J' + Q."""
    new_state, jac = _euler_transition(np.asarray(state, dtype=float), cmd)
    return new_state, _symmetrize(jac @ np.asarray(cov) @ jac.T + cmd.process_noise)


def euler_ekf_update(state: np.ndarray, cov: np.ndarray, meas: PoseMeasurement):
    """Standard EKF update on [position, yaw, pitch, roll].

    The measured rotation is converted to Euler angles, angle residuals are
    wrapped to (-pi, pi], and the state-domain bound of the measurement is
    used directly as the Euclidean measurement covariance (the naive
    reinterpretation this baseline is known for).
    """
    state = np.asarray(state, dtype=float)
    if abs(state[4]) >= np.pi / 2.0 - _GIMBAL_GUARD:
        raise GimbalLock("predicted pitch within guard band of +/-pi/2")
    z = euler_state_from_pose(meas.pose)
    innov = z - state
    innov[3:] = wrap_angle(innov[3:])
    innov_cov = np.asarray(cov) + np.asarray(meas.cov_state_icrb)
    try:
        gain = np.linalg.solve(innov_cov.T, np.asarray(cov).T).T
    except np.linalg.LinAlgError as exc:
        raise SingularInnovationCovariance("innovation covariance singular") from exc
    new_state = state + gain @ innov
    new_state[3:] = wrap_angle(new_state[3:])
    new_cov = _symmetrize((np.eye(6) - gain) @ cov)
    return new_state, new_cov

