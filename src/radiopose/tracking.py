"""Pose prediction and measurement-update filters on SE(3).

Two manifold-correct updates are provided: an iterated Gauss-Newton fusion
of the predicted and measured poses, and an error-state Kalman filter that
linearizes the left-tangent error. An Euler-angle EKF baseline ships for
comparison.

All covariances live in the left-perturbation tangent ordered [rho, r]:
T = exp(hat(xi)) @ T_nominal.

``predict``, the updates and the Euler EKF take states with a leading run
axis (poses (R,), covariances (R, 6, 6), Euler states (R, 6)) and treat each
run on its own, so one call steps a whole Monte Carlo batch; a single state
is the unbatched case. A call that fails in any run raises for the whole
call; each run's numbers equal those of its unbatched call, which is how a
caller finds the runs that fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bounds import measurement_covariance
from .errors import GimbalLock, SingularInnovationCovariance, SingularNormalEquations
from .lie import (
    Pose,
    _norm,
    _pose,
    _readonly,
    adjoint,
    hat3,
    se3_exp,
    se3_exp_and_jacobian,
    se3_log,
    se3_log_and_inv_jacobian,
    so3_exp,
)

_GIMBAL_GUARD = 1e-3
_FUSION_EPS = 1e-8
_FUSION_MAX_ITERS = 50


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return (m + m.mT) / 2.0


def _checked(routine, error, message: str, a: np.ndarray, *args):
    """``routine(a, *args)``, a numpy.linalg solve or inverse over the leading
    axes of ``a``. A singular matrix raises ``error(message)``."""
    try:
        return routine(a, *args)
    except np.linalg.LinAlgError as exc:
        raise error(message) from exc


def check_cov_tangent(cov: np.ndarray) -> np.ndarray:
    """Validate 6x6 tangent covariances over any leading axes: each one
    symmetric, its eigenvalues above the negative-noise floor, both on its
    own scale. Returns the symmetrized matrices."""
    cov = np.asarray(cov, dtype=float)
    if cov.shape[-2:] != (6, 6):
        raise ValueError("covariance must be 6x6")
    # fmax, like max(1.0, x), reads a NaN maximum as 1.0
    scale = np.fmax(1.0, np.abs(cov).max(axis=(-2, -1)))
    if np.any(np.abs(cov - cov.mT).max(axis=(-2, -1)) > 1e-12 * scale):
        raise ValueError("covariance is not symmetric within tolerance")
    out = _symmetrize(cov)
    if np.any(np.linalg.eigvalsh(out)[..., 0] < -1e-10 * scale):
        raise ValueError("covariance is not positive semidefinite within tolerance")
    return out


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _indexed(obj, index):
    """``obj`` with its fields and evaluated cached terms indexed, read-only and unchecked."""
    out = object.__new__(type(obj))
    for name, value in vars(obj).items():
        value = None if value is None else value[index]
        vars(out)[name] = _frozen(value) if isinstance(value, np.ndarray) else value
    return out


@dataclass(frozen=True)
class FilterState:
    """Nominal pose plus 6x6 tangent covariance (left perturbation), over
    leading run axes that indexing selects. The constructor checks each
    covariance (``check_cov_tangent``); the states that ``predict`` and the
    updates return are symmetrized, not checked. ``iterations`` counts the
    Gauss-Newton steps of ``fuse_poses`` per run, None where no fusion ran."""

    pose: Pose
    cov: np.ndarray
    iterations: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "cov", _frozen(check_cov_tangent(self.cov)))

    @property
    def converged(self) -> bool:
        """False exactly where some run took ``_FUSION_MAX_ITERS`` steps."""
        return self.iterations is None or not np.any(self.iterations >= _FUSION_MAX_ITERS)

    __getitem__ = _indexed


def _state(pose: Pose, cov: np.ndarray, iterations=None) -> FilterState:
    """FilterState of a covariance the filters computed: symmetrized and frozen, not checked."""
    state = object.__new__(FilterState)
    vars(state).update(pose=pose, cov=_frozen(_symmetrize(cov)), iterations=iterations)
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

    @cached_property
    def factor(self) -> Pose:
        """Left-multiplied kinematics factor F, rotation exp(dt w^) and block dt v.
        It and ``factor_adjoint``, Ad(F), are evaluated once per command and read-only."""
        return _pose(so3_exp(self.dt * self.w), self.dt * self.v)

    @cached_property
    def factor_adjoint(self) -> np.ndarray:
        return _readonly(adjoint(self.factor))


@dataclass(frozen=True)
class PoseMeasurement:
    """Measured pose with its 6x6 state-domain bound over [position, rotation],
    broadcast to the pose's leading axes as a read-only view. Indexing selects
    along them; a slice holds the slices of the terms already evaluated."""

    pose: Pose
    cov_state_icrb: np.ndarray

    def __post_init__(self):
        cov = _symmetrize(np.asarray(self.cov_state_icrb, dtype=float))
        batch = self.pose.translation_block.shape[:-1]
        object.__setattr__(self, "cov_state_icrb", np.broadcast_to(cov, batch + (6, 6)))

    __getitem__ = _indexed

    def evaluated(self) -> "PoseMeasurement":
        """Itself, with every term the filters read evaluated for its slices to share."""
        _ = self.cov_tangent, self.euler_state
        return self

    @cached_property
    def cov_tangent(self) -> np.ndarray:
        """The bound mapped into the [rho, r] tangent at the measured rotation,
        computed once and shared by every filter that consumes this measurement."""
        return _frozen(measurement_covariance(self.cov_state_icrb, self.pose.rotation))

    @cached_property
    def euler_state(self) -> np.ndarray:
        """[position, yaw, pitch, roll] of the measured pose, at any pitch."""
        return np.concatenate([self.pose.position, _euler_from_rotation(self.pose.rotation)], axis=-1)


def initial_state(meas: PoseMeasurement) -> FilterState:
    """Fusion or ESKF state at a first measurement: its pose and tangent covariance."""
    return FilterState(meas.pose, meas.cov_tangent)


def predict(state: FilterState, cmd: MotionCommand) -> FilterState:
    """Propagate pose and covariance one step: T <- F T, P <- Ad(F) P Ad(F)' + Q, F = ``cmd.factor``."""
    ad = cmd.factor_adjoint
    return _state(cmd.factor @ state.pose, ad @ state.cov @ ad.T + cmd.process_noise)


def fuse_poses(sources, initial: Pose) -> FilterState:
    """Iterated Gauss-Newton fusion of pose estimates in the tangent space.

    ``sources`` is a sequence of (pose, tangent covariance) pairs. Each
    iteration linearizes the errors h_m = log(T_m T_in^-1) around the
    current iterate, solves the weighted normal equations for the step, and
    applies it as a left perturbation. A step shorter than ``_FUSION_EPS``
    (1e-8) is not applied: the iterate where the normal equations were last
    formed is returned, with their inverse as the posterior covariance. After
    ``_FUSION_MAX_ITERS`` (50) steps without convergence the state has
    ``converged`` False; ``iterations``, the steps applied, reach 50 only then.

    Over a batch each run keeps its own convergence flag: a converged run
    takes zero steps, which leave its iterate exactly as it is, while the
    others go on, so a run's iterates do not depend on its batch.
    """
    batch = initial.translation_block.shape[:-1]
    # the sources stacked on a leading axis: one inverse, and one log and one
    # gain per pass, serve all of them
    poses = _pose(
        np.stack([np.broadcast_to(pose.rotation, batch + (3, 3)) for pose, _ in sources]),
        np.stack([np.broadcast_to(pose.translation_block, batch + (3,)) for pose, _ in sources]),
    )
    covs = np.stack([np.broadcast_to(np.asarray(cov, dtype=float), batch + (6, 6)) for _, cov in sources])
    weights = _checked(np.linalg.inv, SingularNormalEquations, "source covariance is singular", covs)

    # Each pass accumulates the normal equations at the current iterate: a
    # run's posterior information once its solved step is below tolerance.
    t_in = initial
    steps = np.zeros(batch, dtype=int)
    converged = np.zeros(batch, dtype=bool)
    for it in range(_FUSION_MAX_ITERS + 1):
        # h moves by -A eps when T <- exp(eps) T, with A = J_l(-h)^-1
        h, a = se3_log_and_inv_jacobian(poses @ t_in.inverse())
        aw = a.mT @ weights
        normal = np.sum(aw @ a, axis=0)
        if it == _FUSION_MAX_ITERS:
            break
        rhs = np.sum(np.matvec(aw, h), axis=0)
        eps = _checked(np.linalg.solve, SingularNormalEquations, "normal equations singular",
                       normal, rhs[..., None])[..., 0]
        converged = converged | (_norm(eps) < _FUSION_EPS)
        if converged.all():
            break
        if converged.any():
            eps = np.where(converged[..., None], 0.0, eps)
        t_in = se3_exp(eps) @ t_in
        steps = steps + ~converged

    post_cov = _checked(np.linalg.inv, SingularNormalEquations, "posterior information matrix singular", normal)
    return _state(t_in, post_cov, steps)


def fusion_update(pred: FilterState, meas: PoseMeasurement) -> FilterState:
    """Fusion measurement update, initialized at the predicted pose."""
    return fuse_poses([(meas.pose, meas.cov_tangent), (pred.pose, pred.cov)], initial=pred.pose)


def eskf_core(pred_pose: Pose, pred_cov: np.ndarray, meas_pose: Pose, meas_cov: np.ndarray) -> FilterState:
    """Error-state Kalman update with tangent covariances already in [rho, r]."""
    gamma = se3_log(meas_pose @ pred_pose.inverse())
    pred_cov = np.asarray(pred_cov)
    innov_cov = pred_cov + np.asarray(meas_cov)
    gain = _gain(pred_cov, innov_cov)
    step, jac = se3_exp_and_jacobian(np.matvec(gain, gamma))
    sigma_eps = (np.eye(6) - gain) @ pred_cov
    return _state(step @ pred_pose, jac @ _symmetrize(sigma_eps) @ jac.mT)


def _gain(cov: np.ndarray, innov_cov: np.ndarray) -> np.ndarray:
    """Kalman gain cov @ innov_cov^-1, solved rather than inverted."""
    return _checked(np.linalg.solve, SingularInnovationCovariance, "innovation covariance singular",
                    innov_cov.mT, cov.mT).mT


def eskf_update(pred: FilterState, meas: PoseMeasurement) -> FilterState:
    """Error-state Kalman measurement update."""
    return eskf_core(pred.pose, pred.cov, meas.pose, meas.cov_tangent)


# ---------------------------------------------------------------------------
# Euler-angle EKF baseline
# ---------------------------------------------------------------------------


def wrap_angle(a):
    """Wrap angles to (-pi, pi]."""
    return -((-np.asarray(a, dtype=float) + np.pi) % (2.0 * np.pi) - np.pi)


# Entries of Rz(yaw), Ry(pitch), Rx(roll) in row-major order, as indices into
# [0, 1, cos(ypr), sin(ypr), -sin(ypr)]
_EULER_FACTORS = np.array([
    [2, 8, 0, 5, 2, 0, 0, 0, 1],
    [3, 0, 6, 0, 1, 0, 9, 0, 3],
    [1, 0, 0, 0, 4, 10, 0, 7, 4],
])
_GIMBAL_SIN = np.sin(np.pi / 2.0 - _GIMBAL_GUARD)


def rotation_from_euler(ypr: np.ndarray) -> np.ndarray:
    """Rotation matrix from intrinsic Z-Y-X (yaw, pitch, roll) in radians:
    Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
    ypr = np.asarray(ypr, dtype=float)
    shape = ypr.shape[:-1]
    terms = np.empty(shape + (11,))
    terms[..., 0], terms[..., 1] = 0.0, 1.0
    np.cos(ypr, out=terms[..., 2:5])
    np.sin(ypr, out=terms[..., 5:8])
    np.negative(terms[..., 5:8], out=terms[..., 8:])
    factors = terms[..., _EULER_FACTORS].reshape(shape + (3, 3, 3))
    return factors[..., 0, :, :] @ factors[..., 1, :, :] @ factors[..., 2, :, :]


def euler_from_rotation(rot: np.ndarray) -> np.ndarray:
    """Intrinsic Z-Y-X (yaw, pitch, roll) angles of a rotation matrix; raises
    GimbalLock when the pitch is within the guard band of +/-pi/2."""
    rot = np.asarray(rot, dtype=float)
    _require_pitch(rot)
    return _euler_from_rotation(rot)


def _require_pitch(rot: np.ndarray) -> None:
    if np.count_nonzero(np.abs(rot[..., 2, 0]) >= _GIMBAL_SIN):
        raise GimbalLock("pitch within guard band of +/-pi/2")


def _euler_from_rotation(rot: np.ndarray) -> np.ndarray:
    """Z-Y-X (yaw, pitch, roll) that ``rotation_from_euler`` maps back to
    ``rot``, at any pitch including +/-pi/2.

    Roll is read first and removed, which leaves Rz(yaw) Ry(pitch); yaw and
    pitch then come from entries of that product that stay well conditioned
    at gimbal lock, where any roll is consistent.
    """
    ypr = np.zeros(rot.shape[:-2] + (3,))
    ypr[..., 2] = np.arctan2(rot[..., 2, 1], rot[..., 2, 2])
    m = (rot @ rotation_from_euler(ypr).mT).reshape(rot.shape[:-2] + (9,))
    # yaw from m01, m11 and pitch from m20, m22; + 0.0 turns -0.0 into 0.0,
    # which a scenario file would print as -0.0
    ypr[..., :2] = np.arctan2(-m[..., [1, 6]], m[..., [4, 8]])
    return ypr + 0.0


def euler_rate_matrix(ypr: np.ndarray) -> np.ndarray:
    """E = [z, Rz y, Rz Ry x]: the global rotation increment per unit Z-Y-X angle
    change, R(ypr + d) = exp(hat(E d)) R(ypr) to first order in d."""
    yaw, pitch = ypr[..., 0], ypr[..., 1]
    cz, sz = np.cos(yaw), np.sin(yaw)
    cy, sy = np.cos(pitch), np.sin(pitch)
    out = np.zeros(ypr.shape[:-1] + (3, 3))
    out[..., 0, 1], out[..., 0, 2] = -sz, cz * cy
    out[..., 1, 1], out[..., 1, 2] = cz, sz * cy
    out[..., 2, 0], out[..., 2, 2] = 1.0, -sy
    return out


def euler_state_from_pose(pose: Pose) -> np.ndarray:
    """[position, yaw, pitch, roll] state vector of a pose."""
    return np.concatenate([pose.position, euler_from_rotation(pose.rotation)], axis=-1)


def pose_from_euler_state(state: np.ndarray) -> Pose:
    state = np.asarray(state, dtype=float)
    rot = rotation_from_euler(state[..., 3:])
    return _pose(rot, np.matvec(rot, state[..., :3]))


def _euler_transition(state: np.ndarray, cmd: MotionCommand):
    """Propagated Euler state through the motion model of ``predict``, T <- F T,
    and the exact Jacobian of the map [p, ypr] -> [p', ypr'].

    p' = p + R'^T dt v and R' = R_w R(ypr) with R_w = exp(dt w), so a change d
    of the angles, a global increment R_w E(ypr) d of R', moves p' by
    R'^T hat(dt v) R_w E(ypr) d and ypr' by E(ypr')^-1 R_w E(ypr) d.
    """
    f = cmd.factor
    pose = f @ pose_from_euler_state(state)
    new_state = euler_state_from_pose(pose)
    rate = f.rotation @ euler_rate_matrix(state[..., 3:])
    jac = np.zeros(state.shape[:-1] + (6, 6))
    jac[..., :3, :3] = np.eye(3)
    jac[..., :3, 3:] = pose.rotation.mT @ hat3(f.translation_block) @ rate
    jac[..., 3:, 3:] = np.linalg.solve(euler_rate_matrix(new_state[..., 3:]), rate)
    return new_state, jac


def euler_predict(state: np.ndarray, cov: np.ndarray, cmd: MotionCommand):
    """EKF prediction: the exact propagation ``_euler_transition`` and P <- J P J' + Q."""
    new_state, jac = _euler_transition(np.asarray(state, dtype=float), cmd)
    return new_state, _symmetrize(jac @ np.asarray(cov) @ jac.mT + cmd.process_noise)


def euler_initial(meas: PoseMeasurement):
    """Euler EKF state and covariance at a first measurement, GimbalLock in the guard band."""
    _require_pitch(meas.pose.rotation)
    return meas.euler_state, meas.cov_state_icrb


def euler_ekf_update(state: np.ndarray, cov: np.ndarray, meas: PoseMeasurement):
    """Standard EKF update on [position, yaw, pitch, roll].

    The measured rotation is converted to Euler angles, angle residuals are
    wrapped to (-pi, pi], and the state-domain bound of the measurement is
    used directly as the Euclidean measurement covariance (the naive
    reinterpretation this baseline is known for). A predicted or measured
    pitch within the guard band of +/-pi/2 raises GimbalLock.
    """
    state = np.asarray(state, dtype=float)
    if np.count_nonzero(np.abs(state[..., 4]) >= np.pi / 2.0 - _GIMBAL_GUARD):
        raise GimbalLock("predicted pitch within guard band of +/-pi/2")
    _require_pitch(meas.pose.rotation)
    innov = meas.euler_state - state
    innov[..., 3:] = wrap_angle(innov[..., 3:])
    cov = np.asarray(cov)
    gain = _gain(cov, cov + meas.cov_state_icrb)
    new_state = state + np.matvec(gain, innov)
    new_state[..., 3:] = wrap_angle(new_state[..., 3:])
    return new_state, _symmetrize((np.eye(6) - gain) @ cov)
