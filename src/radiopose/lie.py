"""SO(3)/SE(3) primitives: hat/vee, exp/log maps, Jacobians, adjoints.

Conventions used throughout the package:

* Rotation matrices map local coordinates to global coordinates.
* A rigid transform is stored as (R, b) with b the 4x4 top-right block.
  For a device at position p with orientation R the block is b = R @ p,
  so the position is recovered as p = R.T @ b.
* Tangent vectors are ordered xi = [rho, r] with rho the translational
  part (meters) and r the rotational part (radians, axis-angle).
* Perturbations are applied on the left: T = exp(hat(xi)) @ T_nominal.
* The maps take leading axes, (..., 3), (..., 6) or (..., 3, 3), and treat
  every row on its own, so one call serves a batch of Monte Carlo runs; a
  single vector or matrix is the unbatched case. A ``Pose`` may hold such a
  batch, and its methods broadcast over the leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import NearPiRotation, NotSkew

_TAYLOR_ANGLE = 0.2
_NEAR_PI = 1e-3
_LOG_PI_MARGIN = 1e-6  # se3_log raises NearPiRotation this close to pi
_SKEW_TOL = 1e-8
_ROTATION_TOL = 1e-10


# hat3(v) flattened is v @ _HAT; a flattened 3x3 matrix m times _LOG_TERMS
# gives the antisymmetric differences [m21 - m12, m02 - m20, m10 - m01] and
# the trace
_HAT = np.zeros((3, 9))
_HAT[[0, 1, 2], [7, 2, 3]] = 1.0
_HAT[[0, 1, 2], [5, 6, 1]] = -1.0
_LOG_TERMS = np.zeros((9, 4))
_LOG_TERMS[[7, 2, 3], [0, 1, 2]] = 1.0
_LOG_TERMS[[5, 6, 1], [0, 1, 2]] = -1.0
_LOG_TERMS[[0, 4, 8], 3] = 1.0
_I3 = np.eye(3)
# Taylor coefficients of a^(2n), n = 0..5, of c1, c2, q2 and q3 (``_so3_coeffs``):
# (-1)^n over (2n+2)!, (2n+3)!, (2n+4)! and (-1)^n (n+1) / (2n+5)!
_SERIES = np.array([
    [(-1) ** n / factorial(2 * n + k) for k in (2, 3, 4)] + [(-1) ** n * (n + 1) / factorial(2 * n + 5)]
    for n in range(6)
])
_POWERS = np.arange(len(_SERIES))


def _norm(v: np.ndarray):
    """Euclidean norm over the last axis."""
    return np.sqrt(np.vecdot(v, v))


def _m(c):
    """A coefficient over leading axes, shaped to scale 3x3 matrices."""
    return c[..., None, None]


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return (m + m.mT) / 2.0


def hat3(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix of a 3-vector, so that hat3(v) @ w == cross(v, w)."""
    v = np.asarray(v, dtype=float)
    return (v @ _HAT).reshape(v.shape[:-1] + (3, 3))


def vee3(m: np.ndarray) -> np.ndarray:
    """Inverse of hat3. Raises NotSkew if m is not skew-symmetric within ``_SKEW_TOL``."""
    m = np.asarray(m, dtype=float)
    if np.linalg.norm(m + m.T) >= _SKEW_TOL:
        raise NotSkew(f"matrix is not skew-symmetric within {_SKEW_TOL}")
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def _so3_terms(r: np.ndarray):
    """hat(r), hat(r)^2, a^2 and the coefficients (c1, c2, q2, q3) of
    ``_so3_coeffs`` at a = |r|, the scalars shaped by ``_m``."""
    k = hat3(r)
    angle = _norm(r)
    return (k, k @ k, _m(angle * angle), *(_m(c) for c in _so3_coeffs(angle)))


def _rodrigues(terms) -> np.ndarray:
    """exp(k) = I + (sin a / a) k + c1 k^2 from ``_so3_terms``, with
    sin a / a = 1 - a^2 c2 so that one coefficient set serves exp and J_l."""
    k, k2, a2, c1, c2, _, _ = terms
    return _I3 + (1.0 - a2 * c2) * k + c1 * k2


def _left_jacobian(terms) -> np.ndarray:
    """J_l = I + c1 k + c2 k^2 from ``_so3_terms``."""
    k, k2, _, c1, c2, _, _ = terms
    return _I3 + c1 * k + c2 * k2


def so3_exp(r: np.ndarray) -> np.ndarray:
    """Rotation matrix exp(hat(r)), the Rodrigues formula (``_rodrigues``).

    exp is 2 pi periodic along an axis, so a row with |r| >= 2 pi is first
    reduced to the angle |r| mod 2 pi along its axis; the coefficients then
    never see a huge angle, and the result is a rotation wherever |r|^2 is
    finite. Rows below 2 pi are used as given."""
    r = np.asarray(r, dtype=float)
    angle = _norm(r)
    turns = angle >= 2.0 * np.pi
    if np.count_nonzero(turns):
        r = r * np.where(turns, np.mod(angle, 2.0 * np.pi) / np.where(turns, angle, 1.0), 1.0)[..., None]
    return _rodrigues(_so3_terms(r))


def so3_log(rot: np.ndarray) -> np.ndarray:
    """Axis-angle vector of a rotation matrix, or (..., 3) of a (..., 3, 3)
    stack, with norm in [0, pi]; raises ValueError unless every matrix is a
    rotation (``require_rotation``)."""
    rot = np.asarray(rot, dtype=float)
    require_rotation(rot)
    return _so3_log(rot)


def _so3_log(rot: np.ndarray) -> np.ndarray:
    """``so3_log`` of matrices already known to be rotations.

    Every row is r = (angle / sin angle) s, s the antisymmetric part. Below
    2^-26 rad sin angle rounds to angle, so r is s exactly, with no series;
    the ratio is 1 where the angle is 0, also once s . s underflows. Within
    1e-3 of pi, where dividing by sin angle costs eps/(pi - angle), the axis
    a comes from the exact identity ((R + R^T)/2 - cos(angle) I) /
    (1 - cos(angle)) = a a^T, its sign from s = sin(angle) a, in one pass.
    """
    terms = rot.reshape(rot.shape[:-2] + (9,)) @ _LOG_TERMS
    s = terms[..., :3] / 2.0
    cos_angle = (terms[..., 3] - 1.0) / 2.0
    angle = np.arctan2(_norm(s), cos_angle)
    ratio = np.divide(angle, np.sin(angle), out=np.ones_like(angle), where=angle != 0.0)
    out = s * ratio[..., None]
    near_pi = angle > np.pi - _NEAR_PI
    if np.count_nonzero(near_pi):
        m, c, half = rot[near_pi], cos_angle[near_pi], s[near_pi]
        aat = (_symmetrize(m) - _m(c) * _I3) / _m(1.0 - c)
        rows = np.arange(len(m))
        col = np.argmax(np.diagonal(aat, axis1=-2, axis2=-1), axis=-1)
        axis = aat[rows, :, col] / np.sqrt(aat[rows, col, col])[:, None]
        lead = np.argmax(np.abs(half), axis=-1)
        axis[half[rows, lead] * axis[rows, lead] < 0] *= -1.0
        out[near_pi] = angle[near_pi][:, None] * axis
    return out


def _so3_coeffs(angle) -> tuple:
    """(c1, c2, q2, q3) at a = |r|: c1 = (1 - cos a)/a^2, c2 = (a - sin a)/a^3,
    q2 = (a^2 + 2 cos a - 2)/(2 a^4) and q3 = (2a - 3 sin a + a cos a)/(2 a^5).
    From ``_TAYLOR_ANGLE`` up they are evaluated through s = sin(a/2), as
    c1 = 2 s^2/a^2, q2 = (a - 2s)(a + 2s)/(2 a^4), whose first factor is an
    exact difference, and q3 = (3 c2 - c1)/(2 a^2); below it, where those
    forms cancel, they come from the series of ``_SERIES``, summed for every
    row of a^2 in one product. A batch whose rows all sit on one side of
    ``_TAYLOR_ANGLE`` evaluates that branch alone; a mixed batch evaluates
    both and picks per row, silencing what each branch divides by zero or
    overflows in the rows it does not keep."""
    a2 = angle * angle

    def closed():
        s = np.sin(angle / 2.0)
        c1, c2 = 2.0 * s**2 / a2, (angle - np.sin(angle)) / (a2 * angle)
        return c1, c2, (angle - 2.0 * s) * (angle + 2.0 * s) / (2.0 * a2 * a2), (3.0 * c2 - c1) / (2.0 * a2)

    def taylor():
        series = (a2[..., None] ** _POWERS) @ _SERIES
        return series[..., 0], series[..., 1], series[..., 2], series[..., 3]

    taylor_rows = angle < _TAYLOR_ANGLE
    count = np.count_nonzero(taylor_rows)
    if count == taylor_rows.size:
        return taylor()
    if count == 0:
        return closed()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return tuple(np.where(taylor_rows, a, b) for a, b in zip(taylor(), closed()))


def so3_left_jacobian(r: np.ndarray) -> np.ndarray:
    """Left Jacobian of SO(3), I + c1 hat(r) + c2 hat(r)^2 (``_left_jacobian``)."""
    return _left_jacobian(_so3_terms(np.asarray(r, dtype=float)))


def _so3_jacobian_inv(terms):
    """J_l(r)^-1 = I - k/2 + ((c2 - 2 q2) / (2 c1)) k^2 for k = hat(r): the
    coefficient is 1/a^2 - (1 + cos a) / (2 a sin a) (Barfoot & Furgale,
    IEEE T-RO 2014) written through c1, c2 and q2 of ``_so3_coeffs``, whose
    difference does not cancel. Takes the ``_so3_terms`` of r."""
    k, k2, _, c1, c2, q2, _ = terms
    return _I3 - 0.5 * k + ((c2 - 2.0 * q2) / (2.0 * c1)) * k2


def require_rotation(m: np.ndarray) -> None:
    """Check orthonormality and unit determinant of a 3x3 matrix, or of every
    matrix of a (..., 3, 3) stack, to ``_ROTATION_TOL``; a non-finite entry
    fails both checks, which are written so that NaN compares false."""
    m = np.asarray(m)
    if m.shape[-2:] != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {m.shape}")
    if not np.all(_norm((m.mT @ m - _I3).reshape(m.shape[:-2] + (9,))) <= _ROTATION_TOL):
        raise ValueError("matrix is not orthonormal within tolerance")
    if not np.all(np.abs(np.linalg.det(m) - 1.0) <= _ROTATION_TOL):
        raise ValueError("matrix determinant is not +1 within tolerance")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)  # the flag of ``a.flags.writeable = False``, without building a flags object
    return a


def _readonly(a) -> np.ndarray:
    return _frozen(np.array(a, dtype=float))


def _record(cls, **fields):
    """A ``cls`` record of values the library computed from checked ones: built
    without its constructor, neither checked nor copied, each ndarray field frozen in place."""
    out = object.__new__(cls)
    for value in fields.values():
        if isinstance(value, np.ndarray):
            _frozen(value)
    vars(out).update(fields)
    return out


def _indexed(obj, index):
    """``obj[index]``: each field and evaluated cached term of a record indexed, None kept (``_record``)."""
    return _record(type(obj), **{name: None if value is None else value[index] for name, value in vars(obj).items()})


@dataclass(frozen=True)
class Pose:
    """Rigid transform with the translation block convention b = R @ p.

    The constructor checks the rotation (``require_rotation``); the poses that
    ``@``, ``inverse`` and ``se3_exp`` return are built from valid ones and
    are not checked again. Computed poses may carry leading axes, rotation
    (..., 3, 3) and block (..., 3); indexing such a pose selects along them.
    """

    rotation: np.ndarray
    translation_block: np.ndarray

    def __post_init__(self):
        if np.shape(self.rotation) != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {np.shape(self.rotation)}")
        require_rotation(self.rotation)
        b = np.asarray(self.translation_block, dtype=float)
        if b.shape != (3,):
            raise ValueError(f"translation block must be a 3-vector, got {b.shape}")
        object.__setattr__(self, "rotation", _readonly(self.rotation))
        object.__setattr__(self, "translation_block", _readonly(b))

    @property
    def position(self) -> np.ndarray:
        """Device position p = R.T @ b."""
        return np.matvec(self.rotation.mT, self.translation_block)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_rotation_position(cls, rotation: np.ndarray, position: np.ndarray) -> "Pose":
        rotation = np.asarray(rotation, dtype=float)
        return cls(rotation, rotation @ np.asarray(position, dtype=float))

    @classmethod
    def stack(cls, poses) -> "Pose":
        """A sequence of poses as one pose with a leading axis."""
        return _pose(np.stack([p.rotation for p in poses]), np.stack([p.translation_block for p in poses]))

    def matrix(self) -> np.ndarray:
        m = np.zeros(self.rotation.shape[:-2] + (4, 4))
        m[..., :3, :3] = self.rotation
        m[..., :3, 3] = self.translation_block
        m[..., 3, 3] = 1.0
        return m

    def inverse(self) -> "Pose":
        rot_t = self.rotation.mT
        return _pose(rot_t, -np.matvec(rot_t, self.translation_block))

    def __matmul__(self, other: "Pose") -> "Pose":
        return _pose(
            self.rotation @ other.rotation,
            np.matvec(self.rotation, other.translation_block) + self.translation_block,
        )

    __getitem__ = _indexed


def _pose(rotation: np.ndarray, translation_block: np.ndarray) -> Pose:
    """Pose from float arrays computed out of already valid poses or rotation
    vectors (``_record``): frozen in place, neither copied nor checked,
    because the group operations keep a rotation a rotation."""
    return _record(Pose, rotation=rotation, translation_block=translation_block)


def se3_hat(xi: np.ndarray) -> np.ndarray:
    """4x4 algebra element [[hat3(r), rho], [0, 0]] for xi = [rho, r]."""
    xi = np.asarray(xi, dtype=float)
    out = np.zeros((4, 4))
    out[:3, :3] = hat3(xi[3:])
    out[:3, 3] = xi[:3]
    return out


def se3_vee(m: np.ndarray) -> np.ndarray:
    """Inverse of se3_hat."""
    m = np.asarray(m, dtype=float)
    return np.concatenate([m[:3, 3], vee3(m[:3, :3])])


def se3_exp(xi: np.ndarray) -> Pose:
    """Exponential map of SE(3): rotation by r, translation block J_l(r) @ rho."""
    xi = np.asarray(xi, dtype=float)
    return _se3_exp(xi, _so3_terms(xi[..., 3:]))


def _se3_exp(xi, terms) -> Pose:
    return _pose(_rodrigues(terms), np.matvec(_left_jacobian(terms), xi[..., :3]))


def se3_exp_and_jacobian(xi: np.ndarray):
    """``se3_exp(xi)`` and ``se3_left_jacobian(xi)`` from one ``_so3_terms`` evaluation."""
    xi = np.asarray(xi, dtype=float)
    terms = _so3_terms(xi[..., 3:])
    return _se3_exp(xi, terms), _se3_left_jacobian(xi, terms)


def se3_log(pose: Pose) -> np.ndarray:
    """Logarithm of SE(3): xi = [rho, r] with rho = J_l(r)^-1 @ b in closed form.

    Raises NearPiRotation when a rotation angle is within 1e-6 of pi, where
    the log stops being unique; a batch raises when any of its rows is.
    """
    return _se3_log(pose)[0]


def _se3_log(pose: Pose):
    """``se3_log``, the ``_so3_terms`` of its rotation part r and J_l(r)^-1."""
    r = _so3_log(pose.rotation)
    if np.count_nonzero(_norm(r) > np.pi - _LOG_PI_MARGIN):
        raise NearPiRotation("rotation angle within 1e-6 of pi")
    terms = _so3_terms(r)
    jac_inv = _so3_jacobian_inv(terms)
    return np.concatenate([np.matvec(jac_inv, pose.translation_block), r], axis=-1), terms, jac_inv


def se3_log_and_inv_jacobian(pose: Pose):
    """h = ``se3_log(pose)`` and the inverse of ``se3_left_jacobian(-h)``, [[J^-1, -J^-1 Q J^-1],
    [0, J^-1]] in closed form, from one ``_so3_terms`` and one ``_so3_jacobian_inv``
    evaluation: at -h the terms are those at h with hat(r) negated, exactly,
    and J_l(-r)^-1 = J_l(r)^-T, because hat(r) is skew and hat(r)^2 symmetric."""
    h, (k, *rest), jac_inv = _se3_log(pose)
    terms, jac_inv = (-k, *rest), jac_inv.mT
    return h, _block_triangular(jac_inv, -(jac_inv @ _coupling_block(-h, terms) @ jac_inv))


def _block_triangular(diagonal: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """6x6 matrices [[D, U], [0, D]] over the leading axes of the 3x3 blocks."""
    out = np.zeros(diagonal.shape[:-2] + (6, 6))
    out[..., :3, :3] = out[..., 3:, 3:] = diagonal
    out[..., :3, 3:] = upper
    return out


def adjoint(pose: Pose) -> np.ndarray:
    """6x6 adjoint [[R, hat3(b) R], [0, R]] acting on [rho, r] tangents."""
    return _block_triangular(pose.rotation, hat3(pose.translation_block) @ pose.rotation)


def _coupling_block(xi: np.ndarray, terms) -> np.ndarray:
    """Coupling block Q of the SE(3) left Jacobian [[J, Q], [0, J]] at
    xi = [rho, r], from the ``_so3_terms`` of r.

    Q = p/2 + q1 (k p + p k - d k) + q2 (k^2 p + p k^2 + 3 d k) - 2 q3 d k^2 is
    Barfoot & Furgale's coupling block (IEEE T-RO 2014), reduced by
    k p k = -d k for k = hat(r), p = hat(rho), d = r . rho, with q1 = c2, q2
    and q3 from ``_so3_coeffs``.
    """
    rho, r = xi[..., :3], xi[..., 3:]
    k, k2, _, _, c2, q2, q3 = terms
    p = hat3(rho)
    kp = k @ p
    k2p = k @ kp
    d = _m(np.vecdot(r, rho))
    # p k = (k p)^T and p k^2 = -(k^2 p)^T because k and p are skew
    return 0.5 * p + c2 * (kp + kp.mT - d * k) + q2 * (k2p - k2p.mT + 3.0 * d * k) - 2.0 * q3 * d * k2


def se3_left_jacobian(xi: np.ndarray) -> np.ndarray:
    """6x6 left Jacobian of SE(3), [[J, Q], [0, J]] with J = J_l(r)
    (``_left_jacobian``, ``_coupling_block``)."""
    xi = np.asarray(xi, dtype=float)
    return _se3_left_jacobian(xi, _so3_terms(xi[..., 3:]))


def _se3_left_jacobian(xi, terms) -> np.ndarray:
    return _block_triangular(_left_jacobian(terms), _coupling_block(xi, terms))
