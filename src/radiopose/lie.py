"""SO(3)/SE(3) primitives: hat/vee, exp/log maps, Jacobians, adjoints.

Conventions used throughout the package:

* Rotation matrices map local coordinates to global coordinates.
* A rigid transform is stored as (R, b) with b the 4x4 top-right block.
  For a device at position p with orientation R the block is b = R @ p,
  so the position is recovered as p = R.T @ b.
* Tangent vectors are ordered xi = [rho, r] with rho the translational
  part (meters) and r the rotational part (radians, axis-angle).
* Perturbations are applied on the left: T = exp(hat(xi)) @ T_nominal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NearPiRotation, NotSkew

_SMALL_ANGLE = 1e-8
_TAYLOR_ANGLE = 1e-2
_Q_TAYLOR_ANGLE = 0.2
_NEAR_PI = 1e-3
_SKEW_TOL = 1e-8
_ROTATION_TOL = 1e-10


def hat3(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix of a 3-vector, so that hat3(v) @ w == cross(v, w)."""
    x, y, z = np.asarray(v, dtype=float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def vee3(m: np.ndarray) -> np.ndarray:
    """Inverse of hat3. Raises NotSkew if m is not skew-symmetric within ``_SKEW_TOL``."""
    m = np.asarray(m, dtype=float)
    if np.linalg.norm(m + m.T) >= _SKEW_TOL:
        raise NotSkew(f"matrix is not skew-symmetric within {_SKEW_TOL}")
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def so3_exp(r: np.ndarray) -> np.ndarray:
    """Rodrigues formula: rotation matrix for an axis-angle vector.

    Uses a second-order Taylor expansion of the sin/cos coefficients below
    the small-angle threshold to avoid 0/0; the versine coefficient is
    evaluated through the half-angle identity to dodge cancellation.
    """
    r = np.asarray(r, dtype=float)
    angle = np.linalg.norm(r)
    k = hat3(r)
    if angle < _SMALL_ANGLE:
        return np.eye(3) + k + 0.5 * (k @ k)
    k2 = k @ k
    half_sin = np.sin(angle / 2.0)
    return np.eye(3) + (np.sin(angle) / angle) * k + (2.0 * half_sin**2 / angle**2) * k2


def so3_log(rot: np.ndarray) -> np.ndarray:
    """Axis-angle vector of a rotation matrix, with norm in [0, pi]; raises
    ValueError unless ``rot`` is a rotation (``require_rotation``)."""
    rot = np.asarray(rot, dtype=float)
    require_rotation(rot)
    return _so3_log(rot)


def _so3_log(rot: np.ndarray) -> np.ndarray:
    """``so3_log`` of a matrix already known to be a rotation.

    The generic branch evaluates angle/(2 sin angle) times the antisymmetric
    part s. Near zero that ratio is replaced by its Taylor expansion. Within
    1e-3 of pi, where dividing by sin angle costs eps/(pi - angle), the axis
    a comes from the exact identity ((R + R^T)/2 - cos(angle) I) /
    (1 - cos(angle)) = a a^T, its sign from s = sin(angle) a.
    """
    s = np.array([rot[2, 1] - rot[1, 2], rot[0, 2] - rot[2, 0], rot[1, 0] - rot[0, 1]]) / 2.0
    cos_angle = np.clip((np.trace(rot) - 1.0) / 2.0, -1.0, 1.0)
    angle = np.arctan2(np.linalg.norm(s), cos_angle)

    if angle < _SMALL_ANGLE:
        # r = (angle / sin angle) * s with the ratio expanded around 0.
        return s * (1.0 + angle**2 / 6.0 + 7.0 * angle**4 / 360.0)
    if angle > np.pi - _NEAR_PI:
        aat = ((rot + rot.T) / 2.0 - cos_angle * np.eye(3)) / (1.0 - cos_angle)
        col = int(np.argmax(np.diag(aat)))
        axis = aat[:, col] / np.sqrt(aat[col, col])
        lead = int(np.argmax(np.abs(s)))
        if s[lead] * axis[lead] < 0:
            axis = -axis
        return angle * axis
    return s * (angle / np.sin(angle))


def _so3_jacobian_coeffs(angle: float):
    """(c1, c2) = ((1 - cos a)/a^2, (a - sin a)/a^3) at a = |r|, from Taylor series up
    to a^4 below 1e-2 rad, where a - sin a cancels."""
    a2 = angle * angle
    if angle < _TAYLOR_ANGLE:
        return 0.5 - a2 / 24.0 + a2 * a2 / 720.0, 1.0 / 6.0 - a2 / 120.0 + a2 * a2 / 5040.0
    return 2.0 * np.sin(angle / 2.0) ** 2 / a2, (angle - np.sin(angle)) / (a2 * angle)


def so3_left_jacobian(r: np.ndarray) -> np.ndarray:
    """Left Jacobian of SO(3), I + c1 hat(r) + c2 hat(r)^2 (``_so3_jacobian_coeffs``)."""
    k = hat3(r)
    c1, c2 = _so3_jacobian_coeffs(np.linalg.norm(r))
    return np.eye(3) + c1 * k + c2 * (k @ k)


def require_rotation(m: np.ndarray) -> None:
    """Check orthonormality and unit determinant of a 3x3 matrix to ``_ROTATION_TOL``;
    a non-finite entry fails both checks, which are written so that NaN compares false."""
    m = np.asarray(m)
    if m.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {m.shape}")
    if not np.linalg.norm(m.T @ m - np.eye(3)) <= _ROTATION_TOL:
        raise ValueError("matrix is not orthonormal within tolerance")
    if not abs(np.linalg.det(m) - 1.0) <= _ROTATION_TOL:
        raise ValueError("matrix determinant is not +1 within tolerance")


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Pose:
    """Rigid transform with the translation block convention b = R @ p.

    The constructor checks the rotation (``require_rotation``); the poses that
    ``@``, ``inverse`` and ``se3_exp`` return are built from valid ones and
    are not checked again.
    """

    rotation: np.ndarray
    translation_block: np.ndarray

    def __post_init__(self):
        require_rotation(self.rotation)
        b = np.asarray(self.translation_block, dtype=float)
        if b.shape != (3,):
            raise ValueError(f"translation block must be a 3-vector, got {b.shape}")
        object.__setattr__(self, "rotation", _readonly(self.rotation))
        object.__setattr__(self, "translation_block", _readonly(b))

    @property
    def position(self) -> np.ndarray:
        """Device position p = R.T @ b."""
        return self.rotation.T @ self.translation_block

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_rotation_position(cls, rotation: np.ndarray, position: np.ndarray) -> "Pose":
        rotation = np.asarray(rotation, dtype=float)
        return cls(rotation, rotation @ np.asarray(position, dtype=float))

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "Pose":
        m = np.asarray(m, dtype=float)
        if m.shape != (4, 4) or np.any(np.abs(m[3] - np.array([0, 0, 0, 1.0])) > 1e-12):
            raise ValueError("expected a homogeneous 4x4 transform")
        return cls(m[:3, :3], m[:3, 3])

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation_block
        return m

    def inverse(self) -> "Pose":
        return _pose(self.rotation.T, -(self.rotation.T @ self.translation_block))

    def __matmul__(self, other: "Pose") -> "Pose":
        return _pose(
            self.rotation @ other.rotation,
            self.rotation @ other.translation_block + self.translation_block,
        )


def _pose(rotation: np.ndarray, translation_block: np.ndarray) -> Pose:
    """Pose from float arrays computed out of already valid poses or rotation
    vectors: frozen in place, neither copied nor checked, because the group
    operations keep a rotation a rotation."""
    pose = object.__new__(Pose)
    for name, value in (("rotation", rotation), ("translation_block", translation_block)):
        value.flags.writeable = False
        object.__setattr__(pose, name, value)
    return pose


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
    rho, r = xi[:3], xi[3:]
    return _pose(so3_exp(r), so3_left_jacobian(r) @ rho)


def se3_log(pose: Pose) -> np.ndarray:
    """Logarithm of SE(3): xi = [rho, r] with rho solved from b = J_l(r) @ rho.

    Raises NearPiRotation when the rotation angle is within 1e-6 of pi,
    where J_l becomes badly conditioned.
    """
    r = _so3_log(pose.rotation)
    if np.linalg.norm(r) > np.pi - 1e-6:
        raise NearPiRotation("rotation angle within 1e-6 of pi")
    rho = np.linalg.solve(so3_left_jacobian(r), pose.translation_block)
    return np.concatenate([rho, r])


def adjoint(pose: Pose) -> np.ndarray:
    """6x6 adjoint [[R, hat3(b) R], [0, R]] acting on [rho, r] tangents."""
    out = np.zeros((6, 6))
    out[:3, :3] = pose.rotation
    out[:3, 3:] = hat3(pose.translation_block) @ pose.rotation
    out[3:, 3:] = pose.rotation
    return out


def small_adjoint(xi: np.ndarray) -> np.ndarray:
    """6x6 algebra adjoint [[hat3(r), hat3(rho)], [0, hat3(r)]]."""
    xi = np.asarray(xi, dtype=float)
    out = np.zeros((6, 6))
    out[:3, :3] = hat3(xi[3:])
    out[:3, 3:] = hat3(xi[:3])
    out[3:, 3:] = hat3(xi[3:])
    return out


def se3_left_jacobian(xi: np.ndarray) -> np.ndarray:
    """6x6 left Jacobian of SE(3), [[J, Q], [0, J]] with J = J_l(r), in closed form.

    Q = p/2 + q1 (k p + p k - d k) + q2 (k^2 p + p k^2 + 3 d k) - 2 q3 d k^2 is
    Barfoot & Furgale's coupling block (IEEE T-RO 2014), reduced by k p k = -d k
    for k = hat(r), p = hat(rho), d = r . rho. At a = |r|, q1 = (a - sin a)/a^3 =
    c2, q2 = (a^2 + 2 cos a - 2)/(2 a^4) = (1/2 - c1)/a^2 and q3 = (2a - 3 sin a
    + a cos a)/(2 a^5) = (3 c2 - c1)/(2 a^2); below 0.2 rad, where those forms
    cancel, q1..q3 come from Taylor series up to a^8.
    """
    rho, r = np.asarray(xi, dtype=float).reshape(2, 3)
    angle = np.linalg.norm(r)
    k, p = hat3(r), hat3(rho)
    k2, kp = k @ k, k @ p
    k2p = k @ kp
    d = r @ rho
    c1, c2 = _so3_jacobian_coeffs(angle)
    a2 = angle * angle
    if angle < _Q_TAYLOR_ANGLE:
        q1 = 1 / 6 - a2 * (1 / 120 - a2 * (1 / 5040 - a2 * (1 / 362880 - a2 / 39916800)))
        q2 = 1 / 24 - a2 * (1 / 720 - a2 * (1 / 40320 - a2 * (1 / 3628800 - a2 / 479001600)))
        q3 = 1 / 120 - a2 * (1 / 2520 - a2 * (1 / 120960 - a2 * (1 / 9979200 - a2 / 1245404160)))
    else:
        q1, q2, q3 = c2, (0.5 - c1) / a2, (3.0 * c2 - c1) / (2.0 * a2)
    out = np.zeros((6, 6))
    out[:3, :3] = out[3:, 3:] = np.eye(3) + c1 * k + c2 * k2
    # p k = (k p)^T and p k^2 = -(k^2 p)^T because k and p are skew
    out[:3, 3:] = 0.5 * p + q1 * (kp + kp.T - d * k) + q2 * (k2p - k2p.T + 3.0 * d * k) - 2.0 * q3 * d * k2
    return out

