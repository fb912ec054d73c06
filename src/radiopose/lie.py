"""SO(3)/SE(3) primitives: hat/vee, exp/log maps, Jacobians, adjoints, BCH.

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
_SMALL_JACOBIAN_ANGLE = 1e-6
_NEAR_PI = 1e-6


def hat3(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix of a 3-vector, so that hat3(v) @ w == cross(v, w)."""
    x, y, z = np.asarray(v, dtype=float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def vee3(m: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Inverse of hat3. Raises NotSkew if m is not skew-symmetric within tol."""
    m = np.asarray(m, dtype=float)
    if np.linalg.norm(m + m.T) >= tol:
        raise NotSkew(f"matrix is not skew-symmetric within {tol}")
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
    """Axis-angle vector of a rotation matrix, with norm in [0, pi].

    The generic branch evaluates angle/(2 sin angle) times the antisymmetric
    part. Near zero that ratio is replaced by its Taylor expansion; near pi
    the axis is extracted from the dominant column of (R + I)/2 and its sign
    fixed against the largest component of the antisymmetric residual.
    """
    rot = np.asarray(rot, dtype=float)
    require_rotation(rot)
    s = np.array([rot[2, 1] - rot[1, 2], rot[0, 2] - rot[2, 0], rot[1, 0] - rot[0, 1]]) / 2.0
    cos_angle = np.clip((np.trace(rot) - 1.0) / 2.0, -1.0, 1.0)
    angle = np.arctan2(np.linalg.norm(s), cos_angle)

    if angle < _SMALL_ANGLE:
        # r = (angle / sin angle) * s with the ratio expanded around 0.
        return s * (1.0 + angle**2 / 6.0 + 7.0 * angle**4 / 360.0)
    if angle > np.pi - _NEAR_PI:
        # symmetric part of (R + I)/2; the antisymmetric residual s is kept
        # for the sign but would pollute the axis direction at O(pi - angle)
        sym = (rot + rot.T + 2.0 * np.eye(3)) / 4.0
        col = int(np.argmax(np.diag(sym)))
        axis = sym[:, col] / np.linalg.norm(sym[:, col])
        # sin(angle) * axis equals the antisymmetric residual s; use its
        # largest component to resolve the sign ambiguity of the column.
        lead = int(np.argmax(np.abs(s)))
        if np.abs(s[lead]) > 0 and np.sign(s[lead]) != np.sign(axis[lead]):
            axis = -axis
        return angle * axis
    return s * (angle / np.sin(angle))


def so3_left_jacobian(r: np.ndarray) -> np.ndarray:
    """Left Jacobian of SO(3) relating algebra increments to group perturbations.

    Below 1e-6 the matrix series is truncated at second order; between
    1e-6 and 1e-2 the scalar coefficients come from their Taylor series
    (the closed forms lose digits to cancellation there).
    """
    r = np.asarray(r, dtype=float)
    angle = np.linalg.norm(r)
    k = hat3(r)
    if angle < _SMALL_JACOBIAN_ANGLE:
        return np.eye(3) + 0.5 * k + (k @ k) / 6.0
    k2 = k @ k
    a2 = angle * angle
    if angle < 1e-2:
        c1 = 0.5 - a2 / 24.0 + a2 * a2 / 720.0  # (1 - cos a) / a^2
        c2 = 1.0 / 6.0 - a2 / 120.0 + a2 * a2 / 5040.0  # (a - sin a) / a^3
    else:
        c1 = 2.0 * np.sin(angle / 2.0) ** 2 / a2
        c2 = (angle - np.sin(angle)) / (a2 * angle)
    return np.eye(3) + c1 * k + c2 * k2


def require_rotation(m: np.ndarray, tol: float = 1e-10) -> None:
    """Check orthonormality and unit determinant of a 3x3 matrix."""
    m = np.asarray(m)
    if m.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {m.shape}")
    if np.linalg.norm(m.T @ m - np.eye(3)) > tol:
        raise ValueError("matrix is not orthonormal within tolerance")
    if abs(np.linalg.det(m) - 1.0) > tol:
        raise ValueError("matrix determinant is not +1 within tolerance")


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Pose:
    """Rigid transform with the translation block convention b = R @ p."""

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
        return Pose(self.rotation.T, -(self.rotation.T @ self.translation_block))

    def __matmul__(self, other: "Pose") -> "Pose":
        return Pose(
            self.rotation @ other.rotation,
            self.rotation @ other.translation_block + self.translation_block,
        )


def se3_hat(xi: np.ndarray) -> np.ndarray:
    """4x4 algebra element [[hat3(r), rho], [0, 0]] for xi = [rho, r]."""
    xi = np.asarray(xi, dtype=float)
    out = np.zeros((4, 4))
    out[:3, :3] = hat3(xi[3:])
    out[:3, 3] = xi[:3]
    return out


def se3_vee(m: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Inverse of se3_hat."""
    m = np.asarray(m, dtype=float)
    return np.concatenate([m[:3, 3], vee3(m[:3, :3], tol=tol)])


def se3_exp(xi: np.ndarray) -> Pose:
    """Exponential map of SE(3): rotation by r, translation block J_l(r) @ rho."""
    xi = np.asarray(xi, dtype=float)
    rho, r = xi[:3], xi[3:]
    return Pose(so3_exp(r), so3_left_jacobian(r) @ rho)


def se3_log(pose: Pose) -> np.ndarray:
    """Logarithm of SE(3): xi = [rho, r] with rho solved from b = J_l(r) @ rho.

    Raises NearPiRotation when the rotation angle is within 1e-6 of pi,
    where J_l becomes badly conditioned.
    """
    r = so3_log(pose.rotation)
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
    """6x6 left Jacobian of SE(3).

    Sums small_adjoint powers / (n+1)! until the relative size of the next
    term drops below 1e-14.
    """
    ad = small_adjoint(xi)
    acc = np.eye(6)
    term = np.eye(6)
    for n in range(1, 80):
        term = term @ ad / (n + 1)
        acc = acc + term
        if np.linalg.norm(term) <= 1e-14 * np.linalg.norm(acc):
            break
    return acc


def se3_right_jacobian(xi: np.ndarray) -> np.ndarray:
    """Right Jacobian of SE(3), obtained as the left Jacobian at -xi."""
    return se3_left_jacobian(-np.asarray(xi, dtype=float))


def bch_compose_small(xi1: np.ndarray, xi2: np.ndarray, which_small: str = "second") -> np.ndarray:
    """First-order BCH approximation of log(exp(xi1) exp(xi2)).

    The argument named by ``which_small`` must be small (norm < 0.1) for the
    quadratic error bound to hold.
    """
    xi1 = np.asarray(xi1, dtype=float)
    xi2 = np.asarray(xi2, dtype=float)
    if which_small == "first":
        return np.linalg.solve(se3_left_jacobian(xi2), xi1) + xi2
    if which_small == "second":
        return xi1 + np.linalg.solve(se3_right_jacobian(xi1), xi2)
    raise ValueError(f"which_small must be 'first' or 'second', got {which_small!r}")
