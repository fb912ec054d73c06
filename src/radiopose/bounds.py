"""Intrinsic error-bound pipeline for the 6D state.

Steps: project the unconstrained channel-parameter FIM onto the tangent
spaces of the unit-sphere direction vectors, Schur-complement away the
complex gains, map to the 6D state tangent [position(3), rotation(3)]
through the geometry Jacobian, invert, and read off PEB/RMEB. A final
transform converts the state-domain covariance into the [rho, r] tangent
covariance consumed by the tracking filters.

Stacked parameter order, as ``channel.fim_unconstrained`` builds it: all
delays, then per anchor the UE-side and anchor-side direction vectors, then
per-anchor Re/Im gains. After projection each direction vector contributes
two tangent coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    BeamSet,
    SignalConfig,
    _los_geometry,
    channel_params,
    fim_unconstrained,
)
from .errors import SingularNuisanceBlock, UnobservableState
from .lie import Pose, _readonly, hat3

_COND_LIMIT = 1e12


def tangent_basis(direction: np.ndarray) -> np.ndarray:
    """2x3 orthonormal basis of the tangent plane at a unit direction vector.

    Rows e1, e2 satisfy B @ t = 0 and B @ B.T = I. e1 = normalize(a x t)
    where a is the coordinate axis least aligned with t (ties toward z, so
    t = +z yields rows [1,0,0], [0,1,0]); e2 = t x e1.
    """
    t = np.asarray(direction, dtype=float)
    aligned = np.abs(t)
    axis_idx = 2 - int(np.argmin(aligned[::-1]))
    a = np.zeros(3)
    a[axis_idx] = 1.0
    e1 = np.cross(a, t)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(t, e1)
    return np.vstack([e1, e2])


def _direction_list(params) -> list:
    """Direction vectors in stacked order: per anchor (dir_ue, dir_bs)."""
    dirs = []
    for p in params:
        dirs.append(p.dir_ue)
        dirs.append(p.dir_bs)
    return dirs


def projection_matrix(params) -> np.ndarray:
    """Block-diagonal projector (7N x 9N): identity on delays and gains,
    a 2x3 tangent basis per direction vector."""
    n = len(params)
    dirs = _direction_list(params)
    out = np.zeros((7 * n, 9 * n))
    out[:n, :n] = np.eye(n)
    for k, d in enumerate(dirs):
        out[n + 2 * k : n + 2 * k + 2, n + 3 * k : n + 3 * k + 3] = tangent_basis(d)
    out[5 * n :, 7 * n :] = np.eye(2 * n)
    return out


def project_fim(f_unconstrained: np.ndarray, params) -> np.ndarray:
    """Project the (9N, 9N) unconstrained FIM onto the constraint manifold.

    Delays and gains are Euclidean and pass through unchanged; each
    direction vector is reduced to two tangent coordinates.
    """
    b = projection_matrix(params)
    out = b @ np.asarray(f_unconstrained, dtype=float) @ b.T
    return (out + out.T) / 2.0


def schur_complement_keep_top(f: np.ndarray, n_keep: int) -> np.ndarray:
    """Schur complement f_aa - f_ab f_bb^-1 f_ba keeping the leading block.

    A near-singular trailing block is ridge-regularized by 1e-12 * tr/2
    before the complement; if it stays singular, SingularNuisanceBlock is
    raised.
    """
    f = np.asarray(f, dtype=float)
    faa = f[:n_keep, :n_keep]
    fab = f[:n_keep, n_keep:]
    fbb = f[n_keep:, n_keep:]
    eig = np.linalg.eigvalsh(fbb)
    if eig[0] <= 0 or eig[-1] / eig[0] > 1e12:
        fbb = fbb + (1e-12 * np.trace(fbb) / 2.0) * np.eye(fbb.shape[0])
        eig = np.linalg.eigvalsh(fbb)
        if eig[0] <= 0:
            raise SingularNuisanceBlock("nuisance block singular after regularization")
    out = faa - fab @ np.linalg.solve(fbb, fab.T)
    return (out + out.T) / 2.0


def efim_remove_gains(f_projected: np.ndarray) -> np.ndarray:
    """Remove the trailing 2N gain rows of a (7N, 7N) projected FIM."""
    f = np.asarray(f_projected, dtype=float)
    if f.shape[0] % 7 != 0:
        raise ValueError("projected FIM must be (7N, 7N)")
    return schur_complement_keep_top(f, 5 * (f.shape[0] // 7))


def state_jacobian_tz(ue: Pose, anchors) -> np.ndarray:
    """(5N, 6) Jacobian of the projected channel parameters in the state tangent.

    Columns 1-3 differentiate against the global UE position, columns 4-6
    against a left rotation increment R <- exp(hat(theta)) R. Rows follow
    the gain-free stacked order: all delays, then per anchor two tangent
    coordinates for the UE-side direction and two for the anchor-side one.
    """
    n = len(anchors)
    r_u = ue.rotation
    out = np.zeros((5 * n, 6))
    for i, anchor in enumerate(anchors):
        u, dist = _los_geometry(ue, anchor)
        out[i, :3] = u / SPEED_OF_LIGHT

        proj = (np.eye(3) - np.outer(u, u)) / dist
        dir_ue = -(r_u.T @ u)
        dir_bs = anchor.orientation.T @ u
        # position sensitivity of both local directions
        d_ue_dp = -(r_u.T @ proj)
        d_bs_dp = anchor.orientation.T @ proj
        # left rotation increment: d dir_ue / d theta_j = R.T (e_j x u)
        d_ue_dth = r_u.T @ hat3(u).T  # columns e_j x u, via (hat(u).T)_j = e_j x u
        b_ue = tangent_basis(dir_ue)
        b_bs = tangent_basis(dir_bs)
        row = n + 4 * i
        out[row : row + 2, :3] = b_ue @ d_ue_dp
        out[row : row + 2, 3:] = b_ue @ d_ue_dth
        out[row + 2 : row + 4, :3] = b_bs @ d_bs_dp
    return out


def state_fim(f_z: np.ndarray, t_z: np.ndarray) -> np.ndarray:
    """6x6 state FIM T_z.T @ F_z @ T_z."""
    out = np.asarray(t_z).T @ np.asarray(f_z) @ np.asarray(t_z)
    return (out + out.T) / 2.0


@dataclass(frozen=True)
class IcrbReport:
    """Inverse state FIM with the scalar position / rotation error bounds."""

    icrb: np.ndarray  # 6x6 over [position(3), rotation tangent(3)], read-only copy
    peb_m: float
    rmeb_rad: float

    def __post_init__(self):
        object.__setattr__(self, "icrb", _readonly(self.icrb))

    @cached_property
    def icrb_sqrt(self) -> np.ndarray:
        """Factor S with S @ S.T = icrb from its eigendecomposition, computed
        once per report and shared by every measurement drawn from it."""
        eig, vec = np.linalg.eigh((self.icrb + self.icrb.T) / 2.0)
        return _readonly(vec * np.sqrt(np.clip(eig, 0.0, None)))


def icrb_report(f_x: np.ndarray) -> IcrbReport:
    """Invert the state FIM and derive PEB/RMEB.

    Raises UnobservableState when the FIM condition number exceeds ``_COND_LIMIT``
    (1e12), which signals insufficient anchors or degenerate geometry.
    """
    f = np.asarray(f_x, dtype=float)
    eig, vec = np.linalg.eigh((f + f.T) / 2.0)
    if eig[-1] <= 0 or eig[0] <= eig[-1] / _COND_LIMIT:
        raise UnobservableState(
            f"state FIM condition number exceeds {_COND_LIMIT:.1e}; geometry unobservable"
        )
    icrb = (vec / eig) @ vec.T
    icrb = (icrb + icrb.T) / 2.0
    return IcrbReport(
        icrb=icrb,
        peb_m=float(np.sqrt(np.trace(icrb[:3, :3]))),
        rmeb_rad=float(np.sqrt(np.trace(icrb[3:, 3:]))),
    )


def translation_block_wrt_rotvec(rho: np.ndarray, r: np.ndarray) -> np.ndarray:
    """3x3 partial derivative of J_l(r) @ rho with respect to r.

    Closed form built from the derivatives of the Rodrigues coefficients;
    below a small-angle threshold the series expansion
    -hat(rho)/2 - (hat(r x rho) + hat(r) hat(rho))/6 is used instead.
    """
    rho = np.asarray(rho, dtype=float)
    r = np.asarray(r, dtype=float)
    lam = np.linalg.norm(r)
    if lam < 1e-6:
        return -0.5 * hat3(rho) - (hat3(np.cross(r, rho)) + hat3(r) @ hat3(rho)) / 6.0

    zeta = r / lam
    if lam < 1e-2:
        a_coef = -lam / 3.0 + lam**3 / 30.0 - lam**5 / 840.0
        b_coef = 0.5 - lam**2 / 8.0 + lam**4 / 144.0
        e_scal = lam**2 / 6.0 - lam**4 / 120.0 + lam**6 / 5040.0
    else:
        a_coef = (np.cos(lam) * lam - np.sin(lam)) / lam**2
        b_coef = (np.sin(lam) * lam + np.cos(lam) - 1.0) / lam**2
        e_scal = 1.0 - np.sin(lam) / lam
    a_vec = zeta * a_coef  # d(sin lam / lam)/dr
    b_vec = zeta * b_coef  # d((1 - cos lam)/lam)/dr
    c_mat = (np.eye(3) - np.outer(zeta, zeta)) / lam  # d zeta_i / d r_j
    d_scal = float(rho @ zeta)
    f_scal = 2.0 * np.sin(lam / 2.0) ** 2 / lam  # (1 - cos lam) / lam

    cross = np.cross(zeta, rho)
    rho_c = rho @ c_mat  # sum_k rho_k C[k, j], shape (3,)
    out = np.empty((3, 3))
    for i in range(3):
        i2, i3 = (i + 1) % 3, (i + 2) % 3
        out[i] = (
            rho[i] * a_vec
            - a_vec * zeta[i] * d_scal
            + e_scal * zeta[i] * rho_c
            + c_mat[i] * d_scal * e_scal
            + b_vec * cross[i]
            + f_scal * (rho[i3] * c_mat[i2] - rho[i2] * c_mat[i3])
        )
    return out


def measurement_covariance(icrb: np.ndarray, rotation: np.ndarray) -> np.ndarray:
    """Map a 6x6 bound over [delta p, theta] into the [rho, r] tangent
    covariance used by the filters, at a measured rotation R.

    The bound lives in the coordinates ``state_jacobian_tz`` differentiates
    in: the global position offset delta p and the left rotation increment
    theta (R <- exp(hat(theta)) R). With b = R p, the left perturbation
    exp([rho, r]) moves the position by R.T J_r(r) rho and the rotation by
    r, so to first order rho = R delta p and r = theta: the map is
    T @ icrb @ T.T with T = diag(R, I3).
    """
    t = np.eye(6)
    t[:3, :3] = rotation
    out = t @ np.asarray(icrb, dtype=float) @ t.T
    return (out + out.T) / 2.0


def pose_error_bounds(
    ue: Pose, anchors, ue_array: ArrayGeometry, sig: SignalConfig, beams: BeamSet
) -> IcrbReport:
    """ICRB report (6x6 bound, PEB, RMEB) for one pose and signal setup: the
    full pipeline from the signal model through the 6x6 state FIM."""
    params = [channel_params(ue, a, sig) for a in anchors]
    f_raw = fim_unconstrained(ue, anchors, ue_array, sig, beams)
    f_z = efim_remove_gains(project_fim(f_raw, params))
    return icrb_report(state_fim(f_z, state_jacobian_tz(ue, anchors)))
