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

Every step takes leading batch axes (poses) in front of its matrices; an
unbatched call is the same code at batch size one. The pipeline runs once,
at unit FIM weight, and a transmit power only scales its result
(``pose_error_bounds``). Numerical failures stay per row: a batch marks a
failing row NaN and unobservable and carries on, where an unbatched call
raises.
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
    _unit_fim,
)
from .errors import RadioPoseError, SingularNuisanceBlock, UnobservableState
from .lie import Pose, _norm, _readonly, hat3

_COND_LIMIT = 1e12


def tangent_basis(direction: np.ndarray) -> np.ndarray:
    """(..., 2, 3) orthonormal bases of the tangent planes at unit direction
    vectors (..., 3).

    Rows e1, e2 satisfy B @ t = 0 and B @ B.T = I. e1 = normalize(a x t)
    where a is the coordinate axis least aligned with t (ties toward z, so
    t = +z yields rows [1,0,0], [0,1,0]); e2 = t x e1.
    """
    t = np.asarray(direction, dtype=float)
    axis = np.eye(3)[2 - np.argmin(np.abs(t)[..., ::-1], axis=-1)]
    e1 = np.matvec(hat3(axis), t)
    e1 /= _norm(e1)[..., None]
    return np.stack([e1, np.matvec(hat3(t), e1)], axis=-2)


def project_fim(f_unconstrained: np.ndarray, params) -> np.ndarray:
    """Project the (..., 9N, 9N) unconstrained FIM onto the constraint manifold.

    Delays and gains are Euclidean and pass through unchanged; each
    direction vector (per anchor dir_ue, then dir_bs) is reduced to two
    tangent coordinates by a block-diagonal (7N, 9N) projector built from
    the ``params``, with the leading axes of the poses.
    """
    n = len(params)
    dirs = np.stack([d for p in params for d in (p.dir_ue, p.dir_bs)], axis=-2)  # (..., 2N, 3)
    b = np.zeros(dirs.shape[:-2] + (7 * n, 9 * n))
    b[..., :n, :n] = np.eye(n)
    # direction k: tangent rows n + 2k + (0, 1), columns n + 3k + (0, 1, 2)
    k = np.arange(2 * n)[:, None, None]
    b[..., n + 2 * k + np.arange(2)[:, None], n + 3 * k + np.arange(3)] = tangent_basis(dirs)
    b[..., 5 * n :, 7 * n :] = np.eye(2 * n)
    out = b @ np.asarray(f_unconstrained, dtype=float) @ b.mT
    return (out + out.mT) / 2.0


def schur_complement_keep_top(f: np.ndarray, n_keep: int) -> np.ndarray:
    """Schur complement f_aa - f_ab f_bb^-1 f_ba keeping the leading block,
    row by row over leading axes.

    A row whose trailing block is near-singular is ridge-regularized by
    1e-12 * tr/2 before the complement, and only that row. A row whose block
    stays singular comes out NaN; an unbatched call raises
    SingularNuisanceBlock instead.
    """
    f = np.asarray(f, dtype=float)
    faa = f[..., :n_keep, :n_keep]
    fab = f[..., :n_keep, n_keep:]
    fbb = f[..., n_keep:, n_keep:]
    eye = np.eye(fbb.shape[-1])
    eig = np.linalg.eigvalsh(fbb)
    ridge = (eig[..., 0] <= 0) | (eig[..., -1] > 1e12 * eig[..., 0])
    if ridge.any():
        shift = np.where(ridge, 1e-12 * np.trace(fbb, axis1=-2, axis2=-1) / 2.0, 0.0)
        fbb = fbb + shift[..., None, None] * eye
        eig = np.linalg.eigvalsh(fbb)
    singular = (eig[..., 0] <= 0)[..., None, None]
    if singular.any():
        if f.ndim == 2:
            raise SingularNuisanceBlock("nuisance block singular after regularization")
        fbb = np.where(singular, eye, fbb)
    out = faa - fab @ np.linalg.solve(fbb, fab.mT)
    return np.where(singular, np.nan, (out + out.mT) / 2.0)


def efim_remove_gains(f_projected: np.ndarray) -> np.ndarray:
    """Remove the trailing 2N gain rows of a (..., 7N, 7N) projected FIM."""
    f = np.asarray(f_projected, dtype=float)
    if f.shape[-1] % 7 != 0:
        raise ValueError("projected FIM must be (7N, 7N)")
    return schur_complement_keep_top(f, 5 * (f.shape[-1] // 7))


def state_jacobian_tz(ue: Pose, anchors) -> np.ndarray:
    """(..., 5N, 6) Jacobian of the projected channel parameters in the state
    tangent, over the leading axes of the pose.

    Columns 1-3 differentiate against the global UE position, columns 4-6
    against a left rotation increment R <- exp(hat(theta)) R. Rows follow
    the gain-free stacked order: all delays, then per anchor two tangent
    coordinates for the UE-side direction and two for the anchor-side one.
    """
    n = len(anchors)
    r_ut = ue.rotation.mT[..., None, :, :]  # (..., 1, 3, 3), against the anchor axis
    r_bst = np.stack([a.orientation.T for a in anchors])  # (N, 3, 3)
    u, dist = _los_geometry(ue.position[..., None, :], np.stack([a.position for a in anchors]))
    proj = (np.eye(3) - u[..., :, None] * u[..., None, :]) / dist[..., None, None]
    # (..., N, 2, 2, 3): per anchor the tangent bases of dir_ue and dir_bs
    bases = tangent_basis(np.stack([-np.matvec(r_ut, u), np.matvec(r_bst, u)], axis=-2))
    b_ue, b_bs = bases[..., 0, :, :], bases[..., 1, :, :]
    out = np.zeros(u.shape[:-2] + (5 * n, 6))
    out[..., :n, :3] = u / SPEED_OF_LIGHT
    rows = np.zeros(u.shape[:-1] + (4, 6))  # (..., N, 4, 6)
    # position sensitivity of both local directions
    rows[..., :2, :3] = b_ue @ -(r_ut @ proj)
    # left rotation increment: d dir_ue / d theta_j = R.T (e_j x u), the
    # columns of R.T hat(u).T
    rows[..., :2, 3:] = b_ue @ (r_ut @ hat3(u).mT)
    rows[..., 2:, :3] = b_bs @ (r_bst @ proj)
    out[..., n:, :] = rows.reshape(rows.shape[:-3] + (4 * n, 6))
    return out


def state_fim(f_z: np.ndarray, t_z: np.ndarray) -> np.ndarray:
    """(..., 6, 6) state FIM T_z.T @ F_z @ T_z."""
    t_z = np.asarray(t_z)
    out = t_z.mT @ np.asarray(f_z) @ t_z
    return (out + out.mT) / 2.0


@dataclass(frozen=True)
class IcrbReport:
    """Inverse state FIM with the scalar position / rotation error bounds, for
    one pose or with leading axes (a batch of rows); indexing selects rows.

    An unobservable row of a batch has ``observable`` False and NaN in its
    bound and its error bounds.
    """

    icrb: np.ndarray  # (..., 6, 6) over [position(3), rotation tangent(3)], read-only copy
    peb_m: float | np.ndarray
    rmeb_rad: float | np.ndarray
    observable: bool | np.ndarray = True

    def __post_init__(self):
        object.__setattr__(self, "icrb", _readonly(self.icrb))

    def __getitem__(self, index) -> "IcrbReport":
        return IcrbReport(self.icrb[index], self.peb_m[index], self.rmeb_rad[index], self.observable[index])

    @cached_property
    def icrb_sqrt(self) -> np.ndarray:
        """Factor S with S @ S.T = icrb from its eigendecomposition, computed
        once per report and shared by every measurement drawn from it; NaN on
        unobservable rows."""
        ok = np.asarray(self.observable)[..., None, None]
        eig, vec = np.linalg.eigh(np.where(ok, (self.icrb + self.icrb.mT) / 2.0, 0.0))
        return _readonly(np.where(ok, vec * np.sqrt(np.clip(eig, 0.0, None))[..., None, :], np.nan))


def icrb_report(f_x: np.ndarray) -> IcrbReport:
    """Invert the state FIM (..., 6, 6) and derive PEB/RMEB.

    A row is unobservable when its FIM is not finite or its condition number
    exceeds ``_COND_LIMIT`` (1e12), which signals insufficient anchors or
    degenerate geometry: an unbatched call raises UnobservableState, a batch
    flags the row.
    """
    f = np.asarray(f_x, dtype=float)
    finite = np.isfinite(f).all(axis=(-2, -1))
    f = np.where(finite[..., None, None], (f + f.mT) / 2.0, np.eye(6))
    eig, vec = np.linalg.eigh(f)
    observable = finite & (eig[..., -1] > 0) & (eig[..., 0] > eig[..., -1] / _COND_LIMIT)
    if f.ndim == 2 and not observable:
        raise UnobservableState(
            f"state FIM condition number exceeds {_COND_LIMIT:.1e}; geometry unobservable"
        )
    icrb = (vec / np.where(observable[..., None], eig, 1.0)[..., None, :]) @ vec.mT
    icrb = np.where(observable[..., None, None], (icrb + icrb.mT) / 2.0, np.nan)
    return IcrbReport(
        icrb=icrb,
        peb_m=np.sqrt(np.trace(icrb[..., :3, :3], axis1=-2, axis2=-1)),
        rmeb_rad=np.sqrt(np.trace(icrb[..., 3:, 3:], axis1=-2, axis2=-1)),
        observable=observable,
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
    T @ icrb @ T.T with T = diag(R, I3). Both arguments broadcast over
    leading axes. A map that is not finite, as where it overflows, raises
    RadioPoseError without numpy warnings.
    """
    rotation = np.asarray(rotation, dtype=float)
    t = np.zeros(rotation.shape[:-2] + (6, 6))
    t[..., :3, :3] = rotation
    t[..., 3:, 3:] = np.eye(3)
    with np.errstate(over="ignore", invalid="ignore"):
        out = t @ np.asarray(icrb, dtype=float) @ t.mT
        out = (out + out.mT) / 2.0
    if not np.isfinite(out).all():
        raise RadioPoseError("measurement covariance is not finite: the bound overflows at the measured pose")
    return out


def pose_error_bounds(
    ue: Pose, anchors, ue_array: ArrayGeometry, sig: SignalConfig, beams: BeamSet, powers_dbm=None
) -> IcrbReport:
    """ICRB report (6x6 bound, PEB, RMEB) for one pose and signal setup: the
    full pipeline from the signal model through the 6x6 state FIM. A pose
    with leading axes gives a report with those axes, whose unobservable
    rows are flagged rather than raised.

    The pipeline runs once, at unit FIM weight; as the FIM is linear in the
    weight w of a transmit power (``channel._unit_fim``), the report at the
    power of ``sig``, or at each of ``powers_dbm`` on a power axis in front,
    is the unit report scaled: icrb / w, PEB and RMEB / sqrt(w). A scaled
    bound that is not finite, as at w = 0, is an unobservable row (an
    unbatched call raises SingularNuisanceBlock)."""
    sweep = powers_dbm is not None
    powers = powers_dbm if sweep else [sig.tx_power_dbm]
    params, unit, weight = _unit_fim(ue, anchors, ue_array, sig, beams, powers)
    # a sweep's powers broadcast along a row axis in front: a batch, which
    # flags its rows even at one pose
    unit = unit[None] if sweep else unit
    weight = weight.reshape(weight.shape + (1,) * (unit.ndim - 3)) if sweep else weight[0]
    f_z = efim_remove_gains(project_fim(unit, params))
    report = icrb_report(state_fim(f_z, state_jacobian_tz(ue, anchors)))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ok = report.observable & np.isfinite(report.icrb / weight[..., None, None]).all(axis=(-2, -1))
    if ok.ndim == 0 and not ok:
        raise SingularNuisanceBlock(f"bound is not finite at FIM weight {weight:g}: no information")
    weight = np.where(ok, weight, np.nan)  # NaN bounds in the rows that are not ok
    root = np.sqrt(weight)
    return IcrbReport(report.icrb / weight[..., None, None], report.peb_m / root, report.rmeb_rad / root, ok)
