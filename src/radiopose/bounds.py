"""Intrinsic error-bound pipeline for the 6D state.

Steps, per anchor: Schur-complement the complex gain out of the anchor's
9x9 unconstrained FIM block and map the rest, over [tau, t_ue, t_bs], to the
6D state tangent [position(3), rotation(3)] by the chain rule; sum over
anchors, invert, and read off PEB/RMEB. A final transform converts the
bound into the [rho, r] tangent covariance of the tracking filters.

The intrinsic form projects each unit direction t onto two tangent
coordinates (``tangent_basis``, ``project_fim``, ``state_jacobian_tz``). The
pipeline skips it: for a tangent basis B, B.T B = I - t t.T, and the chain
Jacobian's direction columns lie in the tangent plane, so T_z.T B F B.T T_z = J.T F J.

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
    _local_directions,
    _los_geometry,
    _unit_fim,
)
from .errors import RadioPoseError, SingularNuisanceBlock, UnobservableState
from .lie import (Pose, _coupling_block, _indexed, _left_jacobian, _norm, _readonly, _record, _so3_terms,
                  _symmetrize, hat3)

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
    return _symmetrize(b @ np.asarray(f_unconstrained, dtype=float) @ b.mT)


def efim_remove_gains(blocks: np.ndarray) -> np.ndarray:
    """Schur complement f_aa - f_ab f_bb^-1 f_ba removing the trailing two
    gain rows of each anchor's FIM block, (..., N, m, m) -> (..., N, m-2, m-2).

    A row whose whole 2N gain block (block-diagonal, so its eigenvalues are
    the anchors') is near-singular gets its ridge 1e-12 * tr/2 on every
    anchor, and only that row. A row whose block stays singular comes out
    NaN; an unbatched call, (N, m, m), raises SingularNuisanceBlock instead.
    """
    f = np.asarray(blocks, dtype=float)
    faa, fab, fbb = f[..., :-2, :-2], f[..., :-2, -2:], f[..., -2:, -2:]
    eye = np.eye(2)
    eig = np.linalg.eigvalsh(fbb)  # (..., N, 2)
    lowest = eig[..., 0].min(axis=-1)
    ridge = (lowest <= 0) | (eig[..., 1].max(axis=-1) > 1e12 * lowest)
    if ridge.any():
        shift = np.where(ridge, 1e-12 * np.trace(fbb, axis1=-2, axis2=-1).sum(axis=-1) / 2.0, 0.0)
        fbb = fbb + shift[..., None, None, None] * eye
        lowest = np.linalg.eigvalsh(fbb)[..., 0].min(axis=-1)
    singular = (lowest <= 0)[..., None, None, None]
    if singular.any():
        if f.ndim == 3:
            raise SingularNuisanceBlock("nuisance block singular after regularization")
        fbb = np.where(singular, eye, fbb)
    out = faa - fab @ np.linalg.solve(fbb, fab.mT)
    return np.where(singular, np.nan, _symmetrize(out))


def _chain_jacobian(ue: Pose, anchors, u: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """(..., N, 7, 6) derivative of each anchor's [tau, t_ue(3), t_bs(3)] at LOS unit
    vectors u (..., N, 3) and distances: columns 1-3 against the global UE
    position, 4-6 against a left rotation increment R <- exp(hat(theta)) R."""
    r_ut = ue.rotation.mT[..., None, :, :]  # (..., 1, 3, 3), against the anchor axis
    r_bst = np.stack([a.orientation.T for a in anchors])  # (N, 3, 3)
    proj = (np.eye(3) - u[..., :, None] * u[..., None, :]) / dist[..., None, None]
    out = np.zeros(u.shape[:-1] + (7, 6))
    out[..., 0, :3] = u / SPEED_OF_LIGHT
    # position sensitivity of both local directions
    out[..., 1:4, :3] = -(r_ut @ proj)
    # left rotation increment: d dir_ue / d theta_j = R.T (e_j x u), the
    # columns of R.T hat(u).T
    out[..., 1:4, 3:] = r_ut @ hat3(u).mT
    out[..., 4:, :3] = r_bst @ proj
    return out


def state_jacobian_tz(ue: Pose, anchors) -> np.ndarray:
    """(..., 5N, 6) ``_chain_jacobian`` of the projected channel parameters,
    its direction rows in each direction's ``tangent_basis``. Rows follow the
    gain-free order of ``project_fim``: all delays, then per anchor two
    tangent coordinates of the UE-side direction and two of the anchor-side one.
    """
    u, dist = _los_geometry(ue.position[..., None, :], np.stack([a.position for a in anchors]))
    jac = _chain_jacobian(ue, anchors, u, dist)
    dir_bs, dir_ue = _local_directions(ue.rotation[..., None, :, :], np.stack([a.orientation for a in anchors]), u)
    # (..., N, 4, 6): per anchor two tangent rows of dir_ue, then two of dir_bs
    rows = np.concatenate([tangent_basis(dir_ue) @ jac[..., 1:4, :], tangent_basis(dir_bs) @ jac[..., 4:, :]], -2)
    return np.concatenate([jac[..., 0, :], rows.reshape(rows.shape[:-3] + (4 * len(anchors), 6))], axis=-2)


def state_fim(e: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """(..., 6, 6) state FIM sum_n J_n.T @ E_n @ J_n over the anchor axis of
    gain-free blocks E (..., N, m, m) and their Jacobians J (..., N, m, 6);
    ``icrb_report`` symmetrizes it."""
    return (jac.mT @ e @ jac).sum(axis=-3)


@dataclass(frozen=True)
class IcrbReport:
    """Inverse state FIM with the scalar position / rotation error bounds, for
    one pose or with leading axes (a batch of rows); indexing selects rows
    (``lie._indexed``), read-only, and the slice carries ``icrb_sqrt`` if evaluated.

    An unobservable row of a batch has ``observable`` False and NaN in its
    bound and its error bounds.
    """

    icrb: np.ndarray  # (..., 6, 6) over [position(3), rotation tangent(3)], read-only
    peb_m: float | np.ndarray
    rmeb_rad: float | np.ndarray
    observable: bool | np.ndarray = True

    def __post_init__(self):
        object.__setattr__(self, "icrb", _readonly(self.icrb))

    __getitem__ = _indexed

    @cached_property
    def icrb_sqrt(self) -> np.ndarray:
        """Factor S with S @ S.T = icrb from its eigendecomposition, computed
        once per report and shared by every measurement drawn from it; NaN on
        unobservable rows."""
        ok = np.asarray(self.observable)[..., None, None]
        eig, vec = np.linalg.eigh(np.where(ok, _symmetrize(self.icrb), 0.0))
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
    f = np.where(finite[..., None, None], _symmetrize(f), np.eye(6))
    eig, vec = np.linalg.eigh(f)
    observable = finite & (eig[..., -1] > 0) & (eig[..., 0] > eig[..., -1] / _COND_LIMIT)
    if f.ndim == 2 and not observable:
        raise UnobservableState(
            f"state FIM condition number exceeds {_COND_LIMIT:.1e}; geometry unobservable"
        )
    icrb = (vec / np.where(observable[..., None], eig, 1.0)[..., None, :]) @ vec.mT
    icrb = np.where(observable[..., None, None], _symmetrize(icrb), np.nan)
    return _record(
        IcrbReport,
        icrb=icrb,
        peb_m=np.sqrt(np.trace(icrb[..., :3, :3], axis1=-2, axis2=-1)),
        rmeb_rad=np.sqrt(np.trace(icrb[..., 3:, 3:], axis1=-2, axis2=-1)),
        observable=observable,
    )


def translation_block_wrt_rotvec(rho: np.ndarray, r: np.ndarray) -> np.ndarray:
    """3x3 derivative of J_l(r) @ rho, the translation of exp([rho, r]), with
    respect to r, over their leading axes: Q - hat(J rho) J, with J = J_l(r) and Q
    the coupling block of the SE(3) left Jacobian [[J, Q], [0, J]] at [rho, r]
    (``lie._so3_terms``), as exp(xi + delta) = exp(J_l(xi) delta) exp(xi) to first order."""
    rho, r = np.asarray(rho, dtype=float), np.asarray(r, dtype=float)
    terms = _so3_terms(r)
    jac = _left_jacobian(terms)
    return _coupling_block(np.concatenate([rho, r], axis=-1), terms) - hat3(np.matvec(jac, rho)) @ jac


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
    RadioPoseError without numpy warnings. No study input is known to reach
    that check, as a sampled R is orthonormal; it guards direct calls.
    """
    rotation = np.asarray(rotation, dtype=float)
    t = np.zeros(rotation.shape[:-2] + (6, 6))
    t[..., :3, :3] = rotation
    t[..., 3:, 3:] = np.eye(3)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _symmetrize(t @ np.asarray(icrb, dtype=float) @ t.mT)
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
    (u, dist), blocks, weight = _unit_fim(ue, anchors, ue_array, sig, beams, powers)
    # a sweep's powers broadcast along a row axis in front: a batch, which
    # flags its rows even at one pose
    blocks = blocks[None] if sweep else blocks
    weight = weight.reshape(weight.shape + (1,) * (blocks.ndim - 4)) if sweep else weight[0]
    report = icrb_report(state_fim(efim_remove_gains(blocks), _chain_jacobian(ue, anchors, u, dist)))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        icrb = report.icrb / weight[..., None, None]
    ok = report.observable & np.isfinite(icrb).all(axis=(-2, -1))
    if ok.ndim == 0 and not ok:
        raise SingularNuisanceBlock(f"bound is not finite at FIM weight {weight:g}: no information")
    root = np.sqrt(np.where(ok, weight, np.nan))  # NaN bounds in the rows that are not ok
    return _record(IcrbReport, icrb=np.where(ok[..., None, None], icrb, np.nan), peb_m=report.peb_m / root,
                   rmeb_rad=report.rmeb_rad / root, observable=ok)
