"""Reference helpers shared by the tests: independent forms of quantities the
library computes another way, and conversions only the tests need."""

import numpy as np

from radiopose import bounds, channel, lie


def pose_from_matrix(m) -> lie.Pose:
    """Pose of a homogeneous 4x4 transform."""
    m = np.asarray(m, dtype=float)
    if m.shape != (4, 4) or np.any(np.abs(m[3] - np.array([0, 0, 0, 1.0])) > 1e-12):
        raise ValueError("expected a homogeneous 4x4 transform")
    return lie.Pose(m[:3, :3], m[:3, 3])


def small_adjoint(xi) -> np.ndarray:
    """6x6 algebra adjoint [[hat3(r), hat3(rho)], [0, hat3(r)]] of xi = [rho, r]."""
    xi = np.asarray(xi, dtype=float)
    out = np.zeros((6, 6))
    out[:3, :3] = out[3:, 3:] = lie.hat3(xi[3:])
    out[:3, 3:] = lie.hat3(xi[:3])
    return out


def se3_left_jacobian_inv(xi) -> np.ndarray:
    """Inverse of the SE(3) left Jacobian at xi = [rho, r], by numerical inversion."""
    return np.linalg.inv(lie.se3_left_jacobian(xi))


def so3_log_row_loop(rot) -> np.ndarray:
    """The SO(3) log of rotation matrices (..., 3, 3) with the ratio
    angle / sin(angle) replaced by its Taylor series below 1e-8 rad and the
    rows within ``lie._NEAR_PI`` of pi taken one at a time in a Python loop:
    the per-row form that ``lie._so3_log`` computes in one pass."""
    rot = np.asarray(rot, dtype=float)
    terms = rot.reshape(rot.shape[:-2] + (9,)) @ lie._LOG_TERMS
    s = terms[..., :3] / 2.0
    cos_angle = (terms[..., 3] - 1.0) / 2.0
    angle = np.arctan2(lie._norm(s), cos_angle)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(angle < 1e-8, 1.0 + angle**2 / 6.0 + 7.0 * angle**4 / 360.0, angle / np.sin(angle))
    out = s * ratio[..., None]
    rows, logs = rot.reshape(-1, 3, 3), out.reshape(-1, 3)
    cos_rows, angles, halves = np.ravel(cos_angle), np.ravel(angle), s.reshape(-1, 3)
    for i in np.flatnonzero(angles > np.pi - lie._NEAR_PI):
        m, c = rows[i], cos_rows[i]
        aat = ((m + m.T) / 2.0 - c * np.eye(3)) / (1.0 - c)
        col = int(np.argmax(np.diag(aat)))
        axis = aat[:, col] / np.sqrt(aat[col, col])
        lead = int(np.argmax(np.abs(halves[i])))
        if halves[i, lead] * axis[lead] < 0:
            axis = -axis
        logs[i] = angles[i] * axis
    return out


def fim_direction_from_angles(angle_fim, direction) -> np.ndarray:
    """Pull a 2x2 azimuth/elevation FIM back to the 3d direction vector.

    Returns J_t.T @ F_angles @ J_t, a rank <= 2 matrix.
    """
    jac = channel.angle_jacobian(direction)
    angle_fim = np.asarray(angle_fim, dtype=float)
    if angle_fim.shape != (2, 2):
        raise ValueError("angle_fim must be 2x2 (azimuth, elevation)")
    return jac.T @ angle_fim @ jac


def direction_wrt_angles(direction) -> np.ndarray:
    """3x2 derivative of the unit vector with respect to (azimuth, elevation)."""
    t = np.asarray(direction, dtype=float)
    az = np.arctan2(t[1], t[0])
    el = np.arcsin(np.clip(t[2], -1.0, 1.0))
    return np.array(
        [
            [-np.cos(el) * np.sin(az), -np.sin(el) * np.cos(az)],
            [np.cos(el) * np.cos(az), -np.sin(el) * np.sin(az)],
            [0.0, np.cos(el)],
        ]
    )


def fim_angles_per_anchor(fim_anchor, dir_ue, dir_bs) -> np.ndarray:
    """Re-parametrize one anchor's 9x9 FIM over
    [tau, t_ue(3), t_bs(3), Re gain, Im gain] into the 7x7 angle-domain FIM
    over [tau, az/el at the anchor, az/el at the UE, Re gain, Im gain]."""
    fim_anchor = np.asarray(fim_anchor, dtype=float)
    if fim_anchor.shape != (channel.PARAMS_PER_ANCHOR, channel.PARAMS_PER_ANCHOR):
        raise ValueError("expected a per-anchor 9x9 FIM")
    m = np.zeros((channel.PARAMS_PER_ANCHOR, 7))
    m[0, 0] = 1.0
    m[4:7, 1:3] = direction_wrt_angles(dir_bs)
    m[1:4, 3:5] = direction_wrt_angles(dir_ue)
    m[7:, 5:] = np.eye(2)
    out = m.T @ fim_anchor @ m
    return (out + out.T) / 2.0


def signal_of(z, ue, anchors, ue_array, sig, beams):
    """Noise-free received signal, flattened, at state offset z[:6] = [delta p,
    theta] from ``ue`` with anchor n's gain z[6 + 2n] + j z[7 + 2n]."""
    pose = lie.Pose.from_rotation_position(lie.so3_exp(z[3:6]) @ ue.rotation, ue.position + z[:3])
    out = []
    for n, anchor in enumerate(anchors):
        par = channel.channel_params(pose, anchor, sig)
        a_ue = channel.steering_vector(ue_array, par.dir_ue, sig.carrier_hz)
        a_bs = channel.steering_vector(anchor.array, par.dir_bs, sig.carrier_hz)
        beam = (beams.combiners[n] @ a_ue) * (beams.precoders[n] @ a_bs)
        gain = z[6 + 2 * n] + 1j * z[7 + 2 * n]
        phases = channel._subcarrier_phases(par.delay_s, sig)
        out.append(gain * sig.subcarrier_amplitude * np.outer(beam, phases).ravel())
    return np.concatenate(out)


def gain_schur_complement(f, n_keep):
    """Schur complement of a (..., M, M) FIM keeping its leading ``n_keep``
    rows, with the trailing gain rows removed as one block: where that block's
    smallest eigenvalue is <= 0 or its condition number exceeds 1e12, it first
    gets the ridge 1e-12 * tr/2."""
    f = np.asarray(f, dtype=float)
    faa, fab, fbb = f[..., :n_keep, :n_keep], f[..., :n_keep, n_keep:], f[..., n_keep:, n_keep:]
    eig = np.linalg.eigvalsh(fbb)
    ridge = (eig[..., 0] <= 0) | (eig[..., -1] > 1e12 * eig[..., 0])
    shift = np.where(ridge, 1e-12 * np.trace(fbb, axis1=-2, axis2=-1) / 2.0, 0.0)
    fbb = fbb + shift[..., None, None] * np.eye(fbb.shape[-1])
    return faa - fab @ np.linalg.solve(fbb, fab.mT)


def intrinsic_bound(ue, anchors, ue_array, sig, beams) -> np.ndarray:
    """The 6x6 bound in its intrinsic form, over the leading axes of ``ue``:
    the unconstrained FIM projected onto the tangent planes of the direction
    spheres, the 2N gain rows removed as one block, the result mapped to the
    state by ``state_jacobian_tz`` and inverted by ``icrb_report``."""
    params = [channel.channel_params(ue, a, sig) for a in anchors]
    f_z = bounds.project_fim(channel.fim_unconstrained(ue, anchors, ue_array, sig, beams), params)
    f_z = gain_schur_complement(f_z, 5 * len(anchors))
    tz = bounds.state_jacobian_tz(ue, anchors)
    return bounds.icrb_report(tz.mT @ f_z @ tz).icrb
