"""Channel geometry for LOS MIMO-OFDM links: delays, direction vectors,
steering vectors, the noise-free received signal, and the unconstrained
Fisher information of the channel geometric parameters.

Anchors transmit orthogonally (time/frequency), so the received tensor and
the FIM are block-separable across anchors. Per anchor the unconstrained
parameter vector is [tau, t_ue(3), t_bs(3), Re(gain), Im(gain)]. The stacked
vector of N anchors is grouped by parameter kind: the N delays, then per
anchor the six direction components [t_ue, t_bs], then per anchor the two
gain components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoincidentPositions, PolarSingularity, RadioPoseError
from .lie import Pose, require_rotation

SPEED_OF_LIGHT = 299792458.0  # m/s

#: number of unconstrained parameters per anchor: tau, two 3d directions, Re/Im gain
PARAMS_PER_ANCHOR = 9


def dbm_to_watt(dbm: float) -> float:
    """Watts of a dBm power; inf where that overflows a float."""
    try:
        return 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:
        return np.inf


@dataclass(frozen=True)
class ArrayGeometry:
    """Antenna element positions in the local frame, centroid at the origin."""

    element_positions: np.ndarray  # (n_elements, 3), meters

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.element_positions, dtype=float))
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise ValueError("element_positions must be an (n, 3) array with n >= 1")
        if np.linalg.norm(pos.mean(axis=0)) > 1e-12:
            raise ValueError("array centroid must sit at the local origin")
        pos = pos.copy()
        pos.flags.writeable = False
        object.__setattr__(self, "element_positions", pos)

    @property
    def num_elements(self) -> int:
        return self.element_positions.shape[0]

    @classmethod
    def upa(cls, nx: int, ny: int, spacing_m: float) -> "ArrayGeometry":
        """Uniform planar array on the local x-y plane, centered grid."""
        ix = np.arange(nx) - (nx - 1) / 2.0
        iy = np.arange(ny) - (ny - 1) / 2.0
        gx, gy = np.meshgrid(ix, iy, indexing="ij")
        pos = np.column_stack([gx.ravel() * spacing_m, gy.ravel() * spacing_m, np.zeros(nx * ny)])
        return cls(pos)

    @classmethod
    def half_wavelength_upa(cls, nx: int, ny: int, carrier_hz: float) -> "ArrayGeometry":
        return cls.upa(nx, ny, 0.5 * SPEED_OF_LIGHT / carrier_hz)


@dataclass(frozen=True)
class AnchorConfig:
    """Fixed anchor (base station): known position, orientation, and array."""

    position: np.ndarray  # (3,), meters, global frame
    orientation: np.ndarray  # 3x3 rotation, local -> global
    array: ArrayGeometry

    def __post_init__(self):
        require_rotation(self.orientation)
        p = np.asarray(self.position, dtype=float)
        if p.shape != (3,) or not np.all(np.isfinite(p)):
            raise ValueError("anchor position must be a finite 3-vector")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "position", p)
        r = np.array(self.orientation, dtype=float)
        r.flags.writeable = False
        object.__setattr__(self, "orientation", r)


@dataclass(frozen=True)
class SignalConfig:
    """OFDM downlink signal parameters.

    ``bandwidth_hz`` sets the noise measurement bandwidth per received
    sample: sigma^2 = N0 * bandwidth_hz (converted from dBm/Hz). Transmit
    power is split evenly over subcarriers, |x|^2 = P / num_subcarriers.
    """

    carrier_hz: float
    subcarrier_spacing_hz: float
    num_subcarriers: int
    num_transmissions: int
    tx_power_dbm: float
    noise_psd_dbm_hz: float
    bandwidth_hz: float | None = None
    clock_bias_s: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.bandwidth_hz is None:
            object.__setattr__(
                self, "bandwidth_hz", self.num_subcarriers * self.subcarrier_spacing_hz
            )
        for name in ("carrier_hz", "subcarrier_spacing_hz", "tx_power_dbm", "noise_psd_dbm_hz",
                     "bandwidth_hz", "clock_bias_s"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        positive = {
            "carrier_hz": self.carrier_hz,
            "subcarrier_spacing_hz": self.subcarrier_spacing_hz,
            "bandwidth_hz": self.bandwidth_hz,
            "num_transmissions": self.num_transmissions,
        }
        for name, value in positive.items():
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.num_subcarriers < 2:
            raise ValueError("num_subcarriers must be >= 2 for delay identifiability")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be non-negative, got {self.rng_seed}")

    @property
    def noise_variance_w(self) -> float:
        """Per-sample complex noise variance in watts."""
        return dbm_to_watt(self.noise_psd_dbm_hz) * self.bandwidth_hz

    @property
    def subcarrier_amplitude(self) -> float:
        """Transmit amplitude per subcarrier, |x| = sqrt(P / C)."""
        return np.sqrt(dbm_to_watt(self.tx_power_dbm) / self.num_subcarriers)


@dataclass(frozen=True)
class ChannelParams:
    """Geometric observables of one anchor-UE link."""

    delay_s: float
    dir_ue: np.ndarray  # unit vector at the UE, local frame
    dir_bs: np.ndarray  # unit vector at the anchor, local frame
    gain: complex

    def __post_init__(self):
        for name in ("dir_ue", "dir_bs"):
            d = np.asarray(getattr(self, name), dtype=float)
            if abs(np.linalg.norm(d) - 1.0) > 1e-12:
                raise ValueError(f"{name} must be a unit vector")
            d = d.copy()
            d.flags.writeable = False
            object.__setattr__(self, name, d)


@dataclass(frozen=True)
class BeamSet:
    """Per-(anchor, transmission) unit-norm precoders and combiners."""

    precoders: tuple  # one (G, n_bs_elements) complex array per anchor
    combiners: tuple  # one (G, n_ue_elements) complex array per anchor


def draw_beams(anchors, ue_array: ArrayGeometry, sig: SignalConfig) -> BeamSet:
    """Draw random unit-norm complex Gaussian beams, reproducible from the seed."""
    rng = np.random.default_rng(sig.rng_seed)
    precoders = []
    combiners = []
    for anchor in anchors:
        shape_b = (sig.num_transmissions, anchor.array.num_elements)
        shape_u = (sig.num_transmissions, ue_array.num_elements)
        b = rng.standard_normal(shape_b) + 1j * rng.standard_normal(shape_b)
        u = rng.standard_normal(shape_u) + 1j * rng.standard_normal(shape_u)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        precoders.append(b)
        combiners.append(u)
    return BeamSet(tuple(precoders), tuple(combiners))


def _los_geometry(ue: Pose, anchor: AnchorConfig):
    """Unit vector u from the anchor toward the UE (global frame) and the
    distance of the LOS path; raises CoincidentPositions within 1e-6 m."""
    diff = ue.position - anchor.position
    dist = np.linalg.norm(diff)
    if dist <= 1e-6:
        raise CoincidentPositions("UE and anchor positions coincide")
    return diff / dist, dist


def direction_vectors(ue: Pose, anchor: AnchorConfig):
    """Local direction vectors (dir_bs, dir_ue) of the LOS path.

    dir_bs points from the anchor toward the UE in the anchor frame;
    dir_ue points from the UE toward the anchor in the UE frame, so that
    R_bs @ dir_bs = -R_ue @ dir_ue.
    """
    u, _ = _los_geometry(ue, anchor)
    return anchor.orientation.T @ u, -(ue.rotation.T @ u)


def delay(ue: Pose, anchor: AnchorConfig, clock_bias_s: float) -> float:
    """Signal delay: propagation time plus clock offset."""
    _, dist = _los_geometry(ue, anchor)
    return dist / SPEED_OF_LIGHT + clock_bias_s


def channel_params(ue: Pose, anchor: AnchorConfig, sig: SignalConfig) -> ChannelParams:
    """Delay, local directions and free-space LOS gain (amplitude lambda/(4 pi d),
    carrier propagation phase) of one link."""
    _, dist = _los_geometry(ue, anchor)
    dir_bs, dir_ue = direction_vectors(ue, anchor)
    amp = SPEED_OF_LIGHT / sig.carrier_hz / (4.0 * np.pi * dist)
    return ChannelParams(
        delay_s=delay(ue, anchor, sig.clock_bias_s),
        dir_ue=dir_ue,
        dir_bs=dir_bs,
        gain=amp * np.exp(-2j * np.pi * sig.carrier_hz * dist / SPEED_OF_LIGHT),
    )


def steering_vector(array: ArrayGeometry, direction: np.ndarray, carrier_hz: float) -> np.ndarray:
    """Array response exp(j 2 pi f_c / c * p_d . t), unit modulus per element."""
    direction = np.asarray(direction, dtype=float)
    phase = (2.0 * np.pi * carrier_hz / SPEED_OF_LIGHT) * (
        array.element_positions @ direction
    )
    return np.exp(1j * phase)


def _subcarrier_phases(delay_s: float, sig: SignalConfig) -> np.ndarray:
    c_idx = np.arange(sig.num_subcarriers)
    return np.exp(-2j * np.pi * delay_s * c_idx * sig.subcarrier_spacing_hz)


def noise_free_signal(ue, anchors, ue_array, sig, beams: BeamSet) -> np.ndarray:
    """Noise-free received tensor, shape (n_anchors, G, C).

    Entry (n, g, c) is gain * (combiner . a_ue) * (a_bs . precoder)
    * exp(-j 2 pi tau (c-1) df) * x, with x the per-subcarrier amplitude.
    """
    out = np.zeros((len(anchors), sig.num_transmissions, sig.num_subcarriers), dtype=complex)
    for n, anchor in enumerate(anchors):
        par = channel_params(ue, anchor, sig)
        a_ue = steering_vector(ue_array, par.dir_ue, sig.carrier_hz)
        a_bs = steering_vector(anchor.array, par.dir_bs, sig.carrier_hz)
        ue_gain = beams.combiners[n] @ a_ue  # (G,)
        bs_gain = beams.precoders[n] @ a_bs  # (G,)
        phases = _subcarrier_phases(par.delay_s, sig)  # (C,)
        out[n] = par.gain * sig.subcarrier_amplitude * np.outer(ue_gain * bs_gain, phases)
    return out


def _anchor_signal_gradient(ue, anchor, ue_array, sig, precoders, combiners) -> np.ndarray:
    """Closed-form d mu / d eta for one anchor, shape (9, G, C).

    eta = [tau, t_ue(3), t_bs(3), Re gain, Im gain]. Direction derivatives
    come from the steering phase gradients; tau and gain are elementary.
    """
    params = channel_params(ue, anchor, sig)
    kappa = 2.0 * np.pi * sig.carrier_hz / SPEED_OF_LIGHT
    a_ue = steering_vector(ue_array, params.dir_ue, sig.carrier_hz)
    a_bs = steering_vector(anchor.array, params.dir_bs, sig.carrier_hz)
    ue_gain = combiners @ a_ue  # (G,)
    bs_gain = precoders @ a_bs  # (G,)
    # gradient of (combiner . a_ue) wrt t_ue: j kappa P.T (combiner * a_ue)
    d_ue = 1j * kappa * (combiners * a_ue) @ ue_array.element_positions  # (G, 3)
    d_bs = 1j * kappa * (precoders * a_bs) @ anchor.array.element_positions  # (G, 3)

    phases = _subcarrier_phases(params.delay_s, sig)  # (C,)
    c_idx = np.arange(sig.num_subcarriers)
    x = sig.subcarrier_amplitude
    base_g = ue_gain * bs_gain  # (G,)

    grad = np.empty((PARAMS_PER_ANCHOR, sig.num_transmissions, sig.num_subcarriers), dtype=complex)
    mu = params.gain * x * np.outer(base_g, phases)
    grad[0] = mu * (-2j * np.pi * sig.subcarrier_spacing_hz * c_idx)[None, :]
    for m in range(3):
        grad[1 + m] = params.gain * x * np.outer(d_ue[:, m] * bs_gain, phases)
        grad[4 + m] = params.gain * x * np.outer(ue_gain * d_bs[:, m], phases)
    grad[7] = x * np.outer(base_g, phases)
    grad[8] = 1j * grad[7]
    return grad


def fim_unconstrained(ue, anchors, ue_array, sig, beams: BeamSet) -> np.ndarray:
    """Unconstrained FIM of the channel geometric parameters, (9N, 9N), in
    the grouped order of the module docstring.

    F = (2 / sigma^2) sum_{g,c} Re{conj(d mu / d eta) (d mu / d eta)^T} with
    both direction vectors carried as free 3-vectors; the sphere constraint
    is applied downstream. Symmetric PSD, linear in transmit power; a FIM
    that is not finite raises RadioPoseError, without numpy warnings.
    """
    n_anchors = len(anchors)
    size = PARAMS_PER_ANCHOR * n_anchors
    fim = np.zeros((size, size))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        weight = np.float64(2.0) / sig.noise_variance_w
        for n, anchor in enumerate(anchors):
            grad = _anchor_signal_gradient(ue, anchor, ue_array, sig, beams.precoders[n], beams.combiners[n])
            flat = grad.reshape(PARAMS_PER_ANCHOR, -1)
            block = weight * np.real(np.conj(flat) @ flat.T)
            # stacked positions of this anchor's [tau, t_ue, t_bs, Re gain, Im gain]
            dirs = n_anchors + 6 * n
            gains = 7 * n_anchors + 2 * n
            idx = np.array([n, *range(dirs, dirs + 6), gains, gains + 1])
            fim[idx[:, None], idx] = block
        fim = (fim + fim.T) / 2.0
    if not np.all(np.isfinite(fim)):
        raise RadioPoseError(
            f"Fisher information is not finite at tx_power_dbm {sig.tx_power_dbm:g}, "
            f"noise_psd_dbm_hz {sig.noise_psd_dbm_hz:g}"
        )
    return fim


def angle_jacobian(direction: np.ndarray) -> np.ndarray:
    """2x3 Jacobian of (azimuth, elevation) with respect to the direction vector.

    Azimuth is atan2(t2, t1) and elevation asin(t3). Raises PolarSingularity
    when the direction is within tolerance of +/-z.
    """
    t = np.asarray(direction, dtype=float)
    horiz = t[0] ** 2 + t[1] ** 2
    if horiz <= 1e-12 or abs(t[2]) >= 1.0 - 1e-12:
        raise PolarSingularity("direction too close to +/-z for azimuth/elevation")
    return np.array(
        [
            [-t[1] / horiz, t[0] / horiz, 0.0],
            [0.0, 0.0, 1.0 / np.sqrt(1.0 - t[2] ** 2)],
        ]
    )


def fim_direction_from_angles(angle_fim: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Pull a 2x2 azimuth/elevation FIM back to the 3d direction vector.

    Returns J_t.T @ F_angles @ J_t, a rank <= 2 matrix.
    """
    jac = angle_jacobian(direction)
    angle_fim = np.asarray(angle_fim, dtype=float)
    if angle_fim.shape != (2, 2):
        raise ValueError("angle_fim must be 2x2 (azimuth, elevation)")
    return jac.T @ angle_fim @ jac


def _direction_wrt_angles(direction: np.ndarray) -> np.ndarray:
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


def fim_angles_per_anchor(fim_anchor: np.ndarray, dir_ue: np.ndarray, dir_bs: np.ndarray) -> np.ndarray:
    """Re-parametrize one anchor's 9x9 FIM over
    [tau, t_ue(3), t_bs(3), Re gain, Im gain] into the 7x7 angle-domain FIM
    over [tau, az/el at the anchor, az/el at the UE, Re gain, Im gain]."""
    fim_anchor = np.asarray(fim_anchor, dtype=float)
    if fim_anchor.shape != (PARAMS_PER_ANCHOR, PARAMS_PER_ANCHOR):
        raise ValueError("expected a per-anchor 9x9 FIM")
    m = np.zeros((PARAMS_PER_ANCHOR, 7))
    m[0, 0] = 1.0
    m[4:7, 1:3] = _direction_wrt_angles(dir_bs)
    m[1:4, 3:5] = _direction_wrt_angles(dir_ue)
    m[7:, 5:] = np.eye(2)
    out = m.T @ fim_anchor @ m
    return (out + out.T) / 2.0
