"""Channel geometry for LOS MIMO-OFDM links: delays, direction vectors,
steering vectors, the noise-free received signal, and the unconstrained
Fisher information of the channel geometric parameters. All three come from
one link pass (``_anchor_links``) of links and beam factors (``_beam_factors``),
and the FIM sums over subcarriers in closed form.

The link pass has an anchor axis, with no per-anchor loop, over beams stacked
once per ``BeamSet`` (``BeamSet.stacked``). Anchors whose arrays have fewer
elements than the largest are zero-padded, in their precoder columns and in
their element positions; that is exact, as a padded element adds
0 * exp(j0) to every sum.

Every function of a UE pose also takes a pose with leading axes (a batch of
poses) and returns its results with the same leading axes; the unbatched
pose is the same code at batch size one.

Anchors transmit orthogonally (time/frequency), so the received tensor and
the FIM are block-separable across anchors (``_unit_fim`` keeps one 9x9
block per anchor). Per anchor the unconstrained parameter vector is
[tau, t_ue(3), t_bs(3), Re(gain), Im(gain)]. The stacked vector of N anchors
is grouped by parameter kind: the N delays, then per anchor the six
direction components [t_ue, t_bs], then per anchor the two gain components.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import CoincidentPositions, PolarSingularity, RadioPoseError
from .lie import Pose, _frozen, _norm, _readonly, _record, _symmetrize, require_rotation

SPEED_OF_LIGHT = 299792458.0  # m/s

#: number of unconstrained parameters per anchor: tau, two 3d directions, Re/Im gain
PARAMS_PER_ANCHOR = 9

#: caps on the sizes a scenario sets, each a ValueError at construction rather than
#: an allocation that fails; README's CLI section gives the memory each stands for
MAX_SUBCARRIERS = 65_536
MAX_TRANSMISSIONS = 4_096
MAX_ARRAY_ELEMENTS = 4_096

#: beam sets kept per process; one draw of the wideband benchmark (4 anchors x
#: 64 beams x (256 + 64) elements) is about 1.3 MB
_BEAM_CACHE_SIZE = 8
#: subcarrier Grams kept per process, one per (num_subcarriers, subcarrier_spacing_hz)
_GRAM_CACHE_SIZE = 8


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
        object.__setattr__(self, "element_positions", _readonly(pos))

    @property
    def num_elements(self) -> int:
        return self.element_positions.shape[0]

    @classmethod
    def upa(cls, nx: int, ny: int, spacing_m: float) -> "ArrayGeometry":
        """Uniform planar array on the local x-y plane, centered grid, of at most ``MAX_ARRAY_ELEMENTS``."""
        if nx * ny > MAX_ARRAY_ELEMENTS:
            raise ValueError(f"array_shape {nx}x{ny} exceeds {MAX_ARRAY_ELEMENTS} elements")
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
        if np.shape(self.orientation) != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {np.shape(self.orientation)}")
        require_rotation(self.orientation)
        p = np.asarray(self.position, dtype=float)
        if p.shape != (3,) or not np.all(np.isfinite(p)):
            raise ValueError("anchor position must be a finite 3-vector")
        object.__setattr__(self, "position", _readonly(p))
        object.__setattr__(self, "orientation", _readonly(self.orientation))


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
        for name, cap in (("num_subcarriers", MAX_SUBCARRIERS), ("num_transmissions", MAX_TRANSMISSIONS)):
            if getattr(self, name) > cap:
                raise ValueError(f"{name} must be at most {cap}, got {getattr(self, name)}")
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
    """Geometric observables of one anchor-UE link, with the leading axes of
    the UE pose. The constructor checks that both directions are unit vectors
    and copies them; the link pass (``_links``) builds them from a valid
    geometry through ``lie._record``, unchecked. Every array is read-only."""

    delay_s: float
    dir_ue: np.ndarray  # unit vector at the UE, local frame
    dir_bs: np.ndarray  # unit vector at the anchor, local frame
    gain: complex

    def __post_init__(self):
        for name in ("dir_ue", "dir_bs"):
            d = np.asarray(getattr(self, name), dtype=float)
            if np.any(np.abs(np.linalg.norm(d, axis=-1) - 1.0) > 1e-12):
                raise ValueError(f"{name} must be a unit vector")
            object.__setattr__(self, name, _readonly(d))


@dataclass(frozen=True)
class BeamSet:
    """Per-(anchor, transmission) unit-norm precoders and combiners.

    The arrays of a set from ``draw_beams`` are read-only: the set is drawn
    once per process and key and shared by every caller.
    """

    precoders: tuple  # one (G, n_bs_elements) complex array per anchor
    combiners: tuple  # one (G, n_ue_elements) complex array per anchor

    @cached_property
    def stacked(self) -> tuple:
        """(precoders (N, G, E_max), combiners (N, G, n_ue_elements)): the
        beams along an anchor axis, built on first access and read-only. An
        anchor with fewer than the largest count E_max of anchor elements has
        zero precoder columns after its own (``_stack_padded``)."""
        return _frozen(_stack_padded(self.precoders)), _frozen(_stack_padded(self.combiners))


def _stack_padded(arrays) -> np.ndarray:
    """Equal-rank arrays of one dtype stacked on a new leading axis, each
    zero-padded at the end of every axis to the largest size there."""
    out = np.zeros((len(arrays), *map(max, zip(*(a.shape for a in arrays)))), dtype=arrays[0].dtype)
    for n, a in enumerate(arrays):
        out[(n, *map(slice, a.shape))] = a
    return out


def draw_beams(anchors, ue_array: ArrayGeometry, sig: SignalConfig) -> BeamSet:
    """Draw random unit-norm complex Gaussian beams, reproducible from the seed.

    The draw reads only the seed, the number of transmissions and the element
    counts; calls that agree on these share one cached draw (``_draw_beams``).
    """
    return _draw_beams(
        sig.rng_seed,
        sig.num_transmissions,
        tuple(anchor.array.num_elements for anchor in anchors),
        ue_array.num_elements,
    )


@lru_cache(maxsize=_BEAM_CACHE_SIZE)
def _draw_beams(rng_seed: int, num_transmissions: int, bs_elements: tuple, ue_elements: int) -> BeamSet:
    """The beams of ``draw_beams``, keyed by (rng_seed, num_transmissions,
    each anchor's element count in order, the UE element count) and kept for
    the ``_BEAM_CACHE_SIZE`` most recent keys. Per anchor the precoder
    Gaussians are drawn before the combiner ones, real part before imaginary.
    The draw is written into the arrays of the set's ``stacked`` field
    (``lie._record``), and each anchor's arrays are views of them, so the set
    holds one copy of its beams. Every array is read-only, as all callers of a key share it."""
    rng = np.random.default_rng(rng_seed)
    g = num_transmissions
    precoders = np.zeros((len(bs_elements), g, max(bs_elements)), dtype=complex)
    combiners = np.empty((len(bs_elements), g, ue_elements), dtype=complex)
    for n, n_bs in enumerate(bs_elements):
        b = rng.standard_normal((g, n_bs)) + 1j * rng.standard_normal((g, n_bs))
        u = rng.standard_normal((g, ue_elements)) + 1j * rng.standard_normal((g, ue_elements))
        precoders[n, :, :n_bs] = b / np.linalg.norm(b, axis=1, keepdims=True)
        combiners[n] = u / np.linalg.norm(u, axis=1, keepdims=True)
    stacked = _frozen(precoders), _frozen(combiners)  # frozen before the per-anchor views are taken
    return _record(BeamSet, precoders=tuple(p[:, :n_bs] for p, n_bs in zip(precoders, bs_elements)),
                   combiners=tuple(combiners), stacked=stacked)


def _check_beams(anchors, ue_array: ArrayGeometry, sig: SignalConfig, beams: BeamSet) -> None:
    """Raise ValueError naming the first way ``beams`` does not fit the
    scenario: its anchor count, its transmission count G or an element count."""
    if not len(beams.precoders) == len(beams.combiners) == len(anchors):
        raise ValueError(
            f"beam set holds {len(beams.precoders)} precoder and {len(beams.combiners)} "
            f"combiner arrays for {len(anchors)} anchors"
        )
    g = sig.num_transmissions
    for n, (anchor, b, u) in enumerate(zip(anchors, beams.precoders, beams.combiners)):
        for kind, beam, elements in (
            ("precoders", b, anchor.array.num_elements),
            ("combiners", u, ue_array.num_elements),
        ):
            if np.shape(beam) != (g, elements):
                raise ValueError(
                    f"anchor {n} {kind} have shape {np.shape(beam)}, expected "
                    f"(num_transmissions {g}, {elements} elements)"
                )


def _los_geometry(ue_position: np.ndarray, anchor_position: np.ndarray):
    """Unit vectors u from the anchor toward the UE (global frame) and the
    distances of the LOS paths, broadcast over the leading axes of both
    positions; raises RadioPoseError, without numpy warnings, where a distance
    is not finite, and CoincidentPositions where a UE is within 1e-6 m of its anchor."""
    with np.errstate(over="ignore", invalid="ignore"):
        diff = ue_position - anchor_position
        dist = _norm(diff)
    if not ((dist > 1e-6) & (dist < np.inf)).all():  # one pass for both checks
        if not (dist < np.inf).all():
            raise RadioPoseError("UE-anchor distance is not finite: the LOS geometry overflows")
        raise CoincidentPositions("UE and anchor positions coincide")
    return diff / dist[..., None], dist


def _local_directions(rotation: np.ndarray, anchor_orientation: np.ndarray, u: np.ndarray):
    """(dir_bs, dir_ue) of the LOS direction u: R_bs.T u and -R_ue.T u, over leading axes."""
    return np.matvec(anchor_orientation.mT, u), -np.matvec(rotation.mT, u)


def direction_vectors(ue: Pose, anchor: AnchorConfig):
    """Local direction vectors (dir_bs, dir_ue) of the LOS path.

    dir_bs points from the anchor toward the UE in the anchor frame;
    dir_ue points from the UE toward the anchor in the UE frame, so that
    R_bs @ dir_bs = -R_ue @ dir_ue.
    """
    u, _ = _los_geometry(ue.position, anchor.position)
    return _local_directions(ue.rotation, anchor.orientation, u)


def delay(ue: Pose, anchor: AnchorConfig, clock_bias_s: float) -> float:
    """Signal delay: propagation time plus clock offset."""
    _, dist = _los_geometry(ue.position, anchor.position)
    return dist / SPEED_OF_LIGHT + clock_bias_s


def _links(position, rotation, anchor_position, anchor_orientation, sig: SignalConfig):
    """LOS unit vectors u, distances and ``ChannelParams`` (delay, local
    directions, free-space gain: amplitude lambda/(4 pi d), carrier
    propagation phase) of the links from anchors at ``anchor_position``
    (orientation local -> global) to a UE at ``position`` with ``rotation``,
    from one ``_los_geometry`` call over the leading axes of all four; the
    params unchecked (``lie._record``), as the geometry gives unit directions."""
    u, dist = _los_geometry(position, anchor_position)
    dir_bs, dir_ue = _local_directions(rotation, anchor_orientation, u)
    amp = SPEED_OF_LIGHT / sig.carrier_hz / (4.0 * np.pi * dist)
    # the phase in real arithmetic: a complex division rounds differently in a batch than for one pose
    par = _record(ChannelParams, delay_s=dist / SPEED_OF_LIGHT + sig.clock_bias_s, dir_ue=dir_ue, dir_bs=dir_bs,
                  gain=amp * np.exp(-1j * (2.0 * np.pi * sig.carrier_hz * dist / SPEED_OF_LIGHT)))
    return u, dist, par


def channel_params(ue: Pose, anchor: AnchorConfig, sig: SignalConfig) -> ChannelParams:
    """Delay, local directions and free-space LOS gain of one link (``_links``)."""
    return _links(ue.position, ue.rotation, anchor.position, anchor.orientation, sig)[2]


def steering_vector(array: ArrayGeometry, direction: np.ndarray, carrier_hz: float) -> np.ndarray:
    """Array response exp(j 2 pi f_c / c * p_d . t), unit modulus per element,
    over the leading axes of ``direction``."""
    return _steering(array.element_positions, np.asarray(direction, dtype=float), carrier_hz)


def _steering(positions: np.ndarray, direction: np.ndarray, carrier_hz: float) -> np.ndarray:
    """``steering_vector`` of element positions (..., E, 3): (..., E) over the
    leading axes of ``positions`` and ``direction`` broadcast."""
    return np.exp(1j * ((2.0 * np.pi * carrier_hz / SPEED_OF_LIGHT) * np.matvec(positions, direction)))


def _beam_factors(dir_ue, dir_bs, gain, bs_positions, ue_array, sig, precoders, combiners):
    """Beam factors f of the links to N anchors, shape (..., N, 9, G) over
    the leading axes of their local directions (..., N, 3) and gains
    (..., N), at unit transmit amplitude. ``bs_positions`` (N, E, 3) holds
    each anchor's element positions and ``precoders`` (N, G, E) and
    ``combiners`` (N, G, n_ue_elements) its beams (``BeamSet.stacked``); an
    anchor with fewer than E elements is zero-padded in both, which is exact,
    as a padded element adds 0 * exp(j0) to each beam gain and derivative.

    The only copy of the steering vectors, beam gains and their direction
    derivatives; none of it depends on the transmit power. Over
    eta = [tau, t_ue(3), t_bs(3), Re gain, Im gain] the signal gradient
    factors as d mu_gc / d eta_i = x f_i(g) s_i(c) phi_c, with x the
    per-subcarrier amplitude, phi the subcarrier phases, s = -j 2 pi c df on
    the delay row and s = 1 on every other row; the signal itself is
    mu_gc = x gain f_7(g) phi_c.
    """
    kappa = 2.0 * np.pi * sig.carrier_hz / SPEED_OF_LIGHT
    a_ue = _steering(ue_array.element_positions, dir_ue, sig.carrier_hz)  # (..., N, N_ue)
    a_bs = _steering(bs_positions, dir_bs, sig.carrier_hz)  # (..., N, E)
    # one matrix-vector product per pose and anchor, so a row does not depend on its batch
    ue_gain = np.matvec(combiners, a_ue)  # (..., N, G)
    bs_gain = np.matvec(precoders, a_bs)  # (..., N, G)
    # gradient of (combiner . a_ue) wrt t_ue: j kappa combiner (a_ue * P),
    # whose temporary is (..., N, elements, 3) rather than (..., N, G, elements)
    d_ue = 1j * kappa * (combiners @ (a_ue[..., None] * ue_array.element_positions))  # (..., N, G, 3)
    d_bs = 1j * kappa * (precoders @ (a_bs[..., None] * bs_positions))
    gain = np.asarray(gain)[..., None]
    f = np.empty(ue_gain.shape[:-1] + (PARAMS_PER_ANCHOR, ue_gain.shape[-1]), dtype=complex)
    f[..., 7, :] = ue_gain * bs_gain
    f[..., 8, :] = 1j * f[..., 7, :]
    f[..., 0, :] = gain * f[..., 7, :]
    f[..., 1:4, :] = gain[..., None] * (d_ue * bs_gain[..., None]).mT
    f[..., 4:7, :] = gain[..., None] * (ue_gain[..., None] * d_bs).mT
    return f


def _anchor_links(ue, anchors, ue_array, sig, beams: BeamSet):
    """The link pass of the signal, its gradient and the FIM, over the leading
    axes of the UE pose: u (..., N, 3), dist (..., N) and ``ChannelParams`` of
    the links to all N anchors from one ``_links`` call, and their factors f
    (..., N, 9, G) from one ``_beam_factors`` call on ``BeamSet.stacked``.
    Beams that do not fit the scenario raise ValueError (``_check_beams``)."""
    _check_beams(anchors, ue_array, sig, beams)
    u, dist, par = _links(ue.position[..., None, :], ue.rotation[..., None, :, :],
                          np.array([a.position for a in anchors]), np.array([a.orientation for a in anchors]), sig)
    f = _beam_factors(par.dir_ue, par.dir_bs, par.gain, _stack_padded([a.array.element_positions for a in anchors]),
                      ue_array, sig, *beams.stacked)
    return u, dist, par, f


def _subcarrier_phases(delay_s: np.ndarray, sig: SignalConfig) -> np.ndarray:
    """exp(-j 2 pi tau c df) over subcarriers c, (..., C) over the leading axes of the delays."""
    c_idx = np.arange(sig.num_subcarriers)
    return np.exp(-2j * np.pi * delay_s[..., None] * c_idx * sig.subcarrier_spacing_hz)


def noise_free_signal(ue, anchors, ue_array, sig, beams: BeamSet) -> np.ndarray:
    """Noise-free received tensor, shape (..., n_anchors, G, C) over the
    leading axes of the UE pose, from the link pass (``_anchor_links``).

    Entry (n, g, c) is gain * (combiner . a_ue) * (a_bs . precoder)
    * exp(-j 2 pi tau (c-1) df) * x, with x the per-subcarrier amplitude.
    Beams that do not fit the scenario raise ValueError.
    """
    _, _, par, f = _anchor_links(ue, anchors, ue_array, sig, beams)
    mu = f[..., 7, :, None] * _subcarrier_phases(par.delay_s, sig)[..., None, :]
    # in place, one (..., N, G, C) array; the scale on the left, as a swapped complex product can round apart
    return np.multiply((sig.subcarrier_amplitude * par.gain)[..., None, None], mu, out=mu)


def _anchor_signal_gradient(ue, anchor, ue_array, sig, precoders, combiners) -> np.ndarray:
    """Closed-form d mu / d eta for one anchor, shape (..., 9, G, C) over the
    leading axes of the UE pose, from the link pass (``_anchor_links``).

    eta = [tau, t_ue(3), t_bs(3), Re gain, Im gain]. Direction derivatives
    come from the steering phase gradients; tau and gain are elementary.
    """
    _, _, par, f = _anchor_links(ue, [anchor], ue_array, sig, BeamSet((precoders,), (combiners,)))
    phases = _subcarrier_phases(par.delay_s[..., 0], sig)
    grad = sig.subcarrier_amplitude * f[..., 0, :, :, None] * phases[..., None, None, :]
    grad[..., 0, :, :] *= -2j * np.pi * sig.subcarrier_spacing_hz * np.arange(sig.num_subcarriers)
    return grad


@lru_cache(maxsize=_GRAM_CACHE_SIZE)
def _subcarrier_gram(num_subcarriers: int, subcarrier_spacing_hz: float) -> np.ndarray:
    """Read-only 9x9 Gram S_ij = sum_c conj(s_i(c)) s_j(c) of the subcarrier
    profiles of ``_beam_factors`` (-j w_c on the delay row, w_c = 2 pi c df,
    and 1 on the others), kept for the ``_GRAM_CACHE_SIZE`` most recent keys.
    As |phi_c| = 1 it holds only C, sum w_c and sum w_c^2. A spacing so wide
    that S overflows raises RadioPoseError, without numpy warnings, on every
    call (a raising call is not cached)."""
    gram = np.full((PARAMS_PER_ANCHOR, PARAMS_PER_ANCHOR), complex(num_subcarriers))
    with np.errstate(over="ignore", invalid="ignore"):
        w = 2.0 * np.pi * subcarrier_spacing_hz * np.arange(num_subcarriers)
        gram[0, 0] = w @ w
    if not np.isfinite(gram[0, 0]):  # a finite sum of squares bounds each |w_c|, and with it sum w_c
        raise RadioPoseError(f"Fisher information is not finite: subcarrier_spacing_hz {subcarrier_spacing_hz:g}")
    gram[0, 1:] = 1j * w.sum()
    gram[1:, 0] = -1j * w.sum()
    return _frozen(gram)


def _unit_fim(ue, anchors, ue_array, sig, beams: BeamSet, powers_dbm):
    """LOS geometry (u, dist) of every link, each anchor's block of the
    unconstrained FIM at unit weight, (..., N, 9, 9) over the leading axes
    of the UE pose, and the weights w of ``powers_dbm``.

    F = (2 / sigma^2) sum_{g,c} Re{conj(d mu / d eta) (d mu / d eta)^T} with
    both direction vectors carried as free 3-vectors; the sphere constraint
    is applied downstream. With the factors of ``_beam_factors`` each
    anchor's block is w Re[(conj(f) f^T) o S], with w = 2 |x|^2 / sigma^2
    and S the Gram of the subcarrier profiles (``_subcarrier_gram``), which
    does not depend on the delay, from the link pass the signal shares
    (``_anchor_links``). Power and noise enter only through w, 0 or inf
    where it underflows or overflows. RadioPoseError,
    without numpy warnings, names a subcarrier spacing so wide that S
    overflows, and otherwise the first power at which w F is not finite:
    exactly where w times the largest |entry| of F is not. Beams that do not
    fit the scenario raise ValueError.
    """
    u, dist, _, f = _anchor_links(ue, anchors, ue_array, sig, beams)
    gram = _subcarrier_gram(sig.num_subcarriers, sig.subcarrier_spacing_hz)
    blocks = np.real((np.conj(f) @ f.mT) * gram)
    powers = [float(p) for p in powers_dbm]
    # dBm -> W in a scalar loop: numpy's vectorized power differs from pow in the last bit
    watts = np.array([dbm_to_watt(p) for p in powers])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        weight = 2.0 * watts / sig.num_subcarriers / sig.noise_variance_w
        finite = np.isfinite(weight * np.abs(blocks).max())
    if not finite.all():
        raise RadioPoseError(
            f"Fisher information is not finite at tx_power_dbm {powers[int(np.argmin(finite))]:g}, "
            f"noise_psd_dbm_hz {sig.noise_psd_dbm_hz:g}"
        )
    return (u, dist), _symmetrize(blocks), weight


def fim_unconstrained(ue, anchors, ue_array, sig, beams: BeamSet) -> np.ndarray:
    """Unconstrained FIM at the transmit power of ``sig``: the blocks of
    ``_unit_fim`` times that power's weight in the grouped order of the module
    docstring. Symmetric PSD, (..., 9N, 9N) over the leading axes of the UE pose."""
    _, blocks, (weight,) = _unit_fim(ue, anchors, ue_array, sig, beams, [sig.tx_power_dbm])
    n_anchors = len(anchors)
    # stacked positions of each anchor's [tau, t_ue, t_bs, Re gain, Im gain]
    n = np.arange(n_anchors)[:, None]
    idx = np.hstack([n, n_anchors + 6 * n + np.arange(6), 7 * n_anchors + 2 * n + np.arange(2)])
    unit = np.zeros(blocks.shape[:-3] + (PARAMS_PER_ANCHOR * n_anchors,) * 2)
    unit[..., idx[:, :, None], idx[:, None, :]] = blocks
    return weight * unit


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
