"""
Physical-layer model of a dual-path sub-THz downlink.

A multi-antenna base station serves a single user over two spatial routes:
a strong but blockage-prone direct beam, and a much weaker reflection via a
passive reconfigurable surface that survives most blockage events because of
its placement.  Two data streams of different criticality are superimposed in
power; the high-criticality stream is decoded first (treating the other as
noise) and must survive loss of the direct route, while the low-criticality
stream is decoded after interference cancellation and needs the direct route.

This module provides the scenario parameter bundle, amplitude gains of both
routes, array responses, exact and beam-orthogonality-approximated SINRs,
Shannon rates, and the nested Bernoulli blockage sampler.  Everything here is
in SI units (W, Hz, m, s); dB/dBm conversion belongs to config ingestion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s

# -174 dBm/Hz thermal-noise floor
_DEFAULT_NOISE_PSD = 10.0 ** (-174.0 / 10.0) * 1e-3


def _bisect_increasing(fn, lo: float, hi: float, iters: int = 200) -> float:
    """Root of an increasing scalar function on [lo, hi] by plain bisection."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def default_geometry(n_b: int, d_bu: float, d_br: float, d_ru: float):
    """
    Derive departure/arrival angles for the canonical flat layout.

    The base station sits at the origin, the user on the positive x axis at
    distance ``d_bu``, and the reflector at the unique upper-half-plane point
    consistent with ``d_br`` and ``d_ru``.  Panel orientations resolve the
    remaining freedom:

    * The BS panel is rotated so that the user and reflector directions fall
      on adjacent beams of the half-wavelength array grid (sine spacing a
      multiple of 2/n_b) whenever the geometry permits.  This realises the
      pencil-beam orthogonality the superposition scheme is designed around;
      without it the two precoded streams leak into each other's route.
    * The reflector panel faces the base station broadside, which makes its
      configured phase profile the received-power-maximising one.

    Returns ``(phi_bu, phi_br, phi_rb, phi_ru)`` in radians.
    """
    if not (abs(d_br - d_ru) < d_bu < d_br + d_ru):
        raise ValueError(
            "distances d_bu=%g, d_br=%g, d_ru=%g do not form a triangle; "
            "specify angles explicitly" % (d_bu, d_br, d_ru)
        )
    # Angular separation of user and reflector as seen from the BS.
    x_r = (d_bu**2 + d_br**2 - d_ru**2) / (2.0 * d_bu)
    y_r = math.sqrt(max(d_br**2 - x_r**2, 0.0))
    sep = math.atan2(y_r, x_r)

    # Largest achievable sine gap over panel rotations is 2*sin(sep/2).
    max_gap = 2.0 * math.sin(0.5 * sep)
    m = int(math.floor(max_gap * n_b / 2.0))
    if m >= 1:
        gap = 2.0 * m / n_b
        # asin(s+gap) - asin(s) is increasing for s > -gap/2; match sep.
        s0 = _bisect_increasing(
            lambda s: math.asin(s + gap) - math.asin(s) - sep,
            -0.5 * gap,
            1.0 - gap - 1e-12,
        )
        phi_bu = math.asin(s0)
        phi_br = math.asin(s0 + gap)
    else:
        # Separation below one beamwidth: center the panel on the pair.
        phi_bu = -0.5 * sep
        phi_br = 0.5 * sep

    # Angle between the two routes at the reflector, mapped into the panel
    # frame in which the BS sits at broadside.
    cos_sep_r = (d_br**2 + d_ru**2 - d_bu**2) / (2.0 * d_br * d_ru)
    sep_r = math.acos(max(-1.0, min(1.0, cos_sep_r)))
    phi_rb = 0.0
    phi_ru = math.asin(math.sin(sep_r))
    return phi_bu, phi_br, phi_rb, phi_ru


@dataclass(frozen=True)
class ScenarioParams:
    """
    Full physical and traffic configuration of one downlink scenario.

    Attributes (SI units throughout):
        f: carrier frequency [Hz].
        bandwidth: system bandwidth [Hz].
        p_max: transmit power budget [W].
        noise_psd: noise power spectral density [W/Hz].
        g_b, g_u: BS / user antenna gains (linear).
        n_b: BS antenna count.
        n_r: reflector element count.
        d_bu, d_br, d_ru: BS-user, BS-reflector, reflector-user distances [m].
        k_a: molecular absorption coefficient [1/m] (scalar constant here).
        l_x, l_y: reflector element dimensions [m]; default half wavelength.
        q_d, q_r: blockage probabilities of the direct / reflected route.
        phi_bu, phi_br: BS-panel departure angles toward user / reflector [rad].
        phi_rb, phi_ru: reflector-panel angles toward BS / user [rad].
        alpha: fraction of traffic classified high-criticality.
        packet_size: packet size [bit].
        slot_duration: slot length [s].
        arrival_rate: mean packet arrivals per slot.

    Angles and element dimensions left as None are derived in __post_init__
    (see default_geometry).  The reflected route is assumed at least as
    reliable as the direct one (q_r <= q_d).
    """

    f: float = 300e9
    bandwidth: float = 10e9
    p_max: float = 0.01
    noise_psd: float = _DEFAULT_NOISE_PSD
    g_b: float = 100.0
    g_u: float = 100.0
    n_b: int = 64
    n_r: int = 10000
    d_bu: float = 10.0
    d_br: float = 8.7
    d_ru: float = 2.0
    k_a: float = 0.0012
    l_x: float | None = None
    l_y: float | None = None
    q_d: float = 0.3
    q_r: float = 0.1
    phi_bu: float | None = None
    phi_br: float | None = None
    phi_rb: float | None = None
    phi_ru: float | None = None
    alpha: float = 0.1
    packet_size: float = 1e7
    slot_duration: float = 0.1
    arrival_rate: float = 700.0

    def __post_init__(self):
        for name in ("f", "bandwidth", "p_max", "noise_psd", "g_b", "g_u",
                     "d_bu", "d_br", "d_ru", "packet_size", "slot_duration"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not all(float(n).is_integer() and n >= 1 for n in (self.n_b, self.n_r)):
            raise ValueError("antenna/element counts must be integers >= 1")
        if not 0.0 <= self.k_a < math.inf:
            raise ValueError("k_a must be nonnegative and finite")
        if not (0.0 <= self.q_r <= self.q_d <= 1.0):
            raise ValueError("blockage probabilities need 0 <= q_r <= q_d <= 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 <= self.arrival_rate < math.inf:
            raise ValueError("arrival_rate must be nonnegative and finite")
        half_wl = SPEED_OF_LIGHT / (2.0 * self.f)
        if self.l_x is None:
            object.__setattr__(self, "l_x", half_wl)
        if self.l_y is None:
            object.__setattr__(self, "l_y", half_wl)
        if not (0.0 < self.l_x < math.inf and 0.0 < self.l_y < math.inf):
            raise ValueError("element dimensions must be positive and finite")
        angles = (self.phi_bu, self.phi_br, self.phi_rb, self.phi_ru)
        if any(a is None for a in angles):
            if any(a is not None for a in angles):
                raise ValueError("specify all four angles or none")
            phi_bu, phi_br, phi_rb, phi_ru = default_geometry(
                self.n_b, self.d_bu, self.d_br, self.d_ru
            )
            object.__setattr__(self, "phi_bu", phi_bu)
            object.__setattr__(self, "phi_br", phi_br)
            object.__setattr__(self, "phi_rb", phi_rb)
            object.__setattr__(self, "phi_ru", phi_ru)

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.f


@dataclass(frozen=True)
class LinkGains:
    """Amplitude gains of both routes plus total noise power over the band."""

    eta_d: float  # direct-route amplitude gain
    eta_r: float  # reflected-route per-element amplitude gain
    noise_w: float  # noise power over the full bandwidth [W]

    def __post_init__(self):
        if self.eta_d <= 0.0 or self.eta_r <= 0.0 or self.noise_w <= 0.0:
            raise ValueError("gains and noise power must be positive")


@dataclass(frozen=True)
class BlockageState:
    """Joint availability of the two routes; 1 = available, 0 = blocked."""

    beta_d: int
    beta_r: int

    def __post_init__(self):
        if self.beta_d not in (0, 1) or self.beta_r not in (0, 1):
            raise ValueError("availability flags must be 0 or 1")
        if self.beta_r == 0 and self.beta_d == 1:
            raise ValueError("reflected route cannot be blocked alone")


@dataclass(frozen=True)
class PowerAllocation:
    """Transmit powers [W] per (stream, beam): HC/LC on direct/reflector beams."""

    p_h_d: float
    p_h_r: float
    p_l_d: float
    p_l_r: float

    def __post_init__(self):
        if min(self.p_h_d, self.p_h_r, self.p_l_d, self.p_l_r) < 0.0:
            raise ValueError("powers must be nonnegative")

    @property
    def total(self) -> float:
        return self.p_h_d + self.p_h_r + self.p_l_d + self.p_l_r

    def as_array(self) -> np.ndarray:
        return np.array([self.p_h_d, self.p_h_r, self.p_l_d, self.p_l_r])


def noise_power(n0: float, bandwidth: float) -> float:
    """Total noise power [W] over the band: PSD times bandwidth."""
    if n0 <= 0.0 or bandwidth <= 0.0:
        raise ValueError("noise PSD and bandwidth must be positive")
    return n0 * bandwidth


def direct_gain(params: ScenarioParams) -> float:
    """
    Amplitude gain of the direct route.

    Combines free-space spreading over d_bu with exponential molecular
    absorption and the square root of the antenna gain product.
    """
    spread = SPEED_OF_LIGHT / (4.0 * math.pi * params.f * params.d_bu)
    absorb = math.exp(-0.5 * params.k_a * params.d_bu)
    return math.sqrt(params.g_b * params.g_u) * spread * absorb


def ris_gain(params: ScenarioParams) -> float:
    """
    Per-element amplitude gain of the reflected route.

    Product of the two hop spreadings with the element aperture l_x*l_y and
    absorption over the total reflected path length.
    """
    spread = params.l_x * params.l_y / (4.0 * math.pi * params.d_br * params.d_ru)
    absorb = math.exp(-0.5 * params.k_a * (params.d_br + params.d_ru))
    return math.sqrt(params.g_b * params.g_u) * spread * absorb


def link_gains(params: ScenarioParams) -> LinkGains:
    """Bundle both route gains with the in-band noise power."""
    return LinkGains(
        eta_d=direct_gain(params),
        eta_r=ris_gain(params),
        noise_w=noise_power(params.noise_psd, params.bandwidth),
    )


def array_response(n: int, phi: float) -> np.ndarray:
    """
    Uniform linear array response at half-wavelength spacing.

    Element k carries phase pi*k*sin(phi); all entries have unit modulus.
    """
    if n < 1:
        raise ValueError("array size must be >= 1")
    k = np.arange(n)
    return np.exp(1j * math.pi * k * math.sin(phi))


def approx_sinrs(
    gains: LinkGains,
    n_b: int,
    n_r: int,
    p: PowerAllocation,
    b: BlockageState,
) -> tuple[float, float]:
    """
    Decoding SINRs under the orthogonal-pencil-beam approximation.

    The HC stream is decoded first against the LC interference plus noise;
    the LC stream is decoded after cancelling the HC stream. Route powers
    enter additively with array gains n_b (direct) and n_b*n_r (reflected).
    """
    w_d = b.beta_d * n_b * gains.eta_d**2
    w_r = b.beta_r * n_b * n_r * gains.eta_r**2
    num_h = w_d * p.p_h_d + w_r * p.p_h_r
    den_h = w_d * p.p_l_d + w_r * p.p_l_r + gains.noise_w
    sinr_h = num_h / den_h
    sinr_l = (w_d * p.p_l_d + w_r * p.p_l_r) / gains.noise_w
    return sinr_h, sinr_l


def exact_sinrs(
    params: ScenarioParams,
    p: PowerAllocation,
    b: BlockageState,
) -> tuple[float, float]:
    """
    Decoding SINRs from the explicit array model, without the beam
    orthogonality assumption.

    Each stream is precoded on two steering vectors (toward the user and
    toward the reflector), so imperfectly orthogonal beams leak power into
    the other route; those cross-beam terms are kept in full complex
    arithmetic.  The two routes themselves differ in propagation delay by
    several nanoseconds, far beyond the inverse bandwidth, so their received
    powers add incoherently.  The summed reflection response is normalised
    by sqrt(n_r) so that a perfectly matched phase profile yields the
    aggregate reflected array gain n_b*n_r used throughout the toolkit.
    """
    gains = link_gains(params)
    a_bu = array_response(params.n_b, params.phi_bu)
    a_br = array_response(params.n_b, params.phi_br)
    a_ru = array_response(params.n_r, params.phi_ru)
    a_rb = array_response(params.n_r, params.phi_rb)
    # Configured reflection phases: one array response at the angle offset.
    profile = array_response(params.n_r, params.phi_ru - params.phi_rb)
    reflect = np.sum(np.conj(a_ru) * profile * a_rb) / math.sqrt(params.n_r)

    scale = 1.0 / math.sqrt(params.n_b)
    f_h = scale * (math.sqrt(p.p_h_d) * a_bu + math.sqrt(p.p_h_r) * a_br)
    f_l = scale * (math.sqrt(p.p_l_d) * a_bu + math.sqrt(p.p_l_r) * a_br)

    def received_power(f: np.ndarray) -> float:
        direct_amp = b.beta_d * gains.eta_d * np.vdot(a_bu, f)
        ris_amp = b.beta_r * gains.eta_r * reflect * np.vdot(a_br, f)
        return abs(direct_amp) ** 2 + abs(ris_amp) ** 2

    sig_h = received_power(f_h)
    sig_l = received_power(f_l)
    sinr_h = sig_h / (sig_l + gains.noise_w)
    sinr_l = sig_l / gains.noise_w
    return sinr_h, sinr_l


def rates(sinr_h: float, sinr_l: float, bandwidth: float) -> tuple[float, float]:
    """Shannon rates [bit/s] of both streams at the given SINRs."""
    if sinr_h < 0.0 or sinr_l < 0.0:
        raise ValueError("SINRs must be nonnegative")
    return (
        bandwidth * math.log2(1.0 + sinr_h),
        bandwidth * math.log2(1.0 + sinr_l),
    )


def sample_blockage(q_d: float, q_r: float, rng: np.random.Generator) -> BlockageState:
    """
    Draw one joint blockage state with nested coupling.

    A single uniform drives both routes: u < q_r blocks both, u < q_d blocks
    only the direct route.  Marginals are exactly q_d and q_r and the
    reflected route is never blocked alone.
    """
    if not 0.0 <= q_r <= q_d <= 1.0:
        raise ValueError("need 0 <= q_r <= q_d <= 1")
    u = rng.random()
    return BlockageState(beta_d=int(u >= q_d), beta_r=int(u >= q_r))


def sample_blockage_batch(
    q_d: float,
    q_r: float,
    size: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised sample_blockage; returns (beta_d, beta_r) int8 arrays."""
    if not 0.0 <= q_r <= q_d <= 1.0:
        raise ValueError("need 0 <= q_r <= q_d <= 1")
    u = rng.random(size)
    return (u >= q_d).astype(np.int8), (u >= q_r).astype(np.int8)
