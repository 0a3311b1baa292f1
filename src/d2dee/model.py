"""Closed-form uplink metrics for D2D links underlaying a cellular network.

Both user classes are modeled as independent planar Poisson fields with
Rayleigh fading and power-law path loss.  In the interference-limited
regime the success probability of a typical link is an exponential in the
interferer densities and the transmit-power ratio, which makes STP, ASR
and EE per band cheap closed forms.  All quantities are SI (W, Hz, m,
per m^2); SIR thresholds are linear, not dB.

Every function here is pure.  Bands and systems are frozen: a band
computes its two interference coefficients once, on construction, and a
system's ``cache`` holds only values the solver derives from its frozen
inputs.  Safe to call from any thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

__all__ = [
    "BandParams",
    "SystemParams",
    "PowerAllocation",
    "MetricsReport",
    "gamma_product",
    "interference_coeff",
    "stp_d2d",
    "stp_cell",
    "asr",
    "sup_rate_threshold",
    "ee_per_band",
    "metrics",
]


def gamma_product(alpha: float) -> float:
    """Gamma(1 + 2/alpha) * Gamma(1 - 2/alpha) for path-loss exponent alpha.

    Uses the reflection identity Gamma(1+x)Gamma(1-x) = pi*x/sin(pi*x) with
    x = 2/alpha, which is exact to machine precision on alpha > 2 and avoids
    a general gamma evaluation.  Diverges as alpha -> 2 (pole of the second
    factor), which is why the model requires alpha > 2.
    """
    if alpha <= 2.0:
        raise ValueError(
            "pathloss exponent must exceed 2 (interference Laplace functional diverges)"
        )
    x = 2.0 / alpha
    return math.pi * x / math.sin(math.pi * x)


def interference_coeff(threshold: float, link_distance_m: float, alpha: float) -> float:
    """Exponent coefficient of the planar-PPP interference Laplace functional.

    pi * T^(2/alpha) * R^2 * Gamma(1+2/alpha) * Gamma(1-2/alpha), where T is
    the linear SIR threshold and R the intended link distance.  Multiplied by
    an interferer density this gives the outage exponent of that class.
    """
    if threshold < 0:
        raise ValueError("SIR threshold must be nonnegative")
    if link_distance_m <= 0:
        raise ValueError("link distance must be positive")
    return math.pi * threshold ** (2.0 / alpha) * link_distance_m**2 * gamma_product(alpha)


@dataclass(frozen=True)
class BandParams:
    """Physical parameters of one band.

    Densities are per m^2, distances in m, powers in W, bandwidth in Hz.
    Outage caps bound the tolerated outage probability per link class.
    The interference coefficients are computed once, on construction; they
    sit in a slot, so ``vars(band)`` holds the parameters alone.
    """

    __slots__ = ("__dict__", "_coeffs")

    bandwidth_hz: float
    pathloss_exponent: float
    sir_threshold_d2d: float
    sir_threshold_cell: float
    density_d2d: float
    density_cell: float
    d2d_link_distance_m: float
    cell_link_distance_m: float
    outage_cap_d2d: float
    outage_cap_cell: float
    max_power_d2d_w: float
    max_power_cell_w: float

    def __post_init__(self):
        if self.pathloss_exponent <= 2.0:
            raise ValueError(
                "pathloss exponent must exceed 2 (interference Laplace functional diverges)"
            )
        for name in ("bandwidth_hz", "sir_threshold_d2d", "sir_threshold_cell",
                     "d2d_link_distance_m", "cell_link_distance_m",
                     "max_power_d2d_w", "max_power_cell_w"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        for name in ("density_d2d", "density_cell"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("outage_cap_d2d", "outage_cap_cell"):
            cap = getattr(self, name)
            if not 0.0 < cap < 1.0:
                raise ValueError(f"{name} must lie strictly inside (0, 1)")
        object.__setattr__(self, "_coeffs", (
            interference_coeff(
                self.sir_threshold_d2d, self.d2d_link_distance_m, self.pathloss_exponent),
            interference_coeff(
                self.sir_threshold_cell, self.cell_link_distance_m, self.pathloss_exponent),
        ))

    def __reduce__(self):
        # rebuild through __init__: a frozen instance cannot have its slot set
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    # Interference coefficients for the two link classes of this band.
    def coeff_d2d(self) -> float:
        return self._coeffs[0]

    def coeff_cell(self) -> float:
        return self._coeffs[1]


@dataclass(frozen=True)
class SystemParams:
    """All bands plus the cross-band transmit power budgets.

    The bands are kept as a tuple, so nothing that ``cache`` holds can go
    stale.  ``cache`` maps a user class, ``"d2d"`` or ``"cell"``, to one
    entry per band: None until a phase first reaches the band, then the
    tuple of that class's constants on it (see
    ``solver._band_constants``), from which each phase call builds its
    band objectives.
    """

    bands: tuple[BandParams, ...]
    budget_d2d_w: float
    budget_cell_w: float
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "bands", tuple(self.bands))
        if len(self.bands) < 1:
            raise ValueError("at least one band is required")
        if self.budget_d2d_w <= 0 or self.budget_cell_w <= 0:
            raise ValueError("power budgets must be positive")

    @property
    def num_bands(self) -> int:
        return len(self.bands)


@dataclass
class PowerAllocation:
    """Per-band D2D and cellular transmit powers (W)."""

    p_d2d_w: list[float]
    p_cell_w: list[float]

    def __post_init__(self):
        if len(self.p_d2d_w) != len(self.p_cell_w):
            raise ValueError("power vectors must have equal length")

    def total_d2d(self) -> float:
        return math.fsum(self.p_d2d_w)

    def total_cell(self) -> float:
        return math.fsum(self.p_cell_w)


@dataclass
class MetricsReport:
    """Per-band STP/ASR/EE plus totals.  ASR in bit/s per m^2, EE in bit/J."""

    stp_d2d: list[float] = field(default_factory=list)
    stp_cell: list[float] = field(default_factory=list)
    asr_d2d: list[float] = field(default_factory=list)
    asr_cell: list[float] = field(default_factory=list)
    ee_d2d: list[float] = field(default_factory=list)
    ee_cell: list[float] = field(default_factory=list)
    ee_d2d_total: float = 0.0
    ee_cell_total: float = 0.0
    ee_total: float = 0.0


def _check_powers(p_cell_w: float, p_d2d_w: float) -> None:
    if p_cell_w <= 0 or p_d2d_w <= 0:
        raise ValueError("transmit powers must be strictly positive")


def stp_d2d(band: BandParams, p_cell_w: float, p_d2d_w: float) -> float:
    """Success probability of the typical D2D receiver in this band.

    exp{-coeff_d2d * [lambda_d + lambda_c * (Pc/Pd)^(2/alpha)]}.  Depends on
    the powers only through their ratio.
    """
    _check_powers(p_cell_w, p_d2d_w)
    ratio = (p_cell_w / p_d2d_w) ** (2.0 / band.pathloss_exponent)
    return math.exp(-band.coeff_d2d() * (band.density_d2d + band.density_cell * ratio))


def stp_cell(band: BandParams, p_cell_w: float, p_d2d_w: float) -> float:
    """Success probability of the typical base station, mirror of stp_d2d."""
    _check_powers(p_cell_w, p_d2d_w)
    ratio = (p_d2d_w / p_cell_w) ** (2.0 / band.pathloss_exponent)
    return math.exp(-band.coeff_cell() * (band.density_cell + band.density_d2d * ratio))


def asr(band: BandParams, stp: float, density: float, threshold: float) -> float:
    """Average sum rate per unit area at a fixed SIR threshold.

    density * W * log2(1+T) * STP, the fixed-threshold evaluation of the
    rate lower bound.
    """
    if not 0.0 < stp <= 1.0:
        raise ValueError("stp must lie in (0, 1]")
    return density * band.bandwidth_hz * math.log2(1.0 + threshold) * stp


def _rising_root(g, a: float, b: float) -> float:
    """Root of g increasing on [a, b] with g(a) < 0 <= g(b), to adjacent floats."""
    while True:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            return b
        if g(mid) < 0.0:
            a = mid
        else:
            b = mid


def sup_rate_threshold(c: float, w_hz: float, alpha: float) -> tuple[float, float]:
    """Best fixed SIR threshold when STP(T) = exp(-c * T^(2/alpha)).

    Maximizes w * log2(1+T) * exp(-c T^(2/alpha)) over T in [1e-6, 1e6].
    The rate is stationary where (2c/alpha) T^(2/alpha-1) (1+T) ln(1+T) = 1;
    the left side strictly increases because ln(1+T) < T, so the root is
    bisected in ln T, and without a root in the range the clamped end is
    returned.  Returns (T*, rate).  Standalone utility; the power allocator
    always works at fixed thresholds.
    """
    if c <= 0:
        raise ValueError("supremum unbounded without interference")
    if w_hz <= 0:
        raise ValueError("bandwidth must be positive")
    expo = 2.0 / alpha

    def falling(u: float) -> float:
        # positive exactly where the rate decreases in T = e^u
        t = math.exp(u)
        return c * expo * t ** (expo - 1.0) * (1.0 + t) * math.log1p(t) - 1.0

    lo, hi = math.log(1e-6), math.log(1e6)
    if falling(lo) >= 0.0:
        t_star = 1e-6
    elif falling(hi) <= 0.0:
        t_star = 1e6
    else:
        t_star = math.exp(_rising_root(falling, lo, hi))
    return t_star, w_hz * math.log2(1.0 + t_star) * math.exp(-c * t_star**expo)


def _ee(band: BandParams, power_w: float, threshold: float, stp: float) -> float:
    return (band.bandwidth_hz / power_w) * math.log2(1.0 + threshold) * stp


def ee_per_band(band: BandParams, p_cell_w: float, p_d2d_w: float) -> tuple[float, float]:
    """Energy efficiency (bit/J) of the D2D and cellular class in one band.

    EE equals ASR divided by the per-area power spend, so the density cancels
    and each class sees W/P * log2(1+T) * STP.  Scaling both powers by k
    divides both values by exactly k.
    """
    return (_ee(band, p_d2d_w, band.sir_threshold_d2d, stp_d2d(band, p_cell_w, p_d2d_w)),
            _ee(band, p_cell_w, band.sir_threshold_cell, stp_cell(band, p_cell_w, p_d2d_w)))


def metrics(system: SystemParams, alloc: PowerAllocation) -> MetricsReport:
    """Evaluate STP/ASR/EE on every band and aggregate the totals.

    Each STP is evaluated once and both its ASR and its EE are derived from
    it, so ``ee_d2d``/``ee_cell`` equal ``ee_per_band`` bit for bit.  Totals
    use exact (fsum) summation so they are invariant under band permutation.
    """
    if len(alloc.p_d2d_w) != system.num_bands:
        raise ValueError(
            f"allocation has {len(alloc.p_d2d_w)} bands, system has {system.num_bands}"
        )
    rep = MetricsReport()
    for band, pd, pc in zip(system.bands, alloc.p_d2d_w, alloc.p_cell_w):
        s_d = stp_d2d(band, pc, pd)
        s_c = stp_cell(band, pc, pd)
        rep.stp_d2d.append(s_d)
        rep.stp_cell.append(s_c)
        rep.asr_d2d.append(asr(band, s_d, band.density_d2d, band.sir_threshold_d2d))
        rep.asr_cell.append(asr(band, s_c, band.density_cell, band.sir_threshold_cell))
        rep.ee_d2d.append(_ee(band, pd, band.sir_threshold_d2d, s_d))
        rep.ee_cell.append(_ee(band, pc, band.sir_threshold_cell, s_c))
    rep.ee_d2d_total = math.fsum(rep.ee_d2d)
    rep.ee_cell_total = math.fsum(rep.ee_cell)
    rep.ee_total = rep.ee_d2d_total + rep.ee_cell_total
    return rep
