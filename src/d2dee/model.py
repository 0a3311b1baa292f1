"""Closed-form uplink metrics for D2D links underlaying a cellular network.

Both user classes are modeled as independent planar Poisson fields with
Rayleigh fading and power-law path loss.  In the interference-limited
regime the success probability of a typical link is an exponential in the
interferer densities and the transmit-power ratio, which makes STP, ASR
and EE per band cheap closed forms.  All quantities are SI (W, Hz, m,
per m^2); SIR thresholds are linear, not dB.

Each numeric field has one rule, in ``_RULES``, which every type and the
config apply; a value that breaks it fails as ``<field> <why>``.

Every function here is pure.  Bands and systems are frozen: a band
computes its interference coefficients, each class's rate per unit
bandwidth log2(1+T) and outage exponent -ln(1-theta), and the constants
of both power allocation phases once, on construction, and nothing
changes them after; a copy with one density changed keeps the first
three and derives the phase constants.
Each success probability is written once, in ``_stp``, and ``metrics``
evaluates a band in one pass that gives what ``stp_d2d``, ``stp_cell``,
``asr`` and ``ee_per_band`` give, bit for bit.  Safe to call from any
thread.
"""

from __future__ import annotations

import math
import numbers
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
    "ee_per_band",
    "metrics",
]


def _finite(value) -> bool:
    """math.isfinite, and False for an int too large for a float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


# (test, why) pairs, each failing NaN
_POSITIVE = (lambda v: v > 0, "must be positive")
_NONNEGATIVE = (lambda v: v >= 0, "must be nonnegative")
_FINITE = (_finite, "must be finite")
# The one rule of each numeric field of BandParams, SystemParams,
# solver.SolveOptions, simulate.SimScenario and the baseline power, by field
# name: (whether it is a count, its (test, why) pairs in order).  An
# infinite bandwidth would give a class without density a NaN ASR.
_RULES = {
    **dict.fromkeys(("sir_threshold_d2d", "sir_threshold_cell", "d2d_link_distance_m",
                     "cell_link_distance_m", "max_power_d2d_w", "max_power_cell_w",
                     "budget_d2d_w", "budget_cell_w"), (False, (_POSITIVE,))),
    **dict.fromkeys(("bandwidth_hz", "eps_power_w", "p_cell_w", "p_d2d_w", "window_radius_m",
                     "baseline_p_cell_w"), (False, (_POSITIVE, _FINITE))),
    **dict.fromkeys(("outage_cap_d2d", "outage_cap_cell"),
                    (False, ((lambda v: 0.0 < v < 1.0, "must lie strictly inside (0, 1)"),))),
    "pathloss_exponent": (False, (
        (lambda v: v > 2.0, "must exceed 2 (interference Laplace functional diverges)"), _FINITE)),
    **dict.fromkeys(("density_d2d", "density_cell"), (False, (_NONNEGATIVE,))),
    **dict.fromkeys(("trials", "workers"), (True, ((lambda v: v >= 1, "must be at least 1"),))),
    "seed": (True, (_NONNEGATIVE,)),
    "max_outer_iters": (True, (_POSITIVE,)),
}


def _fault(rule: tuple, value) -> str | None:
    """What ``value`` breaks of ``rule``, an entry of ``_RULES``, or None.
    A count must be an integer and any other field a number, and a bool is
    neither; then each test must pass, in order."""
    count, tests = rule
    if count:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            return "must be an integer"
    elif type(value) is bool:
        return "must be a number, not a bool"
    for test, why in tests:
        if not test(value):
            return why
    return None


def _check(name: str, value, label: str | None = None) -> None:
    """Raise ``ValueError('<label> <why>')`` where ``value`` breaks the rule
    of field ``name``; the label is the field's name unless given."""
    why = _fault(_RULES[name], value)
    if why is not None:
        raise ValueError(f"{label or name} {why}")


def _check_fields(obj) -> None:
    """Check each field of dataclass ``obj`` that has a rule, in field order."""
    for name, value in vars(obj).items():
        if name in _RULES:
            _check(name, value)


def gamma_product(alpha: float) -> float:
    """Gamma(1 + 2/alpha) * Gamma(1 - 2/alpha) for path-loss exponent alpha.

    Uses the reflection identity Gamma(1+x)Gamma(1-x) = pi*x/sin(pi*x) with
    x = 2/alpha, which is exact to machine precision on alpha > 2 and avoids
    a general gamma evaluation.  Diverges as alpha -> 2 (pole of the second
    factor), which is why the model requires alpha > 2.
    """
    _check("pathloss_exponent", alpha)  # at alpha = inf, x = 0 would divide by sin(0)
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
    try:
        coeff = math.pi * threshold ** (2.0 / alpha) * link_distance_m**2 * gamma_product(alpha)
    except OverflowError:
        coeff = math.inf
    if not math.isfinite(coeff):
        raise ValueError(f"interference coefficient is not finite at SIR threshold "
                         f"{threshold!r} and link distance {link_distance_m!r} m")
    return coeff


def _ratio_power(num: float, den: float, e: float) -> float:
    """(num / den)^e for num >= 0, or +inf where den is 0 or the power overflows.
    Where num > 0 and the quotient overflows or underflows, exp(e * (ln num -
    ln den)), so a root (e < 1) of it stays finite and positive."""
    if den == 0.0:
        return math.inf
    ratio = num / den
    try:
        if num > 0.0 and (ratio == 0.0 or ratio == math.inf):
            return math.exp(e * (math.log(num) - math.log(den)))
        return ratio**e
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class BandParams:
    """Physical parameters of one band.

    Densities are per m^2, distances in m, powers in W, bandwidth in Hz.
    Outage caps bound the tolerated outage probability per link class.
    A band computes on construction, once, what depends on it alone: the
    interference coefficients, each class's rate per unit bandwidth
    log2(1+T) and outage exponent -ln(1-theta), the outage margins
    -ln(1-theta) - coeff*lambda of both classes, which are positive where a
    class's cap is reachable, and, if both are, the phase constants of each
    class that ``solver._phase_bands`` scales by the other class's powers.
    With k = alpha/2 and c = coeff_own * lambda_other, these are the box
    factors f_lo = (c / margin_own)^k and f_hi = (margin_other /
    (coeff_other * lambda_own))^k, and f_free = (2c/alpha)^k, the factor
    of the class's best power at a slack budget.
    So f_free <= f_lo, and a slack phase returns the class's QoS lower end,
    exactly when its own outage margin is at most alpha/2.  They sit in
    slots, so ``vars(band)`` holds the parameters alone.  The coefficients,
    rates and outage exponents do not depend on the densities; the margins
    and phase constants do, and ``_set_density_constants`` alone derives
    them, so a band with one density changed (``_with_density``, a sweep
    point) copies the first three and derives only the rest, with no log.
    """

    __slots__ = ("__dict__", "_coeffs", "_rates", "_cap_exps", "_margins", "_phase")

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
        _check_fields(self)
        a = self.pathloss_exponent
        object.__setattr__(self, "_coeffs", (
            interference_coeff(self.sir_threshold_d2d, self.d2d_link_distance_m, a),
            interference_coeff(self.sir_threshold_cell, self.cell_link_distance_m, a)))
        object.__setattr__(self, "_rates", (math.log2(1.0 + self.sir_threshold_d2d),
                                            math.log2(1.0 + self.sir_threshold_cell)))
        object.__setattr__(self, "_cap_exps", (-math.log(1.0 - self.outage_cap_d2d),
                                               -math.log(1.0 - self.outage_cap_cell)))
        self._set_density_constants()

    def _set_density_constants(self) -> None:
        """Set what the densities reach: the outage margins and the phase
        constants, from the density-free ``_coeffs``, ``_rates`` and
        ``_cap_exps``."""
        (cd, cc), (rate_d, rate_c), (exp_d, exp_c) = self._coeffs, self._rates, self._cap_exps
        used_d, used_c = cd * self.density_d2d, cc * self.density_cell
        cross_d, cross_c = cd * self.density_cell, cc * self.density_d2d
        margin_d = exp_d - used_d
        margin_c = exp_c - used_c
        # each class's (f_lo, f_hi, f_free, power cap, c, K); see solver._phase_bands
        phase = None
        if margin_d > 0.0 and margin_c > 0.0:
            a = self.pathloss_exponent
            k = a / 2.0
            amp_d = self.bandwidth_hz * rate_d * math.exp(-used_d)
            amp_c = self.bandwidth_hz * rate_c * math.exp(-used_c)
            phase = {
                "d2d": (_ratio_power(cross_d, margin_d, k), _ratio_power(margin_c, cross_c, k),
                        _ratio_power(2.0 * cross_d, a, k), self.max_power_d2d_w, cross_d, amp_d),
                "cell": (_ratio_power(cross_c, margin_c, k), _ratio_power(margin_d, cross_d, k),
                         _ratio_power(2.0 * cross_c, a, k), self.max_power_cell_w, cross_c,
                         amp_c),
            }
        object.__setattr__(self, "_margins", {"d2d": margin_d, "cell": margin_c})
        object.__setattr__(self, "_phase", phase)

    def _with_density(self, name: str, value: float) -> "BandParams":
        """This band with the density field ``name`` set to ``value``: the
        other fields and the density-free ``_coeffs``, ``_rates`` and
        ``_cap_exps`` are copied, and only the density constants are derived
        anew; ``value`` is not checked."""
        band = object.__new__(type(self))
        band.__dict__.update(self.__dict__)
        band.__dict__[name] = value
        object.__setattr__(band, "_coeffs", self._coeffs)
        object.__setattr__(band, "_rates", self._rates)
        object.__setattr__(band, "_cap_exps", self._cap_exps)
        band._set_density_constants()
        return band

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
    """All bands, kept as a tuple, plus the cross-band transmit power budgets."""

    bands: tuple[BandParams, ...]
    budget_d2d_w: float
    budget_cell_w: float

    def __post_init__(self):
        object.__setattr__(self, "bands", tuple(self.bands))
        if len(self.bands) < 1:
            raise ValueError("at least one band is required")
        _check_fields(self)

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
    if not (0.0 < p_cell_w < math.inf and 0.0 < p_d2d_w < math.inf):  # NaN fails it
        raise ValueError("transmit powers must be positive and finite")


def _stp(coeff: float, density_own: float, density_other: float,
         p_other_w: float, p_own_w: float, e: float) -> float:
    """exp{-coeff * [lambda_own + lambda_other * (P_other/P_own)^e]}: the
    success probability of a class whose interference coefficient is
    ``coeff``, at e = 2/alpha and powers already checked.  Without
    interferers of the other class their term is 0, also where the ratio
    overflows to inf."""
    if density_other == 0.0:
        return math.exp(-coeff * density_own)
    return math.exp(-coeff * (density_own + density_other * _ratio_power(p_other_w, p_own_w, e)))


def stp_d2d(band: BandParams, p_cell_w: float, p_d2d_w: float) -> float:
    """Success probability of the typical D2D receiver in this band.

    exp{-coeff_d2d * [lambda_d + lambda_c * (Pc/Pd)^(2/alpha)]}.  Depends on
    the powers only through their ratio.
    """
    _check_powers(p_cell_w, p_d2d_w)
    return _stp(band._coeffs[0], band.density_d2d, band.density_cell,
                p_cell_w, p_d2d_w, 2.0 / band.pathloss_exponent)


def stp_cell(band: BandParams, p_cell_w: float, p_d2d_w: float) -> float:
    """Success probability of the typical base station, mirror of stp_d2d."""
    _check_powers(p_cell_w, p_d2d_w)
    return _stp(band._coeffs[1], band.density_cell, band.density_d2d,
                p_d2d_w, p_cell_w, 2.0 / band.pathloss_exponent)


def asr(band: BandParams, stp: float, density: float, threshold: float) -> float:
    """Average sum rate per unit area at a fixed SIR threshold.

    density * W * log2(1+T) * STP, the fixed-threshold evaluation of the
    rate lower bound.
    """
    return _asr(band, density, math.log2(1.0 + threshold), stp)


def _asr(band: BandParams, density: float, rate: float, stp: float) -> float:
    """density * W * log2(1+T) * STP, with ``rate`` the class's log2(1+T)."""
    if not 0.0 <= stp <= 1.0:  # NaN fails too
        raise ValueError("stp must lie in [0, 1]")
    return density * band.bandwidth_hz * rate * stp


def _ee(band: BandParams, power_w: float, rate: float, stp: float) -> float:
    """W/P * log2(1+T) * STP, with ``rate`` the class's log2(1+T) from ``band._rates``."""
    return (band.bandwidth_hz / power_w) * rate * stp


def ee_per_band(band: BandParams, p_cell_w: float, p_d2d_w: float) -> tuple[float, float]:
    """Energy efficiency (bit/J) of the D2D and cellular class in one band.

    EE equals ASR divided by the per-area power spend, so the density cancels
    and each class sees W/P * log2(1+T) * STP.  Scaling both powers by k
    divides both values by exactly k.
    """
    rate_d, rate_c = band._rates
    return (_ee(band, p_d2d_w, rate_d, stp_d2d(band, p_cell_w, p_d2d_w)),
            _ee(band, p_cell_w, rate_c, stp_cell(band, p_cell_w, p_d2d_w)))


def _check_band_count(system: SystemParams, alloc: PowerAllocation) -> None:
    """Raise unless ``alloc`` has one power of each class per band of ``system``."""
    if len(alloc.p_d2d_w) != system.num_bands:
        raise ValueError(
            f"allocation has {len(alloc.p_d2d_w)} bands, system has {system.num_bands}"
        )


def _ee_total(ee: list[float]) -> float:
    """fsum of one class's EEs, which are nonnegative: +inf where it overflows."""
    try:
        return math.fsum(ee)
    except OverflowError:
        return math.inf


def metrics(system: SystemParams, alloc: PowerAllocation) -> MetricsReport:
    """Evaluate STP/ASR/EE on every band and aggregate the totals.

    One pass per band: its powers are checked once, each STP is evaluated
    once (``_stp``), and its ASR and EE are derived from it with the band's
    rates, in the order ``asr`` and ``ee_per_band`` evaluate them.  So every
    value equals theirs bit for bit, and a fault names its band.  Totals use
    exact (fsum) summation so they are invariant under band permutation; a
    total past the largest float is +inf, as + gives.
    """
    _check_band_count(system, alloc)
    stp_d, stp_c, asr_d, asr_c, ee_d, ee_c = [], [], [], [], [], []
    for i, (band, pd, pc) in enumerate(zip(system.bands, alloc.p_d2d_w, alloc.p_cell_w)):
        (cd, cc), (rate_d, rate_c) = band._coeffs, band._rates
        dens_d, dens_c = band.density_d2d, band.density_cell
        e = 2.0 / band.pathloss_exponent
        try:
            _check_powers(pc, pd)
            s_d = _stp(cd, dens_d, dens_c, pc, pd, e)
            s_c = _stp(cc, dens_c, dens_d, pd, pc, e)
            # _asr rejects a NaN STP: an infinite density times a ratio of 0
            a_d = _asr(band, dens_d, rate_d, s_d)
            a_c = _asr(band, dens_c, rate_c, s_c)
        except ValueError as exc:
            raise ValueError(f"band {i}: {exc}") from exc
        stp_d.append(s_d)
        stp_c.append(s_c)
        asr_d.append(a_d)
        asr_c.append(a_c)
        ee_d.append(_ee(band, pd, rate_d, s_d))
        ee_c.append(_ee(band, pc, rate_c, s_c))
    total_d, total_c = _ee_total(ee_d), _ee_total(ee_c)
    return MetricsReport(stp_d, stp_c, asr_d, asr_c, ee_d, ee_c, total_d, total_c, total_d + total_c)
