"""The paper's phase-one x space, kept as an independent test reference.

The paper states phase one in the substituted variable x = exp(cd *
lambda_c * (Pc/Pd)^(2/alpha)); the solver works in power space and never
forms x.  These are the map from powers to x and its inverse, the paper's
concavity interval in x and its box on x, against which the tests check
the power-space solve.  It also holds the tests' one golden-section
search, the independent reference for the closed-form maximizers, and the
answer at mu = 0 written in the objective's own coefficient c, the
reference for the band constant f_free that the solver scales instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from d2dee import BandParams, InfeasibleProblem
from d2dee.model import _ratio_power


def x_from_powers(band: BandParams, p_cell_w: float, p_d2d_w: float) -> float:
    """Substituted variable exp(cd * lambda_c * (Pc/Pd)^(2/alpha))."""
    if not (p_cell_w > 0 and p_d2d_w > 0):  # NaN fails it
        raise ValueError("transmit powers must be strictly positive")
    if band.density_cell == 0:
        raise ValueError("transform undefined without cellular density")
    ratio = _ratio_power(p_cell_w, p_d2d_w, 2.0 / band.pathloss_exponent)
    return math.exp(band.coeff_d2d() * band.density_cell * ratio)


def free_reference(lo: float, hi: float, c: float, alpha: float) -> float:
    """The stationary point (2c/alpha)^(alpha/2) of K * exp(-c * p^(-2/alpha))
    / p clamped to [lo, hi]: lo where c is 0, hi where the point overflows."""
    if c <= 0.0:
        return lo
    try:
        p = (2.0 * c / alpha) ** (alpha / 2.0)
    except OverflowError:
        p = math.inf
    return min(max(p, lo), hi)


def golden_section_max(f, lo: float, hi: float, width: float) -> float:
    """The maximizer of ``f``, unimodal on [lo, hi], as the midpoint of the
    bracket that golden-section search narrows to at most ``width``."""
    invphi = (math.sqrt(5) - 1) / 2
    x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > width:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
    return 0.5 * (lo + hi)


def curvature_interval(alpha: float) -> tuple[float, float]:
    """Interval (t1, t2) of x where the per-band D2D objective is concave.

    t_{1,2} = exp((3*alpha -/+ sqrt(alpha^2 + 16*alpha)) / 8); outside the
    interval the objective is convex.  t1 > 1 for every alpha > 2.
    """
    if alpha <= 2.0:
        raise ValueError(
            "pathloss exponent must exceed 2 (interference Laplace functional diverges)"
        )
    root = math.sqrt(alpha * alpha + 16.0 * alpha)
    t1 = math.exp((3.0 * alpha - root) / 8.0)
    t2 = math.exp((3.0 * alpha + root) / 8.0)
    return t1, t2


@dataclass
class FeasibleBox:
    """Per-band bounds on the paper's phase-one x variable."""

    lo: float
    hi: float
    lo_source: str  # qos_cell | power_cap
    hi_source: str  # qos_d2d

    @property
    def empty(self) -> bool:
        return self.lo > self.hi


def power_from_x(band: BandParams, p_cell_w: float, x: float) -> float:
    """Inverse transform: D2D power implied by x at the given cellular power."""
    if x <= 1.0:
        raise ValueError("x must exceed 1 (ln x must be positive)")
    if band.density_cell == 0:
        raise ValueError("transform undefined without cellular density")
    k = band.pathloss_exponent / 2.0
    return p_cell_w * (band.coeff_d2d() * band.density_cell / math.log(x)) ** k


def x_feasible_box(band: BandParams, p_cell_w: float, band_index: int = 0) -> FeasibleBox:
    """QoS and power-cap bounds on x for one band at a fixed cellular power.

    Upper bound: the D2D outage cap, x <= exp(-cd*lambda_d) / (1 - theta_d).
    Lower bounds: the cellular outage cap inverted through the transform,
    and the per-band D2D power cap (smaller x means more D2D power).
    """
    cd = band.coeff_d2d()
    cc = band.coeff_cell()
    ld, lc = band.density_d2d, band.density_cell
    hi = math.exp(-cd * ld) / (1.0 - band.outage_cap_d2d)
    # the outage budget -ln(1 - theta_c) - cc*lambda_c that the cellular cap
    # leaves to D2D interference; cc grows as T^(2/alpha), so the cap is
    # reachable only below t_max
    cap_exp = -math.log(1.0 - band.outage_cap_cell)
    if not cap_exp > cc * lc:
        t_max = band.sir_threshold_cell * (cap_exp / (cc * lc)) ** (band.pathloss_exponent / 2.0)
        raise InfeasibleProblem(
            "cellular outage cap unreachable at any power: "
            f"sir_threshold_cell must be below {t_max:.3g} on band {band_index}",
            band=band_index,
            constraint="qos_cell",
        )
    lo_qos = math.exp(cc * cd * lc * ld / (cap_exp - cc * lc))
    lo_cap = math.exp(
        cd * lc * (p_cell_w / band.max_power_d2d_w) ** (2.0 / band.pathloss_exponent)
    )
    if lo_qos >= lo_cap:
        lo, lo_source = lo_qos, "qos_cell"
    else:
        lo, lo_source = lo_cap, "power_cap"
    # a lower end that rounds to 1 would map to infinite D2D power (ln 1 = 0);
    # the next float up stays on the feasible side of both lower bounds
    lo = max(lo, math.nextafter(1.0, math.inf))
    box = FeasibleBox(lo=lo, hi=hi, lo_source=lo_source, hi_source="qos_d2d")
    if box.empty or hi <= 1.0:
        raise InfeasibleProblem(
            f"empty feasible set on band {band_index}",
            band=band_index,
            constraint=lo_source if box.empty else "qos_d2d",
        )
    return box
