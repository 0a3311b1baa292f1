"""The paper's phase-one x space, kept as an independent test reference.

The solver works in power space; these are the paper's box on the
substituted variable x = exp(cd * lambda_c * (Pc/Pd)^(2/alpha)) and the
inverse of d2dee.solver.x_from_powers, against which the tests check the
power-space solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from d2dee import BandParams, InfeasibleProblem


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
