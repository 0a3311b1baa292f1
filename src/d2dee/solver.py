"""Two-phase energy-efficiency power allocation across bands.

Phase one fixes the cellular powers and maximizes total D2D energy
efficiency over the substituted variable x = exp(cd * lambda_c *
(Pc/Pd)^(2/alpha)), where cd is the band's D2D interference coefficient.
The substitution turns each band objective into (ln x)^(alpha/2) / x, a
unimodal function on (1, inf) with stationary point exp(alpha/2), and the
QoS caps become a per-band box in x.  Phase two fixes the D2D powers and
maximizes cellular energy efficiency per band, stationary at
(2c/alpha)^(alpha/2).  The single power budget of either phase is handled
by bisection on its Lagrange multiplier mu.  Each per-band maximum is the
best of the box ends and the stationary root clamped into the box, ties
going to the lowest point; at mu > 0 the root is bisected from a bracket
with closed-form ends (see each phase's argmax).

The model's energy efficiency depends on transmit powers only through
their ratio and a 1/P factor, so the joint problem has no interior scale
optimum; the alternating scheme drifts geometrically until a cap, budget
or the power-change stopping rule pins it.  See check_feasible and the
iteration trace for how results are reported.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .model import (
    BandParams,
    MetricsReport,
    PowerAllocation,
    SystemParams,
    metrics,
    stp_cell,
    stp_d2d,
)

__all__ = [
    "InfeasibleProblem",
    "SolveOptions",
    "FeasibleBox",
    "IterationTrace",
    "AllocationResult",
    "FeasibilityReport",
    "x_from_powers",
    "power_from_x",
    "curvature_interval",
    "x_feasible_box",
    "solve_d2d_phase",
    "solve_cell_phase",
    "optimize_powers",
    "baseline_fixed_cell",
    "check_feasible",
]

class InfeasibleProblem(ValueError):
    """A QoS or budget constraint cannot be met; names the offending piece."""

    def __init__(self, message: str, band: int | None = None, constraint: str = ""):
        super().__init__(message)
        self.band = band
        self.constraint = constraint


@dataclass
class SolveOptions:
    """Solver tolerances; the power-change tolerance doubles as the
    anchor for degenerate bands whose objective has no interior optimum.
    The per-band maximizers are closed-form candidates and need none."""

    eps_power_w: float = 1e-5
    max_outer_iters: int = 10
    budget_tol_rel: float = 1e-6
    phase2_mode: str = "coupled"  # or "paper_literal"

    def __post_init__(self):
        for name in ("eps_power_w", "budget_tol_rel"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be positive")
        if self.phase2_mode not in ("coupled", "paper_literal"):
            raise ValueError("phase2_mode must be 'coupled' or 'paper_literal'")


@dataclass
class FeasibleBox:
    """Per-band bounds for the phase-one x variable or phase-two power."""

    lo: float
    hi: float
    lo_source: str  # qos_cell | power_cap | qos_d2d | curvature
    hi_source: str

    @property
    def empty(self) -> bool:
        return self.lo > self.hi


@dataclass
class IterationTrace:
    """Outer-iteration history of the alternating solve."""

    p_d2d_w: list[list[float]] = field(default_factory=list)
    p_cell_w: list[list[float]] = field(default_factory=list)
    ee_d2d_total: list[float] = field(default_factory=list)
    ee_cell_total: list[float] = field(default_factory=list)
    delta_d_w: list[float] = field(default_factory=list)
    delta_c_w: list[float] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0

    def to_dict(self) -> dict:
        return {
            "p_d2d_w": self.p_d2d_w,
            "p_cell_w": self.p_cell_w,
            "ee_d2d_total": self.ee_d2d_total,
            "ee_cell_total": self.ee_cell_total,
            "delta_d_w": self.delta_d_w,
            "delta_c_w": self.delta_c_w,
            "converged": self.converged,
            "iterations": self.iterations,
        }


@dataclass
class FeasibilityReport:
    """Constraint slacks of an allocation; nonnegative slack means satisfied."""

    band_slacks: list[dict]
    budget_d2d_slack: float
    budget_cell_slack: float
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        worst = min(
            (min(row.values()) for row in self.band_slacks),
            default=0.0,
        )
        return min(worst, self.budget_d2d_slack, self.budget_cell_slack) >= -1e-8

    def to_dict(self) -> dict:
        return {
            "band_slacks": self.band_slacks,
            "budget_d2d_slack": self.budget_d2d_slack,
            "budget_cell_slack": self.budget_cell_slack,
            "ok": self.ok,
            "notes": list(self.notes),
        }


@dataclass
class AllocationResult:
    alloc: PowerAllocation
    trace: IterationTrace
    metrics: MetricsReport
    feasibility: FeasibilityReport
    flags: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "p_d2d_w": list(self.alloc.p_d2d_w),
            "p_cell_w": list(self.alloc.p_cell_w),
            "trace": self.trace.to_dict(),
            "metrics": self.metrics.to_dict(),
            "feasibility": self.feasibility.to_dict(),
            "flags": list(self.flags),
        }


# ---------------------------------------------------------------------------
# variable transform


def x_from_powers(band: BandParams, p_cell_w: float, p_d2d_w: float) -> float:
    """Substituted variable exp(cd * lambda_c * (Pc/Pd)^(2/alpha))."""
    if p_cell_w <= 0 or p_d2d_w <= 0:
        raise ValueError("transmit powers must be strictly positive")
    if band.density_cell == 0:
        raise ValueError("transform undefined without cellular density")
    ratio = (p_cell_w / p_d2d_w) ** (2.0 / band.pathloss_exponent)
    return math.exp(band.coeff_d2d() * band.density_cell * ratio)


def power_from_x(band: BandParams, p_cell_w: float, x: float) -> float:
    """Inverse transform: D2D power implied by x at the given cellular power."""
    if x <= 1.0:
        raise ValueError("x must exceed 1 (ln x must be positive)")
    if band.density_cell == 0:
        raise ValueError("transform undefined without cellular density")
    k = band.pathloss_exponent / 2.0
    return p_cell_w * (band.coeff_d2d() * band.density_cell / math.log(x)) ** k


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


# ---------------------------------------------------------------------------
# feasible boxes


def _cell_margin(band: BandParams, band_index: int) -> float:
    """Cellular outage budget left to D2D interference, -ln(1-theta_c) - cc*lambda_c."""
    cap_exp = -math.log(1.0 - band.outage_cap_cell)
    cc_lc = band.coeff_cell() * band.density_cell
    if cap_exp <= cc_lc:
        # cc grows as T^(2/alpha): the cap is reachable only below t_max
        t_max = band.sir_threshold_cell * (cap_exp / cc_lc) ** (band.pathloss_exponent / 2.0)
        raise InfeasibleProblem(
            "cellular outage cap unreachable at any power: "
            f"sir_threshold_cell must be below {t_max:.3g} on band {band_index}",
            band=band_index,
            constraint="qos_cell",
        )
    return cap_exp - cc_lc


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
    lo_qos = math.exp(cc * cd * lc * ld / _cell_margin(band, band_index))
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


# ---------------------------------------------------------------------------
# 1-D maximization helpers


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


def _dual_bisect(solve_at_mu, total_power, budget: float, opts: SolveOptions):
    """Bisection on the multiplier of a single coupling power budget.

    ``solve_at_mu(mu)`` returns the per-band decision vector maximizing the
    penalized objectives; ``total_power`` maps it to spent power, which is
    nonincreasing in mu.  Returns (decisions, mu, met) where ``met`` is
    False only if the bracket collapsed on a jump (duality gap).
    """
    dec0 = solve_at_mu(0.0)
    if total_power(dec0) <= budget:
        return dec0, 0.0, True
    mu_lo, mu_hi = 0.0, 1.0
    for _ in range(400):
        if total_power(solve_at_mu(mu_hi)) <= budget:
            break
        mu_lo = mu_hi
        mu_hi *= 4.0
    else:
        return dec0, 0.0, False
    dec_hi = solve_at_mu(mu_hi)
    while (mu_hi - mu_lo) > 1e-15 * mu_hi:
        mid = 0.5 * (mu_lo + mu_hi)
        dec_mid = solve_at_mu(mid)
        if total_power(dec_mid) <= budget:
            mu_hi, dec_hi = mid, dec_mid
            if budget - total_power(dec_mid) <= opts.budget_tol_rel * budget:
                break
        else:
            mu_lo = mid
    met = (budget - total_power(dec_hi)) <= opts.budget_tol_rel * budget
    return dec_hi, mu_hi, met


# ---------------------------------------------------------------------------
# phase one: D2D powers at fixed cellular powers


def solve_d2d_phase(
    system: SystemParams, p_cell: list[float], opts: SolveOptions | None = None
) -> tuple[list[float], list[float], dict]:
    """Maximize total D2D energy efficiency at fixed cellular powers.

    Returns (x, p_d2d, diagnostics).  Bands without cellular density bypass
    the transform: their objective is monotone decreasing in the D2D power,
    so they are anchored at the solver's power tolerance (flagged).
    """
    opts = opts or SolveOptions()
    bands = system.bands
    m = system.num_bands
    if len(p_cell) != m:
        raise ValueError("cellular power vector length must match the band count")
    for i, pc in enumerate(p_cell):
        if pc <= 0:
            raise ValueError(f"cellular power on band {i} must be positive")

    x_out = [math.nan] * m
    p_out = [0.0] * m
    flags: list[str] = []
    boxed: list[int] = []
    boxes: dict[int, FeasibleBox] = {}
    powers: dict[int, object] = {}
    terms: dict[int, tuple[float, float, float]] = {}
    fixed_power = 0.0

    for i, band in enumerate(bands):
        if band.density_cell == 0.0:
            # degenerate band: EE decreases in P_d with no positive floor
            hi_d2d = -math.log(1.0 - band.outage_cap_d2d)
            if band.coeff_d2d() * band.density_d2d >= hi_d2d:
                raise InfeasibleProblem(
                    f"empty feasible set on band {i}", band=i, constraint="qos_d2d"
                )
            cap_qos_cell = math.inf
            if band.density_d2d > 0:
                cap_qos_cell = p_cell[i] * (
                    -math.log(1.0 - band.outage_cap_cell)
                    / (band.coeff_cell() * band.density_d2d)
                ) ** (band.pathloss_exponent / 2.0)
            p_out[i] = min(opts.eps_power_w, band.max_power_d2d_w, cap_qos_cell)
            flags.append(f"band {i}: no cellular density, D2D power anchored at tolerance")
            fixed_power += p_out[i]
            continue
        boxes[i] = x_feasible_box(band, p_cell[i], i)
        boxed.append(i)
        k = band.pathloss_exponent / 2.0
        cdlc = band.coeff_d2d() * band.density_cell
        amp = (
            band.bandwidth_hz
            * math.log2(1.0 + band.sir_threshold_d2d)
            * math.exp(-band.coeff_d2d() * band.density_d2d)
            / (cdlc**k * p_cell[i])
        )
        powers[i] = lambda x, pc=p_cell[i], c=cdlc, k=k: pc * (c / math.log(x)) ** k
        terms[i] = (amp, k, p_cell[i] * cdlc**k)

    budget = system.budget_d2d_w
    min_spend = fixed_power + math.fsum(powers[i](boxes[i].hi) for i in boxed)
    if min_spend > budget * (1.0 + opts.budget_tol_rel):
        raise InfeasibleProblem(
            "D2D budget infeasible under QoS caps", band=None, constraint="budget_d2d"
        )

    def argmax(i: int, mu: float) -> float:
        # In u = ln x the objective is A u^k e^(-u) - mu B u^(-k), B = P_c (cd lc)^k;
        # its slope has the sign of mu B k - phi(u), phi = A u^(2k) (u-k) e^(-u),
        # which is zero at u = k and peaks once, at u_p.
        amp, k, b = terms[i]
        lo, hi = boxes[i].lo, boxes[i].hi
        if mu == 0.0:
            u = k
        else:
            phi = lambda u: amp * u ** (2.0 * k) * (u - k) * math.exp(-u)
            u_p = 0.5 * (3.0 * k + 1.0 + math.sqrt((3.0 * k + 1.0) ** 2 - 8.0 * k * k))
            if phi(u_p) <= mu * b * k:
                return hi  # the objective rises everywhere
            u = _rising_root(lambda u: phi(u) - mu * b * k, k, u_p)
        f = lambda x: amp * math.log(x) ** k / x - mu * powers[i](x)
        return max((lo, min(max(math.exp(u), lo), hi), hi), key=f)

    def total_power(dec: dict[int, float]) -> float:
        return fixed_power + math.fsum(powers[i](dec[i]) for i in boxed)

    solve_at_mu = lambda mu: {i: argmax(i, mu) for i in boxed}
    dec, mu, met = _dual_bisect(solve_at_mu, total_power, budget, opts)
    if not met and total_power(dec) > budget:
        # duality gap: scale the implied powers onto the budget, then clamp.
        # The clamp works in log space so a scaled-down power cannot overflow
        # the exponential of the transform.
        scale = (budget - fixed_power) / (total_power(dec) - fixed_power)
        for i in boxed:
            band = bands[i]
            p_scaled = powers[i](dec[i]) * scale
            ln_x = (
                band.coeff_d2d()
                * band.density_cell
                * (p_cell[i] / p_scaled) ** (2.0 / band.pathloss_exponent)
            )
            ln_x = min(max(ln_x, math.log(boxes[i].lo)), math.log(boxes[i].hi))
            dec[i] = min(max(math.exp(ln_x), boxes[i].lo), boxes[i].hi)
        flags.append("budget met by proportional scaling (duality gap)")

    for i in boxed:
        x_out[i] = dec[i]
        p_out[i] = powers[i](dec[i])
    diag = {
        "mu": mu,
        "flags": flags,
        "boxes": {i: boxes[i] for i in boxed},
        "spent_w": math.fsum(p_out),
    }
    return x_out, p_out, diag


# ---------------------------------------------------------------------------
# phase two: cellular powers at fixed D2D powers


def _cell_bounds(band: BandParams, p_d2d: float, band_index: int) -> tuple[float, float]:
    """Per-band cellular power box implied by both outage caps at fixed P_d."""
    k = band.pathloss_exponent / 2.0
    cd, cc = band.coeff_d2d(), band.coeff_cell()
    ld, lc = band.density_d2d, band.density_cell
    d2d_margin = -math.log(1.0 - band.outage_cap_d2d) - cd * ld
    if d2d_margin <= 0.0:
        raise InfeasibleProblem(
            "D2D QoS unreachable: outage cap below the density-only outage",
            band=band_index,
            constraint="qos_d2d",
        )
    cell_margin = _cell_margin(band, band_index)
    lo = p_d2d * (cc * ld / cell_margin) ** k if ld > 0 else 0.0
    hi = p_d2d * (d2d_margin / (cd * lc)) ** k if lc > 0 else math.inf
    hi = min(hi, band.max_power_cell_w)
    if lo > hi:
        raise InfeasibleProblem(
            f"empty feasible set on band {band_index}",
            band=band_index,
            constraint="qos_cell",
        )
    return lo, hi


def solve_cell_phase(
    system: SystemParams, p_d2d: list[float], opts: SolveOptions | None = None
) -> tuple[list[float], dict]:
    """Maximize total cellular energy efficiency at fixed D2D powers.

    In ``coupled`` mode the per-band objective keeps the power-ratio term of
    the success probability live, giving K * exp(-c * P^(-2/alpha)) / P with
    the closed-form interior maximizer (2c/alpha)^(alpha/2); the result is
    clamped into the QoS/cap box and the total budget is enforced by dual
    bisection.  ``paper_literal`` freezes the ratio term instead, leaving a
    monotone decreasing objective, so every band pins to its lower bound.
    """
    opts = opts or SolveOptions()
    bands = system.bands
    m = system.num_bands
    if len(p_d2d) != m:
        raise ValueError("D2D power vector length must match the band count")
    for i, pd in enumerate(p_d2d):
        if pd <= 0:
            raise ValueError(f"D2D power on band {i} must be positive")

    flags: list[str] = []
    bounds = [_cell_bounds(band, p_d2d[i], i) for i, band in enumerate(bands)]
    lo_total = math.fsum(b[0] for b in bounds)
    if lo_total > system.budget_cell_w * (1.0 + opts.budget_tol_rel):
        raise InfeasibleProblem(
            "cellular budget below the sum of QoS lower bounds",
            band=None,
            constraint="budget_cell",
        )
    # degenerate bands (no interior optimum) anchor at the power tolerance
    eff_lo = []
    for i, (lo, hi) in enumerate(bounds):
        if lo <= 0.0:
            lo = min(opts.eps_power_w, hi)
            flags.append(f"band {i}: no D2D density, cellular power anchored at tolerance")
        eff_lo.append(lo)

    if opts.phase2_mode == "paper_literal":
        warnings.warn(
            "paper_literal mode: frozen-ratio cellular objective is monotone "
            "decreasing; returning per-band lower bounds",
            RuntimeWarning,
            stacklevel=2,
        )
        p_out = [eff_lo[i] for i in range(m)]
        return p_out, {"mu": 0.0, "flags": flags, "bounds": bounds, "mode": "paper_literal"}

    alpha = [band.pathloss_exponent for band in bands]
    coef = [
        band.coeff_cell() * band.density_d2d * p_d2d[i] ** (2.0 / alpha[i])
        for i, band in enumerate(bands)
    ]
    kconst = [
        band.bandwidth_hz
        * math.log2(1.0 + band.sir_threshold_cell)
        * math.exp(-band.coeff_cell() * band.density_cell)
        for band in bands
    ]

    def argmax(i: int, mu: float) -> float:
        # In s = p^(-2/alpha) the slope of K e^(-cs) / p - mu p is psi(s) - mu,
        # psi = K e^(-cs) s^alpha (beta s - 1) with beta = 2c/alpha, which is zero
        # at 1/beta and peaks once, at the larger root of
        # c beta s^2 - (c + alpha beta + beta) s + alpha.
        c, a, lo, hi = coef[i], alpha[i], eff_lo[i], bounds[i][1]
        if c <= 0.0:
            return lo  # no D2D interference: the objective falls everywhere
        if mu == 0.0:
            root = (2.0 * c / a) ** (a / 2.0)
        else:
            beta = 2.0 * c / a
            psi = lambda s: kconst[i] * math.exp(-c * s) * s**a * (beta * s - 1.0)
            q = c + a * beta + beta
            s_p = (q + math.sqrt(q * q - 4.0 * c * beta * a)) / (2.0 * c * beta)
            if psi(s_p) <= mu:
                return lo  # the objective falls everywhere
            root = _rising_root(lambda s: psi(s) - mu, 1.0 / beta, s_p) ** (-a / 2.0)
        f = lambda p: kconst[i] * math.exp(-c * p ** (-2.0 / a)) / p - mu * p
        return max((lo, min(max(root, lo), hi), hi), key=f)

    solve_at_mu = lambda mu: [argmax(i, mu) for i in range(m)]
    dec, mu, met = _dual_bisect(solve_at_mu, math.fsum, system.budget_cell_w, opts)
    if not met and math.fsum(dec) > system.budget_cell_w:
        scale = system.budget_cell_w / math.fsum(dec)
        dec = [min(max(p * scale, eff_lo[i]), bounds[i][1]) for i, p in enumerate(dec)]
        flags.append("cellular budget met by proportional scaling (duality gap)")
    diag = {"mu": mu, "flags": flags, "bounds": bounds, "mode": "coupled"}
    return dec, diag


# ---------------------------------------------------------------------------
# alternating iteration and baseline


def optimize_powers(system: SystemParams, opts: SolveOptions | None = None) -> AllocationResult:
    """Alternate the two phases until both power changes fall below tolerance.

    Cellular powers start at min(cap, budget/M) per band (an all-zero start
    would leave phase one undefined).  Stops when the largest per-band power
    change of both classes is at most eps_power_w, or after max_outer_iters.
    """
    opts = opts or SolveOptions()
    m = system.num_bands
    p_cell = [
        min(band.max_power_cell_w, system.budget_cell_w / m) for band in system.bands
    ]
    p_d_prev = [0.0] * m
    p_c_prev = list(p_cell)
    trace = IterationTrace()
    flags: list[str] = []
    converged = False
    x_last: list[float] = [math.nan] * m
    p_d2d: list[float] = list(p_d_prev)

    for it in range(1, opts.max_outer_iters + 1):
        if min(p_cell) <= 0.0:
            # geometric scale collapse underflowed; the ratio is already pinned
            flags.append("cellular power underflow, iteration stopped early")
            break
        x_last, p_d2d, diag1 = solve_d2d_phase(system, p_cell, opts)
        delta_d = max(abs(a - b) for a, b in zip(p_d2d, p_d_prev))
        p_d_prev = list(p_d2d)

        p_cell, diag2 = solve_cell_phase(system, p_d2d, opts)
        delta_c = max(abs(a - b) for a, b in zip(p_cell, p_c_prev))
        p_c_prev = list(p_cell)

        rep = metrics(system, PowerAllocation(p_d2d, p_cell))
        trace.p_d2d_w.append(list(p_d2d))
        trace.p_cell_w.append(list(p_cell))
        trace.ee_d2d_total.append(rep.ee_d2d_total)
        trace.ee_cell_total.append(rep.ee_cell_total)
        trace.delta_d_w.append(delta_d)
        trace.delta_c_w.append(delta_c)
        trace.iterations = it
        for msg in diag1["flags"] + diag2["flags"]:
            if msg not in flags:
                flags.append(msg)
        if delta_d <= opts.eps_power_w and delta_c <= opts.eps_power_w:
            converged = True
            break

    trace.converged = converged
    alloc = PowerAllocation(list(p_d2d), list(p_cell))
    return AllocationResult(
        alloc=alloc,
        trace=trace,
        metrics=metrics(system, alloc),
        feasibility=check_feasible(system, alloc),
        flags=flags,
    )


def baseline_fixed_cell(
    system: SystemParams, p_cell_fixed_w: float, opts: SolveOptions | None = None
) -> AllocationResult:
    """Single D2D solve with every band's cellular power pinned externally.

    The fixed power is exogenous reference data, not an optimization
    variable, so the per-band cellular cap is not applied to it.
    """
    if p_cell_fixed_w <= 0:
        raise ValueError("fixed cellular power must be positive")
    opts = opts or SolveOptions()
    p_cell = [p_cell_fixed_w] * system.num_bands
    _, p_d2d, diag = solve_d2d_phase(system, p_cell, opts)
    alloc = PowerAllocation(p_d2d, p_cell)
    trace = IterationTrace(
        p_d2d_w=[list(p_d2d)],
        p_cell_w=[list(p_cell)],
        delta_d_w=[max(p_d2d)],
        delta_c_w=[0.0],
        converged=True,
        iterations=1,
    )
    rep = metrics(system, alloc)
    trace.ee_d2d_total.append(rep.ee_d2d_total)
    trace.ee_cell_total.append(rep.ee_cell_total)
    return AllocationResult(
        alloc=alloc,
        trace=trace,
        metrics=rep,
        feasibility=check_feasible(system, alloc),
        flags=list(diag["flags"]),
    )


def check_feasible(system: SystemParams, alloc: PowerAllocation) -> FeasibilityReport:
    """Slack of every constraint of both problems; reports, never raises.

    Outage slacks come from the closed-form success probabilities.  A band
    with nonpositive transmit power cannot satisfy its own outage cap (the
    success probability is not defined), so it is reported as a violation.
    """
    rows: list[dict] = []
    notes: list[str] = []
    for i, band in enumerate(system.bands):
        pd = alloc.p_d2d_w[i]
        pc = alloc.p_cell_w[i]
        row = {
            "cap_d2d": band.max_power_d2d_w - pd,
            "cap_cell": band.max_power_cell_w - pc,
        }
        if pd > 0 and pc > 0:
            row["qos_d2d"] = band.outage_cap_d2d - (1.0 - stp_d2d(band, pc, pd))
            row["qos_cell"] = band.outage_cap_cell - (1.0 - stp_cell(band, pc, pd))
        else:
            row["qos_d2d"] = band.outage_cap_d2d - 1.0
            row["qos_cell"] = band.outage_cap_cell - 1.0
            notes.append(f"band {i}: nonpositive power, outage reported as violated")
        rows.append(row)
    return FeasibilityReport(
        band_slacks=rows,
        budget_d2d_slack=system.budget_d2d_w - alloc.total_d2d(),
        budget_cell_slack=system.budget_cell_w - alloc.total_cell(),
        notes=notes,
    )
