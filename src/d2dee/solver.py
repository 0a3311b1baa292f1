"""Two-phase energy-efficiency power allocation across bands.

Phase one fixes the cellular powers and maximizes total D2D energy
efficiency; phase two fixes the D2D powers and maximizes total cellular
energy efficiency.  The closed forms make these one problem with the two
classes swapped, which one power-space routine solves: each band maximizes
K * exp(-c * p^(-2/alpha)) / p - mu * p over the box that both outage caps
and the power cap set, and the class's single power budget is handled by
bisection on its Lagrange multiplier mu.  At mu = 0 the objective rises
up to its one stationary point (2c/alpha)^(alpha/2) and falls beyond it,
so that point clamped to the box is the band's power, with no objective
evaluated; at mu > 0 the band takes the best of the box ends and the
clamped rising root of the slope (see _Objective.argmax).

Each band's box and objective split into constants of the system and a
scaling by the other class's powers q, the only input a phase varies:
the outage margins, the box factors, K and the interference coefficient
are computed once per band and class and cached on the system.  A phase
call multiplies them by q or q^(2/alpha) into one _Objective per band,
its box and objective, whose argmax at a multiplier mu is that band's
best power (see _phase_bands).

The paper states phase one in the substituted variable x = exp(cd *
lambda_c * (Pc/Pd)^(2/alpha)); the solve works in power space and never
forms x.  x_from_powers maps a result to the paper's x, and
curvature_interval gives the paper's concavity interval in x.

The model's energy efficiency depends on transmit powers only through
their ratio and a 1/P factor, so the joint problem has no interior scale
optimum; the alternating scheme drifts geometrically until a cap, budget
or the power-change stopping rule pins it.  See check_feasible and the
iteration trace for how results are reported.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

from .model import (
    BandParams,
    _rising_root,
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
    "IterationTrace",
    "AllocationResult",
    "FeasibilityReport",
    "x_from_powers",
    "curvature_interval",
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

    def __post_init__(self):
        if self.eps_power_w <= 0:
            raise ValueError("eps_power_w must be positive")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be positive")


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


@dataclass
class FeasibilityReport:
    """Constraint slacks of an allocation; nonnegative slack means satisfied,
    and ``ok`` also accepts -1e-8 per band and BUDGET_TOL_REL per budget."""

    band_slacks: list[dict]
    budget_d2d_slack: float
    budget_cell_slack: float
    budget_d2d_w: float
    budget_cell_w: float
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        worst = min(
            (min(row.values()) for row in self.band_slacks),
            default=0.0,
        )
        return (worst >= -1e-8
                and self.budget_d2d_slack >= -BUDGET_TOL_REL * self.budget_d2d_w
                and self.budget_cell_slack >= -BUDGET_TOL_REL * self.budget_cell_w)

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
            "trace": asdict(self.trace),
            "metrics": asdict(self.metrics),
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
# outage margins


def _margin(band: BandParams, cls: str, band_index: int) -> tuple[float, float, float]:
    """(margin, interference coefficient, density) of one user class, ``"d2d"``
    or ``"cell"``, on a band.  The margin -ln(1-theta) - coeff*lambda is the
    outage budget the class leaves to the other class's interference."""
    coeff = getattr(band, f"coeff_{cls}")()
    density = getattr(band, f"density_{cls}")
    cap_exp = -math.log(1.0 - getattr(band, f"outage_cap_{cls}"))
    used = coeff * density
    if cap_exp > used:
        return cap_exp - used, coeff, density
    if cls == "d2d":
        raise InfeasibleProblem(
            "D2D QoS unreachable: outage cap below the density-only outage",
            band=band_index,
            constraint="qos_d2d",
        )
    # coeff grows as T^(2/alpha): the cap is reachable only below t_max
    t_max = band.sir_threshold_cell * (cap_exp / used) ** (band.pathloss_exponent / 2.0)
    raise InfeasibleProblem(
        "cellular outage cap unreachable at any power: "
        f"sir_threshold_cell must be below {t_max:.3g} on band {band_index}",
        band=band_index,
        constraint="qos_cell",
    )


# ---------------------------------------------------------------------------
# budget multiplier


def _dual_bisect(solve_at_mu, budget: float):
    """Bisection on the multiplier of a single coupling power budget.

    ``solve_at_mu(mu)`` returns the per-band powers maximizing the penalized
    objectives; their sum is nonincreasing in mu.  Returns (powers, mu).
    The powers meet the budget unless no multiplier up to 4^399 does, in
    which case they are those at mu = 0.  A bracket that collapses on a
    jump (duality gap) returns the powers under the budget at its upper
    end, even if they undershoot it by more than BUDGET_TOL_REL.
    """
    dec0 = solve_at_mu(0.0)
    if math.fsum(dec0) <= budget:
        return dec0, 0.0
    mu_lo, mu_hi = 0.0, 1.0
    for _ in range(400):
        dec_hi = solve_at_mu(mu_hi)
        if math.fsum(dec_hi) <= budget:
            break
        mu_lo = mu_hi
        mu_hi *= 4.0
    else:
        return dec0, 0.0
    while (mu_hi - mu_lo) > 1e-15 * mu_hi:
        mid = 0.5 * (mu_lo + mu_hi)
        dec_mid = solve_at_mu(mid)
        if math.fsum(dec_mid) <= budget:
            mu_hi, dec_hi = mid, dec_mid
            if budget - math.fsum(dec_mid) <= BUDGET_TOL_REL * budget:
                break
        else:
            mu_lo = mid
    return dec_hi, mu_hi


# ---------------------------------------------------------------------------
# one phase: the powers of one class at the other class's fixed powers

BUDGET_TOL_REL = 1e-6  # the overspend of a power budget, relative to it, that is accepted
_NAME = {"d2d": "D2D", "cell": "cellular"}
_BUDGET_INFEASIBLE = {
    "d2d": "D2D budget infeasible under QoS caps",
    "cell": "cellular budget below the sum of QoS lower bounds",
}
_GAP_FLAG = {
    "d2d": "budget met by proportional scaling (duality gap)",
    "cell": "cellular budget met by proportional scaling (duality gap)",
}


def _band_constants(band: BandParams, own: str, other: str, i: int) -> tuple:
    """Constants of class ``own`` on band ``i``: (f_lo, f_hi, cap,
    coeff_own * lambda_other, K, alpha).

    f_lo = (coeff_own * lambda_other / margin_own)^k and f_hi = (margin_other
    / (coeff_other * lambda_own))^k are the box factors: f_lo is 0 where
    lambda_other is 0, and f_hi is inf where lambda_own is 0.  Raises
    InfeasibleProblem when an outage cap is unreachable, checking the other
    class first.
    """
    a = band.pathloss_exponent
    k = a / 2.0
    margin_other, coeff_other, dens_other = _margin(band, other, i)
    margin_own, coeff_own, dens_own = _margin(band, own, i)
    f_lo = (coeff_own * dens_other / margin_own) ** k
    f_hi = (margin_other / (coeff_other * dens_own)) ** k if dens_own > 0 else math.inf
    threshold = getattr(band, f"sir_threshold_{own}")
    k_amp = band.bandwidth_hz * math.log2(1.0 + threshold) * math.exp(-coeff_own * dens_own)
    return f_lo, f_hi, getattr(band, f"max_power_{own}_w"), coeff_own * dens_other, k_amp, a


class _Objective(NamedTuple):
    """One band's phase objective K * exp(-c * p^(-2/alpha)) / p - mu * p
    on lo <= p <= hi, with the lower end anchored (see _phase_bands)."""

    lo: float
    hi: float
    c: float
    k_amp: float
    alpha: float

    def value(self, p: float, mu: float) -> float:
        return self.k_amp * math.exp(-self.c * p ** (-2.0 / self.alpha)) / p - mu * p

    def argmax(self, mu: float) -> float:
        """The maximizing power on the box at multiplier ``mu``.

        At mu = 0 this is the stationary point (2c/alpha)^(alpha/2) clamped
        to the box, found without evaluating the objective.  With s =
        p^(-2/alpha) and beta = 2c/alpha, the slope of K e^(-cs) / p has the
        sign of beta s - 1: the objective rises in p up to that point and
        falls beyond it, so the clamped point is the exact box maximum.  A
        comparison of values at the box ends and the clamped point could
        pick otherwise only through rounding: where every value underflows
        to 0.0 (it would pick the lower end, although the objective rises
        across the box), or where a box end lies within about 1e-7
        (relative) of the point and ties with it, which changes the value
        by at most 1e-15, relatively.  At mu > 0 it is the best, by value,
        of the box ends and the clamped rising root of the slope.
        """
        # In s the slope of K e^(-cs) / p - mu p is psi(s) - mu, psi = K e^(-cs)
        # s^alpha (beta s - 1), which is zero at 1/beta and peaks once, at the
        # larger root of c beta s^2 - (c + alpha beta + beta) s + alpha.
        lo, hi, c, k_amp, a = self.lo, self.hi, self.c, self.k_amp, self.alpha
        if c <= 0.0:
            return lo  # no interference from the other class: the objective falls
        if mu == 0.0:
            return min(max((2.0 * c / a) ** (a / 2.0), lo), hi)
        beta = 2.0 * c / a

        def slope(s: float) -> float:
            try:
                return k_amp * math.exp(-c * s) * s**a * (beta * s - 1.0) - mu
            except OverflowError:
                # s**a alone overflows, psi need not: compare logs, by sign
                rest = k_amp * math.exp(-c * s) * (beta * s - 1.0)
                above = rest > 0.0 and math.log(rest) + a * math.log(s) > math.log(mu)
                return 1.0 if above else -1.0

        b = c + a * beta + beta
        s_p = (b + math.sqrt(b * b - 4.0 * c * beta * a)) / (2.0 * c * beta)
        if slope(s_p) <= 0.0:
            return lo  # the objective falls everywhere
        root = _rising_root(slope, 1.0 / beta, s_p) ** (-a / 2.0)
        return max((lo, min(max(root, lo), hi), hi), key=lambda p: self.value(p, mu))


def _phase_bands(
    system: SystemParams, own: str, q: list[float], opts: SolveOptions
) -> tuple[list[tuple[float, float]], list[_Objective], list[str]]:
    """Per-band power box and objective of class ``own`` at the other
    class's powers ``q``.

    With k = alpha/2 the box is q * (coeff_own * lambda_other / margin_own)^k
    <= p <= min(q * (margin_other / (coeff_other * lambda_own))^k, cap), and
    the objective is K * exp(-c * p^(-2/alpha)) / p with K = W log2(1+T_own)
    exp(-coeff_own * lambda_own), c = coeff_own * lambda_other * q^(2/alpha).
    Everything but q is a constant of the system (see _band_constants): it
    is computed once per band and class, on the first call that reaches the
    band, and kept in ``system.cache``; a call only scales the box factors
    and c by q.  A band whose constants raise caches nothing, so every call
    raises there again.  Two threads that fill a band at once store equal
    tuples.  Returns (bounds, objectives, flags): bounds[i] is band i's box
    and objectives[i] its _Objective.  A band without other-class density
    has no positive lower end and no interior optimum: its objective's
    lower end is anchored at the power tolerance, and _solve_phase checks
    the budget against that anchor.
    """
    other = "cell" if own == "d2d" else "d2d"
    if len(q) != system.num_bands:
        raise ValueError(f"{_NAME[other]} power vector length must match the band count")
    for i, qi in enumerate(q):
        if not 0.0 < qi < math.inf:  # a box factor of 0 or inf would give nan
            raise ValueError(f"{_NAME[other]} power on band {i} must be positive and finite")

    consts = system.cache.setdefault(own, [None] * system.num_bands)
    bounds: list[tuple[float, float]] = []
    objectives: list[_Objective] = []
    flags: list[str] = []
    for i, band in enumerate(system.bands):
        if consts[i] is None:
            consts[i] = _band_constants(band, own, other, i)
        f_lo, f_hi, cap, c_unit, k_amp, a = consts[i]
        lo, hi = q[i] * f_lo, q[i] * f_hi
        hi, hi_source = (hi, f"qos_{other}") if hi <= cap else (cap, "power_cap")
        if lo > hi:
            raise InfeasibleProblem(f"empty feasible set on band {i}", band=i, constraint=hi_source)
        bounds.append((lo, hi))
        if lo <= 0.0:
            lo = min(opts.eps_power_w, hi)
            flags.append(f"band {i}: no {_NAME[other]} density, "
                         f"{_NAME[own]} power anchored at tolerance")
        objectives.append(_Objective(lo, hi, c_unit * q[i] ** (2.0 / a), k_amp, a))
    return bounds, objectives, flags


def _solve_phase(
    system: SystemParams, own: str, q: list[float], opts: SolveOptions
) -> tuple[list[float], dict]:
    """Maximize the total energy efficiency of class ``own`` at fixed ``q``.

    Each band maximizes its _Objective over its box (see _phase_bands); the
    class's budget is enforced by bisection on mu (see _dual_bisect).  Lower
    ends that exceed the budget by more than its tolerance raise; within it
    they are returned at once, flagged.  Only if no multiplier up to 4^399
    meets the budget is every band's excess above its lower end scaled by
    one factor, and flagged.
    """
    bounds, objectives, flags = _phase_bands(system, own, q, opts)
    budget = getattr(system, f"budget_{own}_w")
    floor = math.fsum(b.lo for b in objectives)
    if floor > budget * (1.0 + BUDGET_TOL_REL):
        raise InfeasibleProblem(_BUDGET_INFEASIBLE[own], band=None, constraint=f"budget_{own}")
    if floor > budget:
        # no multiplier takes a band below its lower end
        flags.append(f"{_NAME[own]} lower ends exceed the budget within BUDGET_TOL_REL")
        return [b.lo for b in objectives], {"mu": 0.0, "flags": flags, "bounds": bounds}
    solve_at_mu = lambda mu: [b.argmax(mu) for b in objectives]
    dec, mu = _dual_bisect(solve_at_mu, budget)
    if math.fsum(dec) > budget:
        # no multiplier up to 4^399 meets the budget; the lower ends cannot
        # give way, so scaling them too could overspend
        s = (budget - floor) / (math.fsum(dec) - floor)
        dec = [min(b.lo + s * (p - b.lo), b.hi) for p, b in zip(dec, objectives)]
        flags.append(_GAP_FLAG[own])
    return dec, {"mu": mu, "flags": flags, "bounds": bounds}


def solve_d2d_phase(
    system: SystemParams, p_cell: list[float], opts: SolveOptions | None = None
) -> tuple[list[float], dict]:
    """Maximize total D2D energy efficiency at fixed cellular powers.

    Returns (p_d2d, diagnostics); x_from_powers maps a band's result to the
    paper's x.  Bands without cellular density have an objective that falls
    in the D2D power, so they are anchored at the solver's power tolerance
    (flagged).
    """
    return _solve_phase(system, "d2d", p_cell, opts or SolveOptions())


def solve_cell_phase(
    system: SystemParams, p_d2d: list[float], opts: SolveOptions | None = None
) -> tuple[list[float], dict]:
    """Maximize total cellular energy efficiency at fixed D2D powers.

    The power-ratio term of the success probability stays live, so this is
    the cellular side of the shared problem (see the module docstring).
    Returns (p_cell, diagnostics).
    """
    return _solve_phase(system, "cell", p_d2d, opts or SolveOptions())


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
    p_d2d: list[float] = list(p_d_prev)
    rep = None

    for it in range(1, opts.max_outer_iters + 1):
        if min(p_cell) <= 0.0:
            # geometric scale collapse underflowed; the ratio is already pinned
            flags.append("cellular power underflow, iteration stopped early")
            break
        p_d2d, diag1 = solve_d2d_phase(system, p_cell, opts)
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
    if rep is None:
        # the last iteration's report is of these powers; none exists only
        # when the starting cellular powers underflow, and then this raises
        rep = metrics(system, alloc)
    return AllocationResult(
        alloc=alloc,
        trace=trace,
        metrics=rep,
        feasibility=check_feasible(system, alloc, rep),
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
    p_d2d, diag = solve_d2d_phase(system, p_cell, opts)
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
        feasibility=check_feasible(system, alloc, rep),
        flags=list(diag["flags"]),
    )


def check_feasible(
    system: SystemParams, alloc: PowerAllocation, report: MetricsReport | None = None
) -> FeasibilityReport:
    """Slack of every constraint of both problems; reports, never raises.

    Outage slacks come from the closed-form success probabilities, read
    from ``report`` when given (a ``metrics`` report of ``alloc``).  A band
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
            if report is None:
                s_d, s_c = stp_d2d(band, pc, pd), stp_cell(band, pc, pd)
            else:
                s_d, s_c = report.stp_d2d[i], report.stp_cell[i]
            row["qos_d2d"] = band.outage_cap_d2d - (1.0 - s_d)
            row["qos_cell"] = band.outage_cap_cell - (1.0 - s_c)
        else:
            row["qos_d2d"] = band.outage_cap_d2d - 1.0
            row["qos_cell"] = band.outage_cap_cell - 1.0
            notes.append(f"band {i}: nonpositive power, outage reported as violated")
        rows.append(row)
    return FeasibilityReport(
        band_slacks=rows,
        budget_d2d_slack=system.budget_d2d_w - alloc.total_d2d(),
        budget_cell_slack=system.budget_cell_w - alloc.total_cell(),
        budget_d2d_w=system.budget_d2d_w,
        budget_cell_w=system.budget_cell_w,
        notes=notes,
    )
