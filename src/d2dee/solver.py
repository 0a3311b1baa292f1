"""Two-phase energy-efficiency power allocation across bands.

Phase one fixes the cellular powers and maximizes total D2D energy
efficiency; phase two fixes the D2D powers and maximizes total cellular
energy efficiency.  The closed forms make these one problem with the two
classes swapped, which one power-space routine solves: each band maximizes
K * exp(-c * p^(-2/alpha)) / p, stationary at (2c/alpha)^(alpha/2), over
the box that both outage caps and the power cap set, taking the best of
the box ends and the clamped root; the class's single power budget is
handled by bisection on its Lagrange multiplier mu.

Phase one also reports the paper's substituted variable x = exp(cd *
lambda_c * (Pc/Pd)^(2/alpha)) of its result.  The paper's box and
concavity interval in x are x_feasible_box and curvature_interval; the
solve does not need them.

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
    """Per-band bounds on the paper's phase-one x variable."""

    lo: float
    hi: float
    lo_source: str  # qos_cell | power_cap
    hi_source: str  # qos_d2d

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
    lo_qos = math.exp(cc * cd * lc * ld / _margin(band, "cell", band_index)[0])
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
# budget multiplier


def _dual_bisect(solve_at_mu, budget: float, opts: SolveOptions):
    """Bisection on the multiplier of a single coupling power budget.

    ``solve_at_mu(mu)`` returns the per-band powers maximizing the penalized
    objectives; their sum is nonincreasing in mu.  Returns (powers, mu, met)
    where ``met`` is False only if the bracket collapsed on a jump (duality
    gap).
    """
    dec0 = solve_at_mu(0.0)
    if math.fsum(dec0) <= budget:
        return dec0, 0.0, True
    mu_lo, mu_hi = 0.0, 1.0
    for _ in range(400):
        if math.fsum(solve_at_mu(mu_hi)) <= budget:
            break
        mu_lo = mu_hi
        mu_hi *= 4.0
    else:
        return dec0, 0.0, False
    dec_hi = solve_at_mu(mu_hi)
    while (mu_hi - mu_lo) > 1e-15 * mu_hi:
        mid = 0.5 * (mu_lo + mu_hi)
        dec_mid = solve_at_mu(mid)
        if math.fsum(dec_mid) <= budget:
            mu_hi, dec_hi = mid, dec_mid
            if budget - math.fsum(dec_mid) <= opts.budget_tol_rel * budget:
                break
        else:
            mu_lo = mid
    met = (budget - math.fsum(dec_hi)) <= opts.budget_tol_rel * budget
    return dec_hi, mu_hi, met


# ---------------------------------------------------------------------------
# one phase: the powers of one class at the other class's fixed powers

_NAME = {"d2d": "D2D", "cell": "cellular"}
_BUDGET_INFEASIBLE = {
    "d2d": "D2D budget infeasible under QoS caps",
    "cell": "cellular budget below the sum of QoS lower bounds",
}
_GAP_FLAG = {
    "d2d": "budget met by proportional scaling (duality gap)",
    "cell": "cellular budget met by proportional scaling (duality gap)",
}


def _phase_bands(
    system: SystemParams, own: str, q: list[float], opts: SolveOptions
) -> tuple[list[tuple[float, float]], list[tuple[float, ...]], list[str]]:
    """Per-band power box and objective of class ``own`` at the other
    class's powers ``q``.

    With k = alpha/2 the box is q * (coeff_own * lambda_other / margin_own)^k
    <= p <= min(q * (margin_other / (coeff_other * lambda_own))^k, cap), and
    the objective is K * exp(-c * p^(-2/alpha)) / p with K = W log2(1+T_own)
    exp(-coeff_own * lambda_own), c = coeff_own * lambda_other * q^(2/alpha).
    Returns (bounds, rows, flags), rows[i] = (effective lower end, upper
    end, c, K, alpha).  A band without other-class density has no positive
    lower end and no interior optimum: it is anchored at the power
    tolerance, and the budget is checked against that anchor.
    """
    other = "cell" if own == "d2d" else "d2d"
    if len(q) != system.num_bands:
        raise ValueError(f"{_NAME[other]} power vector length must match the band count")
    for i, qi in enumerate(q):
        if qi <= 0:
            raise ValueError(f"{_NAME[other]} power on band {i} must be positive")

    bounds: list[tuple[float, float]] = []
    rows: list[tuple[float, ...]] = []
    flags: list[str] = []
    for i, band in enumerate(system.bands):
        a = band.pathloss_exponent
        k = a / 2.0
        margin_other, coeff_other, dens_other = _margin(band, other, i)
        margin_own, coeff_own, dens_own = _margin(band, own, i)
        cap = getattr(band, f"max_power_{own}_w")
        lo = q[i] * (coeff_own * dens_other / margin_own) ** k if dens_other > 0 else 0.0
        hi = q[i] * (margin_other / (coeff_other * dens_own)) ** k if dens_own > 0 else math.inf
        hi, hi_source = (hi, f"qos_{other}") if hi <= cap else (cap, "power_cap")
        if lo > hi:
            raise InfeasibleProblem(f"empty feasible set on band {i}", band=i, constraint=hi_source)
        bounds.append((lo, hi))
        if lo <= 0.0:
            lo = min(opts.eps_power_w, hi)
            flags.append(f"band {i}: no {_NAME[other]} density, "
                         f"{_NAME[own]} power anchored at tolerance")
        c = coeff_own * dens_other * q[i] ** (2.0 / a)
        threshold = getattr(band, f"sir_threshold_{own}")
        k_amp = band.bandwidth_hz * math.log2(1.0 + threshold) * math.exp(-coeff_own * dens_own)
        rows.append((lo, hi, c, k_amp, a))

    budget = getattr(system, f"budget_{own}_w")
    if math.fsum(r[0] for r in rows) > budget * (1.0 + opts.budget_tol_rel):
        raise InfeasibleProblem(_BUDGET_INFEASIBLE[own], band=None, constraint=f"budget_{own}")
    return bounds, rows, flags


def _solve_phase(
    system: SystemParams, own: str, q: list[float], opts: SolveOptions
) -> tuple[list[float], dict]:
    """Maximize the total energy efficiency of class ``own`` at fixed ``q``.

    Each band maximizes K * exp(-c * p^(-2/alpha)) / p - mu * p over its
    box (see _phase_bands); the class's budget is enforced by bisection on
    mu, and by proportional scaling if the bisection meets a duality gap.
    """
    bounds, rows, flags = _phase_bands(system, own, q, opts)

    def argmax(i: int, mu: float) -> float:
        # In s = p^(-2/alpha) the slope of K e^(-cs) / p - mu p is psi(s) - mu,
        # psi = K e^(-cs) s^alpha (beta s - 1) with beta = 2c/alpha, which is zero
        # at 1/beta and peaks once, at the larger root of
        # c beta s^2 - (c + alpha beta + beta) s + alpha.
        lo, hi, c, k_amp, a = rows[i]
        if c <= 0.0:
            return lo  # no interference from the other class: the objective falls
        if mu == 0.0:
            root = (2.0 * c / a) ** (a / 2.0)
        else:
            beta = 2.0 * c / a
            psi = lambda s: k_amp * math.exp(-c * s) * s**a * (beta * s - 1.0)
            b = c + a * beta + beta
            s_p = (b + math.sqrt(b * b - 4.0 * c * beta * a)) / (2.0 * c * beta)
            if psi(s_p) <= mu:
                return lo  # the objective falls everywhere
            root = _rising_root(lambda s: psi(s) - mu, 1.0 / beta, s_p) ** (-a / 2.0)
        f = lambda p: k_amp * math.exp(-c * p ** (-2.0 / a)) / p - mu * p
        return max((lo, min(max(root, lo), hi), hi), key=f)

    budget = getattr(system, f"budget_{own}_w")
    solve_at_mu = lambda mu: [argmax(i, mu) for i in range(len(rows))]
    dec, mu, met = _dual_bisect(solve_at_mu, budget, opts)
    if not met and math.fsum(dec) > budget:
        scale = budget / math.fsum(dec)
        dec = [min(max(p * scale, r[0]), r[1]) for p, r in zip(dec, rows)]
        flags.append(_GAP_FLAG[own])
    return dec, {"mu": mu, "flags": flags, "bounds": bounds}


def solve_d2d_phase(
    system: SystemParams, p_cell: list[float], opts: SolveOptions | None = None
) -> tuple[list[float], list[float], dict]:
    """Maximize total D2D energy efficiency at fixed cellular powers.

    Returns (x, p_d2d, diagnostics), where x is the paper's substituted
    variable of each band's result (see x_from_powers).  Bands without
    cellular density have no x: their objective is monotone decreasing in
    the D2D power, so they are anchored at the solver's power tolerance
    (flagged) and report nan.
    """
    p_out, diag = _solve_phase(system, "d2d", p_cell, opts or SolveOptions())
    x_out = [
        x_from_powers(band, p_cell[i], p_out[i]) if band.density_cell > 0 else math.nan
        for i, band in enumerate(system.bands)
    ]
    return x_out, p_out, diag


def solve_cell_phase(
    system: SystemParams, p_d2d: list[float], opts: SolveOptions | None = None
) -> tuple[list[float], dict]:
    """Maximize total cellular energy efficiency at fixed D2D powers.

    ``coupled`` mode keeps the power-ratio term of the success probability
    live and solves the cellular side of the shared problem (see the module
    docstring).  ``paper_literal`` freezes the ratio term instead, leaving a
    monotone decreasing objective, so every band pins to its lower bound.
    """
    opts = opts or SolveOptions()
    if opts.phase2_mode == "paper_literal":
        bounds, rows, flags = _phase_bands(system, "cell", p_d2d, opts)
        warnings.warn(
            "paper_literal mode: frozen-ratio cellular objective is monotone "
            "decreasing; returning per-band lower bounds",
            RuntimeWarning,
            stacklevel=2,
        )
        p_out = [r[0] for r in rows]
        return p_out, {"mu": 0.0, "flags": flags, "bounds": bounds, "mode": "paper_literal"}
    p_out, diag = _solve_phase(system, "cell", p_d2d, opts)
    diag["mode"] = "coupled"
    return p_out, diag


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

    for it in range(1, opts.max_outer_iters + 1):
        if min(p_cell) <= 0.0:
            # geometric scale collapse underflowed; the ratio is already pinned
            flags.append("cellular power underflow, iteration stopped early")
            break
        _, p_d2d, diag1 = solve_d2d_phase(system, p_cell, opts)
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
