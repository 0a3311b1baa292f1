"""Two-phase energy-efficiency power allocation across bands.

Phase one fixes the cellular powers and maximizes total D2D energy
efficiency; phase two fixes the D2D powers and maximizes total cellular
energy efficiency.  The closed forms make these one problem with the two
classes swapped, which one power-space routine solves: each band maximizes
K * exp(-c * p^(-2/alpha)) / p - mu * p over the box that both outage caps
and the power cap set, and the class's single power budget is handled by
bisection on ln mu, the log of its Lagrange multiplier, between two
closed-form ends (see _solve_phase).  At mu = 0 the objective rises up to
its one stationary point (2c/alpha)^(alpha/2) and falls beyond it, so that
point clamped to the box is the band's power, with no objective evaluated:
since c scales as q^(2/alpha), the point is q * f_free, f_free a constant
of the band (see _phase_bands).  At mu > 0 the band's power depends on c
and on the one number ln mu + alpha ln c - ln K, and is the better of the
lower end and the clamped rising root of the slope (see
_Objective.argmax_ln).  One bisection, _rising_root, finds both that root
and ln mu.

Each band's box and objective split into constants of the band and a
scaling by the other class's powers q, the only input a phase varies:
the box factors, K and the interference coefficient are computed once,
when the band is built (see model.BandParams).  A phase call makes one
pass over the bands that multiplies the box factors by q into each band's
box, its anchored lower end and its answer at mu = 0 (see _phase_bands);
it forms c = c_unit * q^(2/alpha) only to rebuild a factor that overflowed
or underflowed.  Where those answers fit the budget, as in every phase of
a slack-budget sweep, that pass is the whole phase.  Only a binding budget
forms each band's c and builds its _Objective (see _objective), whose
argmax_ln at a multiplier ln mu is that band's best power, and bisects
ln mu.

A mu = 0 phase returns its own QoS lower end exactly when f_free <= f_lo,
a property of the band alone: its own outage margin -ln(1 - theta_own) -
coeff_own * lambda_own is at most alpha/2, as for every outage cap below
1 - e^(-1) ~ 0.632 (see model.BandParams).  The energy efficiency
depends on the powers only through their ratio and a 1/P factor, so the
joint problem has no interior scale optimum: where both
phases return their lower ends, each iteration scales band i's powers by
f_lo,d * f_lo,c <= 1, the product of the lower box factors, and the
reported ratio Pc/Pd is f_lo,c.

The alternation itself is one loop, _alternate, which yields each outer
iterate's two PhaseResults, power changes and stopping verdict.
optimize_powers keeps each iterate as one Iterate record: both phases,
both changes and its EE totals.  A caller that needs only the last
iterate, as a sweep row does, reads the same loop and builds no record.

One outer step is a map T of the cellular powers q: the cellular phase at
the D2D phase's powers at q.  Its behaviour, and so what ``converged``
says, depends on whether a budget binds:

- slack budgets: each band's output is its input times the product of the
  two phases' clamp factors, so T is monotone and homogeneous of degree 1
  (test_slack_budget_outer_map_is_monotone_and_homogeneous).  The ratio
  Pc/Pd is final after the first iterate, and each later iterate only
  rescales it; ``converged`` says only that the power scale fell below
  ``eps_power_w``, not that a fixed point was reached;
- binding budgets: a budget moves power between bands, so raising every
  input can lower some band's output, and T is not monotone
  (test_budget_bound_outer_map_is_not_monotone).  No convergence argument
  applies; ``converged`` says only that both power changes of the last
  iterate fell to ``eps_power_w`` or below.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

from .model import (
    BandParams,
    _check,
    _check_band_count,
    _check_fields,
    _ratio_power,
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
    "Iterate",
    "IterationTrace",
    "AllocationResult",
    "FeasibilityReport",
    "PhaseResult",
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
        _check_fields(self)


@dataclass
class Iterate:
    """One outer iterate, as _alternate yields it: both phases, each class's
    largest per-band power change from the previous iterate (the first from
    zero D2D and the starting cellular powers), and both classes' EE totals
    from ``metrics`` of the two phases' powers."""

    d2d: PhaseResult
    cell: PhaseResult
    delta_d_w: float
    delta_c_w: float
    ee_d2d_total: float
    ee_cell_total: float


@dataclass
class IterationTrace:
    """Outer-iteration history of the alternating solve: one Iterate per
    outer iteration, in order, and whether the last one met the stopping
    rule (both power changes at most ``eps_power_w``)."""

    iterates: list[Iterate] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.iterates)


@dataclass
class FeasibilityReport:
    """Constraint slacks of an allocation, as check_feasible reports them;
    nonnegative slack means satisfied, and ``ok`` also accepts -1e-8 per
    band and BUDGET_TOL_REL times each budget."""

    band_slacks: list[dict]
    budget_d2d_slack: float
    budget_cell_slack: float
    ok: bool
    notes: list[str] = field(default_factory=list)


@dataclass
class AllocationResult:
    """An allocation, its ``metrics`` report, its feasibility report and its
    flags.  ``trace`` holds the alternation's iterates (``optimize_powers``);
    it is None where the result is one D2D phase at fixed cellular powers
    (``baseline_fixed_cell``), which does not iterate."""

    alloc: PowerAllocation
    trace: IterationTrace | None
    metrics: MetricsReport
    feasibility: FeasibilityReport
    flags: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Every field as ``asdict`` renders it, ``alloc`` flattened into
        its two power lists."""
        record = asdict(self)
        alloc = record.pop("alloc")
        return {**alloc, **record}


# ---------------------------------------------------------------------------
# one phase: the powers of one class at the other class's fixed powers

BUDGET_TOL_REL = 1e-6  # the overspend of a power budget, relative to it, that is accepted
_MIN_NORMAL = sys.float_info.min  # the least positive normal float
_NAME = {"d2d": "D2D", "cell": "cellular"}
_BUDGET_INFEASIBLE = {
    "d2d": "D2D budget infeasible under QoS caps",
    "cell": "cellular budget below the sum of QoS lower bounds",
}


def _unreachable(band: BandParams, own: str, other: str, i: int) -> InfeasibleProblem:
    """The error of band ``i`` when a phase of class ``own`` finds an outage
    cap that no power reaches, class ``other``'s checked first."""
    cls = own if band._margins[other] > 0.0 else other
    if cls == "d2d":
        return InfeasibleProblem("D2D QoS unreachable: outage cap below the density-only outage",
                                 band=i, constraint="qos_d2d")
    # coeff grows as T^(2/alpha): the cap is reachable only below t_max
    used = band.coeff_cell() * band.density_cell
    t_max = band.sir_threshold_cell * (band._cap_exps[1] / used) ** (band.pathloss_exponent / 2.0)
    return InfeasibleProblem(
        "cellular outage cap unreachable at any power: "
        f"sir_threshold_cell must be below {t_max:.3g} on band {i}",
        band=i,
        constraint="qos_cell",
    )


def _rising_root(g, a: float, b: float) -> float:
    """Root of g increasing on [a, b] with g(a) < 0 <= g(b), by bisection:
    a midpoint where g is exactly 0, else b once a and b are adjacent floats."""
    while True:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            return b
        g_mid = g(mid)
        if g_mid == 0.0:
            return mid
        if g_mid < 0.0:
            a = mid
        else:
            b = mid


def _h(t: float, a: float) -> float:
    """h_alpha(t) = -t + alpha ln t + ln(2t/alpha - 1), for t > alpha/2."""
    return -t + a * math.log(t) + math.log((2.0 * t - a) / a)


def _t_peak(a: float) -> float:
    """Where h_alpha peaks: the larger root of 2t^2 - (3 alpha + 2) t + alpha^2."""
    return (3.0 * a + 2.0 + math.sqrt(a * a + 12.0 * a + 4.0)) / 4.0


class _Objective(NamedTuple):
    """One band's phase objective K * exp(-c * p^(-2/alpha)) / p - mu * p
    on lo <= p <= hi, with the lower end anchored (see _phase_bands)."""

    lo: float
    hi: float
    c: float
    k_amp: float
    alpha: float

    def _exponent(self, p: float) -> float:
        """c p^(-2/alpha), the power +inf where it overflows (subnormal p, alpha < ~2.1)."""
        try:
            return self.c * p ** (-2.0 / self.alpha)
        except OverflowError:
            return self.c * math.inf

    def value(self, p: float, mu: float) -> float:
        return self.k_amp * math.exp(-self._exponent(p)) / p - mu * p

    def ln_gain(self, p: float, ln_mu: float) -> float:
        """ln K - c p^(-2/alpha) - ln p - ln mu, the log of the objective's first term over mu."""
        return math.log(self.k_amp) - self._exponent(p) - math.log(p) - ln_mu

    def ln_mu_ends(self) -> tuple[float, float] | None:
        """(bottom, top): below bottom the root t* rounds to alpha/2, the answer
        at mu = 0; at and above top the answer is lo.  None where every mu > 0
        gives lo (c or K is 0, or c is inf); see argmax_ln."""
        a = self.alpha
        if not (0.0 < self.c < math.inf and self.k_amp > 0.0):
            return None
        ln_scale = math.log(self.k_amp) - a * math.log(self.c)
        return ln_scale + _h(math.nextafter(a / 2.0, math.inf), a), ln_scale + _h(_t_peak(a), a)

    def argmax_ln(self, ln_mu: float) -> float:
        """The maximizing power on the box at multiplier mu = exp(ln_mu) > 0.

        With t = c p^(-2/alpha) the slope has the sign of h_alpha(t) - ln m,
        ln m = ln mu + alpha ln c - ln K, and h_alpha rises from -inf at alpha/2
        to its peak at _t_peak, then falls.  So at ln m >= h_alpha(_t_peak) the
        objective falls and the answer is lo; otherwise it is the better of lo
        and p = (c/t*)^(alpha/2) clamped, t* the root on (alpha/2, _t_peak).
        On the objective over mu, e^ln_gain - p, p is better where
        e^ln_gain(p) (1 - e^(ln_gain(lo) - ln_gain(p))) > p - lo: in logs.
        """
        lo, hi, c, a = self.lo, self.hi, self.c, self.alpha
        ends = self.ln_mu_ends()
        if ends is None or ln_mu >= ends[1]:
            return lo  # the objective falls across the box
        ln_m = ln_mu + a * math.log(c) - math.log(self.k_amp)
        t = _rising_root(lambda t: _h(t, a) - ln_m, a / 2.0, _t_peak(a))
        p = min(max(_ratio_power(c, t, a / 2.0), lo), hi)
        if p == lo:
            return lo
        g_p, g_lo = self.ln_gain(p, ln_mu), self.ln_gain(lo, ln_mu)
        rise = -math.expm1(g_lo - g_p)
        return p if rise > 0.0 and g_p + math.log(rise) > math.log(p - lo) else lo


def _objective(band: BandParams, own: str, q: float, lo: float, hi: float) -> _Objective:
    """The _Objective of class ``own`` on ``band`` at the other class's power
    ``q``, on the box lo <= p <= hi that _phase_bands gives it (lo anchored):
    c = c_unit * q^(2/alpha) and K from the band's phase constants."""
    _, _, _, _, c_unit, k_amp = band._phase[own]
    a = band.pathloss_exponent
    return _Objective(lo, hi, c_unit * q ** (2.0 / a), k_amp, a)


def _phase_bands(
    system: SystemParams, own: str, q: list[float], opts: SolveOptions
) -> tuple[list[tuple[float, float]], list[float], list[float], list[str]]:
    """Per-band power box, anchored lower end and mu = 0 answer of class
    ``own`` at the other class's powers ``q``, in one pass over the bands.

    With k = alpha/2 the box is q * (coeff_own * lambda_other / margin_own)^k
    <= p <= min(q * (margin_other / (coeff_other * lambda_own))^k, cap), and
    the objective is K * exp(-c * p^(-2/alpha)) / p with K = W log2(1+T_own)
    exp(-coeff_own * lambda_own), c = coeff_own * lambda_other * q^(2/alpha).
    Its slope has the sign of 2c/alpha * p^(-2/alpha) - 1, so at mu = 0 it
    rises up to q * f_free, f_free = (2 * coeff_own * lambda_other /
    alpha)^k, and falls beyond: that point clamped to the box is the exact
    box maximum, with no value compared.  Everything but q is a constant
    of the band, computed when it is built (see model.BandParams); a call
    only scales the factors by q.  A product that is inf is formed again
    at this q, from c, the margins and coeff_other * lambda_own, as a tiny
    q may bring an overflowed factor back into range (an f_free still inf
    gives hi), and so is an upper end of 0.0, as a large q may bring an
    underflowed f_hi back; only these rebuilds form q^(2/alpha) and c.  A
    lower end below the smallest normal float, 0.0 included, steps up one
    ulp.  A box that holds no positive power raises, as does a band without
    the constants, where an outage cap is unreachable.  Returns (bounds,
    lows, free, flags): bounds[i] is band i's box, lows[i] the lower end of
    its objective, and free[i] its answer at mu = 0; a phase builds the
    band's _Objective from lows[i] and the box's upper end only where the
    budget binds (see _objective).  A band whose f_lo is
    0 has no positive lower end: without other-class density (c = 0) it has
    no interior optimum either, and where that density is so small that
    f_lo underflows, its optimum lies below every positive float.  Its
    objective's lower end is anchored at the power tolerance, the flag
    names which of the two it is, and _solve_phase checks the budget
    against that anchor.
    """
    other = "cell" if own == "d2d" else "d2d"
    if len(q) != system.num_bands:
        raise ValueError(f"{_NAME[other]} power vector length must match the band count")
    for i, qi in enumerate(q):
        if not 0.0 < qi < math.inf:  # a box factor of 0 or inf would give nan
            raise ValueError(f"{_NAME[other]} power on band {i} must be positive and finite")

    bounds: list[tuple[float, float]] = []
    lows: list[float] = []
    free: list[float] = []
    flags: list[str] = []
    for i, (band, qi) in enumerate(zip(system.bands, q)):
        if band._phase is None:
            raise _unreachable(band, own, other, i)
        f_lo, f_hi, f_free, cap, c_unit, _ = band._phase[own]
        lo, hi, p = qi * f_lo, qi * f_hi, qi * f_free
        if lo == math.inf or p == math.inf or not 0.0 < hi < math.inf:
            # an overflowed or underflowed factor: the product at this q
            a = band.pathloss_exponent
            scale = qi ** (2.0 / a)
            c = c_unit * scale
            if lo == math.inf:
                lo = _ratio_power(c, band._margins[own], a / 2.0)
            if not 0.0 < hi < math.inf:
                hi = _ratio_power(band._margins[other] * scale, band._phase[other][4], a / 2.0)
            if p == math.inf:
                p = _ratio_power(2.0 * c, a, a / 2.0)
        if lo < _MIN_NORMAL and f_lo > 0.0:  # subnormal or 0.0: it can miss its outage cap
            lo = math.nextafter(lo, math.inf)
        capped = not hi <= cap
        if capped:
            hi = cap
        if lo > hi or hi == 0.0:  # no positive power, also where f_lo = 0 gives lo = 0.0
            raise InfeasibleProblem(f"empty feasible set on band {i}", band=i,
                                    constraint="power_cap" if capped else f"qos_{other}")
        bounds.append((lo, hi))
        if f_lo == 0.0:
            lo = min(opts.eps_power_w, hi)
            cause = (f"{_NAME[other]} density too small for a positive {_NAME[own]} lower end"
                     if c_unit > 0.0 else f"no {_NAME[other]} density")
            flags.append(f"band {i}: {cause}, {_NAME[own]} power anchored at tolerance")
        lows.append(lo)
        if p < lo:  # min(max(p, lo), hi), without the calls
            p = lo
        free.append(hi if hi < p else p)
    return bounds, lows, free, flags


@dataclass(slots=True)
class PhaseResult:
    """One phase's answer: the per-band powers of its class, the budget
    multiplier ``mu`` (0 where the budget is slack, inf where exp(ln mu)
    overflows a float), the phase's flags, and each band's power box
    ``bounds[i] = (lo, hi)`` as the outage and power caps set it."""

    powers: list[float]
    mu: float
    flags: list[str]
    bounds: list[tuple[float, float]]


def _solve_phase(
    system: SystemParams, own: str, q: list[float], opts: SolveOptions
) -> PhaseResult:
    """Maximize the total energy efficiency of class ``own`` at fixed ``q``.

    Each band maximizes its objective over its box (see _phase_bands).
    Lower ends that exceed the budget by more than its tolerance raise;
    within it they are the answer, flagged.  Where the answers at mu = 0
    overspend, each band's _Objective is built (_objective) and
    _rising_root finds the ln mu where the slack budget -
    fsum(argmax_ln(ln mu)) turns nonnegative, stopping early at one in [0,
    BUDGET_TOL_REL * budget], between the least bottom and the greatest top
    of their ln_mu_ends.  The powers are argmax_ln
    there: a bracket that collapses on a jump of one band's argmax (a
    duality gap) may undershoot.  Returns the phase's PhaseResult.
    """
    bounds, lows, dec, flags = _phase_bands(system, own, q, opts)
    budget = system.budget_d2d_w if own == "d2d" else system.budget_cell_w
    floor = math.fsum(lows)
    if floor > budget * (1.0 + BUDGET_TOL_REL):
        raise InfeasibleProblem(_BUDGET_INFEASIBLE[own], band=None, constraint=f"budget_{own}")
    mu = 0.0
    if floor > budget:
        # no multiplier takes a band below its lower end
        flags.append(f"{_NAME[own]} lower ends exceed the budget within BUDGET_TOL_REL")
        dec = lows
    elif math.fsum(dec) > budget:
        objectives = [_objective(band, own, qi, lo, hi)
                      for band, qi, lo, (_, hi) in zip(system.bands, q, lows, bounds)]
        ends = [e for e in (b.ln_mu_ends() for b in objectives) if e is not None]
        def slack(ln_mu: float) -> float:
            left = budget - math.fsum([b.argmax_ln(ln_mu) for b in objectives])
            return 0.0 if 0.0 <= left <= BUDGET_TOL_REL * budget else left
        ln_mu = _rising_root(slack, min((e[0] for e in ends), default=0.0),
                             max((e[1] for e in ends), default=0.0))
        dec = [b.argmax_ln(ln_mu) for b in objectives]
        mu = math.exp(ln_mu) if ln_mu <= math.log(sys.float_info.max) else math.inf
    return PhaseResult(dec, mu, flags, bounds)


def solve_d2d_phase(
    system: SystemParams, p_cell: list[float], opts: SolveOptions | None = None
) -> PhaseResult:
    """Maximize total D2D energy efficiency at fixed cellular powers.

    Returns the phase's PhaseResult, whose ``powers`` are the D2D powers.
    Bands without cellular density have an objective that falls in the D2D
    power, and bands whose cellular density is so small that the lower box
    factor underflows to 0 have their optimum below every positive float;
    both are anchored at the solver's power tolerance, and flagged by cause.
    """
    return _solve_phase(system, "d2d", p_cell, opts or SolveOptions())


def solve_cell_phase(
    system: SystemParams, p_d2d: list[float], opts: SolveOptions | None = None
) -> PhaseResult:
    """Maximize total cellular energy efficiency at fixed D2D powers.

    The power-ratio term of the success probability stays live, so this is
    the cellular side of the shared problem (see the module docstring).
    Returns the phase's PhaseResult, whose ``powers`` are the cellular powers.
    """
    return _solve_phase(system, "cell", p_d2d, opts or SolveOptions())


# ---------------------------------------------------------------------------
# alternating iteration and baseline


def _alternate(system: SystemParams, opts: SolveOptions):
    """The alternating solve, one outer iteration per item: the one loop.

    Cellular powers start at min(cap, budget/M) per band (an all-zero start
    would leave phase one undefined), D2D powers at zero.  Each iteration
    solves the D2D phase at the current cellular powers, then the cellular
    phase at its D2D powers, and yields (phase_d, phase_c, delta_d, delta_c,
    converged): both PhaseResults, each class's largest per-band power
    change from the previous iterate, and whether both changes are at most
    eps_power_w.  Stops after the first converged iterate or the
    max_outer_iters-th.
    """
    m = system.num_bands
    p_cell = [min(band.max_power_cell_w, system.budget_cell_w / m) for band in system.bands]
    p_d2d = [0.0] * m
    for _ in range(opts.max_outer_iters):
        phase_d = solve_d2d_phase(system, p_cell, opts)
        phase_c = solve_cell_phase(system, phase_d.powers, opts)
        delta_d = max(map(abs, map(operator.sub, phase_d.powers, p_d2d)))
        delta_c = max(map(abs, map(operator.sub, phase_c.powers, p_cell)))
        p_d2d, p_cell = phase_d.powers, phase_c.powers
        converged = delta_d <= opts.eps_power_w and delta_c <= opts.eps_power_w
        yield phase_d, phase_c, delta_d, delta_c, converged
        if converged:
            return


def optimize_powers(system: SystemParams, opts: SolveOptions | None = None) -> AllocationResult:
    """Alternate the two phases until both power changes fall below tolerance.

    The iterates are _alternate's, the one loop: each is appended to the
    trace as an Iterate before the next is solved, and the phases' flags are
    gathered in order of first appearance.  The result holds the last one.
    """
    opts = opts or SolveOptions()
    trace = IterationTrace()
    flags: list[str] = []
    for phase_d, phase_c, delta_d, delta_c, trace.converged in _alternate(system, opts):
        rep = metrics(system, PowerAllocation(phase_d.powers, phase_c.powers))
        trace.iterates.append(Iterate(phase_d, phase_c, delta_d, delta_c,
                                      rep.ee_d2d_total, rep.ee_cell_total))
        for msg in phase_d.flags + phase_c.flags:
            if msg not in flags:
                flags.append(msg)
    alloc = PowerAllocation(list(phase_d.powers), list(phase_c.powers))
    return _result(system, alloc, trace, rep, flags)


def baseline_fixed_cell(
    system: SystemParams, p_cell_fixed_w: float, opts: SolveOptions | None = None
) -> AllocationResult:
    """Single D2D solve with every band's cellular power pinned externally.

    The fixed power is exogenous reference data, not an optimization
    variable, so the per-band cellular cap is not applied to it (see
    _fixed_cell_phase).  The result's ``trace`` is None: there is no
    iteration to record.
    """
    p_cell, phase = _fixed_cell_phase(system, p_cell_fixed_w, opts)
    alloc = PowerAllocation(phase.powers, p_cell)
    return _result(system, alloc, None, metrics(system, alloc), list(phase.flags))


def _fixed_cell_phase(
    system: SystemParams, p_cell_fixed_w: float, opts: SolveOptions | None
) -> tuple[list[float], PhaseResult]:
    """The baseline's cellular powers, ``p_cell_fixed_w`` on every band, and
    the D2D phase at them.  The fixed power must pass the rule of
    ``baseline_p_cell_w``, the config key that sets it."""
    _check("baseline_p_cell_w", p_cell_fixed_w, "fixed cellular power")
    p_cell = [p_cell_fixed_w] * system.num_bands
    return p_cell, solve_d2d_phase(system, p_cell, opts)


def _result(system: SystemParams, alloc: PowerAllocation, trace: IterationTrace | None,
            rep: MetricsReport, flags: list[str]) -> AllocationResult:
    """The result of ``alloc``, whose ``metrics`` report is ``rep``, with a
    flag for every band whose power lies below the smallest normal float
    (such a power carries fewer than 53 bits, so its ratio is less exact),
    and for every band EE and class total that is not finite."""
    for name, powers, ee, total in (("D2D", alloc.p_d2d_w, rep.ee_d2d, rep.ee_d2d_total),
                                    ("cellular", alloc.p_cell_w, rep.ee_cell, rep.ee_cell_total)):
        flags += [f"band {i}: {name} power below the smallest normal float"
                  for i, p in enumerate(powers) if p < _MIN_NORMAL]
        if not math.isfinite(total):  # every band EE is finite where the total is
            flags += [f"band {i}: {name} EE is not finite"
                      for i, e in enumerate(ee) if not math.isfinite(e)]
            flags.append(f"{name} EE total is not finite")
    return AllocationResult(alloc=alloc, trace=trace, metrics=rep,
                            feasibility=check_feasible(system, alloc, rep), flags=flags)


def check_feasible(
    system: SystemParams, alloc: PowerAllocation, report: MetricsReport | None = None
) -> FeasibilityReport:
    """Slack of every constraint of both problems.  Reports, never raises,
    on an allocation of the system's band count; any other count raises
    ``ValueError``, as in ``metrics``.

    Outage slacks come from the closed-form success probabilities, read
    from ``report`` when given (a ``metrics`` report of ``alloc``).  A band
    with a transmit power that is not positive and finite cannot satisfy its
    own outage cap (the success probability is not defined), so it is
    reported as a violation.
    """
    _check_band_count(system, alloc)
    rows: list[dict] = []
    notes: list[str] = []
    worst = 0.0  # the least slack of any band, as min() over the rows would find it
    for i, (band, pd, pc) in enumerate(zip(system.bands, alloc.p_d2d_w, alloc.p_cell_w)):
        cap_d, cap_c = band.max_power_d2d_w - pd, band.max_power_cell_w - pc
        if 0.0 < pd < math.inf and 0.0 < pc < math.inf:  # NaN fails it
            if report is None:
                s_d, s_c = stp_d2d(band, pc, pd), stp_cell(band, pc, pd)
            else:
                s_d, s_c = report.stp_d2d[i], report.stp_cell[i]
            qos_d = band.outage_cap_d2d - (1.0 - s_d)
            qos_c = band.outage_cap_cell - (1.0 - s_c)
        else:
            qos_d = band.outage_cap_d2d - 1.0
            qos_c = band.outage_cap_cell - 1.0
            notes.append(f"band {i}: power not positive and finite, "
                         "outage reported as violated")
        rows.append({"cap_d2d": cap_d, "cap_cell": cap_c, "qos_d2d": qos_d, "qos_cell": qos_c})
        least = min(cap_d, cap_c, qos_d, qos_c)
        if i == 0 or least < worst:
            worst = least
    slack_d = system.budget_d2d_w - alloc.total_d2d()
    slack_c = system.budget_cell_w - alloc.total_cell()
    ok = (worst >= -1e-8
          and slack_d >= -BUDGET_TOL_REL * system.budget_d2d_w
          and slack_c >= -BUDGET_TOL_REL * system.budget_cell_w)
    return FeasibilityReport(band_slacks=rows, budget_d2d_slack=slack_d,
                             budget_cell_slack=slack_c, ok=ok, notes=notes)
