"""Property suite for the two phase solvers and the whole alternating solve
over random valid band lists.

Every draw either raises an InfeasibleProblem that names its constraint
(and its band, unless a budget is at fault), or returns finite, normal
powers within the budget that permute exactly with the bands.  A phase
on bands that earlier calls used gives the result, or the error, of one
on freshly built bands, and tiny densities give finite powers too, in a
phase and in a whole solve.  A solve's trace holds one entry per
iterate, with exact deltas and bit-exact EE totals, and ``metrics`` gives
the bits of each closed form and names the band of a bad power.  At a
positive multiplier a band's argmax beats a dense grid of its box, at any
interference coefficient; at mu = 0 it is the c-based stationary point
clamped to the box, within a few ulps, and the band's own QoS lower end
exactly when its own outage margin is at most alpha/2.
"""

import dataclasses
import functools
import math
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from d2dee import BandParams, ExperimentConfig, InfeasibleProblem, PowerAllocation, SystemParams
from d2dee import (asr, baseline_fixed_cell, ee_per_band, metrics, optimize_powers,
                   solve_cell_phase, solve_d2d_phase, stp_cell, stp_d2d)
from d2dee.solver import (BUDGET_TOL_REL, SolveOptions, _h, _Objective, _phase_bands,
                          _solve_phase, _t_peak)
from xspace import free_reference


def log_uniform(lo_exp: float, hi_exp: float):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


densities = st.one_of(st.just(0.0), log_uniform(-7, -3))
outage_caps = st.floats(0.01, 0.99)

bands = st.builds(
    BandParams,
    bandwidth_hz=log_uniform(5, 8),
    pathloss_exponent=st.floats(2.2, 6.0),
    sir_threshold_d2d=log_uniform(-6, 1),
    sir_threshold_cell=log_uniform(-6, 1),
    density_d2d=densities,
    density_cell=densities,
    d2d_link_distance_m=st.floats(1.0, 60.0),
    cell_link_distance_m=st.floats(10.0, 200.0),
    outage_cap_d2d=outage_caps,
    outage_cap_cell=outage_caps,
    max_power_d2d_w=log_uniform(-3, 1),
    max_power_cell_w=log_uniform(-3, 1),
)


@st.composite
def phase_problems(draw):
    band_list = draw(st.lists(bands, min_size=1, max_size=4))
    system = SystemParams(bands=band_list, budget_d2d_w=draw(log_uniform(-6, 1)),
                          budget_cell_w=draw(log_uniform(-6, 1)))
    other_powers = draw(st.lists(log_uniform(-6, 0), min_size=len(band_list),
                                 max_size=len(band_list)))
    order = draw(st.permutations(range(len(band_list))))
    return system, other_powers, order


PHASES = {
    "d2d": (lambda system, q: solve_d2d_phase(system, q).powers, "budget_d2d_w"),
    "cell": (lambda system, q: solve_cell_phase(system, q).powers, "budget_cell_w"),
}


def permuted(system: SystemParams, order: list[int]) -> SystemParams:
    return SystemParams(bands=[system.bands[j] for j in order],
                        budget_d2d_w=system.budget_d2d_w,
                        budget_cell_w=system.budget_cell_w)


def check_named(err: InfeasibleProblem, system: SystemParams) -> None:
    assert err.constraint
    if err.constraint.startswith("budget_"):
        assert err.band is None
    else:
        assert err.band in range(system.num_bands)


def normal(powers: list[float]) -> bool:
    return all(math.isfinite(p) and p >= sys.float_info.min for p in powers)


def check_phase(phase: str, system: SystemParams, q: list[float], order: list[int]) -> None:
    solve, budget_field = PHASES[phase]
    try:
        powers = solve(system, q)
    except InfeasibleProblem as err:
        check_named(err, system)
        return
    assert normal(powers)
    budget = getattr(system, budget_field)
    assert math.fsum(powers) <= budget * (1.0 + BUDGET_TOL_REL)
    assert solve(permuted(system, order), [q[j] for j in order]) == [powers[j] for j in order]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(phase_problems())
def test_phase_results_are_named_or_feasible(problem):
    system, q, order = problem
    for phase in PHASES:
        check_phase(phase, system, q, order)


def reference_dual_bisect(solve_at, budget: float, lo: float, hi: float):
    """The bisection on ln mu that _solve_phase ran before it called
    _rising_root on the budget's slack, kept as the reference its answers
    must equal.  Returns (powers, ln_mu) at the upper end."""
    dec_hi = solve_at(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return dec_hi, hi
        dec_mid = solve_at(mid)
        spent = math.fsum(dec_mid)
        if spent <= budget:
            hi, dec_hi = mid, dec_mid
            if budget - spent <= BUDGET_TOL_REL * budget:
                return dec_hi, hi
        else:
            lo = mid


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(phase_problems(), st.floats(0.0, 1.0, exclude_max=True))
def test_budget_bound_phase_is_the_reference_bisection(problem, share):
    """With the budget put between a phase's lower ends and its answers at
    mu = 0, so that it binds, the phase's powers and mu are those of the
    reference bisection over the same band objectives, bit for bit."""
    system, q, _ = problem
    for own in PHASES:
        try:
            _, terms, free, _ = _phase_bands(system, own, q, SolveOptions())
        except InfeasibleProblem:
            continue
        floor, spend = math.fsum(t[0] for t in terms), math.fsum(free)
        budget = floor + share * (spend - floor)
        if not 0.0 < floor <= budget < spend:
            continue
        bound = dataclasses.replace(system, **{f"budget_{own}_w": budget})
        result = _solve_phase(bound, own, q, SolveOptions())
        objectives = [_Objective(*t) for t in terms]
        ends = [e for e in (b.ln_mu_ends() for b in objectives) if e is not None]
        powers, ln_mu = reference_dual_bisect(
            lambda ln_mu: [b.argmax_ln(ln_mu) for b in objectives], budget,
            min((e[0] for e in ends), default=0.0), max((e[1] for e in ends), default=0.0))
        assert result.powers == powers
        assert result.mu == (math.exp(ln_mu) if ln_mu <= math.log(sys.float_info.max)
                             else math.inf)


@st.composite
def two_density_phases(draw):
    """A one-band phase whose band has both densities positive: its class
    and the other class's power."""
    band = BandParams(**{**vars(draw(bands)), "density_d2d": draw(log_uniform(-7, -3)),
                         "density_cell": draw(log_uniform(-7, -3))})
    return band, draw(st.sampled_from(["d2d", "cell"])), draw(log_uniform(-6, 0))


def zero_multiplier_phase(band: BandParams, own: str, q: float):
    """The band's _Objective fields and its answer at mu = 0 from
    _phase_bands, or None where a cap is unreachable or the box empty."""
    system = SystemParams(bands=[band], budget_d2d_w=1.0, budget_cell_w=1.0)
    try:
        _, (terms,), (free,), _ = _phase_bands(system, own, [q], SolveOptions())
    except InfeasibleProblem:
        return None
    return _Objective(*terms), free


# how far q * f_free may lie from the c-based (2c/alpha)^(alpha/2), in ulps.
# Each rounds its base, and the power alpha/2 <= 3 scales that error; the
# reference's c also carries q^(2/alpha) at a rounded 2/alpha, about
# |ln q| / 2 ulps at the end.  On 135k random phases drawn from these ranges the
# gap reached 14; against 200-bit arithmetic the solver's answer was within
# 3 ulps, the reference within 10.
FREE_ULPS = 24


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(two_density_phases())
def test_zero_multiplier_argmax_is_the_clamped_root(problem):
    """A phase's answer at mu = 0, q * f_free clamped to the box, is the
    c-based stationary point clamped to it within a few ulps, and the best
    of the box by value, up to rounding."""
    phase = zero_multiplier_phase(*problem)
    assume(phase is not None)
    b, p = phase
    assert abs(p - free_reference(b.lo, b.hi, b.c, b.alpha)) <= FREE_ULPS * math.ulp(p)
    # the best of the box, by value, up to rounding: its ends and points between
    best = b.value(p, 0.0)
    for q in [b.lo, b.hi] + [b.lo * (b.hi / b.lo) ** (k / 16) for k in range(1, 16)]:
        v = b.value(q, 0.0)
        assert best >= v - 8 * math.ulp(v)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(two_density_phases())
def test_zero_multiplier_argmax_is_the_lower_end_exactly_in_the_qos_bound_regime(problem):
    """At mu = 0 a band's answer is its own QoS lower end exactly when
    f_free <= f_lo, a property of the band: its own outage margin
    -ln(1 - theta_own) - coeff_own * lambda_own is at most alpha/2."""
    band, own, _ = problem
    phase = zero_multiplier_phase(*problem)
    assume(phase is not None)
    b, p = phase
    margin, half_alpha = band._margins[own], band.pathloss_exponent / 2.0
    assume(abs(margin - half_alpha) > 1e-12 * half_alpha)  # a tie within rounding
    f_lo, _, f_free = band._phase[own][:3]
    assert (f_free <= f_lo) == (margin <= half_alpha) == (p == b.lo)


@st.composite
def scaled_objectives(draw):
    """A band objective with c from 1e-300 to 1e300 and a box on which t =
    c p^(-2/alpha) runs from somewhere in [1e-2, 1e2] up to at most 1e4 and
    p stays inside e^(+-600), at an ln mu where ln m = ln mu + alpha ln c -
    ln K lies in [-60, h_alpha(t_peak) + 2]."""
    a = draw(st.floats(2.2, 6.0))
    ln_t_lo = draw(st.floats(math.log(1e-2), math.log(1e2)))
    ln_t_hi = draw(st.floats(ln_t_lo, math.log(1e4)))
    ln_c = draw(st.floats(max(-690.0, ln_t_hi - 1200.0 / a), min(690.0, ln_t_lo + 1200.0 / a)))
    lo, hi = (math.exp(a / 2.0 * (ln_c - ln_t)) for ln_t in (ln_t_hi, ln_t_lo))
    b = _Objective(lo, hi, math.exp(ln_c), draw(log_uniform(3, 9)), a)
    ln_m = draw(st.floats(-60.0, _h(_t_peak(a), a) + 2.0))
    return b, ln_m - a * ln_c + math.log(b.k_amp)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(scaled_objectives())
def test_positive_multiplier_argmax_beats_a_dense_grid(problem):
    b, ln_mu = problem

    def scaled(p: float) -> tuple[float, float]:
        """The objective over mu, e^g - p, and the size of its terms."""
        e = math.exp(math.log(b.k_amp) - b.c * p ** (-2.0 / b.alpha) - math.log(p) - ln_mu)
        return e - p, e + p

    p = b.argmax_ln(ln_mu)
    assert b.lo <= p <= b.hi
    best, size = scaled(p)
    for k in range(2001):
        v, s = scaled(b.lo * (b.hi / b.lo) ** (k / 2000))
        assert best >= v - 1e-12 * max(size, s)


@st.composite
def solve_problems(draw):
    band_list = draw(st.lists(bands, min_size=1, max_size=4))
    system = SystemParams(bands=band_list, budget_d2d_w=draw(log_uniform(-6, 1)),
                          budget_cell_w=draw(log_uniform(-6, 1)))
    return system, draw(st.permutations(range(len(band_list))))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(solve_problems())
def test_whole_solve_is_named_or_feasible(problem):
    system, order = problem
    try:
        result = optimize_powers(system)
    except InfeasibleProblem as err:
        check_named(err, system)
        return
    assert result.feasibility.ok
    p_d2d, p_cell = result.alloc.p_d2d_w, result.alloc.p_cell_w
    assert normal(p_d2d) and normal(p_cell)
    swapped = optimize_powers(permuted(system, order)).alloc
    assert swapped.p_d2d_w == [p_d2d[j] for j in order]
    assert swapped.p_cell_w == [p_cell[j] for j in order]


def check_entries(system: SystemParams, trace) -> None:
    """The trace holds one record per iteration, and each record's EE totals
    are ``metrics`` of its two phases' powers, bit for bit."""
    assert len(trace.iterates) == trace.iterations
    for it in trace.iterates:
        rep = metrics(system, PowerAllocation(it.d2d.powers, it.cell.powers))
        assert (it.ee_d2d_total, it.ee_cell_total) == (rep.ee_d2d_total, rep.ee_cell_total)


def max_change(new: list[float], old: list[float]) -> float:
    return max(abs(a - b) for a, b in zip(new, old))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(solve_problems(), st.integers(1, 10), log_uniform(-3, 0))
def test_trace_records_each_iterate(problem, max_outer_iters, p_cell_fixed):
    system, _ = problem
    opts = SolveOptions(max_outer_iters=max_outer_iters)
    eps = opts.eps_power_w
    try:
        result = optimize_powers(system, opts)
    except InfeasibleProblem:
        pass
    else:
        trace = result.trace
        check_entries(system, trace)
        iterates = trace.iterates
        start = [min(b.max_power_cell_w, system.budget_cell_w / system.num_bands)
                 for b in system.bands]
        assert iterates[0].delta_d_w == max(iterates[0].d2d.powers)
        assert iterates[0].delta_c_w == max_change(iterates[0].cell.powers, start)
        for prev, it in zip(iterates, iterates[1:]):
            assert it.delta_d_w == max_change(it.d2d.powers, prev.d2d.powers)
            assert it.delta_c_w == max_change(it.cell.powers, prev.cell.powers)
        settled = [it.delta_d_w <= eps and it.delta_c_w <= eps for it in iterates]
        assert trace.converged == settled[-1]
        assert not any(settled[:-1])  # the loop stops at the first settled iterate
        assert trace.converged or trace.iterations == max_outer_iters
        assert (result.alloc.p_d2d_w, result.alloc.p_cell_w) == (iterates[-1].d2d.powers,
                                                                 iterates[-1].cell.powers)
    try:
        result = baseline_fixed_cell(system, p_cell_fixed, opts)
    except InfeasibleProblem:
        return
    assert result.trace is None  # one D2D phase at fixed cellular powers, no iteration
    assert result.alloc.p_cell_w == [p_cell_fixed] * system.num_bands
    assert result.metrics == metrics(system, result.alloc)


def twin(system: SystemParams) -> SystemParams:
    """A freshly built copy of the system: new bands, whose phase constants
    no call has read yet."""
    return SystemParams(bands=[BandParams(**vars(b)) for b in system.bands],
                        budget_d2d_w=system.budget_d2d_w, budget_cell_w=system.budget_cell_w)


def outcome(system: SystemParams, own: str, q: list[float]):
    """The repr of a phase's result, or the message, band and constraint it raises."""
    try:
        return repr(_solve_phase(system, own, q, SolveOptions()))
    except InfeasibleProblem as err:
        return str(err), err.band, err.constraint


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(phase_problems(), st.data())
def test_cached_constants_change_no_result(problem, data):
    """A phase on bands that earlier calls used gives the result, or the
    error, of one on freshly built bands, and a repeated error is the same."""
    system, q, _ = problem
    warm_q = data.draw(st.lists(log_uniform(-6, 0), min_size=len(q), max_size=len(q)))
    for own in ("d2d", "cell"):
        outcome(system, own, warm_q)  # an earlier call on the same bands
        warm = outcome(system, own, q)
        assert warm == outcome(twin(system), own, q)
        assert outcome(system, own, q) == warm  # a repeated error is the same error


# powers from 1e-300 to 1e3 W and subnormal ones, so that a power ratio
# overflows or underflows a float, and at alpha below about 2.12 its root
# (Pc/Pd)^(2/alpha) overflows too
wide_powers = st.one_of(log_uniform(-300, 3), st.just(5e-324), log_uniform(-323.3, -308))


@st.composite
def wide_metrics_problems(draw):
    """Bands with alpha down to 2.01, and each band's (cellular, D2D) powers."""
    band_list = [BandParams(**{**vars(b), "pathloss_exponent": draw(st.floats(2.01, 6.0))})
                 for b in draw(st.lists(bands, min_size=1, max_size=4))]
    system = SystemParams(bands=band_list, budget_d2d_w=1.0, budget_cell_w=1.0)
    return system, [(draw(wide_powers), draw(wide_powers)) for _ in band_list]


def bits(values) -> list[str]:
    return [v.hex() for v in values]


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(wide_metrics_problems())
def test_metrics_ee_is_ee_per_band(problem):
    """The one pass of ``metrics`` gives, bit for bit, what ``stp_d2d``,
    ``stp_cell``, ``asr`` and ``ee_per_band`` give on each band, also where
    a class without density meets a power ratio that overflows."""
    system, powers = problem
    columns = []
    for band, (pc, pd) in zip(system.bands, powers):
        s_d, s_c = stp_d2d(band, pc, pd), stp_cell(band, pc, pd)
        columns.append((s_d, s_c, asr(band, s_d, band.density_d2d, band.sir_threshold_d2d),
                        asr(band, s_c, band.density_cell, band.sir_threshold_cell),
                        *ee_per_band(band, pc, pd)))
    rep = metrics(system, PowerAllocation([pd for _, pd in powers], [pc for pc, _ in powers]))
    fields = (rep.stp_d2d, rep.stp_cell, rep.asr_d2d, rep.asr_cell, rep.ee_d2d, rep.ee_cell)
    for field, expected in zip(fields, zip(*columns)):
        assert bits(field) == bits(expected)
    assert bits([rep.ee_d2d_total, rep.ee_cell_total, rep.ee_total]) == bits([
        math.fsum(rep.ee_d2d), math.fsum(rep.ee_cell),
        math.fsum(rep.ee_d2d) + math.fsum(rep.ee_cell)])


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(phase_problems(), st.data())
def test_metrics_names_the_band_of_a_bad_power(problem, data):
    """A nonpositive, NaN or infinite power raises, naming its band."""
    system, q, _ = problem
    p, q = data.draw(st.lists(log_uniform(-6, 0), min_size=len(q), max_size=len(q))), list(q)
    band = data.draw(st.integers(0, len(q) - 1))
    bad = data.draw(st.sampled_from([0.0, -0.0, -1e-3, -math.inf, math.nan, math.inf]))
    (p if data.draw(st.booleans()) else q)[band] = bad
    with pytest.raises(ValueError,
                       match=f"^band {band}: transmit powers must be positive and finite$"):
        metrics(system, PowerAllocation(p, q))


# densities whose interference exponent coeff * lambda underflows to 0 or
# makes a box factor (num / den)^(alpha/2) overflow
tiny_densities = st.one_of(st.just(0.0), st.just(5e-324), log_uniform(-323, -150), densities)


@st.composite
def slack_phase_problems(draw):
    """A phase problem with tiny densities and budgets that no phase can bind."""
    band_list = [BandParams(**{**vars(b), "density_d2d": draw(tiny_densities),
                               "density_cell": draw(tiny_densities)})
                 for b in draw(st.lists(bands, min_size=1, max_size=4))]
    system = SystemParams(bands=band_list,
                          budget_d2d_w=2.0 * sum(b.max_power_d2d_w for b in band_list),
                          budget_cell_w=2.0 * sum(b.max_power_cell_w for b in band_list))
    return system, draw(st.lists(log_uniform(-6, 0), min_size=len(band_list),
                                 max_size=len(band_list)))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(slack_phase_problems())
def test_tiny_densities_give_finite_powers_or_name_their_fault(problem):
    system, q = problem
    for solve, _ in PHASES.values():
        try:
            powers = solve(system, q)
        except InfeasibleProblem as err:
            check_named(err, system)
            continue
        assert all(math.isfinite(p) for p in powers)


@st.composite
def tiny_solve_problems(draw):
    """A whole solve with tiny densities, and outage caps high enough to
    leave room between a band's lower end and its stationary point.  The
    D2D budget lies between the first phase's lower ends and its answers
    at mu = 0, where that phase has room, so budgets bind.  The baseline's
    fixed cellular power is within every cap and the budget: the baseline
    takes it as given, and check_feasible would report it."""
    band_list = [BandParams(**{**vars(b), "density_d2d": draw(tiny_densities),
                               "density_cell": draw(tiny_densities),
                               "outage_cap_d2d": draw(st.floats(0.5, 0.999)),
                               "outage_cap_cell": draw(st.floats(0.5, 0.999))})
                 for b in draw(st.lists(bands, min_size=1, max_size=4))]
    budget_d2d, budget_cell = draw(log_uniform(-6, 1)), draw(log_uniform(-6, 1))
    q0 = [min(b.max_power_cell_w, budget_cell / len(band_list)) for b in band_list]
    slack = SystemParams(bands=band_list, budget_d2d_w=1.0, budget_cell_w=budget_cell)
    try:
        _, terms, answers, _ = _phase_bands(slack, "d2d", q0, SolveOptions())
    except InfeasibleProblem:
        terms, answers = [], []
    floor, free = math.fsum(t[0] for t in terms), math.fsum(answers)
    if free > floor:
        budget_d2d = floor + draw(st.floats(0.0, 1.0)) * (free - floor) or budget_d2d
    system = SystemParams(bands=band_list, budget_d2d_w=budget_d2d, budget_cell_w=budget_cell)
    return system, min(q0) * draw(log_uniform(-3, 0))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(tiny_solve_problems())
def test_tiny_density_solves_are_feasible_or_name_their_fault(problem):
    system, p_cell_fixed = problem
    for solve in (optimize_powers, lambda s: baseline_fixed_cell(s, p_cell_fixed)):
        try:
            result = solve(system)
        except InfeasibleProblem as err:
            check_named(err, system)
            continue
        assert all(math.isfinite(p) for p in result.alloc.p_d2d_w + result.alloc.p_cell_w)
        assert result.feasibility.ok


# ---------------------------------------------------------------------------
# the alternation's outer map T(q): the cellular phase at the D2D phase's
# answer at cellular powers q, one step of the solve

# acceptance criterion 6's layout, whose budgets are slack
CRITERION_6 = dict(sir_threshold_d2d=1e-6, sir_threshold_cell=1e-6, lambda_c_ref=1e-5,
                   budget_d2d_w=0.08, baseline_p_cell_w=0.325)
# the layout of the benchmark's budget sweep, without its D2D budget:
# coupling 2.5 per unit multiplier at 20 m links and T = 1, caps lifted
COUPLED = 2.5 / (math.pi * 20.0**2 * math.pi / 2.0)
BUDGET_BOUND = dict(
    sir_threshold_d2d=1.0, sir_threshold_cell=1.0, outage_cap_d2d=0.999,
    outage_cap_cell=0.999999, d2d_link_distance_m=20.0, cell_link_distance_m=20.0,
    lambda_d_ref=COUPLED, lambda_c_ref=COUPLED, multiplier_d2d=[1.0, 1.1, 1.2, 1.3, 1.4],
    multiplier_cell=[1.0, 1.1, 1.2, 1.3, 1.4], max_power_d2d_w=1e3, max_power_cell_w=1e3,
    budget_cell_w=0.1, baseline_p_cell_w=0.02)


def outer_map(system: SystemParams, q: list[float]) -> list[float]:
    return solve_cell_phase(system, solve_d2d_phase(system, q).powers).powers


@functools.lru_cache
def criterion_6_mid_iterate(lambda_d_ref: float) -> tuple[SystemParams, list[float]]:
    """Criterion 6's system at ``lambda_d_ref`` and the cellular powers of
    the middle iterate of its solve."""
    system = ExperimentConfig().with_overrides(**CRITERION_6, lambda_d_ref=lambda_d_ref).system
    iterates = optimize_powers(system).trace.iterates
    return system, iterates[len(iterates) // 2].cell.powers


@pytest.mark.parametrize("lambda_d_ref", [1e-5, 1e-4])
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_slack_budget_outer_map_is_monotone_and_homogeneous(lambda_d_ref, data):
    """Where no budget binds, T is monotone (q <= q' gives T(q) <= T(q')) and
    homogeneous of degree 1 band by band, T(beta q) = beta T(q): each band's
    output is its input times the product of the two phases' clamp factors.
    Pairs are drawn by log-perturbations of +-0.3 around a mid iterate."""
    system, mid = criterion_6_mid_iterate(lambda_d_ref)
    m = system.num_bands
    shift = data.draw(st.lists(st.floats(-0.3, 0.3), min_size=m, max_size=m))
    rise = data.draw(st.lists(st.floats(0.0, 0.3), min_size=m, max_size=m))
    beta = math.exp(data.draw(st.floats(0.0, 0.3)))
    q = [p * math.exp(s) for p, s in zip(mid, shift)]
    q_up = [p * math.exp(r) for p, r in zip(q, rise)]
    t, t_up, t_beta = (outer_map(system, x) for x in (q, q_up, [beta * p for p in q]))
    assert all(a <= b for a, b in zip(t, t_up))
    assert all(math.isclose(b, beta * a, rel_tol=4 * sys.float_info.epsilon, abs_tol=0.0)
               for a, b in zip(t, t_beta))


def test_budget_bound_outer_map_is_not_monotone():
    # at budget_d2d_w 0.2 both phases bind: from the solve's start, 0.02 W on
    # every band, 20% more cellular power on every band moves the D2D and
    # cellular budgets between bands, and band 4's cellular answer falls
    # from 5.51e-3 to 4.82e-3 W.  No standard-interference argument covers
    # this regime.
    system = ExperimentConfig().with_overrides(**BUDGET_BOUND, budget_d2d_w=0.2).system
    q = [system.budget_cell_w / system.num_bands] * system.num_bands
    cells = []
    for x in (q, [1.2 * p for p in q]):
        d2d = solve_d2d_phase(system, x)
        cells.append(solve_cell_phase(system, d2d.powers))
        assert d2d.mu > 0.0 and cells[-1].mu > 0.0
    assert cells[1].powers[4] < 0.9 * cells[0].powers[4]
