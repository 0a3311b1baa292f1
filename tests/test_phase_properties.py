"""Property suite for the two phase solvers and the whole alternating solve
over random valid band lists.

Every draw either raises an InfeasibleProblem that names its constraint
(and its band, unless a budget is at fault), or returns finite, normal
powers within the budget that permute exactly with the bands.  The
constants a system caches for its phases change no result and no error.
"""

import math
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from d2dee import BandParams, InfeasibleProblem, PowerAllocation, SystemParams
from d2dee import ee_per_band, metrics, optimize_powers, solve_cell_phase, solve_d2d_phase
from d2dee.solver import BUDGET_TOL_REL, SolveOptions, _Objective, _solve_phase


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
    "d2d": (lambda system, q: solve_d2d_phase(system, q)[0], "budget_d2d_w"),
    "cell": (lambda system, q: solve_cell_phase(system, q)[0], "budget_cell_w"),
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


@st.composite
def objectives(draw):
    """A band objective whose box lies below, around or above its stationary point."""
    alpha = draw(st.floats(2.2, 6.0))
    c = draw(log_uniform(-8, 4))
    lo = (2.0 * c / alpha) ** (alpha / 2.0) * draw(log_uniform(-4, 2))
    return _Objective(lo, lo * draw(log_uniform(0, 4)), c, draw(log_uniform(3, 9)), alpha)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(objectives())
def test_zero_multiplier_argmax_is_the_clamped_root(b):
    p = b.argmax(0.0)
    assert p == min(max((2.0 * b.c / b.alpha) ** (b.alpha / 2.0), b.lo), b.hi)
    # the best of the box, by value, up to rounding: its ends and points between
    best = b.value(p, 0.0)
    for q in [b.lo, b.hi] + [b.lo * (b.hi / b.lo) ** (k / 16) for k in range(1, 16)]:
        v = b.value(q, 0.0)
        assert best >= v - 8 * math.ulp(v)


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


def twin(system: SystemParams) -> SystemParams:
    """A freshly built copy of the system: new bands, nothing cached."""
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
    system, q, _ = problem
    warm_q = data.draw(st.lists(log_uniform(-6, 0), min_size=len(q), max_size=len(q)))
    for own in ("d2d", "cell"):
        outcome(system, own, warm_q)  # fills the cache, or raises before a band
        warm = outcome(system, own, q)
        assert warm == outcome(twin(system), own, q)
        assert outcome(system, own, q) == warm  # a repeated error is the same error


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(phase_problems(), st.data())
def test_metrics_ee_is_ee_per_band(problem, data):
    system, q, _ = problem
    p = data.draw(st.lists(log_uniform(-6, 0), min_size=len(q), max_size=len(q)))
    per_band = [ee_per_band(band, qi, pi) for band, qi, pi in zip(system.bands, q, p)]
    try:
        rep = metrics(system, PowerAllocation(p, q))
    except ValueError:
        # asr refuses an STP that underflows to 0, and only that
        assert 0.0 in {ee for pair in per_band for ee in pair}
        return
    assert list(zip(rep.ee_d2d, rep.ee_cell)) == per_band
