"""Property suite for the two phase solvers over random valid band lists.

Every draw either raises an InfeasibleProblem that names its constraint
(and its band, unless a budget is at fault), or returns finite, normal
powers within the budget that permute exactly with the bands.
"""

import math
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from d2dee import BandParams, InfeasibleProblem, SolveOptions, SystemParams
from d2dee import solve_cell_phase, solve_d2d_phase


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
    "d2d": (lambda system, q: solve_d2d_phase(system, q)[1], "budget_d2d_w"),
    "cell": (lambda system, q: solve_cell_phase(system, q)[0], "budget_cell_w"),
}


def check_phase(phase: str, system: SystemParams, q: list[float], order: list[int]) -> None:
    solve, budget_field = PHASES[phase]
    try:
        powers = solve(system, q)
    except InfeasibleProblem as err:
        assert err.constraint
        if err.constraint.startswith("budget_"):
            assert err.band is None
        else:
            assert err.band in range(system.num_bands)
        return
    assert all(math.isfinite(p) and p >= sys.float_info.min for p in powers)
    budget = getattr(system, budget_field)
    assert math.fsum(powers) <= budget * (1.0 + SolveOptions().budget_tol_rel)
    permuted = SystemParams(bands=[system.bands[j] for j in order],
                            budget_d2d_w=system.budget_d2d_w,
                            budget_cell_w=system.budget_cell_w)
    assert solve(permuted, [q[j] for j in order]) == [powers[j] for j in order]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(phase_problems())
def test_phase_results_are_named_or_feasible(problem):
    system, q, order = problem
    for phase in PHASES:
        check_phase(phase, system, q, order)
