import importlib
import math
import pkgutil
import sys

import numpy as np
import pytest

import d2dee
from d2dee import solver
from d2dee import (
    BandParams,
    InfeasibleProblem,
    PowerAllocation,
    SolveOptions,
    SystemParams,
    baseline_fixed_cell,
    check_feasible,
    ee_per_band,
    metrics,
    optimize_powers,
    solve_cell_phase,
    solve_d2d_phase,
    stp_cell,
    stp_d2d,
)
from xspace import (curvature_interval, free_reference, golden_section_max, power_from_x,
                    x_feasible_box, x_from_powers)


def slack_band(make_band, **overrides):
    """A band whose QoS box is wide and whose caps are far away."""
    params = dict(density_d2d=0.0, density_cell=1e-6, outage_cap_d2d=0.96,
                  outage_cap_cell=0.5, max_power_d2d_w=1e3, max_power_cell_w=1e3)
    params.update(overrides)
    return make_band(**params)


class TestTransform:
    def test_example_value(self, band1):
        # exp(coeff_d2d * lambda_c * 15^(2/alpha)) at the band-1 geometry
        expected = math.exp(band1.coeff_d2d() * 1.5e-5 * 15.0**0.5)
        assert x_from_powers(band1, 0.3, 0.02) == pytest.approx(expected, rel=1e-14)
        assert x_from_powers(band1, 0.3, 0.02) == pytest.approx(1.029081, rel=1e-5)

    def test_unit_ratio(self, band1):
        expected = math.exp(band1.coeff_d2d() * band1.density_cell)
        assert x_from_powers(band1, 0.1, 0.1) == pytest.approx(expected, rel=1e-14)

    def test_inverse_at_unit_ratio(self, band1):
        x = math.exp(band1.coeff_d2d() * band1.density_cell)
        assert power_from_x(band1, 0.3, x) == pytest.approx(0.3, rel=1e-12)

    def test_round_trip_random_draws(self, make_band):
        rng = np.random.default_rng(0)
        checked = 0
        while checked < 1000:
            band = make_band(
                sir_threshold_d2d=rng.uniform(0.01, 10.0),
                d2d_link_distance_m=rng.uniform(1.0, 60.0),
                pathloss_exponent=rng.uniform(2.5, 6.0),
                density_cell=10 ** rng.uniform(-7, -4),
            )
            p_c = 10 ** rng.uniform(-3, 0)
            p_d = 10 ** rng.uniform(-3, 0)
            ln_x = band.coeff_d2d() * band.density_cell * (
                p_c / p_d) ** (2 / band.pathloss_exponent)
            if not 1e-3 <= ln_x <= 600.0:
                continue
            back = power_from_x(band, p_c, x_from_powers(band, p_c, p_d))
            assert abs(back - p_d) / p_d <= 1e-12
            checked += 1

    def test_domain_errors(self, band1, make_band):
        with pytest.raises(ValueError, match="x must exceed 1"):
            power_from_x(band1, 0.3, 1.0)
        no_cell = make_band(density_cell=0.0)
        with pytest.raises(ValueError, match="transform undefined without cellular density"):
            x_from_powers(no_cell, 0.3, 0.02)


class TestCurvatureInterval:
    def test_alpha_four_formula(self):
        t1, t2 = curvature_interval(4.0)
        root = math.sqrt(80.0)
        assert t1 == pytest.approx(math.exp((12 - root) / 8), rel=1e-12)
        assert t2 == pytest.approx(math.exp((12 + root) / 8), rel=1e-12)
        assert t1 < t2

    def test_t1_exceeds_one_on_domain(self):
        for alpha in np.linspace(2.05, 10.0, 60):
            t1, t2 = curvature_interval(alpha)
            assert t1 > 1.0
            assert t2 > t1

    @pytest.mark.parametrize("alpha", [3.0, 4.0, 6.0])
    def test_second_difference_sign(self, alpha):
        # f(x) = (ln x)^(alpha/2) / x; concave strictly inside (t1,t2),
        # convex outside, checked by central second differences
        t1, t2 = curvature_interval(alpha)
        k = alpha / 2.0
        f = lambda x: math.log(x) ** k / x

        def second_diff(x):
            h = 1e-4 * x
            return (f(x + h) - 2 * f(x) + f(x - h)) / h**2

        inside = np.geomspace(t1 * 1.02, t2 * 0.98, 100)
        for x in inside:
            assert second_diff(x) <= 0.0
        below = np.geomspace(1.0 + 0.02 * (t1 - 1.0), t1 * 0.98, 50)
        above = np.geomspace(t2 * 1.02, t2 * 10, 50)
        for x in np.concatenate([below, above]):
            assert second_diff(x) >= 0.0

    def test_geometric_mean_and_outside_points(self):
        t1, t2 = curvature_interval(4.0)
        f = lambda x: math.log(x) ** 2 / x
        x_mid = math.sqrt(t1 * t2)
        h = 1e-4 * x_mid
        assert (f(x_mid + h) - 2 * f(x_mid) + f(x_mid - h)) / h**2 <= 0
        x_out = t2 + 1.0
        h = 1e-4 * x_out
        assert (f(x_out + h) - 2 * f(x_out) + f(x_out - h)) / h**2 >= 0

    def test_domain(self):
        with pytest.raises(ValueError):
            curvature_interval(2.0)


class TestFeasibleBox:
    def test_hi_example(self, make_band):
        # coeff_d2d * lambda_d = 50*pi^2*1e-4 = 0.0493480; cellular cap and
        # D2D power cap kept loose so the upper bound is the quantity under test
        band = make_band(outage_cap_cell=0.995, max_power_d2d_w=1e3)
        box = x_feasible_box(band, 0.3)
        expected_hi = math.exp(-band.coeff_d2d() * 1e-4) / 0.95
        assert box.hi == pytest.approx(expected_hi, rel=1e-14)
        assert box.hi == pytest.approx(1.0019464, rel=1e-5)
        assert box.hi_source == "qos_d2d"

    def test_vacuous_outage_cap_widens(self, make_band):
        tight = x_feasible_box(make_band(outage_cap_cell=0.995, max_power_d2d_w=1e3), 0.3)
        loose = x_feasible_box(
            make_band(outage_cap_cell=0.995, max_power_d2d_w=1e3, outage_cap_d2d=1 - 1e-12),
            0.3,
        )
        assert loose.hi > 1e9 * tight.hi

    def test_power_cap_raises_lo(self, make_band):
        band = make_band(outage_cap_d2d=0.5, outage_cap_cell=0.5)
        lo_cap = math.exp(
            band.coeff_d2d() * band.density_cell * (0.3 / band.max_power_d2d_w) ** 0.5
        )
        box = x_feasible_box(band, 0.3)
        assert box.lo >= lo_cap

    def test_cellular_cap_unreachable(self, make_band):
        band = make_band(outage_cap_cell=1e-9)
        with pytest.raises(InfeasibleProblem, match="cellular outage cap unreachable") as err:
            x_feasible_box(band, 0.3, band_index=2)
        assert err.value.constraint == "qos_cell"
        assert err.value.band == 2

    def test_cellular_cap_message_names_largest_threshold(self, make_band):
        # cc grows as T^(2/alpha), so the cap is reachable exactly while
        # T < T * (-ln(1 - theta_c) / (cc * lambda_c))^(alpha/2)
        band = make_band(sir_threshold_cell=1.0)
        cap_exp = -math.log(1 - band.outage_cap_cell)
        t_max = (cap_exp / (band.coeff_cell() * band.density_cell)) ** 2
        with pytest.raises(InfeasibleProblem, match="cellular outage cap unreachable") as err:
            x_feasible_box(band, 0.3)
        assert f"sir_threshold_cell must be below {t_max:.3g}" in str(err.value)
        # just below it, with little D2D interference, the box is nonempty
        ok = make_band(sir_threshold_cell=0.99 * t_max, density_d2d=1e-9,
                       outage_cap_d2d=0.5, max_power_d2d_w=1e3)
        assert not x_feasible_box(ok, 0.3).empty

    def test_empty_box_reported(self, make_band):
        # heavy same-class interference: the D2D cap alone is unreachable
        band = make_band(density_d2d=1e-2, outage_cap_cell=0.5)
        with pytest.raises(InfeasibleProblem, match="empty feasible set on band 0"):
            x_feasible_box(band, 0.3)

    def test_printed_lower_bound_matches_direct_inversion(self, make_band):
        # transformed-domain lower bound against the direct inversion of the
        # cellular success probability, over random parameter draws
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 1000:
            band = make_band(
                density_d2d=10 ** rng.uniform(-6, -3.5),
                density_cell=10 ** rng.uniform(-6, -4),
                d2d_link_distance_m=rng.uniform(2, 40),
                cell_link_distance_m=rng.uniform(20, 100),
                outage_cap_cell=rng.uniform(0.02, 0.5),
                pathloss_exponent=rng.uniform(2.5, 6.0),
            )
            cc, cd = band.coeff_cell(), band.coeff_d2d()
            lc, ld = band.density_cell, band.density_d2d
            margin = -math.log(1 - band.outage_cap_cell) - cc * lc
            if margin <= 1e-6 or cc * cd * lc * ld / margin > 100.0:
                continue
            direct = math.exp(cc * cd * lc * ld / margin)
            # published transformed form, algebraically rearranged
            printed = math.exp(
                -cd * lc / (math.log(1 - band.outage_cap_cell) / (cc * ld) + lc / ld)
            )
            assert abs(printed - direct) / direct <= 1e-9
            checked += 1


class TestPhaseOne:
    def test_unconstrained_stationary_point(self, make_band, make_system):
        system = make_system(bands=[slack_band(make_band)], budget_d2d_w=1e3)
        p_d = solve_d2d_phase(system, [0.3]).powers
        x = x_from_powers(system.bands[0], 0.3, p_d[0])
        target = math.exp(2.0)  # ln x = alpha/2
        assert abs(x - target) / target <= 1e-4
        assert p_d[0] == pytest.approx(power_from_x(system.bands[0], 0.3, x), rel=1e-12)

    def test_box_below_stationary_point_clamps_high(self, make_band, make_system):
        # Table-1-style tight D2D cap: the box sits below e^2 where the
        # objective is increasing, so the solution is the upper bound
        system = make_system(outage_cap_cell=0.995, max_power_d2d_w=1e3,
                             budget_d2d_w=10.0)
        box = x_feasible_box(system.bands[0], 0.3)
        assert box.hi < math.exp(2.0)
        p_d = solve_d2d_phase(system, [0.3]).powers
        assert x_from_powers(system.bands[0], 0.3, p_d[0]) == pytest.approx(box.hi, rel=1e-9)

    def test_amplitude_scaling_leaves_argmax(self, make_band, make_system):
        base = make_system(bands=[slack_band(make_band)], budget_d2d_w=1e3)
        scaled = make_system(bands=[slack_band(make_band, bandwidth_hz=140e6)],
                             budget_d2d_w=1e3)
        p0 = solve_d2d_phase(base, [0.3]).powers
        p1 = solve_d2d_phase(scaled, [0.3]).powers
        x0 = x_from_powers(base.bands[0], 0.3, p0[0])
        x1 = x_from_powers(scaled.bands[0], 0.3, p1[0])
        assert x0 == pytest.approx(x1, rel=1e-7)

    def test_dominates_random_feasible_points(self, make_band, make_system):
        system = make_system(bands=[slack_band(make_band)], budget_d2d_w=1e-7)
        band = system.bands[0]
        p_d = solve_d2d_phase(system, [0.3]).powers
        best = ee_per_band(band, 0.3, p_d[0])[0]
        box = x_feasible_box(band, 0.3)
        rng = np.random.default_rng(3)
        for _ in range(1000):
            x_try = math.exp(rng.uniform(math.log(box.lo), math.log(box.hi)))
            p_try = power_from_x(band, 0.3, x_try)
            if p_try > system.budget_d2d_w or p_try > band.max_power_d2d_w:
                continue
            assert ee_per_band(band, 0.3, p_try)[0] <= best * (1 + 1e-9)

    def test_budget_dual_bisection_slackness(self, make_band, make_system):
        band = slack_band(make_band)
        budget = 2.5e-8  # between the QoS minimum and the unconstrained spend
        system = make_system(bands=[band, band], budget_d2d_w=budget)
        phase = solve_d2d_phase(system, [0.3, 0.3])
        p_d, mu = phase.powers, phase.mu
        spent = math.fsum(p_d)
        assert spent <= budget * (1 + 1e-12)
        assert mu > 0
        assert (budget - spent) <= 1e-6 * budget  # complementary slackness
        # pushed up to save power
        assert all(x_from_powers(band, 0.3, p) > math.exp(2.0) for p in p_d)

    def test_budget_bound_powers_maximize_penalized_objective(self, make_band, make_system):
        # at the settled multiplier every band's power maximizes EE_d - mu*P_d
        # over its whole box, checked on a fine grid through the public model
        band = slack_band(make_band)
        system = make_system(bands=[band, band], budget_d2d_w=2.5e-8)
        phase = solve_d2d_phase(system, [0.3, 0.3])
        p_d, mu, flags = phase.powers, phase.mu, phase.flags
        assert mu > 0 and not flags
        for i, band in enumerate(system.bands):
            box = x_feasible_box(band, 0.3, i)
            grid = np.geomspace(power_from_x(band, 0.3, box.hi),
                                power_from_x(band, 0.3, box.lo), 10_000)
            penalized = lambda p: ee_per_band(band, 0.3, p)[0] - mu * p
            best = penalized(p_d[i])
            top = max(penalized(float(p)) for p in grid)
            assert top <= best + 1e-12 * abs(best)

    def test_budget_infeasible_under_qos(self, make_band, make_system):
        # minimum spend at the QoS ceiling exceeds the budget
        system = make_system(bands=[slack_band(make_band)], budget_d2d_w=1e-9)
        with pytest.raises(InfeasibleProblem, match="D2D budget infeasible under QoS caps"):
            solve_d2d_phase(system, [0.3])

    def test_lower_end_rounding_to_one_stays_finite(self, make_band, make_system):
        # at Pc = 1e-30 W both lower bounds of x round to exactly 1, where the
        # power map Pc (c / ln x)^k divides by ln 1 = 0
        band = make_band(density_d2d=0.0, density_cell=1e-6, max_power_d2d_w=1e3)
        box = x_feasible_box(band, 1e-30)
        assert box.lo > 1.0 and box.lo_source == "qos_cell"
        assert power_from_x(band, 1e-30, box.lo) <= band.max_power_d2d_w
        p_d = solve_d2d_phase(make_system(bands=[band]), [1e-30]).powers
        x = x_from_powers(band, 1e-30, p_d[0])
        assert math.isfinite(x) and x > 1.0
        assert 0.0 < p_d[0] <= band.max_power_d2d_w

    def test_no_cellular_density_anchored(self, make_band, make_system):
        band = make_band(density_cell=0.0, density_d2d=1e-6)
        system = make_system(bands=[band])
        opts = SolveOptions()
        phase = solve_d2d_phase(system, [0.3], opts)
        p_d, flags = phase.powers, phase.flags
        assert p_d[0] == opts.eps_power_w
        assert flags == ["band 0: no cellular density, D2D power anchored at tolerance"]

    def test_underflowing_lower_factor_names_the_density_too_small(self, make_band,
                                                                   make_system):
        # at cellular density 1e-200 the D2D lower box factor (c / margin)^2
        # underflows to 0.0 though c = 2e-197: the band has cellular density,
        # and its optimum, below every positive float, is anchored and flagged
        # as such, not as an absence
        band = make_band(density_d2d=0.0, density_cell=1e-200, outage_cap_d2d=0.96,
                         outage_cap_cell=0.5, d2d_link_distance_m=20.0,
                         cell_link_distance_m=60.0)
        f_lo, _, _, _, c = band._phase["d2d"][:5]
        assert f_lo == 0.0 and c > 0.0
        phase = solve_d2d_phase(make_system(bands=[band]), [0.3])
        p_d, flags, bounds = phase.powers, phase.flags, phase.bounds
        assert p_d == [SolveOptions().eps_power_w] and bounds == [(0.0, 0.02)]
        assert flags == ["band 0: cellular density too small for a positive D2D lower end, "
                         "D2D power anchored at tolerance"]


def zero_multiplier_phase(system, own, q):
    """Band 0's _Objective and its answer at mu = 0, from _phase_bands."""
    bounds, lows, free, _ = solver._phase_bands(system, own, q, SolveOptions())
    return solver._objective(system.bands[0], own, q[0], lows[0], bounds[0][1]), free[0]


class TestObjective:
    def test_zero_multiplier_argmax_survives_underflow(self, make_band, make_system):
        # a bandwidth of 1e-300 Hz and powers near 3e32 W: the objective rises
        # across this box, which the power cap puts below the stationary point
        # 6.1e32 W, but every value on it underflows to 0.0: a comparison of
        # values would pick the lower end
        band = slack_band(make_band, bandwidth_hz=1e-300, max_power_d2d_w=4e32)
        system = make_system(bands=[band], budget_d2d_w=1e40, budget_cell_w=1e40)
        b, free = zero_multiplier_phase(system, "d2d", [1e40])
        assert b.value(b.lo, 0.0) == b.value(b.hi, 0.0) == 0.0
        assert free == b.hi == free_reference(b.lo, b.hi, b.c, b.alpha)

    def test_zero_multiplier_phase_evaluates_no_objective(self, make_band, make_system,
                                                          monkeypatch):
        calls = []
        ln_gain = solver._Objective.ln_gain

        def counted(self, p, ln_mu):
            calls.append(ln_mu)
            return ln_gain(self, p, ln_mu)

        monkeypatch.setattr(solver._Objective, "ln_gain", counted)
        built = []

        class Built(solver._Objective):
            __slots__ = ()

            def __new__(cls, *fields):
                built.append(fields)
                return super().__new__(cls, *fields)

        monkeypatch.setattr(solver, "_Objective", Built)
        band = slack_band(make_band)
        system = make_system(bands=[band, band], budget_d2d_w=1e3, budget_cell_w=1e3)
        phase = solve_d2d_phase(system, [0.3, 0.3])
        p_d, mu_d = phase.powers, phase.mu
        mu_c = solve_cell_phase(system, p_d).mu
        assert mu_d == mu_c == 0.0
        assert calls == []
        slack_built = len(built)
        # a budget-bound phase compares values, and the count sees them
        mu = solve_d2d_phase(make_system(bands=[band, band], budget_d2d_w=2.5e-8),
                             [0.3, 0.3]).mu
        assert mu > 0.0 and calls and -math.inf not in calls
        # a slack phase builds no objective, a budget-bound one one per band
        assert (slack_built, len(built)) == (0, 2)

    def test_zero_multiplier_argmax_beyond_the_largest_float_is_the_upper_end(
            self, make_band, make_system):
        # f_free = (2 * coeff_d2d * lambda_c / alpha)^3 overflows, though the
        # box factor f_lo = 1.1e306 does not: the answer is the upper end, as
        # the c-based stationary point, about 2e3 W at Pc = 1e-306 W, gives
        band = make_band(pathloss_exponent=6.0, sir_threshold_d2d=1e9, d2d_link_distance_m=1e50,
                         sir_threshold_cell=1e-6, cell_link_distance_m=1.0, density_d2d=0.0,
                         density_cell=1.0, outage_cap_d2d=1.0 - 2.0**-53, max_power_d2d_w=10.0)
        f_lo, _, f_free = band._phase["d2d"][:3]
        assert f_free == math.inf and f_lo < math.inf
        b, free = zero_multiplier_phase(make_system(bands=[band]), "d2d", [1e-306])
        assert free == b.hi == 10.0 == free_reference(b.lo, b.hi, b.c, b.alpha)

    def test_overflowing_free_factor_gives_the_c_based_point(self, make_band, make_system):
        # the band above under a 1e4 W cap: q * f_free is inf, yet the
        # c-based stationary point at Pc = 1e-306 W is 2030.39 W, inside the box
        band = make_band(pathloss_exponent=6.0, sir_threshold_d2d=1e9, d2d_link_distance_m=1e50,
                         sir_threshold_cell=1e-6, cell_link_distance_m=1.0, density_d2d=0.0,
                         density_cell=1.0, outage_cap_d2d=1.0 - 2.0**-53, max_power_d2d_w=1e4)
        system = make_system(bands=[band], budget_d2d_w=1e9)
        b, free = zero_multiplier_phase(system, "d2d", [1e-306])
        assert b.lo < free < b.hi
        assert free == free_reference(b.lo, b.hi, b.c, b.alpha)
        assert solve_d2d_phase(system, [1e-306]).powers == [free]
        assert free == pytest.approx(2030.39, rel=1e-6)

    def test_overflowing_lower_factor_gives_the_d2d_cap_end(self, make_band, make_system):
        # ten times the cellular density: f_lo overflows too, and the lower
        # end at Pc = 1e-306 W, where the D2D outage cap binds, is 1105.7 W
        band = make_band(pathloss_exponent=6.0, sir_threshold_d2d=1e9, d2d_link_distance_m=1e50,
                         sir_threshold_cell=1e-6, cell_link_distance_m=1.0, density_d2d=0.0,
                         density_cell=10.0, outage_cap_d2d=1.0 - 2.0**-53,
                         outage_cap_cell=0.9, max_power_d2d_w=1e4)
        assert band._phase["d2d"][0] == math.inf
        (lo, hi), = solve_d2d_phase(make_system(bands=[band], budget_d2d_w=1e9), [1e-306]).bounds
        assert lo == pytest.approx(1105.7058, rel=1e-6) and hi == 1e4
        assert stp_d2d(band, 1e-306, lo) == pytest.approx(2.0**-53, rel=1e-9)

    def test_overflowing_upper_factor_gives_the_cellular_cap_end(self, make_band, make_system):
        # f_hi = (margin_c / (coeff_cell * lambda_d))^3 = 1e309 overflows, but
        # at Pc = 1e-306 W the upper end, where the cellular outage cap binds,
        # is 1000 W, below the 1e4 W power cap
        coeff = make_band(pathloss_exponent=6.0, cell_link_distance_m=1.0).coeff_cell()
        lam_c = 0.2 / coeff
        lam_d = (math.log(2.0) - 0.2) / (coeff * 1e103)
        band = make_band(pathloss_exponent=6.0, d2d_link_distance_m=1.0, cell_link_distance_m=1.0,
                         density_d2d=lam_d, density_cell=lam_c, outage_cap_d2d=0.3,
                         outage_cap_cell=0.5, max_power_d2d_w=1e4)
        assert band._phase["d2d"][1] == math.inf
        (_, hi), = solve_d2d_phase(make_system(bands=[band], budget_d2d_w=1e9), [1e-306]).bounds
        assert hi == pytest.approx(1000.0, rel=1e-12)
        assert stp_cell(band, 1e-306, hi) == pytest.approx(0.5, rel=1e-12)

    def test_underflowing_upper_factor_gives_the_d2d_qos_end(self, make_band, make_system):
        # coeff_d2d * lambda_c is 1e170 times the D2D margin: the cellular
        # f_hi = 1e-340 underflows to 0.0, and with almost no D2D density so
        # does f_lo.  At Pd ~ 9e239 W the upper end, where the D2D outage cap
        # binds, is 9.26e-101 W; a box of [0, 0] once gave the cellular
        # phase a power of 0.0, which the solve's metrics then refused
        band = make_band(d2d_link_distance_m=1e89, cell_link_distance_m=1.0,
                         density_d2d=1e-300, density_cell=1e-10, max_power_d2d_w=1e300)
        assert band._phase["cell"][:2] == (0.0, 0.0)
        system = make_system(bands=[band], budget_d2d_w=1e300, budget_cell_w=1e-100)
        result = optimize_powers(system)
        (p_d,), (p_c,) = result.alloc.p_d2d_w, result.alloc.p_cell_w
        assert p_d == pytest.approx(9.2559e239, rel=1e-4) and p_c == 1e-100
        (_, hi), = solve_cell_phase(system, [p_d]).bounds
        assert hi == pytest.approx(9.2559e-101, rel=1e-4)
        assert stp_d2d(band, hi, p_d) == pytest.approx(0.95, rel=1e-12)
        # at Pd = 1e-300 W the true upper end, 1e-640 W, is below every float
        with pytest.raises(InfeasibleProblem, match="^empty feasible set on band 0$") as raised:
            solve_cell_phase(system, [1e-300])
        assert raised.value.constraint == "qos_d2d"

    @pytest.mark.parametrize("lambda_c", [1e-306, 1e-309, 1e-312])
    def test_budget_bound_argmax_survives_a_subnormal_lower_end(self, make_band, make_system,
                                                                lambda_c):
        # at alpha = 2.05 band 0's lower end is subnormal and lo^(-2/alpha)
        # overflows: its log gain is -inf, and a budget a tenth of the way
        # from the lower ends to the mu = 0 answers still binds and solves
        shared = dict(pathloss_exponent=2.05, sir_threshold_d2d=1e-6, sir_threshold_cell=1e-6,
                      density_d2d=1e-6, d2d_link_distance_m=10.0, cell_link_distance_m=50.0,
                      outage_cap_d2d=0.95, outage_cap_cell=0.95, max_power_d2d_w=1.0,
                      max_power_cell_w=1.0)
        bands = [make_band(density_cell=lambda_c, **shared),
                 make_band(density_cell=1e-5, **shared)]
        slack = solve_d2d_phase(make_system(bands=bands, budget_d2d_w=1e3), [0.3, 0.3])
        lows = [lo for lo, _ in slack.bounds]
        assert slack.mu == 0.0 and lows[0] < sys.float_info.min
        b, _ = zero_multiplier_phase(make_system(bands=bands), "d2d", [0.3, 0.3])
        assert b.ln_gain(b.lo, 0.0) == -math.inf
        budget = math.fsum(lows) + 0.1 * (math.fsum(slack.powers) - math.fsum(lows))
        phase = solve_d2d_phase(make_system(bands=bands, budget_d2d_w=budget), [0.3, 0.3])
        assert phase.mu > 0.0 and phase.flags == []
        assert phase.powers[0] == lows[0]
        assert lows[1] < phase.powers[1] < slack.powers[1]
        assert math.fsum(phase.powers) <= budget * (1.0 + solver.BUDGET_TOL_REL)

    def test_underflowing_coefficient_at_positive_multiplier_gives_lower_end(self):
        # c = 1e-300 puts the rising root at p = (c / t*)^2, which underflows
        # below the box, and c^2 underflows to 0.0: nothing may divide by it
        b = solver._Objective(lo=1e-10, hi=1.0, c=1e-300, k_amp=1.0, alpha=4.0)
        assert b.argmax_ln(0.0) == b.lo


class TestRisingRoot:
    def test_ends_at_adjacent_floats(self):
        # t^2 - 2 is 0 at no float: the root is where it first turns nonnegative
        g = lambda t: t * t - 2.0
        root = solver._rising_root(g, 1.0, 2.0)
        assert g(math.nextafter(root, 0.0)) < 0.0 <= g(root)

    def test_returns_a_midpoint_where_g_is_zero(self):
        # g is 0 on [0.25, 0.75], as a budget's slack is inside its tolerance:
        # the first midpoint, 0.5, is the answer, with no further evaluation
        calls = []

        def g(t):
            calls.append(t)
            return -1.0 if t < 0.25 else 0.0 if t <= 0.75 else 1.0

        assert solver._rising_root(g, 0.0, 1.0) == 0.5
        assert calls == [0.5]


class TestPhaseTwo:
    def test_interior_closed_form_matches_golden_section(self, make_band, make_system):
        # wide box so the interior optimum is admissible
        band = make_band(outage_cap_d2d=0.9999, outage_cap_cell=0.999999)
        system = make_system(bands=[band], budget_cell_w=1.0)
        p_c = solve_cell_phase(system, [0.02]).powers
        c = band.coeff_cell() * band.density_d2d * 0.02**0.5
        closed = (2 * c / 4.0) ** 2
        assert p_c[0] == pytest.approx(closed, rel=1e-12)
        assert closed == pytest.approx(7.610e-3, rel=1e-4)
        # independent golden-section search over the raw objective
        h = lambda p: math.exp(-c / math.sqrt(p)) / p
        assert p_c[0] == pytest.approx(golden_section_max(h, 1e-8, 0.3, 1e-13), rel=1e-6)

    def test_argmax_independent_of_amplitude(self, make_band, make_system):
        band_a = make_band(outage_cap_d2d=0.9999, outage_cap_cell=0.999999)
        band_b = make_band(outage_cap_d2d=0.9999, outage_cap_cell=0.999999,
                           bandwidth_hz=5e6, sir_threshold_cell=3.0)
        sys_a = make_system(bands=[band_a])
        sys_b = make_system(bands=[band_b])
        pa = solve_cell_phase(sys_a, [0.02]).powers
        pb = solve_cell_phase(sys_b, [0.02]).powers
        # thresholds change coeff_cell, so compare at matched coefficient
        c_a = band_a.coeff_cell() * band_a.density_d2d * 0.02**0.5
        c_b = band_b.coeff_cell() * band_b.density_d2d * 0.02**0.5
        assert pa[0] == pytest.approx((c_a / 2) ** 2, rel=1e-12)
        assert pb[0] == pytest.approx((c_b / 2) ** 2, rel=1e-12)

    def test_interior_stationarity(self, make_band, make_system):
        band = make_band(outage_cap_d2d=0.9999, outage_cap_cell=0.999999)
        system = make_system(bands=[band])
        p_c = solve_cell_phase(system, [0.02]).powers
        c = band.coeff_cell() * band.density_d2d * 0.02**0.5
        h = lambda p: math.exp(-c / math.sqrt(p)) / p
        step = 1e-6 * p_c[0]
        deriv = (h(p_c[0] + step) - h(p_c[0] - step)) / (2 * step)
        assert abs(deriv) <= 1e-6 * h(p_c[0]) / p_c[0] * p_c[0] + 1e-6 * h(p_c[0])

    def test_qos_clamps_apply_in_coupled_mode(self, make_band, make_system):
        # the interior optimum sits below the cellular QoS floor, so the
        # result rides the floor
        system = make_system(outage_cap_d2d=0.5, outage_cap_cell=0.5)
        band = system.bands[0]
        p_c = solve_cell_phase(system, [0.001]).powers
        margin = -math.log(1 - band.outage_cap_cell) - band.coeff_cell() * band.density_cell
        lo = 0.001 * (band.coeff_cell() * band.density_d2d / margin) ** 2
        assert p_c[0] == pytest.approx(lo, rel=1e-12)

    def test_d2d_qos_unreachable(self, make_band, make_system):
        band = make_band(density_d2d=1e-2)
        system = make_system(bands=[band])
        with pytest.raises(InfeasibleProblem, match="D2D QoS unreachable"):
            solve_cell_phase(system, [0.001])

    def test_budget_below_lower_bounds(self, make_band, make_system):
        system = make_system(outage_cap_d2d=0.5, outage_cap_cell=0.5, budget_cell_w=1e-12)
        with pytest.raises(InfeasibleProblem, match="cellular budget below"):
            solve_cell_phase(system, [0.02])

    @staticmethod
    def over_budget_lower_ends(make_band, make_system):
        """Two bands whose cellular lower ends sum to just above the budget,
        inside its tolerance, at D2D powers 0.02 W."""
        bands = [make_band(d2d_link_distance_m=20.0, cell_link_distance_m=60.0,
                           max_power_d2d_w=1e3, max_power_cell_w=1e3,
                           outage_cap_d2d=cap_d, outage_cap_cell=cap_c)
                 for cap_d, cap_c in ((0.5, 0.5), (0.9999, 0.999999))]
        slack = solve_cell_phase(make_system(bands=bands, budget_cell_w=1e3), [0.02, 0.02])
        floor = math.fsum(lo for lo, _ in slack.bounds)
        budget = floor / (1.0 + 0.5e-6)
        return make_system(bands=bands, budget_cell_w=budget), budget

    def test_gap_scaling_keeps_lower_ends_within_budget(self, make_band, make_system):
        # no multiplier meets the budget; scaling whole powers (lower ends
        # included) once clamped band 0 back to its lower end and overspent
        system, budget = self.over_budget_lower_ends(make_band, make_system)
        phase = solve_cell_phase(system, [0.02, 0.02])
        p_c, flags, bounds = phase.powers, phase.flags, phase.bounds
        assert flags == ["cellular lower ends exceed the budget within BUDGET_TOL_REL"]
        assert math.fsum(p_c) <= budget * (1.0 + solver.BUDGET_TOL_REL)
        for p, (lo, hi) in zip(p_c, bounds):
            assert lo <= p <= hi

    def test_over_budget_lower_ends_read_feasible(self, make_band, make_system):
        # the lower ends overspend the budget inside its relative tolerance,
        # which check_feasible accepts as the solver does; twice it does not
        system, _ = self.over_budget_lower_ends(make_band, make_system)
        p_c = solve_cell_phase(system, [0.02, 0.02]).powers
        alloc = PowerAllocation([0.02, 0.02], p_c)
        report = check_feasible(system, alloc)
        assert report.budget_cell_slack < -1e-8
        assert report.ok
        over = make_system(bands=system.bands,
                           budget_cell_w=math.fsum(p_c) / (1.0 + 2.0 * solver.BUDGET_TOL_REL))
        assert not check_feasible(over, alloc).ok

    def test_over_budget_lower_ends_skip_the_multiplier_search(
            self, make_band, make_system, monkeypatch):
        # no multiplier takes a band below its lower end, so searching for
        # one (401 phase solves) cannot change the answer
        system, _ = self.over_budget_lower_ends(make_band, make_system)
        calls = []
        argmax_ln = solver._Objective.argmax_ln

        def counted(self, ln_mu):
            calls.append(ln_mu)
            return argmax_ln(self, ln_mu)

        monkeypatch.setattr(solver._Objective, "argmax_ln", counted)
        phase = solve_cell_phase(system, [0.02, 0.02])
        p_c, mu, flags, bounds = phase.powers, phase.mu, phase.flags, phase.bounds
        assert calls == []
        assert p_c == [lo for lo, _ in bounds]
        assert mu == 0.0
        assert flags == ["cellular lower ends exceed the budget within BUDGET_TOL_REL"]

    def test_budget_met_by_multiplier_at_tiny_other_powers(self, make_band, make_system):
        # at D2D powers of 1e-140 W the budget, halfway between the lower
        # ends and the interior optima, needs a multiplier above 4^399; at
        # 1e-170 and 1e-200 W its ln mu is about 800 and 939, so mu itself
        # overflows a float and reads inf
        band = make_band(max_power_d2d_w=1e3, max_power_cell_w=1e3,
                         outage_cap_d2d=0.9999, outage_cap_cell=0.999999)
        for q in ([1e-140] * 2, [1e-170] * 2, [1e-200] * 2):
            slack = solve_cell_phase(make_system(bands=[band, band]), q)
            free, slack_bounds = slack.powers, slack.bounds
            floor = math.fsum(lo for lo, _ in slack_bounds)
            budget = 0.5 * (floor + math.fsum(free))
            phase = solve_cell_phase(make_system(bands=[band, band], budget_cell_w=budget), q)
            p_c, mu, flags, bounds = phase.powers, phase.mu, phase.flags, phase.bounds
            assert mu > 0.0
            assert flags == []
            assert budget * (1.0 - solver.BUDGET_TOL_REL) <= math.fsum(p_c) <= budget
            for p, (lo, hi) in zip(p_c, bounds):
                assert lo < p < hi

    def test_subnormal_lower_end_meets_its_outage_cap(self, make_band, make_system):
        # at D2D density 1e-260 the cellular lower end is 1.6e-321 W, a
        # subnormal whose rounding alone can miss the outage cap (by 2.7e-5
        # of slack here, unless the end steps up)
        system = make_system(pathloss_exponent=2.5, density_d2d=1e-260, outage_cap_d2d=0.5,
                             outage_cap_cell=0.5, max_power_d2d_w=1.0, max_power_cell_w=1.0)
        phase = solve_cell_phase(system, [0.01])
        p_c, bounds = phase.powers, phase.bounds
        assert p_c[0] == bounds[0][0] < sys.float_info.min
        slacks = check_feasible(system, PowerAllocation([0.01], p_c)).band_slacks[0]
        assert slacks["qos_cell"] >= 0.0

    def test_underflowing_lower_end_steps_up_unanchored(self, make_band, make_system):
        # the cellular box factor f_lo is 3.4e-7 here, so at a D2D power of
        # 1e-320 W the lower end rounds to 0.0; the band has D2D density, so
        # the end steps up one ulp rather than being anchored and flagged
        system = make_system(density_d2d=1e-7, outage_cap_cell=0.9)
        assert system.bands[0]._phase["cell"][0] * 1e-320 == 0.0
        phase = solve_cell_phase(system, [1e-320])
        p_c, flags, bounds = phase.powers, phase.flags, phase.bounds
        assert p_c == [bounds[0][0]] == [5e-324]
        assert flags == []
        assert check_feasible(system, PowerAllocation([1e-320], p_c)).ok

    def test_anchored_band_counts_against_budget(self, make_band, make_system):
        # band 0 has no D2D density, so its cellular power is anchored at the
        # power tolerance; the budget covers band 1's lower end but not both
        band = make_band(outage_cap_d2d=0.5, outage_cap_cell=0.5)
        anchored = make_band(outage_cap_d2d=0.5, outage_cap_cell=0.5, density_d2d=0.0)
        margin = -math.log(0.5) - band.coeff_cell() * band.density_cell
        lo = 1e-3 * (band.coeff_cell() * band.density_d2d / margin) ** 2
        system = make_system(bands=[anchored, band], budget_cell_w=lo + 5e-6)
        with pytest.raises(InfeasibleProblem, match="cellular budget below") as err:
            solve_cell_phase(system, [1e-3, 1e-3])
        assert err.value.constraint == "budget_cell"
        assert err.value.band is None

    def test_cell_budget_dual_bisection(self, make_band, make_system):
        # two bands whose interior optima together exceed the budget
        band = make_band(outage_cap_d2d=0.9999, outage_cap_cell=0.999999)
        c = band.coeff_cell() * band.density_d2d * 0.02**0.5
        interior = (c / 2) ** 2
        budget = 1.2 * interior  # < 2 * interior
        system = make_system(bands=[band, band], budget_cell_w=budget)
        phase = solve_cell_phase(system, [0.02, 0.02])
        p_c, mu = phase.powers, phase.mu
        spent = math.fsum(p_c)
        assert spent <= budget * (1 + 1e-12)
        assert (budget - spent) <= 1e-6 * budget
        assert mu > 0

    def test_budget_bound_powers_maximize_penalized_objective(self, make_band, make_system):
        # same system as the dual-bisection test: each band's cellular power
        # maximizes EE_c - mu*P_c over its whole box
        band = make_band(outage_cap_d2d=0.9999, outage_cap_cell=0.999999)
        c = band.coeff_cell() * band.density_d2d * 0.02**0.5
        system = make_system(bands=[band, band], budget_cell_w=1.2 * (c / 2) ** 2)
        phase = solve_cell_phase(system, [0.02, 0.02])
        p_c, mu, flags, bounds = phase.powers, phase.mu, phase.flags, phase.bounds
        assert mu > 0 and not flags
        for i, band in enumerate(system.bands):
            lo, hi = bounds[i]
            assert lo <= p_c[i] <= hi
            penalized = lambda p: ee_per_band(band, p, 0.02)[1] - mu * p
            best = penalized(p_c[i])
            top = max(penalized(float(p)) for p in np.geomspace(lo, hi, 10_000))
            assert top <= best + 1e-12 * abs(best)


def mirror(system):
    """The system with every band's D2D and cellular fields and the two
    budgets swapped."""
    bands = []
    for band in system.bands:
        fields = {}
        for name, value in band.__dict__.items():
            if "d2d" in name:
                fields[name.replace("d2d", "cell")] = value
            elif "cell" in name:
                fields[name.replace("cell", "d2d")] = value
            else:
                fields[name] = value
        bands.append(BandParams(**fields))
    return SystemParams(bands=bands, budget_d2d_w=system.budget_cell_w,
                        budget_cell_w=system.budget_d2d_w)


class TestMirror:
    """Phase one is phase two with the classes swapped."""

    @pytest.mark.parametrize("budget_d2d_w", [1e3, 4e-4])  # slack, then binding
    def test_d2d_phase_equals_mirrored_cell_phase(self, make_band, budget_d2d_w):
        bands = [
            make_band(outage_cap_d2d=0.9999, outage_cap_cell=0.999999,
                      max_power_d2d_w=1e3, max_power_cell_w=1e3),
            make_band(outage_cap_d2d=0.99, outage_cap_cell=0.9, max_power_d2d_w=1e3,
                      d2d_link_distance_m=20.0, pathloss_exponent=3.5, density_cell=4e-5),
        ]
        system = SystemParams(bands=bands, budget_d2d_w=budget_d2d_w, budget_cell_w=1.0)
        q = [0.3, 0.1]
        d2d = solve_d2d_phase(system, q)
        cell = solve_cell_phase(mirror(system), q)
        assert d2d.powers == cell.powers
        assert d2d.mu == cell.mu
        assert d2d.bounds == cell.bounds
        assert (d2d.mu > 0) == (budget_d2d_w < 1.0)  # both regimes covered


def cap_pinned_system(make_band):
    """A single band whose alternating iteration freezes at the cellular cap.

    Interference couplings coeff_d2d*lambda_c = coeff_cell*lambda_d = 2.5 make
    each phase request more power than the previous one delivered, so phase
    two pins at the 0.3 W cap and both phases reproduce themselves exactly.
    """
    band = make_band(
        d2d_link_distance_m=20.0,
        cell_link_distance_m=20.0,
        density_d2d=2.5 / interference_coeff_20m(),
        density_cell=2.5 / interference_coeff_20m(),
        outage_cap_d2d=0.999,
        outage_cap_cell=0.999999,
        max_power_d2d_w=1e3,
        max_power_cell_w=0.3,
    )
    return SystemParams(bands=[band], budget_d2d_w=1e3, budget_cell_w=1.0)


def interference_coeff_20m():
    return math.pi * 20.0**2 * (math.pi / 2.0)


def table1_system(make_band, threshold=1e-5, lambda_d_ref=1e-4, lambda_c_ref=1.5e-5):
    radii_d = [10.0, 20.0, 30.0, 20.0, 10.0]
    radii_c = [50.0, 60.0, 70.0, 80.0, 90.0]
    mult = [10.0, 1.0, 10.0, 10.0, 10.0]
    bands = [
        make_band(
            sir_threshold_d2d=threshold,
            sir_threshold_cell=threshold,
            d2d_link_distance_m=radii_d[i],
            cell_link_distance_m=radii_c[i],
            density_d2d=mult[i] * lambda_d_ref,
            density_cell=mult[i] * lambda_c_ref,
        )
        for i in range(5)
    ]
    return SystemParams(bands=bands, budget_d2d_w=0.06, budget_cell_w=1.0)


class TestIterate:
    def test_converges_on_table1_config(self, make_band):
        result = optimize_powers(table1_system(make_band))
        trace = result.trace
        assert trace.converged
        assert trace.iterations <= 10
        assert trace.iterates[-1].delta_d_w <= 1e-5
        assert trace.iterates[-1].delta_c_w <= 1e-5
        assert result.feasibility.ok

    def test_fixed_point_of_both_phases(self, make_band):
        # cap-pinned regime: one more outer iteration changes nothing
        system = cap_pinned_system(make_band)
        result = optimize_powers(system)
        assert result.trace.converged
        assert result.trace.iterates[-1].delta_d_w == 0.0
        assert result.trace.iterates[-1].delta_c_w == 0.0
        assert result.alloc.p_cell_w == [0.3]  # pinned at the cellular cap
        p_c = list(result.alloc.p_cell_w)
        p_d_again = solve_d2d_phase(system, p_c).powers
        p_c_again = solve_cell_phase(system, p_d_again).powers
        assert p_d_again == result.alloc.p_d2d_w
        assert p_c_again == p_c

    def test_each_phase_improves_its_own_objective(self, make_band):
        system = table1_system(make_band)
        result = optimize_powers(system)
        iterates = result.trace.iterates
        for prev, it in zip(iterates, iterates[1:]):
            p_c_prev = prev.cell.powers
            old_d = [  # previous D2D powers re-evaluated at the current cellular powers
                ee_per_band(band, p_c_prev[i], prev.d2d.powers[i])[0]
                for i, band in enumerate(system.bands)
            ]
            new_d = [
                ee_per_band(band, p_c_prev[i], it.d2d.powers[i])[0]
                for i, band in enumerate(system.bands)
            ]
            assert math.fsum(new_d) >= math.fsum(old_d) * (1 - 1e-9)

    def test_monotone_ee_total_trace(self, make_band):
        trace = optimize_powers(table1_system(make_band)).trace
        totals = [it.ee_d2d_total + it.ee_cell_total for it in trace.iterates]
        for a, b in zip(totals, totals[1:]):
            assert b >= a * (1 - 1e-6)

    def test_ratio_independent_of_power_tolerance(self, make_band):
        # densest point of acceptance criterion 7a: the stopping tolerance
        # moves the power scale, never the per-band power ratio
        system = table1_system(make_band, threshold=1e-6, lambda_d_ref=1e-3,
                               lambda_c_ref=1e-5)
        ratios = []
        for eps in (1e-5, 1e-8):
            alloc = optimize_powers(system, SolveOptions(eps_power_w=eps)).alloc
            ratios.append([pc / pd for pc, pd in zip(alloc.p_cell_w, alloc.p_d2d_w)])
        assert ratios[1] == pytest.approx(ratios[0], rel=1e-12)

    def test_underflowing_lower_ends_are_not_anchored(self, make_band):
        # at a power tolerance of 1e-100 the powers shrink for 53 iterations,
        # until band 1's cellular lower end underflows to 0.0: it was anchored
        # and flagged "no D2D density", though band 1's D2D density is 1e-4
        result = optimize_powers(table1_system(make_band),
                                 SolveOptions(eps_power_w=1e-100, max_outer_iters=100))
        assert result.trace.converged and result.feasibility.ok
        assert result.trace.iterations == 53
        assert not any("anchored" in flag for flag in result.flags)

    def test_subnormal_density_solves(self, make_system):
        # coeff_cell * 5e-324 underflows to 0: the D2D box's cellular-QoS end
        # is +inf, as at zero D2D density, and the power cap bounds the box
        system = make_system(density_d2d=5e-324, sir_threshold_d2d=1e-5,
                             sir_threshold_cell=1e-6, cell_link_distance_m=5.0)
        assert system.bands[0].coeff_cell() * 5e-324 == 0.0
        bounds = solve_d2d_phase(system, [0.3]).bounds
        assert bounds[0][1] == system.bands[0].max_power_d2d_w
        result = optimize_powers(system)
        assert result.feasibility.ok
        powers = result.alloc.p_d2d_w + result.alloc.p_cell_w
        assert all(0.0 < p < math.inf for p in powers)

    def test_subnormal_power_keeps_its_ratio_finite(self, make_band):
        # phase one returns 5.7e-310 W at a cellular power of 0.5 W, where
        # 0.5 / p_d2d overflows a float: its (2/alpha)-th power must not
        band = make_band(pathloss_exponent=3.0, density_d2d=0.0, density_cell=1e-207,
                         d2d_link_distance_m=1.0, cell_link_distance_m=10.0,
                         outage_cap_d2d=0.5, outage_cap_cell=0.5,
                         max_power_d2d_w=0.5, max_power_cell_w=0.5)
        system = SystemParams(bands=[band], budget_d2d_w=10.0, budget_cell_w=10.0)
        for result in (optimize_powers(system), baseline_fixed_cell(system, 0.5)):
            p_d, p_c = result.alloc.p_d2d_w[0], result.alloc.p_cell_w[0]
            assert 0.0 < p_d < sys.float_info.min and p_c / p_d == math.inf
            assert "band 0: D2D power below the smallest normal float" in result.flags
            assert result.feasibility.ok
            assert 0.0 < result.metrics.stp_d2d[0] < 1.0
            assert math.isfinite(x_from_powers(band, p_c, p_d))

    def test_infeasible_names_band_and_constraint(self, make_band):
        system = table1_system(make_band)
        bands = list(system.bands)
        bad = dict(bands[2].__dict__)
        bad["outage_cap_cell"] = 1e-9
        from d2dee import BandParams

        bands[2] = BandParams(**bad)
        system = SystemParams(bands=bands, budget_d2d_w=0.06, budget_cell_w=1.0)
        with pytest.raises(InfeasibleProblem, match="cellular outage cap unreachable") as err:
            optimize_powers(system)
        assert err.value.band == 2
        assert err.value.constraint == "qos_cell"


def qos_bound_sequence(system, opts):
    """The joint solve in closed form on a QoS-bound config (ROADMAP item 11):
    every phase returns its own outage-cap end, so band i alternates
    Pd <- f_lo,d * Pc and Pc <- f_lo,c * Pd from the solver's start until
    both classes' largest per-band changes are within eps_power_w.  Each
    lower box factor comes from public band fields.  Returns the iterates
    as (D2D powers, cellular powers) pairs, and whether the sequence stopped
    on its changes."""
    def f_lo(band, own, other):
        coeff = band.coeff_d2d() if own == "d2d" else band.coeff_cell()
        margin = (-math.log1p(-getattr(band, f"outage_cap_{own}"))
                  - coeff * getattr(band, f"density_{own}"))
        return (coeff * getattr(band, f"density_{other}") / margin) ** (
            band.pathloss_exponent / 2.0)

    f_d = [f_lo(band, "d2d", "cell") for band in system.bands]
    f_c = [f_lo(band, "cell", "d2d") for band in system.bands]
    m = system.num_bands
    p_d = [0.0] * m
    p_c = [min(band.max_power_cell_w, system.budget_cell_w / m) for band in system.bands]
    iterates = []
    for _ in range(opts.max_outer_iters):
        new_d = [f * pc for f, pc in zip(f_d, p_c)]
        new_c = [f * pd for f, pd in zip(f_c, new_d)]
        delta_d = max(abs(a - b) for a, b in zip(new_d, p_d))
        delta_c = max(abs(a - b) for a, b in zip(new_c, p_c))
        p_d, p_c = new_d, new_c
        iterates.append((p_d, p_c))
        if delta_d <= opts.eps_power_w and delta_c <= opts.eps_power_w:
            return iterates, True
    return iterates, False


# acceptance criterion 5's config, and criterion 6's without its sweep
CRITERION_5 = dict(sir_threshold_d2d=1e-5, sir_threshold_cell=1e-5,
                   lambda_d_ref=1e-4, lambda_c_ref=1.5e-5, budget_d2d_w=0.06)
CRITERION_6 = dict(CRITERION_5, sir_threshold_d2d=1e-6, sir_threshold_cell=1e-6,
                   budget_d2d_w=0.08, lambda_c_ref=1e-5, baseline_p_cell_w=0.325)


@pytest.mark.parametrize("systems", [
    lambda: [d2dee.ExperimentConfig().with_overrides(**CRITERION_5).system],
    # criterion 6 over the sweep-density range, 100 log-spaced points
    lambda: [d2dee.ExperimentConfig().with_overrides(**CRITERION_6).point_system(
        "lambda_d_ref", v) for v in np.geomspace(1e-5, 1e-3, 100).tolist()],
], ids=["criterion_5", "criterion_6_density_grid"])
def test_solve_is_the_closed_form_sequence_on_qos_bound_configs(systems):
    # each phase is one multiply per band, so each iterate is a product of
    # at most 2 * max_outer_iters box factors: 1e-12 relative is a few ulps
    # per step
    for system in systems():
        opts = SolveOptions()
        trace = optimize_powers(system, opts).trace
        iterates, converged = qos_bound_sequence(system, opts)
        assert (trace.iterations, trace.converged) == (len(iterates), converged)
        for it, (p_d, p_c) in zip(trace.iterates, iterates):
            assert it.d2d.powers == pytest.approx(p_d, rel=1e-12, abs=0.0)
            assert it.cell.powers == pytest.approx(p_c, rel=1e-12, abs=0.0)


class TestBaseline:
    def test_matches_converged_cell_powers(self, make_band):
        # freezing the cellular powers at a converged allocation reproduces
        # the converged D2D powers in a single phase-one solve
        system = cap_pinned_system(make_band)
        joint = optimize_powers(system)
        result = baseline_fixed_cell(system, joint.alloc.p_cell_w[0])
        assert result.alloc.p_d2d_w == joint.alloc.p_d2d_w

    @pytest.mark.parametrize("p_cell_fixed_w", [0.0, -0.325])
    def test_nonpositive_fixed_power_rejected(self, make_band, p_cell_fixed_w):
        with pytest.raises(ValueError, match="^fixed cellular power must be positive$"):
            baseline_fixed_cell(table1_system(make_band), p_cell_fixed_w)

    @pytest.mark.parametrize("p_cell_fixed_w, message", [
        (math.nan, "must be positive"), (math.inf, "must be finite"),
        (True, "must be a number, not a bool"),
    ])
    def test_non_number_fixed_power_rejected(self, make_band, p_cell_fixed_w, message):
        # NaN and inf once reached the phase and failed naming cellular power
        # on band 0; True ran as 1 W and landed in the result as a bool
        with pytest.raises(ValueError, match=f"^fixed cellular power {message}$"):
            baseline_fixed_cell(table1_system(make_band), p_cell_fixed_w)

    def test_runs_single_phase(self, make_band):
        system = table1_system(make_band)
        result = baseline_fixed_cell(system, 0.325)
        assert result.trace is None  # one D2D phase, no iteration
        assert all(p == 0.325 for p in result.alloc.p_cell_w)
        assert result.metrics.ee_d2d_total > 0
        assert all(math.isfinite(v) for v in result.metrics.ee_d2d)

    def test_exceeding_cap_allowed_for_reference_power(self, make_band):
        # the fixed reference power is exogenous data, not a decision variable
        system = table1_system(make_band)
        result = baseline_fixed_cell(system, 0.325)
        assert all(b.max_power_cell_w < 0.325 for b in system.bands)
        assert result.alloc.p_cell_w[0] == 0.325


class TestCheckFeasible:
    def test_zero_power_reported_as_violation(self, make_system):
        system = make_system()
        report = check_feasible(system, PowerAllocation([0.0], [0.3]))
        assert not report.ok
        assert report.band_slacks[0]["qos_d2d"] < 0
        assert report.notes

    def test_budget_slack_exact(self, make_band):
        system = table1_system(make_band)
        alloc = PowerAllocation([0.001] * 5, [0.1] * 5)
        report = check_feasible(system, alloc)
        assert report.budget_d2d_slack == 0.06 - math.fsum([0.001] * 5)
        assert report.budget_cell_slack == 1.0 - math.fsum([0.1] * 5)

    def test_converged_output_is_feasible(self, make_band):
        result = optimize_powers(table1_system(make_band))
        report = result.feasibility
        assert report.ok
        for row in report.band_slacks:
            for slack in row.values():
                assert slack >= -1e-8

    def test_never_raises(self, make_system):
        system = make_system()
        report = check_feasible(system, PowerAllocation([-1.0], [-1.0]))
        assert not report.ok

    @pytest.mark.parametrize("p_d2d, p_cell", [(math.inf, 0.3), (1e-3, math.inf), (math.nan, 0.3)])
    def test_never_raises_on_non_finite_power(self, make_system, p_d2d, p_cell):
        # no success probability is evaluated at such a power: its outage is violated
        report = check_feasible(make_system(), PowerAllocation([p_d2d], [p_cell]))
        assert not report.ok
        assert report.notes == ["band 0: power not positive and finite, outage reported as violated"]
        assert report.band_slacks[0]["qos_d2d"] < 0 and report.band_slacks[0]["qos_cell"] < 0

    @pytest.mark.parametrize("num_bands", [1, 6])
    def test_wrong_band_count_raises_as_metrics_does(self, make_band, num_bands):
        system = table1_system(make_band)
        alloc = PowerAllocation([0.001] * num_bands, [0.1] * num_bands)
        message = f"allocation has {num_bands} bands, system has 5"
        for check in (metrics, check_feasible):
            with pytest.raises(ValueError, match=message):
                check(system, alloc)

    def test_solves_read_outage_slacks_from_their_report(self, make_band, monkeypatch):
        # the slacks of a solve's result come from the metrics report it
        # already holds, so the solver module evaluates no success probability
        system = table1_system(make_band)
        calls = []
        for name in ("stp_d2d", "stp_cell"):
            def counted(*args, _stp=getattr(solver, name), _name=name):
                calls.append(_name)
                return _stp(*args)
            monkeypatch.setattr(solver, name, counted)
        results = [optimize_powers(system), baseline_fixed_cell(system, 0.325)]
        assert calls == []
        for result in results:
            recomputed = check_feasible(system, result.alloc)
            assert result.feasibility == recomputed


class TestApi:
    @pytest.mark.parametrize("field, value", [("eps_power_w", 0.0), ("eps_power_w", math.nan),
                                              ("max_outer_iters", 0)])
    def test_solve_options_range_checked(self, field, value):
        # a config names the section too; these guard direct callers
        with pytest.raises(ValueError, match=f"^{field} must be positive$"):
            SolveOptions(**{field: value})

    def test_infinite_power_tolerance_rejected(self):
        # an infinite tolerance once stopped the criterion-6 solve after one
        # iteration, with converged True
        with pytest.raises(ValueError, match="^eps_power_w must be finite$"):
            SolveOptions(eps_power_w=math.inf)

    @pytest.mark.parametrize("value", [True, False])
    def test_power_tolerance_is_not_a_bool(self, value):
        # as in a config document: True once built and read as 1.0 W
        with pytest.raises(ValueError, match="^eps_power_w must be a number, not a bool$"):
            SolveOptions(eps_power_w=value)

    @pytest.mark.parametrize("value", [2.5, math.nan, True, "3"])
    def test_max_outer_iters_is_a_count(self, value):
        # as in a config document: 2.5 and nan once built and failed in
        # optimize_powers with a TypeError, and True ran one iteration
        with pytest.raises(ValueError, match="^max_outer_iters must be an integer$"):
            SolveOptions(max_outer_iters=value)

    @pytest.mark.parametrize("q", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("phase, other", [(solve_d2d_phase, "cellular"),
                                              (solve_cell_phase, "D2D")])
    def test_other_class_powers_checked(self, make_band, make_system, phase, other, q):
        system = make_system(bands=[make_band(), make_band(density_cell=0.0)])
        message = f"^{other} power on band 1 must be positive and finite$"
        with pytest.raises(ValueError, match=message):
            phase(system, [0.1, q])

    @pytest.mark.parametrize("phase, other", [(solve_d2d_phase, "cellular"),
                                              (solve_cell_phase, "D2D")])
    def test_other_class_power_count_checked(self, make_system, phase, other):
        with pytest.raises(ValueError,
                           match=f"^{other} power vector length must match the band count$"):
            phase(make_system(), [0.3, 0.3])

    def test_every_exported_name_resolves(self):
        for info in pkgutil.iter_modules(d2dee.__path__):
            module = importlib.import_module(f"d2dee.{info.name}")
            missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
            assert not missing, f"d2dee.{info.name}: {missing}"

    def test_x_space_reference_lives_in_the_tests(self):
        for name in ("x_feasible_box", "FeasibleBox", "power_from_x", "x_from_powers",
                     "curvature_interval"):
            assert not hasattr(d2dee, name)
            assert not hasattr(solver, name)

    def test_both_phases_return_powers_and_diagnostics(self, make_band):
        system = table1_system(make_band)
        d2d = solve_d2d_phase(system, [0.2] * 5)
        cell = solve_cell_phase(system, d2d.powers)
        assert len(d2d.powers) == len(cell.powers) == system.num_bands
        assert isinstance(d2d, solver.PhaseResult) and isinstance(cell, solver.PhaseResult)
        assert d2dee.PhaseResult is solver.PhaseResult
