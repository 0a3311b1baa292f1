import importlib
import math
import pkgutil

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
    curvature_interval,
    ee_per_band,
    metrics,
    optimize_powers,
    solve_cell_phase,
    solve_d2d_phase,
    x_from_powers,
)
from xspace import power_from_x, x_feasible_box


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
        p_d, _ = solve_d2d_phase(system, [0.3])
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
        p_d, _ = solve_d2d_phase(system, [0.3])
        assert x_from_powers(system.bands[0], 0.3, p_d[0]) == pytest.approx(box.hi, rel=1e-9)

    def test_amplitude_scaling_leaves_argmax(self, make_band, make_system):
        base = make_system(bands=[slack_band(make_band)], budget_d2d_w=1e3)
        scaled = make_system(bands=[slack_band(make_band, bandwidth_hz=140e6)],
                             budget_d2d_w=1e3)
        p0, _ = solve_d2d_phase(base, [0.3])
        p1, _ = solve_d2d_phase(scaled, [0.3])
        x0 = x_from_powers(base.bands[0], 0.3, p0[0])
        x1 = x_from_powers(scaled.bands[0], 0.3, p1[0])
        assert x0 == pytest.approx(x1, rel=1e-7)

    def test_dominates_random_feasible_points(self, make_band, make_system):
        system = make_system(bands=[slack_band(make_band)], budget_d2d_w=1e-7)
        band = system.bands[0]
        p_d, _ = solve_d2d_phase(system, [0.3])
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
        p_d, diag = solve_d2d_phase(system, [0.3, 0.3])
        spent = math.fsum(p_d)
        assert spent <= budget * (1 + 1e-12)
        assert diag["mu"] > 0
        assert (budget - spent) <= 1e-6 * budget  # complementary slackness
        # pushed up to save power
        assert all(x_from_powers(band, 0.3, p) > math.exp(2.0) for p in p_d)

    def test_budget_bound_powers_maximize_penalized_objective(self, make_band, make_system):
        # at the settled multiplier every band's power maximizes EE_d - mu*P_d
        # over its whole box, checked on a fine grid through the public model
        band = slack_band(make_band)
        system = make_system(bands=[band, band], budget_d2d_w=2.5e-8)
        p_d, diag = solve_d2d_phase(system, [0.3, 0.3])
        mu = diag["mu"]
        assert mu > 0 and not diag["flags"]
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
        p_d, _ = solve_d2d_phase(make_system(bands=[band]), [1e-30])
        x = x_from_powers(band, 1e-30, p_d[0])
        assert math.isfinite(x) and x > 1.0
        assert 0.0 < p_d[0] <= band.max_power_d2d_w

    def test_no_cellular_density_anchored(self, make_band, make_system):
        band = make_band(density_cell=0.0, density_d2d=1e-6)
        system = make_system(bands=[band])
        opts = SolveOptions()
        p_d, diag = solve_d2d_phase(system, [0.3], opts)
        assert p_d[0] == opts.eps_power_w
        assert any("anchored" in f for f in diag["flags"])


class TestObjective:
    def test_zero_multiplier_argmax_survives_underflow(self):
        # the objective rises across this box, which lies below the root 0.25 W,
        # but every value on it underflows to 0.0: a comparison of values
        # would pick the lower end
        b = solver._Objective(lo=1e-10, hi=1e-8, c=1.0, k_amp=2e7, alpha=4.0)
        assert b.value(b.lo, 0.0) == b.value(b.hi, 0.0) == 0.0
        assert b.argmax(0.0) == b.hi == min(max((2.0 * b.c / b.alpha) ** 2.0, b.lo), b.hi)

    def test_zero_multiplier_phase_evaluates_no_objective(self, make_band, make_system,
                                                          monkeypatch):
        calls = []
        value = solver._Objective.value

        def counted(self, p, mu):
            calls.append(mu)
            return value(self, p, mu)

        monkeypatch.setattr(solver._Objective, "value", counted)
        band = slack_band(make_band)
        system = make_system(bands=[band, band], budget_d2d_w=1e3, budget_cell_w=1e3)
        p_d, diag_d = solve_d2d_phase(system, [0.3, 0.3])
        _, diag_c = solve_cell_phase(system, p_d)
        assert diag_d["mu"] == diag_c["mu"] == 0.0
        assert calls == []
        # a budget-bound phase compares values, and the count sees them
        _, diag = solve_d2d_phase(make_system(bands=[band, band], budget_d2d_w=2.5e-8),
                                  [0.3, 0.3])
        assert diag["mu"] > 0.0 and calls and 0.0 not in calls


class TestPhaseTwo:
    def test_interior_closed_form_matches_golden_section(self, make_band, make_system):
        # wide box so the interior optimum is admissible
        band = make_band(outage_cap_d2d=0.9999, outage_cap_cell=0.999999)
        system = make_system(bands=[band], budget_cell_w=1.0)
        p_c, _ = solve_cell_phase(system, [0.02])
        c = band.coeff_cell() * band.density_d2d * 0.02**0.5
        closed = (2 * c / 4.0) ** 2
        assert p_c[0] == pytest.approx(closed, rel=1e-12)
        assert closed == pytest.approx(7.610e-3, rel=1e-4)
        # independent golden-section search over the raw objective
        h = lambda p: math.exp(-c / math.sqrt(p)) / p
        lo, hi = 1e-8, 0.3
        invphi = (math.sqrt(5) - 1) / 2
        x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
        f1, f2 = h(x1), h(x2)
        while hi - lo > 1e-13:
            if f1 < f2:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + invphi * (hi - lo)
                f2 = h(x2)
            else:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - invphi * (hi - lo)
                f1 = h(x1)
        assert p_c[0] == pytest.approx(0.5 * (lo + hi), rel=1e-6)

    def test_argmax_independent_of_amplitude(self, make_band, make_system):
        band_a = make_band(outage_cap_d2d=0.9999, outage_cap_cell=0.999999)
        band_b = make_band(outage_cap_d2d=0.9999, outage_cap_cell=0.999999,
                           bandwidth_hz=5e6, sir_threshold_cell=3.0)
        sys_a = make_system(bands=[band_a])
        sys_b = make_system(bands=[band_b])
        pa, _ = solve_cell_phase(sys_a, [0.02])
        pb, _ = solve_cell_phase(sys_b, [0.02])
        # thresholds change coeff_cell, so compare at matched coefficient
        c_a = band_a.coeff_cell() * band_a.density_d2d * 0.02**0.5
        c_b = band_b.coeff_cell() * band_b.density_d2d * 0.02**0.5
        assert pa[0] == pytest.approx((c_a / 2) ** 2, rel=1e-12)
        assert pb[0] == pytest.approx((c_b / 2) ** 2, rel=1e-12)

    def test_interior_stationarity(self, make_band, make_system):
        band = make_band(outage_cap_d2d=0.9999, outage_cap_cell=0.999999)
        system = make_system(bands=[band])
        p_c, _ = solve_cell_phase(system, [0.02])
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
        p_c, _ = solve_cell_phase(system, [0.001])
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
        _, slack = solve_cell_phase(make_system(bands=bands, budget_cell_w=1e3), [0.02, 0.02])
        floor = math.fsum(lo for lo, _ in slack["bounds"])
        budget = floor / (1.0 + 0.5e-6)
        return make_system(bands=bands, budget_cell_w=budget), budget

    def test_gap_scaling_keeps_lower_ends_within_budget(self, make_band, make_system):
        # no multiplier meets the budget; scaling whole powers (lower ends
        # included) once clamped band 0 back to its lower end and overspent
        system, budget = self.over_budget_lower_ends(make_band, make_system)
        p_c, diag = solve_cell_phase(system, [0.02, 0.02])
        assert diag["flags"] == ["cellular lower ends exceed the budget within BUDGET_TOL_REL"]
        assert math.fsum(p_c) <= budget * (1.0 + solver.BUDGET_TOL_REL)
        for p, (lo, hi) in zip(p_c, diag["bounds"]):
            assert lo <= p <= hi

    def test_over_budget_lower_ends_read_feasible(self, make_band, make_system):
        # the lower ends overspend the budget inside its relative tolerance,
        # which check_feasible accepts as the solver does; twice it does not
        system, _ = self.over_budget_lower_ends(make_band, make_system)
        p_c, _ = solve_cell_phase(system, [0.02, 0.02])
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
        dual_bisect = solver._dual_bisect

        def counted(solve_at_mu, *args):
            def solve(mu):
                calls.append(mu)
                return solve_at_mu(mu)
            return dual_bisect(solve, *args)

        monkeypatch.setattr(solver, "_dual_bisect", counted)
        p_c, diag = solve_cell_phase(system, [0.02, 0.02])
        assert len(calls) <= 2
        assert p_c == [lo for lo, _ in diag["bounds"]]
        assert diag["mu"] == 0.0
        assert diag["flags"] == ["cellular lower ends exceed the budget within BUDGET_TOL_REL"]

    def test_excess_scaled_when_no_multiplier_meets_budget(self, make_band, make_system):
        # at D2D powers of 1e-140 W the budget, halfway between the lower
        # ends and the interior optima, needs a multiplier beyond 4^399; at
        # 1e-170 and 1e-200 W psi's s**a also overflows a float, though psi
        # itself does not
        band = make_band(max_power_d2d_w=1e3, max_power_cell_w=1e3,
                         outage_cap_d2d=0.9999, outage_cap_cell=0.999999)
        for q in ([1e-140] * 2, [1e-170] * 2, [1e-200] * 2):
            free, slack = solve_cell_phase(make_system(bands=[band, band]), q)
            floor = math.fsum(lo for lo, _ in slack["bounds"])
            budget = 0.5 * (floor + math.fsum(free))
            p_c, diag = solve_cell_phase(make_system(bands=[band, band], budget_cell_w=budget), q)
            assert diag["flags"] == ["cellular budget met by proportional scaling (duality gap)"]
            assert diag["mu"] == 0.0
            assert math.fsum(p_c) <= budget * (1.0 + 1e-12)
            for p, (lo, hi) in zip(p_c, diag["bounds"]):
                assert lo < p < hi

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
        p_c, diag = solve_cell_phase(system, [0.02, 0.02])
        spent = math.fsum(p_c)
        assert spent <= budget * (1 + 1e-12)
        assert (budget - spent) <= 1e-6 * budget
        assert diag["mu"] > 0

    def test_budget_bound_powers_maximize_penalized_objective(self, make_band, make_system):
        # same system as the dual-bisection test: each band's cellular power
        # maximizes EE_c - mu*P_c over its whole box
        band = make_band(outage_cap_d2d=0.9999, outage_cap_cell=0.999999)
        c = band.coeff_cell() * band.density_d2d * 0.02**0.5
        system = make_system(bands=[band, band], budget_cell_w=1.2 * (c / 2) ** 2)
        p_c, diag = solve_cell_phase(system, [0.02, 0.02])
        mu = diag["mu"]
        assert mu > 0 and not diag["flags"]
        for i, band in enumerate(system.bands):
            lo, hi = diag["bounds"][i]
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
        p_d, diag_d = solve_d2d_phase(system, q)
        p_c, diag_c = solve_cell_phase(mirror(system), q)
        assert p_d == p_c
        assert diag_d["mu"] == diag_c["mu"]
        assert diag_d["bounds"] == diag_c["bounds"]
        assert (diag_d["mu"] > 0) == (budget_d2d_w < 1.0)  # both regimes covered


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
        assert trace.delta_d_w[-1] <= 1e-5
        assert trace.delta_c_w[-1] <= 1e-5
        assert result.feasibility.ok

    def test_fixed_point_of_both_phases(self, make_band):
        # cap-pinned regime: one more outer iteration changes nothing
        system = cap_pinned_system(make_band)
        result = optimize_powers(system)
        assert result.trace.converged
        assert result.trace.delta_d_w[-1] == 0.0
        assert result.trace.delta_c_w[-1] == 0.0
        assert result.alloc.p_cell_w == [0.3]  # pinned at the cellular cap
        p_c = list(result.alloc.p_cell_w)
        p_d_again, _ = solve_d2d_phase(system, p_c)
        p_c_again, _ = solve_cell_phase(system, p_d_again)
        assert p_d_again == result.alloc.p_d2d_w
        assert p_c_again == p_c

    def test_each_phase_improves_its_own_objective(self, make_band):
        system = table1_system(make_band)
        result = optimize_powers(system)
        trace = result.trace
        for n in range(1, trace.iterations):
            p_c_prev = trace.p_cell_w[n - 1]
            old_d = [  # previous D2D powers re-evaluated at the current cellular powers
                ee_per_band(band, p_c_prev[i], trace.p_d2d_w[n - 1][i])[0]
                for i, band in enumerate(system.bands)
            ]
            new_d = [
                ee_per_band(band, p_c_prev[i], trace.p_d2d_w[n][i])[0]
                for i, band in enumerate(system.bands)
            ]
            assert math.fsum(new_d) >= math.fsum(old_d) * (1 - 1e-9)

    def test_monotone_ee_total_trace(self, make_band):
        trace = optimize_powers(table1_system(make_band)).trace
        totals = [d + c for d, c in zip(trace.ee_d2d_total, trace.ee_cell_total)]
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

    def test_subnormal_density_solves(self, make_system):
        # coeff_cell * 5e-324 underflows to 0: the D2D box's cellular-QoS end
        # is +inf, as at zero D2D density, and the power cap bounds the box
        system = make_system(density_d2d=5e-324, sir_threshold_d2d=1e-5,
                             sir_threshold_cell=1e-6, cell_link_distance_m=5.0)
        assert system.bands[0].coeff_cell() * 5e-324 == 0.0
        _, diag = solve_d2d_phase(system, [0.3])
        assert diag["bounds"][0][1] == system.bands[0].max_power_d2d_w
        result = optimize_powers(system)
        assert result.feasibility.ok
        powers = result.alloc.p_d2d_w + result.alloc.p_cell_w
        assert all(0.0 < p < math.inf for p in powers)

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


class TestBaseline:
    def test_matches_converged_cell_powers(self, make_band):
        # freezing the cellular powers at a converged allocation reproduces
        # the converged D2D powers in a single phase-one solve
        system = cap_pinned_system(make_band)
        joint = optimize_powers(system)
        result = baseline_fixed_cell(system, joint.alloc.p_cell_w[0])
        assert result.alloc.p_d2d_w == joint.alloc.p_d2d_w

    def test_runs_single_phase(self, make_band):
        system = table1_system(make_band)
        result = baseline_fixed_cell(system, 0.325)
        assert result.trace.iterations == 1
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
            assert result.feasibility.to_dict() == recomputed.to_dict()


class TestApi:
    @pytest.mark.parametrize("field, value", [("eps_power_w", 0.0), ("max_outer_iters", 0)])
    def test_solve_options_range_checked(self, field, value):
        # a config names the section too; these guard direct callers
        with pytest.raises(ValueError, match=f"^{field} must be positive$"):
            SolveOptions(**{field: value})

    @pytest.mark.parametrize("q", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("phase, other", [(solve_d2d_phase, "cellular"),
                                              (solve_cell_phase, "D2D")])
    def test_other_class_powers_checked(self, make_band, make_system, phase, other, q):
        system = make_system(bands=[make_band(), make_band(density_cell=0.0)])
        message = f"^{other} power on band 1 must be positive and finite$"
        with pytest.raises(ValueError, match=message):
            phase(system, [0.1, q])

    def test_every_exported_name_resolves(self):
        for info in pkgutil.iter_modules(d2dee.__path__):
            module = importlib.import_module(f"d2dee.{info.name}")
            missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
            assert not missing, f"d2dee.{info.name}: {missing}"

    def test_x_space_reference_lives_in_the_tests(self):
        for name in ("x_feasible_box", "FeasibleBox", "power_from_x"):
            assert not hasattr(d2dee, name)
            assert not hasattr(solver, name)

    def test_both_phases_return_powers_and_diagnostics(self, make_band):
        system = table1_system(make_band)
        p_d, diag_d = solve_d2d_phase(system, [0.2] * 5)
        p_c, diag_c = solve_cell_phase(system, p_d)
        assert len(p_d) == len(p_c) == system.num_bands
        assert diag_d.keys() == diag_c.keys()
