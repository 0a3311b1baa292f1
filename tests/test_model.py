import dataclasses
import math
import pickle

import numpy as np
import pytest
from scipy.special import gamma as scipy_gamma

from d2dee import (
    BandParams,
    PowerAllocation,
    SystemParams,
    asr,
    ee_per_band,
    gamma_product,
    interference_coeff,
    metrics,
    stp_cell,
    stp_d2d,
)
from d2dee.config import load_config


class TestGammaProduct:
    def test_alpha_four_is_half_pi(self):
        # Gamma(1.5) = sqrt(pi)/2, Gamma(0.5) = sqrt(pi)
        assert gamma_product(4.0) == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_alpha_three(self):
        # independent oracle: direct gamma product, Gamma(5/3)*Gamma(1/3) = 4*pi/(3*sqrt(3))
        expected = scipy_gamma(1 + 2 / 3) * scipy_gamma(1 - 2 / 3)
        assert expected == pytest.approx(4 * math.pi / (3 * math.sqrt(3)), rel=1e-12)
        assert gamma_product(3.0) == pytest.approx(expected, rel=1e-10)

    def test_matches_direct_gamma_to_ten_digits(self):
        for alpha in np.linspace(2.05, 10.0, 50):
            direct = scipy_gamma(1 + 2 / alpha) * scipy_gamma(1 - 2 / alpha)
            assert gamma_product(alpha) == pytest.approx(direct, rel=1e-10)

    def test_reflection_identity(self):
        # gamma_product(a) * sin(2*pi/a) * a / (2*pi) == 1 on (2, 10]
        for alpha in np.linspace(2.05, 10.0, 50):
            value = gamma_product(alpha) * math.sin(2 * math.pi / alpha) * alpha / (2 * math.pi)
            assert abs(value - 1.0) < 1e-9

    @pytest.mark.parametrize("alpha", [2.0, 1.5, -1.0])
    def test_domain_error_at_or_below_two(self, alpha):
        with pytest.raises(ValueError, match="pathloss exponent must exceed 2"):
            gamma_product(alpha)

    @pytest.mark.parametrize("call, alpha, message", [
        ("gamma_product", math.nan, "must exceed 2"),
        ("gamma_product", math.inf, "must be finite"),
        ("interference_coeff", math.inf, "must be finite"),
        ("BandParams", math.inf, "must be finite"),
    ])
    def test_non_finite_exponent_rejected(self, make_band, call, alpha, message):
        # NaN passed `alpha <= 2.0` and gave a NaN product; inf divided by sin(0)
        calls = {"gamma_product": gamma_product,
                 "interference_coeff": lambda a: interference_coeff(1.0, 10.0, a),
                 "BandParams": lambda a: make_band(pathloss_exponent=a)}
        with pytest.raises(ValueError, match=f"^pathloss exponent {message}"):
            calls[call](alpha)


class TestInterferenceCoeff:
    def test_unit_threshold_examples(self):
        assert interference_coeff(1.0, 10.0, 4.0) == pytest.approx(50 * math.pi**2, rel=1e-12)
        assert interference_coeff(1.0, 50.0, 4.0) == pytest.approx(1250 * math.pi**2, rel=1e-12)

    def test_vanishes_with_threshold(self):
        assert interference_coeff(0.0, 10.0, 4.0) == 0.0
        assert interference_coeff(1e-30, 10.0, 4.0) < 1e-10

    @pytest.mark.parametrize("threshold, distance, message", [
        (-1.0, 10.0, "SIR threshold must be nonnegative"),
        (1.0, 0.0, "link distance must be positive"),
        (1.0, -10.0, "link distance must be positive"),
    ], ids=["negative_threshold", "zero_distance", "negative_distance"])
    def test_domain_rejected(self, threshold, distance, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            interference_coeff(threshold, distance, 4.0)


class TestStp:
    def test_d2d_example(self, band1):
        # hand evaluation: exp(-50*pi^2 * (1e-4 + 1.5e-5 * 15^0.5))
        expected = math.exp(-50 * math.pi**2 * (1e-4 + 1.5e-5 * 15.0**0.5))
        value = stp_d2d(band1, 0.3, 0.02)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(0.92495, abs=5e-6)

    def test_cell_example(self, band1):
        expected = math.exp(-1250 * math.pi**2 * (1.5e-5 + 1e-4 * (1 / 15.0) ** 0.5))
        value = stp_cell(band1, 0.3, 0.02)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(0.60435, abs=5e-6)

    def test_empty_field_gives_one(self, make_band):
        band = make_band(density_d2d=0.0, density_cell=0.0)
        assert stp_d2d(band, 0.3, 0.02) == 1.0
        assert stp_cell(band, 0.3, 0.02) == 1.0

    def test_ratio_invariance_power_of_two_scaling_exact(self, band1):
        base_d = stp_d2d(band1, 0.3, 0.02)
        base_c = stp_cell(band1, 0.3, 0.02)
        for kappa in (0.5, 2.0, 4.0, 1024.0):
            assert stp_d2d(band1, kappa * 0.3, kappa * 0.02) == base_d
            assert stp_cell(band1, kappa * 0.3, kappa * 0.02) == base_c

    def test_ratio_invariance_kappa_seven(self, band1):
        assert stp_d2d(band1, 7 * 0.3, 7 * 0.02) == pytest.approx(
            stp_d2d(band1, 0.3, 0.02), rel=1e-14
        )

    def test_vanishing_d2d_power_limit(self, make_band):
        band = make_band()
        limit = math.exp(-band.coeff_cell() * band.density_cell)
        assert stp_cell(band, 0.3, 1e-30) == pytest.approx(limit, rel=1e-9)

    def test_monotone_in_densities_thresholds_distances(self, make_band):
        base = stp_d2d(make_band(), 0.3, 0.02)
        assert stp_d2d(make_band(density_d2d=2e-4), 0.3, 0.02) < base
        assert stp_d2d(make_band(density_cell=3e-5), 0.3, 0.02) < base
        assert stp_d2d(make_band(sir_threshold_d2d=2.0), 0.3, 0.02) < base
        assert stp_d2d(make_band(d2d_link_distance_m=20.0), 0.3, 0.02) < base
        base_c = stp_cell(make_band(), 0.3, 0.02)
        assert stp_cell(make_band(density_cell=3e-5), 0.3, 0.02) < base_c
        assert stp_cell(make_band(sir_threshold_cell=2.0), 0.3, 0.02) < base_c
        assert stp_cell(make_band(cell_link_distance_m=60.0), 0.3, 0.02) < base_c

    def test_monotone_in_own_and_other_power(self, band1):
        assert stp_d2d(band1, 0.3, 0.03) > stp_d2d(band1, 0.3, 0.02)
        assert stp_d2d(band1, 0.4, 0.02) < stp_d2d(band1, 0.3, 0.02)
        assert stp_cell(band1, 0.4, 0.02) > stp_cell(band1, 0.3, 0.02)
        assert stp_cell(band1, 0.3, 0.03) < stp_cell(band1, 0.3, 0.02)

    def test_output_in_unit_interval(self, make_band):
        rng = np.random.default_rng(5)
        for _ in range(200):
            band = make_band(
                density_d2d=10 ** rng.uniform(-7, -2),
                density_cell=10 ** rng.uniform(-7, -2),
                sir_threshold_d2d=10 ** rng.uniform(-3, 1),
            )
            value = stp_d2d(band, 10 ** rng.uniform(-3, 0), 10 ** rng.uniform(-3, 0))
            assert 0.0 < value <= 1.0

    @pytest.mark.parametrize("own, other", [("d2d", "cell"), ("cell", "d2d")])
    def test_absent_other_class_ignores_an_overflowing_ratio(self, make_band, own, other):
        # at alpha = 2.05, (1e3 / 5e-324)^(2/alpha) overflows to inf; without
        # interferers of the other class their term is 0, where it was 0 * inf = nan
        band = make_band(pathloss_exponent=2.05, **{f"density_{other}": 0.0})
        powers = {f"p_{other}_w": 1e3, f"p_{own}_w": 5e-324}
        coeff = band.coeff_d2d() if own == "d2d" else band.coeff_cell()
        expected = math.exp(-coeff * getattr(band, f"density_{own}"))
        assert {"d2d": stp_d2d, "cell": stp_cell}[own](band, **powers) == expected
        assert getattr(metrics_of_band_1(band, **powers), f"stp_{own}")[1] == expected

    def test_nonpositive_power_rejected(self, band1):
        with pytest.raises(ValueError):
            stp_d2d(band1, 0.0, 0.02)
        with pytest.raises(ValueError):
            stp_cell(band1, 0.3, -1.0)


class TestAsr:
    def test_example_arithmetic(self, band1):
        assert asr(band1, 0.92495, 1e-4, 1.0) == pytest.approx(1849.9, rel=1e-9)

    def test_unit_case(self, make_band):
        band = make_band(bandwidth_hz=1.0)
        assert asr(band, 1.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_zero_threshold_zero_rate(self, band1):
        assert asr(band1, 0.9, 1e-4, 0.0) == 0.0

    def test_nan_stp_rejected(self, band1):
        with pytest.raises(ValueError, match="stp must lie in"):
            asr(band1, math.nan, 1e-4, 1.0)


class TestEePerBand:
    def test_example_arithmetic(self, band1):
        ee_d, _ = ee_per_band(band1, 0.3, 0.02)
        expected = 20e6 / 0.02 * stp_d2d(band1, 0.3, 0.02)
        assert ee_d == pytest.approx(expected, rel=1e-12)
        assert ee_d == pytest.approx(9.2495e8, rel=1e-4)

    def test_inverse_power_scaling(self, band1):
        base_d, base_c = ee_per_band(band1, 0.3, 0.02)
        for kappa in (0.25, 2.0, 8.0):
            ee_d, ee_c = ee_per_band(band1, kappa * 0.3, kappa * 0.02)
            assert ee_d == pytest.approx(base_d / kappa, rel=1e-12)
            assert ee_c == pytest.approx(base_c / kappa, rel=1e-12)

    def test_unit_case(self, make_band):
        band = make_band(bandwidth_hz=1.0, density_d2d=0.0, density_cell=0.0)
        assert ee_per_band(band, 1.0, 1.0) == (1.0, 1.0)

    def test_nonnegative(self, band1):
        ee_d, ee_c = ee_per_band(band1, 0.3, 0.02)
        assert ee_d >= 0 and ee_c >= 0

    @pytest.mark.parametrize("p_cell_w, p_d2d_w", [(0.0, 0.02), (0.3, -1.0)])
    def test_nonpositive_power_rejected(self, band1, p_cell_w, p_d2d_w):
        with pytest.raises(ValueError, match="transmit powers must be positive and finite"):
            ee_per_band(band1, p_cell_w, p_d2d_w)


class TestMetrics:
    def test_single_band_reduces_to_ee_per_band(self, make_system, band1):
        system = make_system()
        rep = metrics(system, PowerAllocation([0.02], [0.3]))
        ee_d, ee_c = ee_per_band(band1, 0.3, 0.02)
        assert rep.ee_d2d == [ee_d]
        assert rep.ee_cell == [ee_c]
        assert rep.ee_total == rep.ee_d2d_total + rep.ee_cell_total

    def test_underflowing_stp_is_ee_per_band(self):
        # at Pc/Pd = 3e299 the D2D success probability underflows to 0.0
        system = load_config(None).system
        alloc = PowerAllocation([1e-300] + [0.02] * 4, [0.3] * 5)
        rep = metrics(system, alloc)
        assert rep.stp_d2d[0] == 0.0
        assert (rep.ee_d2d[0], rep.ee_cell[0]) == ee_per_band(system.bands[0], 0.3, 1e-300)

    def test_totals_are_hand_summed_per_band(self, make_band):
        # Table-1 band geometry at fixed powers on every band
        radii_d = [10.0, 20.0, 30.0, 20.0, 10.0]
        radii_c = [50.0, 60.0, 70.0, 80.0, 90.0]
        mult = [10.0, 1.0, 10.0, 10.0, 10.0]
        bands = [
            make_band(
                d2d_link_distance_m=radii_d[i],
                cell_link_distance_m=radii_c[i],
                density_d2d=mult[i] * 1e-4,
                density_cell=mult[i] * 1.5e-5,
            )
            for i in range(5)
        ]
        system = SystemParams(bands=bands, budget_d2d_w=0.06, budget_cell_w=1.0)
        alloc = PowerAllocation([0.02] * 5, [0.3] * 5)
        rep = metrics(system, alloc)
        expected_d = math.fsum(ee_per_band(b, 0.3, 0.02)[0] for b in bands)
        expected_c = math.fsum(ee_per_band(b, 0.3, 0.02)[1] for b in bands)
        assert rep.ee_d2d_total == pytest.approx(expected_d, rel=1e-14)
        assert rep.ee_cell_total == pytest.approx(expected_c, rel=1e-14)

    def test_permutation_preserves_totals(self, make_band):
        bands = [make_band(d2d_link_distance_m=r) for r in (10.0, 20.0, 30.0)]
        system = SystemParams(bands=bands, budget_d2d_w=0.06, budget_cell_w=1.0)
        rep = metrics(system, PowerAllocation([0.02, 0.01, 0.005], [0.3, 0.2, 0.1]))
        perm = [2, 0, 1]
        system_p = SystemParams(
            bands=[bands[i] for i in perm], budget_d2d_w=0.06, budget_cell_w=1.0
        )
        rep_p = metrics(
            system_p,
            PowerAllocation([[0.02, 0.01, 0.005][i] for i in perm],
                            [[0.3, 0.2, 0.1][i] for i in perm]),
        )
        assert rep_p.ee_d2d == [rep.ee_d2d[i] for i in perm]
        assert rep_p.ee_d2d_total == rep.ee_d2d_total
        assert rep_p.ee_cell_total == rep.ee_cell_total

    def test_length_mismatch_rejected(self, make_system):
        system = make_system()
        with pytest.raises(ValueError, match="bands"):
            metrics(system, PowerAllocation([0.02, 0.02], [0.3, 0.3]))

    def test_infinite_density_times_a_vanishing_ratio_refused_by_band(self, make_band):
        # (5e-324 / 1e300)^(2/2.05) underflows to 0.0, and inf * 0.0 is nan:
        # asr refuses that STP, and metrics names its band
        band = make_band(pathloss_exponent=2.05, density_cell=math.inf)
        assert math.isnan(stp_d2d(band, 5e-324, 1e300))
        with pytest.raises(ValueError, match=r"^band 1: stp must lie in \[0, 1\]$"):
            metrics_of_band_1(band, 5e-324, 1e300)


def metrics_of_band_1(band, p_cell_w, p_d2d_w):
    """``metrics`` of two copies of ``band``, band 1 at the given powers."""
    system = SystemParams(bands=[band, band], budget_d2d_w=0.06, budget_cell_w=1.0)
    return metrics(system, PowerAllocation([0.02, p_d2d_w], [0.3, p_cell_w]))


# each closed form of a power pair, and the band prefix of its errors
POWER_SLOTS = pytest.mark.parametrize("slot", ["p_cell_w", "p_d2d_w"])
EVALUATORS = pytest.mark.parametrize(
    "evaluate, prefix",
    [(stp_d2d, ""), (stp_cell, ""), (ee_per_band, ""), (metrics_of_band_1, "band 1: ")],
    ids=["stp_d2d", "stp_cell", "ee_per_band", "metrics"])


class TestNanPower:
    @POWER_SLOTS
    @EVALUATORS
    def test_rejected_by_name(self, band1, evaluate, prefix, slot):
        # nan <= 0 is False, so a check written that way let NaN through: it
        # gave a NaN STP, and metrics an STP error naming neither power nor band
        powers = {"p_cell_w": 0.3, "p_d2d_w": 0.02, slot: math.nan}
        with pytest.raises(ValueError,
                           match=f"^{prefix}transmit powers must be positive and finite$"):
            evaluate(band1, **powers)

    @POWER_SLOTS
    @EVALUATORS
    def test_infinite_rejected_by_name(self, band1, evaluate, prefix, slot):
        # an infinite power passed the positivity check: stp_cell(band, inf,
        # inf) gave NaN, and metrics an EE of 0.0 without complaint
        powers = {"p_cell_w": 0.3, "p_d2d_w": 0.02, slot: math.inf}
        with pytest.raises(ValueError,
                           match=f"^{prefix}transmit powers must be positive and finite$"):
            evaluate(band1, **powers)


class TestBandParamsValidation:
    def test_alpha_at_two_rejected(self, make_band):
        with pytest.raises(ValueError, match="pathloss exponent must exceed 2"):
            make_band(pathloss_exponent=2.0)

    def test_outage_cap_bounds(self, make_band):
        with pytest.raises(ValueError):
            make_band(outage_cap_d2d=0.0)
        with pytest.raises(ValueError):
            make_band(outage_cap_cell=1.0)

    def test_negative_density_rejected(self, make_band):
        with pytest.raises(ValueError):
            make_band(density_d2d=-1e-6)

    NAN_MESSAGES = {
        "pathloss_exponent": "pathloss exponent must exceed 2",
        **{name: f"{name} must be strictly positive" for name in (
            "bandwidth_hz", "sir_threshold_d2d", "sir_threshold_cell", "d2d_link_distance_m",
            "cell_link_distance_m", "max_power_d2d_w", "max_power_cell_w")},
        **{name: f"{name} must be nonnegative" for name in ("density_d2d", "density_cell")},
    }

    @pytest.mark.parametrize("name", sorted(NAN_MESSAGES))
    def test_nan_rejected(self, make_band, name):
        # a NaN passed every `x <= 0` check, since any comparison with it is false
        with pytest.raises(ValueError, match=f"^{self.NAN_MESSAGES[name]}"):
            make_band(**{name: math.nan})

    def test_infinite_bandwidth_rejected(self, make_band):
        # it once built, and a class without density then read a NaN ASR (0 * inf)
        with pytest.raises(ValueError, match="^bandwidth_hz must be finite$"):
            make_band(bandwidth_hz=math.inf)

    @pytest.mark.parametrize("budget", ["budget_d2d_w", "budget_cell_w"])
    def test_nan_budget_rejected(self, make_system, budget):
        # a NaN D2D budget once solved to converged=True on an infeasible allocation
        with pytest.raises(ValueError, match="^power budgets must be positive$"):
            make_system(**{budget: math.nan})


@pytest.mark.parametrize("build, message", [
    (lambda: SystemParams(bands=[], budget_d2d_w=0.06, budget_cell_w=1.0),
     "at least one band is required"),
    (lambda: PowerAllocation([0.02, 0.02], [0.3]), "power vectors must have equal length"),
], ids=["system_without_bands", "allocation_of_unequal_lengths"])
def test_empty_or_ragged_inputs_rejected(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


class TestFrozenInputs:
    def test_frozen_with_coefficients_outside_vars(self, band1):
        assert set(vars(band1)) == {f.name for f in dataclasses.fields(BandParams)}
        with pytest.raises(dataclasses.FrozenInstanceError):
            band1.density_d2d = 1.0
        system = SystemParams(bands=[band1], budget_d2d_w=0.06, budget_cell_w=1.0)
        assert system.bands == (band1,)
        with pytest.raises(dataclasses.FrozenInstanceError):
            system.budget_d2d_w = 1.0
        assert band1.coeff_d2d() == interference_coeff(1.0, 10.0, 4.0)
        assert band1.coeff_cell() == interference_coeff(1.0, 50.0, 4.0)

    def test_copies_recompute_the_coefficients(self, band1):
        # the Monte Carlo pool pickles bands; replace builds a new one
        for again in (pickle.loads(pickle.dumps(band1)),
                     dataclasses.replace(band1, sir_threshold_d2d=1.0)):
            assert again == band1 and again.coeff_d2d() == band1.coeff_d2d()
        moved = dataclasses.replace(band1, d2d_link_distance_m=20.0)
        assert moved.coeff_d2d() == interference_coeff(1.0, 20.0, 4.0)
