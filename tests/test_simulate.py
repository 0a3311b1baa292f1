import dataclasses
import logging
import math
import multiprocessing

import numpy as np
import pytest
from scipy.stats import ks_2samp, kstest

from d2dee import (
    SimScenario,
    estimate_stp,
    realize_sir_cell,
    realize_sir_d2d,
    sample_interferer_distances,
    stp_cell,
    stp_d2d,
)
from d2dee import simulate
from d2dee.simulate import (
    _Buffers,
    _chunk_successes,
    _interference_block,
    _pool_size,
    _substream,
    _usable_cpus,
    sir_value,
)


def scenario(band, **overrides):
    params = dict(band=band, p_cell_w=0.3, p_d2d_w=0.02, window_radius_m=2000.0,
                  trials=100_000, seed=7, workers=1)
    params.update(overrides)
    return SimScenario(**params)


class TestSampling:
    def test_zero_density_always_empty(self):
        rng = _substream(1, 0)
        for _ in range(20):
            assert sample_interferer_distances(0.0, 2000.0, rng).size == 0

    def test_poisson_mean(self):
        rng = _substream(2, 0)
        expected = 1e-4 * math.pi * 2000.0**2
        counts = [sample_interferer_distances(1e-4, 2000.0, rng).size for _ in range(10_000)]
        assert abs(np.mean(counts) - expected) < 3 * math.sqrt(expected / 10_000)

    def test_radii_squared_uniform(self):
        # one draw sized ~1e5 radii, KS against uniform at the 1% level
        rng = _substream(3, 0)
        density = 1e5 / (math.pi * 2000.0**2)
        radii = sample_interferer_distances(density, 2000.0, rng)
        assert radii.size > 90_000
        _, p_value = kstest((radii / 2000.0) ** 2, "uniform")
        assert p_value > 0.01

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            sample_interferer_distances(-1.0, 2000.0, _substream(1, 0))


class TestSirRealization:
    def test_empty_field_sentinel(self, make_band):
        band = make_band(density_d2d=0.0, density_cell=0.0)
        sample = realize_sir_d2d(scenario(band), _substream(1, 0))
        assert sample.no_interference
        assert math.isinf(sample.sir)
        sample = realize_sir_cell(scenario(band), _substream(1, 0))
        assert sample.no_interference

    def test_single_matched_interferer_gives_unit_sir(self):
        # one interferer of the same power class at the link distance with the
        # same fading gain cancels the signal exactly
        signal = 1.0 * 10.0 ** (-4.0)
        assert sir_value(signal, signal) == 1.0

    def test_sentinel_only_without_interferers(self):
        assert math.isinf(sir_value(1.0, 0.0))
        assert sir_value(1.0, 2.0) == 0.5

    def test_counts_reported(self, band1):
        sample = realize_sir_d2d(scenario(band1), _substream(4, 0))
        assert sample.n_interferers_d2d > 0
        assert sample.n_interferers_cell >= 0
        assert math.isfinite(sample.sir)

    def test_role_swap_matches_distribution(self, make_band):
        # realize_sir_cell with swapped densities, link distance and power
        # ratio must reproduce the realize_sir_d2d distribution
        band_a = make_band(d2d_link_distance_m=10.0, cell_link_distance_m=50.0,
                           density_d2d=1e-4, density_cell=1.5e-5)
        band_b = make_band(cell_link_distance_m=10.0, d2d_link_distance_m=50.0,
                           density_cell=1e-4, density_d2d=1.5e-5)
        sc_a = scenario(band_a, window_radius_m=500.0)
        sc_b = scenario(band_b, p_cell_w=0.02, p_d2d_w=0.3, window_radius_m=500.0)
        rng_a, rng_b = _substream(11, 0), _substream(12, 0)
        sirs_a = [realize_sir_d2d(sc_a, rng_a).sir for _ in range(4000)]
        sirs_b = [realize_sir_cell(sc_b, rng_b).sir for _ in range(4000)]
        _, p_value = ks_2samp(sirs_a, sirs_b)
        assert p_value > 0.01

    def test_ratio_invariance_per_trial(self, band1):
        # identical draws, both powers scaled: SIR sequence is unchanged
        sc = scenario(band1)
        sc_scaled = scenario(band1, p_cell_w=4 * 0.3, p_d2d_w=4 * 0.02)
        a = [realize_sir_d2d(sc, _substream(21, i)).sir for i in range(50)]
        b = [realize_sir_d2d(sc_scaled, _substream(21, i)).sir for i in range(50)]
        assert a == b

    def test_fading_gains_unit_mean(self):
        gains = _substream(8, 0).standard_exponential(1_000_000)
        assert abs(gains.mean() - 1.0) < 0.01


class TestEstimateStp:
    def test_threshold_to_zero_gives_one(self, make_band):
        band = make_band(sir_threshold_d2d=1e-12)
        est = estimate_stp(scenario(band, trials=2000), "d2d")
        assert est.p_hat == 1.0

    def test_determinism(self, band1):
        sc = scenario(band1, trials=20_000, workers=3)
        first = estimate_stp(sc, "d2d")
        second = estimate_stp(sc, "d2d")
        assert first.p_hat == second.p_hat
        assert first.std_err == second.std_err

    def test_worker_partition_consistency(self, band1):
        sc1 = scenario(band1, trials=50_000, workers=1)
        sc4 = scenario(band1, trials=50_000, workers=4)
        e1 = estimate_stp(sc1, "d2d")
        e4 = estimate_stp(sc4, "d2d")
        joint = math.hypot(e1.std_err, e4.std_err)
        assert abs(e1.p_hat - e4.p_hat) <= 3.3 * joint

    def test_window_invariant(self, band1):
        with pytest.raises(ValueError, match="window too small for edge-effect control"):
            estimate_stp(scenario(band1, window_radius_m=400.0), "d2d")

    def test_minimum_trials(self, band1):
        with pytest.raises(ValueError):
            estimate_stp(scenario(band1, trials=50), "d2d")

    def test_stderr_and_z_fields(self, band1):
        est = estimate_stp(scenario(band1, trials=10_000), "cell")
        assert est.std_err == pytest.approx(
            math.sqrt(est.p_hat * (1 - est.p_hat) / est.trials)
        )
        assert est.z_score == pytest.approx((est.p_hat - est.analytic) / est.std_err)
        record = est.to_record()
        assert record["which"] == "cell"
        assert record["rng"] == "pcg64"

    def test_zero_density_record(self, make_band):
        band = make_band(density_d2d=0.0, density_cell=0.0)
        est = estimate_stp(scenario(band, trials=1000), "d2d")
        assert est.p_hat == 1.0 and est.analytic == 1.0
        assert math.isnan(est.z_score)
        assert est.to_record()["z_score"] is None

    def test_window_doubling_truncation_bias(self, band1):
        sc1 = scenario(band1, trials=20_000)
        sc2 = scenario(band1, trials=20_000, window_radius_m=4000.0)
        e1 = estimate_stp(sc1, "cell")
        e2 = estimate_stp(sc2, "cell")
        joint = math.hypot(e1.std_err, e2.std_err)
        assert abs(e1.p_hat - e2.p_hat) <= 3 * joint


class TestOracleEquivalence:
    def test_band1_both_links(self, band1):
        sc = scenario(band1)
        for which, analytic in (
            ("d2d", stp_d2d(band1, 0.3, 0.02)),
            ("cell", stp_cell(band1, 0.3, 0.02)),
        ):
            est = estimate_stp(sc, which)
            assert est.analytic == analytic
            assert abs(est.p_hat - est.analytic) <= max(0.005, 3.3 * est.std_err)

    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("ratio", [5.0, 15.0, 45.0])
    def test_density_ratio_grid(self, make_band, scale, ratio):
        band = make_band(density_d2d=scale * 1e-4, density_cell=scale * 1.5e-5)
        sc = scenario(band, p_cell_w=ratio * 0.02, p_d2d_w=0.02,
                      window_radius_m=1000.0, seed=31)
        for which in ("d2d", "cell"):
            est = estimate_stp(sc, which)
            assert abs(est.p_hat - est.analytic) <= max(0.005, 3.3 * est.std_err), (
                f"{which} scale={scale} ratio={ratio}: "
                f"p_hat={est.p_hat:.5f} analytic={est.analytic:.5f}"
            )


def fresh_interference_block(n, density, weight, alpha, window_radius_m, rng):
    """The interference block as computed with fresh arrays, before buffer reuse."""
    counts = rng.poisson(density * math.pi * window_radius_m**2, n)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(n), counts
    u = rng.random(total)
    gains = rng.standard_exponential(total)
    with np.errstate(divide="ignore"):
        contrib = gains * u ** (-alpha / 2.0)
    ends = np.cumsum(counts)
    starts = np.minimum(ends - counts, total - 1)
    agg = np.add.reduceat(contrib, starts)
    agg[counts == 0] = 0.0
    return (weight * window_radius_m ** (-alpha)) * agg, counts


class TestChunkPool:
    @pytest.mark.parametrize("workers", [1, 2, 10**4])
    def test_pool_size_bounded(self, workers):
        # computed only: nothing is launched
        cpus = _usable_cpus()
        for trials in (100, 100_000):
            chunks = min(trials, workers)  # non-empty chunks
            assert 1 <= _pool_size(trials, workers) == min(cpus, chunks)

    def test_pool_size_with_fewer_trials_than_workers(self, monkeypatch):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 64)
        assert _pool_size(3, 10) == 3
        assert _pool_size(100, 10**4) == 64
        assert _pool_size(10**6, 10**4) == 64
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 1)
        assert _pool_size(3, 10) == 1
        assert _pool_size(10**6, 10**4) == 1

    def test_pooled_estimate_equals_in_process_chunks(self, band1, monkeypatch):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
        sc = scenario(band1, trials=20_001, workers=2)
        est = estimate_stp(sc, "cell")
        threshold = band1.sir_threshold_cell
        successes = (_chunk_successes(sc, "cell", threshold, 0, 10_001)
                     + _chunk_successes(sc, "cell", threshold, 1, 10_000))
        assert est.p_hat == successes / sc.trials
        assert est.std_err == math.sqrt(est.p_hat * (1.0 - est.p_hat) / sc.trials)

    def test_no_process_outlives_estimate(self, band1, monkeypatch):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
        estimate_stp(scenario(band1, trials=3000, workers=3), "d2d")
        assert multiprocessing.active_children() == []

    def test_buffered_block_matches_fresh_arrays(self):
        # (n, density, weight, alpha, window): the third block outgrows the
        # buffers, the fourth has no interferers
        blocks = [
            (400, 1e-4, 1.0, 4.0, 500.0),
            (300, 1.5e-5, 15.0, 4.0, 500.0),
            (1500, 1e-4, 1.0, 4.0, 500.0),
            (200, 0.0, 2.0, 4.0, 500.0),
            (700, 3e-5, 0.1, 3.0, 800.0),
        ]
        rng_fresh, rng_buffered = _substream(41, 0), _substream(41, 0)
        buffers = _Buffers()
        sizes = []
        for n, density, weight, alpha, window in blocks:
            want_itf, want_counts = fresh_interference_block(
                n, density, weight, alpha, window, rng_fresh)
            got_itf, got_counts = _interference_block(
                n, density, weight, alpha, window, rng_buffered, buffers)
            assert np.array_equal(got_itf.view(np.uint64), want_itf.view(np.uint64))
            assert np.array_equal(got_counts, want_counts)
            sizes.append(buffers.uniform.size)
        assert sizes[2] > sizes[1]  # grown on demand
        assert sizes[3] == sizes[2]  # an empty block draws nothing
        assert rng_buffered.bit_generator.state == rng_fresh.bit_generator.state

    def test_debug_line_per_estimate(self, band1, caplog, capsys):
        with caplog.at_level(logging.DEBUG, logger="d2dee"):
            estimate_stp(scenario(band1, trials=1000, workers=3), "d2d")
        lines = [r.getMessage() for r in caplog.records if r.name == "d2dee"]
        assert len(lines) == 1
        assert lines[0].startswith("estimate_stp d2d: 1000 trials, 3 chunks, ")
        assert f"pool {_pool_size(1000, 3)}, " in lines[0]
        assert lines[0].endswith(" s")
        assert capsys.readouterr().out == ""
