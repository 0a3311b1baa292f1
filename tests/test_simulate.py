import logging
import math
import multiprocessing
import tracemalloc

import numpy as np
import pytest
from scipy.special import erf
from scipy.stats import kstest

from d2dee import SimScenario, estimate_links, stp_cell, stp_d2d
from d2dee import simulate
from d2dee.simulate import (
    _chunk_successes,
    _chunks,
    _interference_block,
    _pool_size,
    _streams,
    _usable_cpus,
)


def scenario(band, **overrides):
    params = dict(band=band, p_cell_w=0.3, p_d2d_w=0.02, window_radius_m=2000.0,
                  trials=100_000, seed=7, workers=1)
    params.update(overrides)
    return SimScenario(**params)


def reference_chunk(sc, chunk, n_chunk):
    """Both links' signal and interference and both fields' counts over one
    chunk's trials: each block drawn from the chunk's streams in the
    documented order, each link's interference with its weights written out."""
    band = sc.band
    alpha, window = band.pathloss_exponent, sc.window_radius_m
    scale = window ** (-alpha)
    rng, cell_rng = _streams(sc.seed, chunk)
    blocks = []
    for first in range(0, n_chunk, simulate._BLOCK):
        n = min(simulate._BLOCK, n_chunk - first)
        signal_d2d = rng.standard_exponential(n) * band.d2d_link_distance_m ** (-alpha)
        agg_d2d, counts_d2d = _interference_block(n, band.density_d2d, alpha, window, rng)
        agg_cell, counts_cell = _interference_block(n, band.density_cell, alpha, window, rng)
        signal_cell = cell_rng.standard_exponential(n) * band.cell_link_distance_m ** (-alpha)
        itf_d2d = scale * agg_d2d + (sc.p_cell_w / sc.p_d2d_w * scale) * agg_cell
        itf_cell = scale * agg_cell + (sc.p_d2d_w / sc.p_cell_w * scale) * agg_d2d
        blocks.append((signal_d2d, itf_d2d, signal_cell, itf_cell, counts_d2d, counts_cell))
    return tuple(np.concatenate(column) for column in zip(*blocks))


def successes(signal, itf, threshold):
    """Trials with signal >= T * interference, an empty field always succeeding."""
    return int(np.count_nonzero((itf == 0.0) | (signal >= threshold * itf)))


def boundary_thresholds(signal, itf, picks):
    """Each picked trial's own SIR: a threshold that puts it on the edge of
    the success rule, where a weight one ulp off can flip it."""
    return [float(signal[k] / itf[k]) for k in picks]


class TestSampling:
    def test_zero_density_always_empty(self):
        agg, counts = _interference_block(200, 0.0, 4.0, 2000.0, _streams(1, 0)[0])
        assert not counts.any()
        assert np.array_equal(agg, np.zeros(200))

    def test_poisson_mean(self, band1):
        # both fields of each block: the D2D field at the D2D density, the
        # cellular field at the cellular density; the chunk counts them all
        n, window = 10_000, 500.0
        sc = scenario(band1, window_radius_m=window, seed=2)
        *_, counts_d2d, counts_cell = reference_chunk(sc, 0, n)
        for counts, density in ((counts_d2d, band1.density_d2d), (counts_cell, band1.density_cell)):
            expected = density * math.pi * window**2
            assert abs(counts.mean() - expected) < 3 * math.sqrt(expected / n)
        assert _chunk_successes(sc, 0, n)[2] == int(counts_d2d.sum() + counts_cell.sum())

    def test_radii_squared_uniform(self):
        # a trial with one interferer sums t = g * (r/R)^(-alpha) with unit
        # exponential g; r^2 uniform on (0, R^2) makes t = g * u^(-2) at alpha = 4,
        # so P(t <= x) = 1 - sqrt(pi) * erf(sqrt(x)) / (2 sqrt(x)).  KS at the 1% level
        window = 1000.0
        agg, counts = _interference_block(
            30_000, 1.0 / (math.pi * window**2), 4.0, window, _streams(3, 0)[0])
        t = agg[counts == 1]
        assert t.size > 10_000
        cdf = lambda x: 1.0 - math.sqrt(math.pi) * erf(np.sqrt(x)) / (2.0 * np.sqrt(x))
        _, p_value = kstest(t, cdf)
        assert p_value > 0.01

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            _interference_block(10, -1.0, 4.0, 2000.0, _streams(1, 0)[0])


class TestSirRealization:
    def test_empty_field_sentinel(self, make_band):
        # an empty field is exactly zero interference, which the success rule
        # counts as a success whatever the signal and the threshold
        band = make_band(density_d2d=0.0, density_cell=0.0,
                         sir_threshold_d2d=1e300, sir_threshold_cell=1e300)
        sc = scenario(band, seed=1)
        signal_d2d, itf_d2d, signal_cell, itf_cell, counts_d2d, counts_cell = (
            reference_chunk(sc, 0, 100))
        assert not counts_d2d.any() and not counts_cell.any()
        for signal, itf in ((signal_d2d, itf_d2d), (signal_cell, itf_cell)):
            assert np.array_equal(itf, np.zeros(100))
            assert (signal > 0).all()
        assert _chunk_successes(sc, 0, 100) == (100, 100, 0)

    def test_counts_reported(self, band1):
        sc = scenario(band1, seed=4)
        signal_d2d, itf_d2d, signal_cell, itf_cell, counts_d2d, counts_cell = (
            reference_chunk(sc, 0, 16))
        assert (counts_d2d > 0).all()
        assert (counts_cell >= 0).all()
        for signal, itf in ((signal_d2d, itf_d2d), (signal_cell, itf_cell)):
            assert np.isfinite(signal).all() and np.isfinite(itf).all() and (itf > 0).all()
        assert _chunk_successes(sc, 0, 16)[2] == int(counts_d2d.sum() + counts_cell.sum())

    def test_role_swap_matches_distribution(self, make_band):
        # the cellular link of a band with swapped densities, link distances and
        # powers is the D2D link of the original: the two estimates agree in law
        band_a = make_band(d2d_link_distance_m=10.0, cell_link_distance_m=50.0,
                           density_d2d=1e-4, density_cell=1.5e-5)
        band_b = make_band(cell_link_distance_m=10.0, d2d_link_distance_m=50.0,
                           density_cell=1e-4, density_d2d=1.5e-5)
        sc_a = scenario(band_a, window_radius_m=500.0, trials=4000, seed=11)
        sc_b = scenario(band_b, p_cell_w=0.02, p_d2d_w=0.3, window_radius_m=500.0,
                        trials=4000, seed=11)
        est_a, _ = estimate_links(sc_a)
        _, est_b = estimate_links(sc_b)
        assert est_a.analytic == pytest.approx(est_b.analytic, rel=1e-12)
        assert abs(est_a.p_hat - est_b.p_hat) <= 3.3 * math.hypot(est_a.std_err, est_b.std_err)

    def test_cell_interference_from_d2d_field_sums(self, make_band):
        # per trial, both links weight the same two field sums, which the main
        # stream draws after the D2D signal fading; the cellular signal fading
        # comes from the chunk's second stream.  At thresholds on trials' own
        # SIRs the chunk's counts are the reference's, trial for trial
        n, window = 3000, 500.0
        signal_d2d, itf_d2d, signal_cell, itf_cell, _, _ = reference_chunk(
            scenario(make_band(), window_radius_m=window, seed=12), 0, n)
        np.testing.assert_allclose(itf_cell, 0.02 / 0.3 * itf_d2d, rtol=1e-12, atol=0.0)
        picks = range(0, n, 97)
        for t_d, t_c in zip(boundary_thresholds(signal_d2d, itf_d2d, picks),
                            boundary_thresholds(signal_cell, itf_cell, picks)):
            sc = scenario(make_band(sir_threshold_d2d=t_d, sir_threshold_cell=t_c),
                          window_radius_m=window, seed=12)
            assert _chunk_successes(sc, 0, n)[:2] == (
                successes(signal_d2d, itf_d2d, t_d), successes(signal_cell, itf_cell, t_c))

    def test_ratio_invariance_per_trial(self, make_band):
        # identical draws, both powers scaled: every trial's signal and
        # interference, hence its SIR, is unchanged, so at a threshold on
        # each trial's own SIR both scenarios count as the reference does
        signal_d2d, itf_d2d, signal_cell, itf_cell, _, _ = reference_chunk(
            scenario(make_band(), seed=21), 0, 50)
        for t_d, t_c in zip(boundary_thresholds(signal_d2d, itf_d2d, range(50)),
                            boundary_thresholds(signal_cell, itf_cell, range(50))):
            band = make_band(sir_threshold_d2d=t_d, sir_threshold_cell=t_c)
            want = (successes(signal_d2d, itf_d2d, t_d), successes(signal_cell, itf_cell, t_c))
            for powers in ({}, {"p_cell_w": 4 * 0.3, "p_d2d_w": 4 * 0.02}):
                assert _chunk_successes(scenario(band, seed=21, **powers), 0, 50)[:2] == want

    def test_fading_gains_unit_mean(self):
        gains = _streams(8, 0)[0].standard_exponential(1_000_000)
        assert abs(gains.mean() - 1.0) < 0.01


class TestEstimateStp:
    def test_threshold_to_zero_gives_one(self, make_band):
        band = make_band(sir_threshold_d2d=1e-12)
        est, _ = estimate_links(scenario(band, trials=2000))
        assert est.p_hat == 1.0

    def test_determinism(self, band1):
        sc = scenario(band1, trials=20_000, workers=3)
        first, _ = estimate_links(sc)
        second, _ = estimate_links(sc)
        assert first.p_hat == second.p_hat
        assert first.std_err == second.std_err

    def test_worker_partition_consistency(self, band1):
        sc1 = scenario(band1, trials=50_000, workers=1)
        sc4 = scenario(band1, trials=50_000, workers=4)
        e1, _ = estimate_links(sc1)
        e4, _ = estimate_links(sc4)
        joint = math.hypot(e1.std_err, e4.std_err)
        assert abs(e1.p_hat - e4.p_hat) <= 3.3 * joint

    def test_stderr_and_z_fields(self, band1):
        _, est = estimate_links(scenario(band1, trials=10_000))
        assert est.std_err == pytest.approx(
            math.sqrt(est.p_hat * (1 - est.p_hat) / est.trials)
        )
        assert est.z_score == pytest.approx((est.p_hat - est.analytic) / est.std_err)
        record = est.to_record()
        assert record["which"] == "cell"
        assert record["rng"] == "pcg64"

    def test_zero_density_record(self, make_band):
        band = make_band(density_d2d=0.0, density_cell=0.0)
        est, _ = estimate_links(scenario(band, trials=1000))
        assert est.p_hat == 1.0 and est.analytic == 1.0
        assert math.isnan(est.z_score)
        assert est.to_record()["z_score"] is None

    def test_window_doubling_truncation_bias(self, band1):
        sc1 = scenario(band1, trials=20_000)
        sc2 = scenario(band1, trials=20_000, window_radius_m=4000.0)
        _, e1 = estimate_links(sc1)
        _, e2 = estimate_links(sc2)
        joint = math.hypot(e1.std_err, e2.std_err)
        assert abs(e1.p_hat - e2.p_hat) <= 3 * joint


class TestEstimateLinks:
    # (band overrides, window): band 1, an alpha = 3 band and a band with no
    # D2D field
    BANDS = {
        "band1": ({}, 2000.0),
        "alpha3": ({"pathloss_exponent": 3.0}, 800.0),
        "no_d2d": ({"density_d2d": 0.0}, 2000.0),
    }
    # D2D (p_hat, std_err) at 30,001 trials, seed 7, as recorded before the two
    # links shared their fields; the D2D draws must not have moved a bit
    D2D_BITS = {
        ("band1", 1): ("0x1.daea55a79d5bap-1", "0x1.884a3a6413e4bp-10"),
        ("band1", 2): ("0x1.da9bb1aaa706ap-1", "0x1.89c8b0cf8cfc8p-10"),
        ("band1", 3): ("0x1.da8e9655d34ddp-1", "0x1.8a083dc9f6b85p-10"),
        ("alpha3", 1): ("0x1.ba74a593459aap-1", "0x1.0342ec655dc03p-9"),
        ("alpha3", 2): ("0x1.bc553a6443694p-1", "0x1.0047bb4c4c9eep-9"),
        ("alpha3", 3): ("0x1.bbf51ca0dd732p-1", "0x1.00e1b13ca4448p-9"),
        ("no_d2d", 1): ("0x1.f20e976d6fb4cp-1", "0x1.eca9ac4adc7bfp-11"),
        ("no_d2d", 2): ("0x1.f228ce1717267p-1", "0x1.eae69ef8ad0a0p-11"),
        ("no_d2d", 3): ("0x1.f29a65a0ecbdbp-1", "0x1.e32ed0732e505p-11"),
    }
    # cellular (p_hat, std_err) of the same passes, as recorded while each
    # interferer contributed g * u^(-alpha/2); g / u^(alpha/2) must keep them
    CELL_BITS = {
        ("band1", 1): ("0x1.38c995b1fda97p-1", "0x1.70f0809d0ebbfp-9"),
        ("band1", 2): ("0x1.37a07f8493f69p-1", "0x1.71535212efb7dp-9"),
        ("band1", 3): ("0x1.364bb8e71330ep-1", "0x1.71c2092736ad7p-9"),
        ("alpha3", 1): ("0x1.1f68ffc96373ep-1", "0x1.7781d4acbc0b5p-9"),
        ("alpha3", 2): ("0x1.20ff4f0f06d5cp-1", "0x1.7735aea92acb4p-9"),
        ("alpha3", 3): ("0x1.1fe7b2a80cc3fp-1", "0x1.776a7e9f64a7fp-9"),
        ("no_d2d", 1): ("0x1.a94de19236bb2p-1", "0x1.1bce3a003efa0p-9"),
        ("no_d2d", 2): ("0x1.a8d38d2529535p-1", "0x1.1c6d3d8caf3f7p-9"),
        ("no_d2d", 3): ("0x1.a963b9ca42448p-1", "0x1.1bb1bf4a9d0ecp-9"),
    }
    # (name, workers) -> both links' estimates, so each pinned pass runs once
    _pinned = {}

    def pinned_links(self, make_band, name, workers):
        if (name, workers) not in self._pinned:
            overrides, window = self.BANDS[name]
            sc = scenario(make_band(**overrides), window_radius_m=window, trials=30_001,
                          workers=workers)
            self._pinned[name, workers] = estimate_links(sc)
        return self._pinned[name, workers]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(BANDS))
    def test_d2d_bits_unchanged(self, make_band, name, workers):
        est, _ = self.pinned_links(make_band, name, workers)
        assert (est.p_hat.hex(), est.std_err.hex()) == self.D2D_BITS[name, workers]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(BANDS))
    def test_cell_bits_unchanged(self, make_band, name, workers):
        _, est = self.pinned_links(make_band, name, workers)
        assert (est.p_hat.hex(), est.std_err.hex()) == self.CELL_BITS[name, workers]

    def test_scenario_checks(self, band1):
        with pytest.raises(ValueError, match="window too small for edge-effect control"):
            estimate_links(scenario(band1, window_radius_m=400.0))
        with pytest.raises(ValueError, match="at least 100 trials"):
            estimate_links(scenario(band1, trials=50))

    @pytest.mark.parametrize("power", ["p_cell_w", "p_d2d_w"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_power_rejected(self, band1, power, value):
        # a nan power once gave p_hat = 0 against a nan closed form, and an
        # infinite D2D power a cellular estimate of 0
        with pytest.raises(ValueError, match="transmit powers must be finite"):
            scenario(band1, **{power: value})

    @pytest.mark.parametrize("field, value, message", [
        ("trials", 1000.0, "trials must be an integer"),
        ("trials", True, "trials must be an integer"),
        ("workers", 2.0, "workers must be an integer"),
        ("seed", 1.5, "seed must be an integer"),
        ("seed", -1, "seed must be nonnegative"),
        ("trials", 0, "trials must be at least 1"),
        ("workers", 0, "workers must be at least 1"),
    ])
    def test_counts_checked_by_name(self, band1, field, value, message):
        # numpy once rejected these itself, with errors that named no field
        with pytest.raises(ValueError, match=f"^{message}$"):
            scenario(band1, **{field: value})

    @pytest.mark.parametrize("power, value", [("p_cell_w", 0.0), ("p_d2d_w", -0.02)])
    def test_nonpositive_power_rejected(self, band1, power, value):
        with pytest.raises(ValueError, match="^transmit powers must be strictly positive$"):
            scenario(band1, **{power: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_window_rejected(self, band1, value):
        sc = scenario(band1, window_radius_m=value, trials=1000)
        with pytest.raises(ValueError, match="window radius must be finite"):
            estimate_links(sc)

    @pytest.mark.parametrize("window", [1e160, 1e200])
    def test_overflowing_window_rejected(self, band1, window):
        # a finite window whose area overflows once escaped as an
        # OverflowError from the kernel's mean-count expression
        with pytest.raises(ValueError, match="not finite at window_radius_m="):
            estimate_links(scenario(band1, window_radius_m=window, trials=100))

    def test_cell_fading_stream_independent(self):
        # a spawned child of the chunk's SeedSequence: its own state, and
        # uncorrelated with the chunk's main stream and every other chunk's
        # streams
        main, cell = (g.bit_generator.seed_seq for g in _streams(5, 1))
        assert list(main.entropy) == [5, 1] and main.spawn_key == ()
        assert list(cell.entropy) == [5, 1] and cell.spawn_key == (0,)
        gens = [g for chunk in range(3) for g in _streams(5, chunk)]
        assert len({repr(g.bit_generator.state["state"]) for g in gens}) == len(gens)
        n = 200_000
        draws = np.array([g.random(n) for g in gens])
        corr = np.corrcoef(draws)
        off_diagonal = corr[~np.eye(len(gens), dtype=bool)]
        assert np.abs(off_diagonal).max() < 4.5 / math.sqrt(n)


class TestOracleEquivalence:
    def test_band1_both_links(self, band1):
        sc = scenario(band1)
        analytic = {"d2d": stp_d2d(band1, 0.3, 0.02), "cell": stp_cell(band1, 0.3, 0.02)}
        for est in estimate_links(sc):
            assert est.analytic == analytic[est.which]
            assert abs(est.p_hat - est.analytic) <= max(0.005, 3.3 * est.std_err)

    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("ratio", [5.0, 15.0, 45.0])
    def test_density_ratio_grid(self, make_band, scale, ratio):
        band = make_band(density_d2d=scale * 1e-4, density_cell=scale * 1.5e-5)
        sc = scenario(band, p_cell_w=ratio * 0.02, p_d2d_w=0.02,
                      window_radius_m=1000.0, seed=31)
        for est in estimate_links(sc):
            assert abs(est.p_hat - est.analytic) <= max(0.005, 3.3 * est.std_err), (
                f"{est.which} scale={scale} ratio={ratio}: "
                f"p_hat={est.p_hat:.5f} analytic={est.analytic:.5f}"
            )


def fresh_interference_block(n, density, alpha, window_radius_m, rng, old_kernel=False):
    """The field sums of a block computed in one pass over fresh whole-block arrays.

    Each contribution is g / u^(alpha/2), as the kernel forms it, or with
    ``old_kernel`` the algebraically equal g * u^(-alpha/2).
    """
    counts = rng.poisson(density * math.pi * window_radius_m**2, n)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(n), counts
    u = rng.random(total)
    gains = rng.standard_exponential(total)
    with np.errstate(divide="ignore"):
        contrib = gains * u ** (-alpha / 2.0) if old_kernel else gains / u ** (alpha / 2.0)
    occupied = counts > 0
    agg = np.zeros(n)
    agg[occupied] = np.add.reduceat(contrib, np.cumsum(counts)[occupied] - counts[occupied])
    return agg, counts


class TestChunkPool:
    @pytest.mark.parametrize("workers", [1, 2, 10**4])
    def test_pool_size_bounded(self, workers):
        # computed only: nothing is launched
        cpus = _usable_cpus()
        for trials in (100, 100_000):
            chunks = min(trials, workers)  # non-empty chunks
            assert 1 <= _pool_size(trials, workers) == min(cpus, chunks)

    def test_usable_cpus_without_affinity(self, monkeypatch):
        # where the platform has no CPU affinity, the CPU count, or 1 unknown
        monkeypatch.delattr(simulate.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 3)
        assert _usable_cpus() == 3
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: None)
        assert _usable_cpus() == 1

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
        _, est = estimate_links(sc)
        successes = _chunk_successes(sc, 0, 10_001)[1] + _chunk_successes(sc, 1, 10_000)[1]
        assert est.p_hat == successes / sc.trials
        assert est.std_err == math.sqrt(est.p_hat * (1.0 - est.p_hat) / sc.trials)

    def test_pooled_links_equal_in_process(self, band1, monkeypatch):
        sc = scenario(band1, trials=9001, workers=3)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
        pooled = estimate_links(sc)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 1)
        assert estimate_links(sc) == pooled

    def test_no_process_outlives_links(self, band1, monkeypatch):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
        estimate_links(scenario(band1, trials=3000, workers=3))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("trials, workers", [(100, 10**12), (100, 7), (30_001, 3), (5, 5)])
    def test_chunks_partition(self, trials, workers):
        # the non-empty chunks of the divmod partition, built without a list
        # as long as ``workers``
        base, extra = divmod(trials, workers)
        want = [(c, base + 1) for c in range(extra)]
        if base:
            want += [(c, base) for c in range(extra, workers)]
        assert _chunks(trials, workers) == want
        assert sum(n for _, n in want) == trials

    def test_buffered_block_matches_fresh_arrays(self):
        # (n, density, alpha, window): the third block spans several tiles,
        # the fourth has no interferers
        blocks = [
            (400, 1e-4, 4.0, 500.0),
            (300, 1.5e-5, 4.0, 500.0),
            (1500, 1e-4, 4.0, 500.0),
            (200, 0.0, 4.0, 500.0),
            (700, 3e-5, 3.0, 800.0),
        ]
        rng_fresh, rng_buffered = _streams(41, 0)[0], _streams(41, 0)[0]
        for n, density, alpha, window in blocks:
            want_agg, want_counts = fresh_interference_block(
                n, density, alpha, window, rng_fresh)
            got_agg, got_counts = _interference_block(
                n, density, alpha, window, rng_buffered)
            assert np.array_equal(got_agg.view(np.uint64), want_agg.view(np.uint64))
            assert np.array_equal(got_counts, want_counts)
        assert rng_buffered.bit_generator.state == rng_fresh.bit_generator.state

    @pytest.mark.parametrize("n, density, alpha, window", [
        (256, 1e-4, 4.0, 2000.0),  # band 1's D2D field
        (256, 1.5e-5, 4.0, 2000.0),  # band 1's cellular field
        (700, 3e-5, 3.0, 800.0),
    ])
    def test_kernel_differs_from_negative_power_by_rounding_only(self, n, density, alpha, window):
        # g / u^(alpha/2) against g * u^(-alpha/2) over the same draws: the
        # counts and the stream agree exactly, the sums to a few ulp
        rng_old, rng_new = _streams(45, 0)[0], _streams(45, 0)[0]
        want_agg, want_counts = fresh_interference_block(
            n, density, alpha, window, rng_old, old_kernel=True)
        got_agg, got_counts = _interference_block(n, density, alpha, window, rng_new)
        assert np.array_equal(got_counts, want_counts) and got_counts.all()
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
        np.testing.assert_allclose(got_agg, want_agg, rtol=1e-14, atol=0.0)

    def test_debug_line_per_pass(self, band1, caplog, capsys):
        with caplog.at_level(logging.DEBUG, logger="d2dee"):
            estimate_links(scenario(band1, trials=1000, workers=3))
        lines = [r.getMessage() for r in caplog.records if r.name == "d2dee"]
        assert len(lines) == 1
        assert lines[0].startswith("estimate_links: 1000 trials, 3 chunks, ")
        assert f"pool {_pool_size(1000, 3)}, " in lines[0]
        assert lines[0].endswith(" s")
        assert capsys.readouterr().out == ""

    def test_debug_line_counts_pass_interferers(self, band1, caplog):
        # both fields of every trial of every chunk, as the chunks draw them
        sc = scenario(band1, trials=1000, workers=3)
        with caplog.at_level(logging.DEBUG, logger="d2dee"):
            estimate_links(sc)
        line, = [r.getMessage() for r in caplog.records if r.name == "d2dee"]
        drawn = 0
        for c, n in _chunks(sc.trials, sc.workers):
            *_, counts_d2d, counts_cell = reference_chunk(sc, c, n)
            drawn += int(counts_d2d.sum() + counts_cell.sum())
        assert drawn > 1000 * 1000
        assert f", pool {_pool_size(1000, 3)}, {drawn} interferers, " in line


class TestTiles:
    # (n, density, alpha, window): dense (most trials outgrow a 64-interferer
    # tile), sparse (on this stream it ends in empty trials after one with
    # several interferers), empty, and alpha = 3
    BLOCKS = [
        (400, 1e-4, 4.0, 500.0),
        (300, 2e-6, 4.0, 500.0),
        (200, 0.0, 4.0, 500.0),
        (700, 3e-5, 3.0, 800.0),
    ]

    @pytest.mark.parametrize("tile", [1, 7, 64])
    def test_small_tiles_match_one_pass(self, monkeypatch, tile):
        monkeypatch.setattr(simulate, "_TILE", tile)
        rng_fresh, rng_tiled = _streams(44, 0)[0], _streams(44, 0)[0]
        largest, ends_empty = 0, False
        for n, density, alpha, window in self.BLOCKS:
            want_agg, want_counts = fresh_interference_block(
                n, density, alpha, window, rng_fresh)
            got_agg, got_counts = _interference_block(
                n, density, alpha, window, rng_tiled)
            assert np.array_equal(got_agg.view(np.uint64), want_agg.view(np.uint64))
            assert np.array_equal(got_counts, want_counts)
            assert rng_tiled.bit_generator.state == rng_fresh.bit_generator.state
            largest = max(largest, int(got_counts.max()))
            occupied = np.flatnonzero(got_counts)
            if occupied.size and got_counts[-1] == 0 and got_counts[occupied[-1]] > 1:
                ends_empty = True
        assert largest > tile  # some trial formed a tile of its own
        assert ends_empty

    def test_dense_block_buffers_bounded_by_tile(self):
        # the whole call, scratch and per-trial arrays together, peaks below
        # four float pairs per tile slot; whole-block arrays would take 41 MB
        rng = _streams(44, 0)[0]
        tracemalloc.start()
        try:
            _, counts = _interference_block(2048, 1e-4, 4.0, 2000.0, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts.sum() > 10 * simulate._TILE
        assert peak < 4 * 16 * max(simulate._TILE, int(counts.max()))

    def test_block_ending_in_empty_trials_keeps_every_interferer(self):
        # the last occupied trial of a block that ends in empty trials sums
        # all of its interferers, as a per-trial loop over the same draws does
        n, density, alpha, window = 64, 3e-7, 4.0, 2000.0
        agg, counts = _interference_block(n, density, alpha, window, _streams(31, 0)[0])
        rng = _streams(31, 0)[0]
        want_counts = rng.poisson(density * math.pi * window**2, n)
        total = int(want_counts.sum())
        u, gains = rng.random(total), rng.standard_exponential(total)
        want, k = [], 0
        for c in want_counts:
            want.append(sum(gains[k:k + c] / u[k:k + c] ** (alpha / 2.0)))
            k += c
        assert np.array_equal(counts, want_counts)
        last = int(np.flatnonzero(counts)[-1])
        assert last < n - 1 and counts[last] > 1  # the case that lost an interferer
        np.testing.assert_allclose(agg, want, rtol=1e-12, atol=0.0)
