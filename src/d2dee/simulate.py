"""Monte Carlo oracle for the closed-form success probabilities.

Interferers of each class are sampled as a homogeneous Poisson field on a
finite disc centered on the typical receiver, fading gains are unit-mean
exponential, and each trial realizes the SIR of the intended link against
the aggregate interference.  The estimator is deliberately independent of
the closed forms it validates: it only shares the physical model (path
loss, Rayleigh fading, PPP geometry).

Determinism contract: trials are partitioned into ``workers`` contiguous
chunks, each driven by an independent splittable substream keyed by
(seed, chunk index) through numpy's SeedSequence.  Identical (scenario,
seed, workers) reproduce the estimate bit for bit; changing ``workers``
only repartitions the trials.  The generator behind the substreams is
recorded in every estimate record.

The chunks run on min(non-empty chunks, usable CPUs) processes: in this
process when that is one, otherwise on a process pool that lives only for
the call.  A chunk's successes depend on its substream alone, so the pool
size never changes a bit of the estimate.

A chunk runs in blocks of _BLOCK trials; _sir_block fixes the order of a
block's fields and _interference_block the draw order and tiling within
each, on which every bit of an estimate rests.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .model import BandParams, stp_cell, stp_d2d

__all__ = [
    "SimScenario",
    "StpEstimate",
    "RNG_NAME",
    "estimate_stp",
]

RNG_NAME = "pcg64"

# Trials simulated per vectorized block; fixed so results are reproducible.
_BLOCK = 8192
# Interferers drawn and reduced at a time within a block: 2**15 floats per
# draw array, so a tile's two arrays stay within a typical L2 cache.  The
# tiling never changes a bit of the result.
_TILE = 1 << 15


@dataclass
class SimScenario:
    """One Monte Carlo configuration for a single band."""

    band: BandParams
    p_cell_w: float
    p_d2d_w: float
    window_radius_m: float = 2000.0
    trials: int = 100_000
    seed: int = 1
    workers: int = 1

    def __post_init__(self):
        if self.p_cell_w <= 0 or self.p_d2d_w <= 0:
            raise ValueError("transmit powers must be strictly positive")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass
class StpEstimate:
    """Empirical STP with its binomial standard error and analytic anchor."""

    p_hat: float
    std_err: float
    trials: int
    analytic: float
    z_score: float  # nan when std_err == 0
    which: str = ""
    seed: int = 0
    workers: int = 1
    window_radius_m: float = 0.0

    def to_record(self) -> dict:
        z = None if math.isnan(self.z_score) else self.z_score
        return {
            "which": self.which,
            "p_hat": self.p_hat,
            "std_err": self.std_err,
            "analytic": self.analytic,
            "z_score": z,
            "trials": self.trials,
            "seed": self.seed,
            "workers": self.workers,
            "window_radius_m": self.window_radius_m,
            "rng": RNG_NAME,
        }


def _substream(seed: int, chunk: int) -> np.random.Generator:
    """Independent stream for one (seed, chunk) pair."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, chunk])))


def _interference_block(
    n: int,
    density: float,
    weight: float,
    alpha: float,
    window_radius_m: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate weighted interference of one class for a block of trials.

    With radii r = R*sqrt(u) for u uniform on (0,1), the path-loss factor is
    r^(-alpha) = R^(-alpha) * u^(-alpha/2), so the uniform draw is used
    directly.

    Draw order: ``rng`` yields the n Poisson counts, then one uniform per
    interferer of the block, then one unit-mean exponential per interferer,
    the block's ``total`` interferers in trial order each time.  The
    interferers are drawn and reduced one tile at a time: whole trials, at
    most _TILE interferers, or one larger trial alone.  ``rng`` draws a
    tile's uniforms; a second PCG64 cursor, ``rng``'s state advanced by
    ``total`` draws, yields its exponentials, and ``rng`` takes the
    cursor's state after the block.  So the draws are those of one pass
    over the whole block, while the two scratch arrays, allocated once per
    call, hold min(total, max(_TILE, largest per-trial count)) floats each,
    whatever the density.  Per-trial sums run over the occupied trials'
    segments, which never cross a tile, so each sum is the same bits as
    over the whole block; trials without interferers read exactly zero.
    """
    counts = rng.poisson(density * math.pi * window_radius_m**2, n)
    agg = np.zeros(n)
    occupied = np.flatnonzero(counts)
    if occupied.size == 0:
        return agg, counts
    occupied_counts = counts[occupied]
    ends = np.cumsum(occupied_counts)
    starts = ends - occupied_counts
    total = int(ends[-1])
    state = rng.bit_generator.state
    expo_bits = np.random.PCG64()
    expo_bits.state = state
    expo_bits.advance(total)
    expo_rng = np.random.Generator(expo_bits)
    width = min(total, max(_TILE, int(occupied_counts.max())))
    u_scratch, contrib_scratch = np.empty(width), np.empty(width)
    first = 0
    with np.errstate(divide="ignore"):
        while first < occupied.size:
            base = int(starts[first])
            last = max(int(np.searchsorted(ends, base + _TILE, side="right")), first + 1)
            size = int(ends[last - 1]) - base
            u, contrib = u_scratch[:size], contrib_scratch[:size]
            rng.random(out=u)
            expo_rng.standard_exponential(out=contrib)
            np.power(u, -alpha / 2.0, out=u)
            np.multiply(contrib, u, out=contrib)
            agg[occupied[first:last]] = np.add.reduceat(contrib, starts[first:last] - base)
            first = last
    # advance() clears the buffered 32-bit half, which the draws above never touch
    state["state"] = expo_bits.state["state"]
    rng.bit_generator.state = state
    return (weight * window_radius_m ** (-alpha)) * agg, counts


def _sir_block(
    scenario: SimScenario, which: str, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Signal and interference powers for n trials of one link class.

    Draw order is fixed (signal fading, same-class field, cross-class
    field) so a given stream always yields the same trials.
    """
    band = scenario.band
    alpha = band.pathloss_exponent
    if which == "d2d":
        link = band.d2d_link_distance_m
        dens_same, dens_cross = band.density_d2d, band.density_cell
        cross_weight = scenario.p_cell_w / scenario.p_d2d_w
    else:  # "cell"; estimate_stp has rejected any other class
        link = band.cell_link_distance_m
        dens_same, dens_cross = band.density_cell, band.density_d2d
        cross_weight = scenario.p_d2d_w / scenario.p_cell_w
    signal = rng.standard_exponential(n) * link ** (-alpha)
    window = scenario.window_radius_m
    itf_same, counts_same = _interference_block(n, dens_same, 1.0, alpha, window, rng)
    itf_cross, counts_cross = _interference_block(n, dens_cross, cross_weight, alpha, window, rng)
    return signal, itf_same + itf_cross, counts_same, counts_cross


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_size(trials: int, workers: int) -> int:
    """Processes for one estimate: one per non-empty chunk, at most one per usable CPU."""
    return min(trials, workers, _usable_cpus())


def _chunk_successes(
    scenario: SimScenario, which: str, threshold: float, chunk: int, n_chunk: int
) -> int:
    """Successes among the ``n_chunk`` trials of one chunk, on its own substream."""
    rng = _substream(scenario.seed, chunk)
    successes = 0
    done = 0
    while done < n_chunk:
        n = min(_BLOCK, n_chunk - done)
        signal, itf, _, _ = _sir_block(scenario, which, n, rng)
        successes += int(np.count_nonzero((itf == 0.0) | (signal >= threshold * itf)))
        done += n
    return successes


def estimate_stp(scenario: SimScenario, which: str) -> StpEstimate:
    """Estimate P(SIR >= T) over ``scenario.trials`` trials.

    Success of a trial is evaluated as signal >= T * interference (with an
    empty interferer field always succeeding), which avoids forming the SIR
    ratio and keeps the comparison well defined.
    """
    band = scenario.band
    max_link = max(band.d2d_link_distance_m, band.cell_link_distance_m)
    if scenario.window_radius_m < 10.0 * max_link:
        raise ValueError("window too small for edge-effect control")
    if scenario.trials < 100:
        raise ValueError("at least 100 trials are required for an estimate")
    if which == "d2d":
        threshold = band.sir_threshold_d2d
        analytic = stp_d2d(band, scenario.p_cell_w, scenario.p_d2d_w)
    elif which == "cell":
        threshold = band.sir_threshold_cell
        analytic = stp_cell(band, scenario.p_cell_w, scenario.p_d2d_w)
    else:
        raise ValueError("which must be 'd2d' or 'cell'")

    start = time.perf_counter()
    # Contiguous partition of trial indices over the workers.
    base, extra = divmod(scenario.trials, scenario.workers)
    sizes = [base + (1 if c < extra else 0) for c in range(scenario.workers)]
    chunks = [(c, n) for c, n in enumerate(sizes) if n]
    procs = _pool_size(scenario.trials, scenario.workers)
    if procs == 1:
        successes = sum(_chunk_successes(scenario, which, threshold, c, n) for c, n in chunks)
    else:
        # imported here: an in-process estimate never needs them, and they
        # would add ~24 ms to every start-up
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork spares each worker a fresh import of numpy; the pool forks all
        # of its workers before it starts a thread of its own
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        with ProcessPoolExecutor(procs, multiprocessing.get_context(method)) as pool:
            futures = [
                pool.submit(_chunk_successes, scenario, which, threshold, c, n)
                for c, n in chunks
            ]
            successes = sum(f.result() for f in futures)
    wall_s = time.perf_counter() - start
    # imported here too: at module level it would add ~9 ms to every start-up
    import logging

    logging.getLogger("d2dee").debug(
        "estimate_stp %s: %d trials, %d chunks, pool %d, %.3f s",
        which, scenario.trials, len(chunks), procs, wall_s,
    )

    p_hat = successes / scenario.trials
    std_err = math.sqrt(p_hat * (1.0 - p_hat) / scenario.trials)
    z = (p_hat - analytic) / std_err if std_err > 0 else math.nan
    return StpEstimate(
        p_hat=p_hat,
        std_err=std_err,
        trials=scenario.trials,
        analytic=analytic,
        z_score=z,
        which=which,
        seed=scenario.seed,
        workers=scenario.workers,
        window_radius_m=scenario.window_radius_m,
    )
