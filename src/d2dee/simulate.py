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
    "SirSample",
    "StpEstimate",
    "RNG_NAME",
    "sample_interferer_distances",
    "realize_sir_d2d",
    "realize_sir_cell",
    "estimate_stp",
]

RNG_NAME = "pcg64"

# Trials simulated per vectorized block; fixed so results are reproducible.
_BLOCK = 8192


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
class SirSample:
    """SIR of one trial plus the interferer counts that produced it.

    ``sir`` is float('inf') only when both counts are zero (empty
    interferer field); indicator logic must branch on the counts, never
    do arithmetic on the infinity.
    """

    sir: float
    n_interferers_d2d: int
    n_interferers_cell: int

    @property
    def no_interference(self) -> bool:
        return self.n_interferers_d2d == 0 and self.n_interferers_cell == 0


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


def sample_interferer_distances(
    density: float, window_radius_m: float, rng: np.random.Generator
) -> np.ndarray:
    """Radii of one Poisson draw of interferers on a disc around the origin.

    N ~ Poisson(density * pi * R^2); by radial symmetry uniform points on
    the disc have radii R*sqrt(U) with U uniform on (0,1).
    """
    if density < 0:
        raise ValueError("density must be nonnegative")
    n = rng.poisson(density * math.pi * window_radius_m**2)
    return window_radius_m * np.sqrt(rng.random(n))


def sir_value(signal_power: float, interference_power: float) -> float:
    """SIR of one trial; +inf sentinel when the interference is exactly zero."""
    if interference_power == 0.0:
        return math.inf
    return signal_power / interference_power


class _Buffers:
    """Uniform and exponential draw buffers of one chunk, grown on demand."""

    def __init__(self):
        self.uniform = self.expo = np.empty(0)

    def views(self, total: int) -> tuple[np.ndarray, np.ndarray]:
        if total > self.uniform.size:
            # an eighth of headroom, which later blocks' Poisson totals
            # rarely exceed; pages beyond a block's total are never touched
            size = max(total, self.uniform.size * 9 // 8)
            self.uniform, self.expo = np.empty(size), np.empty(size)
        return self.uniform[:total], self.expo[:total]


def _interference_block(
    n: int,
    density: float,
    weight: float,
    alpha: float,
    window_radius_m: float,
    rng: np.random.Generator,
    buffers: _Buffers,
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate weighted interference of one class for a block of trials.

    With radii r = R*sqrt(u) for u uniform on (0,1), the path-loss factor is
    r^(-alpha) = R^(-alpha) * u^(-alpha/2), so the uniform draw is used
    directly.  Per-trial sums run over contiguous segments; empty segments
    (zero interferers) are patched to exactly zero.  The draws fill
    ``buffers`` in place, in the same order and with the same float
    operations as fresh arrays would, so the result is the same bits.
    """
    counts = rng.poisson(density * math.pi * window_radius_m**2, n)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(n), counts
    u, contrib = buffers.views(total)
    rng.random(out=u)
    rng.standard_exponential(out=contrib)
    with np.errstate(divide="ignore"):
        np.power(u, -alpha / 2.0, out=u)
    np.multiply(contrib, u, out=contrib)
    ends = np.cumsum(counts)
    starts = np.minimum(ends - counts, total - 1)
    agg = np.add.reduceat(contrib, starts)
    agg[counts == 0] = 0.0
    return (weight * window_radius_m ** (-alpha)) * agg, counts


def _sir_block(
    scenario: SimScenario, which: str, n: int, rng: np.random.Generator, buffers: _Buffers
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
    elif which == "cell":
        link = band.cell_link_distance_m
        dens_same, dens_cross = band.density_cell, band.density_d2d
        cross_weight = scenario.p_d2d_w / scenario.p_cell_w
    else:
        raise ValueError("which must be 'd2d' or 'cell'")
    signal = rng.standard_exponential(n) * link ** (-alpha)
    itf_same, counts_same = _interference_block(
        n, dens_same, 1.0, alpha, scenario.window_radius_m, rng, buffers
    )
    itf_cross, counts_cross = _interference_block(
        n, dens_cross, cross_weight, alpha, scenario.window_radius_m, rng, buffers
    )
    return signal, itf_same + itf_cross, counts_same, counts_cross


def _realize_one(scenario: SimScenario, which: str, rng: np.random.Generator) -> SirSample:
    signal, itf, counts_same, counts_cross = _sir_block(scenario, which, 1, rng, _Buffers())
    if which == "d2d":
        n_d, n_c = int(counts_same[0]), int(counts_cross[0])
    else:
        n_d, n_c = int(counts_cross[0]), int(counts_same[0])
    return SirSample(sir_value(float(signal[0]), float(itf[0])), n_d, n_c)


def realize_sir_d2d(scenario: SimScenario, rng: np.random.Generator) -> SirSample:
    """One SIR realization at the typical D2D receiver.

    Signal: unit-mean exponential gain over the intended link.  Interference:
    same-class D2D field at weight 1 plus the cellular field at weight
    Pc/Pd (per-symbol powers normalized by the D2D transmit power).
    """
    return _realize_one(scenario, "d2d", rng)


def realize_sir_cell(scenario: SimScenario, rng: np.random.Generator) -> SirSample:
    """One SIR realization at the typical base station (roles swapped)."""
    return _realize_one(scenario, "cell", rng)


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
    buffers = _Buffers()
    successes = 0
    done = 0
    while done < n_chunk:
        n = min(_BLOCK, n_chunk - done)
        signal, itf, _, _ = _sir_block(scenario, which, n, rng, buffers)
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
