"""Monte Carlo oracle for the closed-form success probabilities.

Interferers of each class are sampled as a homogeneous Poisson field on a
finite disc centered on the typical receiver, fading gains are unit-mean
exponential, and each trial realizes the SIR of both links against the
aggregate interference.  The estimator is deliberately independent of
the closed forms it validates: it only shares the physical model (path
loss, Rayleigh fading, PPP geometry).

``estimate_links`` is the one estimator: it scores both links in one
pass, and a caller that needs one link takes that side of the pair.
Both links share each trial's fields.  The D2D and the cellular receiver
each see a D2D field and a cellular field of the same densities on the
same window, so one realization of the two fields serves both links (common
random numbers); only the weights differ, the cellular receiver's
interference being (Pd/Pc) times the D2D receiver's.  Within a link the
trials stay i.i.d. and each is scored by the exact indicator, so each
link's estimate keeps its exact marginal law and binomial standard error;
only the two links' estimates become correlated.

Determinism contract: trials are partitioned into ``workers`` contiguous
chunks.  Each chunk draws from two independent streams of numpy's
SeedSequence keyed by (seed, chunk index): the main stream, which yields
each block's D2D signal fading, D2D field and cellular field in that
order, and its first spawned child, which yields the cellular signal
fading.  Identical (scenario, seed, workers) reproduce both estimates bit
for bit; changing ``workers`` only repartitions the trials.  The generator
behind the streams is recorded in every estimate record.

The chunks run on min(non-empty chunks, usable CPUs) processes: in this
process when that is one, otherwise on a process pool that lives only for
the call.  A chunk's successes depend on its streams alone, so the pool
size never changes a bit of the estimate.

A chunk runs in blocks of _BLOCK trials; _sir_block fixes the order of a
block's draws and _interference_block the draw order and tiling within
each field, on which every bit of an estimate rests.  Each interferer
contributes g / u^(alpha/2), its fading gain over a power of its uniform
radius draw: at alpha = 4 numpy's power takes its square path (exactly
u*u), so the kernel computes no general pow there.
"""

from __future__ import annotations

import logging
import math
import numbers
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from .model import BandParams, stp_cell, stp_d2d

__all__ = [
    "SimScenario",
    "StpEstimate",
    "RNG_NAME",
    "estimate_links",
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
        if not (math.isfinite(self.p_cell_w) and math.isfinite(self.p_d2d_w)):
            raise ValueError("transmit powers must be finite")
        # integers as config documents take them: a bool does not count
        for name in ("trials", "seed", "workers"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass
class StpEstimate:
    """Empirical STP of one link with its binomial standard error and
    analytic anchor, its fields in the order of its validate record."""

    which: str
    p_hat: float
    std_err: float
    analytic: float
    z_score: float  # nan when std_err == 0
    trials: int
    seed: int
    workers: int
    window_radius_m: float

    def to_record(self) -> dict:
        """The fields, z_score None where it is NaN, then the generator's name."""
        record = asdict(self)
        if math.isnan(self.z_score):
            record["z_score"] = None
        record["rng"] = RNG_NAME
        return record


def _streams(seed: int, chunk: int) -> tuple[np.random.Generator, np.random.Generator]:
    """The main and the cellular signal fading stream of one (seed, chunk)
    pair: the SeedSequence keyed by the pair, and its first spawned child."""
    seq = np.random.SeedSequence([seed, chunk])
    child, = seq.spawn(1)
    return np.random.Generator(np.random.PCG64(seq)), np.random.Generator(np.random.PCG64(child))


def _interference_block(
    n: int,
    density: float,
    alpha: float,
    window_radius_m: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Unweighted field sums of one class for a block of trials.

    With radii r = R*sqrt(u) for u uniform on (0,1), the path-loss factor is
    r^(-alpha) = R^(-alpha) / u^(alpha/2), so the uniform draw is used
    directly: a trial's sum is that of g / u^(alpha/2) over its
    interferers, and a receiver's interference from the field is
    (w * R^(-alpha)) * sum for the field's power weight w.  The positive
    exponent sends alpha = 4 down numpy's square path, exactly u*u; any
    other alpha takes the general pow.

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
            np.power(u, alpha / 2.0, out=u)
            np.divide(contrib, u, out=contrib)
            agg[occupied[first:last]] = np.add.reduceat(contrib, starts[first:last] - base)
            first = last
    # advance() clears the buffered 32-bit half, which the draws above never touch
    state["state"] = expo_bits.state["state"]
    rng.bit_generator.state = state
    return agg, counts


def _sir_block(
    scenario: SimScenario,
    n: int,
    rng: np.random.Generator,
    cell_rng: np.random.Generator,
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray], np.ndarray, np.ndarray]:
    """Signal and interference powers of both links for n trials.

    Returns ``(signal, interference)`` of the D2D link, then of the
    cellular link, then the D2D and the cellular interferer counts.
    ``rng`` draws the D2D signal fading, the D2D field, then the cellular
    field; ``cell_rng`` draws the cellular signal fading.  Both links
    weight the same two field sums.
    """
    band = scenario.band
    alpha = band.pathloss_exponent
    window = scenario.window_radius_m
    signal_d2d = rng.standard_exponential(n) * band.d2d_link_distance_m ** (-alpha)
    agg_d2d, counts_d2d = _interference_block(n, band.density_d2d, alpha, window, rng)
    agg_cell, counts_cell = _interference_block(n, band.density_cell, alpha, window, rng)
    signal_cell = cell_rng.standard_exponential(n) * band.cell_link_distance_m ** (-alpha)
    scale = window ** (-alpha)
    itf_d2d = scale * agg_d2d + (scenario.p_cell_w / scenario.p_d2d_w * scale) * agg_cell
    itf_cell = scale * agg_cell + (scenario.p_d2d_w / scenario.p_cell_w * scale) * agg_d2d
    return (signal_d2d, itf_d2d), (signal_cell, itf_cell), counts_d2d, counts_cell


def _successes(signal: np.ndarray, itf: np.ndarray, threshold: float) -> int:
    """Trials with signal >= T * interference, an empty field always succeeding."""
    return int(np.count_nonzero((itf == 0.0) | (signal >= threshold * itf)))


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_size(trials: int, workers: int) -> int:
    """Processes for one estimate: one per non-empty chunk, at most one per usable CPU."""
    return min(trials, workers, _usable_cpus())


def _chunks(trials: int, workers: int) -> list[tuple[int, int]]:
    """(chunk index, trials) of the non-empty chunks of the contiguous partition.

    The first ``trials mod workers`` chunks take one trial more than the
    rest; only the min(trials, workers) non-empty ones are built.
    """
    base, extra = divmod(trials, workers)
    return [(c, base + (1 if c < extra else 0)) for c in range(min(trials, workers))]


def _chunk_successes(scenario: SimScenario, chunk: int, n_chunk: int) -> tuple[int, int, int]:
    """D2D and cellular successes among the ``n_chunk`` trials of one chunk,
    and the interferers of both fields drawn for them."""
    band = scenario.band
    rng, cell_rng = _streams(scenario.seed, chunk)
    d2d = cell = interferers = 0
    done = 0
    while done < n_chunk:
        n = min(_BLOCK, n_chunk - done)
        (signal_d2d, itf_d2d), (signal_cell, itf_cell), counts_d2d, counts_cell = _sir_block(
            scenario, n, rng, cell_rng)
        d2d += _successes(signal_d2d, itf_d2d, band.sir_threshold_d2d)
        cell += _successes(signal_cell, itf_cell, band.sir_threshold_cell)
        interferers += int(counts_d2d.sum()) + int(counts_cell.sum())
        done += n
    return d2d, cell, interferers


def _check(scenario: SimScenario) -> None:
    """Reject a scenario whose window or trial count cannot carry an estimate."""
    band = scenario.band
    max_link = max(band.d2d_link_distance_m, band.cell_link_distance_m)
    if not math.isfinite(scenario.window_radius_m):
        raise ValueError("window radius must be finite")
    if scenario.window_radius_m < 10.0 * max_link:
        raise ValueError(f"window too small for edge-effect control: "
                         f"window_radius_m={scenario.window_radius_m!r} is below "
                         f"{10.0 * max_link!r} m, 10 times the longest link")
    area = math.pi * scenario.window_radius_m * scenario.window_radius_m
    if not math.isfinite((band.density_d2d + band.density_cell) * area):
        raise ValueError(f"mean interferer count per trial is not finite at "
                         f"window_radius_m={scenario.window_radius_m!r}")
    if scenario.trials < 100:
        raise ValueError(f"at least 100 trials are required for an estimate, "
                         f"got trials={scenario.trials!r}")


def _run(scenario: SimScenario) -> tuple[int, int]:
    """D2D and cellular successes over all trials, in one pass over the chunks.

    Logs one DEBUG line that counts the pass's interferers, both fields
    together.
    """
    start = time.perf_counter()
    chunks = _chunks(scenario.trials, scenario.workers)
    procs = _pool_size(scenario.trials, scenario.workers)
    if procs == 1:
        counts = [_chunk_successes(scenario, c, n) for c, n in chunks]
    else:
        # imported here: an in-process estimate never needs them, and they
        # take ~20 ms to import even once numpy is loaded
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork spares each worker a fresh import of numpy; the pool forks all
        # of its workers before it starts a thread of its own
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        with ProcessPoolExecutor(procs, multiprocessing.get_context(method)) as pool:
            futures = [pool.submit(_chunk_successes, scenario, c, n) for c, n in chunks]
            counts = [f.result() for f in futures]
    wall_s = time.perf_counter() - start
    logging.getLogger("d2dee").debug(
        "estimate_links: %d trials, %d chunks, pool %d, %d interferers, %.3f s",
        scenario.trials, len(chunks), procs, sum(i for _, _, i in counts), wall_s,
    )
    return sum(d for d, _, _ in counts), sum(c for _, c, _ in counts)


def _estimate(scenario: SimScenario, which: str, successes: int, analytic: float) -> StpEstimate:
    """One link's estimate from its successes, with its binomial standard error."""
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


def estimate_links(scenario: SimScenario) -> tuple[StpEstimate, StpEstimate]:
    """Estimate P(SIR >= T) of the D2D and the cellular link in one pass.

    The package's one Monte Carlo estimator: a single link is its side of
    the returned (D2D, cellular) pair.  Each trial's two fields serve both
    links; see the module docstring for why each estimate stays exact.
    Success of a trial is evaluated as signal >= T * interference (with an
    empty interferer field always succeeding), which avoids forming the
    SIR ratio and keeps the comparison well defined.
    """
    _check(scenario)
    band = scenario.band
    d2d, cell = _run(scenario)
    return (
        _estimate(scenario, "d2d", d2d, stp_d2d(band, scenario.p_cell_w, scenario.p_d2d_w)),
        _estimate(scenario, "cell", cell, stp_cell(band, scenario.p_cell_w, scenario.p_d2d_w)),
    )

