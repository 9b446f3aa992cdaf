"""Seeded Monte Carlo for the bank-coverage process.

One bank is covered after a sum of independent geometric waits, one per
stage: with k - 1 alternatives seen, the next new one takes Geom((a-k+1)/a)
tests.  A replication is the maximum of q such stage sums.  Replications are
drawn in blocks whose size depends only on q; block ``b`` consumes its
own counter-based generator keyed by ``(seed, b)``, and workers take
contiguous ranges of whole blocks, so results are bit-identical no matter
how the work is split.  The ranges run on threads, at most one per CPU
available to the process: the draws, sums and maxima are numpy calls that
release the interpreter lock, and no range shares mutable state with another.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .coupon import BankSpec, InvalidSpecError

__all__ = [
    "GENERATOR_ID",
    "SimulationConfig",
    "SimulationResult",
    "run_experiment",
]

GENERATOR_ID = f"philox4x64-stagesum-blocks/numpy-{np.__version__}"

# Replications per keyed block, and the most (replication, bank) cells one
# draw array may hold (2**17 int64 cells = 1 MiB), so memory stays flat in q.
_BLOCK_REPS = 1024
_BLOCK_CELLS = 2 ** 17


@dataclass(frozen=True)
class SimulationConfig:
    """One reproducible experiment: spec, replication count, seed, workers.

    ``workers`` is the number of contiguous block ranges the replications
    split into; the ranges run on threads, at most one per available CPU.
    """

    spec: BankSpec
    reps: int
    seed: int
    workers: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.reps, int) or self.reps < 1:
            raise InvalidSpecError(f"reps must be an integer >= 1, got {self.reps!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2 ** 64:
            raise InvalidSpecError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if not isinstance(self.workers, int) or self.workers < 1:
            raise InvalidSpecError(f"workers must be an integer >= 1, got {self.workers!r}")


@dataclass(frozen=True)
class SimulationResult:
    """Aggregated replication outcomes; the histogram is exact integer counts."""

    mean: float
    variance: float
    std_error_mean: float
    min: int
    max: int
    histogram: dict[int, int] = field(repr=False)
    generator_id: str = GENERATOR_ID


def _block_size(q: int) -> int:
    """Replications per keyed block; fixed by the spec, never by the workers."""
    return max(1, min(_BLOCK_REPS, _BLOCK_CELLS // q))


def _block_maxima(a: int, q: int, seed: int, block: int, rows: int) -> np.ndarray:
    """Coverage times of ``rows`` replications drawn from block ``block``'s stream.

    Banks are taken in column slices of at most ``_BLOCK_CELLS`` cells; within
    a slice the stages run in order k = 2..a (stage 1 always takes one test).
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, block))))
    best = np.zeros(rows, dtype=np.int64)
    width = min(q, _BLOCK_CELLS)
    for lo in range(0, q, width):
        totals = np.ones((rows, min(width, q - lo)), dtype=np.int64)
        for k in range(2, a + 1):
            totals += rng.geometric((a - k + 1) / a, size=totals.shape)
        np.maximum(best, totals.max(axis=1), out=best)
    return best


def _count_blocks(a: int, q: int, seed: int, reps: int, start: int, stop: int) -> Counter:
    size = _block_size(q)
    hist: Counter = Counter()
    for block in range(start, stop):
        rows = min(size, reps - block * size)
        values, counts = np.unique(_block_maxima(a, q, seed, block, rows), return_counts=True)
        hist.update(dict(zip(values.tolist(), counts.tolist())))
    return hist


def _chunk_ranges(items: int, workers: int) -> list[tuple[int, int]]:
    size, extra = divmod(items, workers)
    ranges = []
    start = 0
    for w in range(min(workers, items)):  # ranges past the items would be empty
        stop = start + size + (1 if w < extra else 0)
        if stop > start:
            ranges.append((start, stop))
        start = stop
    return ranges


def _available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(config: SimulationConfig) -> SimulationResult:
    """Run ``config.reps`` independent replications and aggregate exactly.

    With ``workers > 1`` the blocks split into that many contiguous ranges,
    run on a thread pool of at most one thread per available CPU; extra
    ranges wait in its queue.  The histogram, and every statistic derived
    from it, is independent of ``workers``: block b is a pure function of
    (a, q, reps, seed, b).
    """
    spec, reps, seed = config.spec, config.reps, config.seed
    blocks = -(-reps // _block_size(spec.q))
    chunks = _chunk_ranges(blocks, config.workers)
    if len(chunks) == 1:
        parts = [_count_blocks(spec.a, spec.q, seed, reps, 0, blocks)]
    else:
        with ThreadPoolExecutor(max_workers=min(len(chunks), _available_cpus())) as pool:
            futures = [
                pool.submit(_count_blocks, spec.a, spec.q, seed, reps, s, e)
                for s, e in chunks
            ]
            parts = [f.result() for f in futures]
    hist: Counter = Counter()
    for part in parts:
        hist.update(part)
    return _result_from_histogram(hist, reps)


def _result_from_histogram(hist: Counter, reps: int) -> SimulationResult:
    s1 = sum(n * c for n, c in hist.items())
    s2 = sum(n * n * c for n, c in hist.items())
    mean = s1 / reps
    if reps > 1:
        # Unbiased sample variance, computed in exact rationals then rounded once.
        variance = float(Fraction(reps * s2 - s1 * s1, reps * (reps - 1)))
    else:
        variance = 0.0
    return SimulationResult(
        mean=mean,
        variance=variance,
        std_error_mean=math.sqrt(variance / reps),
        min=min(hist),
        max=max(hist),
        histogram=dict(sorted(hist.items())),
    )
