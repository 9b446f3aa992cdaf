"""Seeded Monte Carlo for the bank-coverage process.

One bank is covered after a sum of independent geometric waits, one per
stage: with k - 1 alternatives seen, the next new one takes Geom((a-k+1)/a)
tests.  A replication is the maximum of q such stage sums.  Replications are
drawn in blocks whose size depends only on q; block ``b`` consumes its
own counter-based generator keyed by ``(seed, b)``, and each block is one
task, so results are bit-identical whatever the number of threads.  The
blocks run on threads, at most one per CPU available to the process: the
draws, sums and maxima are numpy calls that release the interpreter lock,
and no block shares mutable state with another.
"""

from __future__ import annotations

import functools
import math
import os
from collections import Counter
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

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

    The replications run on at most ``workers`` threads, and never on more
    than one per available CPU or per block; the results do not depend on it.
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


def _count_block(a: int, q: int, seed: int, reps: int, block: int) -> Counter:
    """How often each coverage time occurs among block ``block``'s replications."""
    size = _block_size(q)
    rows = min(size, reps - block * size)
    values, counts = np.unique(_block_maxima(a, q, seed, block, rows), return_counts=True)
    return Counter(dict(zip(values.tolist(), counts.tolist())))


def _available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(config: SimulationConfig) -> SimulationResult:
    """Run ``config.reps`` independent replications and aggregate exactly.

    Each block is one task, run on a pool of ``min(workers, blocks,
    available CPUs)`` threads; with one thread the blocks run in the calling
    thread, which saves a pool's start-up and hand-offs.  The
    histogram is a sum over blocks, so it and every statistic derived from
    it are independent of ``workers``: block b is a pure function of
    (a, q, reps, seed, b).
    """
    spec, reps, seed = config.spec, config.reps, config.seed
    blocks = -(-reps // _block_size(spec.q))
    threads = min(config.workers, blocks, _available_cpus())
    count = functools.partial(_count_block, spec.a, spec.q, seed, reps)
    if threads == 1:
        return _result_from_parts(map(count, range(blocks)), reps)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return _result_from_parts(pool.map(count, range(blocks)), reps)


def _result_from_parts(parts: Iterable[Counter], reps: int) -> SimulationResult:
    hist: Counter = Counter()
    for part in parts:  # merged as each block's count arrives
        hist.update(part)
    s1 = sum(n * c for n, c in hist.items())
    s2 = sum(n * n * c for n, c in hist.items())
    mean = s1 / reps
    if reps > 1:
        # Unbiased sample variance; int true division rounds the exact ratio once.
        variance = (reps * s2 - s1 * s1) / (reps * (reps - 1))
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
