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

A stage's waits are the integers ``Generator.geometric`` gives, from the
same words of the stream in the same order, but without its per-draw C loop
(``random_geometric`` in numpy's ``random/src/distributions/distributions.c``),
which below p = 1/3 calls ``log1p(-p)`` for every draw and from p = 1/3 up
runs a partial-sum search with a branch per step.  The switch is numpy's
own, at the double 0.333333333333333333333333, so p = 1/3 (a = 3, k = 3)
searches and p = 21/64 inverts.

* Inversion, p < 1/3.  numpy returns ceil(-E / log1p(-p)) for a standard
  exponential E.  Here E comes from ``standard_exponential``, the same
  ziggurat taking the same words, and is divided by -log1p(-p), formed once
  per stage: the sign of a quotient does not change its rounding.  numpy
  caps a wait at INT64_MAX (about 9.2e18), which no draw here reaches: the
  ziggurat's largest E is r - log1p(-(1 - 2**-53)) < 44.5 and p >= 1/64, so
  a wait is at most 2822.
* Search, p >= 1/3.  numpy returns X = 1 + #{i : U > T[i]} for one uniform
  U from ``next_double``, where T[i] are the sums p, p + p(1-p), ... formed
  as numpy forms them.  Here U comes from ``random``, which calls the same
  ``next_double``, and X is read from a guide table (indexed search: Chen
  and Asau, AIIE Trans. 6(2), 1974; Devroye, Non-Uniform Random Variate
  Generation, 1986, III.2).  U is a multiple of 2**-53, so U > T[i] exactly
  when V = 1 - U, which is exact, is below W[i], 1 - T[i] with T[i] rounded
  down to that grid.  A bucket is the exponent and top three mantissa bits
  of V's IEEE pattern, so the buckets over [2**-53, 1] are geometric, as the
  W are; each holds at most one W (the tests check every stage of
  a = 2..64), and X = base[bucket] + (V < edge[bucket]) with no branch.
  Where T stops growing below the largest U, 1 - 2**-53 (for p = 0.35 it
  ends at 0.9999999999999997), numpy's loop never ends for a U above T's
  end; the table gives 1 + len(T) there.
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

from .coupon import BankSpec, InvalidSpecError, _check_spec, _shown

__all__ = [
    "GENERATOR_ID",
    "SimulationConfig",
    "SimulationResult",
    "run_experiment",
]

GENERATOR_ID = f"philox4x64-stagesum-blocks/numpy-{np.__version__}"

# Replications per keyed block, and the most (replication, bank) cells one
# column slice may hold (2**17 float64 sums = 1 MiB), so memory stays flat in q.
_BLOCK_REPS = 1024
_BLOCK_CELLS = 2 ** 17
# Draws per numpy call: whole stages while they fit, else one stage's cells
# in pieces (five buffers, 26 bytes a draw, 832 KiB).
_CHUNK = 2 ** 15
# numpy's random_geometric searches from this double up and inverts below it.
_SEARCH_FROM = 0.333333333333333333333333
# A guide-table bucket of V = 1 - U in [2**-53, 1]: its IEEE bits >> 49, less
# the bits of 2**-53 >> 49, so 8 buckets a binade and 425 in all.
_BUCKET_SHIFT = 52 - 3
_BUCKET_LOW = (1023 - 53) << 3
_BUCKETS = (53 << 3) + 1
_ULP = 2.0 ** -53
# The most stage waits, reps * q * (a - 1), one experiment may draw: under a
# minute on one thread at the 8-11 ns a draw measured on a 2-core x86 host.
_DRAW_BUDGET = 2 ** 32


@dataclass(frozen=True)
class SimulationConfig:
    """One reproducible experiment: spec, replication count, seed, workers.

    The replications run on at most ``workers`` threads, and never on more
    than one per available CPU or per block; the results do not depend on it.
    A config whose replications would draw more than 2**32 stage waits,
    reps * q * (a - 1), is refused with ``InvalidSpecError``, so every
    accepted experiment ends in under a minute.
    """

    spec: BankSpec
    reps: int
    seed: int
    workers: int = 1

    def __post_init__(self) -> None:
        _check_spec(self.spec)
        if not isinstance(self.reps, int) or self.reps < 1:
            raise InvalidSpecError(f"reps must be an integer >= 1, got {_shown(self.reps)}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2 ** 64:
            raise InvalidSpecError(
                f"seed must be an unsigned 64-bit integer, got {_shown(self.seed)}")
        if not isinstance(self.workers, int) or self.workers < 1:
            raise InvalidSpecError(f"workers must be an integer >= 1, got {_shown(self.workers)}")
        if self.reps * self.spec.q * (self.spec.a - 1) > _DRAW_BUDGET:
            raise InvalidSpecError(
                "reps * q * (a - 1) stage waits exceed the simulator's budget of 2**32 draws")


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


def _guide_table(p: float) -> tuple[np.ndarray, np.ndarray]:
    """One search stage's table: X = base[bucket] + (V < edge[bucket]).

    T is numpy's running sum (``sum = prod = p; prod *= 1 - p; sum += prod``),
    kept while it grows and is below the largest U; base[j] is 1 plus the
    number of W in buckets above j (at most 89 for a <= 64), and edge[j] is
    the W in bucket j, or 0.
    """
    q = 1.0 - p
    total = prod = p
    sums = [total]
    while total < 1.0 - _ULP:
        prod *= q
        if total + prod == total:
            break
        total += prod
        sums.append(total)
    w = 1.0 - np.floor(np.array(sums) / _ULP) * _ULP
    w = w[w > 0.0]  # a T that rounded up to 1.0 is above every U
    keys = (w.view(np.uint64) >> _BUCKET_SHIFT).astype(np.intp) - _BUCKET_LOW
    above = len(w) - np.searchsorted(keys[::-1], np.arange(_BUCKETS), side="right")
    edge = np.zeros(_BUCKETS)
    edge[keys] = w
    return (1 + above).astype(np.uint8), edge


class _Stages:
    """The geometric waits of consecutive stages, numpy's search stages first.

    ``add`` draws every stage's wait for each cell of ``sums`` and adds it
    there: stage by stage, cells in order, as one ``rng.geometric(p, n)``
    call a stage would, in as few numpy calls as ``_CHUNK`` allows.  The
    search stages' tables are rows of one uint8 base and one float64 edge
    array, 3825 bytes a stage: at most 42 stages (a = 63 and 64), 157 KiB.
    """

    __slots__ = ("searches", "base", "edge", "offsets", "scales")

    def __init__(self, probs: list[float]) -> None:
        self.searches = sum(p >= _SEARCH_FROM for p in probs)
        self.base = np.empty((self.searches, _BUCKETS), np.uint8)
        self.edge = np.empty((self.searches, _BUCKETS))
        for s, p in enumerate(probs[:self.searches]):
            self.base[s], self.edge[s] = _guide_table(p)
        self.offsets = (np.arange(self.searches) * _BUCKETS - _BUCKET_LOW).reshape(-1, 1)
        self.scales = np.array([-math.log1p(-p) for p in probs[self.searches:]]).reshape(-1, 1)
        for table in (self.base, self.edge, self.offsets, self.scales):
            table.flags.writeable = False  # the cache hands them to every thread

    def add(self, rng: np.random.Generator, sums: np.ndarray) -> None:
        n = sums.size
        per = max(1, _CHUNK // n)
        step = min(n, _CHUNK)
        stages = self.searches + len(self.scales)
        size = step * min(per, stages)
        buffers = (np.empty(size), np.empty(size, np.intp), np.empty(size),
                   np.empty(size, np.uint8), np.empty(size, bool))
        for first, last, draw in ((0, self.searches, self._search),
                                  (self.searches, stages, self._invert)):
            for s in range(first, last, per):
                g = min(per, last - s)
                for c in range(0, n, step):
                    part = sums[c:c + step]
                    waits = draw(rng, s, (g, part.size), buffers)
                    np.add(part, waits[0] if g == 1 else waits.sum(axis=0), out=part)

    def _search(self, rng: np.random.Generator, s: int, shape: tuple[int, int],
                buffers: tuple[np.ndarray, ...]) -> np.ndarray:
        size = shape[0] * shape[1]
        v, key, edge, waits, below = (b[:size].reshape(shape) for b in buffers)
        rng.random(out=v)
        np.subtract(1.0, v, out=v)
        np.right_shift(v.view(np.uint64), _BUCKET_SHIFT, out=key.view(np.uint64))
        np.add(key, self.offsets[s:s + shape[0]], out=key)
        self.base.take(key, out=waits, mode="wrap")
        self.edge.take(key, out=edge, mode="wrap")
        np.less(v, edge, out=below)
        return np.add(waits, below, out=waits)

    def _invert(self, rng: np.random.Generator, s: int, shape: tuple[int, int],
                buffers: tuple[np.ndarray, ...]) -> np.ndarray:
        waits = buffers[0][:shape[0] * shape[1]].reshape(shape)
        rng.standard_exponential(out=waits)
        s -= self.searches
        np.divide(waits, self.scales[s:s + shape[0]], out=waits)
        return np.ceil(waits, out=waits)


@functools.lru_cache(maxsize=8)
def _bank_stages(a: int) -> _Stages:
    """Stages k = 2..a of one bank (stage 1 always takes one test).

    Built on first use, never at import; at most 8 bank sizes are kept,
    under 1.3 MiB.
    """
    return _Stages([(a - k + 1) / a for k in range(2, a + 1)])


def _block_maxima(a: int, q: int, seed: int, block: int, rows: int) -> np.ndarray:
    """Coverage times of ``rows`` replications drawn from block ``block``'s stream.

    Banks are taken in column slices of at most ``_BLOCK_CELLS`` cells; within
    a slice the stages run in order k = 2..a, each over every cell in order,
    as ``rng.geometric`` would draw them (see the module docstring).  Sums
    are float64, exact: a stage sum is at most 1 + 63 * 2822.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, block))))
    stages = _bank_stages(a)
    best = np.zeros(rows)
    width = min(q, _BLOCK_CELLS)
    totals = np.empty(rows * width)
    for lo in range(0, q, width):
        cols = min(width, q - lo)
        sums = totals[:rows * cols]
        sums.fill(1.0)
        stages.add(rng, sums)
        np.maximum(best, sums.reshape(rows, cols).max(axis=1), out=best)
    return best.astype(np.int64)


def _count_block(a: int, q: int, seed: int, reps: int, block: int) -> Counter:
    """How often each coverage time occurs among block ``block``'s replications,
    in ascending order of time.

    A block's maxima span a narrow range of integers (about 500 at a = 64), so one
    ``np.bincount`` over their offsets from the least counts them, at about
    half the fixed cost of ``np.unique``, which sorts.
    """
    size = _block_size(q)
    rows = min(size, reps - block * size)
    maxima = _block_maxima(a, q, seed, block, rows)
    low = int(maxima.min())
    counts = np.bincount(maxima - low)
    seen = np.flatnonzero(counts)
    return Counter(dict(zip((seen + low).tolist(), counts[seen].tolist())))


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
    (a, q, reps, seed, b).  A ``config`` that is not a
    :class:`SimulationConfig` raises ``InvalidSpecError``.
    """
    if not isinstance(config, SimulationConfig):
        raise InvalidSpecError(f"config must be a SimulationConfig, got {_shown(config)}")
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
