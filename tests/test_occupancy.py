"""Series moments and the pmf at large q against an independent occupancy-count sampler.

The stage-sum sampler in ``simulate.py`` draws q·(a−1) waits a replication,
too many at q = 10⁶ for a test's time.  This one tracks c_j, the number of
banks that have seen exactly j of their a alternatives.  At each test a bank
at j sees a new alternative with probability (a − j)/a, so Binomial(c_j,
(a − j)/a) of the banks at j move up one: O(a) draws a test whatever q is.
It never reads S(n) and shares no code with the library.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from bankcover import BankSpec, expected_tests, test_count_cdf, test_count_pmf, variance_tests


def coverage_times(a: int, q: int, reps: int, seed: int) -> np.ndarray:
    """``reps`` seeded coverage times of q banks of a alternatives.

    Every bank sees its first alternative at test 1.  At each later test
    one binomial call moves the banks of every replication still running;
    the columns it draws span the least j any bank is still at up to the
    most j a bank can have reached.  A replication leaves the array at the
    test when its last bank reaches j = a.
    """
    rng = np.random.default_rng(seed)
    up = (a - np.arange(a)) / a
    counts = np.zeros((reps, a + 1), dtype=np.int64)
    counts[:, 1] = q
    times = np.empty(reps, dtype=np.int64)
    live = np.arange(reps)
    n, lo = 1, 1
    while True:
        done = counts[:, a] == q
        if done.any():
            times[live[done]] = n
            live, counts = live[~done], counts[~done]
            if not live.size:
                return times
        while not counts[:, lo].any():
            lo += 1
        hi = min(n + 1, a)
        moves = rng.binomial(counts[:, lo:hi], up[lo:hi])
        counts[:, lo:hi] -= moves
        counts[:, lo + 1:hi + 1] += moves
        n += 1


def sample_moments(times: np.ndarray) -> tuple[float, float, float, float]:
    """(mean, its standard error, sample variance, its standard error); the
    variance's error comes from the sample's fourth central moment."""
    reps = times.size
    x = times.astype(float)
    mean = x.mean()
    d = x - mean
    m2, m4 = (d ** 2).mean(), (d ** 4).mean()
    var = m2 * reps / (reps - 1)
    return (mean, math.sqrt(var / reps), var,
            math.sqrt((m4 - var ** 2 * (reps - 3) / (reps - 1)) / reps))


@pytest.mark.parametrize("a,q,reps", [(10, 10 ** 4, 2000), (10, 10 ** 6, 2000), (64, 10 ** 6, 1000)])
def test_series_moments_within_four_standard_errors(a, q, reps):
    mean, mean_se, var, var_se = sample_moments(coverage_times(a, q, reps, seed=1))
    spec = BankSpec(a, q)
    assert abs(mean - expected_tests(spec).value) <= 4 * mean_se
    assert abs(var - variance_tests(spec).value) <= 4 * var_se


def test_histogram_matches_the_pmf():
    # chi-square over one bin per test count whose expected count is at
    # least 5, with the counts below and above them pooled into two tail
    # bins; a tail bin expected below 5 is merged into its neighbour
    a, q, reps = 10, 10 ** 4, 10_000
    times = coverage_times(a, q, reps, seed=1)
    spec = BankSpec(a, q)
    kept = [n for n in range(a, int(times.max()) + 1) if reps * test_count_pmf(spec, n).p >= 5]
    lo, hi = kept[0], kept[-1]
    assert kept == list(range(lo, hi + 1))  # the pmf is unimodal
    cells = [[reps * test_count_cdf(spec, lo - 1).p, np.count_nonzero(times < lo)]]
    cells += [[reps * test_count_pmf(spec, n).p, np.count_nonzero(times == n)] for n in kept]
    cells.append([reps * (1.0 - test_count_cdf(spec, hi).p), np.count_nonzero(times > hi)])
    if cells[0][0] < 5:
        cells[:2] = [np.add(*cells[:2])]
    if cells[-1][0] < 5:
        cells[-2:] = [np.add(*cells[-2:])]
    expected, observed = np.array(cells, dtype=float).T
    assert observed.sum() == reps
    statistic = ((observed - expected) ** 2 / expected).sum()
    assert stats.chi2.sf(statistic, len(cells) - 1) >= 1e-4
