"""Series moments, the pmf and the Gumbel asymptotics at large q against an
independent occupancy-count sampler.

The stage-sum sampler in ``simulate.py`` draws q·(a−1) waits a replication,
too many at q = 10⁶ for a test's time.  This one tracks c_j, the number of
banks that have seen exactly j of their a alternatives.  At each test a bank
at j sees a new alternative with probability (a − j)/a, so Binomial(c_j,
(a − j)/a) of the banks at j move up one: O(a) draws a test whatever q is.
It never reads S(n) and shares no code with the library.

The asymptotic checks (Erdős and Rényi, Publ. Math. Inst. Hung. Acad. Sci.
6, 1961) read the samples the moment test draws, each drawn once.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from scipy import stats

from bankcover import BankSpec, expected_tests, test_count_cdf, test_count_pmf, variance_tests
from bankcover.asymptotics import (
    centring,
    gumbel_cdf,
    local_pmf_approx,
    sandwich_bounds,
    variance_bounds,
)


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


# (a, q, reps) of the seed-1 samples the moment and asymptotic checks share
SAMPLES = [(10, 10 ** 4, 2000), (10, 10 ** 6, 2000), (64, 10 ** 6, 1000)]


@functools.cache
def seed_one_times(a: int, q: int, reps: int) -> np.ndarray:
    """``coverage_times(a, q, reps, seed=1)``, drawn once and read-only."""
    times = coverage_times(a, q, reps, seed=1)
    times.flags.writeable = False
    return times


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


def chi_square_sf(times: np.ndarray, lowest: int, pmf, cdf) -> float:
    """The chi-square p-value of ``times`` against a law on the integers
    from ``lowest`` on, given by its ``pmf`` and ``cdf``: one bin per test
    count whose expected count is at least 5, with the counts below and
    above them pooled into two tail bins; a tail bin expected below 5 is
    merged into its neighbour."""
    reps = times.size
    kept = [n for n in range(lowest, int(times.max()) + 1) if reps * pmf(n) >= 5]
    lo, hi = kept[0], kept[-1]
    assert kept == list(range(lo, hi + 1))  # the pmf is unimodal
    cells = [[reps * cdf(lo - 1), np.count_nonzero(times < lo)]]
    cells += [[reps * pmf(n), np.count_nonzero(times == n)] for n in kept]
    cells.append([reps * (1.0 - cdf(hi)), np.count_nonzero(times > hi)])
    if cells[0][0] < 5:
        cells[:2] = [np.add(*cells[:2])]
    if cells[-1][0] < 5:
        cells[-2:] = [np.add(*cells[-2:])]
    expected, observed = np.array(cells, dtype=float).T
    assert observed.sum() == reps
    statistic = ((observed - expected) ** 2 / expected).sum()
    return stats.chi2.sf(statistic, len(cells) - 1)


@pytest.mark.parametrize("a,q,reps", SAMPLES)
def test_series_moments_within_four_standard_errors(a, q, reps):
    mean, mean_se, var, var_se = sample_moments(seed_one_times(a, q, reps))
    spec = BankSpec(a, q)
    assert abs(mean - expected_tests(spec).value) <= 4 * mean_se
    assert abs(var - variance_tests(spec).value) <= 4 * var_se


def test_histogram_matches_the_pmf():
    a, q, reps = 10, 10 ** 4, 10_000
    spec = BankSpec(a, q)
    assert chi_square_sf(coverage_times(a, q, reps, seed=1), a,
                         lambda n: test_count_pmf(spec, n).p,
                         lambda n: test_count_cdf(spec, n).p) >= 1e-4


@pytest.mark.parametrize("a,q,reps", SAMPLES)
def test_sample_variance_within_the_large_q_band(a, q, reps):
    # the band widened by validate's 0.5 and four standard errors
    _, _, var, var_se = sample_moments(seed_one_times(a, q, reps))
    band = variance_bounds(a)
    slack = 0.5 + 4 * var_se
    assert band.var_lo - slack <= var <= band.var_hi + slack, (var, var_se, band)


@pytest.mark.parametrize("a,q,reps", SAMPLES)
def test_empirical_cdf_within_the_gumbel_envelope(a, q, reps):
    # P(T <= floor(centre + x)) at validate's lags, against the envelope
    # widened by validate's 0.02 and four binomial standard errors, taken at
    # the envelope's nearest point
    times = np.sort(seed_one_times(a, q, reps))
    centre = centring(a, q).centre
    for x in np.arange(-3.0, 10.0 + 1e-9, 0.25).tolist():
        p = np.searchsorted(times, math.floor(centre + x), side="right") / reps
        lower, upper = sandwich_bounds(a, x)
        nearest = min(max(p, lower), upper)
        slack = 0.02 + 4 * math.sqrt(nearest * (1.0 - nearest) / reps)
        assert lower - slack <= p <= upper + slack, (x, p, lower, upper)


def test_histogram_matches_the_local_gumbel_pmf():
    # the local increments telescope to the Gumbel cdf at rate * (n - centre)
    a, q, reps = SAMPLES[1]
    c = centring(a, q)
    assert chi_square_sf(seed_one_times(a, q, reps), a,
                         lambda n: local_pmf_approx(a, q, n - c.centre_ceil),
                         lambda n: gumbel_cdf(c.decay_rate * (n - c.centre))) >= 1e-4
