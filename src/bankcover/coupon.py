"""Exact distribution of the number of tests needed to cover question banks.

A generated test draws one question uniformly at random from each of ``q``
banks, every bank holding ``a`` interchangeable alternatives.  The waiting
time until a single bank has shown all of its alternatives is the classic
collector time Y with E Y = a * H_a; the time until every bank is covered is
the maximum of q independent copies of Y.  Everything here is evaluated with
certified error bounds: probabilities come back as :class:`ProbValue`, series
sums as :class:`SeriesEstimate`.

The single-bank curve S(y) = 1 - F(y) depends on ``a`` alone, so every entry
point here reads it from one cache: the curve and its error bounds are
computed 256 test counts at a time (one block), bit for bit as a per-y
compensated sum would give them, and kept as read-only numpy arrays, at most
512 blocks (under 4.5 MiB; the variance series for every a in 2..64 at
q = 1e6 reads 475).
The first touch of a block costs 1.5 to 3 ms at a = 64 (about 6 ms for
block 0, which holds the exact-integer cells) against about 0.06 ms for one
lone point, and every later read is an index.  Past the first y where every term
of the closed form underflows, the curve is the constant tail S = 0, F = 1
and needs no block.

The mean and variance series sum P(N > n), weighted by 2n+1 for the second
moment, until a term is small and a geometric bound on the rest is
certified.  That bound never increases with n, so the stopping point is
found first, from logarithms and a short walk, and a bound that still fails
at the term cap raises before any term is formed.  Then all the terms below
the stop are formed at once from the cached blocks (``log1p`` and ``expm1``
from the platform libm).

Every compensated sum of the main path, the closed form of each block row
and both series, is one replay of Neumaier's loop: two strictly ordered
``np.cumsum`` passes, one for the running sum and one for the exact
rounding errors of its additions.  It gives, bit for bit, what a
term-by-term loop gives.  The oracles share no code with the main path:
:func:`cdf_oracle` counts surjections in integers and
:func:`expected_tests_multisum` sums with ``math.fsum``.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "MAX_ALTERNATIVES",
    "InvalidSpecError",
    "UnsupportedAlternativesError",
    "OracleRangeError",
    "SeriesCapError",
    "BankSpec",
    "TruncationPolicy",
    "DEFAULT_POLICY",
    "ProbValue",
    "SeriesEstimate",
    "expected_single_bank",
    "single_bank_survival",
    "single_bank_cdf",
    "cdf_oracle",
    "test_count_cdf",
    "test_count_pmf",
    "expected_tests",
    "expected_tests_multisum",
    "variance_tests",
]

# Beyond 64 alternatives the alternating closed form loses too much to
# cancellation for a certified double-precision answer, so we refuse.
MAX_ALTERNATIVES = 64

_ORACLE_MAX_A = 12
_ORACLE_MAX_Y = 200
_MULTISUM_MAX_A = 6
_MULTISUM_MAX_Q = 4

_ULP = 2.0 ** -53
_MIN_NORMAL = sys.float_info.min
_LOG_MAX = math.log(sys.float_info.max)
# Float-path error bound above which the survival sum is redone exactly.
_EXACT_SWITCH = 1e-13
# The survival curve is computed and cached this many test counts at a time;
# a block holds four numpy arrays of _BLOCK doubles, about 8.75 KiB with their
# headers and its cache entry, so a full cache stays under 4.5 MiB.
_BLOCK = 256
_BLOCK_CACHE_SIZE = 512
# S, its bound, F, its bound once every term of the closed form underflows.
_TAIL_POINT = (0.0, _ULP, 1.0, 2 * _ULP)
# Tolerated negative round-off in a cdf difference; anything worse is a bug.
_PMF_CLAMP = 1e-14


class InvalidSpecError(ValueError):
    """Parameters outside the supported domain."""


class UnsupportedAlternativesError(InvalidSpecError):
    """Bank size beyond the double-precision gate ``MAX_ALTERNATIVES``."""


class OracleRangeError(ValueError):
    """An oracle helper was asked to leave its trusted range."""


class SeriesCapError(RuntimeError):
    """A series hit its term cap before its tail certificate was met."""


@dataclass(frozen=True)
class BankSpec:
    """Test layout: ``q`` questions per test, each from a bank of ``a`` alternatives."""

    a: int
    q: int

    def __post_init__(self) -> None:
        if not isinstance(self.a, int) or not isinstance(self.q, int):
            raise InvalidSpecError("a and q must be integers")
        if self.a < 1 or self.q < 1:
            raise InvalidSpecError(f"need a >= 1 and q >= 1, got a={self.a}, q={self.q}")
        if self.a > MAX_ALTERNATIVES:
            raise UnsupportedAlternativesError(
                f"a={self.a} exceeds the supported maximum of {MAX_ALTERNATIVES} alternatives"
            )


@dataclass(frozen=True)
class TruncationPolicy:
    """Stopping rule for the infinite series over test counts.

    A series terminates once its current term drops below ``eps_term`` and a
    certified geometric bound on the discarded tail is at most
    ``10 * eps_term``.
    """

    eps_term: float = 1e-12
    n_cap: int = 100_000

    def __post_init__(self) -> None:
        if not 0.0 < self.eps_term < 1.0:
            raise InvalidSpecError(f"eps_term must lie in (0, 1), got {self.eps_term}")
        if not isinstance(self.n_cap, int) or self.n_cap < 1:
            raise InvalidSpecError(f"n_cap must be an integer >= 1, got {self.n_cap}")


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class ProbValue:
    """A probability together with a certified absolute error bound."""

    p: float
    abs_err: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"probability out of range: {self.p}")
        if not self.abs_err >= 0.0:
            raise ValueError(f"error bound must be nonnegative, got {self.abs_err}")

    def __float__(self) -> float:
        return self.p


@dataclass(frozen=True)
class SeriesEstimate:
    """Partial series sum plus a certified bound on the truncated tail."""

    value: float
    tail_bound: float
    terms: int

    def __float__(self) -> float:
        return self.value


def _check_bank_size(a: int) -> None:
    if not isinstance(a, int):
        raise InvalidSpecError(f"a must be an integer, got {a!r}")
    if a < 1:
        raise InvalidSpecError(f"need a >= 1, got {a}")


def _check_gated_bank_size(a: int) -> None:
    _check_bank_size(a)
    if a > MAX_ALTERNATIVES:
        raise UnsupportedAlternativesError(
            f"a={a} exceeds the supported maximum of {MAX_ALTERNATIVES} alternatives"
        )


def _check_test_count(y: int, minimum: int = 0) -> None:
    if not isinstance(y, int):
        raise InvalidSpecError(f"test count must be an integer, got {y!r}")
    if y < minimum:
        raise InvalidSpecError(f"test count must be >= {minimum}, got {y}")


def expected_single_bank(a: int) -> float:
    """Mean number of tests until one bank of ``a`` alternatives is covered.

    Equals ``a`` times the a-th harmonic number; the harmonic sum runs in
    ascending index order.
    """
    _check_bank_size(a)
    h = 0.0
    for k in range(1, a + 1):
        h += 1.0 / k
    return a * h


def _saturating_float(x: float) -> float:
    """``x`` as a float; an integer beyond the float range becomes an infinity
    of its sign (a bank count q, a Gumbel lag or an E1 argument)."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


@functools.cache
def _tail_start(a: int) -> int:
    """First y at which ((a-1)/a)**y, the largest term of the closed form,
    underflows to 0.0; from there on every term does."""
    r = (a - 1) / a
    # r**hi <= 2**-1100 lies far below half the least subnormal (2**-1075),
    # so r**hi is 0.0 and the first zero power is at most hi
    hi = math.ceil(1100 / -math.log2(r))
    return bisect.bisect_left(range(hi), True, key=lambda y: r ** y == 0.0)


@functools.lru_cache(maxsize=_BLOCK_CACHE_SIZE)
def _survival_block(a: int, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """S(y), its error bound, F(y) and its error bound for y in one block.

    The block is y in [_BLOCK * j, _BLOCK * (j + 1)) and a >= 2.  The
    alternating closed form S(y) = sum_k (-1)^(k+1) C(a, k) ((a-k)/a)^y is
    laid out as one row of signed terms per y, in k order, and summed by the
    same compensated replay as the series (:func:`_compensated_totals`), so
    every value and bound is a lone per-y Neumaier sum's, bit for bit.
    The powers come from Python's ``float.__pow__`` (the platform libm);
    ``np.power`` may round differently.  Each term carries about y ulps of
    relative error through the power, so the bound is
    (y + 2a + 10) ulp times the sum of the term magnitudes.  Where that bound
    exceeds ``_EXACT_SWITCH`` the cell is redone in exact integers; the int
    true division rounds correctly, as ``float(Fraction)`` does.

    The cache hands the same arrays to every caller, so they are read-only.
    """
    lo = _BLOCK * j
    start = max(lo, a)  # fewer tests than alternatives cannot cover the bank
    ys = list(range(start, lo + _BLOCK))
    m = len(ys)
    rows = np.zeros((m, a))  # row y holds C(a, k) ((a-k)/a)^y for k = 1..a
    for k in range(1, a + 1):
        r = (a - k) / a
        # r**y only falls with y, so a column whose first power underflows stays zero
        if r ** start:
            powers = np.fromiter(map(r.__pow__, ys), float, m)
            np.multiply(powers, float(math.comb(a, k)), out=rows[:, k - 1])
    magnitude = rows.cumsum(axis=1)[:, -1]  # in k order; np.sum would add pairwise
    np.negative(rows[:, 1::2], out=rows[:, 1::2])  # the even k are subtracted
    p = _compensated_totals(rows)
    slack = np.arange(start + 2 * a + 10, lo + _BLOCK + 2 * a + 10, dtype=float)  # y + 2a + 10
    bound = slack * _ULP * magnitude
    err = bound + _ULP
    surv, cdf = _clamp01_each(p), _clamp01_each(1.0 - p)
    surv_err, cdf_err = err, err + _ULP
    # exact cells: terms[k-1] = (-1)^(k+1) C(a, k) (a-k)^y and denom = a^y,
    # carried from one cell to the next
    bases = range(a - 1, -1, -1)
    terms = [math.comb(a, k) if k % 2 else -math.comb(a, k) for k in range(1, a + 1)]
    denom, last = 1, 0
    for i in np.flatnonzero(bound > _EXACT_SWITCH).tolist():
        y = ys[i]
        terms = [t * b ** (y - last) for t, b in zip(terms, bases)]
        denom *= a ** (y - last)
        last = y
        total = sum(terms)
        surv[i], cdf[i] = total / denom, (denom - total) / denom
        surv_err[i] = cdf_err[i] = _ULP
    below = start - lo
    head = (np.ones(below), np.zeros(below), np.zeros(below), np.zeros(below))
    block = tuple(np.concatenate((h, v)) for h, v in zip(head, (surv, surv_err, cdf, cdf_err)))
    for values in block:
        values.flags.writeable = False
    return block


def _clamp01_each(p: np.ndarray) -> np.ndarray:
    """``p`` with each element clamped to [0, 1]."""
    return np.where(p < 0.0, 0.0, np.where(p > 1.0, 1.0, p))


def _curve_point(a: int, y: int) -> tuple[float, float, float, float]:
    """S(y), its error bound, F(y) and its error bound for one bank."""
    if a == 1:
        return (0.0, 0.0, 1.0, 0.0) if y >= 1 else (1.0, 0.0, 0.0, 0.0)
    if y >= _tail_start(a):
        return _TAIL_POINT
    s, s_err, f, f_err = _survival_block(a, y // _BLOCK)
    i = y % _BLOCK
    return s.item(i), s_err.item(i), f.item(i), f_err.item(i)


def single_bank_survival(a: int, y: int) -> ProbValue:
    """P(some alternative of one bank is still unseen after ``y`` tests)."""
    _check_gated_bank_size(a)
    _check_test_count(y)
    s, s_err, _, _ = _curve_point(a, y)
    return ProbValue(s, s_err)


def single_bank_cdf(a: int, y: int) -> ProbValue:
    """P(one bank of ``a`` alternatives is fully covered within ``y`` tests).

    Exactly zero for y < a.
    """
    _check_gated_bank_size(a)
    _check_test_count(y)
    _, _, f, f_err = _curve_point(a, y)
    return ProbValue(f, f_err)


def cdf_oracle(a: int, y: int) -> Fraction:
    """Exact coverage probability a! S2(y, a) / a**y from surjection counts.

    An O(a**2) integer triangle sharing no code with the closed form, kept
    for cross-checking.  Trusted range: a <= 12, y <= 200.
    """
    _check_bank_size(a)
    _check_test_count(y)
    if a > _ORACLE_MAX_A or y > _ORACLE_MAX_Y:
        raise OracleRangeError(
            f"oracle trusted only for a <= {_ORACLE_MAX_A} and y <= {_ORACLE_MAX_Y}"
        )
    # onto[k] counts the length-y draws from k values that show all k: every
    # draw shows exactly some j of them, so k**y = sum_j C(k, j) onto[j]
    onto: list[int] = []
    for k in range(a + 1):
        onto.append(k ** y - sum(math.comb(k, j) * onto[j] for j in range(k)))
    return Fraction(onto[a], a ** y)


def test_count_cdf(spec: BankSpec, n: int) -> ProbValue:
    """P(all ``q`` banks are covered within the first ``n`` tests).

    The q banks are independent, so this is the q-th power of the single-bank
    cdf; the power is taken through ``log1p`` when the single-bank survival is
    small enough for direct powering to lose accuracy.  A q beyond the float
    range counts as +inf, and the error bound is then 1.
    """
    _check_test_count(n)
    a = spec.a
    if n < a:
        return ProbValue(0.0, 0.0)
    if a == 1:
        return ProbValue(1.0, 0.0)
    q = _saturating_float(spec.q)
    s, _, f, f_err = _curve_point(a, n)
    if s == 0.0:
        p = 1.0  # what exp(q * log1p(-s)) gives, without inf * 0 at q = inf
    elif s < 0.5:
        p = math.exp(q * math.log1p(-s))
    else:
        p = f ** q
    err = min(1.0, q * f_err + _ULP)
    return ProbValue(p, err)


def test_count_pmf(spec: BankSpec, n: int) -> ProbValue:
    """P(full coverage happens exactly at test ``n``)."""
    _check_test_count(n, minimum=1)
    hi = test_count_cdf(spec, n)
    lo = test_count_cdf(spec, n - 1)
    diff = hi.p - lo.p
    if diff < 0.0:
        if diff < -_PMF_CLAMP:
            raise ArithmeticError(
                f"cdf difference {diff} at n={n} is negative beyond round-off"
            )
        diff = 0.0
    return ProbValue(diff, hi.abs_err + lo.abs_err)


# library functions, not tests; keep pytest from collecting them by name
test_count_cdf.__test__ = False  # type: ignore[attr-defined]
test_count_pmf.__test__ = False  # type: ignore[attr-defined]


def _finite_bank_count(spec: BankSpec, series: str) -> float:
    """q as a float for the series; past the float range no partial sum can be
    certified (the mean lies beyond the last representable survival)."""
    q = _saturating_float(spec.q)
    if q == math.inf:
        raise SeriesCapError(
            f"{series} series for a={spec.a} not certified: q is beyond the float range"
        )
    return q


def _tail_from_logs(a: int, q: float, n: int, weight: float) -> float:
    """The series tail bound 2*a*q * decay**(n-1) / (1 - decay) * weight,
    decay = (a-1)/a, formed from logarithms.

    For where the direct product overflows (q near the float maximum) or
    decay**(n-1) falls to zero or a subnormal and loses its relative
    accuracy (q past about 1e300).  The exponent is raised by 1e-9, far above
    the rounding of the logarithms, so the result stays a bound; it is never
    below the smallest normal float, so it is never zero.
    """
    decay = (a - 1) / a
    log_tail = (
        math.log(2.0 * a * weight) + math.log(q)
        + (n - 1) * math.log(decay) - math.log1p(-decay) + 1e-9
    )
    if log_tail >= _LOG_MAX:
        return math.inf
    return max(math.exp(log_tail), _MIN_NORMAL)


def _series_tail(a: int, q: float, n: int, second_moment: bool) -> float:
    """Certified bound on the sum of the series terms from test count ``n`` on.

    P(N > m) <= q * a * decay**m with decay = (a-1)/a, so the mean's terms
    from n on sum to at most q * a * decay**n / (1 - decay); the bound is
    2/decay times that.  The variance's weights 2m+1 add the factor
    (2n+1) + 2*decay/(1-decay).  The exact bound strictly decreases in n, by
    a factor of at most (2a^2 - a - 1) / (2a^2 - a) per step, a relative
    step far above the rounding of either the direct or the logarithmic
    form, so the computed bound never increases with n either.
    """
    decay = (a - 1) / a
    power = decay ** (n - 1)
    weight = 1.0
    if second_moment:
        weight = (2 * n + 1) + 2.0 * decay / (1.0 - decay)
        tail = 2.0 * a * q * (power / (1.0 - decay)) * weight
    else:
        tail = 2.0 * a * q * power / (1.0 - decay)
    if not (power >= _MIN_NORMAL and tail < math.inf):
        tail = _tail_from_logs(a, q, n, weight)
    return tail


def _first_certified(a: int, q: float, limit: float, n_cap: int, second_moment: bool) -> int:
    """Least n <= n_cap with ``_series_tail(a, q, n, ...) <= limit``; n_cap + 1 if none.

    The bound never increases with n, so the answer is where it crosses
    ``limit``.  The crossing is solved in logarithms (with three fixed-point
    steps for the variance's weight) and then walked, one n at a time, to
    where the float bound itself crosses; that is a step or two away.  The
    bound is never below the smallest normal float, so a smaller ``limit``
    is never met.
    """
    if limit < _MIN_NORMAL:
        return n_cap + 1
    decay = (a - 1) / a
    steps = -math.log(decay)
    excess = math.log(2.0 * a) + math.log(q) - math.log1p(-decay) - math.log(limit)
    n = 1.0 + excess / steps
    if second_moment:
        for _ in range(3):
            n = 1.0 + (excess + math.log(2.0 * max(n, 0.0) + 2 * a - 1)) / steps
    n = min(max(math.ceil(n), 0), n_cap + 1)
    while n > 0 and _series_tail(a, q, n - 1, second_moment) <= limit:
        n -= 1
    while n <= n_cap and _series_tail(a, q, n, second_moment) > limit:
        n += 1
    return n


def _coverage_terms(a: int, q: float, lo: int, hi: int) -> np.ndarray:
    """P(N > n) = 1 - (1 - S(n))**q for n in [lo, hi), as -expm1(q * log1p(-S(n))).

    S is sliced from the cached blocks, and is 0.0 from ``_tail_start(a)`` on.  ``log1p`` and ``expm1`` come from
    ``math`` (the platform libm): numpy's own may round differently.  Every
    term lies in [0, 1] and none is -0.0.
    """
    cut = min(hi, _tail_start(a))
    pieces = [
        _survival_block(a, j)[0][max(lo - _BLOCK * j, 0):cut - _BLOCK * j]
        for j in range(lo // _BLOCK, -(-cut // _BLOCK))
    ]
    if hi > cut:
        pieces.append(np.zeros(hi - max(lo, cut)))
    s = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
    # F(n) rounds to 0 just above n = a for large a, and log1p(-1) is a
    # domain error; 1 is the limit of -expm1(q * log1p(-s)) as s -> 1.
    full = s == 1.0
    neg = -s
    neg[full] = 0.0
    logs = np.fromiter(map(math.log1p, neg.tolist()), float, hi - lo)
    with np.errstate(over="ignore"):  # -inf, as a float product gives, near q = 1.8e308
        exponents = q * logs
    terms = -np.fromiter(map(math.expm1, exponents.tolist()), float, hi - lo)
    terms[full] = 1.0
    return terms


def _compensated_totals(rows: np.ndarray) -> np.ndarray:
    """What a Neumaier loop started at s = c = 0.0 returns for each row.

    Neumaier's correction for s + x is the exact rounding error of that
    addition, and so is Knuth's branch-free TwoSum for any two floats, so
    one pass serves signed and unsigned rows alike.  ``cumsum`` adds strictly
    left to right, so it replays the running sum and then the sum of the
    per-step errors exactly (``np.sum`` adds pairwise and would not).  The
    running sum starts at 0.0, so the first step is replayed too; a row must
    not start with -0.0, since the loop's 0.0 + -0.0 is +0.0.
    """
    running = np.zeros((len(rows), rows.shape[1] + 1))
    before, after = running[:, :-1], running[:, 1:]
    np.cumsum(rows, axis=1, out=after)
    moved = after - before
    low = after - moved
    np.subtract(before, low, out=low)
    np.subtract(rows, moved, out=moved)
    low += moved
    return after[:, -1] + low.cumsum(axis=1, out=low)[:, -1]


def _moment_series(spec: BankSpec, policy: TruncationPolicy, second_moment: bool) -> SeriesEstimate:
    """The mean or the variance series for a >= 2, over whole arrays of terms.

    Term n is P(N > n), weighted by 2n+1 for the second moment.  The sum
    stops at the first n whose weighted term is below ``eps_term`` and whose
    tail bound is at most ``10 * eps_term``; as the bound never increases,
    that is the first small term at or after :func:`_first_certified`.
    """
    a = spec.a
    series = "variance" if second_moment else "mean"
    q = _finite_bank_count(spec, series)
    first = _first_certified(a, q, 10.0 * policy.eps_term, policy.n_cap, second_moment)
    parts: list[np.ndarray] = []
    # the term at `first` is nearly always small already; past it, the
    # ranges searched double in length
    lo, hi = 0, first + 1
    while first <= policy.n_cap and lo <= policy.n_cap:
        hi = min(hi, policy.n_cap + 1)
        terms = _coverage_terms(a, q, lo, hi)
        if second_moment:
            rows = np.stack((terms, terms * np.arange(2 * lo + 1, 2 * hi + 1, 2, dtype=float)))
        else:
            rows = terms[np.newaxis]
        parts.append(rows)
        start = max(first, lo)
        small = rows[-1, start - lo:] < policy.eps_term
        i = int(small.argmax())
        if small[i]:
            stop = start + i
            used = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
            totals = _compensated_totals(used[:, :stop]).tolist()
            value = totals[1] - totals[0] * totals[0] if second_moment else totals[0]
            return SeriesEstimate(value, _series_tail(a, q, stop, second_moment), stop)
        lo, hi = hi, 2 * hi - first
    raise SeriesCapError(
        f"{series} series for a={a}, q={spec.q} not certified within n_cap={policy.n_cap}"
    )


def expected_tests(spec: BankSpec, policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesEstimate:
    """Mean number of tests until every bank is covered.

    Sums P(coverage needs more than n tests) over n >= 0 under ``policy``.
    The returned estimate carries a certified bound on the discarded tail.
    """
    if spec.a == 1:
        return SeriesEstimate(1.0, 0.0, 1)
    return _moment_series(spec, policy, second_moment=False)


def variance_tests(spec: BankSpec, policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesEstimate:
    """Variance of the number of tests until every bank is covered.

    Uses E N^2 = sum over n of (2n+1) * P(N > n), with the same certified
    geometric tail treatment as :func:`expected_tests`.
    """
    if spec.a == 1:
        return SeriesEstimate(0.0, 0.0, 1)
    return _moment_series(spec, policy, second_moment=True)


def expected_tests_multisum(spec: BankSpec) -> float:
    """Closed-form alternating multi-sum for the mean; tiny specs only.

    Expands the expectation of a maximum by inclusion-exclusion over subsets
    of banks and over the per-bank alternating sums.  The term count grows
    like a**q, so the trusted range is a <= 6 and q <= 4.  Summed by
    ``math.fsum``, apart from the main path, as a check on :func:`expected_tests`.
    """
    a, q = spec.a, spec.q
    if a > _MULTISUM_MAX_A or q > _MULTISUM_MAX_Q:
        raise OracleRangeError(
            f"multi-sum trusted only for a <= {_MULTISUM_MAX_A} and q <= {_MULTISUM_MAX_Q}"
        )
    terms = []
    for m in range(1, q + 1):
        subsets = math.comb(q, m)
        for js in itertools.product(range(1, a + 1), repeat=m):
            binom = 1
            miss = 1.0
            for j in js:
                binom *= math.comb(a, j)
                miss *= (a - j) / a
            signed = -binom if sum(js) % 2 == 0 else binom
            terms.append(subsets * signed / (1.0 - miss))
    return math.fsum(terms)
