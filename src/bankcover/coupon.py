"""Exact distribution of the number of tests needed to cover question banks.

A generated test draws one question uniformly at random from each of ``q``
banks, every bank holding ``a`` interchangeable alternatives.  The waiting
time until a single bank has shown all of its alternatives is the classic
collector time Y with E Y = a * H_a; the time until every bank is covered is
the maximum of q independent copies of Y.  Everything here is evaluated with
certified error bounds: probabilities come back as :class:`ProbValue`, series
sums as :class:`SeriesEstimate`, both slotted frozen value objects.

The single-bank curve S(y) = 1 - F(y) depends on ``a`` alone, so every entry
point here reads it from one cache: the curve and its error bounds are
computed 256 test counts at a time (one block), bit for bit as a per-y
compensated sum would give them, and kept as one flat read-only buffer per
block, S, its bound, F and its bound end to end (about 8.7 KiB a block; at
most 512 blocks, under 4.5 MiB; the variance series for every a in 2..64 at
q = 1e6 reads 475).  The first touch of a block costs 1.5 to 3 ms at a = 64
(about 6 ms for block 0, which holds the exact-integer cells) against about
0.06 ms for one lone point; every later read is an index giving a Python
float, and each entry point reads only the cells it returns, after one
guard on its arguments.  The q-bank cdf and pmf share one float kernel, so
a pmf reads two cdf cells and builds one :class:`ProbValue`.  Past the first
y where every term of the closed form underflows, the curve is the constant
tail S = 0, F = 1 and needs no block.

The mean and variance series sum P(N > n) = -expm1(q * log1p(-S(n))),
weighted by 2n+1 for the second moment, until a term is small and a
geometric bound on the rest is certified.  That bound never increases with
n, so where it is first met is found before any term, by one root solve in
logarithms and a walk up of a few steps, and a bound that still fails at the
term cap raises there; so does an ``eps_term`` whose 10 * eps_term lies
below the smallest normal float, the least value a bound takes.  A second
solve, on the union bound P(N > n) <= q * a * ((a-1)/a)**n, says how far the
terms must reach, so they are formed in one pass.  One kernel serves every q of a table at one bank
size a: S(n) and log1p(-S(n)) are formed once per a and shared, while each q
keeps its own ``expm1`` cells, its own stop and its own tail bound (``log1p``
and ``expm1`` from the platform libm, fed straight from array buffers).
Only the cells between the leading S = 1 run, whose terms are 1.0, and the
constant tail, whose terms are 0.0, take a logarithm.  A single call is a
sweep over one q, and its fixed cost is a few numpy calls per stage.

Every compensated sum of the main path, the closed form of each block row
and the series rows of every q at one a, is one replay of Neumaier's loop:
two strictly ordered running-sum passes, one for the running sum and one
for the exact rounding errors of its additions.  It gives, bit for bit, what
a term-by-term loop gives; the series rows are zero-padded past their
stops, which leaves each total alone.  The oracles share no code with the
main path: :func:`cdf_oracle` counts surjections in integers and
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
# The survival curve is computed and cached this many test counts at a time.
_BLOCK = 256
_BLOCK_CACHE_SIZE = 512
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
            raise InvalidSpecError(
                f"need a >= 1 and q >= 1, got a={_shown(self.a)}, q={_shown(self.q)}")
        _check_gated_bank_size(self.a)


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
            raise InvalidSpecError(
                f"eps_term must lie in (0, 1), got {_shown(self.eps_term, str)}")
        if not isinstance(self.n_cap, int) or self.n_cap < 1:
            raise InvalidSpecError(f"n_cap must be an integer >= 1, got {_shown(self.n_cap, str)}")


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True, slots=True)
class ProbValue:
    """A probability together with a certified absolute error bound.

    Every point read returns one, and a caller may keep many (a survival
    sweep, a pmf window), so the class has slots: no per-instance
    ``__dict__``, 48 bytes an instance against 88 (CPython 3.11).  The
    dataclass ``__init__`` of a frozen class sets each field through
    ``object.__setattr__``, which cost about half of a whole curve read;
    this one validates, then fills the two slots through their member
    descriptors (``ProbValue.p.__set__``), which bypass the frozen
    ``__setattr__``.  Assignment still raises ``FrozenInstanceError``, and
    equality, hash and repr are the dataclass's.
    """

    p: float
    abs_err: float

    def __init__(self, p: float, abs_err: float) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability out of range: {p}")
        if not abs_err >= 0.0:
            raise ValueError(f"error bound must be nonnegative, got {abs_err}")
        _set_p(self, p)
        _set_abs_err(self, abs_err)

    def __float__(self) -> float:
        return self.p


_set_p, _set_abs_err = ProbValue.p.__set__, ProbValue.abs_err.__set__


@dataclass(frozen=True, slots=True)
class SeriesEstimate:
    """Partial series sum plus a certified bound on the truncated tail."""

    value: float
    tail_bound: float
    terms: int

    def __float__(self) -> float:
        return self.value


def _shown(value, text=repr) -> str:
    """``text(value)``, or for an int too long to print in decimal, its size."""
    try:
        return text(value)
    except ValueError:  # past sys.get_int_max_str_digits()
        return f"{'-' if value < 0 else ''}<int of {value.bit_length()} bits>"


def _check_bank_size(a: int) -> None:
    if not isinstance(a, int):
        raise InvalidSpecError(f"a must be an integer, got {a!r}")
    if a < 1:
        raise InvalidSpecError(f"need a >= 1, got {_shown(a)}")


def _check_gated_bank_size(a: int) -> None:
    _check_bank_size(a)
    if a > MAX_ALTERNATIVES:
        raise UnsupportedAlternativesError(
            f"a={_shown(a)} exceeds the supported maximum of {MAX_ALTERNATIVES} alternatives"
        )


def _check_test_count(y: int, minimum: int = 0) -> None:
    if not isinstance(y, int):
        raise InvalidSpecError(f"test count must be an integer, got {y!r}")
    if y < minimum:
        raise InvalidSpecError(f"test count must be >= {minimum}, got {_shown(y)}")


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
    of its sign (a bank count q or a Gumbel lag)."""
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


def _frozen(values: np.ndarray) -> memoryview:
    values.flags.writeable = False  # the cache hands the buffer to every caller
    return memoryview(values)


@functools.lru_cache(maxsize=_BLOCK_CACHE_SIZE)
def _survival_block(a: int, j: int) -> memoryview:
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

    The four curves lie end to end in one read-only ``memoryview`` of
    4 * _BLOCK doubles, about 8.7 KiB with its array, view and cache entry:
    y's S, bound, F and bound are at i + k * _BLOCK, k = 0..3, i = y % _BLOCK.
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
    block = np.zeros(4 * _BLOCK)
    curves = block.reshape(4, _BLOCK)
    curves[0, :start - lo] = 1.0  # S = 1, F = 0 exactly below y = a
    err = bound + _ULP
    curves[:, start - lo:] = np.clip(p, 0.0, 1.0), err, np.clip(1.0 - p, 0.0, 1.0), err + _ULP
    surv, surv_err, cdf, cdf_err = curves[:, start - lo:]
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
    return _frozen(block)


# Laid out as blocks: from _tail_start(a) on, S = 0 and F = 1 with bounds ulp and
# 2 ulp; at a = 1, S = 1 at y = 0 (index 0), 0 from y = 1 on (index 1), F = 1 - S.
_TAIL_BLOCK = _frozen(np.repeat((0.0, _ULP, 1.0, 2 * _ULP), _BLOCK))
_ONE_BANK_BLOCK = _frozen(np.repeat((1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0), (1, _BLOCK - 1) * 4))


def _curve_cells(a: int, y: int) -> tuple[memoryview, int]:
    """The block holding S(y), its bound, F(y) and its bound for one bank at
    i + k * _BLOCK, k = 0..3, and y's index i in it."""
    if a == 1:
        return _ONE_BANK_BLOCK, min(y, 1)
    if y >= _tail_start(a):
        return _TAIL_BLOCK, 0
    return _survival_block(a, y // _BLOCK), y % _BLOCK


def single_bank_survival(a: int, y: int) -> ProbValue:
    """P(some alternative of one bank is still unseen after ``y`` tests)."""
    # one guard passes every valid pair; the full checks run only for a pair
    # it stops, and raise what they always did, in the same order (a bool
    # passes them, as an int does)
    if type(a) is not int or type(y) is not int or not 0 < a <= MAX_ALTERNATIVES or y < 0:
        _check_gated_bank_size(a)
        _check_test_count(y)
    b, i = _curve_cells(a, y)
    return ProbValue(b[i], b[i + _BLOCK])


def single_bank_cdf(a: int, y: int) -> ProbValue:
    """P(one bank of ``a`` alternatives is fully covered within ``y`` tests).

    Exactly zero for y < a.
    """
    if type(a) is not int or type(y) is not int or not 0 < a <= MAX_ALTERNATIVES or y < 0:
        _check_gated_bank_size(a)  # as in single_bank_survival
        _check_test_count(y)
    b, i = _curve_cells(a, y)
    return ProbValue(b[i + 2 * _BLOCK], b[i + 3 * _BLOCK])


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


def _count_cdf(a: int, q: float, n: int) -> tuple[float, float]:
    """The q-bank cdf at a valid test count ``n`` and its error bound, for a
    bank count ``q`` already saturated to a float."""
    if n < a:
        return 0.0, 0.0
    if a == 1:
        return 1.0, 0.0
    b, i = _curve_cells(a, n)
    s, f, f_err = b[i], b[i + 2 * _BLOCK], b[i + 3 * _BLOCK]
    if s == 0.0:
        p = 1.0  # what exp(q * log1p(-s)) gives, without inf * 0 at q = inf
    elif s < 0.5:
        p = math.exp(q * math.log1p(-s))
    else:
        p = f ** q
    return p, min(1.0, q * f_err + _ULP)


def test_count_cdf(spec: BankSpec, n: int) -> ProbValue:
    """P(all ``q`` banks are covered within the first ``n`` tests).

    The q banks are independent, so this is the q-th power of the single-bank
    cdf; the power is taken through ``log1p`` when the single-bank survival is
    small enough for direct powering to lose accuracy.  A q beyond the float
    range counts as +inf, and the error bound is then 1.
    """
    _check_test_count(n)
    return ProbValue(*_count_cdf(spec.a, _saturating_float(spec.q), n))


def test_count_pmf(spec: BankSpec, n: int) -> ProbValue:
    """P(full coverage happens exactly at test ``n``): the cdf difference at
    n and n - 1, with the sum of their error bounds."""
    _check_test_count(n, minimum=1)
    a, q = spec.a, _saturating_float(spec.q)
    hi, hi_err = _count_cdf(a, q, n)
    lo, lo_err = _count_cdf(a, q, n - 1)
    diff = hi - lo
    if diff < 0.0:
        if diff < -_PMF_CLAMP:
            raise ArithmeticError(
                f"cdf difference {diff} at n={n} is negative beyond round-off"
            )
        diff = 0.0
    return ProbValue(diff, hi_err + lo_err)


# library functions, not tests; keep pytest from collecting them by name
test_count_cdf.__test__ = False  # type: ignore[attr-defined]
test_count_pmf.__test__ = False  # type: ignore[attr-defined]


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


def _crossing(a: int, q: float, scale: float, limit: float, offset: int | None) -> float:
    """The real n at which scale * q * decay**n, times 2n + offset when an
    offset is given, falls to ``limit``, decay = (a-1)/a.

    Solved in logarithms, with the exponent raised by 1e-9 as in
    :func:`_tail_from_logs` and three fixed-point steps for the weight; they
    start below the root and climb towards it, so the result is past the
    exact root by less than 1e-7 steps: the slack moves it by
    1e-9 / log(a/(a-1)), and rounding by far less.
    """
    steps = -math.log((a - 1) / a)
    excess = math.log(scale) + math.log(q) - math.log(limit) + 1e-9
    n = excess / steps
    if offset is not None:
        for _ in range(3):
            n = (excess + math.log(2.0 * n + offset)) / steps
    return n


@functools.cache
def _leading_ones(a: int) -> int:
    """How many cells of the curve, from y = 0 on, have S(y) exactly 1.0.

    They are y < a, and for large a a few y past it where F(y) rounds to 0,
    and no later S(y) is 1.0.  In block 0 the tests check this for every a;
    past it, the exact S is below S(255), which is at most 0.71 for a <= 64,
    and no cell is off by more than 1e-13 (``_EXACT_SWITCH``).
    """
    return int((np.frombuffer(_survival_block(a, 0), float, _BLOCK) < 1.0).argmax())


def _coverage_terms(a: int, counts: list[float], ends: list[int], rows: np.ndarray) -> None:
    """Row i of ``rows``, zero on entry, gets P(N > n) = 1 - (1 - S(n))**q
    as -expm1(q * log1p(-S(n))) for q = counts[i], over n in [0, ends[i]).

    Where S(n) is 1.0 (the first :func:`_leading_ones` cells) the term is its
    limit 1.0, with no logarithm: math.log1p(-1) is a domain error.  From
    ``_tail_start(a)`` on, S(n) is 0.0 and the term 0.0, so those cells are
    left as they are.  In between, -S is read from the cached blocks once;
    log1p(-S(n)) does not depend on q, so it is formed once and shared, and
    each q has its own ``expm1`` cells.  ``log1p`` and ``expm1`` come from
    ``math`` (the platform libm; numpy's own may round differently) and read
    their arguments straight from array buffers.  Every term lies in [0, 1]
    and none is -0.0.
    """
    cut = min(max(ends), _tail_start(a))
    lead = min(_leading_ones(a), cut)
    neg = np.empty(cut)
    for lo in range(0, cut, _BLOCK):
        top = min(cut, lo + _BLOCK)
        np.negative(np.frombuffer(_survival_block(a, lo // _BLOCK), float, top - lo),
                    out=neg[lo:top])
    logs = np.fromiter(map(math.log1p, neg[lead:].data), float, cut - lead)  # from n = lead on
    # |log1p(-S)| < 37 here, so a product overflows only past q = 4.9e306, to
    # -inf, as a float product does, and the term is then 1.0
    with np.errstate(over="ignore"):
        for row, count, end in zip(rows, counts, ends):
            row[:min(lead, end)] = 1.0
            width = max(min(cut, end) - lead, 0)
            np.negative(np.fromiter(map(math.expm1, (count * logs[:width]).data), float, width),
                        out=row[lead:lead + width])


def _compensated_totals(rows: np.ndarray) -> np.ndarray:
    """What a Neumaier loop started at s = c = 0.0 returns for each row.

    Neumaier's correction for s + x is the exact rounding error of that
    addition, and so is Knuth's branch-free TwoSum for any two floats, so
    one pass serves signed and unsigned rows alike.  ``np.add.accumulate``
    (what ``cumsum`` calls, at half its fixed cost) adds strictly left to
    right, so it replays the running sum and then the sum of the per-step
    errors exactly (``np.sum`` adds pairwise and would not).  The running
    sum starts at 0.0, so the first step is replayed too; a row must not
    start with -0.0, since the loop's 0.0 + -0.0 is +0.0.
    """
    running = np.zeros((len(rows), rows.shape[1] + 1))
    before, after = running[:, :-1], running[:, 1:]
    np.add.accumulate(rows, axis=1, out=after)
    moved = after - before
    low = after - moved
    np.subtract(before, low, out=low)
    np.subtract(rows, moved, out=moved)
    low += moved
    return after[:, -1] + np.add.accumulate(low, axis=1, out=low)[:, -1]


def _moment_series(
    a: int, qs: tuple[int, ...], second_moment: bool, policy: TruncationPolicy = DEFAULT_POLICY
) -> list[SeriesEstimate]:
    """The mean or the variance series at bank size ``a``, one for each q in ``qs``.

    Term n is P(N > n), weighted by 2n+1 for the second moment.  Each sum
    stops at the first n whose weighted term is below ``eps_term`` and whose
    tail bound is at most ``10 * eps_term``; as the bound never increases,
    that is the first small term at or after the least n the bound certifies.
    :func:`_crossing` places both that n and the end of the term window.  A
    q whose bound still fails at ``n_cap`` raises before any term is formed.
    The terms of every q come from one :func:`_coverage_terms` call, and
    every row is summed by one compensated replay, zero-padded past its stop:
    a trailing +0.0 leaves the replay's total alone, so each q gets what a
    call for it alone gives.
    """
    series = "variance" if second_moment else "mean"
    if a == 1:
        return [SeriesEstimate(0.0 if second_moment else 1.0, 0.0, 1)] * len(qs)
    eps, n_cap, m = policy.eps_term, policy.n_cap, len(qs)
    limit = 10.0 * eps
    # the tail bound is 2a**3/(a-1) * q * decay**n, times 2n + 2a - 1 for the variance
    scale, offset = 2.0 * a ** 3 / (a - 1), (2 * a - 1 if second_moment else None)
    uncertified = f"{series} series for a={a}, q={{}} not certified within n_cap={n_cap}"
    counts, firsts, ends = [], [], []
    for q in qs:
        count = _saturating_float(q)
        if count == math.inf:  # the mean lies beyond the last representable survival
            raise SeriesCapError(
                f"{series} series for a={a} not certified: q is beyond the float range")
        if limit < _MIN_NORMAL:  # the bound never goes below the smallest normal float
            raise SeriesCapError(
                f"{series} series for a={a} not certified: eps_term={eps!r} asks for a tail "
                f"bound of at most 10 * eps_term, below the smallest normal float "
                f"{_MIN_NORMAL!r}, and no tail bound is that small, so no n_cap can certify it")
        # Walk up from two steps short of the root: ceil(root) is at most one
        # step past the exact root, so two steps earlier the exact bound
        # exceeds the limit by at least its per-step factor (see
        # _series_tail), far above rounding and the 1e-9 slack, and the walk
        # ends at the least n the float bound meets.
        first = max(math.ceil(_crossing(a, count, scale, limit, offset)) - 2, 0)
        while first <= n_cap and _series_tail(a, count, first, second_moment) > limit:
            first += 1
        if first > n_cap:
            raise SeriesCapError(uncertified.format(q))
        # P(N > n) <= q * S(n) <= q * a * decay**n.  That bound, times 2n+1
        # for the variance, starts above eps and has one peak, so it stays
        # below eps / 2 past this crossing, and every series stops by it; the
        # factor 2 covers the terms' rounding and a fixed point one step
        # short.  The end is not first + 1: a few steps short of
        # _tail_start(a), S(n) is a subnormal of a few ulps that rounds up by
        # as much as 2x, and the first small term can lie three steps past first.
        end = math.ceil(_crossing(a, count, a, 0.5 * eps, 1 if second_moment else None))
        counts.append(count)
        firsts.append(first)
        ends.append(min(max(first, end), n_cap) + 1)
    hi = max(ends)
    # rows i < m hold the terms of qs[i]; for the variance, row m + i its weighted terms
    rows = np.zeros((2 * m if second_moment else m, hi))
    _coverage_terms(a, counts, ends, rows)
    if second_moment:
        np.multiply(rows[:m], np.arange(1.0, 2 * hi, 2.0), out=rows[m:])
    stops = []
    for i, (q, first, end) in enumerate(zip(qs, firsts, ends)):
        # the first small term is almost always at first, else one step on
        stop, weighted = first, m + i if second_moment else i
        while stop < end and not rows.item(weighted, stop) < eps:
            stop += 1
        if stop == end:
            raise SeriesCapError(uncertified.format(q))
        stops.append(stop)
    width = max(stops)
    for i, stop in enumerate(stops):
        if stop < width:
            rows[i::m, stop:width] = 0.0  # row i, and row m + i of the variance
    totals = _compensated_totals(rows[:, :width]).tolist()
    values = [t2 - t * t for t, t2 in zip(totals, totals[m:])] if second_moment else totals
    return [SeriesEstimate(value, _series_tail(a, count, stop, second_moment), stop)
            for value, count, stop in zip(values, counts, stops)]


def expected_tests(spec: BankSpec, policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesEstimate:
    """Mean number of tests until every bank is covered.

    Sums P(coverage needs more than n tests) over n >= 0 under ``policy``.
    The returned estimate carries a certified bound on the discarded tail.
    """
    return _moment_series(spec.a, (spec.q,), False, policy)[0]


def variance_tests(spec: BankSpec, policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesEstimate:
    """Variance of the number of tests until every bank is covered.

    Uses E N^2 = sum over n of (2n+1) * P(N > n), with the same certified
    geometric tail treatment as :func:`expected_tests`.  ``tail_bound``
    covers that truncation only, not rounding, which E N^2 - mean**2
    magnifies: at q = 1 the value misses it for 21 of the bank sizes
    a = 2..64, worst at a = 57 (error 4.79e-11, bound 9.90e-12).  The strict
    xfail ``test_single_bank_variance_within_its_tail_bound`` records this.
    """
    return _moment_series(spec.a, (spec.q,), True, policy)[0]


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
