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
block, five rows end to end: S, its bound, F, its bound and log1p(-S), that
log1p formed once per block (about 10.7 KiB a block; at most 512 blocks,
under 5.5 MiB; the variance series for every a in 2..64 at q = 1e6 reads
475).  The first touch of a block costs 1.5 to 3 ms at a = 64 (about 6 ms
for block 0, which holds the exact-integer cells) against about 0.06 ms for
one lone point.  Past the first y where every term of the closed form
underflows, the curve is the constant tail S = 0, F = 1 and needs no block;
that y is kept per a in a table built at import.  So a point read is one
guard on its arguments, one lookup (the table, then a cached row of ready
values) and one index.  Each row holds the S or the F of one block as 256
shared frozen :class:`ProbValue` instances, filled slot by slot from cells
whose range checks ran once for the whole block when it was filled (about
26.8 KB and 80 us a row, on top of the block's fill; at most 256 rows, under
7 MiB); the tail and a = 1 read constants.  The q-bank cdf and pmf depend on
q, so they share one float kernel that reads one cdf cell from the block
and build one value a call; a pmf reads its two cells, n and n - 1, with
two calls.

The mean and variance series sum P(N > n) = -expm1(q * log1p(-S(n))),
weighted by 2n+1 for the second moment, until a term is small and a
geometric bound on the rest is certified.  That bound is one line per q in
logarithms, c - r*n (plus log(2n + 2a - 1) for the variance), raised by
1e-9 to stay a bound.  It never increases with n, so where it first meets
the limit is found before any term, by one root solve on the line and a
walk up of a step or two along it, and a bound that still fails at the
term cap raises there; so does an ``eps_term`` whose 10 * eps_term lies
below the smallest normal float, the least value a bound takes.  The same
solve on the union bound P(N > n) <= q * a * ((a-1)/a)**n, a line with its
own constant, says how far the terms must reach, so they are formed in one
pass.  One kernel (:func:`_series`) sums both moments of every q at one
bank size a: log1p(-S(n)) is read from the blocks once per call and
shared, while each q keeps its own ``expm1`` cells (the platform libm, fed
straight from an array buffer: one libm call a term), its own stops and its
own tail bounds, the line read at each stop.  Where S is exactly 1.0 the
stored logarithm is -inf and the term expm1's limit, 1.0; the constant
tail's terms are 0.0 and take none.  Each moment reads its sum from the
replay at its own stop, since the replay adds strictly left to right, so
the mean comes from the pass that forms the variance's unweighted row.
:func:`expected_tests` and :func:`variance_tests` ask it for both moments
of one spec, kept in a one-entry memo, so the second of the two calls for
one spec and policy is a lookup and a lone mean costs a variance pass; the
tables and the quick checks ask it for the means of all the q of a bank
size.

Every compensated sum of the main path, the closed form of each block row
and the series rows of every q at one a, is one replay of Neumaier's loop:
two strictly ordered running-sum passes, one for the running sum and one
for the exact rounding errors of its additions.  Each column gives, bit for
bit, what a term-by-term loop stopped there gives: a block row is read at
its last column, a series at its stop.  The oracles share no code with the
main path: :func:`cdf_oracle` counts surjections in integers and
:func:`expected_tests_multisum` sums with ``math.fsum``.
"""

from __future__ import annotations

import bisect
import contextlib
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
# Past this bank count, q * log1p(-S) can overflow (|log1p(-S)| < 37 where finite).
_OVERFLOW_COUNT = sys.float_info.max / 37.0
_UNGUARDED = contextlib.nullcontext()  # reusable: it holds no state
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
    dataclass ``__init__`` runs the range checks of ``__post_init__``.
    :func:`_value` skips both: it fills the slots of a bare instance through
    their member descriptors (``ProbValue.p.__set__``, which bypass the
    frozen ``__setattr__``).  It builds the cached rows of the single-bank
    reads from cells that the same checks passed once per curve block, so
    those reads return shared instances, the same object for the same
    point; only the q-bank cdf and pmf, whose cells lie in [0, 1] by
    construction, build one per call.  Assignment still raises
    ``FrozenInstanceError``, and equality, hash and repr are the
    dataclass's.
    """

    p: float
    abs_err: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"probability out of range: {self.p}")
        if not self.abs_err >= 0.0:
            raise ValueError(f"error bound must be nonnegative, got {self.abs_err}")

    def __float__(self) -> float:
        return self.p


_new, _set_p, _set_abs_err = object.__new__, ProbValue.p.__set__, ProbValue.abs_err.__set__


def _value(p: float, abs_err: float) -> ProbValue:
    """A ProbValue filled slot by slot, for cells that passed its checks
    already or lie in range by construction."""
    value = _new(ProbValue)
    _set_p(value, p)
    _set_abs_err(value, abs_err)
    return value


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
    ascending index order.  Gated at ``MAX_ALTERNATIVES`` like every other
    entry point.
    """
    _check_gated_bank_size(a)
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


def _tail_start(a: int) -> int:
    """First y at which ((a-1)/a)**y, the largest term of the closed form,
    underflows to 0.0; from there on every term does."""
    r = (a - 1) / a
    # r**hi <= 2**-1100 lies far below half the least subnormal (2**-1075),
    # so r**hi is 0.0 and the first zero power is at most hi
    hi = math.ceil(1100 / -math.log2(r))
    return bisect.bisect_left(range(hi), True, key=lambda y: r ** y == 0.0)


# _tail_start(a) at index a, built once (about 0.5 ms); a = 1 holds 0, as its
# two-cell curve lies outside the blocks
_TAIL_STARTS = (0, 0) + tuple(_tail_start(a) for a in range(2, MAX_ALTERNATIVES + 1))


def _frozen(values: np.ndarray) -> memoryview:
    values.flags.writeable = False  # the cache hands the buffer to every caller
    return memoryview(values)


@functools.lru_cache(maxsize=_BLOCK_CACHE_SIZE)
def _survival_block(a: int, j: int) -> memoryview:
    """S(y), its error bound, F(y), its error bound and log1p(-S(y)) for y in
    one block.

    The block is y in [_BLOCK * j, _BLOCK * (j + 1)) and a >= 2.  The
    alternating closed form S(y) = sum_k (-1)^(k+1) C(a, k) ((a-k)/a)^y is
    laid out as one row of signed terms per y, in k order, and summed by the
    same compensated replay as the series (:func:`_compensated_running`,
    read at its last column), so every value and bound is a lone per-y
    Neumaier sum's, bit for bit.
    The powers come from Python's ``float.__pow__`` (the platform libm);
    ``np.power`` may round differently.  Each term carries about y ulps of
    relative error through the power, so the bound is
    (y + 2a + 10) ulp times the sum of the term magnitudes.  Where that bound
    exceeds ``_EXACT_SWITCH`` the cell is redone in exact integers; the int
    true division rounds correctly, as ``float(Fraction)`` does.  Then
    log1p(-S(y)) is formed once per block, from the final S, with ``math.log1p``
    (numpy's may round differently), and is -inf where S is exactly 1.0.
    Before that, every S and F must lie in [0, 1] and every bound be >= 0,
    the checks of ``ProbValue.__post_init__``, or the fill raises and caches
    nothing, and no row of values is built from it; the point reads rely on
    them.

    The five rows lie end to end in one read-only ``memoryview`` of
    5 * _BLOCK doubles, about 10.7 KiB with its array, view and cache entry:
    y's S, bound, F, bound and log1p(-S) are at i + k * _BLOCK, k = 0..4,
    i = y % _BLOCK.
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
    sums, lows = _compensated_running(rows)
    p = sums[:, -1] + lows[:, -1]
    slack = np.arange(start + 2 * a + 10, lo + _BLOCK + 2 * a + 10, dtype=float)  # y + 2a + 10
    bound = slack * _ULP * magnitude
    block = np.zeros(5 * _BLOCK)
    curves = block.reshape(5, _BLOCK)
    curves[0, :start - lo] = 1.0  # S = 1, F = 0 exactly below y = a
    err = bound + _ULP
    curves[:4, start - lo:] = np.clip(p, 0.0, 1.0), err, np.clip(1.0 - p, 0.0, 1.0), err + _ULP
    surv, surv_err, cdf, cdf_err = curves[:4, start - lo:]
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
    # the rows of ready values (_point_row) are filled from these cells
    # unchecked, so the checks of ProbValue.__post_init__ run here, once for
    # the whole block
    probs, bounds = curves[0:4:2], curves[1:4:2]
    if not ((probs >= 0.0) & (probs <= 1.0)).all():
        raise ValueError(f"probability out of range in the curve block a={a}, j={j}")
    if not (bounds >= 0.0).all():
        raise ValueError(f"error bound must be nonnegative in the curve block a={a}, j={j}")
    # log1p(-1) is a domain error; its limit -inf gives those terms exactly 1.0
    below = curves[0] < 1.0
    curves[4] = -math.inf
    curves[4, below] = np.fromiter(map(math.log1p, (-curves[0, below]).data), float)
    return _frozen(block)


# Laid out as a block: from _TAIL_STARTS[a] on, S = 0 and F = 1 with bounds ulp
# and 2 ulp, and log1p(-S) is -0.0
_TAIL_BLOCK = _frozen(np.repeat((0.0, _ULP, 1.0, 2 * _ULP, -0.0), _BLOCK))
# what the point reads return there, and at a = 1, whose S is 1 at y = 0 and 0
# from y = 1 on, exactly
_TAIL_S, _TAIL_F = ProbValue(0.0, _ULP), ProbValue(1.0, 2 * _ULP)
_ONE_BANK_S = ProbValue(1.0, 0.0), ProbValue(0.0, 0.0)
_ONE_BANK_F = _ONE_BANK_S[::-1]
# The point reads index ready rows of values, each the S or the F of one block
# (about 26.8 KB and 80 us a row): at most 256 rows, under 7 MiB, so that the
# 157 rows the exact_queries benchmark reads at seed 1 stay cached together.
_ROW_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_ROW_CACHE_SIZE)
def _point_row(a: int, j: int, row: int) -> tuple[ProbValue, ...]:
    """The values of curve block (a, j) at row 0 (S) or 2 (F), with their
    bounds from the next row: one frozen ProbValue per test count, built
    once and shared by every read of it."""
    cells = _survival_block(a, j).obj[row * _BLOCK:(row + 2) * _BLOCK]
    return tuple(map(_value, *cells.reshape(2, _BLOCK).tolist()))


def single_bank_survival(a: int, y: int) -> ProbValue:
    """P(some alternative of one bank is still unseen after ``y`` tests)."""
    # one guard passes every valid pair; the full checks run only for a pair
    # it stops, and raise what they always did, in the same order (a bool
    # passes them, as an int does)
    if type(a) is not int or type(y) is not int or not 0 < a <= MAX_ALTERNATIVES or y < 0:
        _check_gated_bank_size(a)
        _check_test_count(y)
    # one lookup: y's row of ready values, then its index there
    if y < _TAIL_STARTS[a]:
        return _point_row(a, y // _BLOCK, 0)[y % _BLOCK]
    return _ONE_BANK_S[min(y, 1)] if a == 1 else _TAIL_S


def single_bank_cdf(a: int, y: int) -> ProbValue:
    """P(one bank of ``a`` alternatives is fully covered within ``y`` tests).

    Exactly zero for y < a.
    """
    if type(a) is not int or type(y) is not int or not 0 < a <= MAX_ALTERNATIVES or y < 0:
        _check_gated_bank_size(a)  # as in single_bank_survival
        _check_test_count(y)
    if y < _TAIL_STARTS[a]:
        return _point_row(a, y // _BLOCK, 2)[y % _BLOCK]
    return _ONE_BANK_F[min(y, 1)] if a == 1 else _TAIL_F


def cdf_oracle(a: int, y: int) -> Fraction:
    """Exact coverage probability a! S2(y, a) / a**y from surjection counts.

    An O(a**2) integer triangle sharing no code with the closed form, kept
    for cross-checking.  Trusted range: a <= 12, y <= 200.  The triangle's
    row at y holds the count of every smaller bank size too: entry k over
    k**y is ``cdf_oracle(k, y)``, so one row serves a whole column of cells.
    """
    _check_bank_size(a)
    _check_test_count(y)
    if a > _ORACLE_MAX_A or y > _ORACLE_MAX_Y:
        raise OracleRangeError(
            f"oracle trusted only for a <= {_ORACLE_MAX_A} and y <= {_ORACLE_MAX_Y}"
        )
    return Fraction(_onto_row(a, y)[a], a ** y)


def _onto_row(a: int, y: int) -> list[int]:
    """[onto[0], ..., onto[a]]: onto[k] counts the length-y draws from k
    values that show all k.  Every draw shows exactly some j of them, so
    k**y = sum_j C(k, j) onto[j]."""
    onto: list[int] = []
    for k in range(a + 1):
        onto.append(k ** y - sum(math.comb(k, j) * onto[j] for j in range(k)))
    return onto


def _count_cell(a: int, q: float, y: int) -> tuple[float, float]:
    """The q-bank cdf at a valid test count ``y`` and its error bound, for a
    bank count ``q`` already saturated to a float."""
    if y < a:
        return 0.0, 0.0
    if a == 1:
        return 1.0, 0.0
    if y < _TAIL_STARTS[a]:
        b, i = _survival_block(a, y // _BLOCK), y % _BLOCK
    else:
        b, i = _TAIL_BLOCK, 0
    s = b[i]
    if s == 0.0:
        p = 1.0  # what exp(q * log1p(-s)) gives, without inf * 0 at q = inf
    elif s < 0.5:
        p = math.exp(q * b[i + 4 * _BLOCK])  # log1p(-s), formed with the block
    else:
        p = b[i + 2 * _BLOCK] ** q
    err = q * b[i + 3 * _BLOCK] + _ULP
    return p, (err if err < 1.0 else 1.0)  # min(1.0, err) without the call


def test_count_cdf(spec: BankSpec, n: int) -> ProbValue:
    """P(all ``q`` banks are covered within the first ``n`` tests).

    The q banks are independent, so this is the q-th power of the single-bank
    cdf; the power is taken through ``log1p`` when the single-bank survival is
    small enough for direct powering to lose accuracy.  A q beyond the float
    range counts as +inf, and the error bound is then 1.
    """
    if type(n) is not int or n < 0:
        _check_test_count(n)
    p, err = _count_cell(spec.a, _saturating_float(spec.q), n)
    # p is 0.0, 1.0, exp of a value <= 0 or a power of F in [0.5, 1], and the
    # bound 0.0 or a sum >= ulp capped at 1.0: ProbValue's checks would pass
    return _value(p, err)


def test_count_pmf(spec: BankSpec, n: int) -> ProbValue:
    """P(full coverage happens exactly at test ``n``): the cdf difference at
    n and n - 1, with the sum of their error bounds."""
    if type(n) is not int or n < 1:
        _check_test_count(n, minimum=1)
    a, q = spec.a, _saturating_float(spec.q)
    hi, hi_err = _count_cell(a, q, n)
    lo, lo_err = _count_cell(a, q, n - 1)
    diff = hi - lo
    if diff < 0.0:
        if diff < -_PMF_CLAMP:
            raise ArithmeticError(
                f"cdf difference {diff} at n={n} is negative beyond round-off"
            )
        diff = 0.0
    return _value(diff, hi_err + lo_err)  # two cdf cells in [0, 1] and their bounds


# library functions, not tests; keep pytest from collecting them by name
test_count_cdf.__test__ = False  # type: ignore[attr-defined]
test_count_pmf.__test__ = False  # type: ignore[attr-defined]


# (c, r, offset) of a tail line; see _tail_line
_Line = tuple[float, float, int | None]


def _tail_line(a: int, q: float, scale: float, offset: int | None) -> _Line:
    """The bound scale * q * decay**n, decay = (a-1)/a, times 2n + offset
    when an offset is given, as (c, r, offset): in logarithms it is the line
    c - r*n, plus log(2n + offset).

    c is raised by 1e-9, far above the rounding of the logarithms and of
    r*n for any n a series reaches, so the line stays a bound.
    """
    return math.log(scale) + math.log(q) + 1e-9, -math.log((a - 1) / a), offset


def _tail_bound(line: _Line, n: int) -> float:
    """The bound on ``line`` at test count ``n``: inf above the float
    range, and never below the smallest normal float, so never zero."""
    c, r, offset = line
    log_tail = c - r * n if offset is None else c - r * n + math.log(2 * n + offset)
    return math.inf if log_tail >= _LOG_MAX else max(math.exp(log_tail), _MIN_NORMAL)


def _crossing(line: _Line, limit: float) -> float:
    """The real n past the peak of ``line`` at which it falls to ``limit``.

    Solved in logarithms, with three fixed-point steps for the weight; they
    start below that root and climb towards it, so the result lies at or
    below it, up to rounding.
    """
    c, r, offset = line
    excess = c - math.log(limit)
    n = excess / r
    if offset is not None:
        for _ in range(3):
            n = (excess + math.log(2.0 * n + offset)) / r
    return n


def _least_certified(line: _Line, limit: float) -> int:
    """The least n >= 0 whose bound on a series' ``line`` is at most ``limit``.

    The series' exact bound strictly decreases in n, by a factor of at most
    (2a^2 - a - 1) / (2a^2 - a) per step with the variance's weight
    2n + 2a - 1, a relative step far above the rounding of the line, so the
    computed bound never increases with n either.  The solve and the walk
    read that one line, so the solved root and the first n where the bound
    meets the limit differ only by rounding, about 1e-10 steps: ceil(root)
    lies past that n only where the root is within rounding of an integer,
    and then by one step.  So the walk starts one step short of ceil(root)
    and climbs to the least n.
    """
    n = max(math.ceil(_crossing(line, limit)) - 1, 0)
    while _tail_bound(line, n) > limit:
        n += 1
    return n


def _coverage_terms(a: int, counts: tuple[float, ...], ends: tuple[int, ...],
                    rows: np.ndarray) -> None:
    """Row i of ``rows``, zero on entry, gets P(N > n) = 1 - (1 - S(n))**q
    as -expm1(q * log1p(-S(n))) for q = counts[i], over n in [0, ends[i]).

    log1p(-S(n)) does not depend on q, so it is formed once per block, when
    the block is filled, and read here from the blocks' last rows; each term
    costs one ``expm1`` (``math``, the platform libm; numpy's own may round
    differently), reading its arguments straight from an array buffer.  Where
    S(n) is 1.0 that row holds -inf, and the term is expm1's limit, exactly
    1.0.  From ``_TAIL_STARTS[a]`` on, S(n) is 0.0 and the term 0.0, so those
    cells are left as they are.  Every term lies in [0, 1] and none is -0.0.
    """
    cut = min(max(ends), _TAIL_STARTS[a])
    # the log row is the last _BLOCK doubles of each block's array, the
    # memoryview's .obj (a third of the cost of np.frombuffer on the view)
    views = [_survival_block(a, j).obj[4 * _BLOCK:] for j in range(-(-cut // _BLOCK))]
    logs = views[0] if len(views) == 1 else np.concatenate(views)
    # a product overflows only for q past _OVERFLOW_COUNT, to -inf as a float
    # product does, and the term is then 1.0
    with np.errstate(over="ignore") if max(counts) > _OVERFLOW_COUNT else _UNGUARDED:
        for row, count, end in zip(rows, counts, ends):
            width = min(cut, end)
            np.negative(np.fromiter(map(math.expm1, (count * logs[:width]).data), float, width),
                        out=row[:width])


def _compensated_running(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The running sums and running corrections of a Neumaier loop started at
    s = c = 0.0 over each row: their sum at column k is what the loop
    returns after the terms up to k.

    Neumaier's correction for s + x is the exact rounding error of that
    addition, and so is Knuth's branch-free TwoSum for any two floats, so
    one pass serves signed and unsigned rows alike.  ``np.add.accumulate``
    (what ``cumsum`` calls, at half its fixed cost) adds strictly left to
    right, so it replays the running sum and then the sum of the per-step
    errors exactly (``np.sum`` adds pairwise and would not); column k of
    both depends on the first k + 1 terms alone, so a loop stopped there
    gives the same bits.  The running sum starts at 0.0, so the first step
    is replayed too; a row must not start with -0.0, since the loop's
    0.0 + -0.0 is +0.0.
    """
    running = np.zeros((len(rows), rows.shape[1] + 1))
    before, after = running[:, :-1], running[:, 1:]
    np.add.accumulate(rows, axis=1, out=after)
    moved = after - before
    low = after - moved
    np.subtract(before, low, out=low)
    np.subtract(rows, moved, out=moved)
    low += moved
    return after, np.add.accumulate(low, axis=1, out=low)


def _uncertified(series: str, a: int, q: int, n_cap: int) -> str:
    return f"{series} series for a={a}, q={q} not certified within n_cap={n_cap}"


def _window(a: int, q: int, count: float, second_moment: bool, eps: float,
            n_cap: int) -> tuple[_Line, int, int] | str:
    """The tail line of q's mean or variance series, the least n that line
    certifies and the end of the term window, for q saturated to the float
    ``count``; or, where no term can help, the message of the series'
    failure."""
    series = "variance" if second_moment else "mean"
    limit = 10.0 * eps
    if count == math.inf:  # the mean lies beyond the last representable survival
        return f"{series} series for a={a} not certified: q is beyond the float range"
    if limit < _MIN_NORMAL:  # the bound never goes below the smallest normal float
        return (f"{series} series for a={a} not certified: eps_term={eps!r} asks for a tail "
                f"bound of at most 10 * eps_term, below the smallest normal float "
                f"{_MIN_NORMAL!r}, and no tail bound is that small, so no n_cap can certify it")
    # the tail bound is 2a**3/(a-1) * q * decay**n, times 2n + 2a - 1 for the variance
    line = _tail_line(a, count, 2.0 * a ** 3 / (a - 1), 2 * a - 1 if second_moment else None)
    first = _least_certified(line, limit)
    if first > n_cap:
        return _uncertified(series, a, q, n_cap)
    # P(N > n) <= q * S(n) <= q * a * decay**n.  That bound, times 2n+1 for
    # the variance, starts above eps and has one peak, so it stays below
    # eps / 2 past this crossing, and every series stops by it; the factor 2
    # covers the terms' rounding and a fixed point one step short.  The end
    # is not first + 1: a few steps short of _TAIL_STARTS[a], S(n) is a
    # subnormal of a few ulps that rounds up by as much as 2x, and the first
    # small term can lie three steps past first.
    reach = _tail_line(a, count, a, 1 if second_moment else None)
    end = math.ceil(_crossing(reach, 0.5 * eps))
    return line, first, min(max(first, end), n_cap) + 1


def _first_small(rows: np.ndarray, row: int, n: int, end: int, eps: float) -> int:
    """The first test count from ``n`` on, below ``end``, whose term in
    ``rows[row]`` is below ``eps``, else ``end``: almost always ``n``, the
    least certified, else one step on."""
    while n < end and not rows.item(row, n) < eps:
        n += 1
    return n


def _series(a: int, qs: tuple[int, ...], eps: float, n_cap: int,
            second_moment: bool) -> list[tuple[SeriesEstimate | str, ...]]:
    """For each q in ``qs`` at bank size ``a``, its mean and, with
    ``second_moment``, its variance; a series that cannot be certified is
    kept as the message it raises (see :func:`_certified`).

    Term n of the mean is P(N > n); the variance is E N^2, the sum of
    (2n+1) * P(N > n), less the square of the unweighted sum at the
    variance's stop.  Each sum stops at the first n whose term is below
    ``eps`` and whose tail bound is at most ``10 * eps``; as the bound never
    increases, that is the first small term at or after the least n the
    bound certifies.  That n and the end of the term window are found before
    any term is formed (:func:`_window`), and a series whose window fails is
    its message.  Each q's row of terms is formed once, out to the farthest
    of its windows that passed, by one :func:`_coverage_terms` call for
    every q, and the weighted rows follow.  One :func:`_compensated_running`
    call replays every row strictly left to right, so column stop - 1 of its
    running sums and corrections is, bit for bit, the loop stopped there:
    each moment reads its totals at its own stop, no row is padded past it,
    and each q gets what a call for it alone gives.
    """
    if a == 1:
        exact = SeriesEstimate(1.0, 0.0, 1), SeriesEstimate(0.0, 0.0, 1)
        return [exact[:1 + second_moment]] * len(qs)
    m = len(qs)
    counts = [_saturating_float(q) for q in qs]
    # window and row k * m + i are q_i's mean (k = 0) and variance (k = 1)
    windows = [_window(a, q, count, second, eps, n_cap)
               for second in (False, True)[:1 + second_moment] for q, count in zip(qs, counts)]
    reach = [w[2] if type(w) is tuple else 0 for w in windows]  # 0 where a window failed
    ends = list(map(max, reach[:m], reach[m:])) if second_moment else reach
    width = max(ends)
    rows = np.zeros((len(windows), width))
    if width:
        _coverage_terms(a, counts, ends, rows[:m])
        if second_moment:
            np.multiply(rows[:m], np.arange(1.0, 2 * width, 2.0), out=rows[m:])
    sums, lows = _compensated_running(rows)
    outcomes = []  # each moment's estimate, or the message of its failure
    for row, outcome in enumerate(windows):
        if type(outcome) is tuple:
            line, first, end = outcome
            stop = _first_small(rows, row, first, end, eps)
            if stop == end:
                outcome = _uncertified("variance" if row >= m else "mean", a, qs[row % m], n_cap)
            else:
                value = sums.item(row, stop - 1) + lows.item(row, stop - 1)
                if row >= m:  # E N^2 less the square of the unweighted sum at this stop
                    t = sums.item(row - m, stop - 1) + lows.item(row - m, stop - 1)
                    value -= t * t
                outcome = SeriesEstimate(value, _tail_bound(line, stop), stop)
        outcomes.append(outcome)
    return [tuple(outcomes[i::m]) for i in range(m)]


@functools.lru_cache(maxsize=1, typed=True)
def _moments(a: int, q: int, eps: float, n_cap: int) -> tuple[SeriesEstimate | str, ...]:
    """(mean, variance) of one spec from one :func:`_series` pass, kept
    for the other moment's call.

    The one entry is keyed by type too, so a bool and its int, which print
    differently in a message, are kept apart.  The callers ask for the two
    moments of one spec in turn; a larger memo would serve repeated specs
    rather than the pass.
    """
    return _series(a, (q,), eps, n_cap, True)[0]


def _certified(moment: SeriesEstimate | str) -> SeriesEstimate:
    if type(moment) is str:
        raise SeriesCapError(moment)  # a new instance on every call
    return moment


def expected_tests(spec: BankSpec, policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesEstimate:
    """Mean number of tests until every bank is covered.

    Sums P(coverage needs more than n tests) over n >= 0 under ``policy``.
    The returned estimate carries a certified bound on the discarded tail.
    It comes from one pass with :func:`variance_tests` of the same spec and
    policy (see :func:`_moments`), so a lone mean costs a variance pass,
    about 40% more than the mean alone, and the variance asked next is a
    lookup.
    """
    return _certified(_moments(spec.a, spec.q, policy.eps_term, policy.n_cap)[0])


def variance_tests(spec: BankSpec, policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesEstimate:
    """Variance of the number of tests until every bank is covered.

    Uses E N^2 = sum over n of (2n+1) * P(N > n), with the same certified
    geometric tail treatment as :func:`expected_tests`, in one pass with it
    (see :func:`_moments`): the mean asked next is a lookup.  ``tail_bound``
    covers that truncation only, not rounding, which E N^2 - mean**2
    magnifies: at q = 1 the value misses it for 21 of the bank sizes
    a = 2..64, worst at a = 57 (error 4.79e-11, bound 9.90e-12).  The strict
    xfail ``test_single_bank_variance_within_its_tail_bound`` records this.
    """
    return _certified(_moments(spec.a, spec.q, policy.eps_term, policy.n_cap)[1])


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
