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
475).  The first touch of a block costs 0.3 to 0.8 ms at a = 64 (about 3 ms
for block 0, which holds the exact-integer cells) against about 0.06 ms for
one lone point.  Past the first y where every term of the closed form
underflows, the curve is the constant tail S = 0, F = 1 and needs no block;
that y is kept per a in a table built at import.  So a point read is one
guard on its arguments, one lookup (the table, then a cached row of ready
values) and one index.  Each row holds the S or the F of one block as 256
shared frozen :class:`ProbValue` instances, filled slot by slot from cells
whose range checks ran once for the whole block when it was filled (about
26.8 KB and 80 us a row, on top of the block's fill; at most 256 rows, under
7 MiB); the tail and a = 1 read constants.  A caller that wants the
probabilities alone, as the oracle and envelope-witness checks do, copies
the F cells of the blocks (:func:`_cdf_cells`) and builds no value.  The
q-bank cdf and pmf depend on q, so they share one float kernel that reads
one cdf cell from the block and build one value a call; a pmf reads its
two cells, n and n - 1, with two calls.

The mean and variance series sum P(N > n) = -expm1(q * log1p(-S(n))),
weighted by 2n+1 for the second moment, and each stops at the least n
whose tail, by a certified geometric bound, is at most 1e-11
(``_LIMIT``, the one threshold of every series).  The bound is one line
per q in logarithms, c - r*n (plus log(2n + 2a - 1) for the variance),
raised by 1e-9 to stay a bound.  It never increases with n, so where it
first meets the limit is found before any term, by one root solve on the
line and a walk up of a step or two along it, and the terms before it
are formed in one pass.  No term count is capped: over the whole domain
(a <= 64, q below the float maximum) the longest series, the variance at
a = 64 and q at the float maximum, sums 47,981 terms.  A q that no float
can hold (from 2**1024 - 2**970 on) never reaches a series:
:class:`BankSpec` refuses it with ``InvalidSpecError``, so every count
here converts to a finite float.  One function (:func:`_windows`) solves
the lines of both moments of every q of a pass, root and walk; the
logarithm of the limit is formed once at import, the two that depend on
a alone once a pass, and log q once a q.  :func:`_tail_bound` is the one
definition of the bound, read by the walk and at each stop.  One kernel
(:func:`_series`) sums both moments of every q at one bank size a:
log1p(-S(n)) is read from the blocks once per call and shared, the
products q * log1p(-S(n)) of every q go through one ``expm1`` call (the
platform libm's, through numpy's scalar loop: :func:`_libm`), and each q
reads its sums at its own stops, with its own tail bounds, the line read
at each stop.  Where S is exactly 1.0 the stored logarithm is -inf and
the term expm1's limit, 1.0; the constant tail's terms are 0.0 and take
none.  Each moment reads its sum from the replay at its own stop, since
the replay adds strictly left to right, so the mean comes from the pass
that forms the variance's unweighted row.
:func:`expected_tests` and :func:`variance_tests` ask it for both moments
of one spec, kept in a one-entry memo, so the second of the two calls for
one spec is a lookup and a lone mean costs a variance pass; the
tables and the quick checks ask it for the means of all the q of a bank
size.

Every compensated sum of the main path, the closed form of each block row
and the series rows of every q at one a, replays Neumaier's loop in two
strictly ordered running-sum passes, one for the running sum and one for
the exact rounding errors of its additions.  Each column gives, bit for
bit, what a term-by-term loop stopped there gives: a block row is read at
its last column, a series at its stop.  One replay serves both
(:func:`_fast2sum_running`): its errors come from Dekker's Fast2Sum, two
operations a step, which gives the exact error of an addition wherever the
difference it forms, s - s_prev, is exact.  Dekker's exponent condition
guarantees that for the series rows, whose running sum dominates each
term; the signed block rows need not meet it, and the tests hold their
bytes to TwoSum's on every block of a = 2..64.  The oracles share no code
with the main path: :func:`cdf_oracle` counts surjections in integers and
:func:`expected_tests_multisum` sums with ``math.fsum``.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "MAX_ALTERNATIVES",
    "InvalidSpecError",
    "BankSpec",
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
_TINY = 2.0 ** -1074  # the least subnormal float
_LOG_MAX = math.log(sys.float_info.max)
# Past this bank count, q * log1p(-S) can overflow (|log1p(-S)| < 37 where finite).
_OVERFLOW_COUNT = sys.float_info.max / 37.0
# The least integer that float() cannot hold: half an ulp past the float
# maximum, where rounding goes up to 2**1024.  BankSpec refuses it.
_COUNT_LIMIT = 2 ** 1024 - 2 ** 970
_UNGUARDED = contextlib.nullcontext()  # reusable; np.errstate costs about 1.8 us a pass
# Float-path error bound above which the survival sum is redone exactly.
_EXACT_SWITCH = 1e-13
# The survival curve is computed and cached this many test counts at a time.
_BLOCK = 256
_BLOCK_CACHE_SIZE = 512
# Tolerated negative round-off in a cdf difference; anything worse is a bug.
_PMF_CLAMP = 1e-14
# Every series stops at the least n whose tail bound is at most this; its
# logarithm is the window solve's.
_LIMIT = 1e-11
_LOG_LIMIT = math.log(_LIMIT)


class InvalidSpecError(ValueError):
    """Parameters outside the supported domain, or outside an oracle's trusted range."""


@dataclass(frozen=True)
class BankSpec:
    """Test layout: ``q`` questions per test, each from a bank of ``a`` alternatives.

    The one check of the domain every spec reader shares: integers with
    1 <= a <= ``MAX_ALTERNATIVES`` and 1 <= q < 2**1024 - 2**970, the least
    integer that no float can hold.  q = 2**1024 - 2**970 - 1 rounds down to
    the float maximum and answers as it does.
    """

    a: int
    q: int

    def __post_init__(self) -> None:
        if not isinstance(self.a, int) or not isinstance(self.q, int):
            raise InvalidSpecError("a and q must be integers")
        if self.a < 1 or self.q < 1:
            raise InvalidSpecError(
                f"need a >= 1 and q >= 1, got a={_shown(self.a)}, q={_shown(self.q)}")
        _check_bank_size(self.a)
        if self.q >= _COUNT_LIMIT:
            raise InvalidSpecError("q is beyond the float range (q must be below 2**1024 - 2**970)")


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


def _shown(value) -> str:
    """``repr(value)``, or for an int or a Fraction too long to print in
    decimal, its size: the bits of its numerator, and of its denominator
    where that is not 1."""
    try:
        return repr(value)
    except ValueError:  # past sys.get_int_max_str_digits()
        numerator, denominator = value.as_integer_ratio()
        size = f"{numerator.bit_length()} bits"
        if denominator != 1:
            size += f" over {denominator.bit_length()} bits"
        return f"{'-' if value < 0 else ''}<{type(value).__name__} of {size}>"


def _check_bank_size(a: int) -> None:
    if not isinstance(a, int):
        raise InvalidSpecError(f"a must be an integer, got {a!r}")
    if a < 1:
        raise InvalidSpecError(f"need a >= 1, got {_shown(a)}")
    if a > MAX_ALTERNATIVES:
        raise InvalidSpecError(
            f"a={_shown(a)} exceeds the supported maximum of {MAX_ALTERNATIVES} alternatives"
        )


def _check_test_count(y: int, minimum: int = 0) -> None:
    if not isinstance(y, int):
        raise InvalidSpecError(f"test count must be an integer, got {y!r}")
    if y < minimum:
        raise InvalidSpecError(f"test count must be >= {minimum}, got {_shown(y)}")


def _check_spec(spec) -> None:
    if not isinstance(spec, BankSpec):
        raise InvalidSpecError(f"spec must be a BankSpec, got {_shown(spec)}")


def expected_single_bank(a: int) -> float:
    """Mean number of tests until one bank of ``a`` alternatives is covered.

    Equals ``a`` times the a-th harmonic number; the harmonic sum runs in
    ascending index order.  Gated at ``MAX_ALTERNATIVES`` like every other
    entry point.
    """
    _check_bank_size(a)
    h = 0.0
    for k in range(1, a + 1):
        h += 1.0 / k
    return a * h


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


def _libm(ufunc: np.ufunc, *operands: np.ndarray) -> np.ndarray:
    """``ufunc`` over contiguous 1-D float arrays of one length, each element
    bit for bit what the platform libm gives it: ``math.expm1``,
    ``math.log1p`` and ``float.__pow__`` call the same functions.

    numpy's contiguous loops for these ufuncs are its own SIMD code, which
    rounds differently; given reversed views and no ``out``, it runs its
    strided scalar loop, which calls libm, into a fresh array, here reversed
    back.  An ``out`` that is reversed too, or a 2-D operand reversed along
    its last axis, lets numpy flip every operand back to its SIMD loop, so
    operands are flattened first and no ``out`` is passed.  The tests hold
    the bits to ``math``'s on samples of what the library feeds each
    function; a numpy release that sends reversed views to SIMD code fails
    them.
    """
    return ufunc(*(x[::-1] for x in operands))[::-1]


@functools.lru_cache(maxsize=_BLOCK_CACHE_SIZE)
def _survival_block(a: int, j: int) -> memoryview:
    """S(y), its error bound, F(y), its error bound and log1p(-S(y)) for y in
    one block.

    The block is y in [_BLOCK * j, _BLOCK * (j + 1)) and a >= 2.  The
    alternating closed form S(y) = sum_k (-1)^(k+1) C(a, k) ((a-k)/a)^y is
    laid out as one row of signed terms per y, in k order, and summed by the
    compensated replay (:func:`_fast2sum_running`, read at its last column),
    so every value and bound is a lone per-y Neumaier sum's, bit for bit.
    The rows alternate in sign, so a term may outweigh the running sum
    before it, and Dekker's condition does not cover them; Fast2Sum's error
    is still exact wherever its s - s_prev is, and the tests check that the
    bytes are TwoSum's on every block of a = 2..64 below its tail start.
    The powers are the platform libm's ``pow``, the bits of Python's
    ``float.__pow__``, formed by one :func:`_libm` call over every column
    whose first power does not underflow.  Each term carries about y ulps of
    relative error through the power, so the bound is
    (y + 2a + 10) ulp times the sum of the term magnitudes, plus a floor for
    the final rounding, relative where S is normal and a multiple of the
    least subnormal where it is not: max(ulp * S, a * 2**-1074), since each
    of the terms that add to a subnormal S rounds by up to half a unit of
    2**-1074 (the tests hold it to exact integers on every subnormal cell of
    a = 2..64).  Where the first part exceeds ``_EXACT_SWITCH`` the cell is
    redone in exact integers, with the floor as its S bound and an ulp as
    its F bound; the int true division rounds correctly, as
    ``float(Fraction)`` does.  Then
    log1p(-S(y)) is formed once per block, from the final S, with the
    platform libm's ``log1p`` (:func:`_libm`, the bits of ``math.log1p``),
    and is -inf where S is exactly 1.0.
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
    ys = np.arange(start, lo + _BLOCK, dtype=float)
    m = len(ys)
    # r**y only falls with y, and r with k, so the columns whose first power
    # underflows stay zero, and they are the last
    ratios = [r for r in ((a - k) / a for k in range(1, a + 1)) if r ** start]
    live = len(ratios)
    powers = _libm(np.power, np.repeat(ratios, m), np.tile(ys, live)).reshape(live, m)
    rows = np.zeros((m, a))  # row y holds C(a, k) ((a-k)/a)^y for k = 1..a
    np.multiply(powers.T, [float(math.comb(a, k)) for k in range(1, live + 1)],
                out=rows[:, :live])
    magnitude = rows.cumsum(axis=1)[:, -1]  # in k order; np.sum would add pairwise
    np.negative(rows[:, 1::2], out=rows[:, 1::2])  # the even k are subtracted
    sums, lows = _fast2sum_running(rows)
    p = sums[:, -1] + lows[:, -1]
    bound = (ys + (2 * a + 10)) * _ULP * magnitude
    block = np.zeros(5 * _BLOCK)
    curves = block.reshape(5, _BLOCK)
    curves[0, :start - lo] = 1.0  # S = 1, F = 0 exactly below y = a
    surv, surv_err, cdf, cdf_err = curves[:4, start - lo:]
    np.clip(p, 0.0, 1.0, out=surv)
    np.add(bound, np.maximum(_ULP * surv, a * _TINY), out=surv_err)
    cdf[:], cdf_err[:] = np.clip(1.0 - p, 0.0, 1.0), surv_err + _ULP
    # exact cells: terms[k-1] = (-1)^(k+1) C(a, k) (a-k)^y and denom = a^y,
    # carried from one cell to the next
    bases = range(a - 1, -1, -1)
    terms = [math.comb(a, k) if k % 2 else -math.comb(a, k) for k in range(1, a + 1)]
    denom, last = 1, 0
    for i in np.flatnonzero(bound > _EXACT_SWITCH).tolist():
        y = start + i
        terms = [t * b ** (y - last) for t, b in zip(terms, bases)]
        denom *= a ** (y - last)
        last = y
        total = sum(terms)
        surv[i], cdf[i] = total / denom, (denom - total) / denom
        surv_err[i], cdf_err[i] = max(_ULP * surv[i], a * _TINY), _ULP
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
    curves[4, below] = _libm(np.log1p, -curves[0, below])
    return _frozen(block)


# Laid out as a block: from _TAIL_STARTS[a] on, S = 0 and F = 1, and log1p(-S)
# is -0.0.  There every power underflows, so S < a * 2**-1075; the bound is the
# blocks' floor at a = 64, which holds for every a, and F's adds an ulp
_TAIL_ERR = MAX_ALTERNATIVES * _TINY
_TAIL_BLOCK = _frozen(np.repeat((0.0, _TAIL_ERR, 1.0, _TAIL_ERR + _ULP, -0.0), _BLOCK))
# what the point reads return there, and at a = 1, whose S is 1 at y = 0 and 0
# from y = 1 on, exactly
_TAIL_S, _TAIL_F = ProbValue(0.0, _TAIL_ERR), ProbValue(1.0, _TAIL_ERR + _ULP)
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
        _check_bank_size(a)
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
        _check_bank_size(a)  # as in single_bank_survival
        _check_test_count(y)
    if y < _TAIL_STARTS[a]:
        return _point_row(a, y // _BLOCK, 2)[y % _BLOCK]
    return _ONE_BANK_F[min(y, 1)] if a == 1 else _TAIL_F


def _cdf_cells(a: int, stop: int) -> np.ndarray:
    """F(y) for y in [0, stop) at a bank size 1 <= a <= MAX_ALTERNATIVES,
    each the ``.p`` of :func:`single_bank_cdf`, bit for bit: the cells of
    the blocks' F rows, for a caller that wants the probabilities alone, so
    no row of values is built or cached."""
    cells = np.ones(stop)  # the constant tail's F, and a = 1's from y = 1 on
    cells[:a] = 0.0  # fewer tests than alternatives cannot cover the bank
    tail = min(stop, _TAIL_STARTS[a])
    for lo in range(0, tail, _BLOCK):
        width = min(_BLOCK, tail - lo)
        cells[lo:lo + width] = _survival_block(a, lo // _BLOCK).obj[2 * _BLOCK:2 * _BLOCK + width]
    return cells


def cdf_oracle(a: int, y: int) -> Fraction:
    """Exact coverage probability a! S2(y, a) / a**y from surjection counts.

    An O(a**2) integer triangle sharing no code with the closed form, kept
    for cross-checking.  Trusted range: a <= 12, y <= 200; outside it it
    raises ``InvalidSpecError`` (past ``MAX_ALTERNATIVES``, the gate's).
    The triangle's row at y holds the count of every smaller bank size too:
    entry k over k**y is ``cdf_oracle(k, y)``, so one row serves a whole
    column of cells.
    """
    _check_bank_size(a)
    _check_test_count(y)
    if a > _ORACLE_MAX_A or y > _ORACLE_MAX_Y:
        raise InvalidSpecError(
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


def _onto_rows(a: int):
    """``_onto_row(a, y)`` for y = 0, 1, 2, ... without end, each row from
    the one before.  The last draw is one of the k values, and the draws
    before it show either all k or exactly the k - 1 others, so
    onto(y, k) = k * (onto(y - 1, k) + onto(y - 1, k - 1)): a integer steps
    a row, where the triangle takes O(a**2) and a + 1 big powers.  For one
    cell the triangle is cheaper, as it skips the rows before."""
    onto = [1] + [0] * a
    while True:
        yield onto
        onto = [0] + [k * (onto[k] + onto[k - 1]) for k in range(1, a + 1)]


def _count_cell(a: int, q: float, y: int) -> tuple[float, float]:
    """The q-bank cdf at a valid test count ``y`` and its error bound, for a
    bank count ``q`` already converted to a float, which is finite.

    The bound is q (1 - S-)**(q-1) * s_err + ulp, S- = max(S - s_err, 0):
    what the survival's bound s_err carries through (1 - S)**q, plus the
    rounding of the power.  Near 1, where S is tiny, it is about an ulp
    however large q is.  The power's own rounding, a few ulps of q * S
    relative to p, lies under the first part, since s_err is at least 16
    ulps of S on the float route; the exact cells all have S above 0.7,
    where F = 1 - S is read rounded once and p is its power.
    """
    if y < a:
        return 0.0, 0.0
    if a == 1:
        return 1.0, 0.0
    if y < _TAIL_STARTS[a]:
        b, i = _survival_block(a, y // _BLOCK), y % _BLOCK
    else:
        b, i = _TAIL_BLOCK, 0
    s = b[i]
    if s < 0.5:
        # log1p(-s), formed with the block; -0.0 where s is 0.0, so p is 1.0
        p = math.exp(q * b[i + 4 * _BLOCK])
    else:
        p = b[i + 2 * _BLOCK] ** q
    # |d(1 - S)**q / dS| = q (1 - S)**(q-1) is largest over [S - s_err, S + s_err]
    # at its low end, clamped at 0
    s_err = b[i + _BLOCK]
    low = s - s_err
    err = q * (math.exp((q - 1.0) * math.log1p(-low)) if low > 0.0 else 1.0) * s_err + _ULP
    return p, (err if err < 1.0 else 1.0)  # min(1.0, err) without the call


def test_count_cdf(spec: BankSpec, n: int) -> ProbValue:
    """P(all ``q`` banks are covered within the first ``n`` tests).

    The q banks are independent, so this is the q-th power of the single-bank
    cdf; the power is taken through ``log1p`` when the single-bank survival is
    small enough for direct powering to lose accuracy.  A ``spec`` that is
    not a :class:`BankSpec` raises ``InvalidSpecError``.
    """
    if type(spec) is not BankSpec:
        _check_spec(spec)
    if type(n) is not int or n < 0:
        _check_test_count(n)
    p, err = _count_cell(spec.a, float(spec.q), n)
    # p is 0.0, 1.0, exp of a value <= 0 or a power of F in [0.5, 1], and the
    # bound 0.0 or a sum >= ulp capped at 1.0: ProbValue's checks would pass
    # ProbValue() here and in the pmf (16 a request) would delete no code: _point_row needs _value
    return _value(p, err)


def test_count_pmf(spec: BankSpec, n: int) -> ProbValue:
    """P(full coverage happens exactly at test ``n``): the cdf difference at
    n and n - 1, with the sum of their error bounds.  A ``spec`` that is not
    a :class:`BankSpec` raises ``InvalidSpecError``."""
    if type(spec) is not BankSpec:
        _check_spec(spec)
    if type(n) is not int or n < 1:
        _check_test_count(n, minimum=1)
    a, q = spec.a, float(spec.q)
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


# (c, r, offset) of a tail line: in logarithms its bound is c - r*n, plus
# log(2n + offset) when an offset is given; see _windows
_Line = tuple[float, float, int | None]


def _tail_bound(line: _Line, n: int) -> float:
    """The bound on ``line`` at test count ``n``: inf above the float
    range, and never below the smallest normal float, so never zero."""
    c, r, offset = line
    log_tail = c - r * n if offset is None else c - r * n + math.log(2 * n + offset)
    return math.inf if log_tail >= _LOG_MAX else max(math.exp(log_tail), _MIN_NORMAL)


def _coverage_terms(a: int, counts: tuple[float, ...], width: int, rows: np.ndarray) -> None:
    """Row i of ``rows``, zero on entry, gets P(N > n) = 1 - (1 - S(n))**q
    as -expm1(q * log1p(-S(n))) for q = counts[i], over n in [0, width).

    log1p(-S(n)) does not depend on q, so it is formed once per block, when
    the block is filled, and read here from the blocks' last rows.  The
    products of every q lie end to end in one flat array, and one ``expm1``
    call forms every term (:func:`_libm`: the platform libm's, the bits of
    ``math.expm1``).  A row's terms past its own stop are formed and never
    read: the replay's column stop - 1 reads only the columns before it.
    Where S(n) is 1.0 that row holds -inf, and the term is expm1's limit,
    exactly 1.0.  From ``_TAIL_STARTS[a]`` on, S(n) is 0.0 and the term 0.0,
    so those cells are left as they are.  Every term lies in [0, 1] and none
    is -0.0.
    """
    cut = min(width, _TAIL_STARTS[a])
    # the log row is the last _BLOCK doubles of each block's array, the
    # memoryview's .obj (a third of the cost of np.frombuffer on the view)
    views = [_survival_block(a, j).obj[4 * _BLOCK:] for j in range(-(-cut // _BLOCK))]
    # this one-view shortcut and _UNGUARDED stay: deleting both cost +4% exact_p50_ms (10 of 10)
    logs = views[0] if len(views) == 1 else np.concatenate(views)
    # a product overflows only for q past _OVERFLOW_COUNT, to -inf as a float
    # product does, and the term is then 1.0
    with np.errstate(over="ignore") if max(counts) > _OVERFLOW_COUNT else _UNGUARDED:
        products = np.multiply.outer(counts, logs[:cut]).ravel()
    np.negative(_libm(np.expm1, products).reshape(len(counts), cut), out=rows[:, :cut])


def _fast2sum_running(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The running sums and running corrections of a Neumaier loop started at
    s = c = 0.0 over each row: their sum at column k is what the loop
    returns after the terms up to k.

    Each step is Dekker's Fast2Sum: after s = s_prev + x, z = s - s_prev and
    e = x - z.  Wherever z is exact, s_prev + z is s exactly, so e is the
    exact rounding error of the addition, which is Neumaier's correction
    (and Knuth's TwoSum's, in five operations a step in place of two).  z is
    exact wherever the exponent of s_prev is at least that of x (Dekker,
    Numer. Math. 18, 1971), and wherever the addition is exact, for then
    z = x.  The series rows meet the first: every term of a mean row lies in
    [0, 1] and the first, at n = 0, is 1.0, so the running sum is at least 1
    from column 1 on, and column 0 adds to 0.0, exactly.  A variance row
    weights P(N > n), which is 1.0 below n = a >= 2, by 2n + 1: its first
    three terms are 1, 3 and at most 5, whose additions are exact or
    dominated, and from n = 3 on the sum before n, at least n^2 P(N > n),
    dominates (2n + 1) P(N > n).  Past a row's own stop its terms are
    still those, out to the farthest stop of the pass, and then zeros,
    which add exactly.  The signed rows of a curve block need not meet either
    condition, but z is exact at every addition of each row whose cell the
    block keeps (the rest are redone in exact integers), which the tests
    check block by block for a = 2..64.

    ``np.add.accumulate`` (what ``cumsum`` calls, at half its fixed cost)
    adds strictly left to right, so it replays the running sum and then
    the sum of the per-step errors exactly (``np.sum`` adds pairwise and
    would not); column k of both depends on the first k + 1 terms alone, so
    a loop stopped there gives the same bits.  The running sum starts at
    0.0, so the first step is replayed too; a row must not start with -0.0,
    since the loop's 0.0 + -0.0 is +0.0.
    """
    running = np.zeros((len(rows), rows.shape[1] + 1))
    before, after = running[:, :-1], running[:, 1:]
    np.add.accumulate(rows, axis=1, out=after)
    low = after - before
    np.subtract(rows, low, out=low)
    return after, np.add.accumulate(low, axis=1, out=low)


def _windows(a: int, counts: tuple[float, ...],
             second_moment: bool) -> list[tuple[_Line, int]]:
    """For each bank count q of one pass at bank size ``a``, as the finite
    floats ``counts``, the tail line of its mean and, with
    ``second_moment``, of its variance, and the least n that line
    certifies, where the series stops.  One flat list, q by q, each q's
    mean then its variance.  This is the one solve of a tail line:
    :func:`_tail_bound` reads the line, here in the walk and in
    :func:`_series` at each stop.

    The tail bound is 2a**3/(a-1) * q * decay**n, decay = (a-1)/a, times
    2n + 2a - 1 for the variance: in logarithms the line c - r*n, plus
    log(2n + 2a - 1), one c and one r for both moments.  c is raised by
    1e-9, far above the rounding of the logarithms and of r*n for any n a
    series reaches, so the line stays a bound.  The line meets the limit at
    a root, excess / r, excess = c - log(1e-11), refined for the variance's
    weight by three fixed-point steps, and the least n the bound certifies
    is walked up to from the root.

    The logarithm of the limit is a module constant, and the two that
    depend on a alone, r and log(2a**3/(a-1)), are formed once per call.
    Each q adds its log q left to right, c = (log(2a**3/(a-1)) + log q) +
    1e-9, so a q's windows are the same doubles whatever else its pass
    holds.
    """
    r = -math.log((a - 1) / a)
    log_scale = math.log(2.0 * a ** 3 / (a - 1))
    windows = []
    for count in counts:
        c = log_scale + math.log(count) + 1e-9
        excess = c - _LOG_LIMIT
        for offset in (None, 2 * a - 1)[:1 + second_moment]:
            line = c, r, offset
            root = excess / r
            if offset is not None:
                # for the weight 2n + offset, each fixed-point step starts
                # below the root and climbs towards it, so the solved root
                # lies at or below the true one, up to rounding
                for _ in range(3):
                    root = (excess + math.log(2.0 * root + offset)) / r
            # The exact bound strictly decreases in n, by a factor of at most
            # (2a^2 - a - 1) / (2a^2 - a) a step with the variance's weight,
            # far above the rounding of the line, so the computed bound never
            # increases either, and the root and the least n where it meets
            # the limit differ by rounding, about 1e-10 steps: ceil(root) lies
            # past that n only where the root is within rounding of an
            # integer, and then by one step.  So the walk starts one step
            # short of ceil(root).
            first = max(math.ceil(root) - 1, 0)
            while _tail_bound(line, first) > _LIMIT:
                first += 1
            windows.append((line, first))
    return windows


def _series(a: int, qs: tuple[int, ...],
            second_moment: bool) -> list[tuple[SeriesEstimate, ...]]:
    """For each q in ``qs`` at bank size ``a``, each below the float
    limit, its mean and, with ``second_moment``, its variance.

    Term n of the mean is P(N > n); the variance is E N^2, the sum of
    (2n+1) * P(N > n), less the square of the unweighted sum at the
    variance's stop.  Each sum stops at the least n whose tail bound is at
    most 1e-11, found before any term is formed, for both moments of every
    q by one solve (:func:`_windows`), so the terms of a sum are those of
    n in [0, stop).  Each q's row of terms is formed once, out to the
    farthest stop of the pass, by one :func:`_coverage_terms` call for
    every q, and the weighted rows follow.  Every row is nonnegative and
    dominated by its running sum, so one :func:`_fast2sum_running` call
    replays them all strictly left to right, and column stop - 1 of its
    running sums and corrections is, bit for bit, Neumaier's loop stopped
    there: each moment reads its totals at its own stop, no row is padded
    past it, and each q gets what a call for it alone gives.
    """
    if a == 1:
        exact = SeriesEstimate(1.0, 0.0, 1), SeriesEstimate(0.0, 0.0, 1)
        return [exact[:1 + second_moment]] * len(qs)
    k = 1 + second_moment  # window and row k * i + j are q_i's mean (j = 0) and variance (j = 1)
    counts = tuple(map(float, qs))
    windows = _windows(a, counts, second_moment)
    width = max(stop for _, stop in windows)
    rows = np.zeros((len(windows), width))
    _coverage_terms(a, counts, width, rows[::k])
    if second_moment:
        np.multiply(rows[::2], np.arange(1.0, 2 * width, 2.0), out=rows[1::2])
    sums, lows = _fast2sum_running(rows)
    estimates = []
    for row, (line, stop) in enumerate(windows):
        value = sums.item(row, stop - 1) + lows.item(row, stop - 1)
        if row % k:  # E N^2 less the square of the unweighted sum at this stop
            t = sums.item(row - 1, stop - 1) + lows.item(row - 1, stop - 1)
            value -= t * t
        estimates.append(SeriesEstimate(value, _tail_bound(line, stop), stop))
    return [tuple(estimates[i:i + k]) for i in range(0, len(estimates), k)]


@functools.lru_cache(maxsize=1)
def _moments(a: int, q: int) -> tuple[SeriesEstimate, SeriesEstimate]:
    """(mean, variance) of one spec from one :func:`_series` pass, which
    forms the terms out to the variance's stop, kept for the other
    moment's call.

    A bool q and its int share the entry, as their estimates have the same
    bits.  The callers ask for the two moments of one spec in turn; a
    larger memo would serve repeated specs rather than the pass.
    """
    return _series(a, (q,), True)[0]


def _moment(spec: BankSpec, variance: int) -> SeriesEstimate:
    """The mean (``variance`` 0) or the variance (1) of ``spec``, checked:
    the spec, then the memo."""
    if type(spec) is not BankSpec:
        _check_spec(spec)
    return _moments(spec.a, spec.q)[variance]


def _default_means(a: int, qs: tuple[int, ...]) -> list[float]:
    """The mean of every q in ``qs`` at bank size ``a``, from one
    :func:`_series` pass: what the tables and the multi-sum check read."""
    return [mean.value for (mean,) in _series(a, qs, False)]


def expected_tests(spec: BankSpec) -> SeriesEstimate:
    """Mean number of tests until every bank is covered.

    Sums P(coverage needs more than n tests) over n >= 0, up to the least
    n whose tail is certified to be at most 1e-11, found before any term
    is formed.  The returned estimate carries that certified bound on the
    discarded tail.
    It comes from one pass with :func:`variance_tests` of the same spec
    (see :func:`_moments`), so a lone mean costs a variance pass, about 40%
    more than the mean alone, and the variance asked next is a lookup.  A
    ``spec`` that is not a :class:`BankSpec` raises ``InvalidSpecError``
    before any term; a q that no float can hold never makes a spec.
    """
    return _moment(spec, 0)


def variance_tests(spec: BankSpec) -> SeriesEstimate:
    """Variance of the number of tests until every bank is covered.

    Uses E N^2 = sum over n of (2n+1) * P(N > n), with the same certified
    geometric tail treatment as :func:`expected_tests`, in one pass with it
    (see :func:`_moments`): the mean asked next is a lookup.  ``tail_bound``
    covers that truncation only, not rounding, which E N^2 - mean**2
    magnifies: at q = 1 the value misses it for 21 of the bank sizes
    a = 2..64, worst at a = 57 (error 4.79e-11, bound 9.90e-12).  The strict
    xfail ``test_single_bank_variance_within_its_tail_bound`` records this,
    and ``test_series_within_their_tail_bound`` the misses at larger q.
    A ``spec`` that is not a :class:`BankSpec` raises ``InvalidSpecError``
    before any term, as for the mean.
    """
    return _moment(spec, 1)


def expected_tests_multisum(spec: BankSpec) -> float:
    """Closed-form alternating multi-sum for the mean; tiny specs only.

    Expands the expectation of a maximum by inclusion-exclusion over subsets
    of banks and over the per-bank alternating sums.  The term count grows
    like a**q, so the trusted range is a <= 6 and q <= 4.  Each tuple of
    per-bank indices takes its products from its prefix, one multiply each,
    so a term is the double a loop over the whole tuple forms, in the same
    order of operations.  Summed by ``math.fsum``, which is exact whatever
    the order, apart from the main path, as a check on :func:`expected_tests`.
    A ``spec`` that is not a :class:`BankSpec` raises ``InvalidSpecError``.
    """
    if type(spec) is not BankSpec:
        _check_spec(spec)
    a, q = spec.a, spec.q
    if a > _MULTISUM_MAX_A or q > _MULTISUM_MAX_Q:
        raise InvalidSpecError(
            f"multi-sum trusted only for a <= {_MULTISUM_MAX_A} and q <= {_MULTISUM_MAX_Q}"
        )
    # one level per m: each tuple (j1, ..., jm) extends its prefix's signed
    # binomial product, -1 at the empty tuple and negated by each odd j, and
    # its miss product ((1.0 * r1) * r2)..., with r = (a - j) / a
    steps = [(-math.comb(a, j) if j % 2 else math.comb(a, j), (a - j) / a)
             for j in range(1, a + 1)]
    level = [(-1, 1.0)]
    terms = []
    for m in range(1, q + 1):
        level = [(signed * c, miss * r) for signed, miss in level for c, r in steps]
        subsets = math.comb(q, m)
        terms.extend(subsets * signed / (1.0 - miss) for signed, miss in level)
    return math.fsum(terms)
