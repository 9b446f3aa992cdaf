"""Exact distribution of the number of tests needed to cover question banks.

A generated test draws one question uniformly at random from each of ``q``
banks, every bank holding ``a`` interchangeable alternatives.  The waiting
time until a single bank has shown all of its alternatives is the classic
collector time Y with E Y = a * H_a; the time until every bank is covered is
the maximum of q independent copies of Y.  Everything here is evaluated with
certified error bounds: probabilities come back as :class:`ProbValue`, series
sums as :class:`SeriesEstimate`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

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
# Float-path error bound above which the survival sum is redone exactly.
_EXACT_SWITCH = 1e-13
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


class _CompensatedSum:
    """Neumaier summation; keeps the low-order bits a running float sum drops."""

    __slots__ = ("_s", "_c")

    def __init__(self) -> None:
        self._s = 0.0
        self._c = 0.0

    def add(self, x: float) -> None:
        t = self._s + x
        if abs(self._s) >= abs(x):
            self._c += (self._s - t) + x
        else:
            self._c += (x - t) + self._s
        self._s = t

    @property
    def total(self) -> float:
        return self._s + self._c


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


def _float_survival(a: int, y: int) -> tuple[float, float]:
    """Alternating closed form in compensated floats, with an error bound."""
    acc = _CompensatedSum()
    magnitude = 0.0
    for k in range(1, a + 1):
        term = math.comb(a, k) * ((a - k) / a) ** y
        acc.add(-term if k % 2 == 0 else term)
        magnitude += term
    # Each term carries about y ulps of relative error through the power;
    # the constant is generous so the certificate stays safe.
    bound = (y + 2 * a + 10) * _ULP * magnitude
    return acc.total, bound


def _exact_survival(a: int, y: int) -> Fraction:
    """Same alternating sum in exact integers, for the hard cancellation cases."""
    total = 0
    for k in range(1, a + 1):
        term = math.comb(a, k) * (a - k) ** y
        total += -term if k % 2 == 0 else term
    return Fraction(total, a ** y)


def _clamp01(p: float) -> float:
    if p < 0.0:
        return 0.0
    if p > 1.0:
        return 1.0
    return p


def _survival_and_cdf(a: int, y: int) -> tuple[ProbValue, ProbValue]:
    if a == 1:
        covered = y >= 1
        return (
            ProbValue(0.0 if covered else 1.0, 0.0),
            ProbValue(1.0 if covered else 0.0, 0.0),
        )
    if y < a:
        # Fewer tests than alternatives cannot cover the bank.
        return ProbValue(1.0, 0.0), ProbValue(0.0, 0.0)
    p, bound = _float_survival(a, y)
    if bound > _EXACT_SWITCH:
        s = _exact_survival(a, y)
        return (
            ProbValue(float(s), _ULP),
            ProbValue(float(1 - s), _ULP),
        )
    err = bound + _ULP
    return ProbValue(_clamp01(p), err), ProbValue(_clamp01(1.0 - p), err + _ULP)


def single_bank_survival(a: int, y: int) -> ProbValue:
    """P(some alternative of one bank is still unseen after ``y`` tests)."""
    _check_gated_bank_size(a)
    _check_test_count(y)
    return _survival_and_cdf(a, y)[0]


def single_bank_cdf(a: int, y: int) -> ProbValue:
    """P(one bank of ``a`` alternatives is fully covered within ``y`` tests).

    Exactly zero for y < a.
    """
    _check_gated_bank_size(a)
    _check_test_count(y)
    return _survival_and_cdf(a, y)[1]


def cdf_oracle(a: int, y: int) -> Fraction:
    """Exact coverage probability by counting surjections with an integer DP.

    A deliberately different route from the alternating closed form, kept for
    cross-checking.  Trusted range: a <= 12, y <= 200.
    """
    _check_bank_size(a)
    _check_test_count(y)
    if a > _ORACLE_MAX_A or y > _ORACLE_MAX_Y:
        raise OracleRangeError(
            f"oracle trusted only for a <= {_ORACLE_MAX_A} and y <= {_ORACLE_MAX_Y}"
        )
    # seen[j] counts length-t draw sequences having exactly j distinct values.
    seen = [0] * (a + 1)
    seen[0] = 1
    for _ in range(y):
        nxt = [0] * (a + 1)
        for j in range(a + 1):
            count = seen[j]
            if not count:
                continue
            nxt[j] += count * j
            if j < a:
                nxt[j + 1] += count * (a - j)
        seen = nxt
    return Fraction(seen[a], a ** y)


def test_count_cdf(spec: BankSpec, n: int) -> ProbValue:
    """P(all ``q`` banks are covered within the first ``n`` tests).

    The q banks are independent, so this is the q-th power of the single-bank
    cdf; the power is taken through ``log1p`` when the single-bank survival is
    small enough for direct powering to lose accuracy.
    """
    _check_test_count(n)
    a, q = spec.a, spec.q
    if n < a:
        return ProbValue(0.0, 0.0)
    if a == 1:
        return ProbValue(1.0, 0.0)
    surv, cdf = _survival_and_cdf(a, n)
    if surv.p < 0.5:
        p = math.exp(q * math.log1p(-surv.p))
    else:
        p = cdf.p ** q
    err = min(1.0, q * cdf.abs_err + _ULP)
    return ProbValue(_clamp01(p), err)


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


def _coverage_survival_term(a: int, q: int, n: int) -> float:
    """P(not all banks covered within n tests) = 1 - F(n)^q."""
    if n < a:
        return 1.0
    s = _survival_and_cdf(a, n)[0].p
    if s == 0.0:
        return 0.0
    if s == 1.0:
        # F(n) rounds to 0 just above n = a for large a, and log1p(-1) is a
        # domain error; 1 is the limit of -expm1(q * log1p(-s)) as s -> 1.
        return 1.0
    return -math.expm1(q * math.log1p(-s))


def expected_tests(spec: BankSpec, policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesEstimate:
    """Mean number of tests until every bank is covered.

    Sums P(coverage needs more than n tests) over n >= 0 under ``policy``.
    The returned estimate carries a certified bound on the discarded tail.
    """
    a, q = spec.a, spec.q
    if a == 1:
        return SeriesEstimate(1.0, 0.0, 1)
    decay = (a - 1) / a
    acc = _CompensatedSum()
    for n in range(policy.n_cap + 1):
        term = _coverage_survival_term(a, q, n)
        if term < policy.eps_term:
            tail = 2.0 * a * q * decay ** (n - 1) / (1.0 - decay)
            if tail <= 10.0 * policy.eps_term:
                return SeriesEstimate(acc.total, tail, n)
        acc.add(term)
    raise SeriesCapError(
        f"mean series for a={a}, q={q} not certified within n_cap={policy.n_cap}"
    )


def variance_tests(spec: BankSpec, policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesEstimate:
    """Variance of the number of tests until every bank is covered.

    Uses E N^2 = sum over n of (2n+1) * P(N > n), with the same certified
    geometric tail treatment as :func:`expected_tests`.
    """
    a, q = spec.a, spec.q
    if a == 1:
        return SeriesEstimate(0.0, 0.0, 1)
    decay = (a - 1) / a
    mean_acc = _CompensatedSum()
    second_acc = _CompensatedSum()
    for n in range(policy.n_cap + 1):
        term = _coverage_survival_term(a, q, n)
        weighted = (2 * n + 1) * term
        if weighted < policy.eps_term:
            geo = decay ** (n - 1) / (1.0 - decay)
            tail = 2.0 * a * q * geo * ((2 * n + 1) + 2.0 * decay / (1.0 - decay))
            if tail <= 10.0 * policy.eps_term:
                mean = mean_acc.total
                return SeriesEstimate(second_acc.total - mean * mean, tail, n)
        mean_acc.add(term)
        second_acc.add(weighted)
    raise SeriesCapError(
        f"variance series for a={a}, q={q} not certified within n_cap={policy.n_cap}"
    )


def expected_tests_multisum(spec: BankSpec) -> float:
    """Closed-form alternating multi-sum for the mean; tiny specs only.

    Expands the expectation of a maximum by inclusion-exclusion over subsets
    of banks and over the per-bank alternating sums.  The term count grows
    like a**q, so the trusted range is a <= 6 and q <= 4.  Kept as an
    independent route against :func:`expected_tests`.
    """
    a, q = spec.a, spec.q
    if a > _MULTISUM_MAX_A or q > _MULTISUM_MAX_Q:
        raise OracleRangeError(
            f"multi-sum trusted only for a <= {_MULTISUM_MAX_A} and q <= {_MULTISUM_MAX_Q}"
        )
    acc = _CompensatedSum()
    for m in range(1, q + 1):
        subsets = math.comb(q, m)
        for js in itertools.product(range(1, a + 1), repeat=m):
            binom = 1
            miss = 1.0
            for j in js:
                binom *= math.comb(a, j)
                miss *= (a - j) / a
            signed = -binom if sum(js) % 2 == 0 else binom
            acc.add(subsets * signed / (1.0 - miss))
    return acc.total
