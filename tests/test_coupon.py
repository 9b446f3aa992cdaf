"""Exact distribution machinery: parameter gates, closed forms, oracles, series."""

from __future__ import annotations

import bisect
import copy
import functools
import importlib.util
import itertools
import math
import pickle
import random
import re
import struct
import sys
import threading
import tracemalloc
from dataclasses import FrozenInstanceError, astuple, replace
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bankcover.coupon import (
    MAX_ALTERNATIVES,
    BankSpec,
    InvalidSpecError,
    ProbValue,
    SeriesEstimate,
    cdf_oracle,
    expected_single_bank,
    expected_tests,
    expected_tests_multisum,
    single_bank_cdf,
    single_bank_survival,
    test_count_cdf,
    test_count_pmf,
    variance_tests,
)
from bankcover import coupon, validate
from bankcover.asymptotics import centring, sandwich_bounds
from bankcover.tables import FIG_HIGH_Q, FIG_LOW_Q, TABLE_A, TABLE_Q
from bankcover.validate import SINGLE_PRINTED

# Every series stops at the least n whose tail bound is at most LIMIT.
LIMIT = 1e-11
# The largest bank count BankSpec takes: past the float maximum, to which it
# rounds; one more is refused
TOP_Q = 2 ** 1024 - 2 ** 970 - 1


def brute_force_cdf(a: int, y: int) -> Fraction:
    """Enumerate all a**y draw sequences; exponential, so tiny cases only."""
    covered = 0
    for seq in itertools.product(range(a), repeat=y):
        if len(set(seq)) == a:
            covered += 1
    return Fraction(covered, a ** y)


def survival_ratio(a: int, y: int) -> tuple[int, int]:
    """S(y) from the alternating closed form, as a numerator over the
    denominator a**y, unreduced: the audits compare in integers and take no
    gcd of numbers of tens of thousands of bits."""
    return sum((-1) ** (k + 1) * math.comb(a, k) * (a - k) ** y for k in range(1, a + 1)), a ** y


def within(value: float, abs_err: float, num: int, den: int) -> bool:
    """|value - num/den| <= abs_err, decided exactly in integers."""
    vn, vd = value.as_integer_ratio()
    en, ed = abs_err.as_integer_ratio()
    return abs(vn * den - num * vd) * ed <= en * vd * den


@st.composite
def audit_points(draw, least: int = 0) -> tuple[int, int]:
    """(a, y) with a <= 20 and y >= ``least`` drawn from one of three
    regions: the lower tail (y up to 2a, half of it below coverage), the bulk
    (a to 4 a H_a + a) or the upper tail, from half the first y where
    ((a-1)/a)**y underflows to 64 past it, into the constant tail S = 0."""
    a = draw(st.integers(1, 20))
    if a == 1:
        return a, draw(st.integers(least, 4))
    harmonic = sum(1 / k for k in range(1, a + 1))
    underflow = math.ceil(1075 * math.log(2) / -math.log((a - 1) / a))
    lo, hi = draw(st.sampled_from([
        (0, 2 * a), (a, math.ceil(4 * a * harmonic) + a), (underflow // 2, underflow + 64)]))
    return a, draw(st.integers(max(lo, least), hi))


class TestBankSpec:
    def test_valid(self):
        spec = BankSpec(10, 200)
        assert (spec.a, spec.q) == (10, 200)

    @pytest.mark.parametrize("a,q", [(0, 1), (1, 0), (-3, 5), (2, -1)])
    def test_rejects_nonpositive(self, a, q):
        with pytest.raises(InvalidSpecError):
            BankSpec(a, q)

    def test_rejects_non_integers(self):
        with pytest.raises(InvalidSpecError):
            BankSpec(2.5, 1)

    def test_gate_at_64(self):
        BankSpec(MAX_ALTERNATIVES, 1)
        with pytest.raises(InvalidSpecError, match="a=65 exceeds the supported maximum"):
            BankSpec(MAX_ALTERNATIVES + 1, 1)

    SPEC_READERS = {
        "expected_tests": expected_tests,
        "variance_tests": variance_tests,
        "expected_tests_multisum": expected_tests_multisum,
        "test_count_cdf": lambda spec: test_count_cdf(spec, 5),
        "test_count_pmf": lambda spec: test_count_pmf(spec, 5),
    }

    @pytest.mark.parametrize("spec", ["x", (10, 10), None], ids=["str", "tuple", "None"])
    @pytest.mark.parametrize("reader", SPEC_READERS)
    def test_spec_readers_reject_a_spec_that_is_not_a_bank_spec(self, reader, spec):
        # each raised a bare AttributeError on reading spec.a or spec.q
        with pytest.raises(InvalidSpecError, match=re.escape(f"spec must be a BankSpec, got {spec!r}")):
            self.SPEC_READERS[reader](spec)


class TestProbValue:
    def test_float_protocol(self):
        assert float(ProbValue(0.25, 1e-15)) == 0.25

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ProbValue(1.5, 0.0)
        with pytest.raises(ValueError):
            ProbValue(0.5, -1e-9)

    def test_value_semantics(self):
        v = ProbValue(0.25, 1e-15)
        assert v == ProbValue(0.25, 1e-15)
        assert v != ProbValue(0.25, 2e-15) and v != ProbValue(0.5, 1e-15)
        assert v != (0.25, 1e-15)
        assert hash(v) == hash(ProbValue(0.25, 1e-15))
        assert repr(v) == "ProbValue(p=0.25, abs_err=1e-15)"
        assert type(float(v)) is float and float(v) == 0.25

    def test_frozen(self):
        v = ProbValue(0.25, 1e-15)
        for name in ("p", "abs_err"):
            with pytest.raises(FrozenInstanceError):
                setattr(v, name, 0.5)
        with pytest.raises(FrozenInstanceError):
            del v.p
        assert (v.p, v.abs_err) == (0.25, 1e-15)

    def test_round_trips(self):
        v = ProbValue(0.25, 1e-15)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(v, protocol)) == v
        assert copy.copy(v) == v and copy.deepcopy(v) == v
        assert replace(v, p=0.5) == ProbValue(0.5, 1e-15)
        assert replace(v, abs_err=0.0) == ProbValue(0.25, 0.0)
        with pytest.raises(ValueError, match="probability out of range: 2.0"):
            replace(v, p=2.0)

    @pytest.mark.parametrize(
        "p,err,message",
        [
            (1.5, 0.0, "probability out of range: 1.5"),
            (-1e-300, 0.0, "probability out of range: -1e-300"),
            (math.nan, 0.0, "probability out of range: nan"),
            (math.nan, -1.0, "probability out of range: nan"),
            (0.5, -1e-09, "error bound must be nonnegative, got -1e-09"),
            (0.5, math.nan, "error bound must be nonnegative, got nan"),
            (0.5, -math.inf, "error bound must be nonnegative, got -inf"),
        ],
    )
    def test_error_messages(self, p, err, message):
        with pytest.raises(ValueError) as got:
            ProbValue(p, err)
        assert type(got.value) is ValueError and str(got.value) == message

    def test_slotted(self):
        # a sweep keeps one instance per point: no per-instance dict
        v = single_bank_survival(10, 40)
        assert not hasattr(v, "__dict__") and ProbValue.__slots__ == ("p", "abs_err")

    def test_edges_are_accepted(self):
        for p, err in ((0.0, 0.0), (1.0, math.inf), (-0.0, 0.0)):
            v = ProbValue(p, err)
            assert bits(v.p, v.abs_err) == bits(p, err)


class TestSeriesEstimate:
    def test_value_semantics(self):
        est = SeriesEstimate(3.0, 1e-12, 41)
        assert est == SeriesEstimate(3.0, 1e-12, 41)
        assert est != SeriesEstimate(3.0, 1e-12, 42) and est != (3.0, 1e-12, 41)
        assert hash(est) == hash(SeriesEstimate(3.0, 1e-12, 41))
        assert repr(est) == "SeriesEstimate(value=3.0, tail_bound=1e-12, terms=41)"
        assert type(float(est)) is float and float(est) == 3.0
        assert astuple(est) == (3.0, 1e-12, 41)

    def test_frozen(self):
        est = SeriesEstimate(3.0, 1e-12, 41)
        for name in ("value", "tail_bound", "terms"):
            with pytest.raises(FrozenInstanceError):
                setattr(est, name, 0)
        assert astuple(est) == (3.0, 1e-12, 41)
        assert not hasattr(expected_tests(BankSpec(7, 3)), "__dict__")

    def test_round_trips(self):
        est = expected_tests(BankSpec(7, 3))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(est, protocol)) == est
        assert copy.copy(est) == est and copy.deepcopy(est) == est
        assert replace(est, terms=1) == SeriesEstimate(est.value, est.tail_bound, 1)


class TestExpectedSingleBank:
    def test_one_alternative(self):
        assert expected_single_bank(1) == 1.0

    @pytest.mark.parametrize(
        "a,exact",
        [(2, 3.0), (3, 5.5), (4, 8.333333333333334), (5, 11.416666666666666),
         (10, 29.28968253968254), (15, 49.7734348984349), (20, 71.95479314287364)],
    )
    def test_matches_harmonic_sum(self, a, exact):
        assert expected_single_bank(a) == pytest.approx(exact, abs=1e-12)

    def test_reference_values(self):
        # the 2 d.p. reference prints; the a=20 print (71.96) double-rounds
        # 71.9548 (via 71.955), so acceptance 01 checks that cell against its
        # single rounding 71.95 and asserts the print as an erratum
        for a in (5, 10, 15):
            assert expected_single_bank(a) == pytest.approx(SINGLE_PRINTED[a], abs=0.005)

    @pytest.mark.parametrize("a", range(1, 7))
    def test_geometric_stage_identity_small_a(self, a):
        # same summation re-indexed: a * sum(1/k) vs sum of stage means a/j,
        # both ascending; bit-for-bit equal for a <= 6
        stage_sum = 0.0
        for j in range(1, a + 1):
            stage_sum += a / j
        assert expected_single_bank(a) == stage_sum

    def test_geometric_stage_identity_breaks_at_seven(self):
        # documents why the exact-equality clause stops at a = 6
        stage_sum = 0.0
        for j in range(1, 8):
            stage_sum += 7 / j
        assert expected_single_bank(7) != stage_sum
        assert expected_single_bank(7) == pytest.approx(stage_sum, rel=1e-15)

    @pytest.mark.parametrize("a", [2, 5, 10, 40, 41, 50, 64])
    def test_agrees_with_series_at_q_one(self, a):
        series = expected_tests(BankSpec(a, 1)).value
        assert series == pytest.approx(expected_single_bank(a), abs=1e-9)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidSpecError):
            expected_single_bank(0)
        with pytest.raises(InvalidSpecError):
            expected_single_bank(2.0)

    @pytest.mark.parametrize("a", [MAX_ALTERNATIVES + 1, 2 ** 64], ids=["65", "2**64"])
    def test_beyond_the_gate_raises_before_summing(self, a):
        # the harmonic loop runs a times, so the gate must come first: at
        # 2**64 the loop would never end
        with pytest.raises(InvalidSpecError, match=f"a={a} exceeds"):
            expected_single_bank(a)


class TestSingleBankSurvival:
    def test_certain_before_coverage_possible(self):
        v = single_bank_survival(2, 1)
        assert v.p == 1.0 and v.abs_err == 0.0
        assert single_bank_survival(5, 4).p == 1.0

    def test_two_alternatives(self):
        # after 3 tests, only the two constant sequences miss a value
        assert single_bank_survival(2, 3).p == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("a,y", [(2, 4), (3, 5), (4, 6)])
    def test_matches_enumeration(self, a, y):
        exact = 1 - brute_force_cdf(a, y)
        assert single_bank_survival(a, y).p == pytest.approx(float(exact), abs=1e-14)

    def test_dominant_term_regime(self):
        # far in the tail the first alternating term carries the whole sum
        for y in (200, 300, 400):
            dominant = 10 * (0.9 ** y)
            value = single_bank_survival(10, y).p
            assert abs(value - dominant) / dominant < 0.01
        value = single_bank_survival(10, 400).p
        dominant = 10 * (0.9 ** 400)
        assert abs(value - dominant) / dominant < 1e-3

    def test_monotone_in_y(self):
        values = [single_bank_survival(7, y).p for y in range(0, 120)]
        assert all(x >= y for x, y in zip(values, values[1:]))

    @settings(max_examples=60, deadline=None)
    @given(a=st.integers(1, 64), y=st.integers(0, 600))
    def test_certified_error_budget(self, a, y):
        v = single_bank_survival(a, y)
        assert 0.0 <= v.p <= 1.0
        assert v.abs_err < 1e-9

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(point=audit_points())
    def test_bound_covers_the_exact_value(self, point):
        # the value lies within abs_err of the exact rational S(y)
        a, y = point
        v = single_bank_survival(a, y)
        assert within(v.p, v.abs_err, *survival_ratio(a, y)), (a, y, v)

    def test_geometric_tail_certificate(self):
        # the series' tail bounds rest on S(m) <= 2a * ((a-1)/a)**(m-1) for
        # every m >= 0; the union bound a * ((a-1)/a)**m gives it with margin
        for a in range(2, MAX_ALTERNATIVES + 1):
            decay = (a - 1) / a
            for m in range(4 * a + 4):
                assert single_bank_survival(a, m).p <= 2.0 * a * decay ** (m - 1), (a, m)

    def test_error_budget_dense_small_grid(self):
        for a in range(1, 65):
            for y in (0, a - 1, a, a + 1, 2 * a, 4 * a):
                assert single_bank_survival(a, y).abs_err < 1e-9

    def test_bound_covers_every_subnormal_cell(self):
        # where S is subnormal, each of the terms that add to it rounds by up
        # to half a unit of 2**-1074, so the bound's floor there is
        # a * 2**-1074.  Bonferroni's inequalities put the exact S between
        # T1 - T2 and T1, T1 = a * r1**y and T2 = C(a, 2) * r2**y with
        # rk = (a - k) / a, and T2 < 2**-1300 on these cells, so with M and E
        # the value and the bound in units of 2**-1074 the check is
        # (M - E) * 2**-1074 + 2**-1300 <= T1 <= (M + E) * 2**-1074.  T1 is
        # carried in integers as lo <= T1 * 2**1300 <= hi, from the exact
        # value at the first cell, each step rounding lo down and hi up.  The
        # two normal cells before the first subnormal one are checked too
        cells = 0
        for a in range(2, MAX_ALTERNATIVES + 1):
            tail = coupon._TAIL_STARTS[a]
            first = bisect.bisect_left(range(tail), True, key=lambda y: (
                y >= a and single_bank_survival(a, y).p < sys.float_info.min)) - 2
            assert single_bank_survival(a, first + 1).p >= sys.float_info.min
            if a > 2:  # at a = 2, r2 = 0 and T2 = 0
                assert math.log2(math.comb(a, 2)) + first * math.log2((a - 2) / a) < -1301
            lo = (a * (a - 1) ** first << 1300) // a ** first
            hi = lo + 1
            for y in range(first, tail):
                v = single_bank_survival(a, y)
                assert v.p < sys.float_info.min or y < first + 2, (a, y)
                # every float is a whole number of units of 2**-1074
                m, e = int(math.ldexp(v.p, 1074)), int(math.ldexp(v.abs_err, 1074))
                assert ((m - e) << 226) + 1 <= lo and hi <= (m + e) << 226, (a, y, v)
                lo, hi = lo * (a - 1) // a, -(-hi * (a - 1) // a)
                cells += 1
        assert cells > 60_000

    def test_rejects_above_gate(self):
        with pytest.raises(InvalidSpecError, match="a=65 exceeds"):
            single_bank_survival(65, 100)

    def test_rejects_negative_count(self):
        with pytest.raises(InvalidSpecError):
            single_bank_survival(5, -1)

    @pytest.mark.parametrize(
        "a,y,error,message",
        [
            (0, 5, InvalidSpecError, "need a >= 1, got 0"),
            (65, 5, InvalidSpecError,
             "a=65 exceeds the supported maximum of 64 alternatives"),
            (2.0, 5, InvalidSpecError, "a must be an integer, got 2.0"),
            (5, -1, InvalidSpecError, "test count must be >= 0, got -1"),
            (5, 3.0, InvalidSpecError, "test count must be an integer, got 3.0"),
            # the bank size is checked first
            (65, -1, InvalidSpecError,
             "a=65 exceeds the supported maximum of 64 alternatives"),
            (np.int64(5), 3, InvalidSpecError, f"a must be an integer, got {np.int64(5)!r}"),
        ],
    )
    def test_point_reads_reject_with_the_same_errors(self, a, y, error, message):
        for fn in (single_bank_survival, single_bank_cdf):
            with pytest.raises(InvalidSpecError) as got:
                fn(a, y)
            assert type(got.value) is error and str(got.value) == message, fn

    def test_bool_bank_size_reads_as_int(self):
        # isinstance(True, int) holds, so a bool passes the checks, as before
        assert single_bank_survival(True, 3) == single_bank_survival(1, 3)
        assert single_bank_cdf(3, True) == single_bank_cdf(3, 1)


class TestSingleBankCdf:
    def test_zero_below_bank_size(self):
        v = single_bank_cdf(3, 2)
        assert v.p == 0.0 and v.abs_err == 0.0

    def test_three_alternatives_three_tests(self):
        assert single_bank_cdf(3, 3).p == pytest.approx(2 / 9, abs=1e-12)

    def test_against_oracle_cell(self):
        assert single_bank_cdf(5, 11).p == pytest.approx(float(cdf_oracle(5, 11)), abs=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(point=audit_points())
    def test_bound_covers_the_exact_value(self, point):
        # the value lies within abs_err of the exact rational F(y) = 1 - S(y)
        a, y = point
        v = single_bank_cdf(a, y)
        num, den = survival_ratio(a, y)
        assert within(v.p, v.abs_err, den - num, den), (a, y, v)

    def test_complements_survival(self):
        for a in (2, 7, 33):
            for y in (a, a + 3, 5 * a):
                s = single_bank_survival(a, y).p
                c = single_bank_cdf(a, y).p
                assert s + c == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_y(self):
        values = [single_bank_cdf(6, y).p for y in range(0, 100)]
        assert all(x <= y for x, y in zip(values, values[1:]))


class TestCdfOracle:
    @pytest.mark.parametrize(
        "a,y,expected",
        [(1, 1, Fraction(1)), (2, 2, Fraction(1, 2)), (3, 3, Fraction(6, 27))],
    )
    def test_known_cells(self, a, y, expected):
        assert cdf_oracle(a, y) == expected

    def test_matches_enumeration(self):
        for a in range(1, 5):
            for y in range(0, 8):
                assert cdf_oracle(a, y) == brute_force_cdf(a, y)

    def test_trusted_range(self):
        message = "oracle trusted only for a <= 12 and y <= 200"
        with pytest.raises(InvalidSpecError, match=message):
            cdf_oracle(13, 20)
        with pytest.raises(InvalidSpecError, match=message):
            cdf_oracle(5, 201)
        cdf_oracle(12, 200)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidSpecError):
            cdf_oracle(0, 5)

    def test_one_row_holds_every_smaller_bank_size(self):
        for y in range(1, 201):
            row = coupon._onto_row(12, y)
            for k in range(1, 13):
                assert Fraction(row[k], k ** y) == cdf_oracle(k, y), (k, y)

    def test_recurrence_rows_match_the_triangle(self):
        # the quick battery's oracle check walks the recurrence in y, while
        # cdf_oracle builds each row as a triangle: the same surjection counts
        for y, row in zip(range(201), coupon._onto_rows(12)):
            assert row == coupon._onto_row(12, y), y

    def test_validate_reads_the_same_cells(self):
        # the quick battery's oracle check reads 452 cells from 60 rows; one
        # cell at a time through cdf_oracle it is the same number
        cells = [(a, y) for a in range(1, 9) for y in range(a, 61)]
        assert len(cells) == 452
        worst = max(abs(single_bank_cdf(a, y).p - float(cdf_oracle(a, y))) for a, y in cells)
        assert validate.oracle_deviation() == worst

    def test_whole_trusted_range_matches_alternating_sum(self):
        for a in range(1, 13):
            for y in range(0, 201):
                assert cdf_oracle(a, y) == 1 - exact_survival(a, y), (a, y)


class TestOracleIndependence:
    def test_oracles_run_without_the_main_path(self, monkeypatch):
        # every kernel of the float main path raises; the oracles must not
        # notice, over the whole trusted range of each
        oracle_cells = [(a, y) for a in range(1, 13) for y in range(0, 201)]
        multisum_cells = [(a, q) for a in range(1, 7) for q in range(1, 5)]

        def run():
            return (
                [cdf_oracle(a, y) for a, y in oracle_cells],
                [bits(expected_tests_multisum(BankSpec(a, q))) for a, q in multisum_cells],
            )

        want = run()

        def disabled(*args, **kwargs):
            raise AssertionError("an oracle reached the main path")

        class Disabled:
            __getitem__ = staticmethod(disabled)

        # a point read looks its row up through _TAIL_STARTS, then _point_row,
        # which reads _survival_block
        for name in ("_survival_block", "_point_row", "_fast2sum_running", "_series"):
            monkeypatch.setattr(coupon, name, disabled)
        monkeypatch.setattr(coupon, "_TAIL_STARTS", Disabled())
        assert run() == want
        with pytest.raises(AssertionError, match="main path"):
            single_bank_survival(5, 20)  # the patches do reach the main path


class TestTestCountCdf:
    def test_zero_below_bank_size(self):
        assert test_count_cdf(BankSpec(4, 7), 3).p == 0.0

    def test_single_alternative_is_immediate(self):
        v = test_count_cdf(BankSpec(1, 5), 1)
        assert v.p == 1.0 and v.abs_err == 0.0

    def test_is_power_of_single_bank(self):
        got = test_count_cdf(BankSpec(5, 3), 20).p
        want = single_bank_cdf(5, 20).p ** 3
        assert got == pytest.approx(want, rel=1e-12)

    def test_monotone_in_n(self):
        spec = BankSpec(6, 4)
        values = [test_count_cdf(spec, n).p for n in range(0, 120)]
        assert all(x <= y for x, y in zip(values, values[1:]))

    @settings(max_examples=40, deadline=None)
    @given(a=st.integers(2, 20), n=st.integers(0, 200), q=st.integers(1, 400))
    def test_non_increasing_in_q(self, a, n, q):
        smaller = test_count_cdf(BankSpec(a, q), n).p
        larger = test_count_cdf(BankSpec(a, q + 1), n).p
        assert larger <= smaller + 1e-15

    def test_error_bound_scales_with_q(self):
        v = test_count_cdf(BankSpec(10, 1000), 60)
        assert v.abs_err <= 1000 * single_bank_cdf(10, 60).abs_err + 1e-15

    def test_envelope_check_reads_this_cdf(self):
        # the full battery's envelope check judges the library's cdf, which
        # takes exp(q * log1p(-S)) below S = 0.5, not a power of its own
        qs = (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)
        worst = -math.inf
        for a in TABLE_A:
            for q in qs:
                centre = centring(a, q).centre
                for x in np.arange(-3.0, 10.0 + 1e-9, 0.25):
                    n = math.floor(centre + x)
                    p = test_count_cdf(BankSpec(a, q), n).p if n >= 0 else 0.0
                    lower, upper = sandwich_bounds(a, x)
                    worst = max(worst, lower - p, p - upper)
        assert bits(validate.sandwich_excursion(qs)) == bits(worst)

    def test_error_bound_is_informative_near_one(self):
        # the bound was 1.0 at both: q times the survival's bound, whose floor
        # was 2**-53, though S(600) is 3.5e-27 and S < 10 * 2**-1075 in the
        # constant tail (from n = 7073 at a = 10)
        for n in (600, 10 ** 4):
            assert test_count_cdf(BankSpec(10, 10 ** 18), n).abs_err <= 1e-6, n

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(point=audit_points(), q=st.integers(1, 6))
    def test_bound_covers_the_exact_value(self, point, q):
        # the value lies within abs_err of the exact (1 - S(n))**q; with
        # q <= 6 the powers of the rationals stay cheap enough to form exactly
        a, n = point
        v = test_count_cdf(BankSpec(a, q), n)
        num, den = survival_ratio(a, n)
        assert within(v.p, v.abs_err, (den - num) ** q, den ** q), (a, q, n, v)

    def test_error_bound_covers_exact_value(self):
        # (1 - S)**q from S in 80-digit mpmath, whose alternating sum loses
        # at most 20 digits, at bank counts up to 1e300 and test counts from
        # the bank size to where p is within an ulp of 1
        worst = 0.0
        with mpmath.workdps(80):
            for a in (2, 3, 10, 33, MAX_ALTERNATIVES):
                for q in (1, 2, 10 ** 3, 10 ** 6, 10 ** 12, 10 ** 18, 10 ** 100, 10 ** 300):
                    centre = centring(a, q).centre
                    for n in sorted({a, a + 1, *(max(a, round(centre + x))
                                                 for x in (-3, 0, 3, 10, 30, 40 * a))}):
                        s = mpmath.fsum((-1) ** (k + 1) * math.comb(a, k)
                                        * (mpmath.mpf(a - k) / a) ** n for k in range(1, a + 1))
                        exact = mpmath.exp(q * mpmath.log1p(-s))
                        v = test_count_cdf(BankSpec(a, q), n)
                        assert abs(v.p - exact) <= v.abs_err, (a, q, n, v, exact)
                        worst = max(worst, float(abs(v.p - exact) / v.abs_err))
        assert worst > 0.01  # the bound is tight enough for the check to mean something


class TestTestCountPmf:
    def test_single_alternative(self):
        assert test_count_pmf(BankSpec(1, 3), 1).p == 1.0
        assert test_count_pmf(BankSpec(1, 3), 2).p == 0.0

    def test_two_alternatives_first_chance(self):
        assert test_count_pmf(BankSpec(2, 1), 2).p == pytest.approx(0.5, abs=1e-15)

    def test_normalizes(self):
        spec = BankSpec(10, 10)
        total = sum(test_count_pmf(spec, n).p for n in range(1, 400))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_nonnegative(self):
        spec = BankSpec(12, 7)
        assert all(test_count_pmf(spec, n).p >= 0.0 for n in range(1, 300))

    def test_rejects_zero(self):
        with pytest.raises(InvalidSpecError):
            test_count_pmf(BankSpec(2, 1), 0)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(point=audit_points(least=1), q=st.integers(1, 6))
    def test_bound_covers_the_exact_value(self, point, q):
        # the value lies within abs_err of the exact F(n)**q - F(n-1)**q; with
        # q <= 6 the powers of the rationals stay cheap enough to form exactly
        a, n = point
        v = test_count_pmf(BankSpec(a, q), n)
        num, den = survival_ratio(a, n)
        before, _ = survival_ratio(a, n - 1)  # over a**(n-1), so times a over a**n
        exact = (den - num) ** q - ((den // a - before) * a) ** q
        assert within(v.p, v.abs_err, exact, den ** q), (a, q, n, v)

    @pytest.mark.parametrize(
        "n,message",
        [
            (0, "test count must be >= 1, got 0"),
            (-1, "test count must be >= 1, got -1"),
            (2.0, "test count must be an integer, got 2.0"),
        ],
    )
    def test_invalid_count_messages(self, n, message):
        with pytest.raises(InvalidSpecError) as got:
            test_count_pmf(BankSpec(3, 2), n)
        assert str(got.value) == message

    @pytest.mark.parametrize(
        "a,q",
        [(1, 1), (1, 5), (2, 1), pytest.param(2, TOP_Q, id="2-TOP_Q"), (7, 3), (10, 10 ** 6),
         pytest.param(10, TOP_Q, id="10-TOP_Q"), (41, 1000), (64, 1), (64, 10 ** 6)],
    )
    def test_is_the_clamped_cdf_difference(self, a, q):
        # the pmf is the difference of the cdf cells at n and n - 1, a tiny
        # negative difference clamped to 0.0, with the sum of their bounds
        spec = BankSpec(a, q)
        cut = coupon._TAIL_STARTS[a] if a > 1 else 1
        ns = {*range(1, 3 * a + 2), cut - 1, cut, cut + 1, cut + 300, 10 ** 30}
        for n in sorted(ns - {0}):
            hi, lo = test_count_cdf(spec, n), test_count_cdf(spec, n - 1)
            diff = hi.p - lo.p
            assert diff >= -coupon._PMF_CLAMP, (a, q, n)
            got = test_count_pmf(spec, n)
            want = (0.0 if diff < 0.0 else diff, hi.abs_err + lo.abs_err)
            assert bits(got.p, got.abs_err) == bits(*want), (a, q, n)


class TestExpectedTests:
    def test_single_alternative(self):
        est = expected_tests(BankSpec(1, 9))
        assert est.value == 1.0 and est.tail_bound == 0.0

    @pytest.mark.parametrize(
        "a,q,reference",
        [(5, 1, 11.4), (10, 10, 49.9), (10, 200, 78.1), (20, 200, 173.5)],
    )
    def test_reference_cells(self, a, q, reference):
        assert expected_tests(BankSpec(a, q)).value == pytest.approx(reference, abs=0.05)

    def test_certificate_honored(self):
        est = expected_tests(BankSpec(10, 10))
        assert 0.0 < est.tail_bound <= LIMIT

    def test_float_protocol(self):
        assert float(expected_tests(BankSpec(2, 1))) == pytest.approx(3.0, abs=1e-9)

    def test_failing_cap_raises_before_any_term(self, monkeypatch):
        # a q that no float can hold makes no spec: BankSpec refuses it with
        # the one message, so neither moment forms a window or a term
        calls = []
        for name in ("_windows", "_coverage_terms"):
            real = getattr(coupon, name)
            monkeypatch.setattr(coupon, name, lambda *args, real=real: (
                calls.append(args) or real(*args)))
        for fn in (expected_tests, variance_tests):
            with pytest.raises(InvalidSpecError) as got:
                fn(BankSpec(20, 10 ** 400))
            assert str(got.value) == ("q is beyond the float range "
                                      "(q must be below 2**1024 - 2**970)")
        assert calls == []

    @pytest.mark.parametrize("a", [2, MAX_ALTERNATIVES])
    def test_limit_is_the_least_q_no_float_holds(self, a):
        # 2**1024 - 2**970 - 1 rounds down to the float maximum and answers
        # as it does; one more rounds up to 2**1024, and makes no spec
        top = 2 ** 1024 - 2 ** 970
        assert float(top - 1) == sys.float_info.max
        with pytest.raises(OverflowError):
            float(top)
        for fn in (expected_tests, variance_tests):
            got, want = fn(BankSpec(a, top - 1)), fn(BankSpec(a, int(sys.float_info.max)))
            assert astuple(got) == astuple(want)
            assert 0.0 < got.tail_bound <= LIMIT, got
            with pytest.raises(InvalidSpecError, match=re.escape("below 2**1024 - 2**970")):
                fn(BankSpec(a, top))

    def test_monotone_in_q(self):
        values = [expected_tests(BankSpec(7, q)).value for q in (1, 2, 5, 10, 50)]
        assert all(x < y for x, y in zip(values, values[1:]))

    def test_large_bank_sizes_within_max_bound(self):
        # a = 41..64: the survival rounds to 1.0 just above n = a.  The mean
        # of a maximum of q copies lies above one copy's mean a*H_a and below
        # mu + sigma*(q-1)/sqrt(2q-1) (Gumbel 1954; Hartley and David 1954).
        q = 3
        for a in range(41, MAX_ALTERNATIVES + 1):
            est = expected_tests(BankSpec(a, q))
            mu = expected_single_bank(a)
            sigma = math.sqrt(sum((k - 1) * a / (a - k + 1) ** 2 for k in range(1, a + 1)))
            assert mu < est.value < mu + sigma * (q - 1) / math.sqrt(2 * q - 1), a
            assert est.tail_bound <= LIMIT


def reference_multisum(a: int, q: int) -> float:
    """The multi-sum formed one index tuple at a time, each term's products
    from scratch."""
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


class TestMultisum:
    @pytest.mark.parametrize("a", range(1, 7))
    def test_bits_match_the_per_tuple_loop(self, a):
        for q in range(1, 5):
            got = expected_tests_multisum(BankSpec(a, q))
            assert bits(got) == bits(reference_multisum(a, q)), (a, q)

    def test_two_alternatives_matches_harmonic(self):
        assert expected_tests_multisum(BankSpec(2, 1)) == expected_single_bank(2) == 3.0

    def test_reference_cell(self):
        assert expected_tests_multisum(BankSpec(5, 1)) == pytest.approx(11.42, abs=0.005)

    @pytest.mark.parametrize("a,q", [(5, 3), (6, 2), (4, 4), (3, 4), (6, 4)])
    def test_agrees_with_series(self, a, q):
        spec = BankSpec(a, q)
        assert expected_tests_multisum(spec) == pytest.approx(
            expected_tests(spec).value, abs=1e-9
        )

    def test_trusted_range(self):
        message = "multi-sum trusted only for a <= 6 and q <= 4"
        with pytest.raises(InvalidSpecError, match=message):
            expected_tests_multisum(BankSpec(7, 1))
        with pytest.raises(InvalidSpecError, match=message):
            expected_tests_multisum(BankSpec(3, 5))


class TestVarianceTests:
    def test_single_alternative(self):
        assert variance_tests(BankSpec(1, 4)).value == 0.0

    def test_two_alternatives(self):
        # Y = 1 + Geometric(1/2): variance 2
        assert variance_tests(BankSpec(2, 1)).value == pytest.approx(2.0, abs=1e-9)

    def test_geometric_stage_variance_oracle(self):
        # single bank: variance is the sum of the stage geometric variances
        for a in (3, 10, 25, 41, 50, 64):
            exact = sum(
                float(
                    (1 - Fraction(a - k + 1, a)) / Fraction(a - k + 1, a) ** 2
                )
                for k in range(1, a + 1)
            )
            assert variance_tests(BankSpec(a, 1)).value == pytest.approx(exact, abs=1e-6)

    def test_certificate_honored(self):
        est = variance_tests(BankSpec(5, 50))
        assert 0.0 < est.tail_bound <= LIMIT

    @pytest.mark.xfail(strict=True, reason="the q = 1 variance misses its own tail_bound "
                       "for 21 of a = 2..64 (worst a = 57: 4.79e-11 against 9.90e-12)")
    def test_single_bank_variance_within_its_tail_bound(self):
        misses = []
        for a in range(2, MAX_ALTERNATIVES + 1):
            exact = sum((1 - Fraction(k, a)) / Fraction(k, a) ** 2 for k in range(1, a + 1))
            est = variance_tests(BankSpec(a, 1))
            if abs(Fraction(est.value) - exact) > Fraction(est.tail_bound):
                misses.append(a)
        assert misses == []


def _exp_neg(t: Fraction) -> float:
    """exp(-t) for t >= 0, 0.0 once the float underflows."""
    return math.exp(-float(t)) if t < 800 else 0.0


def two_alternative_cdf_interval(q: int, n: int) -> tuple[float, float]:
    """Interval holding P(N <= n) for q banks of a = 2 alternatives, n >= 2.

    F(n) = 1 - x with x = 2**(1 - n) <= 1/2, and x <= -log1p(-x) <= x + x**2,
    so F(n)**q lies between exp(-t (1 + x)) and exp(-t), t = q x.
    """
    x = Fraction(1, 2 ** (n - 1))
    t = q * x
    return _exp_neg(t * (1 + x)), _exp_neg(t)


class TestBankCountBeyondFloatRange:
    """q = TOP_Q lies past the float maximum, to which it rounds, and is the
    largest bank count a spec takes; one more is refused."""

    Q = TOP_Q
    # log2(TOP_Q) is about 1024, so the true cdf climbs from 0 to 1 near
    # n = 1025, up to the float curve's constant tail (from n = 1075 at a = 2)
    NS = (2, 3, 100, 1000, 1020, 1024, 1025, 1026, 1030, 1074, 1075, 1076, 1100, 10 ** 6)

    def test_cdf_bound_covers_true_value(self):
        spec = BankSpec(2, self.Q)
        for n in self.NS:
            v = test_count_cdf(spec, n)
            lo, hi = two_alternative_cdf_interval(self.Q, n)
            assert max(abs(v.p - lo), abs(v.p - hi)) <= v.abs_err, (n, v, lo, hi)

    def test_pmf_bound_covers_true_value(self):
        spec = BankSpec(2, self.Q)
        for n in self.NS[1:]:
            v = test_count_pmf(spec, n)
            lo_n, hi_n = two_alternative_cdf_interval(self.Q, n)
            lo_prev, hi_prev = two_alternative_cdf_interval(self.Q, n - 1)
            lo, hi = lo_n - hi_prev, hi_n - lo_prev
            assert max(abs(v.p - lo), abs(v.p - hi)) <= v.abs_err, (n, v, lo, hi)

    @pytest.mark.parametrize("a", [2, 10, MAX_ALTERNATIVES])
    def test_series_are_never_certified(self, a):
        # one past TOP_Q no float can hold, so no sum could be certified: the
        # spec refuses the q as out of domain, and no series is asked for it
        for fn in (expected_tests, variance_tests):
            with pytest.raises(InvalidSpecError, match="q is beyond the float range"):
                fn(BankSpec(a, self.Q + 1))

    def test_series_raise_before_summing(self, monkeypatch):
        # nothing past the float range can be certified, so no term is computed
        calls = []
        real = coupon._coverage_terms
        monkeypatch.setattr(
            coupon, "_coverage_terms", lambda *args: calls.append(args) or real(*args)
        )
        for fn in (expected_tests, variance_tests):
            with pytest.raises(InvalidSpecError):
                fn(BankSpec(10, self.Q + 1))
        assert calls == []


def decimal_moments(a: int, q: int) -> tuple[float, float]:
    """(mean, variance) of the coverage time in 60-digit decimals.

    P(N > n) = 1 - (1 - S(n))**q, with S(n) from the alternating closed form
    and log(1 - S) by its series once S is tiny; the sums stop once q * S(n)
    drops below 1e-40.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        ratios = [Decimal(a - j) / a for j in range(1, a)]
        signs = [(-1) ** (j + 1) * math.comb(a, j) for j in range(1, a)]
        powers = [Decimal(1)] * (a - 1)
        big_q = Decimal(q)
        total = second = Decimal(0)
        n = 0
        while True:
            s = sum(c * x for c, x in zip(signs, powers)) if n >= a else Decimal(1)
            if n >= a and big_q * s < Decimal("1e-40"):
                return float(total), float(second - total * total)
            if s >= 1 or big_q * s > 200:
                p = Decimal(1)
            else:
                log1m = -s - s * s / 2 if s < Decimal("1e-20") else (1 - s).ln()
                p = 1 - (big_q * log1m).exp()
            total += p
            second += (2 * n + 1) * p
            powers = [x * r for x, r in zip(powers, ratios)]
            n += 1


class TestSeriesNearFloatMax:
    """Finite q up to the float maximum: the tail bound must neither overflow
    (2*a*q past the float range) nor vanish (decay**(n-1) below the normal range)."""

    @pytest.mark.parametrize(
        "a,q",
        [
            pytest.param(10, 10 ** 306, id="10,10**306"),
            pytest.param(10, 10 ** 307, id="10,10**307"),
            pytest.param(2, 10 ** 308, id="2,10**308"),
        ],
    )
    def test_certified_and_match_decimal_reference(self, a, q):
        mean, variance = decimal_moments(a, q)
        est = expected_tests(BankSpec(a, q))
        var = variance_tests(BankSpec(a, q))
        for e in (est, var):
            assert 0.0 < e.tail_bound <= LIMIT, (a, q, e)
        assert est.value == pytest.approx(mean, abs=1e-9)
        # E N^2 - (E N)^2 cancels about log10(E N^2 / Var) digits
        assert var.value == pytest.approx(variance, rel=1e-9)

    def test_bound_covers_the_geometric_tail(self):
        # at the stopping point the tail line's bound is at least the direct
        # product evaluated in exact rationals
        a, q = 10, 10 ** 306
        est = variance_tests(BankSpec(a, q))
        decay = Fraction(a - 1, a)
        n = est.terms
        exact = 2 * a * q * decay ** (n - 1) / (1 - decay) * ((2 * n + 1) + 2 * decay / (1 - decay))
        assert Fraction(est.tail_bound) >= exact
        assert est.tail_bound <= float(exact) * (1 + 1e-6)

    @pytest.mark.xfail(strict=True, reason="tail_bound covers truncation only: at a = 10, "
                       "q = 1e306 the variance is 7.8e-9 from the decimal reference against a "
                       "bound of 9.8e-12")
    def test_variance_within_its_own_tail_bound(self):
        _mean, variance = decimal_moments(10, 10 ** 306)
        var = variance_tests(BankSpec(10, 10 ** 306))
        assert abs(var.value - variance) <= var.tail_bound


# Each series against the 60-digit reference on a grid of bank sizes and
# counts, with a strict xfail on every spec whose value misses its own
# tail_bound, which covers truncation only.  Each reason names the ROADMAP
# direction that should turn it green.
CERTIFICATE_GRID = [(a, q) for a in (2, 5, 10, 20, 40, 64) for q in (1, 10 ** 3, 10 ** 6, 10 ** 12)]
CERTIFICATE_GRID.append((20, 10 ** 150))
_CANCELS = "E N^2 - mean**2 magnifies rounding past the bound (direction 14)"
_CELLS = ("at q = 1 the curve cells' propagated error and the summation, as in "
          "test_single_bank_variance_within_its_tail_bound (direction 1a-ii)")
CERTIFICATE_MISSES = {
    "mean": {(20, 10 ** 150): "a few ulps of a mean near 6,800 exceed the absolute bound, "
                              "1.11 times it (direction 1a-ii)"},
    "variance": {(40, 1): _CELLS, (64, 1): _CELLS, **dict.fromkeys(
        [(10, 10 ** 12), (20, 10 ** 6), (20, 10 ** 12), (40, 10 ** 6), (40, 10 ** 12),
         (64, 10 ** 3), (64, 10 ** 6), (64, 10 ** 12), (20, 10 ** 150)], _CANCELS)},
}


@functools.cache
def grid_reference(a: int, q: int) -> tuple[float, float]:
    """:func:`decimal_moments`, formed once per spec for both moments."""
    return decimal_moments(a, q)


def certificate_cases():
    for moment, misses in CERTIFICATE_MISSES.items():
        for a, q in CERTIFICATE_GRID:
            reason = misses.get((a, q))
            marks = pytest.mark.xfail(strict=True, reason=reason) if reason else ()
            yield pytest.param(moment, a, q, marks=marks,
                               id=f"{moment}-{a}-1e{len(str(q)) - 1}")


@pytest.mark.parametrize("moment,a,q", certificate_cases())
def test_series_within_their_tail_bound(moment, a, q):
    second = moment == "variance"
    est = (variance_tests if second else expected_tests)(BankSpec(a, q))
    assert abs(est.value - grid_reference(a, q)[second]) <= est.tail_bound, est


class TestWidestWindow:
    """No term count is capped.  The widest window of the domain is at
    a = 64 and q at the float maximum; the corner at a = 2 is narrower.
    Both moments certify in one pass, whose terms reach the variance's
    stop."""

    Q = int(sys.float_info.max)

    @pytest.mark.parametrize("a,terms,width", [
        (64, (47252, 47981), 47981),
        (2, (1065, 1076), 1076),
    ])
    def test_certifies_in_one_pass(self, monkeypatch, a, terms, width):
        calls = []
        real = coupon._coverage_terms
        monkeypatch.setattr(
            coupon, "_coverage_terms", lambda *args: calls.append(args) or real(*args)
        )
        coupon._moments.cache_clear()
        spec = BankSpec(a, self.Q)
        moments = expected_tests(spec), variance_tests(spec)
        assert [args[2] for args in calls] == [width]
        assert tuple(e.terms for e in moments) == terms
        for e in moments:
            assert 0.0 < e.tail_bound <= LIMIT, e
        # each moment stops at the least n its line certifies
        windows = coupon._windows(a, (float(self.Q),), True)
        assert [first for _, first in windows] == [e.terms for e in moments]

    def test_no_bank_size_is_wider(self):
        ends = [coupon._windows(a, (float(self.Q),), True)[1][1]
                for a in range(2, MAX_ALTERNATIVES + 1)]
        assert max(ends) == ends[-1] == 47981


# Reference copy of the per-test-count route that the block cache replaced:
# the alternating closed form in compensated floats for one y, redone in
# exact rationals when its error bound exceeds 1e-13.  The block cache must
# reproduce it bit for bit.
_ULP = 2.0 ** -53
_TINY = 2.0 ** -1074
# the S bound of the constant tail, shared by every a: the floor at a = 64
_TAIL_ERR = MAX_ALTERNATIVES * _TINY


def reference_curve_point(a: int, y: int) -> tuple[tuple[float, float, float, float], str]:
    """(S, S error bound, F, F error bound) and the route taken: 'exact',
    'float' or, where every term of the closed form underflows, 'tail'.

    S's bound is the closed form's (y + 2a + 10) ulp times the sum of the
    term magnitudes (none on the exact route) plus the floor
    max(ulp * S, a * 2**-1074); F's is an ulp on the exact route and S's
    bound plus an ulp elsewhere."""
    if a == 1:
        return ((0.0, 0.0, 1.0, 0.0) if y >= 1 else (1.0, 0.0, 0.0, 0.0)), "float"
    if y < a:
        return (1.0, 0.0, 0.0, 0.0), "float"
    total = low = magnitude = 0.0
    for k in range(1, a + 1):
        term = math.comb(a, k) * ((a - k) / a) ** y
        x = -term if k % 2 == 0 else term
        step = total + x
        if abs(total) >= abs(x):
            low += (total - step) + x
        else:
            low += (x - step) + total
        total = step
        magnitude += term
    if magnitude == 0.0:
        return (0.0, _TAIL_ERR, 1.0, _TAIL_ERR + _ULP), "tail"
    bound = (y + 2 * a + 10) * _ULP * magnitude
    if bound > 1e-13:
        exact = exact_survival(a, y)
        s = float(exact)
        return (s, max(_ULP * s, a * _TINY), float(1 - exact), _ULP), "exact"
    p = total + low
    s = clamp01(p)
    err = bound + max(_ULP * s, a * _TINY)
    return (s, err, clamp01(1.0 - p), err + _ULP), "float"


def exact_survival(a: int, y: int) -> Fraction:
    """S(y) from the alternating closed form in exact rationals."""
    return Fraction(*survival_ratio(a, y))


def clamp01(p: float) -> float:
    return 0.0 if p < 0.0 else 1.0 if p > 1.0 else p


def neumaier_running(values) -> list[float]:
    """s + c after each term of Neumaier's compensated sum, one term at a
    time from s = c = 0.0; the tests' own loop, sharing no summation code
    with the library."""
    s = c = 0.0
    running = []
    for x in values:
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        s = t
        running.append(s + c)
    return running


def twosum_running(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The running sums and running corrections of a Neumaier loop over each
    row, as the library's replay returns them, with each error from Knuth's
    branch-free TwoSum, exact for any two floats: the tests' vectorised
    reference for that replay, held to :func:`neumaier_running` itself."""
    running = np.zeros((len(rows), rows.shape[1] + 1))
    before, after = running[:, :-1], running[:, 1:]
    np.add.accumulate(rows, axis=1, out=after)
    moved = after - before
    low = after - moved
    np.subtract(before, low, out=low)
    np.subtract(rows, moved, out=moved)
    low += moved
    return after, np.add.accumulate(low, axis=1, out=low)


def neumaier(values) -> float:
    """Neumaier's compensated sum of ``values``: 0.0 for none.  The last
    entry of :func:`neumaier_running`, by the same operations in the same
    order, without the list of every running sum."""
    s = c = 0.0
    for x in values:
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        s = t
    return s + c


def reference_line(a: int, q: float, second_moment: bool):
    """n -> 2a**3/(a-1) * q * decay**n, times 2n + 2a - 1 for the variance,
    from its logarithm c - r*n (+ log(2n + 2a - 1)) with c raised by 1e-9:
    inf above the float range, and at least the smallest normal float; the
    tests' own copy of the library's tail line, rounded as it rounds.  c and
    r are formed once, for a caller that reads the line at every n."""
    c = math.log(2.0 * a ** 3 / (a - 1)) + math.log(q) + 1e-9
    r = -math.log((a - 1) / a)
    log_max = math.log(sys.float_info.max)

    def tail(n: int) -> float:
        log_tail = c - r * n
        if second_moment:
            log_tail += math.log(2 * n + 2 * a - 1)
        if log_tail >= log_max:
            return math.inf
        return max(math.exp(log_tail), sys.float_info.min)

    return tail


def reference_tail(a: int, q: float, n: int, second_moment: bool) -> float:
    """:func:`reference_line` read at test count ``n``."""
    return reference_line(a, q, second_moment)(n)


def library_line(a: int, q: float, second_moment: bool) -> tuple:
    """The tail line of the mean or the variance series of (a, q), as the
    library's window solve forms it."""
    return coupon._windows(a, (float(q),), True)[second_moment][0]


def crossing_counts(a: int, n: int, second_moment: bool) -> tuple[float, float]:
    """The neighbouring floats q whose tail lines (:func:`reference_tail`)
    straddle ``LIMIT`` at test count ``n``: the greatest q whose bound at n
    is at most the limit, and the next float up.  The bound never decreases
    in q, so a bisection on the bits of q finds them, from the q that the
    line's logarithms solve for."""
    r = -math.log((a - 1) / a)
    log_q = math.log(LIMIT) + r * n - math.log(2.0 * a ** 3 / (a - 1)) - 1e-9
    if second_moment:
        log_q -= math.log(2 * n + 2 * a - 1)
    lo, hi = (struct.unpack("<q", struct.pack("<d", math.exp(log_q) * k))[0]
              for k in (1 - 1e-9, 1 + 1e-9))
    as_float = lambda b: struct.unpack("<d", struct.pack("<q", b))[0]  # noqa: E731
    assert reference_tail(a, as_float(lo), n, second_moment) <= LIMIT, (a, n, second_moment)
    assert reference_tail(a, as_float(hi), n, second_moment) > LIMIT, (a, n, second_moment)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reference_tail(a, as_float(mid), n, second_moment) <= LIMIT:
            lo = mid
        else:
            hi = mid
    return as_float(lo), as_float(hi)


def library_tail(a: int, q: int, n: int, second_moment: bool) -> float:
    """The library's series tail bound from test count ``n`` on."""
    return coupon._tail_bound(library_line(a, q, second_moment), n)


def reference_series(a: int, q: int, second_moment: bool,
                     survival=None) -> tuple[float, float, int]:
    """(value, tail_bound, terms) of the mean or variance series, summed one
    term at a time up to the least n whose tail bound is at most ``LIMIT``,
    which it reaches for any q below the float maximum.

    ``survival(n)`` gives S(n) for n >= a; by default the per-y reference
    route.  The tail bound is :func:`reference_line`.
    """
    if a == 1:
        return (0.0 if second_moment else 1.0), 0.0, 1
    if survival is None:
        survival = lambda n: reference_curve_point(a, n)[0][0]  # noqa: E731
    bank_count = float(q)
    line = reference_line(a, bank_count, second_moment)
    mean_terms, second_terms = [], []
    for n in itertools.count():
        tail = line(n)
        if tail <= LIMIT:
            if second_moment:
                mean = neumaier(mean_terms)
                return neumaier(second_terms) - mean * mean, tail, n
            return neumaier(mean_terms), tail, n
        s = 1.0 if n < a else survival(n)
        if s == 0.0:
            term = 0.0
        elif s == 1.0:
            term = 1.0
        else:
            term = -math.expm1(bank_count * math.log1p(-s))
        mean_terms.append(term)
        second_terms.append((2 * n + 1) * term)


def bits(*values: float) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def series_outcome(estimate: tuple) -> tuple:
    """The bits of a series' value and tail bound with its term count."""
    value, tail, terms = estimate
    return bits(value, tail), terms


_SIGNED = st.builds(lambda m, neg: -m if neg else m, st.floats(1e-300, 1e300), st.booleans())


@st.composite
def replay_rows(draw) -> list[list[float]]:
    """1 to 3 rows of one length in 1..300: a nonzero first entry, then
    signed magnitudes from 1e-300 to 1e300 mixed with +0.0 and -0.0."""
    length = draw(st.integers(1, 300))
    rest = st.lists(
        st.one_of(_SIGNED, st.sampled_from((0.0, -0.0))), min_size=length - 1, max_size=length - 1
    )
    return [[draw(_SIGNED)] + draw(rest) for _ in range(draw(st.integers(1, 3)))]


class TestCompensatedReplay:
    """The tests' vectorised TwoSum replay against their scalar loop."""

    @settings(max_examples=100, deadline=None)
    @given(rows=replay_rows())
    def test_signed_rows_match_scalar_neumaier(self, rows):
        # the library's replay is held to this one at every column of the
        # series rows (TestFast2SumReplay) and at the last column of every
        # block row (TestSurvivalBlocks), so every column must be the loop
        # stopped there
        sums, lows = twosum_running(np.array(rows))
        for row, row_sums, row_lows in zip(rows, sums.tolist(), lows.tolist()):
            got = [s + c for s, c in zip(row_sums, row_lows)]
            assert bits(*got) == bits(*neumaier_running(row)), row

    def test_cancelling_row(self):
        # 1 - 1e16 loses the 1 to rounding, which the correction keeps; the
        # big terms then cancel.  The larger magnitude here is the negative term
        row = [1.0, -1e16, 1e16, 3.0]
        sums, lows = twosum_running(np.array([row]))
        assert sums.item(0, -1) + lows.item(0, -1) == 4.0 == neumaier(row)


def benchmark_requests(seeds) -> set[tuple[int, int]]:
    """The (a, q) of the exact_queries benchmark's request streams at
    ``seeds``, drawn by ``perfbench/jobs.py`` (stdlib and numpy at import)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("_benchmark_jobs", path)
    jobs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = jobs  # its dataclasses look their module up while it runs
    try:
        spec.loader.exec_module(jobs)
    finally:
        del sys.modules[spec.name]
    return {request for seed in seeds for request in jobs.exact_stream(seed)}


@pytest.fixture(scope="class")
def series_replays():
    """For every row matrix the series kernel replays, over the benchmark's
    streams at seeds 1-3, a = 2..64 at q from 1 to 1e306 (both moments) and
    the three mean table grids: the terms whose exponent exceeds that of the
    running sum before them (np.frexp's) and whose addition is inexact, and
    whether the Fast2Sum replay's running sums and corrections are
    :func:`twosum_running`'s, bit for bit.  Checked as each matrix is
    replayed, so none is kept.  The curve blocks filled on the way share the
    replay; their rows have a sign bit set (column k = 2 is negated, as a
    negative number or as -0.0) and a series row never has one, so they
    pass straight through (TestSurvivalBlocks checks them)."""
    real = coupon._fast2sum_running
    checked = []

    def replay(rows):
        if np.signbit(rows).any():
            return real(rows)
        sums, lows = twosum_running(rows)
        fast_sums, fast_lows = real(rows)
        before = np.zeros_like(rows)  # the running sum before each term
        before[:, 1:] = sums[:, :-1]
        larger = np.nonzero(np.frexp(rows)[1] > np.frexp(before)[1])
        inexact = [(i, k) for i, k in zip(*larger) if Fraction(before[i, k])
                   + Fraction(rows[i, k]) != Fraction(sums[i, k])]
        same = fast_sums.tobytes() == sums.tobytes() and fast_lows.tobytes() == lows.tobytes()
        checked.append((rows.shape, len(larger[0]), inexact, same))
        return fast_sums, fast_lows

    specs = benchmark_requests((1, 2, 3)) | {
        (a, q) for a in range(2, MAX_ALTERNATIVES + 1)
        for q in (1, 2, 10, 10 ** 3, 10 ** 6, 10 ** 12, 10 ** 100, 10 ** 306)}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coupon, "_fast2sum_running", replay)
        for a, q in sorted(specs):
            coupon._series(a, (q,), True)
        for a in TABLE_A:
            for qs in (TABLE_Q, FIG_LOW_Q, FIG_HIGH_Q):
                coupon._series(a, qs, False)
    assert len(checked) == len(specs) + 9
    return checked


class TestFast2SumReplay:
    """The series rows' replay: its precondition, and TwoSum's bits."""

    def test_every_term_is_dominated_or_added_exactly(self, series_replays):
        assert [(shape, inexact) for shape, _, inexact, _ in series_replays if inexact] == []
        # the exact additions that are not dominated: 0 + 1 at column 0 of
        # every row, and 1 + 3 at column 1 of a variance row
        assert sum(larger for _, larger, _, _ in series_replays) > len(series_replays)

    def test_matches_twosum_bit_for_bit(self, series_replays):
        assert [shape for shape, _, _, same in series_replays if not same] == []


class TestSeriesSweep:
    """One mean kernel call over a vector of q against one call per q, bit
    for bit; the variance, summed one q at a time, against the one-term
    reference."""

    @staticmethod
    def _assert_sweep(a: int, qs: tuple[int, ...], second: bool) -> list:
        if second:
            got = [variance_tests(BankSpec(a, q)) for q in qs]
            survival = lambda n: single_bank_survival(a, n).p  # noqa: E731
            for q, est in zip(qs, got):
                want = reference_series(a, q, True, survival)
                assert (bits(est.value, est.tail_bound), est.terms) == (
                    bits(*want[:2]), want[2]), (a, q)
            return got
        got = [mean for (mean,) in coupon._series(a, qs, False)]
        assert len(got) == len(qs)
        for q, est in zip(qs, got):
            want = expected_tests(BankSpec(a, q))
            assert bits(est.value, est.tail_bound) == bits(want.value, want.tail_bound), (a, q)
            assert est.terms == want.terms, (a, q)
        return got

    def test_every_bank_size(self):
        rng = random.Random(12)
        for a in range(2, MAX_ALTERNATIVES + 1):
            spread = tuple(int(10 ** rng.uniform(0, 8)) for _ in range(3))
            for second, qs in ((False, (*FIG_HIGH_Q, 10 ** 6, *spread)), (True, (1, 10, 10 ** 4))):
                for q, est in zip(qs, self._assert_sweep(a, qs, second)):
                    # every sum stops at the least n whose tail bound meets
                    # the limit; the bound never increases
                    first = bisect.bisect_left(range(sys.maxsize), True, key=lambda n: (
                        library_tail(a, q, n, second) <= LIMIT))
                    assert est.terms == first, (a, q, second)

    def test_two_and_three_alternatives_with_repeated_q(self):
        for a in (2, 3):
            for second in (False, True):
                self._assert_sweep(a, (1, 1, 10, 1), second)

    def test_two_and_three_alternatives_within_their_tail_bound(self):
        # a = 2 and 3 are the bank sizes where a term at the least certified
        # n can still be above 1e-12 (the tail line lies only 8 and 9 times
        # above the term's own bound there), so the sums that stop there
        # must still meet the 60-digit reference within their bound
        rng = random.Random(43)
        qs = sorted({int(10 ** rng.uniform(0, 6)) for _ in range(20)})
        for a in (2, 3):
            for q in qs:
                want = decimal_moments(a, q)
                for est, exact in zip((expected_tests(BankSpec(a, q)),
                                       variance_tests(BankSpec(a, q))), want):
                    assert abs(est.value - exact) <= est.tail_bound, (a, q, est, exact)

    def test_stop_search_near_underflow(self):
        # q from 1e300 to the float maximum puts many stops within 12 steps
        # of _TAIL_STARTS[a], where decay**n underflows: there S(n) rounds up
        # by as much as 2x.  Each call must stop where the one-term
        # reference does
        rng = random.Random(66)
        top = math.log10(sys.float_info.max)
        near = 0
        for a in range(2, 9):
            for second in (False, True):
                fn = variance_tests if second else expected_tests
                for _ in range(6):
                    q = int(10 ** rng.uniform(300, top))
                    got = series_outcome(astuple(fn(BankSpec(a, q))))
                    want = series_outcome(reference_series(
                        a, q, second, survival=lambda n: single_bank_survival(a, n).p))
                    assert got == want, (a, q, second)
                    near += abs(got[1] - coupon._TAIL_STARTS[a]) <= 12
        assert near >= 10

    def test_limit_on_a_float_tail_value(self):
        # the tail lines of two neighbouring floats q (integers, with log q
        # from 38 to 708) straddle the limit at f: the bound at f is at most
        # the limit for the lower and above it for the upper, so the last
        # bits of the line decide whether the least certified n is f or
        # f + 1; a search that starts past it, or stops short of it, stops
        # elsewhere than the one-term reference.  The mean's draws are those
        # whose solved root, excess / r, lies past f at the lower q, so that
        # ceil(root) lies a step past its least certified n
        rng = random.Random(15)
        draws = {False: 0, True: 0}
        while min(draws.values()) < 6:
            a, second = rng.randint(2, MAX_ALTERNATIVES), rng.random() < 0.5
            drawn = math.exp(rng.uniform(38, 708))
            f = bisect.bisect_left(range(sys.maxsize), True, key=lambda n: (
                reference_tail(a, drawn, n, second) <= LIMIT))
            counts = crossing_counts(a, f, second)
            c, r, _ = library_line(a, counts[0], second)
            if draws[second] == 6 or not (second or (c - math.log(LIMIT)) / r > f):
                continue
            draws[second] += 1
            fn = variance_tests if second else expected_tests
            for q, first in zip(map(int, counts), (f, f + 1)):
                assert coupon._windows(a, (float(q),), True)[second][1] == first, (a, q, second)
                got = series_outcome(astuple(fn(BankSpec(a, q))))
                want = series_outcome(reference_series(
                    a, q, second, survival=lambda n: single_bank_survival(a, n).p))
                assert got == want, (a, q, second, f)


def both_moments(spec: BankSpec, variance_first: bool) -> list:
    """The outcomes of the mean and the variance, in that order, asked for
    one after the other from an empty memo."""
    coupon._moments.cache_clear()
    calls = {False: expected_tests, True: variance_tests}
    got = {}
    for second in (variance_first, not variance_first):
        got[second] = series_outcome(astuple(calls[second](spec)))
    return [got[False], got[True]]


class TestMomentPair:
    """The mean and the variance of one spec from one pass and a one-entry memo."""

    @pytest.mark.parametrize("variance_first", [False, True], ids=["mean first", "variance first"])
    def test_both_orders_match_reference(self, variance_first):
        for a in (2, 3, 10, 33, MAX_ALTERNATIVES):
            survival = lambda n: single_bank_survival(a, n).p  # noqa: E731
            for q in (1, 7, 10 ** 3, 10 ** 6, 10 ** 12, 10 ** 100, 10 ** 306):
                want = [series_outcome(reference_series(a, q, second, survival))
                        for second in (False, True)]
                assert both_moments(BankSpec(a, q), variance_first) == want, (a, q)

    @pytest.mark.parametrize("variance_first", [False, True], ids=["mean first", "variance first"])
    @pytest.mark.parametrize("a,q", [(2, 1), (10, 10), (20, 100)])
    def test_mean_certifies_where_the_variance_does_not(self, a, q, variance_first):
        # at the mean's stop the variance's bound is still above the limit:
        # the shared pass runs on to the variance's stop and gives both
        # moments as the reference does, in either order, and keeps them.
        # The mean's own pass, which the tables read, forms no variance row
        # and certifies as the reference does
        spec = BankSpec(a, q)
        mean_stop, stop = expected_tests(spec).terms, variance_tests(spec).terms
        assert mean_stop < stop
        assert library_tail(a, q, mean_stop, False) <= LIMIT < library_tail(a, q, mean_stop, True)
        survival = lambda n: single_bank_survival(a, n).p  # noqa: E731
        want = [series_outcome(reference_series(a, q, second, survival))
                for second in (False, True)]
        assert both_moments(spec, variance_first) == want
        assert coupon._moments.cache_info().currsize == 1
        (alone,), = coupon._series(a, (q,), False)
        assert series_outcome(astuple(alone)) == want[0]

    def test_memo_holds_one_spec(self, monkeypatch):
        assert coupon._moments.cache_info().maxsize == 1
        coupon._moments.cache_clear()
        calls = []
        real = coupon._coverage_terms
        monkeypatch.setattr(
            coupon, "_coverage_terms", lambda *args: calls.append(args) or real(*args)
        )
        first, other = BankSpec(12, 1000), BankSpec(12, 1001)
        pair = expected_tests(first), variance_tests(first)
        assert len(calls) == 1
        assert (expected_tests(first), variance_tests(first)) == pair
        assert len(calls) == 1
        variance_tests(other)
        assert len(calls) == 2
        # the memo held the other spec, so the first one's terms are formed again
        assert (variance_tests(first), expected_tests(first)) == pair[::-1]
        assert len(calls) == 3

    def test_threads_asking_alternating_specs_get_their_own(self):
        # four threads, more than the cores CI has, switching often: each
        # gets its own spec's pair whatever the memo held a moment before
        specs = [BankSpec(12, 1000), BankSpec(30, 7)]
        want = [(expected_tests(s), variance_tests(s)) for s in specs]
        start = threading.Barrier(4, timeout=60)
        wrong = []

        def ask(i: int) -> None:
            start.wait()
            for k in range(150):
                spec = specs[(i + k) % 2]
                got = (expected_tests(spec), variance_tests(spec))
                if got != want[(i + k) % 2]:
                    wrong.append((i, k, got))

        threads = [threading.Thread(target=ask, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


def exact_series_tail(a: int, q: float, n: int, second_moment: bool) -> mpmath.mpf:
    """2/decay times the geometric tail sum over m >= n of q * a * decay**m,
    weighted by 2m + 1 for the variance, decay = (a-1)/a: the quantity the
    library's tail line bounds, summed in closed form in 50-digit mpmath."""
    with mpmath.workdps(50):
        d = mpmath.mpf(a - 1) / a
        if second_moment:
            total = d ** n * ((2 * n + 1) / (1 - d) + 2 * d / (1 - d) ** 2)
        else:
            total = d ** n / (1 - d)
        return 2 / d * mpmath.mpf(q) * a * total


class TestTailLine:
    """The one tail line against the exact geometric tail it bounds."""

    TOP, LEAST = sys.float_info.max, sys.float_info.min

    @classmethod
    def _cases(cls):
        """(a, q, second moment, tail line, sampled n) over a = 2..64, q from
        1 to 1e306, both moments; n runs from 0 to past the point where the
        bound stops at the smallest normal float."""
        for a in range(2, MAX_ALTERNATIVES + 1):
            qs = [1.0, 10.0, 1e3, 1e6, 1e12, 1e50, 1e100, 1e200, 1e288, 1e300, 1e306]
            # the q past which the former direct product 2a**3/(a-1) * q * decay**n
            # overflowed at n = 0 and the bound was taken from logarithms, for
            # the mean and, with the weight 2a - 1, for the variance
            direct_top = cls.TOP / (2 * a ** 3) * (a - 1)
            for edge in (direct_top, direct_top / (2 * a - 1)):
                qs += [edge * (1 - 1e-9), edge, edge * (1 + 1e-9)]
            # where decay**(n - 1), that product's power, left the normal range
            power_end = 1 + math.ceil(math.log(cls.LEAST) / math.log((a - 1) / a))
            for second in (False, True):
                for q in qs:
                    line = library_line(a, q, second)
                    span = range(400_000)
                    finite = bisect.bisect_left(
                        span, True, key=lambda n: coupon._tail_bound(line, n) < math.inf)
                    floor = bisect.bisect_left(
                        span, True, key=lambda n: coupon._tail_bound(line, n) == cls.LEAST)
                    ns = {0, 1, 2, *(floor * k // 8 for k in range(1, 10))}
                    for edge in (finite, floor, power_end):
                        ns.update(n for n in (edge - 1, edge, edge + 1) if n >= 0)
                    yield a, q, second, line, sorted(ns)

    def test_bound_is_the_exact_tail_within_2e_9(self):
        checked = 0
        for a, q, second, line, ns in self._cases():
            for n in ns:
                got = coupon._tail_bound(line, n)
                exact = exact_series_tail(a, q, n, second)
                if got == math.inf:
                    # the line is past log(float max): so is the exact tail, to 1e-9
                    assert exact >= self.TOP * (1 - 2e-9), (a, q, second, n)
                    continue
                assert mpmath.mpf(got) >= exact, (a, q, second, n, got)
                assert mpmath.mpf(got) <= max(exact * (1 + 2e-9), self.LEAST), (a, q, second, n)
                checked += 1
        assert checked > 30_000

    def test_walk_starts_at_the_least_certified_n(self):
        # every case line's window starts at the least n whose bound meets
        # the limit; and so it does where the last bits of the line decide
        # that n: over each bank size's range of n, the two neighbouring
        # floats q whose lines straddle the limit at n certify from n and
        # from n + 1
        for a, q, second, line, ns in self._cases():
            first = coupon._windows(a, (float(q),), True)[second][1]
            assert coupon._tail_bound(line, first) <= LIMIT, (a, q, second)
            assert first == 0 or coupon._tail_bound(line, first - 1) > LIMIT, (a, q, second)
        for a in range(2, MAX_ALTERNATIVES + 1):
            for second in (False, True):
                least, most = (coupon._windows(a, (q,), True)[second][1] for q in (1.0, self.TOP))
                for n in range(least + 1, most, max(1, (most - least) // 8)):
                    for q, want in zip(crossing_counts(a, n, second), (n, n + 1)):
                        assert coupon._windows(a, (q,), True)[second][1] == want, (a, q, second)

    def test_bound_never_increases(self):
        for a, q, second, line, ns in self._cases():
            for n in ns:
                assert coupon._tail_bound(line, n) >= coupon._tail_bound(line, n + 1), (
                    a, q, second, n)

    @staticmethod
    def _passes():
        """(a, bank counts of one pass): ``FIG_HIGH_Q`` at four bank sizes,
        and the q of each bank size of the seed-1 exact_queries stream."""
        stream: dict[int, list[int]] = {}
        for a, q in sorted(benchmark_requests([1])):
            stream.setdefault(a, []).append(q)
        passes = [(a, FIG_HIGH_Q) for a in (2, 5, 20, MAX_ALTERNATIVES)]
        passes += sorted((a, tuple(qs)) for a, qs in stream.items())
        return passes

    def test_pass_windows_are_each_counts_own(self):
        # one solve for every q of a pass forms the logarithms of a once;
        # each q's windows must still be, bit for bit, what a solve for that
        # q alone gives
        for a, qs in self._passes():
            counts = tuple(map(float, qs))
            for second in (False, True):
                k = 1 + second
                got = coupon._windows(a, counts, second)
                assert len(got) == k * len(counts)
                for i, count in enumerate(counts):
                    alone = coupon._windows(a, (count,), second)
                    for j, want in enumerate(alone):
                        # repr is exact for floats, and tells -0.0 from 0.0
                        assert repr(got[k * i + j]) == repr(want), (a, qs[i], second, j)
                    assert all(type(w) is tuple for w in alone), (a, qs[i])


# The calls of one helper's check: single elements, pairs, either side of a
# curve block's 256, and the whole sample at once.
LIBM_LENGTHS = (1, 2, 255, 256, 257)


def assert_libm_bits(ufunc, want: np.ndarray, *operands: np.ndarray) -> None:
    """``coupon._libm(ufunc, ...)`` gives ``want`` bit for bit, called on
    consecutive slices of the operands of each length in LIBM_LENGTHS and
    on the whole of them."""
    n = len(want)
    for length in LIBM_LENGTHS + (n,):
        got = np.concatenate([coupon._libm(ufunc, *(x[i:i + length] for x in operands))
                              for i in range(0, n, length)])
        differ = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
        assert differ.size == 0, (
            f"numpy {np.__version__}: {ufunc.__name__} on reversed views differs from libm "
            f"at {differ.size} of {n} arguments in calls of length {length}, first at "
            f"{[x[differ[0]].item() for x in operands]}")


class TestLibmLoop:
    """The helper that sends the series terms, the block powers and the log
    rows through numpy's scalar loop gives libm's bits on what the library
    feeds it.  Nothing is assumed of numpy's contiguous loops, which differ
    by platform."""

    @staticmethod
    def _library_cells(rng, row: int, count: int) -> np.ndarray:
        """Row ``row`` of ``count`` random curve blocks below their tail
        start, end to end."""
        cells = []
        for _ in range(count):
            a = int(rng.integers(2, MAX_ALTERNATIVES + 1))
            j = int(rng.integers(0, -(-coupon._TAIL_STARTS[a] // coupon._BLOCK)))
            width = min(coupon._BLOCK, coupon._TAIL_STARTS[a] - j * coupon._BLOCK)
            block = coupon._survival_block(a, j).obj
            cells.append(block[row * coupon._BLOCK:row * coupon._BLOCK + width])
        return np.concatenate(cells)

    def test_expm1_is_math_expm1(self):
        # q * log1p(-S): from -inf to -0.0, through the subnormals, past
        # -37.43 (where expm1 reaches -1.0) and -745.2 (where exp underflows)
        rng = np.random.default_rng(3601)
        logs = self._library_cells(rng, 4, 60)
        logs = logs[np.isfinite(logs)]
        x = np.concatenate([
            [-math.inf, -0.0, -5e-324, -sys.float_info.min, -37.43, -745.2, -sys.float_info.max],
            -(10.0 ** rng.uniform(-323.3, 3.5, 45_000)),
            -(2.0 ** -rng.uniform(0.0, 1074.0, 20_000)),
            rng.uniform(-800.0, -30.0, 25_000),
            (10.0 ** rng.uniform(0.0, 12.0, len(logs))).round() * logs,
            1e306 * logs[:2_000],
        ])
        assert len(x) >= 100_000
        assert_libm_bits(np.expm1, np.array([math.expm1(t) for t in x.tolist()]), x)

    def test_log1p_is_math_log1p(self):
        # -S for S in (0, 1): the block rows' own cells and samples down to
        # the least subnormal and up to 1 - 2**-53
        rng = np.random.default_rng(3602)
        cells = self._library_cells(rng, 0, 60)
        x = -np.concatenate([
            [5e-324, sys.float_info.min, 0.5, 1.0 - 2.0 ** -53],
            rng.uniform(0.0, 1.0, 30_000),
            2.0 ** -rng.uniform(0.0, 1074.0, 40_000),
            1.0 - 2.0 ** -rng.uniform(1.0, 53.0, 20_000),
            cells[cells < 1.0],
        ])
        assert len(x) >= 100_000
        assert_libm_bits(np.log1p, np.array([math.log1p(t) for t in x.tolist()]), x)

    def test_power_is_float_pow(self):
        # ((a - k) / a) ** y, as the block fill forms it, for y from a up to
        # the tail start, where the largest power underflows
        rng = np.random.default_rng(3603)
        a = rng.integers(2, MAX_ALTERNATIVES + 1, 100_000)
        k = rng.integers(1, a)
        y = rng.integers(a, np.array(coupon._TAIL_STARTS)[a])
        bases = (a - k) / a
        want = np.array([r ** n for r, n in zip(bases.tolist(), y.tolist())])
        assert_libm_bits(np.power, want, bases, y.astype(float))


class TestSurvivalBlocks:
    """The cached block route against the per-y reference, bit for bit."""

    @staticmethod
    def _assert_point(a: int, y: int) -> str:
        want, route = reference_curve_point(a, y)
        s, f = single_bank_survival(a, y), single_bank_cdf(a, y)
        assert type(s.p) is float and type(f.p) is float
        assert type(s.abs_err) is float and type(f.abs_err) is float
        got = (s.p, s.abs_err, f.p, f.abs_err)
        assert bits(*got) == bits(*want), (a, y, got, want)
        return route

    def test_dense_grid_and_every_exact_cell(self):
        for a in range(1, MAX_ALTERNATIVES + 1):
            exact_cells = [y for y in range(30 * a + 1) if self._assert_point(a, y) == "exact"]
            # the exact cells end well inside the grid, so every one is checked
            assert not exact_cells or exact_cells[-1] < 5 * a, (a, exact_cells[-1])

    def test_block_edges_and_constant_tail(self):
        for a in range(2, MAX_ALTERNATIVES + 1):
            cut = coupon._TAIL_STARTS[a]
            ys = [255, 256, 257, 511, 512, 513, cut - 1, cut, cut + 1, 10 ** 6]
            for y in ys:
                self._assert_point(a, y)
            # the cut is the first y with an all-zero closed form
            assert reference_curve_point(a, cut)[1] == "tail"
            assert reference_curve_point(a, cut - 1)[0][0] > 0.0

    @pytest.mark.parametrize(
        "y", [pytest.param(10 ** 20, id="10**20"), pytest.param(10 ** 400, id="10**400")]
    )
    def test_beyond_float_range_returns_constant_tail(self, y):
        spec = BankSpec(10, 5)
        assert single_bank_survival(10, y) == ProbValue(0.0, _TAIL_ERR)
        assert single_bank_cdf(10, y) == ProbValue(1.0, _TAIL_ERR + _ULP)
        assert test_count_cdf(spec, y).p == 1.0
        assert test_count_pmf(spec, y).p == 0.0

    def test_log_row_is_log1p_of_minus_s(self):
        # the series and the q-bank cdf read log1p(-S) from each block's last
        # row: it is math.log1p(-S) bit for bit wherever S < 1, and -inf
        # exactly where S is 1.0, whose log1p(-1) is a domain error
        n = coupon._BLOCK
        blocks = {"tail": coupon._TAIL_BLOCK}
        for a in range(2, MAX_ALTERNATIVES + 1):
            for j in {0, 1, (coupon._TAIL_STARTS[a] - 1) // n}:
                blocks[a, j] = coupon._survival_block(a, j)
        for key, block in blocks.items():
            cells = np.frombuffer(block, float)
            surv, logs = cells[:n], cells[4 * n:]
            ones = surv == 1.0
            assert (logs[ones] == -math.inf).all() and np.isfinite(logs[~ones]).all(), key
            want = [math.log1p(-s).hex() for s in surv[~ones].tolist()]
            assert [x.hex() for x in logs[~ones].tolist()] == want, key

    def test_every_block_replays_with_twosum_bits(self):
        # a block row alternates in sign, so a term may outweigh the running
        # sum before it, where Dekker's exponent condition does not make the
        # Fast2Sum replay exact; its errors are exact wherever its
        # s - s_prev is.  The domain is finite, so this checks it whole:
        # every block below the tail start of every a = 2..64, filled afresh,
        # has the bytes it has with TwoSum's replay
        fill = coupon._survival_block.__wrapped__
        keys = [(a, j) for a in range(2, MAX_ALTERNATIVES + 1)
                for j in range(-(-coupon._TAIL_STARTS[a] // coupon._BLOCK))]
        assert len(keys) == 5991
        differ = []
        for a, j in keys:
            fast = fill(a, j).tobytes()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(coupon, "_fast2sum_running", twosum_running)
                if fill(a, j).tobytes() != fast:
                    differ.append((a, j))
        assert differ == []

    def test_cached_blocks_are_read_only(self):
        # the cache hands every caller the same buffer: neither it nor an
        # array over it can be written, in any of the five rows; the
        # constant tail is shared the same way
        blocks = [coupon._survival_block(a, j)
                  for a, j in itertools.product((10, MAX_ALTERNATIVES), (0, 1))]
        for block in blocks + [coupon._TAIL_BLOCK]:
            assert len(block) == 5 * coupon._BLOCK
            for i in (0, coupon._BLOCK - 1, 2 * coupon._BLOCK, 4 * coupon._BLOCK - 1,
                      4 * coupon._BLOCK, 5 * coupon._BLOCK - 1):
                with pytest.raises(TypeError):
                    block[i] = 0.5
                with pytest.raises(ValueError):
                    np.frombuffer(block, float)[i] = 0.5

    def test_series_match_reference(self):
        rng = random.Random(20)
        cells = [(a, q) for a in TABLE_A for q in TABLE_Q]
        cells += [(rng.randint(2, MAX_ALTERNATIVES), int(10 ** rng.uniform(0, 6)))
                  for _ in range(10)]
        cells += [(2, 10 ** 6), (MAX_ALTERNATIVES, 10 ** 6)]
        # q near the float maximum, where the tail line starts near or past the float range
        cells += [(10, 10 ** 306), (10, 10 ** 307), (2, 10 ** 308), (MAX_ALTERNATIVES, 10 ** 300)]
        for a, q in cells:
            spec = BankSpec(a, q)
            for fn, second in ((expected_tests, False), (variance_tests, True)):
                est = fn(spec)
                value, tail, terms = reference_series(a, q, second)
                assert bits(est.value, est.tail_bound) == bits(value, tail), (a, q, fn)
                assert est.terms == terms, (a, q, fn)

    @pytest.mark.parametrize(
        "a,q", [pytest.param(4, 10 ** 308, id="4,10**308"),
                pytest.param(MAX_ALTERNATIVES, 10 ** 307, id="64,10**307")]
    )
    def test_overflowing_products_match_per_term_reference(self, a, q):
        # q * log1p(-S(n)) overflows to -inf for the first n with S(n) < 1,
        # S(4) = 0.906 at a = 4 and S = 1 - 2**-53 at a = 64, and the term is
        # then 1.0, as the float product gives it; warnings are errors, so
        # this also checks that the series expects that overflow
        survival = lambda n: single_bank_survival(a, n).p  # noqa: E731
        first = next(n for n in itertools.count(a) if survival(n) < 1.0)
        assert q * math.log1p(-survival(first)) == -math.inf
        for fn, second in ((expected_tests, False), (variance_tests, True)):
            est = fn(BankSpec(a, q))
            want = reference_series(a, q, second, survival)
            assert (bits(est.value, est.tail_bound), est.terms) == (bits(*want[:2]), want[2])

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.integers(1, MAX_ALTERNATIVES),
        log_q=st.floats(0.0, 308.0),
        second=st.booleans(),
    )
    def test_series_match_per_term_reference(self, a, log_q, second):
        # the block kernel against the term-by-term loop it replaced, on the
        # cached curve (checked against the per-y route above), bit for bit;
        # q is drawn log-uniform
        q = int(10.0 ** log_q)
        fn = variance_tests if second else expected_tests
        want = reference_series(a, q, second, lambda n: single_bank_survival(a, n).p)
        est = fn(BankSpec(a, q))
        assert bits(est.value, est.tail_bound) == bits(*want[:2]), (a, q, want)
        assert est.terms == want[2], (a, q, want)

    def test_cache_is_bounded_and_small(self):
        # documented bound: at most 512 blocks of five 256-double rows,
        # under 5.5 MiB with the cache's own bookkeeping
        assert coupon._survival_block.cache_info().maxsize == 512
        coupon._survival_block.cache_clear()
        tracemalloc.start()
        try:
            for a in range(2, MAX_ALTERNATIVES + 1):
                variance_tests(BankSpec(a, 10 ** 6))
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        blocks = coupon._survival_block.cache_info().currsize
        assert blocks <= 512
        assert held < 5.5 * 2 ** 20
        assert held / blocks * 512 < 5.5 * 2 ** 20


class TestPointReads:
    """The one-lookup read path: the tail-start table, the cached rows of
    ready values it indexes, filled into ProbValue unchecked, and the range
    check that runs at block fill."""

    @staticmethod
    def _counts(a: int) -> list[int]:
        # blocks 0 and 1, the last block before the constant tail, and the tail
        n, cut = coupon._BLOCK, coupon._TAIL_STARTS[a] if a > 1 else 1
        last = (cut - 1) // n * n
        return sorted({*range(min(2 * n, cut + 3)), *range(last, cut + 3), 10 ** 6, 10 ** 400})

    @staticmethod
    def _assert_valid(values) -> None:
        # each value is what the validating __init__ builds from its cells
        for v in values:
            assert type(v) is ProbValue and type(v.p) is float and type(v.abs_err) is float
            checked = ProbValue(v.p, v.abs_err)
            assert bits(v.p, v.abs_err) == bits(checked.p, checked.abs_err), v

    @pytest.mark.parametrize("a", range(1, MAX_ALTERNATIVES + 1))
    def test_reads_are_the_block_cells(self, a):
        # at the first and last count of blocks 0 and 1 and of the last block
        # before the constant tail, and around the tail start, both reads are
        # the block's (S, bound) and (F, bound) cells, bit for bit; a = 1 has
        # no blocks, and its S is 1 at y = 0 and 0 from y = 1 on, exactly
        n, cut = coupon._BLOCK, coupon._TAIL_STARTS[a]
        last = (cut - 1) // n * n
        edges = {0, n - 1, n, 2 * n - 1, last, last + n - 1, cut - 1, cut, cut + 1, 10 ** 400}
        for y in sorted(y for y in edges if y >= 0):  # a = 1 has cut = 0
            if a == 1:
                cells = (1.0, 0.0, 0.0, 0.0) if y == 0 else (0.0, 0.0, 1.0, 0.0)
            else:
                block, i = ((coupon._survival_block(a, y // n), y % n) if y < cut
                            else (coupon._TAIL_BLOCK, 0))
                cells = tuple(block[i + k * n] for k in range(4))
            s, f = single_bank_survival(a, y), single_bank_cdf(a, y)
            assert bits(s.p, s.abs_err, f.p, f.abs_err) == bits(*cells), (a, y)

    @pytest.mark.parametrize("a,y", [(1, 0), (1, 5), (10, 40), (10, 300), (64, 10 ** 6)])
    def test_reads_share_frozen_values(self, a, y):
        # a point read indexes a cached row, or a constant for the tail and
        # a = 1: a repeat read returns the same object, which cannot change
        for read in (single_bank_survival, single_bank_cdf):
            v = read(a, y)
            assert read(a, y) is v and type(v) is ProbValue
            with pytest.raises(FrozenInstanceError):
                v.p = 0.5
            assert read(a, y) == ProbValue(v.p, v.abs_err)

    def test_row_cache_is_bounded_and_small(self):
        # documented bound: at most 256 rows of 256 values, under 7 MiB with
        # the cache's own bookkeeping; measured on a few rows whose blocks
        # are filled before tracing starts
        assert coupon._point_row.cache_info().maxsize == 256
        keys = [(a, j) for a in (10, 40, MAX_ALTERNATIVES) for j in (0, 1)]
        for a, j in keys:
            coupon._survival_block(a, j)
        coupon._point_row.cache_clear()
        tracemalloc.start()
        try:
            for a, j in keys:
                single_bank_survival(a, coupon._BLOCK * j + a)
                single_bank_cdf(a, coupon._BLOCK * j + a)
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = coupon._point_row.cache_info().currsize
        assert rows == 2 * len(keys)
        assert held / rows * 256 < 7 * 2 ** 20

    def test_tail_start_table(self):
        starts = coupon._TAIL_STARTS
        assert len(starts) == MAX_ALTERNATIVES + 1 and starts[1] == 0
        for a in range(2, MAX_ALTERNATIVES + 1):
            r, cut = (a - 1) / a, starts[a]
            assert r ** cut == 0.0 and r ** (cut - 1) != 0.0, a
            assert 0.0 not in (r ** y for y in range(cut)), a

    @pytest.mark.parametrize("a", range(1, MAX_ALTERNATIVES + 1))
    def test_reads_are_valid_values(self, a):
        ys = self._counts(a)
        self._assert_valid(single_bank_survival(a, y) for y in ys)
        self._assert_valid(single_bank_cdf(a, y) for y in ys)
        for q in (1, 10 ** 3, 10 ** 6, TOP_Q):
            spec = BankSpec(a, q)
            cdf = {n: test_count_cdf(spec, n) for n in ys}
            self._assert_valid(cdf.values())
            pmf = {n: test_count_pmf(spec, n) for n in ys if n}
            self._assert_valid(pmf.values())
            # a pmf reads its cells at n and n - 1 with two calls, within one
            # block or across a block edge or the tail start; either way it is
            # the clamped cdf difference
            for n, got in pmf.items():
                hi, lo = cdf[n], cdf.get(n - 1) or test_count_cdf(spec, n - 1)
                want = max(hi.p - lo.p, 0.0), hi.abs_err + lo.abs_err
                assert bits(got.p, got.abs_err) == bits(*want), (a, q, n)

    @pytest.mark.parametrize(
        "name,value,message",
        [("_fast2sum_running", lambda rows: (np.full(rows.shape, math.nan),) * 2,
          "probability out of range"),
         ("_ULP", -_ULP, "error bound must be nonnegative")],
        ids=["nan replay", "negative bound"],
    )
    def test_block_fill_runs_the_range_checks(self, monkeypatch, name, value, message):
        # ProbValue's checks run once per block, when it is filled: a bad
        # cell raises there, on the direct call and on a read, and no block
        # and no row of values is cached
        coupon._survival_block.cache_clear()
        coupon._point_row.cache_clear()
        monkeypatch.setattr(coupon, name, value)
        for j in (0, 1):
            with pytest.raises(ValueError, match=message):
                coupon._survival_block(10, j)
            with pytest.raises(ValueError, match=message):
                single_bank_survival(10, coupon._BLOCK * j + 40)
            with pytest.raises(ValueError, match=message):
                single_bank_cdf(10, coupon._BLOCK * j + 40)
        assert coupon._survival_block.cache_info().currsize == 0
        assert coupon._point_row.cache_info().currsize == 0
        monkeypatch.undo()
        for y in (40, coupon._BLOCK + 40):
            want, _route = reference_curve_point(10, y)
            got = single_bank_survival(10, y), single_bank_cdf(10, y)
            assert bits(*(c for v in got for c in (v.p, v.abs_err))) == bits(*want)
