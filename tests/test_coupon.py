"""Exact distribution machinery: parameter gates, closed forms, oracles, series."""

from __future__ import annotations

import bisect
import copy
import itertools
import math
import pickle
import random
import struct
import sys
import threading
import tracemalloc
from dataclasses import FrozenInstanceError, astuple, replace
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bankcover.coupon import (
    DEFAULT_POLICY,
    MAX_ALTERNATIVES,
    BankSpec,
    InvalidSpecError,
    OracleRangeError,
    ProbValue,
    SeriesCapError,
    SeriesEstimate,
    TruncationPolicy,
    UnsupportedAlternativesError,
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
from bankcover.tables import FIG_HIGH_Q, TABLE_A, TABLE_Q
from bankcover.validate import SINGLE_PRINTED


def brute_force_cdf(a: int, y: int) -> Fraction:
    """Enumerate all a**y draw sequences; exponential, so tiny cases only."""
    covered = 0
    for seq in itertools.product(range(a), repeat=y):
        if len(set(seq)) == a:
            covered += 1
    return Fraction(covered, a ** y)


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
        with pytest.raises(UnsupportedAlternativesError):
            BankSpec(MAX_ALTERNATIVES + 1, 1)


class TestTruncationPolicy:
    def test_defaults(self):
        assert DEFAULT_POLICY.eps_term == 1e-12
        assert DEFAULT_POLICY.n_cap == 100_000

    @pytest.mark.parametrize("eps", [0.0, 1.0, -1e-9, 2.0])
    def test_rejects_bad_eps(self, eps):
        with pytest.raises(InvalidSpecError):
            TruncationPolicy(eps_term=eps)

    def test_rejects_bad_cap(self):
        with pytest.raises(InvalidSpecError):
            TruncationPolicy(n_cap=0)


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
        with pytest.raises(UnsupportedAlternativesError, match=f"a={a} exceeds"):
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

    def test_rejects_above_gate(self):
        with pytest.raises(UnsupportedAlternativesError):
            single_bank_survival(65, 100)

    def test_rejects_negative_count(self):
        with pytest.raises(InvalidSpecError):
            single_bank_survival(5, -1)

    @pytest.mark.parametrize(
        "a,y,error,message",
        [
            (0, 5, InvalidSpecError, "need a >= 1, got 0"),
            (65, 5, UnsupportedAlternativesError,
             "a=65 exceeds the supported maximum of 64 alternatives"),
            (2.0, 5, InvalidSpecError, "a must be an integer, got 2.0"),
            (5, -1, InvalidSpecError, "test count must be >= 0, got -1"),
            (5, 3.0, InvalidSpecError, "test count must be an integer, got 3.0"),
            # the bank size is checked first
            (65, -1, UnsupportedAlternativesError,
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
        with pytest.raises(OracleRangeError):
            cdf_oracle(13, 20)
        with pytest.raises(OracleRangeError):
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
        for name in ("_survival_block", "_point_row", "_compensated_running", "_series"):
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

    @pytest.mark.xfail(strict=True, reason="abs_err is 1.0 at a = 10, q = 1e18, n = 600, where "
                       "p = 0.9999999965: q times the survival's absolute floor of 2**-53 "
                       "exceeds 1, though S(600) is 3.5e-27")
    def test_error_bound_is_informative_near_one(self):
        assert test_count_cdf(BankSpec(10, 10 ** 18), 600).abs_err <= 1e-6


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
        [(1, 1), (1, 5), (2, 1), (2, 10 ** 400), (7, 3), (10, 10 ** 6),
         (10, 10 ** 400), (41, 1000), (64, 1), (64, 10 ** 6)],
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
        assert 0.0 < est.tail_bound <= 10 * DEFAULT_POLICY.eps_term
        assert est.terms <= DEFAULT_POLICY.n_cap

    def test_float_protocol(self):
        assert float(expected_tests(BankSpec(2, 1))) == pytest.approx(3.0, abs=1e-9)

    def test_cap_raises(self):
        with pytest.raises(SeriesCapError):
            expected_tests(BankSpec(20, 100), TruncationPolicy(n_cap=50))

    def test_failing_cap_raises_before_any_term(self, monkeypatch):
        # the tail bound still fails at n_cap (or can never pass, below the
        # smallest normal float), so no term is formed before the error
        calls = []
        real = coupon._coverage_terms
        monkeypatch.setattr(
            coupon, "_coverage_terms", lambda *args: calls.append(args) or real(*args)
        )
        for fn in (expected_tests, variance_tests):
            with pytest.raises(SeriesCapError, match="not certified within n_cap=50"):
                fn(BankSpec(20, 100), TruncationPolicy(n_cap=50))
            with pytest.raises(SeriesCapError, match=r"eps_term=1e-320 asks for a tail bound "
                               r"of at most 10 \* eps_term, below the smallest normal float"):
                fn(BankSpec(2, 1), TruncationPolicy(eps_term=1e-320))
        assert calls == []

    def test_loose_policy_still_close(self):
        rough = expected_tests(BankSpec(10, 10), TruncationPolicy(eps_term=1e-6))
        assert rough.value == pytest.approx(49.9022, abs=1e-3)

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
            assert est.tail_bound <= 10 * DEFAULT_POLICY.eps_term


class TestMultisum:
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
        with pytest.raises(OracleRangeError):
            expected_tests_multisum(BankSpec(7, 1))
        with pytest.raises(OracleRangeError):
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
        assert 0.0 < est.tail_bound <= 10 * DEFAULT_POLICY.eps_term

    def test_cap_raises(self):
        with pytest.raises(SeriesCapError):
            variance_tests(BankSpec(20, 100), TruncationPolicy(n_cap=50))

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
    """q = 10**400 is a valid bank count that no float can hold."""

    Q = 10 ** 400
    # log2(10**400) is about 1328.8, so the true cdf climbs from 0 to 1 near
    # n = 1330, past the float curve's constant tail (from n = 1075 at a = 2)
    NS = (2, 3, 100, 1074, 1075, 1076, 1329, 1330, 1331, 1340, 1400, 10 ** 6)

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
        # the true mean lies beyond the last representable survival, so no
        # partial sum can be certified; the series must say so by a typed error
        for fn in (expected_tests, variance_tests):
            with pytest.raises(SeriesCapError):
                fn(BankSpec(a, self.Q))

    def test_series_raise_before_summing(self, monkeypatch):
        # nothing past the float range can be certified, so no term is computed
        calls = []
        real = coupon._coverage_terms
        monkeypatch.setattr(
            coupon, "_coverage_terms", lambda *args: calls.append(args) or real(*args)
        )
        for fn in (expected_tests, variance_tests):
            with pytest.raises(SeriesCapError):
                fn(BankSpec(10, self.Q))
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
            assert 0.0 < e.tail_bound <= 10 * DEFAULT_POLICY.eps_term, (a, q, e)
            assert e.terms <= DEFAULT_POLICY.n_cap
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


# Reference copy of the per-test-count route that the block cache replaced:
# the alternating closed form in compensated floats for one y, redone in
# exact rationals when its error bound exceeds 1e-13.  The block cache must
# reproduce it bit for bit.
_ULP = 2.0 ** -53


def reference_curve_point(a: int, y: int) -> tuple[tuple[float, float, float, float], str]:
    """(S, S error bound, F, F error bound) and the route taken: 'exact' or 'float'."""
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
    bound = (y + 2 * a + 10) * _ULP * magnitude
    if bound > 1e-13:
        exact = exact_survival(a, y)
        return (float(exact), _ULP, float(1 - exact), _ULP), "exact"
    p = total + low
    err = bound + _ULP
    return (clamp01(p), err, clamp01(1.0 - p), err + _ULP), "float"


def exact_survival(a: int, y: int) -> Fraction:
    """S(y) from the alternating closed form in exact rationals."""
    return Fraction(
        sum((-1) ** (k + 1) * math.comb(a, k) * (a - k) ** y for k in range(1, a + 1)),
        a ** y,
    )


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


def neumaier(values) -> float:
    """Neumaier's compensated sum of ``values``: 0.0 for none."""
    return ([0.0] + neumaier_running(values))[-1]


def reference_tail(a: int, q: float, n: int, second_moment: bool) -> float:
    """2a**3/(a-1) * q * decay**n, times 2n + 2a - 1 for the variance, from
    its logarithm c - r*n (+ log(2n + 2a - 1)) with c raised by 1e-9: inf
    above the float range, and at least the smallest normal float; the
    tests' own copy of the library's tail line, rounded as it rounds."""
    c = math.log(2.0 * a ** 3 / (a - 1)) + math.log(q) + 1e-9
    r = -math.log((a - 1) / a)
    log_tail = c - r * n
    if second_moment:
        log_tail += math.log(2 * n + 2 * a - 1)
    if log_tail >= math.log(sys.float_info.max):
        return math.inf
    return max(math.exp(log_tail), sys.float_info.min)


def library_tail(a: int, q: int, n: int, second_moment: bool) -> float:
    """The library's series tail bound from test count ``n`` on."""
    line = coupon._tail_line(
        a, float(q), 2.0 * a ** 3 / (a - 1), 2 * a - 1 if second_moment else None)
    return coupon._tail_bound(line, n)


def reference_series(
    a: int,
    q: int,
    second_moment: bool,
    policy: TruncationPolicy = DEFAULT_POLICY,
    survival=None,
) -> tuple[float, float, int]:
    """(value, tail_bound, terms) of the mean or variance series, summed one
    term at a time; raises SeriesCapError as the library words it.

    ``survival(n)`` gives S(n) for n >= a; by default the per-y reference
    route.  The tail bound is :func:`reference_tail`.
    """
    if a == 1:
        return (0.0 if second_moment else 1.0), 0.0, 1
    if survival is None:
        survival = lambda n: reference_curve_point(a, n)[0][0]  # noqa: E731
    bank_count = float(q)
    mean_terms, second_terms = [], []
    for n in range(policy.n_cap + 1):
        s = 1.0 if n < a else survival(n)
        if s == 0.0:
            term = 0.0
        elif s == 1.0:
            term = 1.0
        else:
            term = -math.expm1(bank_count * math.log1p(-s))
        weighted = (2 * n + 1) * term if second_moment else term
        if weighted < policy.eps_term:
            tail = reference_tail(a, bank_count, n, second_moment)
            if tail <= 10.0 * policy.eps_term:
                if second_moment:
                    mean = neumaier(mean_terms)
                    return neumaier(second_terms) - mean * mean, tail, n
                return neumaier(mean_terms), tail, n
        mean_terms.append(term)
        second_terms.append(weighted)
    series = "variance" if second_moment else "mean"
    raise SeriesCapError(
        f"{series} series for a={a}, q={q} not certified within n_cap={policy.n_cap}"
    )


def bits(*values: float) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def series_outcome(call) -> tuple:
    """The bits of a series' value and tail bound with its term count, or
    the message it raised."""
    try:
        value, tail, terms = call()
    except SeriesCapError as exc:
        return ("raised", str(exc))
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
    """The library's one compensated sum against the tests' scalar loop."""

    @settings(max_examples=100, deadline=None)
    @given(rows=replay_rows())
    def test_signed_rows_match_scalar_neumaier(self, rows):
        # the series kernel reads each moment at its own stop, so every
        # column must be the loop stopped there
        sums, lows = coupon._compensated_running(np.array(rows))
        for row, row_sums, row_lows in zip(rows, sums.tolist(), lows.tolist()):
            got = [s + c for s, c in zip(row_sums, row_lows)]
            assert bits(*got) == bits(*neumaier_running(row)), row

    def test_cancelling_row(self):
        # 1 - 1e16 loses the 1 to rounding, which the correction keeps; the
        # big terms then cancel.  The larger magnitude here is the negative term
        row = [1.0, -1e16, 1e16, 3.0]
        sums, lows = coupon._compensated_running(np.array([row]))
        assert sums.item(0, -1) + lows.item(0, -1) == 4.0 == neumaier(row)


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
                want = reference_series(a, q, True, DEFAULT_POLICY, survival)
                assert (bits(est.value, est.tail_bound), est.terms) == (
                    bits(*want[:2]), want[2]), (a, q)
            return got
        eps, n_cap = DEFAULT_POLICY.eps_term, DEFAULT_POLICY.n_cap
        got = [coupon._certified(mean) for (mean,) in coupon._series(a, qs, eps, n_cap, False)]
        assert len(got) == len(qs)
        for q, est in zip(qs, got):
            want = expected_tests(BankSpec(a, q))
            assert bits(est.value, est.tail_bound) == bits(want.value, want.tail_bound), (a, q)
            assert est.terms == want.terms, (a, q)
        return got

    def test_every_bank_size(self):
        rng = random.Random(12)
        limit, n_cap = 10 * DEFAULT_POLICY.eps_term, DEFAULT_POLICY.n_cap
        past_first = 0
        for a in range(2, MAX_ALTERNATIVES + 1):
            spread = tuple(int(10 ** rng.uniform(0, 8)) for _ in range(3))
            for second, qs in ((False, (*FIG_HIGH_Q, 10 ** 6, *spread)), (True, (1, 10, 10 ** 4))):
                for q, est in zip(qs, self._assert_sweep(a, qs, second)):
                    # the least n whose tail bound meets the limit; the bound never increases
                    first = bisect.bisect_left(range(n_cap + 1), True, key=lambda n: (
                        library_tail(a, q, n, second) <= limit))
                    past_first += est.terms > first
        # some sums (at a = 2 and 3) stop past the first certified n, where
        # the term is not yet small
        assert past_first > 0

    def test_two_and_three_alternatives_with_repeated_q(self):
        for a in (2, 3):
            for second in (False, True):
                self._assert_sweep(a, (1, 1, 10, 1), second)

    def test_stop_search_near_underflow(self):
        # eps_term puts the certified stop within 12 steps of _TAIL_STARTS[a],
        # where decay**n underflows: there S(n) rounds up by as much as 2x, so
        # the first small term can lie three steps past the first certified n.
        # Each call must stop, or fail, where the one-term reference does
        rng = random.Random(66)
        top = math.log10(sys.float_info.max)
        for a in range(2, 9):
            for second in (False, True):
                fn = variance_tests if second else expected_tests
                for _ in range(6):
                    q = int(10 ** rng.uniform(200, top))
                    f = coupon._TAIL_STARTS[a] + rng.randint(-12, 12)
                    eps = library_tail(a, q, f, second) / 10 * (1 + 1e-12)
                    policy = TruncationPolicy(eps_term=eps)
                    got = series_outcome(lambda: astuple(fn(BankSpec(a, q), policy)))
                    want = series_outcome(lambda: reference_series(
                        a, q, second, policy, survival=lambda n: single_bank_survival(a, n).p))
                    assert got == want, (a, q, second, f)

    def test_limit_on_a_float_tail_value(self):
        # 10 * eps_term lies within an ulp of the float tail bound at some f,
        # so the last bits of the tail line decide the least certified n; a
        # search that starts past it, or stops short of it, stops elsewhere
        # than the one-term reference
        rng = random.Random(15)
        checked = 0
        for _ in range(400):
            a = rng.randint(2, MAX_ALTERNATIVES)
            q = int(10 ** rng.uniform(0, 12))
            f = rng.randint(1, 40 * a)
            for second in (False, True):
                eps = library_tail(a, q, f, second) / 10
                if not 0.0 < eps < 1.0:
                    continue
                policy = TruncationPolicy(eps_term=eps)
                fn = variance_tests if second else expected_tests
                got = series_outcome(lambda: astuple(fn(BankSpec(a, q), policy)))
                want = series_outcome(lambda: reference_series(
                    a, q, second, policy, survival=lambda n: single_bank_survival(a, n).p))
                assert got == want, (a, q, second, f)
                checked += 1
        assert checked >= 300

    @pytest.mark.parametrize(
        "second,qs,policy,formed",
        [
            # q = 10**4 fails its bound at the cap, before any term is formed
            (False, (1, 10 ** 4), TruncationPolicy(n_cap=50), False),
            (True, (1, 10 ** 4), TruncationPolicy(n_cap=50), False),
            # q = 10**400 is past the float range
            (False, (3, 10 ** 400, 1), DEFAULT_POLICY, False),
            (True, (3, 10 ** 400, 1), DEFAULT_POLICY, False),
            # the bound passes at n_cap, but the first small term lies past it
            (False, (1, 10), TruncationPolicy(n_cap=44), True),
            (True, (1, 10 ** 4), TruncationPolicy(n_cap=61), True),
        ],
    )
    def test_failing_q_raises_its_single_message(self, monkeypatch, second, qs, policy, formed):
        # the variance is summed one q at a time: its case asks for the failing q
        fn = variance_tests if second else expected_tests
        failing = []
        for q in qs:
            try:
                fn(BankSpec(2, q), policy)
            except SeriesCapError as exc:
                failing.append((q, str(exc)))
        assert len(failing) == 1, failing
        (failing_q, message), = failing
        eps, n_cap = policy.eps_term, policy.n_cap
        if not second:
            # one mean kernel call returns every q's outcome: the failing
            # q's message, and what each other q gets alone
            for q, (mean,) in zip(qs, coupon._series(2, qs, eps, n_cap, False)):
                if q == failing_q:
                    with pytest.raises(SeriesCapError) as got:
                        coupon._certified(mean)
                    assert str(got.value) == message
                else:
                    assert series_outcome(lambda: astuple(coupon._certified(mean))) == (
                        series_outcome(lambda: astuple(expected_tests(BankSpec(2, q), policy)))), q
        calls = []
        real = coupon._coverage_terms
        monkeypatch.setattr(
            coupon, "_coverage_terms", lambda *args: calls.append(args) or real(*args)
        )
        coupon._moments.cache_clear()
        with pytest.raises(SeriesCapError) as got:
            if second:
                variance_tests(BankSpec(2, failing_q), policy)
            else:
                coupon._certified(coupon._series(2, (failing_q,), eps, n_cap, False)[0][0])
        assert str(got.value) == message
        assert bool(calls) == formed


def both_moments(spec: BankSpec, policy: TruncationPolicy, variance_first: bool) -> list:
    """The outcomes of the mean and the variance, in that order, asked for
    one after the other from an empty memo."""
    coupon._moments.cache_clear()
    calls = {False: expected_tests, True: variance_tests}
    got = {}
    for second in (variance_first, not variance_first):
        got[second] = series_outcome(lambda: astuple(calls[second](spec, policy)))
    return [got[False], got[True]]


class TestMomentPair:
    """The mean and the variance of one spec from one pass and a one-entry memo."""

    @pytest.mark.parametrize("variance_first", [False, True], ids=["mean first", "variance first"])
    def test_both_orders_match_reference(self, variance_first):
        for a in (2, 3, 10, 33, MAX_ALTERNATIVES):
            survival = lambda n: single_bank_survival(a, n).p  # noqa: E731
            for q in (1, 7, 10 ** 3, 10 ** 6, 10 ** 12, 10 ** 100, 10 ** 306):
                want = [series_outcome(lambda: reference_series(
                    a, q, second, DEFAULT_POLICY, survival)) for second in (False, True)]
                assert both_moments(BankSpec(a, q), DEFAULT_POLICY, variance_first) == want, (a, q)

    @pytest.mark.parametrize("variance_first", [False, True], ids=["mean first", "variance first"])
    @pytest.mark.parametrize("a,q", [(2, 1), (10, 10), (20, 100)])
    def test_mean_certifies_where_the_variance_does_not(self, a, q, variance_first):
        # n_caps between the two stops: at the mean's stop, and one short of
        # the variance's
        spec = BankSpec(a, q)
        mean_stop, stop = expected_tests(spec).terms, variance_tests(spec).terms
        assert mean_stop < stop - 1
        survival = lambda n: single_bank_survival(a, n).p  # noqa: E731
        for n_cap in (mean_stop, stop - 1):
            policy = TruncationPolicy(n_cap=n_cap)
            want = [series_outcome(lambda: reference_series(a, q, second, policy, survival))
                    for second in (False, True)]
            assert want[0][0] != "raised"
            assert want[1] == ("raised", f"variance series for a={a}, q={q} not certified "
                               f"within n_cap={n_cap}")
            assert both_moments(spec, policy, variance_first) == want, n_cap

    def test_memoised_failure_is_a_new_instance_each_time(self):
        spec, policy = BankSpec(10, 10), TruncationPolicy(n_cap=320)
        for fn in (expected_tests, variance_tests) * 2:
            raised = []
            for _ in range(2):
                with pytest.raises(SeriesCapError) as got:
                    fn(BankSpec(10, 10 ** 400), policy)
                raised.append(got.value)
            assert raised[0] is not raised[1]
            assert str(raised[0]) == str(raised[1])
        # the variance fails at this cap while the mean certifies
        errors = []
        for _ in range(2):
            assert expected_tests(spec, policy).terms == 314
            with pytest.raises(SeriesCapError, match="variance series") as got:
                variance_tests(spec, policy)
            errors.append(got.value)
        assert errors[0] is not errors[1] and type(errors[1]) is SeriesCapError

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
        # another policy is another key
        expected_tests(first, TruncationPolicy(eps_term=1e-10))
        assert len(calls) == 4
        # so is a bool standing for its int, whose messages print differently
        for n_cap in (1, True):
            with pytest.raises(SeriesCapError, match=f"within n_cap={n_cap}$"):
                variance_tests(first, TruncationPolicy(n_cap=n_cap))

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
                    line = coupon._tail_line(
                        a, q, 2.0 * a ** 3 / (a - 1), 2 * a - 1 if second else None)
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
        # limits from a few eps_term and at, just above and just below the
        # bound itself, where the last bits of the line decide the least n
        for a, q, second, line, ns in self._cases():
            limits = [10 * eps for eps in (1e-15, 1e-12, 1e-6, 0.099)]
            for n in ns[::3]:
                bound = coupon._tail_bound(line, n)
                limits += [bound, math.nextafter(bound, 0.0), math.nextafter(bound, math.inf)]
            for limit in limits:
                # a series walks only to a limit 10 * eps_term of at least the
                # smallest normal float, with eps_term < 1
                if not self.LEAST <= limit < 10.0:
                    continue
                first = coupon._least_certified(line, limit)
                assert coupon._tail_bound(line, first) <= limit, (a, q, second, limit)
                assert first == 0 or coupon._tail_bound(line, first - 1) > limit, (
                    a, q, second, limit)

    def test_bound_never_increases(self):
        for a, q, second, line, ns in self._cases():
            for n in ns:
                assert coupon._tail_bound(line, n) >= coupon._tail_bound(line, n + 1), (
                    a, q, second, n)


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
            assert reference_curve_point(a, cut)[0] == (0.0, _ULP, 1.0, 2 * _ULP)
            assert reference_curve_point(a, cut - 1)[0][0] > 0.0

    @pytest.mark.parametrize(
        "y", [pytest.param(10 ** 20, id="10**20"), pytest.param(10 ** 400, id="10**400")]
    )
    def test_beyond_float_range_returns_constant_tail(self, y):
        spec = BankSpec(10, 5)
        assert single_bank_survival(10, y) == ProbValue(0.0, _ULP)
        assert single_bank_cdf(10, y) == ProbValue(1.0, 2 * _ULP)
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
            want = reference_series(a, q, second, DEFAULT_POLICY, survival)
            assert (bits(est.value, est.tail_bound), est.terms) == (bits(*want[:2]), want[2])

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.integers(1, MAX_ALTERNATIVES),
        log_q=st.floats(0.0, 308.0),
        log_eps=st.floats(-15.0, math.log10(0.5)),
        log_cap=st.floats(0.0, 5.0),
        second=st.booleans(),
    )
    def test_series_match_per_term_reference(self, a, log_q, log_eps, log_cap, second):
        # the block kernel against the term-by-term loop it replaced, on the
        # cached curve (checked against the per-y route above), bit for bit;
        # q, eps_term and n_cap are drawn log-uniform
        q = int(10.0 ** log_q)
        policy = TruncationPolicy(min(10.0 ** log_eps, 0.5), int(10.0 ** log_cap))
        fn = variance_tests if second else expected_tests
        try:
            want = reference_series(
                a, q, second, policy, lambda n: single_bank_survival(a, n).p
            )
        except SeriesCapError as exc:
            with pytest.raises(SeriesCapError) as got:
                fn(BankSpec(a, q), policy)
            assert str(got.value) == str(exc)
            return
        est = fn(BankSpec(a, q), policy)
        assert bits(est.value, est.tail_bound) == bits(*want[:2]), (a, q, policy, want)
        assert est.terms == want[2], (a, q, policy, want)

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
        for q in (1, 10 ** 3, 10 ** 6, 10 ** 400):
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
        [("_compensated_running", lambda rows: (np.full(rows.shape, math.nan),) * 2,
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
