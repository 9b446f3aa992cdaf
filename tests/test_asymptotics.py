"""Gumbel asymptotics: rates, centring, envelopes, moment bands, E1(1)."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import bankcover.asymptotics as asymptotics
from bankcover.asymptotics import (
    EULER_GAMMA,
    band_second_moment,
    centred_mean_prediction,
    centring,
    decay_rate,
    gumbel_cdf,
    local_pmf_approx,
    mean_bounds,
    sandwich_bounds,
    variance_bounds,
)
from bankcover.coupon import (
    MAX_ALTERNATIVES,
    BankSpec,
    InvalidSpecError,
    expected_tests,
    test_count_cdf,
)
from bankcover.validate import SD_PRINTED

# sha256 of every variance_bounds(a) field, as float.hex, for a = 2..64
VARIANCE_BOUNDS_SHA256 = "dde8623688fb36fffd4eb0d7d789e046d56540d2cbc833a654647497d8b0bd3a"


class TestDecayRate:
    def test_two_alternatives(self):
        assert decay_rate(2) == pytest.approx(math.log(2), abs=1e-15)

    def test_ten_alternatives(self):
        assert decay_rate(10) == pytest.approx(0.105361, abs=1e-6)

    def test_large_a_series_expansion(self):
        a = 10 ** 6
        expansion = 1 / a + 1 / (2 * a ** 2) + 1 / (3 * a ** 3)
        assert decay_rate(a) == pytest.approx(expansion, rel=1e-12)

    def test_rejects_small_a(self):
        with pytest.raises(InvalidSpecError):
            decay_rate(1)


# Every asymptotics entry point that takes a bank size, called with that size.
ENTRY_POINTS = {
    "decay_rate": decay_rate,
    "centring": lambda a: centring(a, 10),
    "sandwich_bounds": lambda a: sandwich_bounds(a, 0.5),
    "local_pmf_approx": lambda a: local_pmf_approx(a, 10, 0),
    "mean_bounds": mean_bounds,
    "band_second_moment": band_second_moment,
    "variance_bounds": variance_bounds,
    "centred_mean_prediction": lambda a: centred_mean_prediction(a, 10),
}


class TestHugeBankSizes:
    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_largest_exact_a_returns_a_value(self, name):
        assert ENTRY_POINTS[name](2 ** 53) is not None

    # beyond 2**53 a is not exact as a float, and from about 10**200 on the
    # arithmetic would overflow or divide by zero
    @pytest.mark.parametrize("name", ENTRY_POINTS)
    @pytest.mark.parametrize("a", [2 ** 53 + 1, 10 ** 100, 10 ** 200, 10 ** 308, 10 ** 400],
                             ids=["2**53+1", "10**100", "10**200", "10**308", "10**400"])
    def test_beyond_it_is_a_typed_error(self, name, a):
        with pytest.raises(InvalidSpecError, match="a <= 2\\*\\*53"):
            ENTRY_POINTS[name](a)


class TestCentring:
    def test_reference_cell(self):
        assert centring(10, 10).centre == pytest.approx(43.708, abs=1e-3)

    def test_two_alternatives_single_question(self):
        c = centring(2, 1)
        assert c.centre == pytest.approx(1.0, abs=1e-12)
        assert c.centre_ceil == 2  # shifted ceiling: floor + 1 even at integers

    def test_ceiling_convention(self):
        for a, q in ((5, 7), (10, 100), (20, 3)):
            c = centring(a, q)
            assert c.centre_ceil == math.floor(c.centre) + 1
            assert 0.0 <= c.centre_frac < 1.0
            assert c.centre_ceil - 1 <= c.centre < c.centre_ceil

    def test_rejects_bad_q(self):
        with pytest.raises(InvalidSpecError):
            centring(10, 0)


class TestGumbelCdf:
    def test_at_zero(self):
        assert gumbel_cdf(0.0) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_far_right_tail(self):
        assert abs(gumbel_cdf(40.0) - 1.0) < 1e-15

    @pytest.mark.parametrize("x", [-7.0, -40.0, -710.0, -1e6])
    def test_far_left_tail(self, x):
        # exp(-x) overflows below -709; the cdf itself is 0.0 from about -6.6
        assert gumbel_cdf(x) == 0.0

    def test_at_minus_one(self):
        assert gumbel_cdf(-1.0) == pytest.approx(0.065988, abs=1e-6)

    def test_integer_arguments_beyond_float_range(self):
        # the same flat values as a float argument past +-40
        assert gumbel_cdf(10 ** 400) == gumbel_cdf(1e300) == 1.0
        assert gumbel_cdf(-10 ** 400) == gumbel_cdf(-1e300) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-5, 30), st.floats(-5, 30))
    def test_monotone(self, x, y):
        lo, hi = sorted((x, y))
        assert gumbel_cdf(lo) <= gumbel_cdf(hi)


class TestSandwichBounds:
    def test_reference_cell(self):
        lower, upper = sandwich_bounds(10, 0.0)
        assert lower == pytest.approx(0.32923, abs=1e-4)
        assert upper == pytest.approx(math.exp(-1), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(a=st.integers(2, 64), x=st.floats(-20, 40))
    def test_ordering(self, a, x):
        lower, upper = sandwich_bounds(a, x)
        assert lower <= upper

    @pytest.mark.parametrize("x", [-710.0, -1e6, pytest.param(-10 ** 400, id="-10**400")])
    def test_far_left_lag(self, x):
        assert sandwich_bounds(10, x) == (0.0, 0.0)

    @pytest.mark.parametrize("x", [1e6, pytest.param(10 ** 400, id="10**400")])
    def test_far_right_lag(self, x):
        assert sandwich_bounds(10, x) == (1.0, 1.0)

    def test_envelope_contains_exact_cdf(self):
        # the oscillating exact probability stays inside the envelope for
        # moderate and large q; checked here on a light grid, densely in the
        # acceptance suite
        a = 10
        rate = decay_rate(a)
        for q in (10 ** 3, 10 ** 5):
            centre = math.log(a * q) / rate
            spec = BankSpec(a, q)
            for x in np.arange(-2.0, 8.0, 0.5):
                n = math.floor(centre + x)
                p = test_count_cdf(spec, max(n, 0)).p
                lower, upper = sandwich_bounds(a, x)
                assert lower - 0.02 <= p <= upper + 0.02


class TestLocalPmfApprox:
    def test_telescopes_to_one(self):
        # on [-30, 60] both Gumbel tails are below 1e-12 once a <= 3
        total = sum(local_pmf_approx(3, 10, n) for n in range(-30, 61))
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("a,q", [(2, 1), (5, 40), (10, 10), (20, 1000)])
    def test_telescopes_on_wide_enough_window(self, a, q):
        # any window with both Gumbel tails < 1e-12 must sum to 1 within 1e-9
        half = int(30.0 / decay_rate(a)) + 2
        total = sum(local_pmf_approx(a, q, n) for n in range(-half, half + 1))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_matches_exact_at_large_q(self):
        a, q = 10, 10 ** 6
        ceil = centring(a, q).centre_ceil
        spec = BankSpec(a, q)
        exact = test_count_cdf(spec, ceil).p - test_count_cdf(spec, ceil - 1).p
        assert local_pmf_approx(a, q, 0) == pytest.approx(exact, abs=0.01)

    def test_nonnegative(self):
        assert all(local_pmf_approx(5, 40, n) >= 0.0 for n in range(-20, 40))

    def test_far_left_lag(self):
        # lags beyond the float range too: the increment there is 0.0
        for n in (-10 ** 4, -10 ** 400, 10 ** 400):
            assert local_pmf_approx(10, 10, n) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.integers(2, MAX_ALTERNATIVES),
        q=st.one_of(st.integers(1, 10 ** 6), st.integers(1, 10 ** 400)),
        n=st.one_of(st.integers(-40, 40), st.sampled_from([-10 ** 400, 10 ** 400])),
    )
    def test_is_the_gumbel_increment_at_the_centring(self, a, q, n):
        # the increment formed from centring()'s fields, bit for bit; a lag
        # beyond the float range counts as an infinity of its sign
        c = centring(a, q)
        x = float(n) if abs(n) < 10 ** 300 else math.inf if n > 0 else -math.inf
        want = (gumbel_cdf(c.decay_rate * (x + 1 - c.centre_frac))
                - gumbel_cdf(c.decay_rate * (x - c.centre_frac)))
        got = local_pmf_approx(a, q, n)
        assert struct.pack("<d", got) == struct.pack("<d", want), (a, q, n)


class TestMeanBounds:
    def test_reference_cell(self):
        bounds = mean_bounds(10)
        assert bounds.lower == pytest.approx(27.33, abs=5e-3)
        assert bounds.upper - bounds.lower == 1.0

    def test_band_captures_centred_means(self):
        a = 10
        rate = decay_rate(a)
        bounds = mean_bounds(a)
        for q in (20, 50, 100, 200):
            centred = expected_tests(BankSpec(a, q)).value - math.log(q) / rate
            assert bounds.lower - 0.05 <= centred <= bounds.upper + 0.05


class TestBandSecondMoment:
    @pytest.mark.parametrize("a", range(2, 21))
    def test_in_unit_interval(self, a):
        assert 0.0 < band_second_moment(a) < 1.0

    def test_matches_monte_carlo(self):
        # independent route: sample the Gumbel law and average the band term
        a = 10
        rate = decay_rate(a)
        rng = np.random.Generator(np.random.Philox(987654321))
        z = rng.gumbel(0.0, 1.0, 10_000_000)
        inside = (z > -rate) & (z <= 0.0)
        contrib = np.where(inside, (1.0 + z / rate) ** 2, 0.0)
        estimate = contrib.mean()
        se = contrib.std() / math.sqrt(len(z))
        assert abs(band_second_moment(a) - estimate) <= 3 * se

    def test_matches_tight_quadrature(self):
        # independent route: scipy's adaptive quadrature at its tightest setting
        for a in range(2, 65):
            rate = decay_rate(a)
            reference, err = integrate.quad(
                lambda z: (1.0 + z / rate) ** 2 * math.exp(-z - math.exp(-z)),
                -rate, 0.0, epsabs=1e-14, epsrel=1e-14,
            )
            assert err < 1e-14, a
            assert abs(band_second_moment(a) - reference) <= 1e-14, a

    # a = 2..64 and a log-spaced sample of a up to 2**53, the largest served
    PROOF_SIZES = list(range(2, 65)) + sorted({round(2 ** (k / 2)) for k in range(13, 107)})

    def test_within_1e_14_of_a_50_digit_integral(self):
        # independent route: mpmath's tanh-sinh quadrature at 50 digits
        for a in self.PROOF_SIZES:
            with mpmath.workdps(50):
                rate = mpmath.mpf(decay_rate(a))
                reference = mpmath.quad(
                    lambda z: (1 + z / rate) ** 2 * mpmath.exp(-z - mpmath.exp(-z)), [-rate, 0]
                )
                rel = float(abs(band_second_moment(a) - reference) / reference)
            assert rel <= 1e-14, (a, rel)

    def test_agrees_with_a_60_node_rule(self):
        # a rule of twice the nodes, evaluated in numpy, whose own error is far smaller
        nodes, weights = np.polynomial.legendre.leggauss(60)
        for a in self.PROOF_SIZES:
            rate = decay_rate(a)
            half = rate / 2.0
            z = half * nodes - half
            terms = weights * (1.0 + z / rate) ** 2 * np.exp(-z - np.exp(-z))
            assert abs(half * math.fsum(terms.tolist()) - band_second_moment(a)) <= 1e-15, a


class TestExpIntegral:
    """E1(1), the one value of the exponential integral the variance band needs."""

    def test_reference_value(self):
        assert asymptotics._E1_ONE == pytest.approx(0.2194, abs=1e-4)

    def test_literal_bits_and_distance_from_mpmath(self):
        # these bits build the sd_bounds table; the correctly rounded E1(1)
        # (the 50-digit value as a double) lies exactly 8 steps below them
        assert asymptotics._E1_ONE.hex() == "0x1.c14c5d3bf8f9cp-3"
        with mpmath.workdps(50):
            exact = mpmath.e1(1)
            correctly_rounded = float(exact)
            steps = (asymptotics._E1_ONE - correctly_rounded) / math.ulp(correctly_rounded)
            assert steps == 8.0
            assert abs(mpmath.mpf(asymptotics._E1_ONE) - exact) < 9 * math.ulp(correctly_rounded)

    @pytest.mark.parametrize("x", [1.0])
    def test_matches_quadrature(self, x):
        # the integral from 1 to infinity of exp(-x*t)/t dt: quadrature on
        # [1, T] plus an analytic bound exp(-x*T)/(x*T) on the discarded tail
        top = 1.0 + 60.0 / x
        reference, err = integrate.quad(
            lambda t: math.exp(-x * t) / t, 1.0, top, epsabs=0.0, epsrel=1e-12, limit=200
        )
        tail = math.exp(-x * top) / (x * top)
        assert err + tail < 1e-11
        assert asymptotics._E1_ONE == pytest.approx(reference, abs=1e-10)

    def test_matches_library_special_function(self):
        assert asymptotics._E1_ONE == pytest.approx(float(special.exp1(1.0)), rel=1e-12)


class TestVarianceBounds:
    @pytest.mark.parametrize(
        "a,sd_lo,sd_hi", [(a, lo, hi) for a, (lo, hi) in SD_PRINTED.items()]
    )
    def test_reference_bounds(self, a, sd_lo, sd_hi):
        bounds = variance_bounds(a)
        assert bounds.sd_lo == pytest.approx(sd_lo, abs=0.002)
        assert bounds.sd_hi == pytest.approx(sd_hi, abs=0.002)

    def test_memo_matches_a_fresh_computation(self):
        # every field, bit for bit, for every bank size the library serves
        fresh = variance_bounds.__wrapped__
        for a in range(2, MAX_ALTERNATIVES + 1):
            got, want = dataclasses.astuple(variance_bounds(a)), dataclasses.astuple(fresh(a))
            assert struct.pack("<7d", *got) == struct.pack("<7d", *want), a

    def test_every_field_matches_its_digest(self):
        # all seven fields for a = 2..64, so a drift in E1(1) or the band
        # moment shows even where the printed sd_bounds cells hide it
        digest = hashlib.sha256()
        for a in range(2, MAX_ALTERNATIVES + 1):
            fields = dataclasses.astuple(variance_bounds(a))
            digest.update((" ".join(x.hex() for x in fields) + "\n").encode())
        assert digest.hexdigest() == VARIANCE_BOUNDS_SHA256

    @pytest.mark.parametrize("bad", [5.0, True, 1])
    def test_memo_does_not_admit_bad_sizes(self, bad):
        # 5.0 and True hash like 5 and 1, which is cached; they are still refused
        variance_bounds(5)
        with pytest.raises(InvalidSpecError):
            variance_bounds(bad)

    def test_memo_is_bounded(self):
        assert variance_bounds.cache_info().maxsize == MAX_ALTERNATIVES

    @pytest.mark.parametrize("a", range(2, 21))
    def test_positive_and_consistent(self, a):
        bounds = variance_bounds(a)
        assert 0.0 < bounds.sd_lo < bounds.sd_hi
        assert bounds.var_lo == pytest.approx(bounds.center - bounds.half_width, abs=1e-12)
        assert bounds.var_hi == pytest.approx(bounds.center + bounds.half_width, abs=1e-12)
        assert bounds.sd_lo == pytest.approx(math.sqrt(bounds.var_lo), abs=1e-12)


class TestCentredMeanPrediction:
    def test_reference_cells(self):
        assert centred_mean_prediction(20, 200) == pytest.approx(173.0, abs=0.05)
        assert centred_mean_prediction(5, 1) == pytest.approx(9.8, abs=0.05)

    def test_reads_module_constant_at_call_time(self, monkeypatch):
        import bankcover.asymptotics as asym

        base = centred_mean_prediction(10, 10)
        monkeypatch.setattr(asym, "EULER_GAMMA", EULER_GAMMA + 0.1)
        shifted = centred_mean_prediction(10, 10)
        assert shifted == pytest.approx(base + 0.1 / decay_rate(10), abs=1e-9)

    def test_undershoots_true_mean_slightly(self):
        for a, q in ((5, 50), (10, 100), (20, 200)):
            diff = expected_tests(BankSpec(a, q)).value - centred_mean_prediction(a, q)
            assert 0.45 <= diff <= 0.65
