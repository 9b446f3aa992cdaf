"""Gumbel asymptotics: rates, centring, envelopes, moment bands, E1."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import bankcover.asymptotics as asymptotics
from bankcover.asymptotics import (
    EULER_GAMMA,
    QuadratureError,
    band_second_moment,
    centred_mean_prediction,
    centring,
    decay_rate,
    exp_integral_e1,
    gumbel_cdf,
    local_pmf_approx,
    mean_bounds,
    sandwich_bounds,
    variance_bounds,
)
from bankcover.coupon import BankSpec, InvalidSpecError, expected_tests, test_count_cdf
from bankcover.validate import SD_PRINTED


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

    def test_disagreeing_rules_raise(self, monkeypatch):
        # below zero no difference between the 30- and 60-node rules passes
        monkeypatch.setattr(asymptotics, "_QUAD_TOL", -1.0)
        with pytest.raises(QuadratureError):
            band_second_moment(10)


class TestExpIntegral:
    def test_reference_value(self):
        assert exp_integral_e1(1.0) == pytest.approx(0.2194, abs=1e-4)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_matches_quadrature(self, x):
        # the integral from 1 to infinity of exp(-x*t)/t dt: quadrature on
        # [1, T] plus an analytic bound exp(-x*T)/(x*T) on the discarded tail
        top = 1.0 + 60.0 / x
        reference, err = integrate.quad(
            lambda t: math.exp(-x * t) / t, 1.0, top, epsabs=0.0, epsrel=1e-12, limit=200
        )
        tail = math.exp(-x * top) / (x * top)
        assert err + tail < 1e-11
        assert exp_integral_e1(x) == pytest.approx(reference, abs=1e-10)

    def test_matches_library_special_function(self):
        for x in (0.05, 0.3, 0.999, 1.0, 1.001, 3.7, 10.0, 50.0, 300.0):
            assert exp_integral_e1(x) == pytest.approx(float(special.exp1(x)), rel=1e-12, abs=1e-300)

    def test_asymptotic_regime(self):
        x = 50.0
        leading = math.exp(-x) / x
        assert exp_integral_e1(x) / leading == pytest.approx(1.0, abs=0.05)

    def test_branch_seam_is_smooth(self):
        below = exp_integral_e1(0.9999999)
        above = exp_integral_e1(1.0000001)
        assert abs(below - above) < 1e-6

    def test_large_arguments(self):
        for x in (300.0, 700.0):
            assert exp_integral_e1(x) == pytest.approx(float(special.exp1(x)), rel=1e-12, abs=0.0)
        # e**-745 / 745 underflows: the value is 0.0 from about x = 741 on
        assert exp_integral_e1(745.0) == 0.0
        assert exp_integral_e1(800.0) == 0.0

    @pytest.mark.parametrize(
        "x",
        [
            pytest.param(10 ** 400, id="10**400"),
            pytest.param(math.inf, id="inf"),
            # e**-x underflows here, and the continued fraction need not settle
            pytest.param(2.1166280836390212e16, id="2.1166280836390212e16"),
            pytest.param(1e308, id="1e308"),
            pytest.param(sys.float_info.max, id="float_max"),
        ],
    )
    def test_beyond_float_range_is_zero(self, x):
        assert exp_integral_e1(x) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            exp_integral_e1(0.0)
        with pytest.raises(ValueError):
            exp_integral_e1(-2.0)

    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan])
    def test_outside_domain_is_a_typed_error(self, x):
        with pytest.raises(InvalidSpecError, match="E1 requires x > 0"):
            exp_integral_e1(x)


class TestVarianceBounds:
    @pytest.mark.parametrize(
        "a,sd_lo,sd_hi", [(a, lo, hi) for a, (lo, hi) in SD_PRINTED.items()]
    )
    def test_reference_bounds(self, a, sd_lo, sd_hi):
        bounds = variance_bounds(a)
        assert bounds.sd_lo == pytest.approx(sd_lo, abs=0.002)
        assert bounds.sd_hi == pytest.approx(sd_hi, abs=0.002)

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
