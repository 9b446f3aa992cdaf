"""Independent references for the library's certified answers.

None of these routes shares code with the library's production path:

* single-bank survival and cdf: the occupancy chain (number of alternatives
  seen so far, one test at a time) in 256-bit fixed-point integers, with a
  rigorous error of at most y*(a+1) units of 2**-256 after y tests, and
  ``cdf_oracle`` where it is trusted (a <= 12, y <= 200);
* q-bank pmf and the mean and variance series: mpmath at 50 digits on top
  of that chain, with an explicit bound on the discarded tail;
* q = 1 mean and variance: a*H_a and sum of (1-p)/p**2 in exact fractions;
* the small-grid mean: the inclusion-exclusion multi-sum in exact fractions.

A certified answer misses when its distance from the reference exceeds the
answer's own ``abs_err`` / ``tail_bound``.  An answer further than
``GROSS_REL`` (relative) from its reference is plainly wrong, not merely
under-certified.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath

PREC_BITS = 256
ONE = 1 << PREC_BITS
GROSS_REL = 1e-6
ORACLE_MAX_A = 12
ORACLE_MAX_Y = 200
_MP = mpmath.MPContext()
_MP.dps = 50
_SERIES_TAIL = _MP.mpf("1e-30")


class OccupancyChain:
    """P(one bank of ``a`` is covered within y tests) for y = 0, 1, ...

    Entry j of the state is P(exactly j alternatives seen), scaled by 2**256.
    One test maps it to j*p[j] + (a-j+1)*p[j-1], divided by a with one floor
    per entry; the map is a stochastic matrix, so the rounding errors add up
    to at most (a+1) units per test.
    """

    def __init__(self, a: int) -> None:
        self.a = a
        self._state = [ONE] + [0] * a
        self._cdf = [ONE if a == 0 else 0]

    def cdf_units(self, y: int) -> int:
        a = self.a
        state, cdf = self._state, self._cdf
        while len(cdf) <= y:
            state = [
                (state[j] * j + (state[j - 1] * (a - j + 1) if j else 0)) // a
                for j in range(a + 1)
            ]
            cdf.append(state[a])
        self._state = state
        return cdf[y]

    def err_units(self, y: int) -> int:
        return y * (self.a + 1) + 1


class References:
    """Memoised references for one benchmark run."""

    def __init__(self, bc) -> None:
        self._bc = bc
        self._chains: dict[int, OccupancyChain] = {}
        self._oracle: dict[tuple[int, int], Fraction] = {}
        self._band: dict[int, object] = {}

    def chain(self, a: int) -> OccupancyChain:
        if a not in self._chains:
            self._chains[a] = OccupancyChain(a)
        return self._chains[a]

    def _oracle_cdf(self, a: int, y: int) -> Fraction:
        if (a, y) not in self._oracle:
            self._oracle[a, y] = self._bc.cdf_oracle(a, y)
        return self._oracle[a, y]

    def survival(self, a: int, y: int) -> tuple[Fraction, Fraction]:
        """Reference S(y) and a bound on the reference's own error."""
        if a <= ORACLE_MAX_A and y <= ORACLE_MAX_Y:
            return 1 - self._oracle_cdf(a, y), Fraction(0)
        chain = self.chain(a)
        return (Fraction(ONE - chain.cdf_units(y), ONE),
                Fraction(chain.err_units(y), ONE))

    def cdf_mp(self, a: int, y: int):
        if a <= ORACLE_MAX_A and y <= ORACLE_MAX_Y:
            f = self._oracle_cdf(a, y)
            return _MP.mpf(f.numerator) / f.denominator
        return _MP.ldexp(_MP.mpf(self.chain(a).cdf_units(y)), -PREC_BITS)

    def pmf(self, a: int, q: int, n: int):
        return self.cdf_mp(a, n) ** q - self.cdf_mp(a, n - 1) ** q

    def series(self, a: int, q: int):
        """Mean and variance of the q-bank maximum, each with its error bound.

        Sums P(N > n) and (2n+1) P(N > n) until the union-bound tail,
        P(N > m) <= q*a*r**m with r = (a-1)/a, is below 1e-30.
        """
        mp = _MP
        r = mp.mpf(a - 1) / a
        one = mp.mpf(1)
        mean = mp.mpf(0)
        second = mp.mpf(0)
        n = 0
        while True:
            term = one if n < a else one - self.cdf_mp(a, n) ** q
            mean += term
            second += (2 * n + 1) * term
            n += 1
            if n > a:
                head = q * a * r ** n / (1 - r)
                tail_mean = head
                tail_second = head * ((2 * n + 1) + 2 * r / (1 - r))
                if tail_second < _SERIES_TAIL:
                    break
        variance = second - mean * mean
        err_var = tail_second + 2 * mean * tail_mean + tail_mean ** 2
        return (mean, tail_mean), (variance, err_var)

    def band_moment(self, a: int):
        if a in self._band:
            return self._band[a]
        mp = _MP
        rate = mp.log(mp.mpf(a) / (a - 1))

        def integrand(z):
            w = 1 + z / rate
            return w * w * mp.exp(-z - mp.exp(-z))

        self._band[a] = mp.quad(integrand, [-rate, 0])
        return self._band[a]


def q1_mean(a: int) -> Fraction:
    """a * H_a, the single-bank mean."""
    return a * sum(Fraction(1, k) for k in range(1, a + 1))


def q1_variance(a: int) -> Fraction:
    """Sum over stages of (1 - p)/p**2 with p = k/a, k = 1..a."""
    return sum(Fraction(a * (a - k), k * k) for k in range(1, a + 1))


def multisum_mean(a: int, q: int) -> Fraction:
    """Inclusion-exclusion over banks and alternatives, in exact fractions."""
    total = Fraction(0)
    for m in range(1, q + 1):
        subsets = math.comb(q, m)
        for js in itertools.product(range(1, a + 1), repeat=m):
            binom = 1
            miss = Fraction(1)
            for j in js:
                binom *= math.comb(a, j)
                miss *= Fraction(a - j, a)
            signed = -binom if sum(js) % 2 == 0 else binom
            total += subsets * signed / (1 - miss)
    return total


def miss_exact(value: float, bound: float, ref: Fraction, ref_err: Fraction) -> bool:
    """True when |value - ref| provably exceeds ``bound`` + ``ref_err``."""
    nearest = float(ref)
    fast = abs(value - nearest)
    slack = math.ulp(nearest) + math.ulp(fast) + float(ref_err)
    if fast + slack < bound:
        return False
    return abs(Fraction(value) - ref) > Fraction(bound) + ref_err


def miss_mp(value: float, bound: float, ref, ref_err) -> bool:
    return abs(_MP.mpf(value) - ref) > _MP.mpf(bound) + ref_err


def gross_exact(value: float, ref: Fraction) -> bool:
    return abs(Fraction(value) - ref) > GROSS_REL * max(abs(ref), 1)


def gross_mp(value: float, ref) -> bool:
    return abs(_MP.mpf(value) - ref) > GROSS_REL * max(abs(ref), 1)


def centring_mp(a: int, q: int):
    """Decay rate, centre and fractional part of the centre in mpmath."""
    mp = _MP
    rate = mp.log(mp.mpf(a) / (a - 1))
    centre = mp.log(mp.mpf(a) * q) / rate
    return rate, centre, centre - mp.floor(centre)


def gumbel_mp(x):
    return _MP.exp(-_MP.exp(-x))


def euler_gamma():
    return _MP.euler


def pi():
    return _MP.pi
