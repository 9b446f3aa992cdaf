"""Large-``q`` behaviour of the coverage time, built on the standard Gumbel law.

For a bank of ``a`` alternatives the single-bank survival decays like
``e**(-rate * y)`` with ``rate = log(a / (a - 1))``.  Centring the maximum
over ``q`` banks at ``log(a * q) / rate`` traps its distribution between two
Gumbel curves one unit apart; everything in this module (sandwich envelope,
local pmf approximation, mean and variance bands) is that picture made
quantitative.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

from numpy.polynomial.legendre import leggauss

from .coupon import _COUNT_LIMIT, MAX_ALTERNATIVES, InvalidSpecError, _shown

__all__ = [
    "EULER_GAMMA",
    "GUMBEL_VARIANCE",
    "CentringData",
    "MomentBounds",
    "VarianceBoundSummary",
    "decay_rate",
    "centring",
    "gumbel_cdf",
    "sandwich_bounds",
    "local_pmf_approx",
    "mean_bounds",
    "band_second_moment",
    "variance_bounds",
    "centred_mean_prediction",
]

# Euler-Mascheroni constant, stored as a literal rather than computed.
EULER_GAMMA = 0.57721566490153286061
GUMBEL_VARIANCE = math.pi ** 2 / 6.0
# E1(1), the one point of the exponential integral the variance band needs;
# the correctly rounded 0.21938393439552029 is 8 ulp lower and moves sd_bounds.
_E1_ONE = 0.2193839343955205
# Largest bank size the asymptotics accept: beyond it a is not exact as a float.
_MAX_ASYMPTOTIC_A = 2 ** 53

# The band moment's fixed 30-node Gauss-Legendre rule on [-1, 1], as (node, weight) pairs.
_GAUSS_RULE = tuple(zip(*(column.tolist() for column in leggauss(30))))


def decay_rate(a: int) -> float:
    """Exponential rate ``log(a / (a - 1))`` of the single-bank survival tail,
    for integer ``2 <= a <= 2**53``."""
    if not isinstance(a, int):
        raise InvalidSpecError(f"a must be an integer, got {a!r}")
    if a < 2:
        raise InvalidSpecError(f"asymptotics need a >= 2, got {_shown(a)}")
    if a > _MAX_ASYMPTOTIC_A:
        raise InvalidSpecError(f"asymptotics need a <= 2**53, got an a of {a.bit_length()} bits")
    return -math.log1p(-1.0 / a)


def _saturating_float(x: float) -> float:
    """The lag ``x``, a real number, as a float; an integer beyond the float
    range becomes an infinity of its sign.  A lag that is not a
    ``numbers.Real``, or is NaN, raises ``InvalidSpecError``.  A lag is an
    int or a float almost always, so those skip the ``numbers.Real`` check,
    and a float that is not NaN is returned as it is.
    """
    if type(x) is float and x == x:
        return x
    if type(x) is not int and (not isinstance(x, numbers.Real) or x != x):
        raise InvalidSpecError(f"a lag must be a real number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def gumbel_cdf(x: float) -> float:
    """Standard Gumbel distribution function ``exp(-e**(-x))``."""
    x = _saturating_float(x)
    if x < -40.0:
        # The cdf is already 0.0 below about -6.6, and exp(-x) overflows below -709.
        return 0.0
    return math.exp(-math.exp(-x))


@dataclass(frozen=True)
class CentringData:
    """Centring of the coverage maximum for one ``(a, q)`` pair.

    ``centre_ceil`` follows the shifted convention floor + 1, so it exceeds
    ``centre`` even when the centre is an integer, and ``centre_frac`` is the
    fractional part ``centre - floor(centre)`` in ``[0, 1)``.
    """

    decay_rate: float
    centre: float
    centre_ceil: int
    centre_frac: float


def _rate_and_centre(a: int, q: int) -> tuple[float, float]:
    """The decay rate and the centre ``log(a * q) / rate``, inputs checked."""
    rate = decay_rate(a)
    if not isinstance(q, int) or q < 1:
        raise InvalidSpecError(f"need q >= 1, got {_shown(q)}")
    return rate, math.log(a * q) / rate


def centring(a: int, q: int) -> CentringData:
    """Centring constants ``log(a * q) / rate`` for the coverage maximum."""
    rate, centre = _rate_and_centre(a, q)
    lower = math.floor(centre)
    return CentringData(rate, centre, lower + 1, centre - lower)


def sandwich_bounds(a: int, x: float) -> tuple[float, float]:
    """Limiting envelope for P(coverage maximum <= centre + x).

    Along q the probability oscillates; its liminf and limsup at lag ``x``
    are bracketed by the two Gumbel values returned here (lower first).
    """
    rate = decay_rate(a)
    x = _saturating_float(x)
    return gumbel_cdf(rate * (x - 1.0)), gumbel_cdf(rate * x)


def local_pmf_approx(a: int, q: int, n: int) -> float:
    """Gumbel increment approximating P(coverage maximum = centre_ceil + n).

    The increment telescopes over ``n``, so it is a genuine probability mass
    function on the integers.  A request asks for 16 of them, so one guard
    passes every int triple that :func:`_rate_and_centre` accepts and whose
    lag a float holds; only for any other triple do its checks and
    :func:`_saturating_float` run, with their messages.  Either way the rate,
    the centre and both :func:`gumbel_cdf` values are formed inline, with
    their float operations in the same order.
    """
    fast = (type(a) is type(q) is type(n) is int and 1 < a <= _MAX_ASYMPTOTIC_A and q > 0
            and -_COUNT_LIMIT < n < _COUNT_LIMIT)
    if not fast:
        _rate_and_centre(a, q)  # raises for a pair it refuses
    rate = -math.log1p(-1.0 / a)
    centre = math.log(a * q) / rate
    frac = centre - math.floor(centre)
    x = float(n) if fast else _saturating_float(n)
    hi, lo = rate * (x + 1 - frac), rate * (x - frac)
    # gumbel_cdf's values, its cut at -40 included
    return ((0.0 if hi < -40.0 else math.exp(-math.exp(-hi)))
            - (0.0 if lo < -40.0 else math.exp(-math.exp(-lo))))


@dataclass(frozen=True)
class MomentBounds:
    """Closed interval ``[lower, upper]``."""

    lower: float
    upper: float


def mean_bounds(a: int) -> MomentBounds:
    """Limit band for E(coverage maximum) - log(q) / rate as q grows.

    The band has width exactly one test: the centring can be off by at most
    one whole test because coverage counts are integers.
    """
    rate = decay_rate(a)
    lower = (EULER_GAMMA + math.log(a)) / rate
    return MomentBounds(lower, lower + 1.0)


def band_second_moment(a: int) -> float:
    """Second moment of ``1 + Z / rate`` over the unit band ``-rate < Z <= 0``.

    Z is standard Gumbel.  One fixed 30-node Gauss-Legendre rule on [-rate, 0]:
    the integrand is entire, so the rule converges geometrically.  The tests
    hold it within 1e-14 (relative) of a 50-digit ``mpmath`` integral and
    within 1e-15 of a 60-node rule, for a = 2..64 and a sample up to 2**53.
    """
    rate = decay_rate(a)
    half = rate / 2.0
    terms = []
    for x, weight in _GAUSS_RULE:
        z = half * x - half
        w = 1.0 + z / rate
        terms.append(weight * (w * w * math.exp(-z - math.exp(-z))))
    return half * math.fsum(terms)


@dataclass(frozen=True)
class VarianceBoundSummary:
    """Variance band of the coverage maximum at large q, with its pieces.

    ``center`` is the Gumbel variance over the squared rate; ``half_width``
    collects the discretisation and oscillation slack around it.
    """

    center: float
    band_moment: float
    half_width: float
    var_lo: float
    var_hi: float
    sd_lo: float
    sd_hi: float


def variance_bounds(a: int) -> VarianceBoundSummary:
    """Band guaranteed to contain the large-q variance of the coverage maximum.

    It depends on a alone, so a warm call is one lookup in a memo of the
    last ``MAX_ALTERNATIVES`` bank sizes (:func:`_variance_bounds`).  An
    ``a`` that is not an int, such as a list the memo could not hash, goes
    to :func:`decay_rate` first, which raises ``InvalidSpecError`` for it.
    """
    if type(a) is not int:
        decay_rate(a)
    return _variance_bounds(a)


@functools.lru_cache(maxsize=MAX_ALTERNATIVES)
def _variance_bounds(a: int) -> VarianceBoundSummary:
    """:func:`variance_bounds`, formed once per bank size."""
    rate = decay_rate(a)
    center = GUMBEL_VARIANCE / (rate * rate)
    moment = band_second_moment(a)
    half = moment + 1.0 - math.exp(-1.0) + 2.0 * (EULER_GAMMA + _E1_ONE) / rate
    var_lo = center - half
    var_hi = center + half
    return VarianceBoundSummary(
        center=center,
        band_moment=moment,
        half_width=half,
        var_lo=var_lo,
        var_hi=var_hi,
        sd_lo=math.sqrt(var_lo) if var_lo > 0.0 else 0.0,
        sd_hi=math.sqrt(var_hi),
    )


def centred_mean_prediction(a: int, q: int) -> float:
    """Asymptotic mean estimate: centre plus the Gumbel mean over the rate."""
    rate, centre = _rate_and_centre(a, q)
    return centre + EULER_GAMMA / rate
