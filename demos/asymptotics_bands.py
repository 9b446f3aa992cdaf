"""Gumbel envelope and moment bands for the many-bank limit.

For large q the recentred test count is squeezed between two shifted Gumbel
curves one unit apart.  That sandwich gives computable bands for the mean and
the standard deviation that hold at every q, not just in the limit.  This
script shows the envelope at a moderate q, then the bands.

Run:  python3 demos/asymptotics_bands.py
"""

import math

from bankcover import (
    BankSpec,
    centring,
    decay_rate,
    expected_tests,
    gumbel_cdf,
    mean_bounds,
    test_count_cdf,
    variance_bounds,
    variance_tests,
)

A = 10
Q = 10_000

data = centring(A, Q)
print(f"a = {A}, q = {Q}: decay rate {data.decay_rate:.6f}, "
      f"centre log(aq)/rate = {data.centre:.4f}")
print()

print("   x    lower Gumbel   exact P(N - centre <= x)   upper Gumbel")
spec = BankSpec(A, Q)
for x in range(-2, 7):
    n = math.floor(data.centre + x)
    exact = test_count_cdf(spec, n).p
    lo = gumbel_cdf(data.decay_rate * (x - 1.0))
    hi = gumbel_cdf(data.decay_rate * x)
    print(f"{x:+4d}   {lo:.6f}       {exact:.6f}                   {hi:.6f}")
print()

mb = mean_bounds(A)
offset = expected_tests(spec).value - math.log(Q) / data.decay_rate
print(f"mean offset band: E[tests] - log(q)/rate settles in "
      f"[{mb.lower:.4f}, {mb.upper:.4f}] (width exactly 1)")
print(f"observed offset at q = {Q}: {offset:.4f}")
print()

print("standard deviation bands (valid for every q):")
print("  a    sd_min    sd_max")
for a in (2, 3, 5, 10, 20):
    vb = variance_bounds(a)
    print(f"{a:3d}   {vb.sd_lo:7.3f}   {vb.sd_hi:7.3f}")
print()

sd = math.sqrt(variance_tests(BankSpec(A, Q)).value)
vb = variance_bounds(A)
print(f"series sd at a={A}, q={Q}: {sd:.4f}, inside [{vb.sd_lo:.4f}, {vb.sd_hi:.4f}]")
