"""Seeded simulation against the exact series, side by side.

Every replication is the time until all q banks are exhausted, drawn as the
largest of q per-bank sums of geometric stage waits.  Replications come in
blocks, each from a counter-based generator keyed by (seed, block index), so
the result is one specific number: independent of worker count, stable
across runs.  This script runs a moderate experiment, compares mean and
variance to the exact series, and prints the empirical distribution near the
centre.

Run:  python3 demos/monte_carlo.py
"""

import math

from bankcover import (
    BankSpec,
    SimulationConfig,
    centring,
    expected_tests,
    run_experiment,
    test_count_cdf,
    variance_tests,
)

SPEC = BankSpec(a=10, q=10)
REPS = 200_000
SEED = 42

config = SimulationConfig(SPEC, REPS, SEED, workers=4)
result = run_experiment(config)

exact_mean = expected_tests(SPEC)
exact_var = variance_tests(SPEC)

print(f"a = {SPEC.a}, q = {SPEC.q}, {REPS} replications, seed {SEED}")
print(f"generator: {result.generator_id}")
print()
print(f"simulated mean     {result.mean:.4f} +- {result.std_error_mean:.4f}")
print(f"series mean        {exact_mean.value:.4f}")
print(f"gap                {abs(result.mean - exact_mean.value) / result.std_error_mean:.2f} standard errors")
print()
print(f"simulated variance {result.variance:.4f}")
print(f"series variance    {exact_var.value:.4f}")
print()

ceil = centring(SPEC.a, SPEC.q).centre_ceil
print("empirical vs exact pmf near the centre:")
print("  n     empirical   exact")
for n in range(ceil - 4, ceil + 8):
    empirical = result.histogram.get(n, 0) / REPS
    exact = test_count_cdf(SPEC, n).p - test_count_cdf(SPEC, n - 1).p
    bar = "#" * round(200 * exact)
    print(f"{n:4d}   {empirical:.5f}     {exact:.5f}  {bar}")
print()
print(f"range observed: [{result.min}, {result.max}]; "
      f"binomial noise at this size is about {1 / math.sqrt(REPS):.4f} per cell")
