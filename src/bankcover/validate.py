"""Self-check suite and the one registry of the package's acceptance criteria.

The module holds each printed reference table once, and one measure function
per criterion returning its observed numbers.  ``run_checks`` wraps them in
:class:`CheckResult` records; the acceptance battery in the test suite
asserts on the same tables and functions, which stay outside ``__all__``.

``quick`` runs the exact-arithmetic and reference-table checks in about
6-10 ms on a 2-core host once the curve blocks are filled (17-18 ms on the
first call); ``full`` adds the envelope sweeps, the variance band, the local
approximation decay and seeded simulation concordance.  ``quick`` does each
exact computation once: the mean-table, centred-band and plot checks judge
one ``fig_high`` table, which holds every q the other two read (a series
pass gives each q what a pass for it alone gives), and the oracle check
reads its 452 cells from one surjection row per test count.

Two bundled reference entries are internally inconsistent with their own
defining formulas.  The single-bank mean at a=20 is printed 71.96, a double
rounding of 20 * H_20 = 71.954793... (to 71.955, then half up); rounded once
it is 71.95.  The centred prediction at a=20, q=1 is printed 68.7 against a
formula value of 69.657, a digit slip.  The checks here compare against the
formulas and report the reference deviation in a note instead of failing;
the discrepancies are deliberately kept visible.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import asymptotics
from .asymptotics import (
    centred_mean_prediction,
    centring,
    decay_rate,
    local_pmf_approx,
    sandwich_bounds,
    variance_bounds,
)
from .coupon import (
    BankSpec,
    _mean_series,
    _onto_row,
    expected_single_bank,
    expected_tests,
    expected_tests_multisum,
    single_bank_cdf,
    test_count_cdf,
    variance_tests,
)
from .simulate import SimulationConfig, run_experiment
from .tables import FIG_HIGH_Q, TABLE_A, TABLE_Q, build_table

__all__ = ["CheckResult", "run_checks", "format_report", "LEVELS"]

LEVELS = ("quick", "full")

# Single-bank means a * H_a as printed (2 d.p.).  The printed a=20 entry is
# 0.0052 above its own formula: it double-rounds 71.954793... via 71.955,
# where a single rounding gives 71.95; see the module docstring.
SINGLE_PRINTED = {5: 11.42, 10: 29.29, 15: 49.77, 20: 71.96}
SINGLE_EXACT = {a: a * sum(Fraction(1, k) for k in range(1, a + 1)) for a in SINGLE_PRINTED}

# Printed rows over TABLE_Q, one per bank size in TABLE_A.
MEAN_TABLE_PRINTED = {
    5: ("11.4", "17.8", "20.8", "23.8", "27.9", "31.0", "34.1"),
    10: ("29.3", "43.5", "49.9", "56.4", "65.0", "71.6", "78.1"),
    20: ("72.0", "102.0", "115.3", "128.7", "146.5", "160.0", "173.5"),
}

# Centred predictions as printed (1 d.p.).  The (a=20, q=1) entry is printed
# 68.7 but the defining formula log(a*q)/rate + gamma/rate gives 69.657; the
# checks use the formula for that cell and note the print deviation.
CENTRED_PRINTED = {
    5: (9.8, 17.0, 20.1, 23.2, 27.3, 30.4, 33.5),
    10: (27.3, 42.6, 49.2, 55.8, 64.5, 71.0, 77.6),
    20: (68.7, 101.0, 114.5, 128.1, 145.9, 159.4, 173.0),
}
CENTRED_ERRATUM_CELL = (20, 1)
CENTRED_ERRATUM_VALUE = 69.7

SD_PRINTED = {
    2: (0.641, 2.537), 3: (2.323, 3.823), 4: (3.697, 5.107),
    5: (5.024, 6.390), 10: (11.507, 12.804), 20: (24.362, 25.630),
}

E1_PRINTED = 0.2194

# Plot coordinates over FIG_LOW_Q, then over the points FIG_HIGH_Q adds to it.
FIG_LOW_PRINTED = {
    5: (11.4, 14, 15.7, 16.9, 17.8, 18.6, 19.2, 19.8, 20.3, 20.8,
        21.2, 21.6, 21.9, 22.2, 22.5, 22.8, 23.1, 23.3, 23.6, 23.8),
    10: (29.3, 35.2, 38.9, 41.5, 43.5, 45.2, 46.6, 47.8, 48.9, 49.9,
         50.8, 51.6, 52.3, 53, 53.7, 54.3, 54.9, 55.4, 55.9, 56.4),
    20: (72, 84.7, 92.3, 97.8, 102, 105.5, 108.5, 111, 113.3, 115.3,
         117.1, 118.8, 120.4, 121.8, 123.1, 124.4, 125.6, 126.7, 127.7, 128.7),
}
FIG_HIGH_EXTRA_PRINTED = {
    5: (24.8, 25.6, 26.3, 26.9, 27.1, 27.3, 27.4, 27.5, 27.7, 27.9,
        28.7, 30, 31, 32.8, 34.1),
    10: (58.5, 60.2, 61.6, 62.9, 63.4, 63.8, 64, 64.2, 64.6, 65,
         66.7, 69.5, 71.6, 75.4, 78.1),
    20: (133, 136.6, 139.6, 142.2, 143.1, 144, 144.4, 144.9, 145.7, 146.5,
         150, 155.6, 160, 167.9, 173.5),
}
_FIGURE_CELLS = tuple(
    (a, q, printed)
    for a in TABLE_A
    for q, printed in zip(FIG_HIGH_Q, FIG_LOW_PRINTED[a] + FIG_HIGH_EXTRA_PRINTED[a])
)

# The multi-sum's full admissible range: q <= 4, 4, 4, 4, 3, 1 at a = 1..6.
_MULTISUM_QS = {a: tuple(range(1, top + 1)) for a, top in enumerate((4, 4, 4, 4, 3, 1), 1)}
MULTISUM_CELLS = tuple((a, q) for a, qs in _MULTISUM_QS.items() for q in qs)

_MC_CONFIGS = ((10, 1), (10, 10), (5, 50), (20, 20))
_MC_REPS = 100_000


@dataclass(frozen=True)
class CheckResult:
    """One named check with its target, tolerance and observed value."""

    name: str
    target: str
    tolerance: str
    observed: str
    passed: bool
    note: str = ""


def mean_table_deviation(rows: tuple[tuple, ...]) -> tuple[float, bool]:
    """Worst |series mean - print| over the 21 cells, and whether all 1 d.p.
    strings match; ``rows`` are the ``fig_high`` table's, which hold every cell."""
    by_cell = {(a, q): (value, rounded) for a, q, value, rounded in rows}
    cells = [(by_cell[a, q], p) for a in TABLE_A for q, p in zip(TABLE_Q, MEAN_TABLE_PRINTED[a])]
    worst = max(abs(value - float(p)) for (value, _), p in cells)
    return worst, all(rounded == p for (_, rounded), p in cells)


def centred_table_deviation() -> float:
    """Worst |centred prediction - print| over the 21 cells, the erratum cell vs its formula."""
    worst = 0.0
    for a, row in CENTRED_PRINTED.items():
        for q, printed in zip(TABLE_Q, row):
            reference = CENTRED_ERRATUM_VALUE if (a, q) == CENTRED_ERRATUM_CELL else printed
            worst = max(worst, abs(centred_mean_prediction(a, q) - reference))
    return worst


def centred_diff_band(rows: tuple[tuple, ...]) -> tuple[float, float]:
    """Range of series mean minus centred prediction over the rows with
    q >= 20; ``rows`` are the ``fig_high`` table's (a in TABLE_A, 16 such q)."""
    diffs = [value - centred_mean_prediction(a, q) for a, q, value, _ in rows if q >= 20]
    return min(diffs), max(diffs)


def sd_table_deviation() -> float:
    """Worst |sd bound - print| over the 12 cells of the ``sd_bounds`` table."""
    return max(
        max(abs(sd_min - SD_PRINTED[a][0]), abs(sd_max - SD_PRINTED[a][1]))
        for a, sd_min, sd_max in build_table("sd_bounds").rows
    )


def oracle_deviation() -> float:
    """Worst |closed form - surjection-count oracle| for a <= 8, y in a..60.

    One oracle row per y holds every a <= 8; the int true division is
    correctly rounded, the same double as ``float(cdf_oracle(a, y))``."""
    worst = 0.0
    for y in range(1, 61):
        row = _onto_row(8, y)
        for a in range(1, min(8, y) + 1):
            worst = max(worst, abs(single_bank_cdf(a, y).p - row[a] / a ** y))
    return worst


def multisum_deviation() -> float:
    """Worst |alternating multi-sum - series mean| over ``MULTISUM_CELLS``."""
    return max(
        abs(expected_tests_multisum(BankSpec(a, q)) - estimate.value)
        for a, qs in _MULTISUM_QS.items()
        for q, estimate in zip(qs, _mean_series(a, qs))
    )


def figure_deviation(rows: tuple[tuple, ...]) -> tuple[float, bool]:
    """Worst |plotted mean - print| over the plot prints, and whether all
    roundings match; ``rows`` are the ``fig_high`` table's."""
    by_cell = {(a, q): (value, rounded) for a, q, value, rounded in rows}
    worst = 0.0
    rounding_ok = True
    for a, q, printed in _FIGURE_CELLS:
        value, rounded = by_cell[(a, q)]
        worst = max(worst, abs(value - printed))
        # printed plot coordinates are mixed precision ("14" vs "14.0"),
        # so the rounding check is numeric rather than string equality
        rounding_ok = rounding_ok and float(rounded) == float(printed)
    return worst, rounding_ok


def _cdf_values(a: int, n_max: int) -> np.ndarray:
    return np.array([single_bank_cdf(a, n).p for n in range(n_max + 1)])


def sandwich_excursion(qs: tuple[int, ...]) -> float:
    """Worst one-sided excursion of the exact cdf outside the Gumbel envelope, a in
    TABLE_A, q in ``qs``, lags x in [-3, 10] by 0.25; negative means strictly inside."""
    xs = np.arange(-3.0, 10.0 + 1e-9, 0.25)
    worst = -math.inf
    for a in TABLE_A:
        cdf = _cdf_values(a, int(centring(a, max(qs)).centre + xs[-1]) + 2)
        for q in qs:
            centre = centring(a, q).centre
            for x in xs:
                n = math.floor(centre + x)
                p = float(cdf[n]) ** q if n >= 0 else 0.0
                lower, upper = sandwich_bounds(a, x)
                worst = max(worst, lower - p, p - upper)
    return worst


def envelope_witness() -> tuple[float, float]:
    """Closest approach of the exact probability at x = 0 to the lower and
    the upper envelope end along q = 2..1e6 at a = 10."""
    a = 10
    rate = decay_rate(a)
    qs = np.arange(2, 10 ** 6 + 1, dtype=np.float64)
    idx = np.floor(np.log(a * qs) / rate).astype(np.int64)
    probs = _cdf_values(a, int(idx.max()) + 1)[idx] ** qs
    lower, upper = sandwich_bounds(a, 0.0)
    return float(np.abs(probs - lower).min()), float(np.abs(probs - upper).min())


def variance_band_excursion() -> float:
    """Worst excursion of the q = 1e4 series variance outside its band; < 0 is inside."""
    worst = -math.inf
    for a in TABLE_A:
        value = variance_tests(BankSpec(a, 10_000)).value
        bounds = variance_bounds(a)
        worst = max(worst, bounds.var_lo - value, value - bounds.var_hi)
    return worst


def local_approx_errors() -> list[float]:
    """Max |exact pmf - local Gumbel increment| over lags -40..80, a = 10, q = 1e2, 1e4, 1e6."""
    a = 10
    errors = []
    for q in (10 ** 2, 10 ** 4, 10 ** 6):
        spec = BankSpec(a, q)
        ceil = centring(a, q).centre_ceil
        worst = 0.0
        for n in range(max(1, ceil - 40), ceil + 81):
            exact = test_count_cdf(spec, n).p - test_count_cdf(spec, n - 1).p
            worst = max(worst, abs(exact - local_pmf_approx(a, q, n - ceil)))
        errors.append(worst)
    return errors


def simulation_concordance(seed: int, workers: tuple[int, int]) -> tuple[float, bool]:
    """Worst |seeded mean - series mean| in standard errors over the four
    specs at 1e5 replications run with ``workers[0]`` workers, and whether
    the (10, 10) record is byte-identical when rerun with ``workers[1]`` workers."""
    worst_sigma = 0.0
    for a, q in _MC_CONFIGS:
        spec = BankSpec(a, q)
        result = run_experiment(SimulationConfig(spec, _MC_REPS, seed, workers[0]))
        exact = expected_tests(spec).value
        worst_sigma = max(worst_sigma, abs(result.mean - exact) / result.std_error_mean)
        if (a, q) == (10, 10):
            again = run_experiment(SimulationConfig(spec, _MC_REPS, seed, workers[1]))
            records = [json.dumps(asdict(r), sort_keys=True) for r in (result, again)]
            identical = records[0] == records[1]
    return worst_sigma, identical


def run_checks(level: str = "quick") -> list[CheckResult]:
    """Run the named check battery; ``level`` is ``quick`` or ``full``."""
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
    worst = max(abs(expected_single_bank(a) - float(v)) for a, v in SINGLE_EXACT.items())
    notes = [
        f"printed reference {printed} for a={a} is {deviation:.4f} "
        "from its own defining sum; formula value used"
        for a, printed in SINGLE_PRINTED.items()
        if (deviation := abs(expected_single_bank(a) - printed)) > 0.005
    ]
    results = [CheckResult(
        "single_bank_mean", "a*H_a at a in (5, 10, 15, 20)", "1e-09 abs vs frozen exact values",
        f"max deviation {worst:.2e}", worst <= 1e-9, "; ".join(notes),
    )]
    # one series pass per bank size serves the three table checks: fig_high
    # holds every q of the mean table and of the centred band
    fig_high = build_table("fig_high").rows
    worst, strings_ok = mean_table_deviation(fig_high)
    results.append(CheckResult(
        "mean_table", "21 printed mean coverage times", "0.05 abs and exact 1 d.p. match",
        f"max deviation {worst:.4f}, rounded strings {'match' if strings_ok else 'differ'}",
        worst <= 0.05 and strings_ok,
    ))
    worst = centred_table_deviation()
    a, q = CENTRED_ERRATUM_CELL
    results.append(CheckResult(
        "centred_table", "21 printed centred predictions", "0.05 abs",
        f"max deviation {worst:.4f}", worst <= 0.05,
        f"cell (a={a}, q={q}) printed {CENTRED_PRINTED[a][TABLE_Q.index(q)]} disagrees "
        f"with its defining formula ({centred_mean_prediction(a, q):.3f}); "
        "checked against the formula value",
    ))
    lo, hi = centred_diff_band(fig_high)
    results.append(CheckResult(
        "centred_diff_band", "mean minus prediction for q >= 20", "within [0.45, 0.65]",
        f"range [{lo:.4f}, {hi:.4f}]", lo >= 0.45 and hi <= 0.65,
    ))
    worst = sd_table_deviation()
    results.append(CheckResult(
        "sd_bound_table", "12 printed standard deviation bounds", "0.002 abs",
        f"max deviation {worst:.5f}", worst <= 0.002,
    ))
    value = asymptotics._E1_ONE  # the E1(1) that the variance band adds in
    deviation = abs(value - E1_PRINTED)
    results.append(CheckResult(
        "exp_integral_value", f"E1(1) = {E1_PRINTED}", "1e-04 abs",
        f"E1(1) = {value:.7f}, deviation {deviation:.2e}", deviation <= 1e-4,
    ))
    worst = oracle_deviation()
    results.append(CheckResult(
        "oracle_agreement", "closed form vs surjection-count oracle, a <= 8, y <= 60",
        "1e-12 abs", f"max deviation {worst:.2e}", worst <= 1e-12,
    ))
    worst = multisum_deviation()
    results.append(CheckResult(
        "multisum_agreement", "alternating multi-sum vs series mean on the small grid",
        "1e-09 abs", f"max deviation {worst:.2e}", worst <= 1e-9,
    ))
    worst, rounding_ok = figure_deviation(fig_high)
    results.append(CheckResult(
        "figure_data", f"{len(_FIGURE_CELLS)} printed plot coordinates",
        "0.05 abs and numeric 1 d.p. match",
        f"max deviation {worst:.5f}, rounded values {'match' if rounding_ok else 'differ'}",
        worst <= 0.05 and rounding_ok,
    ))
    if level == "quick":
        return results
    worst = sandwich_excursion((10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6))
    results.append(CheckResult(
        "sandwich_envelope",
        "exact cdf against the Gumbel envelope, a in (5, 10, 20), q up to 1e6",
        "0.02 one-sided slack",
        f"worst excursion {worst:.2e} (negative means strictly inside)", worst <= 0.02,
    ))
    lo_gap, hi_gap = envelope_witness()
    results.append(CheckResult(
        "envelope_witness", "both envelope ends approached at x=0, a=10, q up to 1e6",
        "0.01", f"closest approach {lo_gap:.2e} (lower), {hi_gap:.2e} (upper)",
        lo_gap <= 0.01 and hi_gap <= 0.01,
    ))
    worst = variance_band_excursion()
    results.append(CheckResult(
        "variance_band", "series variance at q=1e4 inside the large-q band",
        "band widened by 0.5", f"worst excursion {worst:.4f}", worst <= 0.5,
    ))
    errors = local_approx_errors()
    results.append(CheckResult(
        "local_approx_decay", "max local approximation error at q = 1e2, 1e4, 1e6",
        "non-increasing with 10% slack", "errors " + ", ".join(f"{e:.2e}" for e in errors),
        all(errors[i + 1] <= 1.1 * errors[i] for i in range(len(errors) - 1)),
    ))
    worst_sigma, identical = simulation_concordance(1729, workers=(1, 2))
    results.append(CheckResult(
        "simulation_concordance",
        f"seeded means vs series means, {len(_MC_CONFIGS)} specs, {_MC_REPS} reps",
        "3 standard errors", f"worst deviation {worst_sigma:.2f} standard errors",
        worst_sigma <= 3.0,
    ))
    results.append(CheckResult(
        "simulation_determinism", "identical histogram across worker counts (a=10, q=10)",
        "exact", "histograms identical" if identical else "histograms differ", identical,
    ))
    return results


def format_report(results: list[CheckResult]) -> str:
    """Human-readable one-line-per-check report with a final summary."""
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{status} {r.name:<{width}}  {r.observed} (target: {r.target}; tol: {r.tolerance})"
        )
        if r.note:
            lines.append(f"     {'':<{width}}  note: {r.note}")
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines)
