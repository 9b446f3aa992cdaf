"""Acceptance battery: every stated criterion, one test (and one line) each.

Run with -v to get the one-line pass/fail verdict per criterion; each test
also prints its observed numbers.  The printed tables and the sweeps live
once, in ``bankcover.validate``; each test keeps its criterion's tolerance,
time gate and verdict line, and the last test pins the tables.

Criterion 1 carries a printed erratum.  Its reference 71.96 for a = 20 is
a double rounding of the defining sum 20 * H_20 = 71.954793... (to 71.955,
then half up to 71.96); rounded once it is 71.95.  The test derives every
cell from the exact rational, judges the library against 71.95 at the stated
tolerance 0.005, and asserts the print as that erratum, so it stays visible.
Criterion 3 keeps its (20, 1) erratum the same way.
"""

from __future__ import annotations

import hashlib
import time
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction

import pytest

from bankcover import asymptotics, validate
from bankcover.asymptotics import centred_mean_prediction
from bankcover.coupon import expected_single_bank
from bankcover.tables import TABLE_Q


def _verdict(number: int, passed: bool, detail: str) -> None:
    print(f"acceptance {number:02d}: {'PASS' if passed else 'FAIL'} | {detail}")


def _round_half_up(value: Fraction, places: int) -> Decimal:
    """``value`` rounded half up to ``places`` decimals, as a print would be."""
    with localcontext() as ctx:
        ctx.prec = 50  # exact enough: no quotient here lies near a tie
        return (Decimal(value.numerator) / Decimal(value.denominator)).quantize(
            Decimal(1).scaleb(-places), rounding=ROUND_HALF_UP
        )


def test_acceptance_01_single_bank_means():
    """Single-bank means a * H_a within 0.005 of their 2 d.p. cells.

    Each cell is the exact rational a * H_a rounded half up once to two
    decimals.  The printed table agrees except at a = 20, whose print 71.96
    double-rounds 71.954793... (to 71.955, then to 71.96); the cell there is
    71.95.  The print is kept and asserted as that erratum, so it stays
    visible and the test fails if the table or the formula changes.
    """
    printed, exact = validate.SINGLE_PRINTED, validate.SINGLE_EXACT
    for a, value in exact.items():
        assert expected_single_bank(a) == pytest.approx(float(value), abs=1e-12), (
            "library value must equal the defining sum before the reference "
            "cells are judged"
        )
    reference = {a: _round_half_up(value, 2) for a, value in exact.items()}
    for a, value in exact.items():
        double_rounded = _round_half_up(Fraction(_round_half_up(value, 3)), 2)
        if a == 20:
            assert Decimal(str(printed[a])) == double_rounded != reference[a], (
                f"print {printed[a]} for a={a} is no longer the double rounding "
                f"of {float(value):.6f}; revisit the erratum"
            )
            assert abs(Fraction(str(printed[a])) - value) > Fraction(5, 1000), (
                "reference erratum vanished; restore the direct comparison"
            )
        else:
            assert Decimal(str(printed[a])) == reference[a] == double_rounded, (
                f"print {printed[a]} for a={a} is not a * H_a at two decimals"
            )
    deviations = {a: abs(expected_single_bank(a) - float(ref)) for a, ref in reference.items()}
    worst = max(deviations.values())
    _verdict(1, worst <= 0.005, f"max deviation {worst:.5f} (tol 0.005) per cell: "
             + ", ".join(f"a={a}: {d:.5f}" for a, d in deviations.items())
             + f"; a=20 judged against {reference[20]}, print {printed[20]} "
             "asserted as a double-rounding erratum")
    assert worst <= 0.005


def test_acceptance_02_mean_table():
    """All 21 reference mean cells within 0.05 via the survival series; < 1 s."""
    start = time.perf_counter()
    worst, _ = validate.mean_table_deviation()
    elapsed = time.perf_counter() - start
    ok = worst <= 0.05 and elapsed < 1.0
    _verdict(2, ok, f"max deviation {worst:.4f} (tol 0.05), {elapsed:.2f} s (< 1 s)")
    assert worst <= 0.05
    assert elapsed < 1.0


def test_acceptance_03_centred_predictions():
    """Centred predictions on the 21-cell grid within 0.05, plus the
    mean-minus-prediction band [0.45, 0.65] for q >= 20.

    The (a=20, q=1) reference print (68.7) contradicts the defining formula
    log(a*q)/rate + gamma/rate = 69.657, while the 20 other prints match the
    formula to well under 0.05; that lone print is a digit slip.  This test
    checks the formula value (rounded reference 69.7) for that cell and
    separately asserts the print deviation is real, so the discrepancy stays
    visible instead of being silently reconciled.
    """
    a, q = validate.CENTRED_ERRATUM_CELL
    predicted = centred_mean_prediction(a, q)
    printed = validate.CENTRED_PRINTED[a][TABLE_Q.index(q)]
    assert abs(predicted - printed) > 0.9, (
        "reference erratum vanished; restore the direct comparison"
    )
    worst = validate.centred_table_deviation()
    band_lo, band_hi = validate.centred_diff_band()
    ok = worst <= 0.05 and band_lo >= 0.45 and band_hi <= 0.65
    _verdict(3, ok, f"max cell deviation {worst:.4f} (tol 0.05); "
             f"band [{band_lo:.4f}, {band_hi:.4f}] within [0.45, 0.65]; "
             "(20,1) checked against its formula, print erratum asserted")
    assert worst <= 0.05
    assert band_lo >= 0.45 and band_hi <= 0.65


def test_acceptance_04_sd_bounds():
    """All 12 sd-bound cells within 0.002, and the band's E1(1) = 0.2194 within 1e-4."""
    worst = validate.sd_table_deviation()
    e1_dev = abs(asymptotics._E1_ONE - validate.E1_PRINTED)
    ok = worst <= 0.002 and e1_dev <= 1e-4
    _verdict(4, ok, f"max sd deviation {worst:.5f} (tol 0.002); "
             f"E1(1) deviation {e1_dev:.2e} (tol 1e-4)")
    assert worst <= 0.002
    assert e1_dev <= 1e-4


def test_acceptance_05_oracle_equivalence():
    """Closed form vs exact surjection-count oracle, a in 1..8, y in a..60,
    within 1e-12; < 5 s."""
    start = time.perf_counter()
    worst = validate.oracle_deviation()
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    _verdict(5, ok, f"max deviation {worst:.2e} (tol 1e-12), {elapsed:.2f} s (< 5 s)")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_acceptance_06_multisum_agreement():
    """Alternating multi-sum agrees with the series mean within 1e-9 on its
    full admissible range: a <= 6 at q=1; a <= 5 for q in 2..3; a <= 4 at q=4."""
    worst = validate.multisum_deviation()
    ok = worst <= 1e-9
    _verdict(6, ok, f"max deviation {worst:.2e} over {len(validate.MULTISUM_CELLS)} cells "
             "(tol 1e-9)")
    assert worst <= 1e-9


def test_acceptance_07_monte_carlo_concordance():
    """Seeded simulation at (10,1), (10,10), (5,50), (20,20) with 1e5 reps and
    4 workers: mean within 3 standard errors of the series mean, and the
    (10,10) output record byte-identical when rerun with 1 worker."""
    worst_sigma, identical = validate.simulation_concordance(20_260_819, workers=(4, 1))
    ok = worst_sigma <= 3.0 and identical
    _verdict(7, ok, f"worst deviation {worst_sigma:.2f} standard errors (tol 3); "
             f"worker-count bytes {'identical' if identical else 'DIFFER'}")
    assert worst_sigma <= 3.0
    assert identical


def test_acceptance_08_sandwich_and_witness():
    """Exact cdf within the Gumbel envelope (slack 0.02) at q = 1e6 for
    a in (5, 10, 20) on the x-grid of step 0.25 over [-3, 10]; and along
    q = 2..1e6 at a = 10, x = 0 the exact probability approaches both
    envelope ends within 0.01.  Total < 30 s."""
    start = time.perf_counter()
    worst = validate.sandwich_excursion((10 ** 6,))
    lo_gap, hi_gap = validate.envelope_witness()
    elapsed = time.perf_counter() - start
    ok = worst <= 0.02 and lo_gap <= 0.01 and hi_gap <= 0.01 and elapsed < 30.0
    _verdict(8, ok, f"worst envelope excursion {worst:.2e} (tol 0.02); witness gaps "
             f"{lo_gap:.2e}/{hi_gap:.2e} (tol 0.01); {elapsed:.1f} s (< 30 s)")
    assert worst <= 0.02
    assert lo_gap <= 0.01 and hi_gap <= 0.01
    assert elapsed < 30.0


def test_acceptance_09_variance_band():
    """Series variance at q = 1e4 for a in (5, 10, 20) inside the large-q
    band widened by 0.5."""
    worst = validate.variance_band_excursion()
    ok = worst <= 0.5
    _verdict(9, ok, f"worst band excursion {worst:.3f} (tol 0.5; negative means inside)")
    assert worst <= 0.5


def test_acceptance_10_local_limit_decay():
    """Max-over-n error of the local Gumbel increment against the exact pmf
    decreases across q = 1e2, 1e4, 1e6 at a = 10, with 10% slack."""
    errors = validate.local_approx_errors()
    decreasing = all(errors[i + 1] <= 1.1 * errors[i] for i in range(len(errors) - 1))
    _verdict(10, decreasing, "errors " + " -> ".join(f"{e:.2e}" for e in errors)
             + " (each step within 1.1x of the previous)")
    assert decreasing


def test_reference_tables_pinned():
    """The printed tables are read from the library; an edit there must fail here."""
    tables = tuple(getattr(validate, name) for name in (
        "SINGLE_PRINTED", "MEAN_TABLE_PRINTED", "CENTRED_PRINTED", "CENTRED_ERRATUM_CELL",
        "CENTRED_ERRATUM_VALUE", "SD_PRINTED", "E1_PRINTED", "FIG_LOW_PRINTED",
        "FIG_HIGH_EXTRA_PRINTED",
    ))
    digest = hashlib.sha256(repr(tables).encode()).hexdigest()
    assert digest == "d91928e84badcc77043fbb5788101bc1234c40e7936a231baf29caae8c1bcdaa"
