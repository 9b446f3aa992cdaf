"""What the benchmark measures: workloads, metrics, and the reference digests.

This module is the single source for the names printed by ``run.py --list``
and for the lists in the repository's ``BENCHMARK.json``; ``run.py`` refuses
to run when the two disagree.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    # End-to-end metrics: the share of the parent's median by which the
    # metric may get worse before a change counts as a regression.
    bound: float | None = None
    # Per-layer metrics: the end-to-end metric and workload they should move.
    moves: str = ""


# Each why gives the share of an untraced 30 s run that each job took on a
# 2-core x86-64 host (``share.*``, median over seeds).
WORKLOADS = (
    Workload(
        "exact_queries",
        "256 stratified (a, q), a 2..64, q 1..1e6: coupon L0/L1 cost at large a and q; "
        "a = 41..64 crash. Time: exact 56%, report+validate+MC companions 27%, "
        "calibration 17%",
    ),
    Workload(
        "monte_carlo",
        "4 concordance specs, workers 1 and 2, CLI simulate: simulator cost. "
        "Time: simulator 72%, report+validate companions 25%, 4 exact requests 1%, "
        "calibration 3%",
    ),
    Workload(
        "report_build",
        "5 tables, 2 SVGs, CLI, validate quick, 21 en_q requests: repeated small-a "
        "series, bytes checked. Time: report 46%, validate 33%, exact 9%, "
        "MC companion 5%, calibration 8%",
    ),
)

END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("ok_frac", "ratio", "higher", 0.02),
    Metric("exact_p50_ms", "ms", "lower", 0.2),
    Metric("mc_reps_per_s", "1/s", "higher", 0.25),
    Metric("mc_pool_reps_per_s", "1/s", "higher", 0.25),
    Metric("report_s", "s", "lower", 0.25),
    Metric("validate_quick_s", "s", "lower", 0.25),
)

_EXACT = "exact_p50_ms on exact_queries; report_s, validate_quick_s on report_build"
_FAIL = "ok_frac on exact_queries"
_MC = "mc_reps_per_s, mc_pool_reps_per_s on monte_carlo"
_REPORT = "report_s, validate_quick_s on report_build"
_TABLE_NAMES = ("en_q", "centred", "sd_bounds", "fig_low", "fig_high")

PER_LAYER = (
    Metric("coupon.series_calls", "count", "lower", moves=_EXACT),
    Metric("coupon.series_terms", "count", "lower", moves=_EXACT),
    Metric("coupon.series_us_per_term", "us", "lower", moves=_EXACT),
    Metric("coupon.series_ok_p95_ms", "ms", "lower", moves=_EXACT),
    Metric("coupon.curve_points", "count", "lower", moves=_EXACT),
    Metric("coupon.curve_us_per_point", "us", "lower", moves=_EXACT),
    Metric("coupon.pmf_calls", "count", "lower", moves=_EXACT),
    Metric("coupon.pmf_us", "us", "lower", moves=_EXACT),
    Metric("coupon.crash_count", "count", "lower", moves=_FAIL),
    Metric("coupon.crash_count.ValueError", "count", "lower", moves=_FAIL),
    Metric("coupon.crash_count.other", "count", "lower", moves=_FAIL),
    Metric("coupon.cert_miss_count", "count", "lower", moves=_FAIL),
    Metric("coupon.answered_ratio", "ratio", "higher", moves=_FAIL),
    Metric("coupon.self_share", "ratio", "lower", moves=_EXACT),
    Metric("fail_frac", "ratio", "lower", moves=_FAIL),
    Metric("exact.ok_p95_ms", "ms", "lower", moves="exact_p50_ms on exact_queries"),
    Metric("asymptotics.calls", "count", "lower", moves="exact_p50_ms on exact_queries"),
    Metric("asymptotics.us_per_call", "us", "lower", moves="exact_p50_ms on exact_queries"),
    Metric("asymptotics.self_share", "ratio", "lower", moves="exact_p50_ms on exact_queries"),
    Metric("simulate.reps", "count", "higher", moves=_MC),
    Metric("simulate.us_per_rep", "us", "lower", moves="mc_reps_per_s on monte_carlo"),
    Metric("simulate.pool_us_per_rep", "us", "lower", moves="mc_pool_reps_per_s on monte_carlo"),
    Metric("simulate.concordance_z_max", "sigma", "lower", moves="none (correctness guard)"),
    Metric("simulate.self_share", "ratio", "lower", moves=_MC),
    *(
        Metric(f"tables.build_ms.{name}", "ms", "lower", moves=_REPORT)
        for name in _TABLE_NAMES
    ),
    Metric("tables.svg_ms", "ms", "lower", moves="report_s on report_build"),
    Metric("tables.self_share", "ratio", "lower", moves="report_s on report_build"),
    Metric("validate.quick_s", "s", "lower", moves="validate_quick_s on report_build"),
    Metric("validate.checks_passed", "count", "higher", moves="validate_quick_s on report_build"),
    Metric("validate.self_share", "ratio", "lower", moves="validate_quick_s on report_build"),
    Metric("cli.expect_ms", "ms", "lower", moves="report_s on report_build"),
    Metric("cli.table_ms", "ms", "lower", moves="report_s on report_build"),
    Metric("cli.figure_ms", "ms", "lower", moves="report_s on report_build"),
    Metric("cli.simulate_ms", "ms", "lower", moves="mc_reps_per_s on monte_carlo"),
    Metric("cli.self_share", "ratio", "lower", moves="report_s on report_build"),
    Metric("bench.self_share", "ratio", "lower", moves="none (benchmark's own work)"),
    Metric("trace.spans", "count", "lower", moves="none (trace size)"),
    *(
        Metric(f"trace.overhead.{name}", "ratio", "lower", moves="none (tracing cost)")
        for name in ("exact_p50_ms", "mc_reps_per_s", "mc_pool_reps_per_s",
                     "report_s", "validate_quick_s")
    ),
    *(
        Metric(f"share.{job}", "ratio", "lower", moves="none (where the run's time goes)")
        for job in ("exact", "monte_carlo", "report", "validate", "calibration", "other")
    ),
    Metric("host.after_before", "ratio", "lower",
           moves="none (gate: work outliving library calls)"),
    Metric("host.other_cpu_share", "ratio", "lower",
           moves="none (gate: work outliving library calls)"),
)

END_TO_END_BY_NAME = {m.name: m for m in END_TO_END}

# sha256 of every table CSV and figure SVG, recorded from the seed commit
# 319fbdc45c23be259857eb559deb87958c1bd4fe.  Outputs must stay byte-identical.
CSV_SHA256 = {
    "en_q": "5f1e11b59c6361909d572ccd96c5cfd96c238bb3113ea4e9694e6e29b3c0e26c",
    "centred": "410460dbcbd36f72c09ff0cbba6d774d3eb9f1e60b221469a41e3ee39a92872a",
    "sd_bounds": "dd65105fa4df2b3c0936af5bcbb5fe5602a857741121ef9083b49bd3c8b0a9f1",
    "fig_low": "7971eece36b42215159b4fddaae60b58d97797bbe695b8f129d45144da849391",
    "fig_high": "c4a61b279672d36364ade12a1290062abd85fdc063edd238b4c1e5c6255d6979",
}
SVG_SHA256 = {
    "fig_low": "534c43dd35bbe6c60e5bf3ead9c249e7f4271cee269037bb65b9eec2ae1a542d",
    "fig_high": "404dc078025ad3b21e10d3fe94cd5de781fa4588d4e38490e6516b59e4ca91cc",
}
