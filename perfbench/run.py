"""Layered benchmark for bankcover.

Run from the repository root:

    python3 perfbench/run.py --workload exact_queries --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --list

Each run runs subject rounds of the workload's own jobs (see ``jobs.py``)
until ``--seconds`` have passed, with at least ``MIN_ROUNDS`` of them and
one full pass over the requests, and ``COMPANION_ROUNDS`` companion rounds
of the other jobs spread over that time.
Every timing in the rounds is scaled by the host speed measured next to it
(``jobs.HostSpeed``) and summarised over rounds by an interquartile mean;
the unscaled figures are printed and kept as well.  After the timed rounds
the gates in ``checks.py`` judge every output, and set-up is timed in fresh
interpreters.  The last line of standard output is the JSON result; with
``--trace 0`` it carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced repeat of the same rounds, plus the tracing
overhead against an untraced repeat in the same process.  Everything the run
writes goes under ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import catalog
import checks
import jobs
from reference import References
from tracing import NoTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_ROUNDS = 3
# Companion rounds per phase: few, so that most of a workload's time goes to
# its own jobs, but three, because a long unit such as a validate call is
# timed to within about 15% only, and the companions' medians need several.
COMPANION_ROUNDS = 3
MAX_ROUNDS = 40
SETUP_SAMPLES = 4
_SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import bankcover, bankcover.cli"


class BenchmarkError(Exception):
    """The benchmark itself cannot produce a trustworthy result."""


def list_catalog() -> str:
    lines = ["workloads:"]
    for w in catalog.WORKLOADS:
        lines.append(f"  {w.name}: {w.why}")
    lines.append("end-to-end metrics (name, unit, better, bound):")
    for m in catalog.END_TO_END:
        lines.append(f"  {m.name} [{m.unit}] {m.better} bound {m.bound}")
    lines.append("per-layer metrics (name, unit, better -> what it should move):")
    for m in catalog.PER_LAYER:
        lines.append(f"  {m.name} [{m.unit}] {m.better} -> {m.moves}")
    return "\n".join(lines)


def check_benchmark_json() -> None:
    """Refuse to run when BENCHMARK.json and the catalog disagree."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text(encoding="utf-8"))
    expected = {
        "workloads": [w.name for w in catalog.WORKLOADS],
        "end_to_end": [(m.name, m.unit, m.better, m.bound) for m in catalog.END_TO_END],
        "per_layer": [(m.name, m.unit, m.better) for m in catalog.PER_LAYER],
    }
    found = {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
    }
    for key in expected:
        if expected[key] != found[key]:
            raise BenchmarkError(f"BENCHMARK.json {key} disagrees with perfbench/catalog.py")


def fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.glob("bankcover/*.py"), *Path(__file__).parent.glob("*.py")]):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(bc, load_at_start) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "generator_id": bc.GENERATOR_ID,
        "git_commit": commit,
        "source_sha256": fingerprint(),
        "loadavg_at_start": list(load_at_start),
    }


def measure_setup() -> float:
    """Median seconds from a fresh interpreter to bankcover imported.

    Not scaled by the calibration loops: most of it is loading and
    initialising compiled extensions, which the shared host slows by a
    different factor than Python code."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC)], cwd=ROOT, check=True,
                       timeout=120, stdout=subprocess.DEVNULL)
        if i:  # the first interpreter also fills the byte-code cache
            samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def warm_up(bc, bc_cli) -> None:
    """Finish lazy imports and first-call set-up before anything is timed."""
    bc.expected_tests(bc.BankSpec(5, 2))
    bc.variance_bounds(5)
    bc.build_table("centred")
    for workers in (1, 2):
        bc.run_experiment(bc.SimulationConfig(bc.BankSpec(3, 2), 20, 0, workers))
    with contextlib.redirect_stdout(io.StringIO()):
        bc_cli.main(["expect", "--a", "3", "--q", "2"])


@dataclass
class Phase:
    rounds: list
    seconds: float

    def subject(self) -> list:
        return [r for r in self.rounds if not r.companion]

    def having(self, part: str) -> list:
        """Rounds that ran the job whose result is in attribute ``part``."""
        return [r for r in self.rounds if getattr(r, part)]


def run_phase(bc, bc_cli, tracer, plan, seconds: float, out_dir: Path) -> Phase:
    """Subject rounds until ``seconds`` have passed, at least MIN_ROUNDS of
    them and one full pass over the requests, with a companion round at the
    start of each of the COMPANION_ROUNDS equal parts of the phase."""
    least = max(MIN_ROUNDS, plan.slices)
    t0 = time.perf_counter()
    rounds, subject = [], 0

    def add(companion: bool) -> None:
        before = len(tracer.spans) if tracer.enabled else 0
        rnd = jobs.run_round(bc, bc_cli, tracer, plan, subject, out_dir, companion)
        rnd.spans = len(tracer.spans) - before if tracer.enabled else 0
        rounds.append(rnd)

    for part in range(1, COMPANION_ROUNDS + 1):
        add(companion=True)
        deadline = t0 + seconds * part / COMPANION_ROUNDS
        last = part == COMPANION_ROUNDS
        while subject < MAX_ROUNDS and (time.perf_counter() < deadline
                                        or (last and subject < least)):
            add(companion=False)
            subject += 1
    return Phase(rounds, time.perf_counter() - t0)


def first_pass(phase: Phase, plan) -> list:
    """The requests of subject rounds 0 .. slices-1, in plan order; they keep
    answers."""
    merged = {}
    for rnd in phase.subject()[:plan.slices]:
        merged.update(rnd.requests)
    return [merged[i] for i in range(len(plan.requests))]


def pass_counts(phase: Phase, plan) -> Counter:
    """Counts of one pass over the requests and one companion round."""
    total: Counter = Counter()
    for rnd in phase.subject()[:plan.slices] + [r for r in phase.rounds if r.companion][:1]:
        total.update(rnd.counts)
    return total


def job_shares(phase: Phase) -> dict:
    """Share of the phase's wall time in each job's units and in the host
    calibration boundaries; ``share.other`` is the rest (rounds' own
    bookkeeping and the gaps between units)."""
    busy = Counter()
    for rnd in phase.rounds:
        busy["exact"] += sum(r.seconds for r in rnd.requests.values())
        if rnd.mc:
            busy["monte_carlo"] += sum(e.seconds for e in rnd.mc.experiments) + rnd.mc.cli_seconds
        if rnd.report:
            busy["report"] += sum(s for _start, s in rnd.report.units.values())
        if rnd.validation:
            busy["validate"] += rnd.validation.seconds
        busy["calibration"] += rnd.host.watched_s
    shares = {f"share.{job}": busy[job] / phase.seconds
              for job in ("exact", "monte_carlo", "report", "validate", "calibration")}
    shares["share.other"] = 1.0 - sum(shares.values())
    return shares


def _p(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of the values: a quarter of them, rounded to
    the nearest whole number with halves down, is dropped from each end, so
    three values give their median."""
    ordered = sorted(values)
    k = (len(ordered) + 1) // 4
    return statistics.fmean(ordered[k:len(ordered) - k])


def _centres(samples: dict) -> dict:
    return {key: interquartile_mean(values) for key, values in samples.items()}


def end_to_end(phase: Phase, failed_requests: set[int], scaled: bool = True) -> dict:
    """Every unit of work (request, experiment, artifact) is timed in several
    rounds spread over the run; the interquartile mean of each unit's times
    enters the metric.

    With ``scaled``, each time is first divided by the host slowness measured
    by the calibration loops on both sides of it (see ``jobs.HostSpeed``; the
    Monte Carlo experiments use the numpy loop, everything else the Python
    loop), which takes out the speed swings of a shared host.
    """
    request_s, experiment_s, unit_s = defaultdict(list), defaultdict(list), defaultdict(list)
    validate_s = []
    for rnd in phase.rounds:
        def norm(start, seconds, kind="python"):
            return seconds / rnd.host.slowness(start, kind) if scaled else seconds

        for i, req in rnd.requests.items():
            request_s[i].append(norm(req.start, req.seconds))
        if rnd.mc:
            for exp in rnd.mc.experiments:
                experiment_s[exp.a, exp.q, exp.workers].append(
                    norm(exp.start, exp.seconds, "numpy"))
        if rnd.report:
            for unit, (start, seconds) in rnd.report.units.items():
                unit_s[unit].append(norm(start, seconds))
        if rnd.validation:
            validate_s.append(norm(rnd.validation.start, rnd.validation.seconds))
    per_request = _centres(request_s)
    ranked = [float("inf") if i in failed_requests else s for i, s in per_request.items()]
    per_experiment = _centres(experiment_s)
    reps = {(e.a, e.q, e.workers): e.reps for e in phase.having("mc")[0].mc.experiments}

    def rate(workers: int) -> float:
        keys = [k for k in per_experiment if k[2] == workers]
        return sum(reps[k] for k in keys) / sum(per_experiment[k] for k in keys)

    return {
        # capped so that a run where most requests fail still prints a number
        "exact_p50_ms": min(statistics.median(ranked) * 1e3, 1e6),
        "mc_reps_per_s": rate(1),
        "mc_pool_reps_per_s": rate(2),
        "report_s": sum(_centres(unit_s).values()),
        "validate_quick_s": interquartile_mean(validate_s),
        "_answered_ms": [s * 1e3 for i, s in per_request.items() if i not in failed_requests],
    }


def per_layer(tracer: Tracer, phase: Phase, verdict, plan, e2e_plain: dict,
              e2e_traced: dict) -> dict:
    """Coupon and asymptotics counts are per pass over the requests, other
    counts per run of their job; times come from the spans."""
    counts = pass_counts(phase, plan)
    totals: Counter = Counter()
    for rnd in phase.rounds:
        totals.update(rnd.counts)

    def mean(values, scale=1.0):
        return statistics.fmean(values) * scale if values else 0.0

    series_ok = tracer.durations("coupon.expected_tests", True) + tracer.durations(
        "coupon.variance_tests", True)
    coupon_calls = counts["coupon.series_calls"] + counts["coupon.pmf_calls"] + counts["coupon.curve_points"]
    coupon_crashes = {kind: c for (layer, kind), c in verdict.crashes.items() if layer == "coupon"}
    mc_rounds = len(phase.having("mc"))
    reps_per_round = len(plan.mc_specs) * plan.mc_reps
    self_time = tracer.self_time_by_layer()
    answered = e2e_traced["_answered_ms"]
    metrics = {
        "coupon.series_calls": counts["coupon.series_calls"],
        "coupon.series_terms": counts["coupon.series_terms"],
        "coupon.series_us_per_term": sum(series_ok) / totals["coupon.series_terms"] * 1e6
        if totals["coupon.series_terms"] else 0.0,
        "coupon.series_ok_p95_ms": _p(series_ok, 0.95) * 1e3 if series_ok else 0.0,
        "coupon.curve_points": counts["coupon.curve_points"],
        "coupon.curve_us_per_point": mean(tracer.durations("coupon.single_bank_survival"), 1e6),
        "coupon.pmf_calls": counts["coupon.pmf_calls"],
        "coupon.pmf_us": mean(tracer.durations("coupon.test_count_pmf"), 1e6),
        "coupon.crash_count": sum(coupon_crashes.values()),
        "coupon.crash_count.ValueError": coupon_crashes.get("ValueError", 0),
        "coupon.crash_count.other": sum(c for k, c in coupon_crashes.items() if k != "ValueError"),
        "coupon.cert_miss_count": verdict.cert_misses,
        "coupon.answered_ratio": (coupon_calls - counts["coupon.crash_count"]) / coupon_calls,
        "fail_frac": verdict.failed / verdict.ops,
        "exact.ok_p95_ms": _p(answered, 0.95) if answered else 0.0,
        "asymptotics.calls": counts["asymptotics.calls"],
        "asymptotics.us_per_call": mean(tracer.durations_prefix("asymptotics."), 1e6),
        "simulate.reps": counts["simulate.reps"],
        "simulate.us_per_rep": sum(tracer.durations("simulate.run_experiment.w1"))
        / (reps_per_round * mc_rounds) * 1e6,
        "simulate.pool_us_per_rep": sum(tracer.durations("simulate.run_experiment.w2"))
        / (reps_per_round * mc_rounds) * 1e6,
        "simulate.concordance_z_max": verdict.z_max,
        "tables.svg_ms": mean(tracer.durations("tables.render_figure_svg"), 1e3),
        "validate.quick_s": mean(tracer.durations("validate.run_checks")),
        "validate.checks_passed": counts["validate.checks_passed"],
        "cli.expect_ms": mean(tracer.durations("cli.expect"), 1e3),
        "cli.table_ms": mean(tracer.durations("cli.table"), 1e3),
        "cli.figure_ms": mean(tracer.durations("cli.figure"), 1e3),
        "cli.simulate_ms": mean(tracer.durations("cli.simulate"), 1e3),
        "trace.spans": sum(r.spans for r in phase.subject()[:plan.slices])
        + sum(r.spans for r in phase.rounds if r.companion),
    }
    for name in ("en_q", "centred", "sd_bounds", "fig_low", "fig_high"):
        metrics[f"tables.build_ms.{name}"] = mean(tracer.durations(f"tables.build_table.{name}"), 1e3)
    for layer in ("coupon", "asymptotics", "simulate", "tables", "validate", "cli", "bench"):
        metrics[f"{layer}.self_share"] = self_time.get(layer, 0.0) / phase.seconds
    metrics.update(job_shares(phase))
    linger = jobs.lingering([r.host for r in phase.rounds])
    metrics["host.after_before"] = max(
        [v for k, v in linger.items() if k.startswith("after_before.")], default=1.0)
    metrics["host.other_cpu_share"] = linger["other_cpu_share"]
    for name, m in catalog.END_TO_END_BY_NAME.items():
        if name in e2e_plain:
            # a positive overhead is always a cost: time ratios for metrics
            # where lower is better, rate ratios inverted for the others
            ratio = (e2e_traced[name] / e2e_plain[name] if m.better == "lower"
                     else e2e_plain[name] / e2e_traced[name])
            metrics[f"trace.overhead.{name}"] = ratio - 1.0
    return metrics


def check_counts_repeat(phases, plan, record: dict, path: Path) -> None:
    """Exact counts must repeat in every round over the same slice of
    requests, and in every run of the same seed."""
    expected = {}
    for phase in phases:
        for index, rnd in enumerate(phase.rounds):
            expected.setdefault(rnd.key, rnd.counts)
            if rnd.counts != expected[rnd.key]:
                diff = {k for k in set(expected[rnd.key]) | set(rnd.counts)
                        if expected[rnd.key][k] != rnd.counts[k]}
                raise BenchmarkError(f"exact counts differ in round {index}: {sorted(diff)}")
    if path.is_file():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        if earlier != record:
            diff = sorted(k for k in set(earlier) | set(record) if earlier.get(k) != record.get(k))
            raise BenchmarkError(f"exact counts differ from an earlier run of this seed: {diff}")
    else:
        path.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")


def run(args) -> dict:
    load_at_start = os.getloadavg()
    init = SRC / "bankcover" / "__init__.py"
    if not init.is_file():
        raise BenchmarkError(f"no bankcover sources under {SRC}")
    check_benchmark_json()

    sys.path.insert(0, str(SRC))
    import bankcover as bc
    import bankcover.cli as bc_cli

    if Path(bc.__file__).resolve() != init.resolve():
        raise BenchmarkError(f"imported bankcover from {bc.__file__}, not from {SRC}")
    out_dir = OUT / args.workload
    (out_dir / "report").mkdir(parents=True, exist_ok=True)
    (OUT / "counts").mkdir(parents=True, exist_ok=True)
    env = environment(bc, load_at_start)
    plan = jobs.make_plan(args.workload, args.seed)
    warm_up(bc, bc_cli)

    phases = [run_phase(bc, bc_cli, NoTracer(), plan, args.seconds, out_dir / "report")]
    # This process or any finished worker process, read before set-up is
    # timed so that the set-up interpreters do not count.
    peak_rss_mb = max(resource.getrusage(who).ru_maxrss for who in
                      (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0
    setup_s = measure_setup() if args.trace == 0 else None
    tracer = None
    if args.trace:
        tracer = Tracer()
        phases.append(run_phase(bc, bc_cli, tracer, plan, args.seconds, out_dir / "report"))

    # Gates, outside every timed region.
    verdict = checks.Verdict()
    first = phases[0]
    requests = first_pass(first, plan)
    checks.verify_requests(bc, References(bc), requests,
                           jobs.derived_seed(args.workload, args.seed, "sample"), verdict)
    if args.workload == "exact_queries":
        checks.q1_gate(bc, verdict)
        checks.multisum_gate(bc, verdict)
    mc_digests = checks.verify_monte_carlo(bc, first.having("mc"), verdict)
    checks.verify_report(first.having("report"), out_dir / "report", plan.expect_spec, verdict)
    checks.verify_validation(first.having("validation"), verdict)
    for phase in phases[1:]:
        # the traced repeat must agree too, but its operations are not recounted
        again = checks.Verdict()
        if checks.verify_monte_carlo(bc, phase.having("mc"), again) != mc_digests:
            again.problems.append("traced rounds simulated differently")
        checks.verify_report(phase.having("report"), out_dir / "report", plan.expect_spec, again)
        checks.verify_validation(phase.having("validation"), again)
        verdict.problems.extend(again.problems)
    linger = jobs.lingering([r.host for phase in phases for r in phase.rounds])
    for kind in ("python", "numpy"):
        ratio = linger.get(f"after_before.{kind}", 1.0)  # absent: too few samples to judge
        if ratio > jobs.AFTER_BEFORE_MAX:
            verdict.problems.append(
                f"calibration loops straight after library calls run {ratio:.2f}x slower "
                f"than after a pause ({kind}): work outlives the calls")
    if linger["other_cpu_share"] > jobs.OTHER_CPU_SHARE_MAX:
        verdict.problems.append(
            f"other threads use {linger['other_cpu_share']:.2f} s of CPU per second of "
            "calibration: work outlives the calls")
    failed_requests = {i for i, r in enumerate(requests) if r.failed}
    record = {
        "counts": dict(sorted(pass_counts(first, plan).items())),
        "mc": mc_digests,
        "failed_requests": sorted(failed_requests),
        "crashes": sorted(f"{layer}:{kind}={c}" for (layer, kind), c in verdict.crashes.items()),
        "cert_misses": verdict.cert_misses,
    }
    check_counts_repeat(
        phases, plan, record, OUT / "counts" / f"{args.workload}-{args.seed}-{env['source_sha256'][:16]}.json")

    e2e = end_to_end(first, failed_requests)
    raw = {k: v for k, v in end_to_end(first, failed_requests, scaled=False).items()
           if not k.startswith("_")}
    slowness = [rnd.host.median_slowness() for rnd in first.rounds
                if any(k == "python" for k, _t0, _t1 in rnd.host.ticks)]
    if args.trace:
        traced = end_to_end(phases[1], failed_requests)
        metrics = per_layer(tracer, phases[1], verdict, plan, e2e, traced)
        tracer.write(OUT / f"spans_{args.workload}_seed{args.seed}.jsonl")
        units = {m.name: m.unit for m in catalog.PER_LAYER}
    else:
        metrics = {k: v for k, v in e2e.items() if not k.startswith("_")}
        metrics.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb,
                       ok_frac=1.0 - verdict.failed / verdict.ops)
        units = {m.name: m.unit for m in catalog.END_TO_END}
    result = {
        "correct": not verdict.problems,
        "attempted": verdict.ops,
        "failed": verdict.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": [len(p.rounds) for p in phases], "env": env, "problems": verdict.problems,
        "answers_checked": verdict.answers_checked, "answers_unchecked": verdict.answers_unchecked,
        "crashes": record["crashes"], "cert_misses": verdict.cert_misses, "result": result,
        "unscaled_metrics": raw,
        "host_slowness": {"min": min(slowness), "median": statistics.median(slowness),
                          "max": max(slowness)},
        "shares": job_shares(first), "lingering": linger,
    }
    (OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True), encoding="utf-8")
    print("env " + json.dumps(env, sort_keys=True))
    print("unscaled " + json.dumps(raw, sort_keys=True))
    print("host slowness " + json.dumps(summary["host_slowness"]))
    print("shares " + json.dumps({k: round(v, 3) for k, v in summary["shares"].items()}))
    print("lingering " + json.dumps({k: round(v, 3) for k, v in linger.items()}))
    print(f"rounds {summary['rounds']}; answers checked {verdict.answers_checked}, "
          f"unchecked {verdict.answers_unchecked}; crashes {record['crashes']}; "
          f"certificate misses {verdict.cert_misses}")
    for problem in verdict.problems:
        print(f"problem: {problem}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="print workloads and metrics")
    parser.add_argument("--workload", choices=[w.name for w in catalog.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.list:
        print(list_catalog())
        return 0
    if args.workload is None or args.seed < 0 or args.seconds < 1:
        parser.error("--workload is required; --seed must be >= 0 and --seconds >= 1")
    try:
        result = run(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
