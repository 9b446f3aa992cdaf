"""Correctness gates, run after the timed rounds and never inside them.

Two kinds of outcome are kept apart:

* a *failed operation*: a call raised, or a certified answer missed its own
  error bound.  These are counted (they are today's known defects) and lower
  ``ok_frac``; they do not make the run incorrect;
* an *incorrect run*: an answer grossly wrong, an output that is not
  byte-identical to the seed commit's, a worker-count or run-to-run
  difference in a seeded simulation, a simulated mean more than
  ``CONCORDANCE_SIGMA`` standard errors from the exact mean, or a failing
  ``validate`` check.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

import reference as ref
from catalog import CSV_SHA256, SVG_SHA256

CONCORDANCE_SIGMA = 5.0
SERIES_SAMPLE = 4
Q1_GATE_A = range(2, 65)
MULTISUM_GRID = (
    [(a, 1) for a in range(1, 7)]
    + [(a, q) for a in range(1, 6) for q in (2, 3)]
    + [(a, 4) for a in range(1, 5)]
)


@dataclass
class Verdict:
    """Outcome of the gates of one run."""

    ops: int = 0
    failed: int = 0
    cert_misses: int = 0
    crashes: dict = field(default_factory=dict)  # (layer, exception type) -> count
    answers_checked: int = 0
    answers_unchecked: int = 0
    z_max: float = 0.0
    problems: list[str] = field(default_factory=list)  # reasons the run is incorrect

    def op(self, failed: bool) -> None:
        self.ops += 1
        self.failed += bool(failed)

    def crash(self, call: str, kind: str) -> None:
        key = (call.split(".", 1)[0], kind)
        self.crashes[key] = self.crashes.get(key, 0) + 1


def _check_series(req, label: str, estimate, reference, verdict: Verdict, exact: bool) -> None:
    value, err = reference
    if exact:
        missed = ref.miss_exact(estimate.value, estimate.tail_bound, value, err)
        gross = ref.gross_exact(estimate.value, value)
    else:
        missed = ref.miss_mp(estimate.value, estimate.tail_bound, value, err)
        gross = ref.gross_mp(estimate.value, value)
    verdict.answers_checked += 1
    if missed:
        req.cert_misses.append(label)
    if gross:
        req.gross_errors.append(label)


def verify_requests(bc, refs: ref.References, requests, seed: int, verdict: Verdict) -> None:
    """Judge every kept answer of the round-0 requests against a reference.

    Survival sweeps, pmf windows and asymptotic predictions are checked for
    every request; the mean and variance for q = 1 (exact fractions) and for
    a seeded sample of the others (mpmath).
    """
    answered = [i for i, r in enumerate(requests) if r.q > 1 and r.mean and r.var]
    sample = set(random.Random(seed).sample(answered, min(SERIES_SAMPLE, len(answered))))
    for i, req in enumerate(requests):
        a, q = req.a, req.q
        for y, value in req.sweep:
            s_ref, s_err = refs.survival(a, y)
            verdict.answers_checked += 1
            if ref.miss_exact(value.p, value.abs_err, s_ref, s_err):
                req.cert_misses.append(f"survival y={y}")
            if ref.gross_exact(value.p, s_ref):
                req.gross_errors.append(f"survival y={y}")
        for n, value in req.pmf:
            p_ref = refs.pmf(a, q, n)
            verdict.answers_checked += 1
            if ref.miss_mp(value.p, value.abs_err, p_ref, 0):
                req.cert_misses.append(f"pmf n={n}")
            if ref.gross_mp(value.p, p_ref):
                req.gross_errors.append(f"pmf n={n}")
        if req.mean and req.var:
            if q == 1:
                _check_series(req, "mean", req.mean, (ref.q1_mean(a), 0), verdict, True)
                _check_series(req, "variance", req.var, (ref.q1_variance(a), 0), verdict, True)
            elif i in sample:
                mean_ref, var_ref = refs.series(a, q)
                _check_series(req, "mean", req.mean, mean_ref, verdict, False)
                _check_series(req, "variance", req.var, var_ref, verdict, False)
            else:
                verdict.answers_unchecked += 2
        if req.centre is not None:
            _check_asymptotics(refs, req, verdict)
        for call, kind in req.crashes:
            verdict.crash(call, kind)
        verdict.cert_misses += len(req.cert_misses)
        verdict.op(req.failed)
        if req.gross_errors:
            verdict.problems.append(f"request (a={a}, q={q}) grossly wrong: {req.gross_errors[:3]}")


def _check_asymptotics(refs: ref.References, req, verdict: Verdict) -> None:
    a, q = req.a, req.q
    rate, centre, frac = ref.centring_mp(a, q)
    checks = [
        ("centring.centre", req.centre.centre, centre),
        ("centred_mean_prediction", req.centred_mean, centre + ref.euler_gamma() / rate),
        ("variance_bounds.center", req.var_bounds.center, ref.pi() ** 2 / 6 / rate ** 2),
        ("variance_bounds.band_moment", req.var_bounds.band_moment, refs.band_moment(a)),
    ]
    for off, value in req.local_pmf:
        expected = ref.gumbel_mp(rate * (off + 1 - frac)) - ref.gumbel_mp(rate * (off - frac))
        checks.append((f"local_pmf_approx off={off}", value, expected))
    for label, value, expected in checks:
        verdict.answers_checked += 1
        if ref.gross_mp(value, expected):
            req.gross_errors.append(label)


def q1_gate(bc, verdict: Verdict) -> None:
    """Mean and variance at q = 1 for every a in 2..64 against exact fractions."""
    for a in Q1_GATE_A:
        spec = bc.BankSpec(a, 1)
        failed = False
        for label, fn, exact in (("mean", bc.expected_tests, ref.q1_mean(a)),
                                 ("variance", bc.variance_tests, ref.q1_variance(a))):
            try:
                estimate = fn(spec)
            except Exception as exc:
                verdict.crash("coupon", type(exc).__name__)
                failed = True
                continue
            verdict.answers_checked += 1
            if ref.miss_exact(estimate.value, estimate.tail_bound, exact, 0):
                verdict.cert_misses += 1
                failed = True
            if ref.gross_exact(estimate.value, exact):
                verdict.problems.append(f"q=1 {label} at a={a} grossly wrong")
        verdict.op(failed)


def multisum_gate(bc, verdict: Verdict) -> None:
    """Series mean against the exact multi-sum on its small grid; the
    library's float multi-sum is also held to the exact value."""
    for a, q in MULTISUM_GRID:
        spec = bc.BankSpec(a, q)
        exact = ref.multisum_mean(a, q)
        failed = False
        try:
            estimate = bc.expected_tests(spec)
            library_sum = bc.expected_tests_multisum(spec)
        except Exception as exc:
            verdict.crash("coupon", type(exc).__name__)
            verdict.op(True)
            continue
        verdict.answers_checked += 2
        if ref.miss_exact(estimate.value, estimate.tail_bound, exact, 0):
            verdict.cert_misses += 1
            failed = True
        if ref.gross_exact(estimate.value, exact) or ref.gross_exact(library_sum, exact):
            verdict.problems.append(f"multi-sum grid ({a}, {q}) grossly wrong")
        verdict.op(failed)


def simulate_record(a: int, q: int, reps: int, seed: int, result) -> str:
    """The JSON line ``bankcover simulate`` prints for this result."""
    return json.dumps({
        "spec": {"a": a, "q": q},
        "reps": reps,
        "seed": seed,
        "mean": result.mean,
        "variance": result.variance,
        "std_error_mean": result.std_error_mean,
        "min": result.min,
        "max": result.max,
        "generator_id": result.generator_id,
    }, sort_keys=True)


def _result_key(result) -> str:
    return json.dumps([result.mean, result.variance, result.std_error_mean, result.min,
                       result.max, result.generator_id, sorted(result.histogram.items())])


def verify_monte_carlo(bc, rounds, verdict: Verdict) -> dict:
    """Worker-count and round-to-round identity, CLI record, concordance.

    Returns the digest of every histogram and record, which the run compares
    with earlier runs of the same seed.
    """
    first = rounds[0].mc
    digests = {}
    for exp in first.experiments:
        failed = exp.result is None
        if failed:
            verdict.crash("simulate", exp.crash)
        else:
            key = _result_key(exp.result)
            twin = next(e for e in first.experiments
                        if (e.a, e.q) == (exp.a, exp.q) and e.workers != exp.workers)
            if twin.result is None or _result_key(twin.result) != key:
                verdict.problems.append(f"simulation ({exp.a}, {exp.q}) differs across workers")
                failed = True
            for later in rounds[1:]:
                again = next(e for e in later.mc.experiments
                             if (e.a, e.q, e.workers) == (exp.a, exp.q, exp.workers))
                if again.result is None or _result_key(again.result) != key:
                    verdict.problems.append(f"simulation ({exp.a}, {exp.q}) differs across rounds")
                    failed = True
            digests[f"mc:{exp.a}:{exp.q}:w{exp.workers}"] = hashlib.sha256(key.encode()).hexdigest()
            if exp.workers == 1:
                exact = bc.expected_tests(bc.BankSpec(exp.a, exp.q)).value
                z = abs(exp.result.mean - exact) / exp.result.std_error_mean
                verdict.z_max = max(verdict.z_max, z)
                if z > CONCORDANCE_SIGMA:
                    verdict.problems.append(
                        f"simulated mean ({exp.a}, {exp.q}) is {z:.1f} standard errors from exact")
        verdict.op(failed)
    argv = first.cli_argv
    a, q, reps, seed = (int(argv[i]) for i in (2, 4, 6, 8))
    records = {
        simulate_record(a, q, reps, seed, e.result)
        for e in first.experiments if (e.a, e.q) == (a, q) and e.result is not None
    }
    outputs = {r.mc.cli_stdout.strip() for r in rounds}
    cli_ok = all(r.mc.cli_code == 0 for r in rounds) and len(records) == 1 and outputs == records
    if not cli_ok:
        verdict.problems.append("bankcover simulate record differs from run_experiment's result")
    verdict.op(not cli_ok)
    digests["cli:simulate"] = hashlib.sha256("".join(sorted(outputs)).encode()).hexdigest()
    return digests


def verify_report(rounds, out_dir, expect_spec, verdict: Verdict) -> None:
    """CSV and SVG bytes against the seed commit, in memory and on disk."""
    sha = lambda text: hashlib.sha256(text.encode()).hexdigest()  # noqa: E731
    for index, rnd in enumerate(rounds):
        rep = rnd.report
        if index == 0:
            for call, kind in rep.crashes:
                verdict.crash(call, kind)
        for name, digest in CSV_SHA256.items():
            art = rep.artifacts.get(name)
            ok = art is not None and sha(art.to_csv()) == digest
            if not ok:
                verdict.problems.append(f"table {name} is not byte-identical (round {index})")
            if index == 0:
                verdict.op(not ok)
        for name, digest in SVG_SHA256.items():
            ok = sha(rep.svgs.get(name, "")) == digest
            if not ok:
                verdict.problems.append(f"figure {name} is not byte-identical (round {index})")
            if index == 0:
                verdict.op(not ok)
        table = rep.artifacts.get("en_q")
        cells = {(a, q): v for a, q, v, _r in table.rows} if table else {}
        value = cells.get(tuple(expect_spec))
        for command, (argv, code, out) in rep.cli.items():
            ok = code == 0
            if command == "expect":
                ok = ok and value is not None and out.split(" ")[0] == f"{value:.12g}"
            if not ok:
                verdict.problems.append(f"bankcover {' '.join(argv[:2])} failed (round {index})")
            if index == 0:
                verdict.op(not ok)
    on_disk = {f"{name}.csv": d for name, d in CSV_SHA256.items()}
    on_disk.update({f"{name}.svg": d for name, d in SVG_SHA256.items()})
    on_disk["cli_en_q.csv"] = CSV_SHA256["en_q"]
    on_disk["cli_fig_low.svg"] = SVG_SHA256["fig_low"]
    for filename, digest in on_disk.items():
        path = out_dir / filename
        if not path.is_file() or hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            verdict.problems.append(f"written file {filename} is not byte-identical")


def verify_validation(rounds, verdict: Verdict) -> None:
    for index, rnd in enumerate(rounds):
        v = rnd.validation
        ok = v.crash is None and v.total > 0 and v.passed == v.total
        if not ok:
            verdict.problems.append(f"validate quick: {v.passed}/{v.total} passed (round {index})")
        if index == 0:
            if v.crash:
                verdict.crash("validate", v.crash)
            verdict.op(not ok)
