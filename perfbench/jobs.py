"""The work a benchmark round does, built only from bankcover's public API.

There are four jobs:

* exact requests: one (a, q) analysis request = expected_tests,
  variance_tests, a test_count_pmf window around the centre, a
  single_bank_survival sweep to three Gumbel scales past the centre, and the
  asymptotic predictions for the same (a, q);
* Monte Carlo: run_experiment with workers=1 and workers=2 per spec, plus
  ``bankcover simulate`` in-process;
* report: every table built and written as CSV, both figures rendered as SVG,
  and ``bankcover expect``, ``table`` and ``figure`` in-process;
* validate: ``run_checks("quick")``.

Each workload names the jobs it is about (``SUBJECT``).  A *subject round*
runs those jobs; the exact requests are spread over ``slices`` subject
rounds.  A *companion round* runs the other jobs once, so that every
workload reports every end-to-end metric without its time going to them.

Failures inside a job are recorded, never raised: a failed call is data.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import math
import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PMF_HALF_WINDOW = 8
SWEEP_GUMBEL_SCALES = 3.0
STREAM_REQUESTS = 256
STREAM_SLICES = 4
JOBS = ("exact", "mc", "report", "validate")
SUBJECT = {
    "exact_queries": ("exact",),
    "monte_carlo": ("exact", "mc"),
    "report_build": ("exact", "report", "validate"),
}
MC_SPECS = ((10, 1), (10, 10), (5, 50), (20, 20))
MC_REPS = 6000
# A companion Monte Carlo job runs one spec several times, small, so that
# its rates are an interquartile mean like the subject's.
MC_COMPANION_SPEC = (10, 10)
MC_COMPANION_REPS = 1500
MC_COMPANION_REPEATS = 2
TABLE_A = (5, 10, 20)
TABLE_Q = (1, 5, 10, 20, 50, 100, 200)
CALIBRATION_TESTS = range(40, 500)
CALIBRATION_STREAMS = 80
# Calibration times on a 2-core x86-64 box (Python 3.11, numpy 2.4) while no
# other load shares the host; timings measured at exactly these speeds are
# reported as they are.
CALIBRATION_REF_S = {"python": 0.0024, "numpy": 0.0024}
SETTLE_S = 0.001
AFTER_EVERY = {"python": 4, "numpy": 1}
# Above these, library work is taken to outlive its calls (see HostSpeed);
# the loop ratio is judged once it has AFTER_BEFORE_SAMPLES samples.
AFTER_BEFORE_MAX = 1.15
AFTER_BEFORE_SAMPLES = 16
OTHER_CPU_SHARE_MAX = 0.2


def _python_loop() -> None:
    """An alternating binomial sum of float powers with compensated addition:
    the shape of the exact-arithmetic hot path."""
    total = low = 0.0
    for y in CALIBRATION_TESTS:
        for k in range(1, 21):
            term = math.comb(20, k) * ((20 - k) / 20) ** y
            term = term if k % 2 else -term
            step = total + term
            low += (total - step) + term if abs(total) >= abs(term) else (term - step) + total
            total = step


def _numpy_loop() -> None:
    """Seeded counter-based generators and small integer draws: the shape of
    the simulator's per-replication work."""
    for i in range(CALIBRATION_STREAMS):
        stream = np.random.Generator(np.random.Philox(np.random.SeedSequence((7, i))))
        stream.integers(0, 10, size=(32, 10))


_LOOPS = {"python": _python_loop, "numpy": _numpy_loop}


class HostSpeed:
    """Fixed calibration loops, timed between every two units of work.

    The loops do not touch bankcover, so no change to the library moves
    them; they measure how fast this host runs code of that shape at that
    moment.  A shared host swings between full and about half speed within
    fractions of a second, so each unit's time is divided by the slowness of
    the loops of its kind timed just before and just after it.

    The loop that scales a unit is never run straight after a library call:
    a pause of ``SETTLE_S`` comes first.  Every ``AFTER_EVERY``-th boundary
    of a kind also times the loop straight after the call, before the pause
    (not where the previous boundary ran the other kind's loop, which leaves
    this loop's code cold), and the CPU that other threads of this process
    use across the boundary is counted.  ``lingering`` turns both into a
    verdict: a library whose work outlives its calls (threads left spinning,
    workers still exiting, caches left cold) would slow the scaling loops and
    so divide part of its own cost back out.  Such a run is marked incorrect
    instead.
    """

    def __init__(self, tr) -> None:
        self._tr = tr
        self.ticks: list[tuple[str, float, float]] = []  # settled: (kind, start, end)
        self._seen: dict[str, int] = {kind: 0 for kind in _LOOPS}
        self.after_ratios: dict[str, list[float]] = {kind: [] for kind in _LOOPS}
        self.other_cpu_s = 0.0
        self.watched_s = 0.0  # seconds spent in the boundaries themselves

    def tick(self, kind: str = "python") -> None:
        self._tr.call(f"host.calibrate.{kind}", "calibrate", self._boundary, kind)

    def _boundary(self, kind: str) -> None:
        loop = _LOOPS[kind]
        w0, cpu0, own0 = time.perf_counter(), time.process_time(), time.thread_time()
        after = None
        same_kind = bool(self.ticks) and self.ticks[-1][0] == kind
        if same_kind and self._seen[kind] % AFTER_EVERY[kind] == 0:
            loop()
            after = time.perf_counter() - w0
        self._seen[kind] += 1
        time.sleep(SETTLE_S)
        t0 = time.perf_counter()
        loop()
        t1 = time.perf_counter()
        self.ticks.append((kind, t0, t1))
        if after is not None:
            self.after_ratios[kind].append(after / (t1 - t0))
        self.other_cpu_s += (time.process_time() - cpu0) - (time.thread_time() - own0)
        self.watched_s += t1 - w0

    def slowness(self, start: float, kind: str = "python") -> float:
        """Slowness of the ``kind`` loops around the unit that began at ``start``."""
        ticks = [(t0, t1) for k, t0, t1 in self.ticks if k == kind]
        i = bisect.bisect_right([t1 for _t0, t1 in ticks], start) - 1
        near = [ticks[j] for j in (i, i + 1) if 0 <= j < len(ticks)]
        return statistics.fmean(t1 - t0 for t0, t1 in near) / CALIBRATION_REF_S[kind]

    def median_slowness(self, kind: str = "python") -> float:
        return statistics.median(
            t1 - t0 for k, t0, t1 in self.ticks if k == kind) / CALIBRATION_REF_S[kind]


def lingering(hosts) -> dict:
    """Evidence, over a phase, that library work outlives the calls.

    ``after_before.<kind>``: median ratio of the loop timed straight after a
    call to the loop timed after the pause; ``other_cpu_share``: CPU used
    by this process's other threads, per second spent in boundaries."""
    out = {}
    for kind in _LOOPS:
        ratios = [r for host in hosts for r in host.after_ratios[kind]]
        if len(ratios) >= AFTER_BEFORE_SAMPLES:
            out[f"after_before.{kind}"] = statistics.median(ratios)
    watched = sum(host.watched_s for host in hosts)
    other = sum(host.other_cpu_s for host in hosts)
    out["other_cpu_share"] = max(0.0, other / watched) if watched else 0.0
    return out


def derived_seed(workload: str, seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def exact_stream(seed: int, n: int = STREAM_REQUESTS) -> list[tuple[int, int]]:
    """Latin-hypercube draw of (a, q): a log-uniform on 2..64, q on 1..1e6.

    Stratifying both coordinates keeps the mix of cheap, dear and failing
    requests nearly the same for every seed, so per-request medians and the
    failure share do not swing with the seed.
    """
    rng = random.Random(derived_seed("exact_queries", seed, "stream"))
    rows_a = list(range(n))
    rows_q = list(range(n))
    rng.shuffle(rows_a)
    rng.shuffle(rows_q)
    out = []
    for i in range(n):
        ua = (rows_a[i] + rng.random()) / n
        uq = (rows_q[i] + rng.random()) / n
        a = min(64, int(2.0 * 32.5 ** ua))
        q = max(1, min(10 ** 6, int((10 ** 6 + 1) ** uq)))
        out.append((a, q))
    return out


@dataclass
class Plan:
    """Inputs of one workload, all derived from the workload seed."""

    workload: str
    requests: list[tuple[int, int]]
    mc_specs: list[tuple[int, int, int]]  # (a, q, stream seed)
    mc_reps: int
    expect_spec: tuple[int, int]
    slices: int  # subject rounds it takes to send every request once
    subject: tuple[str, ...]

    @property
    def companions(self) -> tuple[str, ...]:
        return tuple(job for job in JOBS if job not in self.subject)


def make_plan(workload: str, seed: int) -> Plan:
    rng = random.Random(derived_seed(workload, seed, "plan"))
    expect_spec = (rng.choice(TABLE_A), rng.choice(TABLE_Q))
    if workload == "exact_queries":
        requests = exact_stream(seed)
        specs, reps = [MC_COMPANION_SPEC] * MC_COMPANION_REPEATS, MC_COMPANION_REPS
    elif workload == "monte_carlo":
        requests = list(MC_SPECS)
        specs, reps = list(MC_SPECS), MC_REPS
    elif workload == "report_build":
        requests = [(a, q) for a in TABLE_A for q in TABLE_Q]
        specs, reps = [MC_COMPANION_SPEC] * MC_COMPANION_REPEATS, MC_COMPANION_REPS
    else:
        raise ValueError(f"unknown workload {workload!r}")
    mc_specs = [(a, q, derived_seed(workload, seed, f"mc:{a}:{q}")) for a, q in specs]
    slices = STREAM_SLICES if workload == "exact_queries" else 1
    return Plan(workload, requests, mc_specs, reps, expect_spec, slices, SUBJECT[workload])


@dataclass
class Request:
    """One analysis request: its time, its failures and (round 0) its answers."""

    a: int
    q: int
    start: float = 0.0
    seconds: float = 0.0
    crashes: list[tuple[str, str]] = field(default_factory=list)  # (call, type)
    mean: object = None
    var: object = None
    pmf: list = field(default_factory=list)  # (n, ProbValue)
    sweep: list = field(default_factory=list)  # (y, ProbValue)
    centre: object = None  # CentringData
    centred_mean: float | None = None
    var_bounds: object = None
    local_pmf: list = field(default_factory=list)  # (offset, float)
    cert_misses: list[str] = field(default_factory=list)
    gross_errors: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.crashes or self.cert_misses)


def _crash(req: Request, counts: Counter, call: str, exc: Exception) -> None:
    kind = type(exc).__name__
    req.crashes.append((call, kind))
    if call.startswith("coupon."):
        counts["coupon.crash_count"] += 1
        counts[f"coupon.crash_type.{kind}"] += 1
    else:
        counts[f"{call.split('.', 1)[0]}.crash_count"] += 1


def analysis_request(bc, tr, rid: str, a: int, q: int, counts: Counter, keep: bool) -> Request:
    """Run one (a, q) request; every part runs even when an earlier one fails."""
    req = Request(a, q)
    spec = bc.BankSpec(a, q)
    t0 = req.start = time.perf_counter()
    with tr.span("bench.request", rid):
        centre = None
        counts["asymptotics.calls"] += 1
        try:
            centre = tr.call("asymptotics.centring", rid, bc.centring, a, q)
        except Exception as exc:
            _crash(req, counts, "asymptotics.centring", exc)
        for label, fn in (("mean", bc.expected_tests), ("var", bc.variance_tests)):
            name = f"coupon.{fn.__name__}"
            counts["coupon.series_calls"] += 1
            try:
                estimate = tr.call(name, rid, fn, spec)
            except Exception as exc:
                _crash(req, counts, name, exc)
                continue
            counts["coupon.series_terms"] += estimate.terms
            if keep:
                setattr(req, label, estimate)
        if centre is not None:
            ceil = centre.centre_ceil
            offsets = range(-PMF_HALF_WINDOW, PMF_HALF_WINDOW)
            for off in offsets:
                n = ceil + off
                if n < 1:
                    continue
                counts["coupon.pmf_calls"] += 1
                try:
                    value = tr.call("coupon.test_count_pmf", rid, bc.test_count_pmf, spec, n)
                except Exception as exc:
                    _crash(req, counts, "coupon.test_count_pmf", exc)
                    continue
                if keep:
                    req.pmf.append((n, value))
            y_end = ceil + math.ceil(SWEEP_GUMBEL_SCALES / centre.decay_rate)
            sweep = range(a, y_end + 1)
            counts["coupon.curve_points"] += len(sweep)
            survival = bc.single_bank_survival
            for y in sweep:
                try:
                    value = tr.call("coupon.single_bank_survival", rid, survival, a, y)
                except Exception as exc:
                    _crash(req, counts, "coupon.single_bank_survival", exc)
                    continue
                if keep:
                    req.sweep.append((y, value))
            try:
                counts["asymptotics.calls"] += 2
                centred = tr.call("asymptotics.centred_mean_prediction", rid,
                                  bc.centred_mean_prediction, a, q)
                bounds = tr.call("asymptotics.variance_bounds", rid, bc.variance_bounds, a)
                local = []
                for off in offsets:
                    counts["asymptotics.calls"] += 1
                    local.append((off, tr.call("asymptotics.local_pmf_approx", rid,
                                               bc.local_pmf_approx, a, q, off)))
            except Exception as exc:
                _crash(req, counts, "asymptotics.predictions", exc)
            else:
                if keep:
                    req.centre, req.centred_mean, req.var_bounds = centre, centred, bounds
                    req.local_pmf = local
    req.seconds = time.perf_counter() - t0
    return req


@dataclass
class Experiment:
    a: int
    q: int
    seed: int
    workers: int
    reps: int
    start: float
    seconds: float = 0.0
    result: object = None
    crash: str | None = None


@dataclass
class MonteCarlo:
    experiments: list[Experiment]
    cli_argv: list[str]
    cli_code: int | None
    cli_stdout: str
    cli_seconds: float


def _cli(bc_cli, tr, name: str, rid: str, argv: list[str]) -> tuple[int | None, str, float]:
    """``bankcover <argv>`` in-process; returns exit code, stdout and seconds."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = tr.call(name, rid, bc_cli.main, argv)
    except Exception:
        code = None
    return code, buf.getvalue(), time.perf_counter() - t0


def monte_carlo(bc, bc_cli, tr, plan: Plan, counts: Counter, host: HostSpeed) -> MonteCarlo:
    experiments = []
    for a, q, seed in plan.mc_specs:
        for workers in (1, 2):
            host.tick("numpy")
            config = bc.SimulationConfig(bc.BankSpec(a, q), plan.mc_reps, seed, workers)
            t0 = time.perf_counter()
            exp = Experiment(a, q, seed, workers, plan.mc_reps, t0)
            name = "simulate.run_experiment.w1" if workers == 1 else "simulate.run_experiment.w2"
            try:
                exp.result = tr.call(name, f"mc:{a}:{q}", bc.run_experiment, config)
            except Exception as exc:
                exp.crash = type(exc).__name__
            exp.seconds = time.perf_counter() - t0
            counts["simulate.reps"] += plan.mc_reps
            experiments.append(exp)
    a, q, seed = next(s for s in plan.mc_specs if s[:2] == MC_COMPANION_SPEC)
    argv = ["simulate", "--a", str(a), "--q", str(q), "--reps", str(plan.mc_reps),
            "--seed", str(seed), "--workers", "1"]
    host.tick("numpy")
    code, out, seconds = _cli(bc_cli, tr, "cli.simulate", f"mc:{a}:{q}", argv)
    host.tick("numpy")
    return MonteCarlo(experiments, argv, code, out, seconds)


@dataclass
class Report:
    units: dict  # artifact or command -> (start, seconds)
    artifacts: dict
    svgs: dict
    crashes: list[tuple[str, str]]
    cli: dict  # command -> (argv, exit code, stdout)


def report(bc, bc_cli, tr, plan: Plan, out_dir: Path, host: HostSpeed) -> Report:
    """Write every table and figure through the API, then through the CLI."""
    from bankcover.tables import FIGURE_NAMES, TABLE_NAMES

    units, artifacts, svgs, crashes, cli = {}, {}, {}, [], {}
    with tr.span("bench.report", "report"):
        for name in TABLE_NAMES:
            host.tick()
            start = time.perf_counter()
            try:
                art = tr.call(f"tables.build_table.{name}", name, bc.build_table, name)
                tr.call("tables.write", name, art.write, out_dir / f"{name}.csv")
            except Exception as exc:
                crashes.append((f"tables.build_table.{name}", type(exc).__name__))
                continue
            finally:
                units[f"{name}.csv"] = (start, time.perf_counter() - start)
            artifacts[name] = art
        for name in FIGURE_NAMES:
            if name not in artifacts:
                continue
            host.tick()
            start = time.perf_counter()
            try:
                svg = tr.call("tables.render_figure_svg", name, bc.render_figure_svg,
                              artifacts[name])
                with open(out_dir / f"{name}.svg", "w", encoding="utf-8", newline="") as fh:
                    fh.write(svg)
            except Exception as exc:
                crashes.append(("tables.render_figure_svg", type(exc).__name__))
                continue
            finally:
                units[f"{name}.svg"] = (start, time.perf_counter() - start)
            svgs[name] = svg
        a, q = plan.expect_spec
        commands = {
            "expect": ["expect", "--a", str(a), "--q", str(q)],
            "table": ["table", "en_q", "--out", str(out_dir / "cli_en_q.csv")],
            "figure": ["figure", "fig_low", "--out", str(out_dir / "cli_fig_low.svg")],
        }
        for command, argv in commands.items():
            host.tick()
            start = time.perf_counter()
            code, out, seconds = _cli(bc_cli, tr, f"cli.{command}", command, argv)
            units[f"cli.{command}"] = (start, seconds)
            cli[command] = (argv, code, out)
    return Report(units, artifacts, svgs, crashes, cli)


@dataclass
class Validation:
    start: float
    seconds: float
    passed: int
    total: int
    crash: str | None = None


def validate_quick(bc, tr) -> Validation:
    t0 = time.perf_counter()
    try:
        results = tr.call("validate.run_checks", "validate", bc.run_checks, "quick")
    except Exception as exc:
        return Validation(t0, time.perf_counter() - t0, 0, 0, type(exc).__name__)
    seconds = time.perf_counter() - t0
    return Validation(t0, seconds, sum(r.passed for r in results), len(results))


@dataclass
class Round:
    """One round; the parts of the jobs it did not run are empty or None."""

    companion: bool
    key: str  # rounds with the same key must produce the same exact counts
    requests: dict[int, Request]  # index in plan.requests -> request
    mc: MonteCarlo | None
    report: Report | None
    validation: Validation | None
    counts: Counter
    host: HostSpeed
    start: float = 0.0
    seconds: float = 0.0
    spans: int = 0


def run_round(bc, bc_cli, tr, plan: Plan, index: int, out_dir: Path, companion: bool) -> Round:
    """Subject round ``index`` of the phase, or a companion round.

    The jobs run in the order exact, Monte Carlo, report, validate, with a
    calibration boundary between every two units.  Subject rounds
    0 .. slices-1 cover every request once and keep their answers for the
    gates."""
    jobs = plan.companions if companion else plan.subject
    counts: Counter = Counter()
    keep = not companion and index < plan.slices
    part = index % plan.slices
    host = HostSpeed(tr)
    requests, mc, rep, validation = {}, None, None, None
    t0 = time.perf_counter()
    with tr.span("bench.round", "companion" if companion else f"round:{index}"):
        if "exact" in jobs:
            with tr.span("bench.exact", "exact"):
                for i, (a, q) in enumerate(plan.requests):
                    if i % plan.slices == part:
                        host.tick()
                        requests[i] = analysis_request(bc, tr, f"req:{i}", a, q, counts, keep)
                host.tick()
        if "mc" in jobs:
            with tr.span("bench.monte_carlo", "mc"):
                mc = monte_carlo(bc, bc_cli, tr, plan, counts, host)
        if "report" in jobs:
            rep = report(bc, bc_cli, tr, plan, out_dir, host)
            host.tick()
        if "validate" in jobs:
            host.tick()
            validation = validate_quick(bc, tr)
            host.tick()
            counts["validate.checks_passed"] = validation.passed
    key = "companion" if companion else f"slice:{part}"
    return Round(companion, key, requests, mc, rep, validation, counts, host, t0,
                 time.perf_counter() - t0)
