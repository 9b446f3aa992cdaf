"""Seeded simulation: determinism, worker independence, statistical agreement."""

from __future__ import annotations

import math
import multiprocessing
import os
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

from bankcover.coupon import BankSpec, InvalidSpecError, expected_tests, test_count_cdf
from bankcover import simulate
from bankcover.asymptotics import centring
from bankcover.simulate import (
    GENERATOR_ID,
    SimulationConfig,
    SimulationResult,
    _bank_stages,
    _block_maxima,
    _block_size,
    _Stages,
    run_experiment,
)


def simulate_one_reference(spec: BankSpec, stream: np.random.Generator) -> int:
    """Literal per-test loop: one uniform alternative per bank per test.

    The independent check on the stage-sum sampler behind run_experiment;
    the two share no code and no draw order, only the law.
    """
    a, q = spec.a, spec.q
    if a == 1:
        return 1
    full = (1 << a) - 1
    covered = [0] * q
    tests = 0
    while True:
        draws = stream.integers(0, a, size=q)
        tests += 1
        done = True
        for j in range(q):
            covered[j] |= 1 << int(draws[j])
            if covered[j] != full:
                done = False
        if done:
            return tests


def geometric_loop_reference(a: int, q: int, seed: int, block: int, rows: int) -> np.ndarray:
    """The block sampler as it was with one ``rng.geometric`` call a stage."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, block))))
    best = np.zeros(rows, dtype=np.int64)
    width = min(q, 2 ** 17)
    for lo in range(0, q, width):
        totals = np.ones((rows, min(width, q - lo)), dtype=np.int64)
        for k in range(2, a + 1):
            totals += rng.geometric((a - k + 1) / a, size=totals.shape)
        np.maximum(best, totals.max(axis=1), out=best)
    return best


def numpy_partial_sums(p: float) -> list[float]:
    """The sums numpy's geometric search compares U with, in its order, up to
    the first that no U in [0, 1 - 2**-53] exceeds or where they stop growing."""
    total = prod = p
    sums = [total]
    while total < 1.0 - 2.0 ** -53:
        prod *= 1.0 - p
        if total + prod == total:
            break
        total += prod
        sums.append(total)
    return sums


def untempered(words: np.ndarray) -> np.ndarray:
    """MT19937 state words whose tempered outputs are ``words``."""
    y = words.astype(np.uint64)
    y ^= y >> np.uint64(18)
    y ^= (y << np.uint64(15)) & np.uint64(0xEFC60000)
    x = y.copy()
    for _ in range(5):
        x = y ^ ((x << np.uint64(7)) & np.uint64(0x9D2C5680))
    y = x & np.uint64(0xFFFFFFFF)
    x = y.copy()
    for _ in range(3):
        x = y ^ (x >> np.uint64(11))
    return (x & np.uint64(0xFFFFFFFF)).astype(np.uint32)


def uniforms_ahead(bitgen: np.random.MT19937, grid: list[int]) -> None:
    """Set ``bitgen`` so that its next doubles are k * 2**-53 for k in ``grid``.

    numpy's MT19937 double is (w1 >> 5) * 2**26 + (w2 >> 6) over 2**53 for
    two consecutive tempered words; up to 312 doubles fit in one state.
    """
    words = []
    for k in grid:
        words += [(k >> 26) << 5, (k & (2 ** 26 - 1)) << 6]
    key = np.zeros(624, np.uint32)
    key[:len(words)] = untempered(np.array(words, dtype=np.uint64))
    bitgen.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": 0}}


def stage_waits(p: float, rng: np.random.Generator, n: int) -> np.ndarray:
    sums = np.zeros(n)
    _Stages([p]).add(rng, sums)
    return sums


def draws_of(result: SimulationResult) -> np.ndarray:
    return np.repeat(list(result.histogram.keys()), list(result.histogram.values()))


DRAW_BUDGET_MESSAGE = "reps * q * (a - 1) stage waits exceed the simulator's budget of 2**32 draws"


class TestSimulationConfig:
    def test_valid(self):
        config = SimulationConfig(BankSpec(10, 10), 100, 42, workers=2)
        assert config.reps == 100

    @pytest.mark.parametrize("reps,seed,workers", [(0, 1, 1), (10, -1, 1), (10, 2 ** 64, 1), (10, 1, 0)])
    def test_rejects_bad_values(self, reps, seed, workers):
        with pytest.raises(InvalidSpecError):
            SimulationConfig(BankSpec(2, 2), reps, seed, workers)

    # reps * q * (a - 1) stage waits: exactly 2**32, and at a = 1 none at all.
    # Each config is constructed, never run
    @pytest.mark.parametrize("a,q,reps", [(2, 1, 2 ** 32), (2, 2 ** 32, 1), (5, 2 ** 15, 2 ** 15),
                                          (1, 10 ** 300, 2 ** 40)])
    def test_accepts_a_run_at_the_draw_budget(self, a, q, reps):
        assert SimulationConfig(BankSpec(a, q), reps, 1).reps == reps

    @pytest.mark.parametrize("a,q,reps", [(2, 1, 2 ** 32 + 1), (2, 2 ** 32 + 1, 1),
                                          (64, 10 ** 300, 1)])
    def test_refuses_a_run_past_the_draw_budget(self, a, q, reps):
        with pytest.raises(InvalidSpecError) as got:
            SimulationConfig(BankSpec(a, q), reps, 1)
        assert str(got.value) == DRAW_BUDGET_MESSAGE

    def test_earlier_checks_keep_their_messages_past_the_budget(self):
        spec = BankSpec(2, 2 ** 40)
        for args, message in [((0, 1), "reps must be"), ((1, -1), "seed must be"),
                              ((1, 1, 0), "workers must be")]:
            with pytest.raises(InvalidSpecError, match=message):
                SimulationConfig(spec, *args)

    @pytest.mark.parametrize("spec", ["x", (10, 10), None], ids=["str", "tuple", "None"])
    def test_rejects_a_spec_that_is_not_a_bank_spec(self, spec):
        # a str spec once passed and run_experiment raised a bare AttributeError
        with pytest.raises(InvalidSpecError, match="spec must be a BankSpec, got "):
            run_experiment(SimulationConfig(spec, 10, 1))


class TestSimulateOne:
    """The per-block sampler: the coverage times of one block's replications."""

    def test_single_alternative(self):
        assert (_block_maxima(1, 7, 0, 0, 50) == 1).all()

    def test_support_starts_at_bank_size(self):
        for block in range(4):
            assert _block_maxima(5, 3, 9, block, 200).min() >= 5

    def test_matches_scalar_reference(self):
        # no shared draw order with the one-test-at-a-time loop, so the match
        # is in law: two-sample Kolmogorov-Smirnov at the 0.001 level per spec
        for a, q in ((2, 1), (5, 3), (10, 10), (20, 7), (64, 2)):
            spec = BankSpec(a, q)
            fast = draws_of(run_experiment(SimulationConfig(spec, 5_000, 123)))
            stream = np.random.Generator(np.random.Philox(np.random.SeedSequence(123)))
            slow = [simulate_one_reference(spec, stream) for _ in range(200)]
            assert stats.ks_2samp(fast, slow).pvalue > 0.001, (a, q)

    def test_deterministic_given_stream(self):
        # block 3 of seed 7 is a pure function of its key and length
        first = _block_maxima(10, 10, 7, 3, 64)
        assert (first == _block_maxima(10, 10, 7, 3, 64)).all()
        assert not (first == _block_maxima(10, 10, 7, 4, 64)).all()


class TestStageWaits:
    """Each stage's waits are numpy's ``rng.geometric`` draws, bit for bit."""

    def test_every_stage_matches_numpy(self):
        # same key, same integers, and the stream left where numpy leaves it
        for a in range(2, 65):
            for k in range(2, a + 1):
                p = (a - k + 1) / a
                key = np.random.SeedSequence((a, k))
                ours = np.random.Generator(np.random.Philox(key))
                theirs = np.random.Generator(np.random.Philox(key))
                waits = stage_waits(p, ours, 2000)
                assert (waits == theirs.geometric(p, 2000)).all(), (a, k)
                assert ours.random() == theirs.random(), (a, k)

    def test_switch_is_numpys(self):
        # numpy searches from the double 0.333333333333333333333333 up
        assert (3 - 3 + 1) / 3 == 1 / 3 == 0.333333333333333333333333
        assert _Stages([1 / 3]).searches == 1
        assert _Stages([21 / 64]).searches == 0
        assert _bank_stages(3).searches == 2
        assert _bank_stages(64).searches == 42  # p = 22/64 .. 63/64
        assert max(_bank_stages(a).searches for a in range(1, 65)) == 42

    def test_search_edges_match_numpy(self):
        # every U on either side of every sum numpy compares with, for every
        # search probability of a = 2..64, injected through MT19937 so that
        # numpy's own loop gives the reference; a bucket holding two sums
        # would lose one and fail here
        bitgen = np.random.MT19937(0)
        rng = np.random.Generator(bitgen)
        probs = {(a - k + 1) / a for a in range(2, 65) for k in range(2, a + 1)}
        checked = 0
        for p in sorted(x for x in probs if x >= 1 / 3):
            sums = numpy_partial_sums(p)
            grid = {0, 2 ** 53 - 1}
            for t in sums:
                below = math.floor(t * 2.0 ** 53)  # U <= t; one more is U > t
                grid.update((below, below + 1))
            # past a sum that stopped growing, numpy's loop never ends
            grid = sorted(k for k in grid if k < 2 ** 53 and k * 2.0 ** -53 <= sums[-1])
            for lo in range(0, len(grid), 312):
                part = grid[lo:lo + 312]
                uniforms_ahead(bitgen, part)
                ours = stage_waits(p, rng, len(part))
                uniforms_ahead(bitgen, part)
                assert (ours == rng.geometric(p, len(part))).all(), p
                checked += len(part)
        assert checked > 60_000  # 839 probabilities

    def test_uniform_past_a_stalled_sum_gets_a_finite_wait(self):
        # at p = 0.35 numpy's sums stop growing below the largest uniform,
        # 1 - 2**-53, so numpy's loop never returns for it; the table does
        sums = numpy_partial_sums(0.35)
        assert sums[-1] == 0.9999999999999997 < 1.0 - 2.0 ** -53
        bitgen = np.random.MT19937(0)
        rng = np.random.Generator(bitgen)
        uniforms_ahead(bitgen, [2 ** 53 - 1])
        assert rng.random() == 1.0 - 2.0 ** -53
        uniforms_ahead(bitgen, [2 ** 53 - 1])
        assert stage_waits(0.35, rng, 1).tolist() == [1 + len(sums)]

    @pytest.mark.parametrize("a", [1, 2, 3, 5, 10, 20, 64])
    def test_blocks_match_the_geometric_loop(self, a):
        # whole stages batched per numpy call at small q, one stage in pieces
        # at large q, two column slices at 2**17 + 3; full and partial blocks
        for q in (1, 2, 50, 2000, 2 ** 17 + 3):
            size = _block_size(q)
            for block, rows in ((0, size), (1, max(1, size // 3))):
                ours = _block_maxima(a, q, 29, block, rows)
                assert ours.dtype == np.int64
                assert (ours == geometric_loop_reference(a, q, 29, block, rows)).all(), (q, block)


class TestRunExperiment:
    def test_histogram_counts_all_reps(self):
        result = run_experiment(SimulationConfig(BankSpec(5, 5), 500, 11))
        assert sum(result.histogram.values()) == 500
        assert result.min >= 5
        assert result.min <= result.mean <= result.max

    def test_repeatable(self):
        config = SimulationConfig(BankSpec(5, 5), 400, 21)
        assert run_experiment(config) == run_experiment(config)

    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_worker_count_does_not_change_results(self, workers):
        # 3000 replications are three 1024-replication blocks, so the work splits
        base = run_experiment(SimulationConfig(BankSpec(5, 5), 3_000, 31))
        split = run_experiment(SimulationConfig(BankSpec(5, 5), 3_000, 31, workers=workers))
        assert base == split

    @pytest.mark.parametrize("spec", [BankSpec(4, 2000), BankSpec(5, 5)], ids=["B65", "B1024"])
    @pytest.mark.parametrize("offset", ["1", "B-1", "B", "B+1", "3B+5"])
    def test_worker_count_identity_at_block_boundaries(self, spec, offset):
        size = _block_size(spec.q)
        reps = {"1": 1, "B-1": size - 1, "B": size, "B+1": size + 1, "3B+5": 3 * size + 5}[offset]
        base = run_experiment(SimulationConfig(spec, reps, 41))
        assert sum(base.histogram.values()) == reps
        for workers in (2, 3, 8):
            assert run_experiment(SimulationConfig(spec, reps, 41, workers=workers)) == base

    def test_block_size_fixed_by_spec(self):
        assert _block_size(1) == _block_size(50) == 1024
        assert _block_size(2000) == 65
        assert _block_size(10 ** 6) == 1

    def test_memory_flat_in_q(self):
        # banks are drawn in column slices of 2**17 int64 cells (1 MiB), so a
        # million banks need about 2 MiB per running block; one unsliced row
        # would need 16 MiB
        for workers in (1, 2):
            tracemalloc.start()
            try:
                result = run_experiment(SimulationConfig(BankSpec(2, 10 ** 6), 4, 8, workers))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2 ** 20, workers
            assert sum(result.histogram.values()) == 4 and result.min >= 2

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_threads_capped_at_available_cpus(self, monkeypatch, cpus):
        # q = 2**17 makes every replication its own block, so 64 workers meet
        # 64 blocks; the pool still gets one thread per CPU, and with one CPU
        # the blocks run in the calling thread, with no pool
        sizes = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(simulate, "_available_cpus", lambda: cpus)
        spec = BankSpec(2, 2 ** 17)
        assert _block_size(spec.q) == 1
        split = run_experiment(SimulationConfig(spec, 64, 3, workers=64))
        assert sizes == ([] if cpus == 1 else [min(64, cpus)])
        assert split == run_experiment(SimulationConfig(spec, 64, 3))

    def test_identity_under_fast_thread_switching(self):
        # more blocks than cores, switching threads every microsecond: a lost
        # or doubled update of the merged histogram would change the result
        spec = BankSpec(4, 2000)
        base = run_experiment(SimulationConfig(spec, 3_000, 17))
        config = SimulationConfig(spec, 3_000, 17, workers=8)
        results = []
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=lambda: results.append(run_experiment(config)), daemon=True
            )
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not runner.is_alive()
        assert results == [base]
        assert sum(base.histogram.values()) == 3_000

    def test_pool_starts_no_process(self, monkeypatch):
        def no_fork():
            raise OSError("fork is not allowed in this test")

        monkeypatch.setattr(os, "fork", no_fork)
        result = run_experiment(SimulationConfig(BankSpec(5, 5), 3_000, 31, workers=2))
        assert sum(result.histogram.values()) == 3_000
        assert multiprocessing.active_children() == []

    def test_more_workers_than_reps(self):
        result = run_experiment(SimulationConfig(BankSpec(2, 1), 3, 5, workers=8))
        assert sum(result.histogram.values()) == 3

    def test_single_rep_variance_zero(self):
        result = run_experiment(SimulationConfig(BankSpec(3, 2), 1, 0))
        assert result.variance == 0.0 and result.std_error_mean == 0.0

    def test_mean_matches_exact_small_case(self):
        result = run_experiment(SimulationConfig(BankSpec(2, 1), 100_000, 1))
        assert abs(result.mean - 3.0) <= 3 * result.std_error_mean

    def test_mean_matches_exact_single_bank(self):
        result = run_experiment(SimulationConfig(BankSpec(10, 1), 30_000, 77))
        exact = expected_tests(BankSpec(10, 1)).value
        assert abs(result.mean - exact) <= 3 * result.std_error_mean

    def test_generator_identity_recorded(self):
        result = run_experiment(SimulationConfig(BankSpec(2, 1), 10, 0))
        assert result.generator_id == GENERATOR_ID
        assert GENERATOR_ID == f"philox4x64-stagesum-blocks/numpy-{np.__version__}"

    def test_ecdf_matches_exact_cdf_at_centre(self):
        spec = BankSpec(10, 10)
        reps = 20_000
        result = run_experiment(SimulationConfig(spec, reps, 2024))
        n_star = centring(10, 10).centre_ceil
        ecdf = sum(c for v, c in result.histogram.items() if v <= n_star) / reps
        exact = test_count_cdf(spec, n_star).p
        assert abs(ecdf - exact) <= 4 / math.sqrt(reps)


class TestMaxOfSingleBanks:
    """run_experiment samples the maximum over banks of per-bank stage sums."""

    def test_support(self):
        result = run_experiment(SimulationConfig(BankSpec(5, 4), 1_000, 13))
        assert result.min >= 5

    def test_single_alternative(self):
        result = run_experiment(SimulationConfig(BankSpec(1, 3), 100, 13))
        assert result.histogram == {1: 100}

    def test_agrees_with_direct_simulation(self):
        # the stage-sum sampler against the literal per-test loop; two-sample
        # Kolmogorov-Smirnov at the 0.001 level
        spec = BankSpec(10, 10)
        stage_sums = draws_of(run_experiment(SimulationConfig(spec, 100_000, 555)))
        stream = np.random.Generator(np.random.Philox(np.random.SeedSequence(555)))
        direct = [simulate_one_reference(spec, stream) for _ in range(3_000)]
        statistic = stats.ks_2samp(stage_sums, direct)
        assert statistic.pvalue > 0.001

    def test_mean_concordance(self):
        spec = BankSpec(5, 50)
        draws = draws_of(run_experiment(SimulationConfig(spec, 100_000, 999)))
        exact = expected_tests(spec).value
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - exact) <= 3 * se
