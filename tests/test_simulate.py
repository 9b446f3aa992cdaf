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
    _block_maxima,
    _block_size,
    _chunk_ranges,
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


def draws_of(result: SimulationResult) -> np.ndarray:
    return np.repeat(list(result.histogram.keys()), list(result.histogram.values()))


class TestSimulationConfig:
    def test_valid(self):
        config = SimulationConfig(BankSpec(10, 10), 100, 42, workers=2)
        assert config.reps == 100

    @pytest.mark.parametrize("reps,seed,workers", [(0, 1, 1), (10, -1, 1), (10, 2 ** 64, 1), (10, 1, 0)])
    def test_rejects_bad_values(self, reps, seed, workers):
        with pytest.raises(InvalidSpecError):
            SimulationConfig(BankSpec(2, 2), reps, seed, workers)


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
        # million banks need about 2 MiB per running range; one unsliced row
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

    def test_threads_capped_at_available_cpus(self, monkeypatch):
        # q = 2**17 makes every replication its own block, so 64 workers ask
        # for 64 ranges; the pool still gets at most one thread per CPU
        sizes = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", Recording)
        spec = BankSpec(2, 2 ** 17)
        assert _block_size(spec.q) == 1
        split = run_experiment(SimulationConfig(spec, 64, 3, workers=64))
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert len(sizes) == 1 and 1 <= sizes[0] <= cpus
        assert split == run_experiment(SimulationConfig(spec, 64, 3))

    def test_identity_under_fast_thread_switching(self):
        # more ranges than cores, switching threads every microsecond: a lost
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

    def test_ranges_cover_blocks_once(self):
        for items in range(1, 12):
            for workers in (1, 2, 3, 8, 64, 10 ** 9):
                ranges = _chunk_ranges(items, workers)
                assert len(ranges) == min(items, workers)
                assert [b for s, e in ranges for b in range(s, e)] == list(range(items))

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
