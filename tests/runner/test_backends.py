"""Backend registry, selection rules and reference/fast agreement."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest

from repro.memory.config import FIG2_CONFIG, FIG3_CONFIG, MemoryConfig
from repro.runner import SimJob, run
from repro.runner.backends import (
    BACKEND_ENV_VAR,
    FastBackend,
    available_backends,
    get_backend,
    resolve_backend,
)


class TestRegistry:
    def test_available(self):
        assert available_backends() == (
            "analytic", "auto", "batch", "fast", "reference"
        )

    def test_instances_are_shared(self):
        assert get_backend("fast") is get_backend("fast")

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("warp")


class TestResolution:
    def test_default_is_reference(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend(None).name == "reference"

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "fast")
        assert resolve_backend(None).name == "fast"

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "fast")
        assert resolve_backend("reference").name == "reference"

    def test_trace_jobs_force_reference(self):
        job = SimJob.from_specs(
            FIG3_CONFIG, [(0, 1), (0, 6)], steady=False, cycles=30, trace=True
        )
        assert resolve_backend("fast", job).name == "reference"
        out = run(job, backend="fast")
        assert out.backend == "reference"
        assert out.result is not None and out.result.trace is not None

    def test_fast_backend_rejects_trace(self):
        job = SimJob.from_specs(
            FIG3_CONFIG, [(0, 1)], steady=False, cycles=10, trace=True
        )
        with pytest.raises(ValueError, match="no trace"):
            FastBackend().run(job)


AGREEMENT_JOBS = [
    SimJob.from_specs(FIG2_CONFIG, [(0, 1), (3, 7)]),
    SimJob.from_specs(FIG3_CONFIG, [(0, 1), (0, 6)]),
    SimJob.from_specs(
        MemoryConfig(banks=16, bank_cycle=4, sections=4),
        [(0, 1), (2, 2), (5, 3)],
        cpus=[0, 0, 1],
        priority="cyclic",
    ),
    SimJob.from_specs(
        MemoryConfig(banks=13, bank_cycle=4),
        [(0, 1), (7, 3)],
        priority="lru",
    ),
    SimJob.from_specs(
        MemoryConfig(banks=16, bank_cycle=4, sections=4),
        [(0, 1), (1, 1), (2, 5)],
        cpus=[0, 0, 1],
        priority="block-cyclic:3",
        intra_priority="fixed",
    ),
]


class TestAgreement:
    @pytest.mark.parametrize("job", AGREEMENT_JOBS, ids=lambda j: j.describe())
    def test_steady_outcomes_identical(self, job):
        ref = run(job, backend="reference")
        fast = run(job, backend="fast")
        assert fast.bandwidth == ref.bandwidth
        assert fast.period == ref.period
        assert fast.grants == ref.grants
        assert fast.steady_start == ref.steady_start

    def test_fixed_horizon_outcomes_identical(self):
        job = SimJob.from_specs(
            FIG2_CONFIG, [(0, 1), (3, 7)], steady=False, cycles=100
        )
        ref = run(job, backend="reference")
        fast = run(job, backend="fast")
        assert fast.bandwidth == ref.bandwidth == Fraction(sum(ref.grants), 100)
        assert fast.grants == ref.grants
        assert fast.period is None and fast.steady_start is None

    def test_fast_carries_no_engine_result(self):
        out = run(AGREEMENT_JOBS[0], backend="fast")
        assert out.result is None
        assert run(AGREEMENT_JOBS[0], backend="reference").result is not None


class TestRunBatch:
    def test_fast_batch_matches_per_job_runs(self):
        # Mixed shapes in one batch: the shared section-table cache must
        # not leak one config's table into another's jobs.
        jobs = AGREEMENT_JOBS + [
            SimJob.from_specs(FIG2_CONFIG, [(0, 1), (5, 7)]),
            SimJob.from_specs(FIG3_CONFIG, [(0, 1)], steady=False, cycles=40),
        ]
        batch = FastBackend().run_batch(jobs)
        for job, out in zip(jobs, batch):
            solo = FastBackend().run(job)
            assert out.bandwidth == solo.bandwidth
            assert out.period == solo.period
            assert out.grants == solo.grants
            assert out.steady_start == solo.steady_start

    def test_auto_batch_mixes_tiers_in_order(self):
        from repro.runner.analytic import solve

        decided = SimJob.from_specs(FIG3_CONFIG, [(0, 1)])
        undecided = SimJob.from_specs(FIG3_CONFIG, [(0, 1), (0, 6)])
        assert solve(decided) is not None and solve(undecided) is None
        jobs = [undecided, decided, undecided, decided]
        outs = get_backend("auto").run_batch(jobs)
        assert [o.backend for o in outs] == ["fast", "analytic", "fast", "analytic"]
        for job, out in zip(jobs, outs):
            ref = run(job, backend="reference")
            assert out.bandwidth == ref.bandwidth
            assert out.grants == ref.grants
            assert out.period == ref.period
            assert out.steady_start == ref.steady_start

    def test_reference_batch_matches_run(self):
        outs = get_backend("reference").run_batch(AGREEMENT_JOBS[:2])
        for job, out in zip(AGREEMENT_JOBS[:2], outs):
            assert out.bandwidth == run(job, backend="reference").bandwidth


class TestBatchBackend:
    def test_batch_matches_fast_per_job(self):
        jobs = AGREEMENT_JOBS + [
            SimJob.from_specs(FIG2_CONFIG, [(0, 1), (5, 7)]),
            SimJob.from_specs(FIG3_CONFIG, [(0, 1)], steady=False, cycles=40),
        ]
        outs = get_backend("batch").run_batch(jobs)
        for job, out in zip(jobs, outs):
            solo = get_backend("fast").run(job)
            assert out.backend == "batch"
            assert out.bandwidth == solo.bandwidth
            assert out.period == solo.period
            assert out.grants == solo.grants
            assert out.steady_start == solo.steady_start
            assert out.cycles == solo.cycles

    def test_single_run_entry_point(self):
        job = SimJob.from_specs(FIG3_CONFIG, [(0, 1), (0, 6)])
        out = get_backend("batch").run(job)
        fast = get_backend("fast").run(job)
        assert (out.bandwidth, out.period, out.grants) == (
            fast.bandwidth, fast.period, fast.grants
        )

    def test_rejects_trace_jobs(self):
        job = SimJob.from_specs(
            FIG3_CONFIG, [(0, 1)], steady=False, cycles=10, trace=True
        )
        with pytest.raises(ValueError, match="no trace"):
            get_backend("batch").run(job)

    def test_max_cycles_error_matches_fast(self):
        job = SimJob.from_specs(FIG3_CONFIG, [(0, 1), (0, 6)], max_cycles=2)
        with pytest.raises(RuntimeError) as fast_err:
            get_backend("fast").run(job)
        with pytest.raises(RuntimeError) as batch_err:
            get_backend("batch").run_batch([job])
        assert str(batch_err.value) == str(fast_err.value)

    def test_auto_routes_large_populations_to_batch(self):
        """Only jobs that step clock by clock (here an LRU pair) reach
        the kernel, and only in populations of at least
        ``BATCH_MIN_POPULATION``; a fused pair next to them stays on
        the fast engine."""
        from repro.runner.batchsim import BATCH_MIN_POPULATION

        undecided = SimJob.from_specs(
            FIG3_CONFIG, [(0, 1), (0, 6)], priority="lru"
        )
        fused = SimJob.from_specs(FIG3_CONFIG, [(0, 1), (0, 6)])
        small = get_backend("auto").run_batch([undecided] * 3)
        assert {o.backend for o in small} == {"fast"}
        large = get_backend("auto").run_batch(
            [fused] + [undecided] * BATCH_MIN_POPULATION
        )
        assert [o.backend for o in large[:2]] == ["fast", "batch"]
        assert {o.backend for o in large[1:]} == {"batch"}
        assert {(o.bandwidth, o.period) for o in large[1:]} == {
            (small[0].bandwidth, small[0].period)
        }

    def test_auto_keeps_fused_pairs_on_fast_at_any_size(self):
        from repro.runner.batchsim import BATCH_MIN_POPULATION

        jobs = [
            SimJob.from_specs(FIG3_CONFIG, [(0, 1), (b, 6)], priority=rule)
            for rule in ("fixed", "cyclic", "block-cyclic:3")
            for b in range(12)
        ] * 3
        assert len(jobs) >= BATCH_MIN_POPULATION
        outs = get_backend("auto").run_batch(jobs)
        assert {o.backend for o in outs} <= {"analytic", "fast"}
        assert [o.to_payload() for o in outs if o.backend == "fast"] == [
            get_backend("fast").run(job).to_payload()
            for job, o in zip(jobs, outs)
            if o.backend == "fast"
        ]

    def test_auto_raises_the_lowest_indexed_failure(self):
        """Fused pairs and batched jobs run apart; a failure still names
        the first failing job in population order."""
        from repro.runner.batchsim import BATCH_MIN_POPULATION

        lru = SimJob.from_specs(FIG3_CONFIG, [(0, 1), (0, 6)], priority="lru")
        fused = SimJob.from_specs(FIG3_CONFIG, [(0, 1), (0, 6)])
        jobs = [lru] * BATCH_MIN_POPULATION + [fused]
        bounded = [replace(lru, max_cycles=2), replace(fused, max_cycles=3)]
        for population, bound in (
            ([bounded[0], *jobs[1:-1], bounded[1]], 2),
            ([bounded[1], *jobs[1:-1], bounded[0]], 3),
        ):
            with pytest.raises(RuntimeError, match=f"within {bound} cycles"):
                get_backend("auto").run_batch(population)

    def test_preferred_chunk_hints(self):
        assert get_backend("batch").preferred_chunk >= 1024
        assert get_backend("fast").preferred_chunk < 256
        assert get_backend("reference").preferred_chunk == 1


class TestOutcomeViews:
    def test_conflict_free_pair(self):
        out = run(SimJob.from_specs(FIG2_CONFIG, [(0, 1), (3, 7)]))
        assert out.bandwidth == 2
        assert out.conflict_free
        assert out.full_rate_streams == 2
        assert out.pair_regime.value == "conflict-free"

    def test_barrier_pair(self):
        out = run(SimJob.from_specs(FIG3_CONFIG, [(0, 1), (0, 6)]))
        assert out.bandwidth == Fraction(7, 6)
        assert not out.conflict_free
        assert out.pair_regime.value == "barrier-on-2"


class TestBatchPolicyFallback:
    def test_policy_jobs_take_the_scalar_fallback(self):
        from repro.obs import capture_metrics
        from repro.obs import names as obs_names

        plain = SimJob.from_specs(FIG3_CONFIG, [(0, 1), (0, 6)])
        regulated = SimJob.from_specs(
            FIG3_CONFIG, [(0, 1), (0, 6)], regulate=["stream=1/4"]
        )
        wfq = SimJob.from_specs(
            FIG3_CONFIG, [(0, 1), (0, 6)], arbiter="wfq:2,1"
        )
        with capture_metrics() as reg:
            outs = get_backend("batch").run_batch([plain, regulated, wfq])
        # Everything reports as the batch backend, matching fast exactly.
        for job, out in zip([plain, regulated, wfq], outs):
            solo = get_backend("fast").run(job)
            assert out.backend == "batch"
            assert out.bandwidth == solo.bandwidth
            assert out.grants == solo.grants
        fallback = reg.get(obs_names.BATCH_FALLBACK, reason="policy")
        assert fallback is not None and fallback.value == 2

    def test_vector_core_refuses_policy_jobs(self):
        from repro.runner.batchsim import run_span_batch, run_steady_batch

        regulated = SimJob.from_specs(
            FIG3_CONFIG, [(0, 1)], regulate=["stream=1/4"]
        )
        with pytest.raises(ValueError, match="batch core"):
            run_steady_batch([regulated])
        span = SimJob.from_specs(
            FIG3_CONFIG, [(0, 1)], arbiter="wfq:2",
            steady=False, cycles=10,
        )
        with pytest.raises(ValueError, match="batch core"):
            run_span_batch([span], 10)
