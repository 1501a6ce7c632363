"""Coalescing semantics: fold, micro-batch, serialise, fail cleanly."""

import asyncio

import pytest

from repro.memory.config import MemoryConfig
from repro.runner.executor import SweepExecutor
from repro.runner.job import SimJob
from repro.serve.coalesce import Coalescer


def _job(streams, *, banks=8, bank_cycle=4):
    return SimJob.from_specs(
        MemoryConfig(banks=banks, bank_cycle=bank_cycle), streams
    )


#: Analytically undecided -> the executor really simulates it.
UNDECIDED = [(0, 4), (0, 4)]


class TestCoalescing:
    def test_identical_concurrent_requests_execute_once(self):
        executor = SweepExecutor(backend="fast")
        coalescer = Coalescer(executor)

        async def main():
            job = _job(UNDECIDED)
            return await asyncio.gather(
                *(coalescer.submit(job, job.cache_key()) for _ in range(64))
            )

        outcomes = asyncio.run(main())
        assert len(outcomes) == 64
        assert executor.stats.executed == 1
        assert len({o.bandwidth for o in outcomes}) == 1

    def test_isomorphic_requests_fold_too(self):
        executor = SweepExecutor(backend="fast")
        coalescer = Coalescer(executor)

        async def main():
            # same canonical class, different bank numbering
            a = _job([(0, 4), (0, 4)])
            b = _job([(3, 4), (3, 4)])
            assert a.cache_key() == b.cache_key()
            return await asyncio.gather(
                coalescer.submit(a, a.cache_key()),
                coalescer.submit(b, b.cache_key()),
            )

        outcomes = asyncio.run(main())
        assert executor.stats.executed == 1
        assert outcomes[0].bandwidth == outcomes[1].bandwidth

    def test_distinct_jobs_micro_batch_through_one_drain(self):
        executor = SweepExecutor(backend="fast")
        coalescer = Coalescer(executor)
        jobs = [_job([(b, 4), (b, 4)]) for b in range(4)]
        # translations of one class plus genuinely distinct strides
        jobs += [_job([(0, d), (0, d)]) for d in (2, 4, 6)]

        async def main():
            return await asyncio.gather(
                *(coalescer.submit(j, j.cache_key()) for j in jobs)
            )

        outcomes = asyncio.run(main())
        assert len(outcomes) == len(jobs)
        distinct = len({j.cache_key() for j in jobs})
        assert executor.stats.executed == distinct

    def test_late_duplicate_is_a_memo_hit_not_a_rerun(self):
        executor = SweepExecutor(backend="fast")
        coalescer = Coalescer(executor)
        job = _job(UNDECIDED)

        async def main():
            first = await coalescer.submit(job, job.cache_key())
            second = await coalescer.submit(job, job.cache_key())
            return first, second

        first, second = asyncio.run(main())
        assert executor.stats.executed == 1
        assert executor.stats.hits >= 1
        assert first.bandwidth == second.bandwidth


class TestFailurePaths:
    def test_backend_error_propagates_to_every_waiter(self):
        executor = SweepExecutor(backend="analytic")  # strict: raises
        coalescer = Coalescer(executor)
        job = _job(UNDECIDED)  # analytically undecided -> ValueError

        async def main():
            return await asyncio.gather(
                *(coalescer.submit(job, job.cache_key()) for _ in range(3)),
                return_exceptions=True,
            )

        results = asyncio.run(main())
        assert len(results) == 3
        assert all(isinstance(r, ValueError) for r in results)

    def test_closed_coalescer_refuses_new_work(self):
        executor = SweepExecutor(backend="fast")
        coalescer = Coalescer(executor)

        async def main():
            await coalescer.close()
            with pytest.raises(RuntimeError):
                job = _job(UNDECIDED)
                await coalescer.submit(job, job.cache_key())

        asyncio.run(main())
