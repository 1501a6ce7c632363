"""The lookup tier: probe order, memo and store levels, precompute."""

from repro.memory.config import MemoryConfig
from repro.runner.analytic import solve
from repro.runner.executor import SweepExecutor
from repro.runner.job import SimJob
from repro.serve.lookup import LookupTier


def _job(streams, *, banks=8, bank_cycle=4, **kw):
    return SimJob.from_specs(
        MemoryConfig(banks=banks, bank_cycle=bank_cycle), streams, **kw
    )


def _probe(tier, job):
    return tier.probe(job, job.cache_key())


#: Undecided by the closed forms (same start, equal strides): must
#: always fall through to simulation.
UNDECIDED = [(0, 4), (0, 4)]


class TestProbe:
    def test_analytic_tier_answers_decided_jobs(self):
        tier = LookupTier(executor=SweepExecutor(backend="fast"))
        job = _job([(0, 1)])
        hit = _probe(tier, job)
        assert hit is not None
        out, source = hit
        assert source == "analytic"
        assert out.bandwidth == 1

    def test_miss_returns_none_without_simulating(self):
        executor = SweepExecutor(backend="fast")
        tier = LookupTier(executor=executor)
        job = _job(UNDECIDED)
        assert solve(job) is None  # precondition: truly undecided
        assert _probe(tier, job) is None
        assert executor.stats.executed == 0

    def test_store_tier_reads_through_and_canonicalizes(self, tmp_path):
        job = _job(UNDECIDED)
        out = SweepExecutor(backend="fast", store_path=tmp_path).run_one(job)

        # a fresh executor over the same store: nothing in its memo
        tier = LookupTier(executor=SweepExecutor(store_path=tmp_path))
        # an isomorphic twin (banks translated j -> j + 1) hits the key
        twin = _job([(1, 4), (1, 4)])
        assert twin.cache_key() == job.cache_key()
        hit = _probe(tier, twin)
        assert hit is not None
        got, source = hit
        assert source == "store"
        assert got.to_payload() == out.to_payload()
        # the read promoted the payload into the memo
        again = _probe(tier, twin)
        assert again is not None and again[1] == "memo"
        assert again[0].to_payload() == out.to_payload()

    def test_memo_tier_sees_executor_results(self):
        executor = SweepExecutor(backend="fast")
        tier = LookupTier(executor=executor)
        job = _job(UNDECIDED)
        assert _probe(tier, job) is None
        executor.run_one(job)
        hit = _probe(tier, job)
        assert hit is not None
        assert hit[1] == "memo"


class TestPrecompute:
    def test_precompute_run_answers_memo_then_store(self, tmp_path):
        # ``serve --precompute`` is one run_many over the precompute jobs
        executor = SweepExecutor(backend="fast", store_path=tmp_path)
        jobs = [_job(UNDECIDED), _job([(1, 4), (1, 4)])]
        executor.run_many(jobs)
        # the two jobs are isomorphic -> one canonical entry
        assert len(executor) == 1
        assert executor.stats.executed == 1
        hit = _probe(LookupTier(executor=executor), jobs[1])
        assert hit is not None and hit[1] == "memo"

        # after a restart, the first probe reads the shared store
        rebuilt = LookupTier(executor=SweepExecutor(store_path=tmp_path))
        hit = _probe(rebuilt, jobs[0])
        assert hit is not None and hit[1] == "store"
        assert hit[0].to_payload() == executor.run_one(jobs[0]).to_payload()
