"""SweepExecutor: dedup, memoization, result store, fan-out."""

from __future__ import annotations

import json
import sys
import threading
import time
from fractions import Fraction

import pytest

from repro.memory.config import FIG2_CONFIG, MemoryConfig
from repro.obs import capture_metrics
from repro.obs import names as obs_names
from repro.runner import (
    ResultStore,
    RetryPolicy,
    SimJob,
    SimOutcome,
    SweepExecutor,
    SweepFailureError,
    default_executor,
    jobs_for_offsets,
    run,
)

CFG = MemoryConfig(banks=12, bank_cycle=3)


def _job(b2: int = 5) -> SimJob:
    return SimJob.from_specs(CFG, [(0, 1), (b2, 7)])


class TestDedup:
    def test_identical_jobs_run_once(self):
        ex = SweepExecutor()
        outs = ex.run_many([_job(), _job(), _job()])
        assert ex.stats.submitted == 3
        assert ex.stats.executed == 1
        assert ex.stats.deduped == 2
        assert len({o.bandwidth for o in outs}) == 1

    def test_isomorphic_jobs_collapse(self, tmp_path, monkeypatch):
        # j -> 5j maps the first job's streams onto the second's, and a
        # start translation maps it onto the third.
        a = SimJob.from_specs(CFG, [(0, 1), (5, 7)])
        b = SimJob.from_specs(CFG, [(0, 5), (25, 35)])
        c = SimJob.from_specs(CFG, [(3, 1), (8, 7)])
        batch = [a, b, c]
        want = run(a, backend="fast")

        decodes = []
        from_payload = SimOutcome.from_payload

        def counting(job, payload):
            decodes.append(job)
            return from_payload(job, payload)

        monkeypatch.setattr(SimOutcome, "from_payload", counting)
        path = tmp_path / "store"
        first = SweepExecutor(backend="fast", store_path=path)
        # cold, then the same executor's memo, then a fresh executor
        # over the store the first one filled
        sources = (
            ("cold", first, 1),
            ("memo", first, 0),
            ("store", SweepExecutor(backend="fast", store_path=path), 0),
        )
        for source, ex, executed in sources:
            decodes.clear()
            before = ex.stats.executed
            outs = ex.run_many(batch)
            assert ex.stats.executed - before == executed, source
            # each payload is decoded once per key, whatever its source
            assert decodes == [a], source
            for job, out in zip(batch, outs):
                # each outcome still reports the job that was asked for
                assert out.job is job, source
                assert out.bandwidth == want.bandwidth, source
                assert out.period == want.period, source
                assert out.grants == want.grants, source
                assert out.steady_start == want.steady_start, source
                assert out.cycles == want.cycles, source
            assert len({id(out) for out in outs}) == 3, source

    def test_memo_hits_across_batches(self):
        ex = SweepExecutor()
        ex.run_one(_job())
        ex.run_one(_job())
        assert ex.stats.executed == 1
        assert ex.stats.hits == 1

    def test_results_match_direct_run(self):
        ex = SweepExecutor()
        jobs = jobs_for_offsets(CFG, 1, 7, range(12))
        for job, out in zip(jobs, ex.run_many(jobs)):
            direct = run(job)
            assert out.bandwidth == direct.bandwidth
            assert out.period == direct.period
            assert out.grants == direct.grants
            assert out.steady_start == direct.steady_start


class TestDiskCache:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "store"
        first = SweepExecutor(store_path=path).run_one(_job())
        assert len(ResultStore(path)) == 1

        warm = SweepExecutor(store_path=path)
        out = warm.run_one(_job())
        assert warm.stats.executed == 0
        assert warm.stats.hits == 1
        assert out.bandwidth == first.bandwidth
        assert out.period == first.period
        assert out.grants == first.grants
        assert out.backend.startswith("cache:")

    def test_second_sweep_served_from_store(self, tmp_path):
        jobs = jobs_for_offsets(CFG, 1, 7, range(12))
        unique = len({j.cache_key() for j in jobs})
        for workers in (1, 2):
            path = tmp_path / f"store-{workers}"
            first = SweepExecutor(workers=workers, store_path=path).run_many(
                jobs
            )
            assert len(ResultStore(path)) == unique

            warm = SweepExecutor(workers=workers, store_path=path)
            with capture_metrics() as reg:
                outs = warm.run_many(jobs)
            assert warm.stats.executed == 0, workers
            assert reg.counter(obs_names.STORE_HITS).value == unique
            assert [o.to_payload() for o in outs] == [
                o.to_payload() for o in first
            ]
            assert all(o.backend.startswith("cache:") for o in outs)

    def test_pool_populates_explicit_store(self, tmp_path):
        jobs = jobs_for_offsets(CFG, 1, 7, range(12))
        ex = SweepExecutor(
            backend="fast", workers=2, store_path=tmp_path / "store"
        )
        outs = ex.run_many(jobs)
        assert len(outs) == len(jobs)
        # The store holds the raw executed payloads (backend untagged).
        store = ResultStore(tmp_path / "store")
        for j in jobs:
            assert store.get(j.cache_key()) == run(
                j, backend="fast"
            ).to_payload()

    def test_pool_scheduler_also_publishes_to_store(self, tmp_path):
        jobs = jobs_for_offsets(CFG, 1, 7, range(12))
        ex = SweepExecutor(
            backend="fast", workers=2, store_path=tmp_path / "store"
        )
        ex.run_many(jobs)
        store = ResultStore(tmp_path / "store")
        assert set(store.keys()) == {j.cache_key() for j in jobs}

    def test_prepublished_entries_are_hits_under_pool(self, tmp_path):
        # Results already in the store when the sweep starts (another
        # process, an earlier killed sweep) are hits, not executions.
        jobs = jobs_for_offsets(CFG, 1, 7, range(12))
        published = {
            j.cache_key(): run(j, backend="fast").to_payload()
            for j in jobs[:6]
        }
        ResultStore(tmp_path / "store").put_many(published)
        ex = SweepExecutor(
            backend="fast", workers=2, store_path=tmp_path / "store"
        )
        outs = ex.run_many(jobs)
        unique = {j.cache_key() for j in jobs}
        assert ex.stats.hits == len(published)
        assert ex.stats.executed == len(unique) - len(published)
        clean = SweepExecutor(backend="fast").run_many(jobs)
        assert [o.to_payload() for o in outs] == [
            o.to_payload() for o in clean
        ]

    def test_version_mismatch_quarantined(self, tmp_path):
        # A stale entry is a miss: the job re-runs and is rewritten.
        store = ResultStore(tmp_path)
        key = _job().cache_key()
        SweepExecutor(store_path=tmp_path).run_one(_job())
        path = store.path_for(key)
        path.write_text(json.dumps({**json.loads(path.read_text()), "version": 0}))
        ex = SweepExecutor(store_path=tmp_path)
        with pytest.warns(RuntimeWarning, match="version-mismatched"):
            ex.run_one(_job())
        assert ex.stats.executed == 1
        assert path.with_suffix(".json.corrupt").exists()
        assert store.get(key) is not None

    def test_eviction_bound(self):
        ex = SweepExecutor(max_memo=3)
        ex.run_many(jobs_for_offsets(CFG, 1, 7, range(12)))
        assert len(ex) <= 3

    def test_eviction_does_not_break_batches(self):
        # A batch larger than max_memo must still return every outcome.
        ex = SweepExecutor(max_memo=2)
        outs = ex.run_many(jobs_for_offsets(CFG, 1, 7, range(12)))
        assert len(outs) == 12


class TestLruMemo:
    """Regression: the memo is genuine LRU, not insertion-order FIFO."""

    def test_hit_refreshes_recency(self):
        a, b, c = (_job(1), _job(2), _job(3))
        ex = SweepExecutor(max_memo=2)
        ex.run_many([a, b])           # memo: [a, b]
        ex.run_one(a)                 # hit refreshes a -> memo: [b, a]
        executed = ex.stats.executed
        ex.run_one(c)                 # evicts b (LRU), not a
        assert ex.stats.executed == executed + 1
        ex.run_one(a)                 # still cached
        assert ex.stats.executed == executed + 1
        ex.run_one(b)                 # evicted: must re-run
        assert ex.stats.executed == executed + 2

    def test_fresh_results_survive_their_own_batch(self):
        # Without evict-before-insert, a full memo evicts the batch's
        # own results the moment they land.
        ex = SweepExecutor(max_memo=3)
        ex.run_many(jobs_for_offsets(CFG, 1, 7, range(3)))   # fill memo
        ex.run_many(jobs_for_offsets(CFG, 1, 7, [3, 4, 5]))  # displace it
        executed = ex.stats.executed
        ex.run_many(jobs_for_offsets(CFG, 1, 7, [3, 4, 5]))
        assert ex.stats.executed == executed  # all three were retained

    def test_held_hits_survive_same_batch_eviction(self):
        # A cache hit whose memo entry is evicted by the same batch's
        # fresh results must still be returned intact.
        ex = SweepExecutor(max_memo=1)
        first = ex.run_one(_job(1))
        outs = ex.run_many([_job(1), _job(2), _job(3)])
        assert outs[0].bandwidth == first.bandwidth
        assert outs[0].grants == first.grants
        assert len(ex) == 1


class TestPeek:
    def test_miss_and_trace_jobs_return_none(self):
        ex = SweepExecutor(backend="fast")
        job = _job()
        assert ex.peek(job, job.cache_key()) is None
        ex.run_one(job)
        traced = SimJob.from_specs(CFG, [(0, 1), (5, 7)], trace=4)
        assert ex.peek(traced, traced.cache_key()) is None
        assert ex.stats.executed == 1

    def test_peek_may_overlap_one_run_many(self, tmp_path):
        """The service peeks on its event loop while the drain thread
        runs ``run_many``: with a full memo, peek's LRU refresh and
        store promotion must not break the drain's eviction, and every
        peeked outcome must stay exact.  Bounded to about 2 s."""
        hot = [_job(b2) for b2 in (1, 2, 3, 4)]
        keys = [job.cache_key() for job in hot]
        assert len(set(keys)) == len(hot)
        ex = SweepExecutor(backend="fast", max_memo=8, store_path=tmp_path)
        expected = [out.to_payload() for out in ex.run_many(hot)]
        assert [want["bandwidth"] for want in expected] == [
            run(job, backend="fast").to_payload()["bandwidth"] for job in hot
        ]
        novel = [
            SimJob.from_specs(MemoryConfig(banks=m, bank_cycle=3), [(0, 1), (b, d)])
            for m in range(13, 40)
            for d in range(1, m)
            for b in range(1, 3)
        ]
        errors: list[Exception] = []
        stop = threading.Event()

        def drain() -> None:
            try:
                for i in range(0, len(novel), 4):
                    if stop.is_set():
                        break
                    ex.run_many(novel[i : i + 4])
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            finally:
                stop.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        worker = threading.Thread(target=drain)
        peeks = 0
        try:
            worker.start()
            deadline = time.monotonic() + 2.0
            while not stop.is_set() and time.monotonic() < deadline:
                for job, key, want in zip(hot, keys, expected):
                    hit = ex.peek(job, key)
                    assert hit is not None  # memo, or the store behind it
                    assert hit[0].to_payload() == want
                    peeks += 1
        finally:
            stop.set()
            worker.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert errors == []
        assert peeks > 0
        assert ex.stats.executed > len(hot)


def _fig8a(max_cycles: int = 1_000_000) -> SimJob:
    """The Fig. 8(a) linked conflict: b_eff 3/2, ``mu + lam`` = 4 + 16."""
    return SimJob(
        banks=12, bank_cycle=3, sections=3, streams=((0, 1), (1, 1)),
        cpus=(0, 0), max_cycles=max_cycles,
    )


BOUND_ERROR = "no cyclic state within 3 cycles (state space exhausted the bound)"


class TestBounds:
    """A cached answer counts for a job only within the job's own
    ``max_cycles``; the key leaves the bound out."""

    def test_bounded_job_raises_after_its_twin_ran(self):
        ex = SweepExecutor(backend="auto")
        with pytest.raises(RuntimeError, match="within 3 cycles"):
            run(_fig8a(3), backend="fast")
        assert ex.run_one(_fig8a()).bandwidth == Fraction(3, 2)
        with pytest.raises(RuntimeError) as err:
            ex.run_one(_fig8a(3))
        assert str(err.value) == BOUND_ERROR

    def test_twins_in_one_batch_run_at_the_loosest_bound(self):
        ex = SweepExecutor(backend="auto", retry=RetryPolicy(max_retries=0))
        bounded, unbounded = ex.run_many([_fig8a(3), _fig8a()])
        assert bounded.failed and bounded.error == f"RuntimeError: {BOUND_ERROR}"
        assert bounded.job == _fig8a(3)
        assert unbounded.bandwidth == Fraction(3, 2)
        assert (ex.stats.executed, ex.stats.deduped) == (1, 1)

    @pytest.mark.parametrize("strict", [False, True])
    def test_memo_and_store_hits_respect_the_bound(self, tmp_path, strict):
        policy = RetryPolicy(max_retries=0, strict=strict)
        ex = SweepExecutor(backend="auto", retry=policy, store_path=tmp_path)
        ex.run_one(_fig8a())
        fresh = SweepExecutor(backend="auto", retry=policy, store_path=tmp_path)
        for executor in (ex, fresh):
            if strict:
                with pytest.raises(SweepFailureError) as err:
                    executor.run_one(_fig8a(3))
                [failure] = err.value.failures
            else:
                failure = executor.run_one(_fig8a(3))
            assert failure.error == f"RuntimeError: {BOUND_ERROR}"
            assert executor.run_one(_fig8a(20)).cycles == 20
        assert (fresh.stats.executed, fresh.stats.failures) == (0, 0)

    def test_peek_misses_past_the_bound(self, tmp_path):
        ex = SweepExecutor(backend="auto", store_path=tmp_path)
        ex.run_one(_fig8a())
        key = _fig8a().cache_key()
        assert ex.peek(_fig8a(3), key) is None
        assert ex.peek(_fig8a(20), key)[1] == "memo"
        fresh = SweepExecutor(backend="auto", store_path=tmp_path)
        # A miss promotes nothing: the first answer still reads "store".
        assert fresh.peek(_fig8a(19), key) is None
        assert fresh.peek(_fig8a(20), key)[1] == "store"
        assert fresh.peek(_fig8a(19), key) is None
        assert fresh.peek(_fig8a(20), key)[1] == "memo"

    def test_served_bounded_job_fails_before_and_after_its_twin(self):
        import asyncio

        from repro.serve.app import BandwidthService

        # The served executor's policy: a failing job answers 502.
        drain = RetryPolicy(max_retries=0, backoff_base_ms=0)
        service = BandwidthService(
            executor=SweepExecutor(backend="auto", retry=drain)
        )

        def post(job: SimJob) -> tuple[int, dict]:
            body = {
                "banks": 12, "bank_cycle": 3, "sections": 3,
                "streams": [list(s) for s in job.streams],
                "cpus": list(job.cpus), "max_cycles": job.max_cycles,
            }
            status, _, raw, _ = asyncio.run(
                service.dispatch("POST", "/v1/beff", json.dumps(body).encode())
            )
            return status, json.loads(raw)

        for job in (_fig8a(3), _fig8a(), _fig8a(3)):
            status, body = post(job)
            if job.max_cycles == 3:
                assert (status, body["error"]["mode"]) == (502, "failed-job")
                assert BOUND_ERROR in body["error"]["message"]
            else:
                assert (status, body["bandwidth"]) == (200, "3/2")


class TestStats:
    def test_as_dict_carries_every_counter(self):
        ex = SweepExecutor(max_memo=3)
        ex.run_many(jobs_for_offsets(CFG, 1, 7, range(12)))
        d = ex.stats.as_dict()
        assert set(d) == {
            "submitted", "hits", "deduped", "executed", "evictions",
            "retries", "failures", "recovered",
        }
        assert d["submitted"] == 12
        assert d["evictions"] == ex.stats.evictions

    def test_evictions_counted(self):
        ex = SweepExecutor(max_memo=3)
        ex.run_many(jobs_for_offsets(CFG, 1, 7, range(12)))
        unique = ex.stats.executed
        assert unique > 3
        assert ex.stats.evictions == unique - 3
        assert len(ex) == 3

    def test_no_evictions_below_bound(self):
        ex = SweepExecutor()
        ex.run_many(jobs_for_offsets(CFG, 1, 7, range(12)))
        assert ex.stats.evictions == 0
        assert ex.stats.as_dict()["evictions"] == 0


class TestWorkersAndModes:
    def test_parallel_matches_inline(self):
        jobs = jobs_for_offsets(FIG2_CONFIG, 1, 7, range(12))
        inline = SweepExecutor(workers=1).run_many(jobs)
        parallel = SweepExecutor(workers=2).run_many(jobs)
        assert [o.bandwidth for o in inline] == [o.bandwidth for o in parallel]
        assert [o.grants for o in inline] == [o.grants for o in parallel]

    def test_inline_path_is_one_batch_call(self):
        # Workers=1 hands the whole deduped batch to the backend's
        # run_batch in a single call (shared per-shape tables).
        from repro.runner import executor as executor_mod

        calls: list[int] = []
        original = executor_mod._execute_payload_batch

        def spy(args):
            calls.append(len(args[0]))
            return original(args)

        jobs = jobs_for_offsets(FIG2_CONFIG, 1, 7, range(6))
        try:
            executor_mod._execute_payload_batch = spy
            outs = SweepExecutor(workers=1).run_many(jobs)
        finally:
            executor_mod._execute_payload_batch = original
        assert calls == [len({j.cache_key() for j in jobs})]
        direct = [run(j) for j in jobs]
        assert [o.bandwidth for o in outs] == [o.bandwidth for o in direct]

    def test_pool_chunks_cover_awkward_batch_sizes(self):
        # Regression for the chunksize math: ceil division (the old
        # floor division degenerated to single-job chunks, one pickle
        # round trip each).  An odd-sized batch over several workers
        # must come back complete and in order.
        jobs = jobs_for_offsets(MemoryConfig(banks=13, bank_cycle=4), 1, 3, range(13))
        pooled = SweepExecutor(workers=3).run_many(jobs)
        direct = [run(j) for j in jobs]
        assert [o.grants for o in pooled] == [o.grants for o in direct]
        assert [o.bandwidth for o in pooled] == [o.bandwidth for o in direct]

    def test_backend_override(self):
        ex = SweepExecutor(backend="fast")
        out = ex.run_one(_job())
        # executor outcomes are rebuilt from cache payloads; the tag
        # still records which backend produced the numbers
        assert out.backend == "cache:fast"
        ref = SweepExecutor().run_one(_job())
        assert out.bandwidth == ref.bandwidth

    def test_trace_jobs_bypass_cache(self):
        job = SimJob.from_specs(
            CFG, [(0, 1), (5, 7)], steady=False, cycles=20, trace=True
        )
        ex = SweepExecutor()
        out = ex.run_many([job, job])
        assert ex.stats.executed == 2  # never cached
        assert all(o.result is not None for o in out)
        assert len(ex) == 0


class TestChunkSize:
    def test_base_split_is_four_chunks_per_worker(self):
        from repro.runner.scheduling import chunk_size

        assert chunk_size(100, 4, 1) == 7  # ceil(100 / 16)
        assert chunk_size(3, 4, 1) == 1  # never zero

    def test_preferred_chunk_widens_the_split(self):
        from repro.runner.scheduling import chunk_size

        # A batching backend asks for big chunks and gets them...
        assert chunk_size(100, 4, 4096) == 25  # ceil(100 / 4)
        # ...capped at one chunk per worker (all workers stay busy).
        assert chunk_size(8192, 4, 4096) == 2048
        # A huge batch already exceeds the hint: the base split stands.
        assert chunk_size(100_000, 4, 4096) == 6250
        # A modest hint below the base split changes nothing.
        assert chunk_size(100, 4, 2) == 7

    def test_batch_backend_pooled_sweep_matches_inline(self):
        jobs = jobs_for_offsets(FIG2_CONFIG, 1, 7, range(12))
        inline = SweepExecutor(backend="batch", workers=1).run_many(jobs)
        pooled = SweepExecutor(backend="batch", workers=2).run_many(jobs)
        direct = [run(j) for j in jobs]
        assert [o.bandwidth for o in inline] == [o.bandwidth for o in direct]
        assert [o.grants for o in pooled] == [o.grants for o in direct]

    def test_clear(self):
        ex = SweepExecutor()
        ex.run_one(_job())
        assert len(ex) == 1
        ex.clear()
        assert len(ex) == 0


def test_default_executor_is_process_wide():
    assert default_executor() is default_executor()
