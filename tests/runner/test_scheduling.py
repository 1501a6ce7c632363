"""The scheduler split: chunk planning, work stealing, placement.

Companion to docs/RUNNER.md "Scheduling".  Scheduler *equivalence*
(bit-identical outcomes across inline and pool placements) is the path
harness's ``check_executor`` (tests/property/paths.py).
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.memory.config import MemoryConfig
from repro.obs import capture_metrics, capture_spans
from repro.obs import names as obs_names
from repro.runner import ChunkRunner, SweepExecutor, jobs_for_offsets
from repro.runner.executor import ExecutorStats
from repro.runner.scheduling import (
    _ChunkTask,
    _stop_pool,
    chunk_size,
    preferred_chunk,
)

CFG = MemoryConfig(banks=12, bank_cycle=3)


def _items(n: int):
    jobs = jobs_for_offsets(CFG, 1, 7, range(n))
    return [(job.cache_key(), job) for job in jobs]


def _runner(backend: str = "fast") -> ChunkRunner:
    return ChunkRunner(
        backend=backend,
        retry=None,
        stats=ExecutorStats(),
        on_chunk=lambda chunk, payloads, ran: ran.update(
            {k: p for (k, _), p in zip(chunk, payloads)}
        ),
    )


class TestChunkSizeBoundaries:
    """The tiny-sweep fix: chunks shrink so no worker sits idle."""

    @pytest.mark.parametrize(
        "n_items,workers,preferred,expected",
        [
            # base split: ceil of four chunks per worker, never zero
            (100, 4, 1, 7),
            (3, 4, 1, 1),
            # a batching backend's hint widens the split...
            (100, 4, 4096, 25),
            # ...capped at one chunk per worker (all workers stay busy)
            (8192, 4, 4096, 2048),
            # a huge batch already exceeds the hint: the base split stands
            (100_000, 4, 4096, 6250),
            # a modest hint below the base split changes nothing
            (100, 4, 2, 7),
            # n_items < workers: one job per chunk, never idle workers
            (3, 4, 4096, 1),
            (1, 8, 32, 1),
            (7, 8, 4096, 1),
            # workers <= n_items < workers * preferred: floor division
            (10, 8, 4, 1),
            (5, 4, 4096, 1),
            (9, 4, 32, 2),
            (100, 8, 32, 12),
            # exact boundary n_items == workers * preferred
            (16, 4, 4, 4),
            (15, 4, 4, 3),
            (17, 4, 4, 4),
        ],
    )
    def test_grid(self, n_items, workers, preferred, expected):
        assert chunk_size(n_items, workers, preferred) == expected

    @pytest.mark.parametrize("n_items", [1, 3, 5, 9, 17, 64, 257])
    @pytest.mark.parametrize("workers", [2, 4, 8])
    @pytest.mark.parametrize("preferred", [1, 4, 32, 4096])
    def test_every_worker_gets_a_chunk(self, n_items, workers, preferred):
        size = chunk_size(n_items, workers, preferred)
        assert size >= 1
        n_chunks = -(-n_items // size)
        assert n_chunks >= min(n_items, workers)


class TestPlan:
    def test_empty(self):
        assert _runner().plan([], 4) == []

    def test_inline_is_one_chunk(self):
        items = _items(9)
        assert _runner().plan(items, 1) == [items]

    def test_chunks_partition_in_order(self):
        items = _items(12)
        chunks = _runner().plan(items, 4)
        assert len(chunks) > 1
        assert [pair for chunk in chunks for pair in chunk] == items

    def test_backend_hint_resolution(self):
        assert preferred_chunk("batch") >= 1024
        assert preferred_chunk("reference") == 1

    def test_preferred_chunk_caps_by_worker_count(self):
        # fast advertises preferred_chunk=32; 12 items over 4 workers
        # must still fan out (floor 12 // 4 = 3 per chunk).
        chunks = _runner("fast").plan(_items(12), 4)
        assert len(chunks) == 4
        assert all(len(c) == 3 for c in chunks)


class TestPoolStealing:
    def test_steal_splits_largest_clean_chunk(self):
        runner = _runner()
        big, small = _items(8), _items(2)
        queue = deque([_ChunkTask(small), _ChunkTask(big)])
        with capture_metrics() as reg, capture_spans() as rec:
            runner._steal(queue, idle=3)
        sizes = sorted(len(t.chunk) for t in queue)
        assert sizes == [2, 4, 4]
        steals = reg.counter(obs_names.SCHED_STEALS, scheduler="pool")
        assert steals.value == 1
        assert any(
            s.name == obs_names.SPAN_EXECUTOR_STEAL for s in rec.spans
        )

    def test_no_steal_when_queue_covers_idle_slots(self):
        runner = _runner()
        queue = deque(_ChunkTask(_items(4)) for _ in range(3))
        runner._steal(queue, idle=3)
        assert all(len(t.chunk) == 4 for t in queue)

    def test_troubled_and_singleton_chunks_are_never_split(self):
        runner = _runner()
        troubled = _ChunkTask(_items(8), troubled=True)
        single = _ChunkTask(_items(1))
        queue = deque([troubled, single])
        runner._steal(queue, idle=8)
        assert [len(t.chunk) for t in queue] == [8, 1]


class TestSchedulerSelection:
    def test_default_resolution(self):
        assert SweepExecutor()._resolve_scheduler().name == "inline"
        assert SweepExecutor(workers=3)._resolve_scheduler().name == "pool"

    def test_chunk_counter_labels_scheduler(self):
        ex = SweepExecutor(backend="fast")
        with capture_metrics() as reg:
            ex.run_many(jobs_for_offsets(CFG, 1, 7, range(6)))
        chunks = reg.counter(obs_names.SCHED_CHUNKS, scheduler="inline")
        assert chunks.value == 1


class TestStopPool:
    def test_hung_pool_manager_thread_is_joined(self):
        # Once the workers are terminated the manager thread closes the
        # pool's wakeup pipe; the interpreter's exit hook writes to that
        # pipe, so the thread must be gone when _stop_pool returns.
        pool = ProcessPoolExecutor(max_workers=2)
        hung = [pool.submit(time.sleep, 60) for _ in range(2)]
        manager = pool._executor_manager_thread
        try:
            deadline = time.monotonic() + 10
            while not all(f.running() for f in hung):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert manager is not None and manager.is_alive()
        finally:
            _stop_pool(pool)
        assert not manager.is_alive()
