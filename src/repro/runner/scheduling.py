"""Scheduling layer: *what runs where*, split from *how a chunk runs*.

Historically :class:`~repro.runner.executor.SweepExecutor` owned both
halves of sweep execution: the mechanics of running one chunk (payload
encode/decode, retry, bisection, pool rebuilds) and the policy of
spreading chunks over compute.  This module separates them:

* :class:`ChunkRunner` is the **execution core** — it plans chunks by
  the backend's ``preferred_chunk`` hint, dispatches one chunk through
  the module-level pool worker, banks finished payloads through the
  executor's memo/store callback, and owns the full
  retry/bisection state machine from :mod:`repro.runner.resilience`.
* A scheduler decides *where* chunks go; the executor's ``workers``
  count picks one of two over the same core:

  - :class:`InlineScheduler` — everything in the orchestrating process
    (``workers=1``, the degrade path, and the semantics baseline the
    pool must reproduce bit-identically);
  - :class:`PoolScheduler` — a local process pool fed from a shared
    work queue, with **work stealing**: when workers go idle and the
    queue runs short, the largest queued chunk is split in half so
    stragglers drain across the pool.

Both return ``(ran, failed)`` payload maps keyed by canonical job key;
the executor folds them back into input order.  All retry accounting
(``retries``/``failures``/``recovered`` stats, backoff schedule,
bisection splits) flows through the shared :class:`ChunkRunner`
helpers, so both surface identical
:class:`~repro.runner.resilience.FailedOutcome` values for the same
failing population.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from ..obs import metrics as _metrics
from ..obs import names as _names
from ..obs import trace as _trace
from .job import SimJob
from .resilience import FailedOutcome, RetryPolicy, sleep_ms

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .executor import ExecutorStats

__all__ = [
    "ChunkRunner",
    "InlineScheduler",
    "PoolScheduler",
    "chunk_size",
]

#: One unit of dispatchable work: a chunk of (cache_key, job) pairs.
_Chunk = list[tuple[str, SimJob]]

#: A pool worker's argument bundle: the chunk's jobs plus backend name.
_PayloadArgs = tuple[list[SimJob], "str | None"]


@dataclass
class _ChunkTask:
    """One chunk's dispatch state while a batch is being recovered."""

    chunk: _Chunk
    #: dispatches of this exact chunk so far (0 = not yet dispatched)
    attempt: int = 0
    #: True once any dispatch covering these jobs has failed
    troubled: bool = False
    #: last failure description (becomes FailedOutcome.error)
    error: str = ""


def preferred_chunk(backend: str | None) -> int:
    """The dispatched backend's advertised chunk-size hint (``1`` when
    the backend does not advertise one)."""
    from .backends import resolve_backend

    return getattr(resolve_backend(backend), "preferred_chunk", 1)


def _load_batch_kernel(backend: str | None, chunks: Sequence[_Chunk]) -> None:
    """Import the NumPy batch kernel before a pool forks when one of its
    chunks may run it, so forked workers inherit the module instead of
    each importing NumPy once per pool.  ``auto`` batches only chunks
    of at least ``BATCH_MIN_POPULATION`` jobs."""
    from .analytic import BATCH_MIN_POPULATION
    from .backends import resolve_backend

    name = resolve_backend(backend).name
    if name == "batch" or (
        name == "auto" and max(map(len, chunks)) >= BATCH_MIN_POPULATION
    ):
        from . import batchsim  # noqa: F401 - imported for its side effect


def chunk_size(n_items: int, workers: int, preferred: int) -> int:
    """Pooled chunk size honouring the backend's ``preferred_chunk``.

    The base split (ceil of four chunks per worker) balances per-job
    Python dispatch against pool latency hiding.  Backends that batch
    internally — the SoA ``batch`` core above all — advertise a larger
    ``preferred_chunk``; the split then widens up to that hint, but
    never past the floor of one chunk per worker: on a tiny sweep
    (``n_items < workers * preferred``) chunks shrink — to a single job
    each when ``n_items < workers`` — so no worker sits idle while a
    sibling runs a multi-job chunk.
    """
    base = -(-n_items // (4 * workers))
    if preferred > base:
        return min(preferred, max(1, n_items // workers))
    return base


class ChunkRunner:
    """The execution core every scheduler drives.

    Owns everything below the placement decision: chunk planning,
    payload dispatch through the (monkeypatchable, picklable)
    module-level worker in ``repro.runner.executor``, the inline
    retry/bisection state machine, and the shared failure-accounting
    helpers.  Completed chunks are banked through ``on_chunk`` — the
    executor's memoize/store-publish hook — so caching behaviour is
    identical no matter which scheduler ran the chunk.
    """

    def __init__(
        self,
        *,
        backend: str | None,
        retry: RetryPolicy | None,
        stats: "ExecutorStats",
        on_chunk: Callable[[_Chunk, list[dict], dict[str, dict]], None],
    ) -> None:
        self.backend = backend
        self.retry = retry
        self.stats = stats
        self.on_chunk = on_chunk

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, items: _Chunk, workers: int) -> list[_Chunk]:
        """Split a batch into dispatchable chunks (one chunk inline)."""
        if not items:
            return []
        if workers <= 1 or len(items) <= 1:
            return [list(items)]
        size = chunk_size(len(items), workers, preferred_chunk(self.backend))
        return [items[i : i + size] for i in range(0, len(items), size)]

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def batch_fn(self) -> Callable[[_PayloadArgs], list[dict]]:
        """The module-level pool worker, resolved late so tests can
        monkeypatch ``repro.runner.executor._execute_payload_batch``."""
        from . import executor

        return executor._execute_payload_batch

    def payload_args(self, chunk: _Chunk) -> _PayloadArgs:
        return ([job for _, job in chunk], self.backend)

    def run_chunk(self, chunk: _Chunk) -> list[dict]:
        """Execute one chunk in the current process."""
        fn = self.batch_fn()
        return fn(self.payload_args(chunk))

    def dispatch_inline(self, task: _ChunkTask) -> list[dict]:
        """One in-process chunk execution (recovery dispatches traced)."""
        if not task.troubled and task.attempt == 0:
            return self.run_chunk(task.chunk)
        with _trace.span(
            _names.SPAN_EXECUTOR_RECOVERY,
            jobs=len(task.chunk),
            attempt=task.attempt,
        ):
            return self.run_chunk(task.chunk)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def observe_chunk(self, chunk: _Chunk, scheduler: str) -> None:
        """Record one planned (or stolen-split) chunk's size."""
        reg = _metrics.active_metrics()
        if reg is not None:
            reg.histogram(_names.EXECUTOR_CHUNK_JOBS).observe(len(chunk))
            reg.counter(_names.SCHED_CHUNKS, scheduler=scheduler).inc()

    def complete(
        self,
        task: _ChunkTask,
        payloads: list[dict],
        ran: dict[str, dict],
    ) -> None:
        """Bank a finished chunk and credit recovery if it had failed."""
        self.on_chunk(task.chunk, payloads, ran)
        if task.troubled:
            self.stats.recovered += len(task.chunk)

    def requeue(
        self,
        task: _ChunkTask,
        pending: deque[_ChunkTask],
        failed: dict[str, FailedOutcome],
    ) -> None:
        """Route a failed chunk: retry, bisect, or record the failure."""
        policy = self.retry
        assert policy is not None
        task.troubled = True
        if task.attempt < policy.max_retries:
            task.attempt += 1
            pending.append(task)
        elif len(task.chunk) > 1:
            # Retry budget exhausted for the whole chunk: split it to
            # corner the poisoned job(s); each half gets a fresh budget.
            mid = len(task.chunk) // 2
            for half in (task.chunk[:mid], task.chunk[mid:]):
                pending.append(
                    _ChunkTask(half, troubled=True, error=task.error)
                )
        else:
            self.record_failure(task, failed)

    def record_failure(
        self, task: _ChunkTask, failed: dict[str, FailedOutcome]
    ) -> None:
        """An isolated singleton chunk is out of options: record it."""
        key, job = task.chunk[0]
        self.stats.failures += 1
        failed[key] = FailedOutcome(
            job=job,
            error=task.error or "unknown failure",
            attempts=task.attempt + 1,
        )

    # ------------------------------------------------------------------
    # The inline state machine (also every scheduler's degrade path)
    # ------------------------------------------------------------------
    def run_inline(
        self,
        chunks: Sequence[_Chunk],
        ran: dict[str, dict],
        failed: dict[str, FailedOutcome],
        troubled: bool = False,
    ) -> None:
        """Run chunks in-process, with retry + bisection under a policy."""
        policy = self.retry
        for chunk in chunks:
            if policy is None:
                # Historical fail-fast path: errors propagate untouched.
                self.on_chunk(chunk, self.run_chunk(chunk), ran)
                continue
            task = _ChunkTask(list(chunk), troubled=troubled)
            while True:
                if task.troubled or task.attempt > 0:
                    self.stats.retries += 1
                    sleep_ms(policy.backoff_ms(max(task.attempt, 1)))
                try:
                    payloads = self.dispatch_inline(task)
                except Exception as exc:  # noqa: BLE001 - isolation layer
                    task.troubled = True
                    task.error = f"{type(exc).__name__}: {exc}"
                    if task.attempt < policy.max_retries:
                        task.attempt += 1
                        continue
                    if len(task.chunk) > 1:
                        mid = len(task.chunk) // 2
                        halves = [task.chunk[:mid], task.chunk[mid:]]
                        self.run_inline(halves, ran, failed, troubled=True)
                    else:
                        self.record_failure(task, failed)
                    break
                else:
                    self.complete(task, payloads, ran)
                    break


class InlineScheduler:
    """Everything in the orchestrating process: the semantics baseline
    (and the degrade target when pools keep dying)."""

    name = "inline"

    def execute(
        self, items: _Chunk, runner: ChunkRunner
    ) -> tuple[dict[str, dict], dict[str, FailedOutcome]]:
        ran: dict[str, dict] = {}
        failed: dict[str, FailedOutcome] = {}
        chunks = runner.plan(items, 1)
        for chunk in chunks:
            runner.observe_chunk(chunk, self.name)
        runner.run_inline(chunks, ran, failed)
        return ran, failed


class PoolScheduler:
    """A local process pool fed from a shared work queue, with stealing.

    Chunks wait in one deque; each worker slot holds at most one chunk
    in flight, so the coordinator always knows what is queued versus
    running.  When completed slots outnumber the queue — idle capacity
    with stragglers still running — the largest queued chunk is split
    in half (an ``executor.steal`` span per split), so late work fans
    out over the free workers instead of serializing behind one slot.

    With a :class:`~repro.runner.resilience.RetryPolicy` attached the
    full recovery ladder applies at this level: failed chunks retry on
    the deterministic backoff schedule and bisect down to singletons,
    broken pools salvage finished futures and rebuild, a hung pool
    (no progress within ``chunk_timeout``) is condemned wholesale, and
    after ``degrade_after`` rebuilds the remaining queue drains through
    :meth:`ChunkRunner.run_inline`.
    """

    name = "pool"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("worker count must be positive")
        self.workers = workers

    def execute(
        self, items: _Chunk, runner: ChunkRunner
    ) -> tuple[dict[str, dict], dict[str, FailedOutcome]]:
        ran: dict[str, dict] = {}
        failed: dict[str, FailedOutcome] = {}
        chunks = runner.plan(items, self.workers)
        for chunk in chunks:
            runner.observe_chunk(chunk, self.name)
        if self.workers == 1 or len(chunks) <= 1:
            runner.run_inline(chunks, ran, failed)
            return ran, failed
        _load_batch_kernel(runner.backend, chunks)
        with _trace.span(
            _names.SPAN_EXECUTOR_POOL,
            chunks=len(chunks),
            workers=self.workers,
        ):
            if runner.retry is None:
                self._execute_failfast(chunks, runner, ran)
            else:
                self._execute_recovering(chunks, runner, ran, failed)
        return ran, failed

    # ------------------------------------------------------------------
    def _steal_split(
        self, queue: deque[_ChunkTask], busy: int, runner: ChunkRunner
    ) -> None:
        """Split queued stragglers while idle slots outnumber the queue.

        Only clean chunks (never dispatched, never failed) are split:
        troubled chunks already carry retry/bisection state that must
        stay intact.
        """
        idle = self.workers - busy
        while len(queue) < idle:
            victim: _ChunkTask | None = None
            for task in queue:
                if len(task.chunk) < 2 or task.troubled or task.attempt:
                    continue
                if victim is None or len(task.chunk) > len(victim.chunk):
                    victim = task
            if victim is None:
                return
            queue.remove(victim)
            with _trace.span(
                _names.SPAN_EXECUTOR_STEAL,
                jobs=len(victim.chunk),
                scheduler=self.name,
            ):
                reg = _metrics.active_metrics()
                if reg is not None:
                    reg.counter(
                        _names.SCHED_STEALS, scheduler=self.name
                    ).inc()
                mid = len(victim.chunk) // 2
                for part in (victim.chunk[:mid], victim.chunk[mid:]):
                    runner.observe_chunk(part, self.name)
                    queue.append(_ChunkTask(part))

    # ------------------------------------------------------------------
    def _execute_failfast(
        self,
        chunks: Sequence[_Chunk],
        runner: ChunkRunner,
        ran: dict[str, dict],
    ) -> None:
        """No policy: first error propagates, pool torn down behind it."""
        from concurrent.futures import (
            FIRST_COMPLETED,
            Future,
            ProcessPoolExecutor,
            wait,
        )

        queue: deque[_ChunkTask] = deque(_ChunkTask(c) for c in chunks)
        running: dict[Future[list[dict]], _ChunkTask] = {}
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            try:
                while queue or running:
                    self._steal_split(queue, len(running), runner)
                    while queue and len(running) < self.workers:
                        task = queue.popleft()
                        fn = runner.batch_fn()
                        fut = pool.submit(fn, runner.payload_args(task.chunk))
                        running[fut] = task
                    done, _ = wait(
                        set(running), return_when=FIRST_COMPLETED
                    )
                    for fut in done:
                        task = running.pop(fut)
                        runner.complete(task, fut.result(), ran)
            except BaseException:
                pool.shutdown(wait=False, cancel_futures=True)
                raise

    # ------------------------------------------------------------------
    def _execute_recovering(
        self,
        chunks: Sequence[_Chunk],
        runner: ChunkRunner,
        ran: dict[str, dict],
        failed: dict[str, FailedOutcome],
    ) -> None:
        """Policy-governed fan-out: retry, salvage, rebuild, degrade."""
        from concurrent.futures import (
            FIRST_COMPLETED,
            BrokenExecutor,
            Future,
            ProcessPoolExecutor,
            wait,
        )

        policy = runner.retry
        assert policy is not None
        queue: deque[_ChunkTask] = deque(_ChunkTask(c) for c in chunks)
        running: dict[Future[list[dict]], _ChunkTask] = {}
        rebuilds = 0
        reg = _metrics.active_metrics()
        pool = ProcessPoolExecutor(max_workers=self.workers)
        try:
            while queue or running:
                if rebuilds > policy.degrade_after:
                    # The pool keeps dying: stop trusting it and run
                    # the remainder inline (retry/bisection intact).
                    while queue:
                        task = queue.popleft()
                        runner.run_inline(
                            [task.chunk], ran, failed,
                            troubled=task.troubled,
                        )
                    return
                self._steal_split(queue, len(running), runner)
                broken = False
                while queue and len(running) < self.workers:
                    task = queue.popleft()
                    if task.troubled or task.attempt > 0:
                        runner.stats.retries += 1
                        sleep_ms(policy.backoff_ms(max(task.attempt, 1)))
                    fn = runner.batch_fn()
                    try:
                        fut = pool.submit(
                            fn, runner.payload_args(task.chunk)
                        )
                    except (BrokenExecutor, RuntimeError) as exc:
                        # The pool died between rounds: requeue and
                        # rebuild below (salvaging what already ran).
                        task.error = (
                            f"worker pool broke at submit: "
                            f"{type(exc).__name__}: {exc}"
                        )
                        runner.requeue(task, queue, failed)
                        broken = True
                        break
                    running[fut] = task
                if not broken and running:
                    done, _ = wait(
                        set(running),
                        timeout=policy.chunk_timeout,
                        return_when=FIRST_COMPLETED,
                    )
                    if not done:
                        # Nothing finished within the chunk timeout:
                        # the pool is presumed hung, condemned whole.
                        broken = True
                        for task in running.values():
                            task.error = (
                                f"chunk timed out after "
                                f"{policy.chunk_timeout}s"
                            )
                    for fut in done:
                        task = running.pop(fut)
                        try:
                            payloads = fut.result()
                        except BrokenExecutor as exc:
                            broken = True
                            task.error = (
                                f"worker pool broke: "
                                f"{type(exc).__name__}: {exc}"
                            )
                            runner.requeue(task, queue, failed)
                        except Exception as exc:  # noqa: BLE001 - job error
                            # The chunk raised inside a healthy worker:
                            # retry/bisect just this chunk.
                            task.error = f"{type(exc).__name__}: {exc}"
                            runner.requeue(task, queue, failed)
                        else:
                            runner.complete(task, payloads, ran)
                if broken:
                    # Pool condemned: salvage in-flight chunks that
                    # finished cleanly, requeue the rest, rebuild.
                    for fut, task in list(running.items()):
                        fut.cancel()
                        salvaged: list[dict] | None = None
                        if fut.done() and not fut.cancelled():
                            try:
                                salvaged = fut.result()
                            except Exception:  # noqa: BLE001
                                salvaged = None
                        if salvaged is not None:
                            runner.complete(task, salvaged, ran)
                        else:
                            task.error = (
                                task.error or "lost with broken pool"
                            )
                            runner.requeue(task, queue, failed)
                    running.clear()
                    rebuilds += 1
                    if reg is not None:
                        reg.counter(_names.EXECUTOR_POOL_REBUILDS).inc()
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = ProcessPoolExecutor(max_workers=self.workers)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
