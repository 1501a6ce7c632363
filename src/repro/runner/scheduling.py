"""Scheduling layer: *what runs where*, split from *how a chunk runs*.

* :class:`ChunkRunner` is the **execution core**.  It plans chunks by
  the backend's ``preferred_chunk`` hint and drives them through one
  queue-driven loop, :meth:`ChunkRunner.run`: each chunk is dispatched
  in process or submitted to a process pool through the module-level
  pool worker, a finished chunk is banked through the executor's
  memo/store callback (:meth:`ChunkRunner.complete`), and a failed one
  is retried, bisected or recorded by :meth:`ChunkRunner.requeue`
  under the :class:`~repro.runner.resilience.RetryPolicy`.  With no
  policy the first error propagates unchanged.
* A scheduler decides *where* chunks go; the executor's ``workers``
  count picks one of two over the same loop:

  - :class:`InlineScheduler` — everything in the orchestrating process
    (``workers=1``, and the semantics baseline the pool must reproduce
    bit-identically);
  - :class:`PoolScheduler` — a local process pool fed from the loop's
    queue, with **work stealing**: when workers go idle and the queue
    runs short, the largest queued chunk is split in half so
    stragglers drain across the pool.  A broken or hung pool is
    condemned (its workers terminated) and rebuilt, and after
    ``degrade_after`` rebuilds the loop runs the rest inline.

Both return ``(ran, failed)`` payload maps keyed by canonical job key;
the executor folds them back into input order.  Inline, pooled and
degraded chunks share one retry path, so they surface identical
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
from .resilience import FailedOutcome, RetryPolicy, failure_text, sleep_ms

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import Future, ProcessPoolExecutor

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

#: Seconds :func:`_stop_pool` waits for a condemned pool's manager
#: thread; with its workers terminated it exits within milliseconds.
_MANAGER_JOIN_S = 5


@dataclass
class _ChunkTask:
    """One queued chunk and its dispatch state."""

    chunk: _Chunk
    #: retries of this exact chunk so far (0 on its first dispatch; a
    #: bisected half or a chunk the degraded pool hands back restarts)
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
    each importing NumPy once per pool.  ``auto`` batches only jobs that
    step clock by clock, and only when a chunk holds at least
    ``BATCH_MIN_POPULATION`` undecided ones.  Fused pairs never step
    clock by clock, and the closed form decides single streams, so
    neither counts here."""
    from .analytic import BATCH_MIN_POPULATION
    from .backends import resolve_backend
    from .fastsim import pair_rotation

    name = resolve_backend(backend).name
    if name == "batch" or (
        name == "auto"
        and any(
            len(chunk) >= BATCH_MIN_POPULATION
            and sum(
                len(job.streams) != 1 and pair_rotation(job) is None
                for _, job in chunk
            )
            >= BATCH_MIN_POPULATION
            for chunk in chunks
        )
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


def _stop_pool(pool: ProcessPoolExecutor) -> None:
    """Shut ``pool`` down without waiting, terminate its workers and
    join its manager thread.

    ``shutdown`` alone leaves a hung worker running, and the
    interpreter's exit hook then joins it.  The workers and the manager
    thread are read first because ``shutdown`` drops the pool's
    reference to them (``terminate_workers`` does the same from Python
    3.14).  Once its workers are gone the manager thread tears the pool
    down and closes its wakeup pipe; joining it (with a bound) keeps the
    exit hook from writing to that pipe while it closes."""
    workers = list((pool._processes or {}).values())
    manager = pool._executor_manager_thread
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in workers:
        proc.terminate()
    if manager is not None:
        manager.join(_MANAGER_JOIN_S)


class ChunkRunner:
    """The execution core every scheduler drives.

    Owns everything below the placement decision: chunk planning and
    the one dispatch loop (:meth:`run`), which sends chunks through the
    (monkeypatchable, picklable) module-level worker in
    ``repro.runner.executor`` in process or over a process pool, and
    routes every failure through :meth:`requeue`.  Completed chunks are
    banked through ``on_chunk`` — the executor's memoize/store-publish
    hook — so caching behaviour is identical no matter where the chunk
    ran.
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

    def dispatch_inline(self, task: _ChunkTask) -> list[dict]:
        """One in-process chunk execution (recovery dispatches traced)."""
        fn = self.batch_fn()
        if not task.troubled:
            return fn(self.payload_args(task.chunk))
        with _trace.span(
            _names.SPAN_EXECUTOR_RECOVERY,
            jobs=len(task.chunk),
            attempt=task.attempt,
        ):
            return fn(self.payload_args(task.chunk))

    def _next_task(self, pending: deque[_ChunkTask]) -> _ChunkTask:
        """Pop the next chunk to dispatch.  A re-dispatch of failed work
        counts as a retry and first sleeps its deterministic backoff."""
        task = pending.popleft()
        if task.troubled:
            assert self.retry is not None
            self.stats.retries += 1
            sleep_ms(self.retry.backoff_ms(max(task.attempt, 1)))
        return task

    def _steal(self, pending: deque[_ChunkTask], idle: int) -> None:
        """Split queued stragglers while idle pool slots outnumber the
        queue.

        Only clean chunks (never failed) are split: troubled chunks
        already carry retry/bisection state that must stay intact.
        """
        while len(pending) < idle:
            victim = max(
                (t for t in pending if len(t.chunk) > 1 and not t.troubled),
                key=lambda t: len(t.chunk),
                default=None,
            )
            if victim is None:
                return
            pending.remove(victim)
            with _trace.span(
                _names.SPAN_EXECUTOR_STEAL,
                jobs=len(victim.chunk),
                scheduler=PoolScheduler.name,
            ):
                reg = _metrics.active_metrics()
                if reg is not None:
                    reg.counter(
                        _names.SCHED_STEALS, scheduler=PoolScheduler.name
                    ).inc()
                mid = len(victim.chunk) // 2
                for part in (victim.chunk[:mid], victim.chunk[mid:]):
                    self.observe_chunk(part, PoolScheduler.name)
                    pending.append(_ChunkTask(part))

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
        exc: Exception | None = None,
        context: str = "",
    ) -> None:
        """Route a failed chunk: retry, bisect, or record the failure.

        ``exc``, prefixed by ``context``, becomes the chunk's error;
        with no policy it propagates unchanged instead (fail-fast).
        """
        policy = self.retry
        if exc is not None:
            if policy is None:
                raise exc
            task.error = context + failure_text(exc)
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
            # An isolated singleton chunk is out of options: record it.
            key, job = task.chunk[0]
            self.stats.failures += 1
            failed[key] = FailedOutcome(
                job=job, error=task.error, attempts=task.attempt + 1
            )

    # ------------------------------------------------------------------
    # The dispatch loop
    # ------------------------------------------------------------------
    def run(
        self, chunks: Sequence[_Chunk], workers: int = 1
    ) -> tuple[dict[str, dict], dict[str, FailedOutcome]]:
        """Run ``chunks`` to completion and return ``(ran, failed)``.

        Chunks wait in one queue.  With ``workers == 1`` each is
        dispatched in process; otherwise up to ``workers`` are in flight
        on a process pool that steals, salvages and rebuilds as
        :class:`PoolScheduler` describes, until it degrades to in-process
        dispatch.  Wherever a chunk ran, its payloads go to
        :meth:`complete` and its failure to :meth:`requeue`.
        """
        ran: dict[str, dict] = {}
        failed: dict[str, FailedOutcome] = {}
        pending: deque[_ChunkTask] = deque(_ChunkTask(c) for c in chunks)
        running: dict[Future[list[dict]], _ChunkTask] = {}
        pool: ProcessPoolExecutor | None = None
        if workers > 1:
            # Only a pooled run loads the pool machinery.
            from concurrent import futures

            pool = futures.ProcessPoolExecutor(max_workers=workers)
        policy = self.retry
        timeout = policy.chunk_timeout if policy is not None else None
        rebuilds = 0
        try:
            while pending or running:
                if pool is None:
                    task = self._next_task(pending)
                    try:
                        payloads = self.dispatch_inline(task)
                    except Exception as exc:  # noqa: BLE001 - isolation layer
                        self.requeue(task, pending, failed, exc)
                    else:
                        self.complete(task, payloads, ran)
                    continue
                self._steal(pending, workers - len(running))
                broken = False
                while pending and len(running) < workers:
                    task = self._next_task(pending)
                    fn = self.batch_fn()
                    try:
                        fut = pool.submit(fn, self.payload_args(task.chunk))
                    except (futures.BrokenExecutor, RuntimeError) as exc:
                        # The pool died between rounds: requeue and
                        # rebuild below (salvaging what already ran).
                        self.requeue(
                            task, pending, failed, exc,
                            "worker pool broke at submit: ",
                        )
                        broken = True
                        break
                    running[fut] = task
                if not broken:
                    done, _ = futures.wait(
                        set(running),
                        timeout=timeout,
                        return_when=futures.FIRST_COMPLETED,
                    )
                    if not done:
                        # No in-flight chunk finished within the chunk
                        # timeout: the pool is presumed hung.
                        broken = True
                        for task in running.values():
                            task.error = f"chunk timed out after {timeout}s"
                    for fut in done:
                        task = running.pop(fut)
                        try:
                            payloads = fut.result()
                        except futures.BrokenExecutor as exc:
                            broken = True
                            self.requeue(
                                task, pending, failed, exc,
                                "worker pool broke: ",
                            )
                        except Exception as exc:  # noqa: BLE001 - job error
                            # The chunk raised inside a healthy worker:
                            # retry/bisect just this chunk.
                            self.requeue(task, pending, failed, exc)
                        else:
                            self.complete(task, payloads, ran)
                if broken:
                    # Pool condemned: salvage in-flight chunks that
                    # finished cleanly, requeue the rest, stop its
                    # workers and rebuild it, or, once rebuilds exceed
                    # ``degrade_after``, run the rest in process, each
                    # chunk with a fresh retry budget.
                    assert policy is not None  # else the error propagated
                    for fut, task in running.items():
                        if not fut.cancel() and fut.done() and (
                            fut.exception() is None
                        ):
                            self.complete(task, fut.result(), ran)
                        else:
                            task.error = task.error or "lost with broken pool"
                            self.requeue(task, pending, failed)
                    running.clear()
                    rebuilds += 1
                    reg = _metrics.active_metrics()
                    if reg is not None:
                        reg.counter(_names.EXECUTOR_POOL_REBUILDS).inc()
                    _stop_pool(pool)
                    if rebuilds > policy.degrade_after:
                        pool = None
                        for task in pending:
                            task.attempt = 0
                    else:
                        pool = futures.ProcessPoolExecutor(max_workers=workers)
        except BaseException:
            if pool is not None:
                _stop_pool(pool)
            raise
        if pool is not None:
            pool.shutdown()
        return ran, failed


class InlineScheduler:
    """Everything in the orchestrating process: the semantics baseline."""

    name = "inline"

    def execute(
        self, items: _Chunk, runner: ChunkRunner
    ) -> tuple[dict[str, dict], dict[str, FailedOutcome]]:
        chunks = runner.plan(items, 1)
        for chunk in chunks:
            runner.observe_chunk(chunk, self.name)
        return runner.run(chunks)


class PoolScheduler:
    """A local process pool fed from the run loop's queue, with stealing.

    Each worker slot holds at most one chunk in flight, so the loop
    always knows what is queued versus running.  When idle slots
    outnumber the queue — free capacity with stragglers still running —
    the largest clean queued chunk is split in half (an
    ``executor.steal`` span per split), so late work fans out over the
    free workers instead of serializing behind one slot.

    With a :class:`~repro.runner.resilience.RetryPolicy` attached, a
    chunk that raises in a worker retries and bisects exactly as inline.
    A pool that breaks, or in which no in-flight chunk finishes within
    ``chunk_timeout``, is condemned whole: finished chunks are salvaged,
    the rest requeued, its workers terminated and a new pool started.
    After ``degrade_after`` rebuilds the rest of the queue runs in
    process.
    """

    name = "pool"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("worker count must be positive")
        self.workers = workers

    def execute(
        self, items: _Chunk, runner: ChunkRunner
    ) -> tuple[dict[str, dict], dict[str, FailedOutcome]]:
        chunks = runner.plan(items, self.workers)
        for chunk in chunks:
            runner.observe_chunk(chunk, self.name)
        if len(chunks) <= 1:
            return runner.run(chunks)
        _load_batch_kernel(runner.backend, chunks)
        with _trace.span(
            _names.SPAN_EXECUTOR_POOL,
            chunks=len(chunks),
            workers=self.workers,
        ):
            return runner.run(chunks, self.workers)
