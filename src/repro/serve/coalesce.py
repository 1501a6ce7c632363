"""Request coalescing: one in-flight computation per canonical job.

A service in front of a sweep farm sees bursts of *identical* queries —
many clients asking for the same point, or one client retrying.  Running
each would waste a simulation per duplicate; serialising them through a
lock would waste the batch backends' lockstep width.  The
:class:`Coalescer` does neither:

* **fold** — requests whose jobs are identical under the Appendix
  isomorphism (same :meth:`~repro.runner.job.SimJob.cache_key`) and
  carry the same ``max_cycles`` bound share one
  :class:`asyncio.Future`; only the first enqueues work.  Twins with
  different bounds may answer differently, so each queues its own job
  and ``run_many`` runs their key once.
* **micro-batch** — distinct queued jobs drain together in one
  :meth:`~repro.runner.executor.SweepExecutor.run_many` call, so a
  burst of novel points reaches the batch backend as one wide
  population instead of N width-1 calls.
* **serialise** — exactly one drain task runs the executor's
  ``run_many``, off the event loop in a worker thread; requests
  arriving mid-drain queue for the next batch.  Only the lookup tier's
  ``peek`` may overlap a drain (docs/RUNNER.md "Serving").

Late duplicates (arriving after their twin resolved) are *not* folded
here — they hit the executor's memo and cost a cache lookup, which is
the same answer by a different tier.
"""

from __future__ import annotations

import asyncio

from ..obs import metrics as _metrics
from ..obs import names as _names
from ..obs import trace as _trace
from ..runner.executor import SweepExecutor
from ..runner.job import SimJob, SimOutcome

__all__ = ["Coalescer"]

#: What folds requests: the canonical key and the job's ``max_cycles``.
_Slot = tuple[str, int]


class Coalescer:
    """Fold and micro-batch concurrent job queries onto one executor."""

    def __init__(self, executor: SweepExecutor) -> None:
        self.executor = executor
        #: (canonical key, bound) -> the future every folded request awaits
        self._inflight: dict[_Slot, asyncio.Future[SimOutcome]] = {}
        #: (canonical key, bound) -> job queued for the next drain batch
        self._pending: dict[_Slot, SimJob] = {}
        self._drain_task: asyncio.Task[None] | None = None
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Canonical jobs queued for the next drain batch."""
        return len(self._pending)

    def _set_queue_gauge(self) -> None:
        reg = _metrics.active_metrics()
        if reg is not None:
            reg.gauge(_names.SERVE_QUEUE_DEPTH).set(len(self._pending))

    async def submit(self, job: SimJob, key: str) -> SimOutcome:
        """Resolve ``job``, folding onto an in-flight twin if one exists.

        ``key`` is ``job.cache_key()``, computed once per request by the
        caller; twins share it, and fold when their bounds agree.
        Raises whatever the executor raised for the batch the job ran
        in; under a non-strict retry policy failures come back as
        :class:`~repro.runner.resilience.FailedOutcome` values instead
        (check ``outcome.failed``).
        """
        if self._closed:
            raise RuntimeError("coalescer is closed")
        slot = (key, job.max_cycles)
        fut = self._inflight.get(slot)
        if fut is not None:
            reg = _metrics.active_metrics()
            if reg is not None:
                reg.counter(_names.SERVE_COALESCED).inc()
            return await asyncio.shield(fut)
        loop = asyncio.get_running_loop()
        fut = loop.create_future()
        self._inflight[slot] = fut
        self._pending[slot] = job
        self._set_queue_gauge()
        if self._drain_task is None or self._drain_task.done():
            self._drain_task = loop.create_task(self._drain())
        return await asyncio.shield(fut)

    async def _drain(self) -> None:
        """Drain pending batches until the queue is empty.

        One instance of this task runs at a time, so all executor
        access is serialised; the blocking ``run_many`` call happens in
        a worker thread so the event loop keeps accepting (and folding)
        requests mid-simulation.
        """
        loop = asyncio.get_running_loop()
        while self._pending:
            batch = dict(self._pending)
            self._pending.clear()
            self._set_queue_gauge()
            reg = _metrics.active_metrics()
            if reg is not None:
                reg.counter(_names.SERVE_BATCHES).inc()
            jobs = list(batch.values())
            try:
                with _trace.span(_names.SPAN_SERVE_DRAIN, jobs=len(jobs)):
                    outcomes = await loop.run_in_executor(
                        None, self.executor.run_many, jobs
                    )
            except Exception as exc:
                for slot in batch:
                    fut = self._inflight.pop(slot)
                    if not fut.done():
                        fut.set_exception(exc)
                continue
            for slot, outcome in zip(batch, outcomes):
                fut = self._inflight.pop(slot)
                if not fut.done():
                    fut.set_result(outcome)

    # ------------------------------------------------------------------
    async def close(self) -> None:
        """Refuse new work, finish the batches already queued."""
        self._closed = True
        if self._drain_task is not None and not self._drain_task.done():
            await self._drain_task
