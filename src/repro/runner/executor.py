"""The execution layer: deduplicated, memoized, parallel job sweeps.

Every analysis in this repository fans out hundreds-to-thousands of
near-identical steady-state runs (start-offset sweeps, pair sweeps,
Monte-Carlo environments, theorem validation).  :class:`SweepExecutor`
gives them one shared engine room:

* **dedup** — jobs canonicalize through the Appendix isomorphism
  (:meth:`repro.runner.job.SimJob.cache_key`), so isomorphic jobs run
  once;
* **memoization** — outcomes cache in an LRU in-process memo keyed by
  the canonical job hash and, with ``store_path`` set, in a
  content-addressed :class:`~repro.runner.store.ResultStore` probed
  after the memo.  The store is the only on-disk level: every finished
  chunk is published to it as it completes (one atomic file per key,
  corrupt entries quarantined), so a killed process loses at most its
  in-flight chunk, and concurrent sweeps share one directory;
* **scheduling** — ``workers`` picks where the
  :class:`~repro.runner.scheduling.ChunkRunner` execution core runs:
  :class:`~repro.runner.scheduling.InlineScheduler` (in-process) at
  ``workers=1``, otherwise
  :class:`~repro.runner.scheduling.PoolScheduler` (local process
  fan-out with a shared work queue and straggler-splitting work
  stealing); see docs/RUNNER.md "Scheduling";
* **fault tolerance** — with a :class:`~repro.runner.resilience.
  RetryPolicy` attached, crashed pools are rebuilt, failed or timed-out
  chunks retried on a deterministic backoff schedule and bisected to
  isolate poisoned jobs, and a repeatedly dying pool degrades to inline
  execution; see docs/RUNNER.md "Failure semantics".

Outcomes returned by the executor never carry the engine-level
``result`` object (stats/trace); use :func:`repro.runner.api.run`
directly when you need those.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace
from typing import Iterable, Sequence, cast

from ..obs import metrics as _metrics
from ..obs import names as _names
from ..obs import trace as _trace
from .api import run
from .fastsim import bound_exceeded
from .job import PAYLOAD_ERRORS, SimJob, SimOutcome
from .resilience import (
    FailedOutcome,
    RetryPolicy,
    SweepFailureError,
    chaos_crash_point,
    failure_text,
)
from .scheduling import ChunkRunner, InlineScheduler, PoolScheduler
from .scheduling import _Chunk as _Chunk
from .store import ResultStore

__all__ = ["ExecutorStats", "SweepExecutor", "default_executor"]


@dataclass
class ExecutorStats:
    """Work accounting for one executor (monotonic counters)."""

    submitted: int = 0
    #: served from the in-process memo or the shared result store
    hits: int = 0
    #: duplicates folded onto another job in the same batch
    deduped: int = 0
    #: jobs actually simulated
    executed: int = 0
    #: least-recently-used entries dropped from the in-process memo
    evictions: int = 0
    #: chunk re-dispatches after a failure (retries and bisected halves)
    retries: int = 0
    #: jobs that still failed once isolated (one FailedOutcome each)
    failures: int = 0
    #: jobs that succeeded only after at least one failed dispatch
    recovered: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "submitted": self.submitted,
            "hits": self.hits,
            "deduped": self.deduped,
            "executed": self.executed,
            "evictions": self.evictions,
            "retries": self.retries,
            "failures": self.failures,
            "recovered": self.recovered,
        }


#: ExecutorStats field -> contract metric name (published as deltas).
_STAT_METRICS = (
    ("submitted", _names.EXECUTOR_SUBMITTED),
    ("hits", _names.EXECUTOR_MEMO_HITS),
    ("deduped", _names.EXECUTOR_DEDUPED),
    ("executed", _names.EXECUTOR_EXECUTED),
    ("evictions", _names.EXECUTOR_MEMO_EVICTIONS),
    ("retries", _names.EXECUTOR_RETRIES),
    ("failures", _names.EXECUTOR_FAILURES),
    ("recovered", _names.EXECUTOR_RECOVERED),
)


def _execute_payload_batch(
    args: tuple[list[SimJob], str | None]
) -> list[dict]:
    """Process-pool worker: run one job chunk through the backend's
    batch entry point (one pickle round trip, shared per-shape tables)."""
    jobs, backend = args
    from .backends import resolve_backend

    chaos_crash_point(jobs)
    return [o.to_payload() for o in resolve_backend(backend).run_batch(jobs)]


def _twin(failed: FailedOutcome, ran: SimJob, job: SimJob) -> FailedOutcome:
    """``failed``, the failure of ``ran``, as ``job``'s: ``job`` shares
    ``ran``'s key and has no looser bound.  A run that exhausted
    ``ran``'s bound exhausts ``job``'s too, so ``job`` then fails
    naming its own."""
    if job.max_cycles != ran.max_cycles and failed.error == failure_text(
        bound_exceeded(ran.max_cycles)
    ):
        error = failure_text(bound_exceeded(job.max_cycles))
        return replace(failed, job=job, error=error)
    return replace(failed, job=job)


def _decode_stored(
    store: ResultStore, job: SimJob, key: str, payload: dict
) -> SimOutcome | None:
    """``payload``, read from ``store`` for ``key``, as an outcome for
    ``job``; ``None`` after quarantining it if it cannot be decoded, so
    the job re-runs and its entry is rewritten."""
    try:
        return SimOutcome.from_payload(job, payload)
    except PAYLOAD_ERRORS as exc:
        store.quarantine(key, f"undecodable payload ({exc!r})")
        return None


class SweepExecutor:
    """Run batches of :class:`SimJob` with dedup, caching and workers.

    Parameters
    ----------
    backend:
        Backend name forwarded to :func:`repro.runner.api.run` (``None``
        keeps the env-var/default resolution).
    workers:
        Process count for fan-out; ``1`` (default) runs inline, more
        fan chunks out over a local process pool.  Both placements
        return bit-identical outcomes.
    max_memo:
        Bound on the in-process cache; least-recently-used entries are
        evicted first (a hit refreshes recency).  Eviction never
        removes entries already published to the store.
    retry:
        Optional :class:`~repro.runner.resilience.RetryPolicy` enabling
        fault-tolerant execution (retries, pool recovery, bisection
        isolation, inline degradation).  ``None`` (default) keeps the
        historical fail-fast behaviour: the first backend/pool error
        propagates.
    store_path:
        Directory for a shared content-addressed
        :class:`~repro.runner.store.ResultStore`, the executor's only
        on-disk level.  Probed after the memo and before execution
        (store hits are cache hits, not executions) and written chunk
        by chunk as chunks finish, so a killed sweep keeps its
        finished chunks and concurrent sweeps exchange results
        through it.
    """

    def __init__(
        self,
        *,
        backend: str | None = None,
        workers: int = 1,
        max_memo: int = 200_000,
        retry: RetryPolicy | None = None,
        store_path: str | os.PathLike[str] | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("worker count must be positive")
        if max_memo < 1:
            raise ValueError("max_memo must be positive")
        self.backend = backend
        self.workers = workers
        self.max_memo = max_memo
        self.retry = retry
        self.stats = ExecutorStats()
        self._memo: dict[str, dict] = {}
        #: Guards ``_memo``: :meth:`peek` may overlap one ``run_many``.
        self._memo_lock = threading.Lock()
        self._store = ResultStore(store_path) if store_path is not None else None

    # ------------------------------------------------------------------
    def run_one(self, job: SimJob, *, backend: str | None = None) -> SimOutcome:
        """Run (or recall) a single job."""
        return self.run_many([job], backend=backend)[0]

    def run_many(
        self,
        jobs: Sequence[SimJob] | Iterable[SimJob],
        *,
        backend: str | None = None,
    ) -> list[SimOutcome]:
        """Run a batch, returning outcomes in input order.

        Trace jobs bypass the cache entirely (their value is the event
        log, which the cache does not carry).

        With a non-strict :class:`RetryPolicy` attached, jobs that
        still fail after retries and bisection isolation come back as
        :class:`~repro.runner.resilience.FailedOutcome` stand-ins (check
        ``outcome.failed``); under a strict policy the batch raises
        :class:`~repro.runner.resilience.SweepFailureError` instead.
        """
        jobs = list(jobs)
        # Observability is off by default: one None check per *batch*,
        # nothing per job (docs/OBSERVABILITY.md, CI overhead gate).
        stats0 = (
            self.stats.as_dict()
            if _metrics.active_metrics() is not None
            else None
        )
        with _trace.span(_names.SPAN_EXECUTOR_RUN_MANY, jobs=len(jobs)):
            out = self._run_batch(jobs, backend)
        reg = _metrics.active_metrics()
        if reg is not None and stats0 is not None:
            s1 = self.stats.as_dict()
            for stat_field, name in _STAT_METRICS:
                delta = s1[stat_field] - stats0[stat_field]
                if delta:
                    reg.counter(name).inc(delta)
            reg.gauge(_names.EXECUTOR_MEMO_SIZE).set(len(self._memo))
        return out

    def peek(self, job: SimJob, key: str) -> tuple[SimOutcome, str] | None:
        """Probe the caches for ``job`` without ever executing it.

        ``key`` is ``job.cache_key()``, computed once by the caller.
        Returns ``(outcome, level)``: level ``"memo"`` for an in-process
        memo hit (recency refreshed), ``"store"`` for a shared-store read
        (the payload is promoted into the memo, so the next peek says
        ``"memo"``).  ``None`` on a miss, always for trace jobs, which
        are uncacheable, and when the cached steady answer took more
        clocks than ``job.max_cycles`` allows (a run of the job fails
        then; a store entry is not promoted for it).  This is the
        cheap-path probe of the
        :mod:`repro.serve` lookup tier: the event loop calls it inline,
        possibly while one ``run_many`` runs in the drain thread, and it
        never blocks on a simulation.
        """
        if job.trace:
            return None
        with self._memo_lock:
            payload = self._memo.pop(key, None)
            if payload is not None:
                self._memo[key] = payload  # LRU refresh
        if payload is not None:
            outcome = SimOutcome.from_payload(job, payload)
            if outcome.cycles > job.max_cycles and job.steady:
                return None
            return outcome, "memo"
        if self._store is not None:
            payload = self._store.get(key)
            if payload is not None:
                outcome = _decode_stored(self._store, job, key, payload)
                if outcome is not None:
                    if outcome.cycles > job.max_cycles and job.steady:
                        return None
                    self._insert({key: payload})
                    return outcome, "store"
        return None

    def _run_batch(
        self, jobs: list[SimJob], backend: str | None
    ) -> list[SimOutcome]:
        backend = backend if backend is not None else self.backend
        self.stats.submitted += len(jobs)

        # Trace jobs are uncacheable (key None).
        keys = [None if job.trace else job.cache_key() for job in jobs]
        fresh: dict[str, SimJob] = {}
        # Hits are held locally as well as re-queued at the memo's MRU
        # end: this batch's own eviction can then never invalidate them.
        held: dict[str, dict] = {}
        with self._memo_lock:
            for job, key in zip(jobs, keys):
                if key is None:
                    continue
                if key in held:
                    self.stats.hits += 1
                elif key in self._memo:
                    self.stats.hits += 1
                    # LRU refresh: re-insert at the most-recently-used end.
                    payload = self._memo.pop(key)
                    self._memo[key] = payload
                    held[key] = payload
                elif key in fresh:
                    self.stats.deduped += 1
                    # Each key runs at its loosest bound; its answer
                    # then decides every twin's (see below).
                    if job.max_cycles > fresh[key].max_cycles:
                        fresh[key] = job
                else:
                    fresh[key] = job

        ran, stored, failed = (
            self._execute(fresh, backend) if fresh else ({}, {}, {})
        )

        out: list[SimOutcome] = []
        # Each payload is decoded once per key; isomorphic twins get
        # their own outcome sharing the immutable Fraction and grants.
        decoded: dict[str, SimOutcome] = {}
        # Failures of jobs whose cached or twin's answer exceeds their
        # own bound.
        bounded: list[FailedOutcome] = []
        for job, key in zip(jobs, keys):
            if key is None:
                self.stats.executed += 1
                out.append(run(job, backend=backend))
                continue
            if key in failed:
                out.append(cast(SimOutcome, _twin(failed[key], fresh[key], job)))
                continue
            if key in decoded:
                outcome = decoded[key].for_job(job)
            else:
                # The key's first job.  A store hit was decoded for the
                # job that would have run; every other key ran or is
                # held (an explicit check, so a falsy payload never
                # falls through).
                if key in stored:
                    outcome = stored[key]
                    if outcome.job is not job:
                        outcome = outcome.for_job(job)
                else:
                    payload = ran[key] if key in ran else held[key]
                    outcome = SimOutcome.from_payload(job, payload)
                decoded[key] = outcome
                if key in ran and job is fresh[key]:
                    # Computed for this very job, under its own bound.
                    out.append(outcome)
                    continue
            if outcome.cycles > job.max_cycles and job.steady:
                # The job fails as a run of its own would have.
                exc = bound_exceeded(job.max_cycles)
                if self.retry is None:
                    raise exc
                failure = FailedOutcome(
                    job=job, error=failure_text(exc), attempts=1
                )
                bounded.append(failure)
                outcome = cast(SimOutcome, failure)
            out.append(outcome)
        if (failed or bounded) and self.retry is not None and self.retry.strict:
            # The work that did succeed is already banked (memo, store).
            raise SweepFailureError(
                [failed[k] for k in fresh if k in failed] + bounded
            )
        return out

    # ------------------------------------------------------------------
    # Execution: scheduling delegated, caching and failure policy here
    # ------------------------------------------------------------------
    def _resolve_scheduler(self) -> InlineScheduler | PoolScheduler:
        """The placement for this batch (resolved per call, so mutating
        ``workers`` between batches is honoured)."""
        if self.workers > 1:
            return PoolScheduler(self.workers)
        return InlineScheduler()

    def _execute(
        self, fresh: dict[str, SimJob], backend: str | None
    ) -> tuple[
        dict[str, dict], dict[str, SimOutcome], dict[str, FailedOutcome]
    ]:
        """Run every fresh job the store cannot answer.  Returns the
        payloads that ran, the store hits (decoded for ``fresh[key]``)
        and the isolated failures."""
        items: _Chunk = list(fresh.items())
        ran: dict[str, dict] = {}
        stored: dict[str, SimOutcome] = {}
        failed: dict[str, FailedOutcome] = {}
        if self._store is not None and items:
            # The shared store is the second cache level: results another
            # executor (or a previous sweep) already published count as
            # hits, not executions.
            served: dict[str, dict] = {}
            for key, payload in self._store.get_many(k for k, _ in items).items():
                outcome = _decode_stored(self._store, fresh[key], key, payload)
                if outcome is not None:
                    served[key] = payload
                    stored[key] = outcome
            if served:
                self.stats.hits += len(served)
                self._insert(served)
                items = [(k, j) for k, j in items if k not in served]
        self.stats.executed += len(items)
        if items:
            runner = ChunkRunner(
                backend=backend,
                retry=self.retry,
                stats=self.stats,
                on_chunk=self._finish_chunk,
            )
            scheduled_ran, failed = self._resolve_scheduler().execute(
                items, runner
            )
            ran.update(scheduled_ran)
        return ran, stored, failed

    def _finish_chunk(
        self, chunk: _Chunk, payloads: list[dict], ran: dict[str, dict]
    ) -> None:
        """Bank one completed chunk: memoize and publish to the store."""
        chunk_map = {key: payload for (key, _), payload in zip(chunk, payloads)}
        ran.update(chunk_map)
        self._insert(chunk_map)
        if self._store is not None:
            self._store.put_many(chunk_map)

    def _insert(self, payloads: dict[str, dict]) -> None:
        """Insert fresh payloads with LRU eviction, oldest first,
        *before* inserting: fresh results must land at the MRU end and
        survive their own chunk."""
        with self._memo_lock:
            room = max(self.max_memo - len(payloads), 0)
            while len(self._memo) > room:
                self._memo.pop(next(iter(self._memo)))
                self.stats.evictions += 1
            self._memo.update(payloads)
            while len(self._memo) > self.max_memo:
                self._memo.pop(next(iter(self._memo)))
                self.stats.evictions += 1

    def clear(self) -> None:
        """Drop the in-process memo (the store is untouched)."""
        with self._memo_lock:
            self._memo.clear()

    def __len__(self) -> int:
        return len(self._memo)


_DEFAULT: SweepExecutor | None = None


def default_executor() -> SweepExecutor:
    """The process-wide executor library internals share.

    In-memory cache only, inline execution, the tiered ``auto`` backend
    (closed form where a theorem decides, fast simulation otherwise).
    Front ends use it when no explicit executor is passed, so repeated
    sweeps (validation + benchmarks + reports over the same pairs) each
    pay for a simulation at most once per process.
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = SweepExecutor(backend="auto")
    return _DEFAULT
