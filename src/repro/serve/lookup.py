"""The lookup tier: answer without simulating.

Most service traffic in practice is *lookups*: points a theorem decides
in closed form, or points somebody already paid a simulation for.  This
tier answers both classes in microseconds on the event loop, so only
genuinely novel undecided jobs fall through to the coalescer's drain
queue:

1. **Analytic** — :func:`repro.runner.analytic.solve`: Theorem 1/2/3
   closed forms, bit-identical to simulation, no I/O at all.
2. **Memo** — the shared executor's in-process memo, via
   :meth:`~repro.runner.executor.SweepExecutor.peek`: everything this
   process simulated, precomputed or read from the store.
3. **Store** — a read of the executor's
   :class:`~repro.runner.store.ResultStore`, when it has one: results
   earlier processes published.  The read promotes the payload into
   the memo, so a repeat answers ``memo``.

The executor is the only owner of cached answers; this tier keeps no
table of its own.  Keys are canonical under the Appendix isomorphism,
so a probe hits regardless of the client's bank numbering.  A probe
never blocks on a simulation; a miss is a miss.
"""

from __future__ import annotations

from ..obs import metrics as _metrics
from ..obs import names as _names
from ..runner.analytic import solve
from ..runner.executor import SweepExecutor
from ..runner.job import SimJob, SimOutcome

__all__ = ["LookupTier"]


class LookupTier:
    """Read-only probe: the closed form, then the executor's caches."""

    def __init__(self, *, executor: SweepExecutor) -> None:
        self._executor = executor

    def _count(self, tier: str) -> None:
        reg = _metrics.active_metrics()
        if reg is not None:
            reg.counter(_names.SERVE_LOOKUP, tier=tier).inc()

    def probe(self, job: SimJob, key: str) -> tuple[SimOutcome, str] | None:
        """``(outcome, tier)`` when a cheap tier answers, else ``None``.

        ``key`` is ``job.cache_key()``, computed once per request by the
        caller.  ``tier`` is ``"analytic"``, ``"memo"`` or ``"store"``;
        a miss (returned as ``None``) counts under the ``"miss"`` label
        and means the caller must queue the job for simulation.
        """
        out = solve(job)
        if out is not None:
            self._count("analytic")
            return out, "analytic"
        hit = self._executor.peek(job, key)
        self._count("miss" if hit is None else hit[1])
        return hit
