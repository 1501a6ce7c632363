"""Unified simulation runner: jobs, backends, and sweep execution.

Every simulation in the repository flows through three layers:

``job``
    :class:`SimJob` — a frozen, hashable run description that
    canonicalizes equivalent jobs via the Appendix isomorphism — and
    :class:`SimOutcome`, the exact :class:`~fractions.Fraction` result.
``backends``
    :class:`SimBackend` protocol (per-job ``run`` plus batched
    ``run_batch``) with a tiered set of implementations: the
    ``reference`` object-per-port engine (ground truth, stats, traces),
    the ``fast`` flat-array engine with Brent steady-cycle detection
    (bit-identical steady results, orders of magnitude the throughput),
    the ``batch`` structure-of-arrays engine (whole populations stepped
    in NumPy lockstep, bit-identical to ``fast``), the strict
    ``analytic`` closed-form solver (Tier A: theorem-decided jobs
    only), and ``auto`` — closed form when the theory decides, fast
    simulation for undecided fused pairs and small rests, the batch
    core for large populations of jobs that step clock by clock.
    Select per call or via the ``REPRO_SIM_BACKEND`` environment
    variable.
``executor``
    :class:`SweepExecutor` — deduplicates isomorphic jobs, memoizes
    outcomes in an LRU in-process cache in front of an optional
    :class:`ResultStore` (its only on-disk level), and runs the rest
    inline or, with ``workers > 1``, over a process pool.
``scheduling`` / ``store``
    :class:`ChunkRunner` is the execution core; :class:`InlineScheduler`
    and :class:`PoolScheduler` (shared work queue with
    straggler-splitting work stealing) place its chunks, with
    bit-identical outcomes (see docs/RUNNER.md "Scheduling").
    :class:`ResultStore` is the content-addressed directory of per-key
    result files every finished chunk is published to.
``resilience``
    :class:`RetryPolicy` — fault-tolerant sweep execution: bounded
    retries on a deterministic backoff schedule, pool rebuilds on
    ``BrokenProcessPool``/timeout, bisection isolation of poisoned
    jobs (surfaced as :class:`FailedOutcome` or, strictly, as
    :class:`SweepFailureError`), and graceful degradation to inline
    execution.

The historical front ends (:func:`repro.sim.pairs.simulate_pair`,
:func:`repro.sim.multi.simulate_multi`, the statespace detector) are
thin adapters over :func:`run`.
"""

from .analytic import solve
from .api import run
from .backends import (
    BACKEND_ENV_VAR,
    AnalyticBackend,
    AutoBackend,
    BatchBackend,
    FastBackend,
    ReferenceBackend,
    SimBackend,
    available_backends,
    get_backend,
    resolve_backend,
)
from .executor import ExecutorStats, SweepExecutor, default_executor
from .job import SimJob, SimOutcome, jobs_for_offsets
from .resilience import (
    FailedJobError,
    FailedOutcome,
    RetryPolicy,
    SweepFailureError,
)
from .regime import (
    ObservedRegime,
    full_rate_streams,
    is_conflict_free,
    observe_pair_regime,
)
from .scheduling import ChunkRunner, InlineScheduler, PoolScheduler
from .store import ResultStore

__all__ = [
    "AnalyticBackend",
    "AutoBackend",
    "BACKEND_ENV_VAR",
    "BatchBackend",
    "ChunkRunner",
    "ExecutorStats",
    "FailedJobError",
    "FailedOutcome",
    "FastBackend",
    "InlineScheduler",
    "ObservedRegime",
    "PoolScheduler",
    "ReferenceBackend",
    "ResultStore",
    "RetryPolicy",
    "SimBackend",
    "SimJob",
    "SimOutcome",
    "SweepExecutor",
    "SweepFailureError",
    "available_backends",
    "default_executor",
    "full_rate_streams",
    "get_backend",
    "is_conflict_free",
    "jobs_for_offsets",
    "observe_pair_regime",
    "resolve_backend",
    "run",
    "solve",
]
