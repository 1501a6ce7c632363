"""Failure semantics for sweep execution: retry, isolate, degrade.

Long fan-out sweeps die in ways single runs do not: a worker process
segfaults and takes the whole ``concurrent.futures`` pool with it
(``BrokenProcessPool``), a chunk hangs past any reasonable deadline, or
a backend raises on one poisoned job out of ten thousand.  Losing a
multi-minute sweep to any of those is incompatible with treating the
executor as a service, so this module defines the policy layer the
:class:`~repro.runner.executor.SweepExecutor` applies per *chunk*:

* :class:`RetryPolicy` — bounded retries with a **deterministic**
  exponential backoff schedule.  The delay before retry ``k`` is
  ``backoff_base_ms << (k - 1)`` milliseconds: no wall-clock reads, no
  jitter randomness (DET001), so two runs of the same failing sweep
  retry on the same schedule.
* **Bisection isolation** — a chunk that keeps failing is split in
  half and each half re-dispatched with a fresh retry budget, until the
  poisoned job(s) are cornered as singletons.  Healthy jobs sharing a
  chunk with a poisoned one are never lost.
* :class:`FailedOutcome` — the structured stand-in returned (in input
  order, in place of a :class:`~repro.runner.job.SimOutcome`) for a job
  that still fails once isolated, under the default non-strict policy.
  Numeric access raises :class:`FailedJobError`, so a failure can never
  silently flow into an analysis; check ``outcome.failed`` first.
  Under ``strict=True`` the executor raises :class:`SweepFailureError`
  listing every failure instead.
* **Graceful degradation** — after ``degrade_after`` pool rebuilds
  within one batch the executor stops trusting the pool and runs the
  remaining chunks inline (where a plain exception is catchable and
  retry/bisection still apply).

Chaos hooks
-----------
Fault injection for tests and the CI chaos-smoke job lives here too,
behind environment variables, and **only ever fires inside a
multiprocessing worker** — the orchestrating process is never killed:

``REPRO_CHAOS_RATE``
    Bernoulli per-chunk worker crash (``os._exit(3)``), drawn from a
    ``random.Random`` seeded on ``(pid, chunk identity)`` — so a
    rebuilt pool (new pids) redraws, and retries can succeed.
``REPRO_CHAOS_ONCE_DIR``
    Crash each distinct chunk exactly once, recorded via marker files
    in the given directory — deterministic recovery tests.
``REPRO_CHAOS_HANG_ONCE_DIR`` / ``REPRO_CHAOS_HANG_MS``
    Hang each distinct chunk once for ``REPRO_CHAOS_HANG_MS``
    milliseconds (default 30000) and then die — exercises the
    chunk-timeout path.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, ClassVar, Sequence

from .job import SimJob

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.engine import SimulationResult
    from .regime import ObservedRegime

__all__ = [
    "CHAOS_HANG_MS_ENV",
    "CHAOS_HANG_ONCE_DIR_ENV",
    "CHAOS_ONCE_DIR_ENV",
    "CHAOS_RATE_ENV",
    "FailedJobError",
    "FailedOutcome",
    "RetryPolicy",
    "SweepFailureError",
    "chaos_crash_point",
    "failure_text",
    "sleep_ms",
]


# ----------------------------------------------------------------------
# Policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, deterministic failure handling for sweep chunks.

    Parameters
    ----------
    max_retries:
        Re-dispatches of one chunk (or bisected sub-chunk) before it is
        split — or, once a singleton, recorded as failed.  ``0`` means
        one attempt per chunk, with bisection still isolating failures.
    backoff_base_ms:
        Base of the deterministic exponential backoff schedule: retry
        ``k`` waits ``backoff_base_ms << (k - 1)`` milliseconds.  ``0``
        disables waiting (useful in tests).
    chunk_timeout:
        Seconds to wait for the next in-flight pool chunk to finish.
        When none finishes in time the pool is declared lost, its
        workers terminated and its unfinished chunks retried (pool
        execution only — inline chunks cannot be preempted).  ``None``
        waits forever.
    strict:
        Raise :class:`SweepFailureError` at the end of the batch if any
        job still failed after retries and isolation, instead of
        returning :class:`FailedOutcome` stand-ins.
    degrade_after:
        Pool rebuilds tolerated within one batch before the executor
        degrades to inline execution for the remaining chunks.
    """

    max_retries: int = 2
    backoff_base_ms: int = 10
    chunk_timeout: float | None = None
    strict: bool = False
    degrade_after: int = 2

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base_ms < 0:
            raise ValueError("backoff_base_ms must be non-negative")
        if self.chunk_timeout is not None and not self.chunk_timeout > 0:
            raise ValueError("chunk_timeout must be positive (or None)")
        if self.degrade_after < 1:
            raise ValueError("degrade_after must be positive")

    def backoff_ms(self, attempt: int) -> int:
        """Delay before re-dispatch number ``attempt`` (counted from 1)."""
        if attempt < 1:
            raise ValueError("retry attempts count from 1")
        return self.backoff_base_ms << (attempt - 1)

    def schedule_ms(self) -> tuple[int, ...]:
        """The full deterministic backoff schedule, in milliseconds."""
        return tuple(
            self.backoff_ms(a) for a in range(1, self.max_retries + 1)
        )


def _seconds_float(ms: int) -> float:
    """Blessed float boundary: milliseconds to ``time.sleep`` seconds."""
    return ms / 1000


def sleep_ms(ms: int) -> None:
    """Sleep a deterministic backoff delay (no-op for ``ms <= 0``)."""
    if ms > 0:
        time.sleep(_seconds_float(ms))


# ----------------------------------------------------------------------
# Failure values
# ----------------------------------------------------------------------
class FailedJobError(RuntimeError):
    """Numeric access on a :class:`FailedOutcome`.

    Raised the moment an analysis touches ``bandwidth``/``grants``/...
    of a failed job, so failures surface loudly instead of flowing into
    results as garbage.
    """

    def __init__(self, outcome: "FailedOutcome") -> None:
        self.outcome = outcome
        super().__init__(
            f"job failed after {outcome.attempts} attempt(s) "
            f"[{outcome.job.describe()}]: {outcome.error}"
        )


class SweepFailureError(RuntimeError):
    """Strict-policy batch failure: one or more jobs could not run.

    Carries every :class:`FailedOutcome` of the batch as ``failures``.
    Successful chunks of the same batch were already memoized (and
    published, when a result store is configured) before this was
    raised.
    """

    def __init__(self, failures: "list[FailedOutcome]") -> None:
        self.failures = failures
        first = failures[0] if failures else None
        detail = f"; first: {first.error}" if first is not None else ""
        super().__init__(
            f"{len(failures)} job(s) failed after retries and "
            f"isolation{detail}"
        )


def failure_text(exc: BaseException) -> str:
    """``exc`` as a :class:`FailedOutcome` error: ``"Class: message"``."""
    return f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class FailedOutcome:
    """Structured record of a job the executor could not complete.

    Returned in place of a :class:`~repro.runner.job.SimOutcome` under
    the default (non-strict) :class:`RetryPolicy`.  Carries the job,
    the last error and the dispatch count; every numeric accessor
    raises :class:`FailedJobError` so the failure cannot be consumed as
    a result by accident.  Failed outcomes are never memoized or
    written to the result store.
    """

    job: SimJob
    error: str
    attempts: int
    backend: str = "failed"

    #: Discriminator mirrored by ``SimOutcome.failed`` (always False
    #: there): ``outcome.failed`` works on either type.
    failed: ClassVar[bool] = True

    @property
    def bandwidth(self) -> Fraction:
        raise FailedJobError(self)

    @property
    def period(self) -> int | None:
        raise FailedJobError(self)

    @property
    def grants(self) -> tuple[int, ...]:
        raise FailedJobError(self)

    @property
    def steady_start(self) -> int | None:
        raise FailedJobError(self)

    @property
    def cycles(self) -> int:
        raise FailedJobError(self)

    @property
    def result(self) -> "SimulationResult | None":
        raise FailedJobError(self)

    @property
    def bandwidth_float(self) -> float:
        raise FailedJobError(self)

    @property
    def full_rate_streams(self) -> int:
        raise FailedJobError(self)

    @property
    def conflict_free(self) -> bool:
        raise FailedJobError(self)

    @property
    def pair_regime(self) -> "ObservedRegime":
        raise FailedJobError(self)

    def describe(self) -> str:
        """One-line human summary for logs and error reports."""
        return (
            f"FAILED after {self.attempts} attempt(s): {self.error} "
            f"[{self.job.describe()}]"
        )


# ----------------------------------------------------------------------
# Chaos injection (tests and the CI chaos-smoke job)
# ----------------------------------------------------------------------
#: Bernoulli per-chunk worker crash probability (e.g. ``0.1``).
CHAOS_RATE_ENV = "REPRO_CHAOS_RATE"
#: Directory of marker files: crash each distinct chunk exactly once.
CHAOS_ONCE_DIR_ENV = "REPRO_CHAOS_ONCE_DIR"
#: Directory of marker files: hang each distinct chunk exactly once.
CHAOS_HANG_ONCE_DIR_ENV = "REPRO_CHAOS_HANG_ONCE_DIR"
#: Hang duration for :data:`CHAOS_HANG_ONCE_DIR_ENV` (default 30000).
CHAOS_HANG_MS_ENV = "REPRO_CHAOS_HANG_MS"


def _chaos_rate_float(raw: str) -> float:
    """Blessed float boundary: parse a chaos rate, 0.0 on garbage."""
    try:
        return float(raw)
    except ValueError:
        return 0.0


def _chunk_token(jobs: Sequence[SimJob]) -> str:
    """Stable identity of a dispatched chunk (for marker files/seeds)."""
    raw = "|".join(job.cache_key() for job in jobs)
    return hashlib.sha256(raw.encode()).hexdigest()[:24]


def _mark_once(once_dir: str, token: str) -> bool:
    """True exactly once per (directory, token): marker-file latch."""
    marker = Path(once_dir).joinpath(f"chunk-{token}")
    try:
        marker.touch(exist_ok=False)
    except (FileExistsError, OSError):
        return False
    return True


def chaos_crash_point(jobs: Sequence[SimJob]) -> None:
    """Fault-injection hook run at the top of every chunk execution.

    No-op unless one of the chaos environment variables is set **and**
    the current process is a multiprocessing worker — the orchestrating
    process (and therefore inline/degraded execution) is never harmed.
    Crashes use ``os._exit(3)`` to fake a segfaulting worker, which the
    pool surfaces as ``BrokenProcessPool``.
    """
    rate = os.environ.get(CHAOS_RATE_ENV)
    once_dir = os.environ.get(CHAOS_ONCE_DIR_ENV)
    hang_dir = os.environ.get(CHAOS_HANG_ONCE_DIR_ENV)
    if rate is None and once_dir is None and hang_dir is None:
        return
    import multiprocessing

    if multiprocessing.parent_process() is None:
        return  # never kill the orchestrating process
    token = _chunk_token(jobs)
    if hang_dir is not None and _mark_once(hang_dir, token):
        hang_ms = int(os.environ.get(CHAOS_HANG_MS_ENV, "30000"))
        sleep_ms(hang_ms)
        os._exit(3)
    if once_dir is not None and _mark_once(once_dir, token):
        os._exit(3)
    if rate is not None:
        p = _chaos_rate_float(rate)
        if p > 0:
            seed = int.from_bytes(
                hashlib.sha256(
                    f"{os.getpid()}|{token}".encode()
                ).digest()[:8],
                "big",
            )
            if random.Random(seed).random() < p:
                os._exit(3)
