"""Simulation backends: one protocol, a tiered set of engines.

``reference``
    The object-per-port engine of :mod:`repro.sim.engine` — full
    fidelity: conflict statistics, trace recording, the works.  This is
    the semantic ground truth.
``fast``
    The flat-array core of :mod:`repro.runner.fastsim` — the same
    two-stage arbitration over plain integer lists, with Brent's
    cycle detection instead of a visited-state dictionary; fused pairs
    (fixed rules or one shared rotating rule, no policy) run from the
    job's fields in one frame.  It produces bit-identical steady-state
    results (exact ``Fraction`` bandwidth, period, per-port grants,
    transient length) at a multiple of the reference throughput, and
    is cross-checked against the reference by the path harness
    ``tests/property/paths.py`` on every CI run.
``analytic``
    The closed-form solver of :mod:`repro.runner.analytic` as a strict
    backend — raises on jobs the theory does not decide.
``batch``
    The lockstep structure-of-arrays core of
    :mod:`repro.runner.batchsim` — whole populations advanced as NumPy
    int64 state, bit-identical per job to the fast backend (which stays
    on as the scalar bit-exactness oracle and the tail fallback).
``auto``
    The production tier dispatch: closed form when a theorem certifies
    the outcome, fast simulation for undecided fused pairs at any
    population size, batch lockstep for 96 or more undecided jobs that
    step clock by clock, and fast simulation for fewer of them.

All backends also answer :meth:`SimBackend.run_batch`, which amortises
per-job setup (shared section tables, one dispatch) across a sweep
chunk — the executor's workers call it once per chunk.  Each backend
advertises a ``preferred_chunk`` hint: the chunk size below which
splitting a batch further stops paying (the executor sizes its worker
chunks with it).

Backend selection: pass ``backend=`` to :func:`repro.runner.api.run`, or
set the ``REPRO_SIM_BACKEND`` environment variable.  Jobs that request a
trace always run on the reference backend — the fast path keeps no
event log.
"""

from __future__ import annotations

import os
from dataclasses import replace
from fractions import Fraction
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

from ..obs import metrics as _metrics
from ..obs import names as _names
from .analytic import AnalyticBackend, AutoBackend
from .fastsim import (
    FlatSim,
    bound_exceeded,
    find_pair_cycle,
    find_steady_cycle,
    pair_rotation,
    run_pair_span,
    section_table,
)
from .job import SimJob, SimOutcome

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .batchsim import SectCache

__all__ = [
    "SimBackend",
    "ReferenceBackend",
    "FastBackend",
    "BatchBackend",
    "AnalyticBackend",
    "AutoBackend",
    "BACKEND_ENV_VAR",
    "available_backends",
    "get_backend",
    "resolve_backend",
]

#: Environment variable consulted when no explicit backend is passed.
BACKEND_ENV_VAR = "REPRO_SIM_BACKEND"


@runtime_checkable
class SimBackend(Protocol):
    """Anything that can turn a :class:`SimJob` into a :class:`SimOutcome`."""

    name: str
    #: Chunk-size hint for the executor: the largest chunk this backend
    #: still benefits from receiving whole (1 = per-job dispatch is
    #: as good as it gets).
    preferred_chunk: int

    def run(self, job: SimJob) -> SimOutcome:  # pragma: no cover - protocol
        ...

    def run_batch(
        self, jobs: Sequence[SimJob]
    ) -> list[SimOutcome]:  # pragma: no cover - protocol
        """Run many jobs in one call, amortising per-job setup."""
        ...


class ReferenceBackend:
    """The original object-per-port engine (semantic ground truth)."""

    name = "reference"
    preferred_chunk = 1

    def run(self, job: SimJob) -> SimOutcome:
        # Imported lazily: the runner is a lower layer than repro.sim's
        # front ends, which import the runner in turn.
        from ..core.stream import AccessStream
        from ..sim.engine import simulate_streams

        streams = [
            AccessStream(start_bank=b, stride=d, label=str(i + 1))
            for i, (b, d) in enumerate(job.streams)
        ]
        res = simulate_streams(
            job.config,
            streams,
            cpus=list(job.cpus),
            priority=job.priority,
            intra_priority=job.intra_priority,
            arbiter=job.arbiter,
            regulate=job.regulate,
            steady=job.steady,
            cycles=None if job.steady else job.cycles,
            trace=job.trace,
            max_cycles=job.max_cycles,
        )
        reg = _metrics.active_metrics()
        if reg is not None:
            reg.counter(_names.ENGINE_JOBS).inc()
            reg.counter(_names.ENGINE_CLOCKS).inc(res.cycles)
            vetoes = res.stats.summary().get("regulated_conflicts", 0)
            if vetoes:
                reg.counter(_names.ARBITER_VETOES).inc(vetoes)
        if job.steady:
            assert res.steady_bandwidth is not None
            assert res.steady_period is not None
            assert res.steady_grants is not None and res.steady_start is not None
            return SimOutcome(
                job=job,
                backend=self.name,
                bandwidth=res.steady_bandwidth,
                period=res.steady_period,
                grants=res.steady_grants,
                steady_start=res.steady_start,
                cycles=res.cycles,
                result=res,
            )
        return SimOutcome(
            job=job,
            backend=self.name,
            bandwidth=res.stats.effective_bandwidth() if res.cycles else Fraction(0),
            period=None,
            grants=tuple(res.stats.per_port_grants()),
            steady_start=None,
            cycles=res.cycles,
            result=res,
        )

    def run_batch(self, jobs: Sequence[SimJob]) -> list[SimOutcome]:
        return [self.run(job) for job in jobs]


class FastBackend:
    """Flat-array engine: same arbitration, no per-request objects.

    Per clock the reference engine pays for ``Port`` method calls, stats
    recording, trace hooks and a full-width bank tick; the fast path
    keeps integer lists (bank busy-until clocks, pending bank and stride
    per port) plus the precomputed bank→section table, and arbitrates
    straight on them.  Pairs in a fused shape
    (:func:`~repro.runner.fastsim.pair_rotation`) run from the job's
    fields in one frame, with no walker and no policy object; every
    other job steps a :class:`~repro.runner.fastsim.FlatSim` through the
    *same* arbiter policy the reference consults.  Winners — and
    therefore trajectories — match exactly.
    """

    name = "fast"
    #: Shared section tables amortise across a few dozen jobs; beyond
    #: that the per-job Python stepping dominates either way.
    preferred_chunk = 32

    def run(self, job: SimJob) -> SimOutcome:
        return self._run_with_sect(job, None)

    def run_batch(self, jobs: Sequence[SimJob]) -> list[SimOutcome]:
        """Run many jobs, sharing precomputed tables across the batch.

        Jobs with the same memory shape reuse one bank→section table —
        the per-job setup cost that dominates small steady runs in a
        sweep.
        """
        sect_cache: dict[tuple[int, int | None, str], list[int]] = {}
        out: list[SimOutcome] = []
        for job in jobs:
            shape = (job.banks, job.sections, job.section_mapping)
            sect = sect_cache.get(shape)
            if sect is None:
                sect = sect_cache[shape] = section_table(job.config)
            out.append(self._run_with_sect(job, sect))
        return out

    def _run_with_sect(
        self, job: SimJob, sect: "list[int] | None"
    ) -> SimOutcome:
        if job.trace:
            raise ValueError(
                "the fast backend keeps no trace; run trace jobs on the "
                "reference backend"
            )
        reg = _metrics.active_metrics()
        if reg is not None and (job.arbiter is not None or job.regulate):
            kind = "wfq" if job.arbiter is not None else "regulated"
            if job.arbiter is not None and job.regulate:
                kind = "wfq+regulated"
            reg.counter(_names.ARBITER_POLICY_JOBS, kind=kind).inc()
        rot = pair_rotation(job)
        if rot is not None:
            # A fused pair from its start state: clock 0, idle banks,
            # the rule at phase 0.
            if sect is None:
                sect = section_table(job.config)
            same_cpu = job.cpus[0] == job.cpus[1]
            pair = (job.banks, job.bank_cycle, sect, same_cpu, rot, 0, job.streams)
        if not job.steady:
            cycles = job.cycles
            assert cycles is not None
            if rot is None:
                sim = FlatSim.from_job(job, sect)
                sim.run_span(cycles)
                grants = tuple(sim.grants)
            else:
                grants = run_pair_span(*pair, [0] * job.banks, 0, cycles)[2:]
            total = sum(grants)
            if reg is not None:
                reg.counter(_names.FAST_JOBS, mode="span").inc()
                reg.counter(_names.FAST_CLOCKS, mode="span").inc(cycles)
                reg.counter(_names.FAST_GRANTS, mode="span").inc(total)
            return SimOutcome(
                job=job,
                backend=self.name,
                bandwidth=Fraction(total, cycles) if cycles else Fraction(0),
                period=None,
                grants=grants,
                steady_start=None,
                cycles=cycles,
            )

        if rot is None:
            mu, lam, per_port = find_steady_cycle(
                lambda: FlatSim.from_job(job, sect), job.max_cycles
            )
        else:
            mu, lam, per_port = find_pair_cycle(
                *pair, [0] * job.banks, 0, job.max_cycles
            )
        if reg is not None:
            reg.counter(_names.FAST_JOBS, mode="steady").inc()
            reg.counter(_names.FAST_CLOCKS, mode="steady").inc(mu + lam)
            reg.counter(_names.FAST_GRANTS, mode="steady").inc(sum(per_port))
        return SimOutcome(
            job=job,
            backend=self.name,
            bandwidth=Fraction(sum(per_port), lam),
            period=lam,
            grants=per_port,
            steady_start=mu,
            cycles=mu + lam,
        )


class BatchBackend:
    """Lockstep structure-of-arrays engine over whole populations.

    The chunk handed to :meth:`run_batch` advances as one NumPy
    structure-of-arrays population (:mod:`repro.runner.batchsim`);
    converged lanes retire behind an active mask, and sparse survivor
    tails hand off to the scalar fast engine (which is also the
    bit-exactness oracle: per-job outcomes are identical by the
    property suite).  Error behaviour matches the sequential fast
    backend observably — the exception reported is the one the
    lowest-indexed failing job would have raised.
    """

    name = "batch"
    #: The SoA core amortises setup across the whole chunk; give it
    #: everything a worker can hold.
    preferred_chunk = 4096

    def run(self, job: SimJob) -> SimOutcome:
        return self.run_batch([job])[0]

    def run_batch(self, jobs: Sequence[SimJob]) -> list[SimOutcome]:
        # NumPy loads with the kernel, on its first run, not with the
        # runner: processes that never batch never import it.
        from .batchsim import run_span_batch, run_steady_batch

        out: list[SimOutcome | None] = [None] * len(jobs)
        errors: dict[int, Exception] = {}
        steady_idx: list[int] = []
        span_idx: list[int] = []
        policy_idx: list[int] = []
        for i, job in enumerate(jobs):
            if job.trace:
                errors[i] = ValueError(
                    "the batch backend keeps no trace; run trace jobs on "
                    "the reference backend"
                )
            elif job.arbiter is not None or job.regulate:
                # Arbiter-policy jobs are not vectorized (the SoA core
                # encodes only the four priority rules); they run on the
                # scalar fast engine, relabeled — same outcome contract
                # as the sparse-tail fallback.
                policy_idx.append(i)
            elif job.steady:
                steady_idx.append(i)
            else:
                span_idx.append(i)
        sect_tables: SectCache = {}
        reg = _metrics.active_metrics()
        if policy_idx:
            if reg is not None:
                reg.counter(_names.BATCH_FALLBACK, reason="policy").inc(
                    len(policy_idx)
                )
            fast = get_backend(FastBackend.name)
            assert isinstance(fast, FastBackend)
            for i in policy_idx:
                try:
                    solo = fast._run_with_sect(jobs[i], None)
                except RuntimeError as exc:
                    errors[i] = exc
                else:
                    out[i] = replace(solo, backend=self.name)
        if steady_idx:
            results, exceeded, fallback, _stats = run_steady_batch(
                [jobs[i] for i in steady_idx], sect_tables
            )
            for k in exceeded:
                i = steady_idx[k]
                errors[i] = bound_exceeded(jobs[i].max_cycles)
            if fallback:
                if reg is not None:
                    reg.counter(_names.BATCH_FALLBACK, reason="tail").inc(
                        len(fallback)
                    )
                fast = get_backend(FastBackend.name)
                assert isinstance(fast, FastBackend)
                for k in fallback:
                    i = steady_idx[k]
                    try:
                        solo = fast._run_with_sect(jobs[i], None)
                    except RuntimeError as exc:
                        errors[i] = exc
                    else:
                        out[i] = replace(solo, backend=self.name)
            for k, res in enumerate(results):
                if res is None:
                    continue
                i = steady_idx[k]
                per_port = tuple(
                    g1 - g0 for g0, g1 in zip(res.grants0, res.grants1)
                )
                if reg is not None:
                    reg.histogram(_names.FASTSIM_STEADY_MU).observe(res.mu)
                    reg.histogram(_names.FASTSIM_STEADY_LAM).observe(res.lam)
                out[i] = SimOutcome(
                    job=jobs[i],
                    backend=self.name,
                    bandwidth=Fraction(sum(per_port), res.lam),
                    period=res.lam,
                    grants=per_port,
                    steady_start=res.mu,
                    cycles=res.mu + res.lam,
                )
        if span_idx:
            grants_list, _span_stats = run_span_batch(
                [jobs[i] for i in span_idx], sect_tables
            )
            for k, grants in enumerate(grants_list):
                i = span_idx[k]
                cycles = jobs[i].cycles
                assert cycles is not None
                total = sum(grants)
                out[i] = SimOutcome(
                    job=jobs[i],
                    backend=self.name,
                    bandwidth=(
                        Fraction(total, cycles) if cycles else Fraction(0)
                    ),
                    period=None,
                    grants=grants,
                    steady_start=None,
                    cycles=cycles,
                )
        if errors:
            raise errors[min(errors)]
        done: list[SimOutcome] = []
        for o in out:
            assert o is not None
            done.append(o)
        return done


_INSTANCES: dict[str, SimBackend] = {}
_CLASSES: dict[str, type] = {
    ReferenceBackend.name: ReferenceBackend,
    FastBackend.name: FastBackend,
    BatchBackend.name: BatchBackend,
    AnalyticBackend.name: AnalyticBackend,
    AutoBackend.name: AutoBackend,
}


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`get_backend` / ``--backend``."""
    return tuple(sorted(_CLASSES))


def get_backend(name: str) -> SimBackend:
    """Shared backend instance for ``name`` (``reference`` / ``fast``)."""
    try:
        inst = _INSTANCES.get(name)
        if inst is None:
            inst = _INSTANCES[name] = _CLASSES[name]()
        return inst
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {available_backends()}"
        ) from None


def resolve_backend(
    backend: "SimBackend | str | None", job: SimJob | None = None
) -> SimBackend:
    """Resolve the backend for a run.

    Precedence: explicit argument > ``REPRO_SIM_BACKEND`` env var >
    ``reference``.  Trace jobs always resolve to the reference backend
    (the fast path keeps no event log).
    """
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR) or ReferenceBackend.name
    if isinstance(backend, str):
        backend = get_backend(backend)
    if job is not None and job.trace and backend.name != ReferenceBackend.name:
        backend = get_backend(ReferenceBackend.name)
    return backend
