"""The metrics/tracing name contract — one constant per instrument.

Every metric and span the instrumented layers emit is declared here,
with its kind, label keys, and emitting call site.  The contract is
load-bearing in three places:

* call sites reference these constants (never string literals), so a
  rename is one edit;
* ``docs/OBSERVABILITY.md`` documents exactly this table, and
  ``tests/obs/test_instrumentation.py`` diffs the two — an undocumented
  metric name fails CI;
* the same test asserts that instrumented runs emit *only* contract
  names, so ad-hoc instrumentation cannot creep in unnamed.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "MetricSpec",
    "SpanSpec",
    "METRIC_CONTRACT",
    "SPAN_CONTRACT",
    "metric_names",
    "span_names",
]


@dataclass(frozen=True)
class MetricSpec:
    """One contract row: a metric's identity and provenance."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    labels: tuple[str, ...]
    emitter: str
    help: str


@dataclass(frozen=True)
class SpanSpec:
    """One tracing span's identity and provenance."""

    name: str
    labels: tuple[str, ...]
    emitter: str
    help: str


# ----------------------------------------------------------------------
# Metric names (referenced by the instrumented call sites)
# ----------------------------------------------------------------------
EXECUTOR_SUBMITTED = "runner.executor.submitted"
EXECUTOR_MEMO_HITS = "runner.executor.memo_hits"
EXECUTOR_DEDUPED = "runner.executor.deduped"
EXECUTOR_EXECUTED = "runner.executor.executed"
EXECUTOR_MEMO_EVICTIONS = "runner.executor.memo_evictions"
EXECUTOR_MEMO_SIZE = "runner.executor.memo_size"
EXECUTOR_CHUNK_JOBS = "runner.executor.chunk_jobs"
EXECUTOR_RETRIES = "runner.executor.retries"
EXECUTOR_FAILURES = "runner.executor.failures"
EXECUTOR_RECOVERED = "runner.executor.recovered"
EXECUTOR_POOL_REBUILDS = "runner.executor.pool_rebuilds"

AUTO_DISPATCH = "runner.auto.dispatch"
ANALYTIC_DECIDED = "runner.analytic.decided"

ARBITER_POLICY_JOBS = "runner.arbiter.policy_jobs"
ARBITER_VETOES = "runner.arbiter.vetoes"

BATCH_JOBS = "runner.batchsim.jobs"
BATCH_STEPS = "runner.batchsim.steps"
BATCH_POPULATION = "runner.batchsim.population"
BATCH_WAVES = "runner.batchsim.retirement_waves"
BATCH_OCCUPANCY = "runner.batchsim.mask_occupancy"
BATCH_FALLBACK = "runner.batchsim.fallback"

FASTSIM_STEADY_MU = "runner.fastsim.steady_mu"
FASTSIM_STEADY_LAM = "runner.fastsim.steady_lam"
FAST_JOBS = "runner.fast.jobs"
FAST_CLOCKS = "runner.fast.clocks"
FAST_GRANTS = "runner.fast.grants"

SERVE_REQUESTS = "serve.http.requests"
SERVE_LATENCY = "serve.http.latency_us"
SERVE_INFLIGHT = "serve.http.inflight"
SERVE_SHED = "serve.http.shed"
SERVE_COALESCED = "serve.coalesce.folded"
SERVE_QUEUE_DEPTH = "serve.coalesce.queue_depth"
SERVE_BATCHES = "serve.coalesce.batches"
SERVE_LOOKUP = "serve.lookup.probes"

SCHED_CHUNKS = "runner.scheduler.chunks"
SCHED_STEALS = "runner.scheduler.steals"

STORE_HITS = "runner.store.hits"
STORE_MISSES = "runner.store.misses"
STORE_QUARANTINED = "runner.store.quarantined"
STORE_WRITES = "runner.store.writes"

ENGINE_JOBS = "sim.engine.jobs"
ENGINE_CLOCKS = "sim.engine.clocks"
ENGINE_STEADY_DETECTIONS = "sim.engine.steady_detections"

#: The full metrics contract, sorted by name.
METRIC_CONTRACT: tuple[MetricSpec, ...] = (
    MetricSpec(
        ANALYTIC_DECIDED, "counter", ("theorem",),
        "repro.runner.analytic.solve",
        "Closed-form decisions per certifying theorem "
        "(t1-single / t2-disjoint / t3-start-resolved).",
    ),
    MetricSpec(
        ARBITER_POLICY_JOBS, "counter", ("kind",),
        "repro.runner.backends.FastBackend",
        "Jobs with a non-default arbiter policy entering the scalar "
        "fast path (wfq ranking, token-bucket regulation, or both).",
    ),
    MetricSpec(
        ARBITER_VETOES, "counter", (),
        "repro.runner.backends.ReferenceBackend",
        "Regulator vetoes the reference engine recorded as REGULATED "
        "denials (a request held back by an exhausted token bucket).",
    ),
    MetricSpec(
        AUTO_DISPATCH, "counter", ("tier",),
        "repro.runner.analytic.AutoBackend",
        "Jobs the auto backend sent to each tier: analytic closed "
        "form, fastsim (every undecided fused pair, and clocked jobs "
        "in populations under 96) or batch lockstep (96 or more "
        "undecided clocked jobs).",
    ),
    MetricSpec(
        BATCH_FALLBACK, "counter", ("reason",),
        "repro.runner.backends.BatchBackend",
        "Lanes the batch core handed back to the scalar fast engine "
        "(tail: sparse survivor wavefronts; policy: arbiter-policy "
        "jobs the vector core does not model).",
    ),
    MetricSpec(
        BATCH_JOBS, "counter", ("mode",),
        "repro.runner.batchsim.run_steady_batch/run_span_batch",
        "Lanes advanced in lockstep by the batch core, split steady "
        "vs. fixed-horizon span.",
    ),
    MetricSpec(
        BATCH_OCCUPANCY, "histogram", (),
        "repro.runner.batchsim._drive_steady",
        "Active-lane mask occupancy (percent of the current SoA "
        "population) sampled at each Brent anchor.",
    ),
    MetricSpec(
        BATCH_POPULATION, "histogram", (),
        "repro.runner.batchsim.run_steady_batch/run_span_batch",
        "Lanes per structure-of-arrays kernel group (pair-fixed and "
        "generic groups observe separately).",
    ),
    MetricSpec(
        BATCH_WAVES, "histogram", (),
        "repro.runner.batchsim._drive_steady",
        "Size of each retirement wave: lanes leaving the stepped "
        "population together (converged or bound-exhausted).",
    ),
    MetricSpec(
        BATCH_STEPS, "counter", ("mode",),
        "repro.runner.batchsim.run_steady_batch/run_span_batch",
        "Vectorized wavefronts executed (one per lockstep clock per "
        "walker).",
    ),
    MetricSpec(
        EXECUTOR_CHUNK_JOBS, "histogram", (),
        "repro.runner.scheduling.ChunkRunner.observe_chunk",
        "Unique jobs per dispatched batch chunk (inline batches count "
        "as one chunk).",
    ),
    MetricSpec(
        EXECUTOR_DEDUPED, "counter", (),
        "repro.runner.executor.SweepExecutor.run_many",
        "Jobs folded onto an isomorphic twin within the same batch.",
    ),
    MetricSpec(
        EXECUTOR_EXECUTED, "counter", (),
        "repro.runner.executor.SweepExecutor.run_many",
        "Jobs actually simulated (after dedup and cache hits).",
    ),
    MetricSpec(
        EXECUTOR_FAILURES, "counter", (),
        "repro.runner.executor.SweepExecutor.run_many",
        "Jobs that still failed after retries and bisection isolation "
        "(one FailedOutcome each).",
    ),
    MetricSpec(
        EXECUTOR_MEMO_EVICTIONS, "counter", (),
        "repro.runner.executor.SweepExecutor.run_many",
        "Least-recently-used entries evicted from the in-process memo.",
    ),
    MetricSpec(
        EXECUTOR_MEMO_HITS, "counter", (),
        "repro.runner.executor.SweepExecutor.run_many",
        "Jobs served from the in-process memo or the shared result "
        "store.",
    ),
    MetricSpec(
        EXECUTOR_MEMO_SIZE, "gauge", (),
        "repro.runner.executor.SweepExecutor.run_many",
        "Entries in the in-process memo after the batch.",
    ),
    MetricSpec(
        EXECUTOR_POOL_REBUILDS, "counter", (),
        "repro.runner.scheduling.ChunkRunner.run",
        "Broken or timed-out process pools torn down and rebuilt "
        "mid-batch.",
    ),
    MetricSpec(
        EXECUTOR_RECOVERED, "counter", (),
        "repro.runner.executor.SweepExecutor.run_many",
        "Jobs that succeeded only after at least one failed dispatch "
        "(retry, pool rebuild, or bisection).",
    ),
    MetricSpec(
        EXECUTOR_RETRIES, "counter", (),
        "repro.runner.executor.SweepExecutor.run_many",
        "Chunk re-dispatches after a failure (retries and bisected "
        "halves).",
    ),
    MetricSpec(
        EXECUTOR_SUBMITTED, "counter", (),
        "repro.runner.executor.SweepExecutor.run_many",
        "Jobs submitted to run_many/run_one.",
    ),
    MetricSpec(
        FAST_CLOCKS, "counter", ("mode",),
        "repro.runner.backends.FastBackend",
        "Clocks the fast backend accounted: steady jobs contribute "
        "mu + lam, span jobs their fixed horizon.",
    ),
    MetricSpec(
        FAST_GRANTS, "counter", ("mode",),
        "repro.runner.backends.FastBackend",
        "Grants the fast backend reported: steady jobs contribute one "
        "period's grants, span jobs the whole-run total.",
    ),
    MetricSpec(
        FAST_JOBS, "counter", ("mode",),
        "repro.runner.backends.FastBackend",
        "Jobs run on the fast backend, split steady vs. fixed-horizon "
        "span.",
    ),
    MetricSpec(
        FASTSIM_STEADY_LAM, "histogram", (),
        "repro.runner.fastsim.find_steady_cycle / find_pair_cycle / "
        "repro.runner.backends.BatchBackend",
        "Minimal steady-period lengths (Brent lambda) found by the "
        "cycle detector (scalar and batch lanes alike).",
    ),
    MetricSpec(
        FASTSIM_STEADY_MU, "histogram", (),
        "repro.runner.fastsim.find_steady_cycle / find_pair_cycle / "
        "repro.runner.backends.BatchBackend",
        "Transient lengths (Brent mu) found by the cycle detector "
        "(scalar and batch lanes alike).",
    ),
    MetricSpec(
        SCHED_CHUNKS, "counter", ("scheduler",),
        "repro.runner.scheduling.ChunkRunner.observe_chunk",
        "Chunks dispatched by each scheduler (inline / pool), stolen "
        "splits included.",
    ),
    MetricSpec(
        SCHED_STEALS, "counter", ("scheduler",),
        "repro.runner.scheduling.ChunkRunner._steal",
        "Straggler chunks split onto idle workers by the pool's work "
        "stealing.",
    ),
    MetricSpec(
        STORE_HITS, "counter", (),
        "repro.runner.store.ResultStore.get/get_many",
        "Result-store lookups served from a per-key payload file.",
    ),
    MetricSpec(
        STORE_MISSES, "counter", (),
        "repro.runner.store.ResultStore.get/get_many",
        "Result-store lookups that found no payload file.",
    ),
    MetricSpec(
        STORE_QUARANTINED, "counter", (),
        "repro.runner.store.ResultStore._load",
        "Corrupt result-store payload files moved aside to "
        "<file>.corrupt and treated as misses.",
    ),
    MetricSpec(
        STORE_WRITES, "counter", (),
        "repro.runner.store.ResultStore.put/put_many",
        "Payload files written to the result store (atomic temp-file "
        "plus os.replace).",
    ),
    MetricSpec(
        SERVE_BATCHES, "counter", (),
        "repro.serve.coalesce.Coalescer._drain",
        "Backend drain batches dispatched by the coalescer (each one "
        "SweepExecutor.run_many call over the queued unique jobs).",
    ),
    MetricSpec(
        SERVE_COALESCED, "counter", (),
        "repro.serve.coalesce.Coalescer.submit",
        "Requests folded onto an already in-flight computation of the "
        "same canonical job (the Appendix isomorphism is the dedup "
        "key).",
    ),
    MetricSpec(
        SERVE_QUEUE_DEPTH, "gauge", (),
        "repro.serve.coalesce.Coalescer.submit",
        "Canonical jobs queued for the next backend drain batch.",
    ),
    MetricSpec(
        SERVE_INFLIGHT, "gauge", (),
        "repro.serve.app.BandwidthService.dispatch",
        "Compute requests (/v1/beff, /v1/sweep) currently being "
        "served.",
    ),
    MetricSpec(
        SERVE_LATENCY, "histogram", ("endpoint",),
        "repro.serve.app.BandwidthService.dispatch",
        "Per-request service latency in integer microseconds, one "
        "series per endpoint (power-of-two buckets).",
    ),
    MetricSpec(
        SERVE_REQUESTS, "counter", ("endpoint", "status"),
        "repro.serve.app.BandwidthService.dispatch",
        "HTTP requests served, per endpoint and response status code.",
    ),
    MetricSpec(
        SERVE_SHED, "counter", (),
        "repro.serve.app.BandwidthService.dispatch",
        "Compute requests rejected with 429 + Retry-After because the "
        "in-flight cap was reached (load shedding).",
    ),
    MetricSpec(
        SERVE_LOOKUP, "counter", ("tier",),
        "repro.serve.lookup.LookupTier.probe",
        "Lookup-tier probes by resolution: analytic closed form, "
        "the executor's memo, a result-store read, or miss (falls "
        "through to the simulation drain queue).",
    ),
    MetricSpec(
        ENGINE_CLOCKS, "counter", (),
        "repro.runner.backends.ReferenceBackend",
        "Clocks simulated by the reference engine through the runner.",
    ),
    MetricSpec(
        ENGINE_JOBS, "counter", (),
        "repro.runner.backends.ReferenceBackend",
        "Jobs run on the reference engine through the runner.",
    ),
    MetricSpec(
        ENGINE_STEADY_DETECTIONS, "counter", (),
        "repro.sim.engine.Engine.run_to_steady_state",
        "Steady-state detections performed by the reference engine "
        "(including legacy front ends).",
    ),
)

# ----------------------------------------------------------------------
# Span names
# ----------------------------------------------------------------------
SPAN_CLI = "cli.command"
SPAN_EXECUTOR_RUN_MANY = "executor.run_many"
SPAN_EXECUTOR_POOL = "executor.pool"
SPAN_EXECUTOR_RECOVERY = "executor.recovery"
SPAN_EXECUTOR_STEAL = "executor.steal"
SPAN_AUTO_RUN_BATCH = "backend.auto.run_batch"
SPAN_ENGINE_STEADY_DETECT = "engine.steady_detect"
SPAN_SERVE_REQUEST = "serve.request"
SPAN_SERVE_DRAIN = "serve.drain"

#: The full span contract, sorted by name.
SPAN_CONTRACT: tuple[SpanSpec, ...] = (
    SpanSpec(
        SPAN_AUTO_RUN_BATCH, ("jobs",),
        "repro.runner.analytic.AutoBackend.run_batch",
        "One batched tier dispatch through the auto backend.",
    ),
    SpanSpec(
        SPAN_CLI, ("command",),
        "repro.cli.main",
        "One repro-mem command dispatch, end to end.",
    ),
    SpanSpec(
        SPAN_ENGINE_STEADY_DETECT, ("start_cycle",),
        "repro.sim.engine.Engine.run_to_steady_state",
        "Brent detection phase of a reference-engine steady run "
        "(the statistics replay is outside the span).",
    ),
    SpanSpec(
        SPAN_EXECUTOR_POOL, ("chunks", "workers"),
        "repro.runner.scheduling.PoolScheduler.execute",
        "One process-pool fan-out over the batch's unique jobs.",
    ),
    SpanSpec(
        SPAN_EXECUTOR_RECOVERY, ("jobs", "attempt"),
        "repro.runner.scheduling.ChunkRunner.dispatch_inline",
        "One inline re-dispatch of previously failed work (retry or "
        "bisected half); emitted only on the failure path.",
    ),
    SpanSpec(
        SPAN_EXECUTOR_RUN_MANY, ("jobs",),
        "repro.runner.executor.SweepExecutor.run_many",
        "One executor batch: dedup, cache lookups, execution.",
    ),
    SpanSpec(
        SPAN_EXECUTOR_STEAL, ("jobs", "scheduler"),
        "repro.runner.scheduling.ChunkRunner._steal",
        "One work-stealing event: a queued straggler chunk split in "
        "half over idle pool workers.",
    ),
    SpanSpec(
        SPAN_SERVE_DRAIN, ("jobs",),
        "repro.serve.coalesce.Coalescer._drain",
        "One coalescer drain batch through the shared warm "
        "SweepExecutor (runs in a worker thread off the event loop).",
    ),
    SpanSpec(
        SPAN_SERVE_REQUEST, ("endpoint",),
        "repro.serve.app.BandwidthService.dispatch",
        "One HTTP request through the bandwidth-oracle service, "
        "route dispatch to response body.",
    ),
)


def metric_names() -> frozenset[str]:
    """Every contract metric name."""
    return frozenset(spec.name for spec in METRIC_CONTRACT)


def span_names() -> frozenset[str]:
    """Every contract span name."""
    return frozenset(spec.name for spec in SPAN_CONTRACT)
