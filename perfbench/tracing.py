"""Layer spans for traced runs, recorded from outside the program.

:func:`install` wraps the public entry point of each layer (plus the
one private funnel every fast-engine run goes through) so that every
call records a span: ``(id, parent id, name, start ns, end ns, unit)``,
where ``unit`` is the pass or request the call served.  Parents come
from a context variable, so concurrent requests on the server's event
loop each keep their own tree.  Spans stay in memory until the run
ends; :func:`aggregate` then turns them into per-name call counts,
total time and self time (duration minus the part of it that child
spans cover).

Wrappers also count what crosses each boundary (keys probed, payloads
found, jobs per backend, lookup tiers).  :func:`crosscheck` compares
those counts with the program's own obs counters.

Spans are recorded in the process that installed the wrappers; work a
process pool runs in its workers is not traced (no ledger workload
uses a pool).
"""

from __future__ import annotations

import contextvars
import itertools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

#: (span id, span name) of the innermost open span, or None.
_PARENT: contextvars.ContextVar[tuple[int, str] | None] = contextvars.ContextVar(
    "perfbench_parent", default=None
)
#: Pass or request id the current call serves.
_UNIT: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_unit", default=0
)

Span = tuple[int, "int | None", str, int, int, int]


class Recorder:
    """In-memory spans and boundary counts of one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        #: program obs counters, keyed "name{label=value,...}"
        self.obs: Counter[str] = Counter()
        self._ids = itertools.count(1)
        self._units = itertools.count(1)

    def next_id(self) -> int:
        return next(self._ids)

    def begin_unit(self) -> contextvars.Token[int]:
        """Start a new pass or request: later spans carry its id."""
        return _UNIT.set(next(self._units))


def counter_values(registry: Any) -> dict[str, int]:
    """Every counter of an obs registry as ``{"name{labels}": value}``."""
    out = {}
    for metric in registry.collect():
        if metric.kind == "counter":
            labels = ",".join(f"{k}={v}" for k, v in metric.labels)
            out[f"{metric.name}{{{labels}}}"] = metric.value
    return out


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
#: Called after a wrapped call returns: (call args, result, parent name).
After = Callable[[tuple, Any, "str | None"], None]


def _timed(
    rec: Recorder, name: str, fn: Callable, after: After | None = None
) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        sid = rec.next_id()
        parent = _PARENT.get()
        token = _PARENT.set((sid, name))
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            _PARENT.reset(token)
            rec.spans.append(
                (sid, parent[0] if parent else None, name, start, end, _UNIT.get())
            )
        if after is not None:
            after(args, result, parent[1] if parent else None)
        return result

    return wrapper


def _timed_async(
    rec: Recorder, name: str, fn: Callable, *, new_unit: bool = False
) -> Callable:
    async def wrapper(*args: Any, **kwargs: Any) -> Any:
        unit_token = rec.begin_unit() if new_unit else None
        sid = rec.next_id()
        parent = _PARENT.get()
        token = _PARENT.set((sid, name))
        start = time.perf_counter_ns()
        try:
            return await fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            rec.spans.append(
                (sid, parent[0] if parent else None, name, start, end, _UNIT.get())
            )
            _PARENT.reset(token)
            if unit_token is not None:
                _UNIT.reset(unit_token)
            rec.counts[f"{name}.calls"] += 1

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every layer entry point the ledger reports on."""
    from repro.runner import analytic, backends, executor, scheduling
    from repro.runner.job import SimJob, SimOutcome
    from repro.runner.store import ResultStore
    from repro.serve import app, coalesce, lookup

    def count(key: str, amount: int = 1) -> After:
        def after(args: tuple, result: Any, parent: str | None) -> None:
            rec.counts[key] += amount

        return after

    def count_batch(key: str) -> After:
        def after(args: tuple, result: Any, parent: str | None) -> None:
            rec.counts[key] += len(args[1])

        return after

    # runner.job
    SimJob.cache_key = _timed(rec, "job.key", SimJob.cache_key)
    SimOutcome.to_payload = _timed(rec, "job.payload", SimOutcome.to_payload)
    from_payload = SimOutcome.__dict__["from_payload"].__func__
    SimOutcome.from_payload = classmethod(
        _timed(rec, "job.payload", from_payload)
    )

    # runner.executor: stats deltas around each batch
    run_many = executor.SweepExecutor.run_many

    def run_many_counted(self: Any, jobs: Any, **kwargs: Any) -> Any:
        before = self.stats.as_dict()
        try:
            return timed_run_many(self, jobs, **kwargs)
        finally:
            after = self.stats.as_dict()
            for field in ("submitted", "hits", "deduped", "executed"):
                rec.counts[f"executor.{field}"] += after[field] - before[field]
            rec.counts["executor.calls"] += 1

    timed_run_many = _timed(rec, "executor.run_many", run_many)
    executor.SweepExecutor.run_many = run_many_counted

    # runner.store
    def after_get_many(args: tuple, result: Any, parent: str | None) -> None:
        rec.counts["store.found"] += len(result)

    timed_get_many = _timed(
        rec, "store.get", ResultStore.get_many, after_get_many
    )

    def get_many(self: Any, keys: Any) -> Any:
        keys = list(keys)
        rec.counts["store.keys"] += len(keys)
        return timed_get_many(self, keys)

    def after_get(args: tuple, result: Any, parent: str | None) -> None:
        rec.counts["store.keys"] += 1
        rec.counts["store.found"] += result is not None

    ResultStore.get_many = get_many
    ResultStore.get = _timed(rec, "store.get", ResultStore.get, after_get)
    ResultStore.put_many = _timed(
        rec, "store.put", ResultStore.put_many, count_batch("store.entries")
    )
    ResultStore.put = _timed(
        rec, "store.put", ResultStore.put, count("store.entries")
    )

    # runner.scheduling (every ledger workload runs inline)
    inline = scheduling.InlineScheduler
    inline.execute = _timed(rec, "scheduler.execute", inline.execute)
    observe_chunk = scheduling.ChunkRunner.observe_chunk

    def observe_chunk_counted(self: Any, chunk: Any, scheduler: str) -> None:
        rec.counts["scheduler.chunks"] += 1
        observe_chunk(self, chunk, scheduler)

    scheduling.ChunkRunner.observe_chunk = observe_chunk_counted

    # runner.analytic
    def after_solve(args: tuple, result: Any, parent: str | None) -> None:
        rec.counts["analytic.calls"] += 1
        if result is not None:
            rec.counts["analytic.decided"] += 1
            if parent == "backend.auto":
                rec.counts["auto.decided"] += 1

    solve = _timed(rec, "analytic.solve", analytic.solve, after_solve)
    analytic.solve = solve
    lookup.solve = solve

    # runner.backends: auto dispatch, batch kernel, fast engine
    auto = backends.AutoBackend
    auto.run_batch = _timed(
        rec, "backend.auto", auto.run_batch, count_batch("auto.jobs")
    )
    auto.run = _timed(rec, "backend.auto", auto.run, count("auto.jobs"))
    batch = backends.BatchBackend
    batch.run_batch = _timed(
        rec, "backend.batch", batch.run_batch, count_batch("batch.jobs")
    )

    def after_fast(args: tuple, result: Any, parent: str | None) -> None:
        rec.counts["fast.jobs"] += 1
        if parent == "backend.batch":
            job = args[1]
            policy = job.arbiter is not None or bool(job.regulate)
            rec.counts["batch.fallback." + ("policy" if policy else "tail")] += 1

    fast = backends.FastBackend
    fast._run_with_sect = _timed(
        rec, "backend.fast", fast._run_with_sect, after_fast
    )

    # serve.protocol, serve.lookup, serve.coalesce, serve.app
    app.job_from_payload = _timed(rec, "serve.parse", app.job_from_payload)
    app.outcome_to_payload = _timed(
        rec, "serve.serialize", app.outcome_to_payload
    )

    def after_probe(args: tuple, result: Any, parent: str | None) -> None:
        rec.counts["lookup." + ("miss" if result is None else result[1])] += 1

    lookup.LookupTier.probe = _timed(
        rec, "serve.lookup", lookup.LookupTier.probe, after_probe
    )
    coalesce.Coalescer.submit = _timed_async(
        rec, "serve.coalesce", coalesce.Coalescer.submit
    )
    app.BandwidthService.dispatch = _timed_async(
        rec, "serve.dispatch", app.BandwidthService.dispatch, new_unit=True
    )


# ----------------------------------------------------------------------
# Reduction
# ----------------------------------------------------------------------
def _covered(intervals: list[tuple[int, int]], start: int, end: int) -> int:
    """Nanoseconds of [start, end] covered by the union of intervals."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def aggregate(spans: list[Span]) -> dict[str, list[int]]:
    """``name -> [calls, total ns, self ns]`` over finished spans."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for sid, parent, name, start, end, unit in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    for sid, parent, name, start, end, unit in spans:
        row = out[name]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - _covered(children.get(sid, []), start, end)
    return dict(out)


def dump(rec: Recorder, spans_path: Path) -> dict:
    """Write every span as one JSON line; return the run's summary."""
    with spans_path.open("w") as fh:
        for span in rec.spans:
            fh.write(json.dumps(span, separators=(",", ":")) + "\n")
    return {
        "layers": aggregate(rec.spans),
        "counts": dict(rec.counts),
        "obs": dict(rec.obs),
    }


def _obs_sum(obs: dict[str, int], name: str, **labels: str) -> int:
    """Sum of the obs counters called ``name`` that carry ``labels``."""
    want = [f"{k}={v}" for k, v in labels.items()]
    total = 0
    for key, value in obs.items():
        base, _, rest = key.partition("{")
        if base == name and all(w in rest.rstrip("}").split(",") for w in want):
            total += value
    return total


def crosscheck(summary: dict) -> list[str]:
    """Disagreements between wrapped-call counts and obs counters."""
    c, obs = summary["counts"], summary["obs"]

    def g(key: str) -> int:
        return c.get(key, 0)

    checks = [
        ("runner.auto.dispatch", g("auto.jobs"),
         _obs_sum(obs, "runner.auto.dispatch")),
        ("runner.auto.dispatch{tier=analytic}", g("auto.decided"),
         _obs_sum(obs, "runner.auto.dispatch", tier="analytic")),
        ("runner.auto.dispatch{tier=batch}", g("batch.jobs"),
         _obs_sum(obs, "runner.auto.dispatch", tier="batch")),
        ("runner.batchsim.fallback{reason=tail}", g("batch.fallback.tail"),
         _obs_sum(obs, "runner.batchsim.fallback", reason="tail")),
        ("runner.batchsim.fallback{reason=policy}", g("batch.fallback.policy"),
         _obs_sum(obs, "runner.batchsim.fallback", reason="policy")),
        ("runner.store.hits", g("store.found"), _obs_sum(obs, "runner.store.hits")),
        ("runner.store.misses", g("store.keys") - g("store.found"),
         _obs_sum(obs, "runner.store.misses")),
        ("runner.store.writes", g("store.entries"),
         _obs_sum(obs, "runner.store.writes")),
        ("runner.scheduler.chunks", g("scheduler.chunks"),
         _obs_sum(obs, "runner.scheduler.chunks")),
    ]
    for tier in ("analytic", "store", "memo", "miss"):
        checks.append(
            (f"serve.lookup.probes{{tier={tier}}}", g(f"lookup.{tier}"),
             _obs_sum(obs, "serve.lookup.probes", tier=tier))
        )
    if g("serve.coalesce.calls"):
        checks.append(
            ("serve.coalesce.folded",
             g("serve.coalesce.calls") - g("executor.submitted"),
             _obs_sum(obs, "serve.coalesce.folded"))
        )
        checks.append(
            ("serve.coalesce.batches", g("executor.calls"),
             _obs_sum(obs, "serve.coalesce.batches"))
        )
    return [
        f"{name}: wrapped {mine} != obs {theirs}"
        for name, mine, theirs in checks
        if mine != theirs
    ]
