"""One differential oracle: every execution path of a job, one truth.

A job's **truth** is the reference engine's answer: its payload without
the ``backend`` label or, when the job cannot finish, its error as
``"ErrorClass: message"``.  A steady truth is also checked against
:func:`first_repeat`, a dictionary detector over the object engine that
shares no code with the Brent detector every backend uses.  :func:`answer`
puts whatever a path returns in that form, so each path is one ``==``:
:func:`check_run` (backends, canonical job, closed form),
:func:`check_batch`, :func:`check_executor` (one placement, cold, from
the memo and, over a store, from the store) and :func:`check_http` (the
service ``run_server`` builds, from every lookup tier).  :func:`jobs` is
the one job strategy; a test narrows it by argument.  The cache key
leaves ``max_cycles`` out, so :func:`populations` also draws twins that
differ only in it, and :func:`check_twins` sends a job at the bounds
just below and at its ``mu + lam`` down every path.

``corpus.json`` holds wire-format jobs (the ``/v1/beff`` body) with their
cache keys and exact answers.  To rederive it after a deliberate change
of answers, or after adding an entry as ``{"name": ..., "job": {...}}``,
run this from the repository root with ``src`` and ``.`` on the path::

    import json
    from tests.property.paths import CORPUS_PATH, ENTRIES, derive
    lines = ",\\n".join(json.dumps(derive(entry)) for entry in ENTRIES)
    CORPUS_PATH.write_text(f"[\\n{lines}\\n]\\n")
"""

from __future__ import annotations

import asyncio
import json
import tempfile
from dataclasses import asdict, replace
from functools import lru_cache
from pathlib import Path
from unittest import mock

from hypothesis import strategies as st

from repro.core.stream import AccessStream
from repro.obs import names
from repro.obs.metrics import capture_metrics
from repro.runner import RetryPolicy, SimJob, SweepExecutor, run
from repro.runner.analytic import solve
from repro.runner.backends import get_backend
from repro.serve import app
from repro.serve.protocol import job_from_payload
from repro.sim.arbiter import regulation_is_vacuous
from repro.sim.engine import Engine
from repro.sim.port import Port

#: Placement -> (worker count, whether the executor keeps a store).
PLACEMENTS = {
    "inline": (1, False),
    "pool-2": (2, False),
    "pool-3": (3, False),
    "pool-2-store": (2, True),
}

#: Failures come back per job (under a pool, fail-fast raises whichever
#: failing chunk finishes first).
NON_STRICT = RetryPolicy(max_retries=0, backoff_base_ms=0)

_RULES = st.sampled_from(["fixed", "cyclic", "lru"]) | st.integers(1, 4).map(
    "block-cyclic:{}".format
)
_BUDGET = st.tuples(st.integers(1, 4), st.integers(1, 6)).map(
    "{0[0]}/{0[1]}".format
)


def _buckets(draw, kind: str, index) -> list[str]:
    """``kind`` token buckets: none, one uniform, or per drawn index."""
    how = draw(st.sampled_from(["none", "uniform", "indexed"]))
    if how == "uniform":
        return [f"{kind}={draw(_BUDGET)}"]
    if how == "indexed":
        chosen = sorted(draw(st.sets(index, max_size=3)))
        return [f"{kind}:{i}={draw(_BUDGET)}" for i in chosen]
    return []


@st.composite
def jobs(
    draw,
    *,
    banks=(2, 20),
    streams=(1, 4),
    priorities=None,
    intras=(None, "fixed", "cyclic", "lru"),
    policies=None,
    modes=("steady", "span", "bounded"),
):
    """A job of any shape the backends take: ``banks`` and ``streams``
    are ranges, sections any divisor under both mappings, streams on
    CPUs 0 and 1, ``priorities`` every rule unless given, an optional
    ``wfq`` arbiter and stream or bank token buckets (drawn when
    ``policies`` is ``None``, forced on or off otherwise), and a mode:
    steady, a span of 1-120 clocks, or a ``max_cycles`` of 1-3, too
    small for almost every cycle."""
    m = draw(st.integers(*banks))
    n = draw(st.integers(*streams))
    bank = st.integers(0, m - 1)
    divisors = [s for s in range(1, m + 1) if m % s == 0]
    sections = draw(st.sampled_from([None, *divisors]))
    arbiter, regulate = None, []
    if draw(st.booleans()) if policies is None else policies:
        if draw(st.booleans()):
            weights = [str(draw(st.integers(1, 4))) for _ in range(n)]
            arbiter = "wfq:" + ",".join(weights)
        regulate = _buckets(draw, "stream", st.integers(0, n - 1))
        regulate += _buckets(draw, "bank", bank)
    mode = draw(st.sampled_from(modes))
    return SimJob(
        banks=m,
        bank_cycle=draw(st.integers(1, 5)),
        streams=tuple((draw(bank), draw(bank)) for _ in range(n)),
        cpus=tuple(draw(st.integers(0, 1)) for _ in range(n)),
        sections=sections,
        section_mapping=draw(st.sampled_from(["cyclic", "consecutive"]))
        if sections
        else "cyclic",
        priority=draw(st.sampled_from(priorities) if priorities else _RULES),
        intra_priority=draw(st.sampled_from(intras)),
        arbiter=arbiter,
        regulate=tuple(regulate),
        steady=mode != "span",
        cycles=draw(st.integers(1, 120)) if mode == "span" else None,
        max_cycles=draw(st.integers(1, 3)) if mode == "bounded" else 1_000_000,
    )


@st.composite
def populations(draw, min_size=2, max_size=12, **narrow):
    """Lists of :func:`jobs` with distinct cache keys and, in whatever
    room they leave below ``max_size``, twins: copies of a drawn job
    with another ``max_cycles`` (1-3 or the default), which share its
    key.  Twins land anywhere in the list, before their job too."""
    drawn = draw(
        st.lists(
            jobs(**narrow),
            min_size=min_size,
            max_size=max_size,
            unique_by=SimJob.cache_key,
        )
    )
    bound = st.sampled_from([1, 2, 3, 1_000_000])
    picks = st.tuples(st.sampled_from(drawn), bound) if drawn else st.nothing()
    twins = draw(st.lists(picks, max_size=max_size - len(drawn)))
    population = drawn + [replace(job, max_cycles=b) for job, b in twins]
    return draw(st.permutations(population))


def twins(job: SimJob) -> list[SimJob]:
    """``job`` at the bounds ``mu + lam - 1`` (which fails, when it is
    a valid bound) and ``mu + lam`` (which finishes), where ``mu + lam``
    is its steady answer's ``cycles``."""
    cycles = truth(replace(job, max_cycles=1_000_000))["cycles"]
    bounds = [cycles - 1, cycles] if cycles > 1 else [cycles]
    return [replace(job, max_cycles=b) for b in bounds]


def renumbering_safe(job: SimJob) -> bool:
    """Whether the Appendix renumbering ``j -> k·(j - c)`` keeps
    ``job``'s conflicts, stated apart from the job's own frame: its
    sections follow the paper's cyclic mapping or are the banks, and no
    token bucket is pinned to one bank."""
    sections_kept = (
        job.section_mapping == "cyclic" or job.effective_sections == job.banks
    )
    pinned = any(spec.startswith("bank:") for spec in job.regulate)
    return sections_kept and not pinned


def engine_at(job: SimJob) -> Engine:
    """A fresh object engine at ``job``'s start state."""
    ports = [Port(index=i, cpu=c) for i, c in enumerate(job.cpus)]
    engine = Engine(
        job.config,
        ports,
        priority=job.priority,
        intra_priority=job.intra_priority,
        arbiter=job.arbiter,
        regulate=job.regulate,
    )
    for port, (b, d) in zip(ports, job.streams):
        port.assign(AccessStream(start_bank=b, stride=d).bound(job.banks))
    return engine


def first_repeat(engine: Engine) -> tuple[int, int, tuple[int, ...]]:
    """``(first clock of the periodic regime, minimal period, per-port
    grants over one period)`` by stepping ``engine`` until a full state
    recurs: the historical dictionary detector, from the engine's
    current clock on.  Each clock first restores the arbiter from its
    own snapshot, which must change nothing: no backend path restores
    an LRU rule, so this is where an inexact restore shows."""
    seen: dict[tuple, int] = {}
    totals: list[tuple[int, ...]] = []
    start = engine.cycle
    while True:
        key = engine._state_key()
        first = seen.get(key)
        if first is not None:
            now = tuple(p.granted_total for p in engine.ports)
            before = totals[first - start]
            return (
                first,
                engine.cycle - first,
                tuple(b - a for a, b in zip(before, now)),
            )
        seen[key] = engine.cycle
        totals.append(tuple(p.granted_total for p in engine.ports))
        engine.arbiter.restore(engine.arbiter.snapshot())
        engine.step()


def answer(got) -> dict | str:
    """``got`` (an outcome, a ``FailedOutcome``, an exception, or a
    service body or sweep entry) as the exact payload without its
    ``backend`` label, or as the failure text ``"ErrorClass: message"``,
    which the service prefixes with ``job could not be completed: ``."""
    if isinstance(got, Exception):
        return f"{type(got).__name__}: {got}"
    if not isinstance(got, dict):
        got = {"error": got.error} if got.failed else got.to_payload()
    error = got.get("error")
    if error is None:
        drop = ("backend", "key", "tier", "bandwidth_float")
        return {k: v for k, v in got.items() if k not in drop}
    text = error["message"] if isinstance(error, dict) else error
    return text.removeprefix("job could not be completed: ")


def attempt(fn, *args, **kwargs) -> dict | str:
    """:func:`answer` of ``fn(*args, **kwargs)`` or of its ``RuntimeError``."""
    try:
        return answer(fn(*args, **kwargs))
    except RuntimeError as exc:
        return answer(exc)


@lru_cache(maxsize=4096)
def truth(job: SimJob) -> dict | str:
    """The reference backend's answer to ``job``; a steady answer must
    also match :func:`first_repeat`."""
    want = attempt(run, job, backend="reference")
    if job.steady and isinstance(want, dict):
        steady = (want["steady_start"], want["period"], tuple(want["grants"]))
        assert steady == first_repeat(engine_at(job)), "Brent vs first repeat"
    return want


def check_run(job: SimJob) -> None:
    """``run()`` on the fast and auto backends and on the canonical job,
    and ``solve()`` wherever it decides, which is never for ``wfq``,
    non-vacuous regulation or a stateful pair rule."""
    want = truth(job)
    for backend in ("fast", "auto"):
        assert attempt(run, job, backend=backend) == want, backend
    # canonical() drops max_cycles, which is no part of the identity.
    canonical = replace(job.canonical(), max_cycles=job.max_cycles)
    assert attempt(run, canonical, backend="fast") == want, "canonical"
    decided = solve(job)
    if decided is not None:
        assert job.arbiter is None
        assert not job.regulate or regulation_is_vacuous(job.regulate)
        assert job.n_ports != 2 or (
            job.priority == "fixed" and job.intra_priority in (None, "fixed")
        )
        assert answer(decided) == want, "solve"


def check_batch(population: list[SimJob]) -> None:
    """``BatchBackend.run_batch`` over ``population``: every answer or,
    when a job fails, the lowest-indexed failing job's error."""
    want = [truth(job) for job in population]
    errors = [w for w in want if isinstance(w, str)]
    try:
        outs = get_backend("batch").run_batch(population)
    except RuntimeError as exc:
        assert [answer(exc)] == errors[:1], "batch error"
    else:
        assert not errors and [answer(o) for o in outs] == want, "batch"
        assert {o.backend for o in outs} <= {"batch"}


def placed(placement: str, store: str | Path) -> dict:
    """``SweepExecutor`` keywords for ``placement``, whose store (if it
    keeps one) is ``store``."""
    workers, stored = PLACEMENTS[placement]
    return {"workers": workers, "store_path": store if stored else None}


def _sweep(executor, population, want, label, executed, failures) -> None:
    """One ``run_many`` against the truth; ``executed`` and ``failures``
    are the executor's cumulative counts after it."""
    outs = executor.run_many(population)
    assert [answer(o) for o in outs] == want, label
    stats = executor.stats
    assert stats.hits + stats.deduped + stats.executed == stats.submitted
    assert (stats.executed, stats.failures) == (executed, failures), label


def check_executor(
    population: list[SimJob], backend="auto", placement="inline"
) -> int:
    """``SweepExecutor`` answers in one placement: cold, from the memo
    (the same executor again) and, if the placement keeps a store, from
    the store (a fresh executor; it executes only the failing keys, as
    failures are never cached).  Each key runs once, at the loosest
    bound among its jobs, and fails only if that job does.  Returns how
    many jobs the cold pass's auto backend batched (inline only: pool
    workers keep their metrics)."""
    want = [truth(job) for job in population]
    loosest: dict[str, SimJob] = {}
    for job in population:
        key = job.cache_key()
        if key not in loosest or job.max_cycles > loosest[key].max_cycles:
            loosest[key] = job
    n = len(loosest)
    f = sum(isinstance(truth(job), str) for job in loosest.values())
    with tempfile.TemporaryDirectory() as store:
        kwargs = placed(placement, store)
        ex = SweepExecutor(backend=backend, retry=NON_STRICT, **kwargs)
        with capture_metrics() as metrics:
            _sweep(ex, population, want, f"{placement} cold", n, f)
        _sweep(ex, population, want, f"{placement} memo", n + f, 2 * f)
        if kwargs["store_path"] is not None:
            ex = SweepExecutor(backend=backend, retry=NON_STRICT, **kwargs)
            _sweep(ex, population, want, f"{placement} store", f, f)
    batched = metrics.get(names.AUTO_DISPATCH, tier="batch")
    return batched.value if batched else 0


def check_twins(job: SimJob) -> None:
    """:func:`twins` of a finishing steady ``job``, in both orders, on
    every path: each backend, each placement cold, from the memo and
    from the store, and the service."""
    pair = twins(job)
    for population in (pair, pair[::-1]):
        for twin in population:
            check_run(twin)
        for placement in ("inline", "pool-2", "pool-2-store"):
            check_executor(population, "auto", placement)
        check_http(population)


def served(store_path: str | None = None) -> app.BandwidthService:
    """The service ``run_server`` builds, captured before it listens."""
    built = []

    async def capture(service, *_args):
        built.append(service)

    with mock.patch.object(app, "_amain", capture):
        app.run_server(store_path=store_path, announce=print)
    return built[0]


def wire(job: SimJob) -> dict:
    """``job`` as a ``/v1/beff`` body."""
    body = asdict(job)
    del body["trace"]
    return body


async def _post_all(service, path, bodies) -> list[tuple[int, dict]]:
    """Concurrent POSTs of ``bodies``: ``[(status, response body)]``."""
    sent = [json.dumps(b).encode() for b in bodies]
    replies = await asyncio.gather(
        *(service.dispatch("POST", path, raw) for raw in sent)
    )
    return [(status, json.loads(raw)) for status, _, raw, _ in replies]


def check_http(population: list[SimJob]) -> None:
    """The service's answers: concurrent ``/v1/beff`` cold (tier
    ``simulated``), one ``/v1/sweep`` from the memo, and concurrent
    ``/v1/beff`` on a fresh service over the same store (``store``, and
    ``memo`` for a later job of the same key); decided jobs answer
    ``analytic`` throughout.  A failing job answers 502 ``failed-job``
    (a ``failed`` sweep entry) on every pass, and fails nothing else."""
    want = [truth(job) for job in population]
    bodies = [wire(job) for job in population]
    wired = [job_from_payload(json.loads(json.dumps(b))) for b in bodies]
    assert wired == population
    with tempfile.TemporaryDirectory() as store:
        service = served(store)
        cold = asyncio.run(_post_all(service, "/v1/beff", bodies))
        [(status, sweep)] = asyncio.run(
            _post_all(service, "/v1/sweep", [{"jobs": bodies}])
        )
        assert status == 200
        assert sweep["failures"] == sum(isinstance(w, str) for w in want)
        again = asyncio.run(_post_all(served(store), "/v1/beff", bodies))
    memo = [(200, entry) for entry in sweep["results"]]
    passes = {"simulated": cold, "memo": memo, "store": again}
    for tier, replies in passes.items():
        keys: set[str] = set()
        for job, w, (status, body) in zip(population, want, replies):
            assert answer(body) == w, (tier, job)
            mode = body["tier"] if status == 200 else body["error"]["mode"]
            seen = mode if status == 200 else f"{status} {mode}"
            if isinstance(w, str):
                failed = "failed" if tier == "memo" else "502 failed-job"
                assert seen == failed, (tier, job)
            else:
                assert body["key"] == job.cache_key()
                repeat = tier == "store" and body["key"] in keys
                expect = "memo" if repeat else tier
                decided = solve(job) is not None
                assert seen == ("analytic" if decided else expect), (tier, job)
                keys.add(body["key"])


CORPUS_PATH = Path(__file__).with_name("corpus.json")

#: ``{"name", "job" (a /v1/beff body), "key", "answer"}`` per entry.
ENTRIES: list[dict] = json.loads(CORPUS_PATH.read_text())

#: The corpus jobs, in file order, and by entry name.
CORPUS: list[SimJob] = [job_from_payload(entry["job"]) for entry in ENTRIES]
NAMED: dict[str, SimJob] = {e["name"]: job for e, job in zip(ENTRIES, CORPUS)}


def derive(entry: dict) -> dict:
    """``entry`` with its key and answer derived from its job."""
    job = job_from_payload(entry["job"])
    return {**entry, "key": job.cache_key(), "answer": truth(job)}
