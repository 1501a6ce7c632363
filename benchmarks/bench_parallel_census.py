"""Extension — parallel efficiency of the process-pool scheduler.

Times the same census-shaped population through ``SweepExecutor`` at
1/2/4/8 workers (``$REPRO_BENCH_WORKERS`` overrides the ladder),
asserting every run bit-identical to the single-worker reference.
Per-run wall clocks land in the bench JSON artifact via
``$REPRO_BENCH_TIMINGS`` (see ``conftest.py``); the summary test prints
the speedup/efficiency table.

CI gates the result: with ``$REPRO_BENCH_PARALLEL_GATE`` set to
``"WORKERS:RATIO"`` (e.g. ``4:1.6``) the summary asserts at least that
speedup at that worker count — skipped automatically on machines with
fewer than WORKERS cores, where the target is physically unreachable
(CI's 4-core runner is the one place the 4-worker gate runs).
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

import pytest

from repro.memory.config import MemoryConfig
from repro.runner import SimJob, SweepExecutor

from conftest import print_header

#: The benchmark population: every cyclic-priority stride pair on a
#: 64-bank memory at four start phases (6,846 unique jobs) — enough
#: work that every worker count in the ladder gets multiple chunks of
#: `fast` work that outweigh the pool's fixed start-up cost.
POPULATION_SHAPE = (64, 4)
POPULATION_PHASES = 4


def _worker_ladder() -> list[int]:
    raw = os.environ.get("REPRO_BENCH_WORKERS", "1,2,4,8")
    ladder = sorted({int(tok) for tok in raw.split(",") if tok.strip()})
    if 1 not in ladder:
        ladder.insert(0, 1)  # the reference point is not optional
    return ladder


WORKERS = _worker_ladder()

#: worker count -> sweep wall-clock seconds, filled by the timing runs.
ELAPSED: dict[int, float] = {}

#: The single-worker reference fingerprint (payload list), set lazily.
_REFERENCE: list[dict] = []


def _population() -> list[SimJob]:
    m, n_c = POPULATION_SHAPE
    cfg = MemoryConfig(banks=m, bank_cycle=n_c)
    return [
        SimJob.from_specs(
            cfg, [(0, d1), (phase, d2)], cpus=[0, 1],
            priority="cyclic", steady=True,
        )
        for d1 in range(1, m + 1)
        for d2 in range(1, m + 1)
        for phase in range(POPULATION_PHASES)
    ]


@pytest.mark.parametrize("workers", WORKERS)
def test_parallel_census(benchmark, workers):
    population = _population()

    def _sweep():
        ex = SweepExecutor(backend="fast", workers=workers)
        start = time.perf_counter()
        outs = ex.run_many(population)
        ELAPSED[workers] = time.perf_counter() - start
        return ex, outs

    ex, outs = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    payloads = [o.to_payload() for o in outs]
    if workers == 1:
        _REFERENCE[:] = payloads
    else:
        # Bit-identical to the single-worker reference, always.
        assert _REFERENCE, "worker ladder must start at 1"
        assert payloads == _REFERENCE

    total = sum((o.bandwidth for o in outs), Fraction(0))
    print_header(
        f"Parallel census: {len(population)} jobs "
        f"({ex.stats.executed} unique) at workers={workers}: "
        f"{ELAPSED[workers]:.3f}s"
    )
    print(f"sum(b_eff) = {total}")
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["unique_jobs"] = ex.stats.executed


def test_parallel_efficiency_summary():
    assert set(ELAPSED) == set(WORKERS), "timing runs must precede summary"
    base = ELAPSED[1]
    print_header(f"Parallel efficiency ({os.cpu_count()} cores)")
    print(f"{'workers':>8} {'seconds':>9} {'speedup':>8} {'efficiency':>11}")
    for workers in WORKERS:
        speedup = base / ELAPSED[workers]
        print(
            f"{workers:>8} {ELAPSED[workers]:>9.3f} {speedup:>7.2f}x "
            f"{100.0 * speedup / workers:>10.1f}%"
        )

    gate = os.environ.get("REPRO_BENCH_PARALLEL_GATE")
    if not gate:
        return
    gate_workers, min_speedup = gate.split(":")
    target = int(gate_workers)
    cores = os.cpu_count() or 1
    if cores < target:
        pytest.skip(
            f"gate needs {target} cores, machine has {cores}: "
            "the speedup target is physically unreachable"
        )
    if target not in ELAPSED:
        pytest.skip(f"worker count {target} not in ladder {WORKERS}")
    speedup = base / ELAPSED[target]
    assert speedup >= float(min_speedup), (
        f"parallel census managed only {speedup:.2f}x at {target} "
        f"workers (gate: {min_speedup}x)"
    )
