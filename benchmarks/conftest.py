"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's figures or one of the
DESIGN.md validation tables, printing the rows/series it reproduces and
asserting the shape claims.  Run with::

    pytest benchmarks/ --benchmark-only [-s to see the tables]

Two pieces of shared infrastructure live here:

* the session-scoped ``executor`` fixture — one memoizing
  :class:`repro.runner.SweepExecutor` for the whole benchmark run, so
  table/figure benches that sweep overlapping domains simulate each
  canonical job once;
* a wall-clock recorder that writes per-benchmark timings to a JSON
  artifact (``benchmarks/.timings.json``, or the path in
  ``$REPRO_BENCH_TIMINGS``) for machine consumption by CI trend tooling.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

#: Where the wall-clock artifact goes; empty value disables it.
TIMINGS_ENV_VAR = "REPRO_BENCH_TIMINGS"
_DEFAULT_TIMINGS = Path(__file__).parent / ".timings.json"

_wall_clock: dict[str, float] = {}


def print_header(title: str) -> None:
    bar = "=" * len(title)
    print(f"\n{bar}\n{title}\n{bar}")


@pytest.fixture(scope="session")
def executor():
    """One memoizing SweepExecutor shared across the benchmark session.

    Runs the tiered ``auto`` backend — closed form where a theorem
    decides the job, fast simulation otherwise — i.e. the production
    sweep configuration.
    """
    from repro.runner import SweepExecutor

    return SweepExecutor(backend="auto")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    start = time.perf_counter()
    yield
    _wall_clock[item.nodeid] = time.perf_counter() - start


def _timings_path() -> Path | None:
    raw = os.environ.get(TIMINGS_ENV_VAR)
    if raw is None:
        return _DEFAULT_TIMINGS
    return Path(raw) if raw else None


def pytest_sessionfinish(session, exitstatus):
    path = _timings_path()
    if path is None or not _wall_clock:
        return
    payload = {
        "schema": 1,
        "unit": "seconds",
        "benchmarks": {
            nodeid: round(elapsed, 6)
            for nodeid, elapsed in sorted(_wall_clock.items())
        },
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
