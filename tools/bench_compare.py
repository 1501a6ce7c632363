#!/usr/bin/env python
"""Backend and sweep throughput comparison, as JSON.

Three modes, all printing a JSON report and exiting non-zero when a
speedup floor is missed:

**Backend throughput** (default) — runs the three
``benchmarks/bench_engine_throughput.py`` workload shapes (one port,
two CPUs, six ports on a sectioned memory) on the reference and fast
backends, their repetitions interleaved, and reports each backend's
best simulated clocks per second::

    PYTHONPATH=src python tools/bench_compare.py [--clocks N] [--repeat K]

**Sweep wall-clock** (``--sweeps``) — times the tier-sensitive sweep
workloads (the regime census, the lockstep census population and the
start-space profiles of the paper's figure pairs) through the tiered
executor, best-of ``--repeat``, and writes the wall-clock JSON
(``--json PATH``) whose schema matches the benchmark timing artifacts
(``BENCH_*.json``).  ``--backend NAME`` pins ``$REPRO_BENCH_BACKEND``
for the backend-parametrized benches (the census population);
``--workers 1,2,4`` also times the parallel census on that worker
ladder::

    PYTHONPATH=src python tools/bench_compare.py --sweeps --backend batch \
        --json BENCH_after.json

**Artifact comparison** (``--compare BEFORE AFTER``) — reads two such
wall-clock artifacts (same-machine captures) and reports per-benchmark
speedups; ``--keys SUBSTR [SUBSTR ...]`` restricts the comparison to
benchmarks whose test name (the key after ``::``) contains one.  CI runs this on the committed
``BENCH_before.json`` / ``BENCH_after.json`` pair with
``--keys census_population --min-speedup 5`` to pin the lockstep batch
core's reason to exist.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.memory.config import MemoryConfig  # noqa: E402
from repro.runner import SimJob, get_backend  # noqa: E402

WORKLOADS = [
    ("1port", 1, False),
    ("2ports", 2, False),
    ("6ports-sectioned", 6, True),
]


def _job(n_ports: int, sectioned: bool, clocks: int) -> SimJob:
    cfg = MemoryConfig(
        banks=16, bank_cycle=4, sections=4 if sectioned else None
    )
    return SimJob.from_specs(
        cfg,
        [((3 * i) % 16, 1 + (i % 3)) for i in range(n_ports)],
        cpus=[i % 2 for i in range(n_ports)],
        priority="cyclic",
        steady=False,
        cycles=clocks,
    )


def _clocks_per_second(job: SimJob, repeat: int) -> dict[str, float]:
    """Best-of-``repeat`` simulated clocks per second on the reference
    and fast backends.  Their repetitions alternate, so load that drifts
    during the run slows both alike instead of moving the ratio."""
    backends = {name: get_backend(name) for name in ("reference", "fast")}
    best = dict.fromkeys(backends, float("inf"))
    for backend in backends.values():
        backend.run(job)  # warm-up
    for _ in range(repeat):
        for name, backend in backends.items():
            start = time.perf_counter()
            out = backend.run(job)
            best[name] = min(best[name], time.perf_counter() - start)
            assert out.cycles == job.cycles
    return {name: job.cycles / seconds for name, seconds in best.items()}


#: The tier-sensitive sweep benchmarks whose wall-clock the committed
#: ``BENCH_*.json`` artifacts track.
SWEEP_BENCHES = (
    "benchmarks/bench_regime_census.py",
    "benchmarks/bench_start_space.py",
)


def _run_sweeps(
    repeat: int,
    backend: str | None = None,
    workers: str | None = None,
) -> dict:
    """Best-of-``repeat`` wall-clock of the sweep benchmarks.

    Each repetition is a fresh pytest process so in-process caches
    (executor memo, classifier lru_caches) start cold — the same
    methodology as the committed ``BENCH_*.json`` captures.  A
    ``backend`` pins ``$REPRO_BENCH_BACKEND`` for the
    backend-parametrized benches.  A ``workers`` ladder (CSV, e.g.
    ``"1,2,4"``) adds the parallel-census bench on that ladder.
    """
    import os
    import subprocess
    import tempfile

    root = pathlib.Path(__file__).resolve().parents[1]
    benches = list(SWEEP_BENCHES)
    if workers is not None:
        benches.append("benchmarks/bench_parallel_census.py")
    best: dict[str, float] = {}
    for _ in range(repeat):
        with tempfile.TemporaryDirectory() as tmp:
            timings = pathlib.Path(tmp) / "timings.json"
            env = dict(os.environ)
            env["REPRO_BENCH_TIMINGS"] = str(timings)
            env["PYTHONPATH"] = str(root / "src")
            if backend is not None:
                env["REPRO_BENCH_BACKEND"] = backend
            if workers is not None:
                env["REPRO_BENCH_WORKERS"] = workers
            subprocess.run(
                [sys.executable, "-m", "pytest", *benches, "-q"],
                check=True,
                cwd=root,
                env=env,
                stdout=subprocess.DEVNULL,
            )
            for key, elapsed in json.loads(timings.read_text())[
                "benchmarks"
            ].items():
                best[key] = min(best.get(key, elapsed), elapsed)
    report = {
        "schema": 1,
        "unit": "seconds",
        "benchmarks": {k: round(v, 6) for k, v in sorted(best.items())},
    }
    if workers is not None:
        report["workers"] = workers
    return report


def _compare_artifacts(
    before_path: str,
    after_path: str,
    min_speedup: float,
    keys: list[str] | None = None,
) -> dict:
    """Per-benchmark speedups between two wall-clock artifacts,
    optionally restricted to benchmarks whose test name (the key's text
    after ``::``, so never its file path) contains a ``keys``
    substring."""
    before = json.loads(pathlib.Path(before_path).read_text())["benchmarks"]
    after = json.loads(pathlib.Path(after_path).read_text())["benchmarks"]
    shared = sorted(set(before) & set(after))
    if keys:
        shared = [
            k for k in shared
            if any(sub in k.split("::", 1)[-1] for sub in keys)
        ]
    if not shared:
        raise SystemExit(
            f"no shared benchmarks between {before_path} and {after_path}"
            + (f" matching {keys}" if keys else "")
        )
    rows = {}
    ok = True
    for key in shared:
        speedup = before[key] / after[key]
        ok = ok and speedup >= min_speedup
        rows[key] = {
            "before_s": before[key],
            "after_s": after[key],
            "speedup": round(speedup, 2),
        }
    return {
        "before": before_path,
        "after": after_path,
        "benchmarks": rows,
        "min_speedup_required": min_speedup,
        "pass": ok,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--clocks", type=int, default=20_000,
                    help="simulated clocks per run (default 20000)")
    ap.add_argument("--repeat", type=int, default=5,
                    help="timing repetitions, best-of (default 5)")
    ap.add_argument("--min-speedup", type=float, default=1.0,
                    help="fail if any workload's speedup is below this")
    ap.add_argument("--sweeps", action="store_true",
                    help="time the census/start-space sweep benchmarks "
                         "instead of backend throughput")
    ap.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                    help="compare two wall-clock JSON artifacts")
    ap.add_argument("--keys", nargs="+", metavar="SUBSTR",
                    help="restrict --compare to benchmarks whose test "
                         "name (after '::') contains any of these "
                         "substrings")
    ap.add_argument("--backend",
                    help="with --sweeps, pin $REPRO_BENCH_BACKEND for "
                         "the backend-parametrized benches")
    ap.add_argument("--workers", metavar="CSV",
                    help="with --sweeps, also time the parallel census "
                         "on this worker ladder (e.g. 1,2,4)")
    ap.add_argument("--json", dest="json_path",
                    help="also write the report to this path")
    args = ap.parse_args(argv)

    if args.compare:
        report = _compare_artifacts(
            *args.compare, args.min_speedup, args.keys
        )
        ok = report["pass"]
    elif args.sweeps:
        report = _run_sweeps(args.repeat, args.backend, args.workers)
        ok = True  # absolute timings carry no pass/fail by themselves
    else:
        report = {
            "clocks": args.clocks,
            "repeat": args.repeat,
            "workloads": {},
        }
        ok = True
        for name, n_ports, sectioned in WORKLOADS:
            job = _job(n_ports, sectioned, args.clocks)
            rates = _clocks_per_second(job, args.repeat)
            ref, fast = rates["reference"], rates["fast"]
            speedup = fast / ref
            ok = ok and speedup >= args.min_speedup
            report["workloads"][name] = {
                "reference_clk_per_s": round(ref),
                "fast_clk_per_s": round(fast),
                "speedup": round(speedup, 2),
            }
        report["min_speedup_required"] = args.min_speedup
        report["pass"] = ok

    text = json.dumps(report, indent=2)
    print(text)
    if args.json_path:
        pathlib.Path(args.json_path).write_text(text + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
