"""Repeated sweep passes in one process, after a timed set-up.

    python3 perfbench/sweep_host.py WORKLOAD SEED TRACE WORKDIR SECONDS
    python3 perfbench/sweep_host.py WORKLOAD SEED --setup-only WORKDIR

The host times its own set-up (imports, the population, and for
census-warm filling a fresh store), runs one untimed pass so that lazy
imports and first-use allocations are done, then runs passes until
SECONDS have gone by, with a machine-speed probe (perfbench/
calibrate.py) before and after each pass.  Every pass builds a fresh
executor, as a user's census run does, and is checked against the exact
checksum and the executor's counters.  With TRACE=1 the first half of the time runs
plain passes and the second half runs with the layer wrappers installed
and obs metrics collected; the spans go to WORKDIR/spans.jsonl.  The
host prints one JSON line.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import json  # noqa: E402 - the set-up clock starts before any import
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import Calibrator  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Timed passes per run (per half of a traced run) at least, however
#: short --seconds is.
MIN_PASSES = 3


def _run_pass(workload: str, jobs: list, store: Path) -> tuple[list, object]:
    from repro.runner import SweepExecutor

    if workload == "census-cold":
        ex = SweepExecutor(backend="auto")
        return [ex.run_many(jobs)], ex
    # A rerun over a filled store, as `census --store DIR` does, then a
    # second pass on the same executor for memo hits.
    ex = SweepExecutor(backend="auto", store_path=store)
    return [ex.run_many(jobs), ex.run_many(jobs)], ex


def _expected_stats(workload: str, n: int, unique: int) -> dict[str, int]:
    if workload == "census-warm":
        return {"submitted": 2 * n, "hits": unique + n, "deduped": n - unique,
                "executed": 0}
    return {"submitted": n, "hits": 0, "deduped": n - unique, "executed": unique}


def one_pass(workload: str, jobs: list, store: Path, rec: object | None) -> dict:
    """Run and check one pass, as a unit of ``rec`` when tracing."""
    import workloads as w
    from repro.obs.metrics import capture_metrics

    if rec is not None:
        rec.begin_unit()
    with capture_metrics() if rec is not None else nullcontext() as reg:
        start = time.perf_counter()
        batches, ex = _run_pass(workload, jobs, store)
        pass_s = time.perf_counter() - start

    failed = sum(o.failed for batch in batches for o in batch)
    problems = []
    if failed:
        problems.append(f"{failed} FailedOutcome(s)")
    else:
        for batch in batches:
            got = w.checksum(batch, w.CENSUS.unique)
            if got != w.CENSUS:
                problems.append(f"checksum {got} != {w.CENSUS}")
    stats = ex.stats.as_dict()
    want = _expected_stats(workload, len(jobs), w.CENSUS.unique)
    got_stats = {k: stats[k] for k in want}
    if got_stats != want:
        problems.append(f"executor stats {got_stats} != {want}")
    if problems:
        # A wrong sum cannot be pinned on one job: the whole pass failed.
        failed = stats["submitted"]

    if rec is not None:
        import tracing

        rec.obs.update(tracing.counter_values(reg))
    return {
        "pass_s": pass_s,
        "submitted": stats["submitted"],
        "failed": failed,
        "problems": problems,
        "traced": rec is not None,
    }


def main(argv: list[str]) -> int:
    workload, seed, mode, workdir = argv[1], int(argv[2]), argv[3], Path(argv[4])
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as w
    from repro.runner import SweepExecutor

    workdir.mkdir(parents=True, exist_ok=True)
    jobs = w.census_population(seed)
    store = workdir / "store"
    if workload == "census-warm":
        SweepExecutor(backend="auto", store_path=store).run_many(jobs)
    setup_s = time.perf_counter() - _START
    if mode == "--setup-only":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    trace, seconds = mode == "1", float(argv[5])
    # Write back the store files set-up left dirty, so that writeback
    # does not land in the timed passes.
    os.sync()
    warmup = one_pass(workload, jobs, store, None)
    passes = []
    rec = None
    calibrator = Calibrator()
    try:
        probe = calibrator.sample()
        start = time.perf_counter()
        for stop in ((seconds / 2, seconds) if trace else (seconds,)):
            if passes:
                import tracing

                rec = tracing.Recorder()
                tracing.install(rec)
            count = 0
            while count < MIN_PASSES or time.perf_counter() - start < stop:
                result = one_pass(workload, jobs, store, rec)
                after = calibrator.sample()
                # Each pass is scaled by the faster probe next to it.
                result["probe_s"] = min(probe, after)
                probe = after
                passes.append(result)
                count += 1
    finally:
        calibrator.close()
    summary = None
    if rec is not None:
        import tracing

        summary = tracing.dump(rec, workdir / "spans.jsonl")
    print(json.dumps({
        "setup_s": setup_s,
        "warmup": warmup,
        "passes": passes,
        "probe_s": calibrator.samples,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": summary,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
