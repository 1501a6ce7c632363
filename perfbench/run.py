"""The layer ledger: end-to-end and per-layer timings of every user path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (perfbench/ledger.json records why each was chosen):

* ``census-cold``  - the stride-pair census through a fresh inline
  ``SweepExecutor(backend="auto")`` per pass;
* ``census-warm``  - the same census rerun over a filled ``ResultStore``,
  then again from the executor's memo;
* ``serve-mix``    - closed-loop HTTP load on ``repro-mem serve --store``.

With ``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds the per-layer metrics of
a traced run (spans recorded around each layer's entry points from the
benchmark's own files) plus the tracing overhead.  Every answer is
checked exactly; wrong or failed answers are counted in ``failed``.
Timings are scaled to a reference machine speed by the probe in
perfbench/calibrate.py, which is run next to every pass or window.
Scratch files (stores, logs, spans) go to ``.perfbench/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from calibrate import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("census-cold", "census-warm", "serve-mix")

#: name -> unit, as BENCHMARK.json lists them.
END_TO_END = {
    "jobs_per_s": "1/s",
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "job.key.calls": "1/job",
    "job.key.self_ns": "ns/job",
    "job.payload.calls": "1/job",
    "job.payload.self_ns": "ns/job",
    "executor.run_many.self_ns": "ns/job",
    "executor.hit_ratio": "ratio",
    "executor.dedup_ratio": "ratio",
    "executor.executed": "1/job",
    "store.get.self_ns": "ns/job",
    "store.get.keys": "1/job",
    "store.hit_ratio": "ratio",
    "store.put.self_ns": "ns/job",
    "store.put.entries": "1/job",
    "scheduler.execute.self_ns": "ns/job",
    "scheduler.chunks": "1/job",
    "backend.auto.jobs": "1/job",
    "backend.auto.self_ns": "ns/job",
    "analytic.solve.calls": "1/job",
    "analytic.solve.self_ns": "ns/job",
    "analytic.decided_ratio": "ratio",
    "backend.batch.jobs": "1/job",
    "backend.batch.self_ns": "ns/job",
    "backend.batch.fallback_tail_ratio": "ratio",
    "backend.fast.jobs": "1/job",
    "backend.fast.self_ns": "ns/job",
    "serve.parse.self_ns": "ns/job",
    "serve.serialize.self_ns": "ns/job",
    "serve.lookup.self_ns": "ns/job",
    "serve.lookup.hit_ratio": "ratio",
    "serve.lookup.analytic_share": "ratio",
    "serve.lookup.store_share": "ratio",
    "serve.lookup.memo_share": "ratio",
    "serve.lookup.miss_share": "ratio",
    "serve.coalesce.wait_ns": "ns/job",
    "serve.coalesce.folded": "1/job",
    "serve.coalesce.batch_jobs": "jobs/batch",
    "serve.dispatch.self_ns": "ns/job",
    "serve.http.overhead_ns": "ns/job",
    "trace.overhead_ns": "ns/job",
    "trace.overhead_ratio": "ratio",
    "obs.crosscheck_mismatches": "count",
}
PASS_TIMEOUT_S = 150


# ----------------------------------------------------------------------
# Sweep workloads: repeated passes in one set-up host process
# ----------------------------------------------------------------------
def _host(args: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "sweep_host.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"sweep host exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_sweep(
    workload: str, seed: int, seconds: float, trace: bool, scratch: Path
) -> dict:
    setups = []
    if not trace:
        # Two set-up-only hosts, so set-up is sampled three times a run.
        for k in range(2):
            probe = _host(
                [workload, str(seed), "--setup-only", str(scratch / f"setup{k}")],
                PASS_TIMEOUT_S,
            )
            setups.append(probe["setup_s"])
    host = _host(
        [workload, str(seed), str(int(trace)), str(scratch / "host"), str(seconds)],
        seconds + PASS_TIMEOUT_S,
    )
    # Stores go only after the last pass, and the deletion is synced
    # before the next run: deleting thousands of files while a pass
    # reads its own store makes its times noisy.
    for store in scratch.glob("*/store"):
        shutil.rmtree(store)
    os.sync()
    setups.append(host["setup_s"])
    passes = [host["warmup"], *host["passes"]]
    for p in passes:
        for problem in p["problems"]:
            print(f"pass check failed: {problem}", file=sys.stderr)
    # Each pass is scaled by the machine-speed probes taken next to it.
    def scaled(p: dict) -> float:
        return p["pass_s"] * REFERENCE_S / p["probe_s"]

    plain = [p for p in host["passes"] if not p["traced"]]
    times = [scaled(p) for p in plain]
    jobs = plain[0]["submitted"]
    speed = REFERENCE_S / statistics.median(host["probe_s"])
    out = {
        "attempted": sum(p["submitted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "samples": len(times),
        "speed": speed,
    }
    if not trace:
        median = statistics.median(times)
        out["metrics"] = {
            "jobs_per_s": jobs / median,
            "req_per_s": 1 / median,
            "latency_p50_ms": median * 1e3,
            "latency_p99_ms": _quantile(times, 99) * 1e3,
            "setup_s": statistics.median(setups) * speed,
            "peak_rss_mb": host["rss_mb"],
        }
        return out
    traced = [p for p in host["passes"] if p["traced"]]
    plain_s = statistics.median(times)
    traced_s = statistics.median(scaled(p) for p in traced)
    out.update(
        summary=host["trace"],
        jobs=sum(p["submitted"] for p in traced),
        overhead_ns=(traced_s - plain_s) * 1e9 / jobs,
        overhead_ratio=traced_s / plain_s - 1,
    )
    return out


# ----------------------------------------------------------------------
# Per-layer metrics from a trace summary
# ----------------------------------------------------------------------
def layer_metrics(run: dict) -> dict[str, float]:
    import tracing

    summary, jobs = run["summary"], run["jobs"]
    layers, counts = summary["layers"], summary["counts"]

    def calls(name: str) -> float:
        return layers.get(name, [0, 0, 0])[0] / jobs

    def total_ns(name: str) -> float:
        return layers.get(name, [0, 0, 0])[1] / jobs

    def self_ns(name: str) -> float:
        return layers.get(name, [0, 0, 0])[2] / jobs

    def count(key: str) -> int:
        return counts.get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    probes = sum(
        count(f"lookup.{tier}") for tier in ("analytic", "store", "memo", "miss")
    )
    submits = count("serve.coalesce.calls")
    # In the server every run_many call is one coalescer drain batch.
    drained = count("executor.submitted") if submits else 0
    batches = count("executor.calls") if submits else 0
    submitted = count("executor.submitted")
    mismatches = tracing.crosscheck(summary)
    for line in mismatches:
        print(f"obs cross-check: {line}", file=sys.stderr)
    http_ns = 0.0
    if "client_ns" in run:
        http_ns = run["client_ns"] / jobs - total_ns("serve.dispatch")
    return {
        "job.key.calls": calls("job.key"),
        "job.key.self_ns": self_ns("job.key"),
        "job.payload.calls": calls("job.payload"),
        "job.payload.self_ns": self_ns("job.payload"),
        "executor.run_many.self_ns": self_ns("executor.run_many"),
        "executor.hit_ratio": ratio(count("executor.hits"), submitted),
        "executor.dedup_ratio": ratio(count("executor.deduped"), submitted),
        "executor.executed": count("executor.executed") / jobs,
        "store.get.self_ns": self_ns("store.get"),
        "store.get.keys": count("store.keys") / jobs,
        "store.hit_ratio": ratio(count("store.found"), count("store.keys")),
        "store.put.self_ns": self_ns("store.put"),
        "store.put.entries": count("store.entries") / jobs,
        "scheduler.execute.self_ns": self_ns("scheduler.execute"),
        "scheduler.chunks": count("scheduler.chunks") / jobs,
        "backend.auto.jobs": count("auto.jobs") / jobs,
        "backend.auto.self_ns": self_ns("backend.auto"),
        "analytic.solve.calls": calls("analytic.solve"),
        "analytic.solve.self_ns": self_ns("analytic.solve"),
        "analytic.decided_ratio": ratio(
            count("analytic.decided"), count("analytic.calls")
        ),
        "backend.batch.jobs": count("batch.jobs") / jobs,
        "backend.batch.self_ns": self_ns("backend.batch"),
        "backend.batch.fallback_tail_ratio": ratio(
            count("batch.fallback.tail"), count("batch.jobs")
        ),
        "backend.fast.jobs": count("fast.jobs") / jobs,
        "backend.fast.self_ns": self_ns("backend.fast"),
        "serve.parse.self_ns": self_ns("serve.parse"),
        "serve.serialize.self_ns": self_ns("serve.serialize"),
        "serve.lookup.self_ns": self_ns("serve.lookup"),
        "serve.lookup.hit_ratio": ratio(probes - count("lookup.miss"), probes),
        "serve.lookup.analytic_share": ratio(count("lookup.analytic"), probes),
        "serve.lookup.store_share": ratio(count("lookup.store"), probes),
        "serve.lookup.memo_share": ratio(count("lookup.memo"), probes),
        "serve.lookup.miss_share": ratio(count("lookup.miss"), probes),
        "serve.coalesce.wait_ns": total_ns("serve.coalesce"),
        "serve.coalesce.folded": (submits - drained) / jobs,
        "serve.coalesce.batch_jobs": ratio(drained, batches),
        "serve.dispatch.self_ns": self_ns("serve.dispatch"),
        "serve.http.overhead_ns": http_ns,
        "trace.overhead_ns": run["overhead_ns"],
        "trace.overhead_ratio": run["overhead_ratio"],
        "obs.crosscheck_mismatches": len(mismatches),
    }


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    scratch = ROOT / ".perfbench" / args.workload
    shutil.rmtree(scratch, ignore_errors=True)
    os.sync()
    scratch.mkdir(parents=True)
    if args.workload == "serve-mix":
        import serve_mix

        run = serve_mix.run(args.seed, args.seconds, bool(args.trace), scratch)
    else:
        run = run_sweep(
            args.workload, args.seed, args.seconds, bool(args.trace), scratch
        )

    if args.trace:
        values, units = layer_metrics(run), PER_LAYER
    else:
        values, units = run["metrics"], END_TO_END
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{run['samples']} timed samples, {run['attempted']} attempted, "
          f"failed_ratio={run['failed'] / run['attempted']:.6g}, timings scaled "
          f"by machine speed factor {run['speed']:.4f} (1 = reference speed)")
    for name, value in values.items():
        print(f"  {name:38s} {value:16.6f} {units[name]}")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
