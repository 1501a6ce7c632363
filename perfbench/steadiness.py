"""Run the ledger over several seeds and report how steady each metric is.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1-10] [--record]

For every workload and end-to-end metric this prints the median of the
runs and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the bound BENCHMARK.json allows.  With ``--record`` the medians,
quartiles and one traced run per workload are written to the
``baseline`` of perfbench/ledger.json, stamped with the interpreter and
NumPy versions, the core count and the seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(bench: dict, workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [*bench["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(bench["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in bench["workloads"])
    )
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    baseline = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            runs.append(_run(bench, workload, seed, 0))
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
        entry = {}
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:16s} median {median:12.6g}  spread {spread:7.4f}"
                  f"  bound {bound:5.3f}  ({spread / bound:5.2f} of bound)")
            entry[name] = {"median": median, "q1": q1, "q3": q3}
        if args.record:
            entry["per_layer"] = _run(bench, workload, args.seeds[0], 1)
        baseline[workload] = entry
    print(f"largest spread, as a share of its bound (setup_s aside): {worst:.2f}")
    if args.record:
        import numpy

        ledger_path = HERE / "ledger.json"
        ledger = json.loads(ledger_path.read_text())
        ledger["baseline"] = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "run_seconds": bench["run_seconds"],
            "seeds": args.seeds,
            "per_layer_seed": args.seeds[0],
            "workloads": baseline,
        }
        ledger_path.write_text(json.dumps(ledger, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
