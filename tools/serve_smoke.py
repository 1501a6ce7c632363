#!/usr/bin/env python
"""CI smoke for the bandwidth-oracle service (docs/SERVICE.md).

Boots ``repro-mem serve -m 8 -c 4 --store DIR --precompute 1-3`` as a
real subprocess on a free port, then checks the contract end to end:

* ``POST /v1/beff`` on a Theorem-1 point returns the **exact**
  Fraction-derived value (``m=8, n_c=4, d=4`` -> ``1/2``) from the
  analytic lookup tier;
* an undecided pair inside the precomputed stride range answers from
  the executor's ``memo`` without simulating;
* an undecided pair outside it simulates (exact too), and its repeat
  answers ``memo``;
* the paper's Fig. 8 pair (12 banks, ``n_c = 3``, 3 sections, strides
  1 and 1 from banks 0 and 1 on one CPU), which no closed form decides,
  answers Fig. 8(a)'s linked conflict under ``fixed`` priority
  (``3/2``, period 16) and Fig. 8(b)'s ``2/1`` (period 12) under
  ``cyclic`` priority, simulated once and then from ``memo``;
* a ``/v1/sweep`` of a simulated cyclic pair (40 banks, exactly 4/3
  over 120 clocks) and a pair bounded below its cycle (``max_cycles``
  3) answers ``200`` with the exact value and ``failures == 1``: a job
  that cannot complete fails only its own entry;
* malformed bodies come back ``400`` (never ``500``);
* ``GET /metrics`` exposes a populated per-endpoint latency histogram
  under the documented ``serve.*`` names;
* the server process never mapped NumPy (``_multiarray_umath`` absent
  from ``/proc/<pid>/maps``; skipped with a note where ``/proc`` is
  absent): none of these requests, nor the 48-job precompute, reaches
  the batch kernel's ``BATCH_MIN_POPULATION``;
* ``SIGINT`` drains gracefully (exit code 0 within ``--timeout``,
  "draining" announced, no traceback) while an idle keep-alive client
  holds its connection open between requests.

A JSON artifact (``--json PATH``, default ``serve-smoke.json``)
captures the responses, the parsed ``serve.*`` metric samples, the
spawn-to-announce seconds and the server's peak resident set (VmHWM)
for CI upload; the last two are recorded, not gated.
"""

from __future__ import annotations

import argparse
import http.client
import json
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Theorem 1, self-conflicting: r = m/gcd(m,d) = 2 < n_c -> b_eff = 2/4.
ANALYTIC_POINT = {"banks": 8, "bank_cycle": 4, "streams": [[0, 4]]}
ANALYTIC_EXPECTED = "1/2"
#: Undecided by every closed form: exercises the simulation drain.
SIMULATED_POINT = {"banks": 8, "bank_cycle": 4, "streams": [[0, 4], [0, 4]]}
SIMULATED_EXPECTED = "1/2"
#: Undecided, and one of the ``--precompute 1-3`` jobs (strides 1 and 3).
PRECOMPUTED_POINT = {"banks": 8, "bank_cycle": 4, "streams": [[0, 1], [1, 3]]}
#: Fig. 8: the linked conflict that fixed priority locks in (a) and a
#: cyclic rule dissolves (b); priority -> (bandwidth, period).
FIG8_PAIR = {
    "banks": 12, "bank_cycle": 3, "sections": 3,
    "streams": [[0, 1], [1, 1]], "cpus": [0, 0],
}
FIG8_EXPECTED = {"fixed": ("3/2", 16), "cyclic": ("2/1", 12)}
#: A simulated cyclic pair (exactly 4/3 over 120 clocks) and the same
#: shape on 41 banks bounded below its cycle, which cannot complete.
MIXED_SWEEP = {"jobs": [
    {"banks": 40, "bank_cycle": 3, "streams": [[0, 1], [0, 3]],
     "cpus": [0, 1], "priority": "cyclic"},
    {"banks": 41, "bank_cycle": 3, "streams": [[0, 1], [0, 3]],
     "cpus": [0, 1], "priority": "cyclic", "max_cycles": 3},
]}


def _post(base: str, path: str, obj: object) -> tuple[int, dict]:
    req = urllib.request.Request(
        base + path,
        data=json.dumps(obj).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _get(base: str, path: str) -> tuple[int, bytes]:
    with urllib.request.urlopen(base + path, timeout=30) as resp:
        return resp.status, resp.read()


def _serve_samples(prom_text: str) -> dict[str, float]:
    """Every ``serve_*`` sample in the exposition, name{labels} -> value."""
    samples: dict[str, float] = {}
    for line in prom_text.splitlines():
        if line.startswith("serve_"):
            name, _, value = line.rpartition(" ")
            samples[name] = float(value)
    return samples


def _proc_text(pid: int, name: str) -> str | None:
    """``/proc/<pid>/<name>``, or ``None`` where there is no ``/proc``."""
    try:
        return Path(f"/proc/{pid}/{name}").read_text()
    except FileNotFoundError:
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", default="serve-smoke.json",
                        help="metrics/response artifact path")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="seconds to wait for server readiness")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as store:
        return _smoke(args, store)


def _smoke(args: argparse.Namespace, store: str) -> int:
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "-m", "8", "-c", "4", "--store", store, "--precompute", "1-3",
         "--host", "127.0.0.1", "--port", "0"],
        cwd=ROOT,
        env={**__import__("os").environ, "PYTHONPATH": str(ROOT / "src")},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    artifact: dict = {}
    try:
        assert proc.stdout is not None
        deadline = time.monotonic() + args.timeout
        port = None
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                raise SystemExit(
                    f"server exited early: {proc.wait()}"
                )
            match = re.search(r"serving on http://[^:]+:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        if port is None:
            raise SystemExit("server never announced readiness")
        artifact["setup_s"] = time.monotonic() - spawned
        base = f"http://127.0.0.1:{port}"

        status, beff = _post(base, "/v1/beff", ANALYTIC_POINT)
        assert status == 200, (status, beff)
        assert beff["bandwidth"] == ANALYTIC_EXPECTED, beff
        assert beff["tier"] == "analytic", beff
        artifact["beff_analytic"] = beff

        status, pre = _post(base, "/v1/beff", PRECOMPUTED_POINT)
        assert status == 200, (status, pre)
        assert pre["tier"] == "memo", pre
        artifact["beff_precomputed"] = pre

        status, sim = _post(base, "/v1/beff", SIMULATED_POINT)
        assert status == 200, (status, sim)
        assert sim["bandwidth"] == SIMULATED_EXPECTED, sim
        assert sim["tier"] == "simulated", sim
        artifact["beff_simulated"] = sim

        status, again = _post(base, "/v1/beff", SIMULATED_POINT)
        assert status == 200, (status, again)
        assert again["bandwidth"] == SIMULATED_EXPECTED, again
        assert again["tier"] == "memo", again
        artifact["beff_repeat"] = again

        for priority, (bandwidth, period) in FIG8_EXPECTED.items():
            body = {**FIG8_PAIR, "priority": priority}
            status, fig8 = _post(base, "/v1/beff", body)
            assert status == 200, (status, fig8)
            assert (fig8["bandwidth"], fig8["period"]) == (bandwidth, period), fig8
            artifact[f"beff_fig8_{priority}"] = fig8
        # Fig. 8(b) simulates once, then answers from the memo.
        assert artifact["beff_fig8_cyclic"]["tier"] == "simulated", fig8
        status, again = _post(base, "/v1/beff", {**FIG8_PAIR, "priority": "cyclic"})
        assert status == 200, (status, again)
        assert (again["bandwidth"], again["tier"]) == ("2/1", "memo"), again
        artifact["beff_fig8_cyclic_repeat"] = again
        beff_posts = 7  # the POST /v1/beff requests above

        status, mixed = _post(base, "/v1/sweep", MIXED_SWEEP)
        assert status == 200, (status, mixed)
        assert mixed["failures"] == 1, mixed
        valid, failed = mixed["results"]
        assert (valid["bandwidth"], valid["period"]) == ("4/3", 120), valid
        assert failed["tier"] == "failed", failed
        artifact["sweep_with_failed_job"] = mixed

        status, bad = _post(base, "/v1/sweep", {"jobs": "nope"})
        assert status == 400, (status, bad)
        artifact["malformed_status"] = status

        status, health = _get(base, "/healthz")
        assert status == 200
        artifact["healthz"] = json.loads(health)

        status, prom = _get(base, "/metrics")
        assert status == 200
        samples = _serve_samples(prom.decode())
        artifact["serve_metrics"] = samples
        latency_count = samples.get(
            'serve_http_latency_us_count{endpoint="/v1/beff"}', 0.0
        )
        assert latency_count >= beff_posts, (
            f"latency histogram not populated: {latency_count}"
        )
        requests_ok = samples.get(
            'serve_http_requests{endpoint="/v1/beff",status="200"}', 0.0
        )
        assert requests_ok >= beff_posts, (
            f"request counter not populated: {requests_ok}"
        )

        maps = _proc_text(proc.pid, "maps")
        if maps is None:
            print("note: no /proc here; the numpy-not-loaded check is skipped")
        else:
            assert "_multiarray_umath" not in maps, "the server loaded numpy"
            artifact["numpy_loaded"] = False
            status_text = _proc_text(proc.pid, "status") or ""
            for line in status_text.splitlines():
                if line.startswith("VmHWM:"):
                    artifact["peak_rss_mb"] = int(line.split()[1]) / 1024

        # A keep-alive client parked between requests must neither hold
        # the drain open nor be torn down with a traceback.
        idle = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        idle.request(
            "POST", "/v1/beff", body=json.dumps(ANALYTIC_POINT),
            headers={"Content-Type": "application/json"},
        )
        resp = idle.getresponse()
        assert resp.status == 200, resp.status
        assert resp.getheader("Connection") == "keep-alive"
        resp.read()

        proc.send_signal(signal.SIGINT)
        try:
            out, _ = proc.communicate(timeout=args.timeout)
        except subprocess.TimeoutExpired:
            raise SystemExit(
                f"server did not drain within {args.timeout}s with an "
                "idle keep-alive connection open"
            ) from None
        finally:
            idle.close()
        assert proc.returncode == 0, (proc.returncode, out)
        assert "draining" in out, out
        assert "Traceback" not in out, out
        artifact["shutdown"] = {"returncode": proc.returncode}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
        Path(args.json).write_text(json.dumps(artifact, indent=2) + "\n")

    print(f"serve smoke OK; artifact written to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
