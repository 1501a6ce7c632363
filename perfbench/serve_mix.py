"""serve-mix: closed-loop HTTP load on `repro-mem serve --store`.

One client process (the benchmark itself) holds two keep-alive
connections; each sends its next request only when the previous answer
has arrived.  The requests are pre-built bytes, so the client does
almost no work while the clock runs; answers are checked afterwards
against the fast engine.
"""

from __future__ import annotations

import itertools
import json
import os
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from calibrate import REFERENCE_S, Calibrator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLIENTS = 2
#: The loop runs in windows of this length with a machine-speed probe
#: between windows (the clients pause for it), so that each window is
#: scaled by the machine's speed at that moment.  Each metric is the
#: median over the windows, which keeps a window hit by a burst of
#: interference from moving it.
WINDOW_S = 2.5
#: Requests sent one at a time before the clock starts (first-use
#: imports and allocations in the server).
WARMUP = 200
#: Pre-built requests per measured second: above any rate the server
#: reaches on two connections, so the loop never runs dry.
MAX_RATE = 3000
SERVER_TIMEOUT_S = 60


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


class Server:
    """A server process, from spawn until it has exited."""

    def __init__(self, argv: list[str], log: Path) -> None:
        start = time.perf_counter()
        self._log = log.open("w")
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        try:
            self.port = self._await_announce()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _await_announce(self) -> int:
        assert self.proc.stdout is not None
        deadline = time.monotonic() + SERVER_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 1.0)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                if line.startswith("serving on http://"):
                    return int(line.rstrip().rsplit(":", 1)[1])
        raise RuntimeError(f"server did not announce a listener; see {self._log.name}")

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (VmHWM), read while it runs."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Graceful SIGTERM drain; kill only if it does not finish."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=SERVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def _exchange(sock: socket.socket, wire: bytes) -> tuple[int, bytes]:
    sock.sendall(wire)
    buf = b""
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        buf += chunk
    head, _, body = buf.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    while len(body) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection mid-body")
        body += chunk
    return int(head[9:12]), body


#: (request index, latency ns, HTTP status or 0 on a broken connection, body)
Result = tuple[int, int, int, bytes]


def _connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _client(port: int, requests: list, indices: itertools.count,
            deadline: float, out: list[Result]) -> None:
    sock = _connect(port)
    try:
        while time.perf_counter() < deadline:
            i = next(indices)
            if i >= len(requests):
                break
            start = time.perf_counter_ns()
            try:
                status, body = _exchange(sock, requests[i].wire)
            except OSError:
                status, body = 0, b""
                sock.close()
                sock = _connect(port)
            out.append((i, time.perf_counter_ns() - start, status, body))
    finally:
        sock.close()


@dataclass
class Window:
    """One window of the closed loop and its scale to the reference speed."""

    results: list[Result]
    wall_s: float
    #: REFERENCE_S over the faster of the probes either side of the window
    factor: float

    def rate(self) -> float:
        return len(self.results) / (self.wall_s * self.factor)

    def latencies(self) -> list[float]:
        return [r[1] * self.factor for r in self.results]


def load(
    port: int, requests: list, seconds: float, calibrator: Calibrator
) -> tuple[list[Result], list[Window]]:
    """Warm up, then run the closed loop in windows with a probe between."""
    warm: list[Result] = []
    _client(port, requests[:WARMUP], itertools.count(), float("inf"), warm)
    windows: list[Window] = []
    elapsed = 0.0
    indices = itertools.count(WARMUP)
    probe = calibrator.sample()
    while elapsed < seconds:
        results: list[Result] = []
        start = time.perf_counter()
        threads = [
            threading.Thread(
                target=_client,
                args=(port, requests, indices, start + WINDOW_S, results),
            )
            for _ in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=WINDOW_S + SERVER_TIMEOUT_S)
            if t.is_alive():
                raise RuntimeError("client thread did not finish")
        wall = time.perf_counter() - start
        elapsed += wall
        after = calibrator.sample()
        windows.append(Window(results, wall, REFERENCE_S / min(probe, after)))
        probe = after
    return warm, windows


def count_failures(requests: list, results: list[Result]) -> int:
    """Non-200 answers plus answers that differ from the fast engine."""
    from repro.runner import run

    expected: dict = {}
    failed = 0
    for i, _, status, body in results:
        job = requests[i].job
        if status != 200:
            failed += 1
            continue
        if job not in expected:
            expected[job] = run(job, backend="fast").to_payload()["bandwidth"]
        if json.loads(body).get("bandwidth") != expected[job]:
            failed += 1
    return failed


def _quantile_ms(latencies_ns: list[float], q: int) -> float:
    return statistics.quantiles(latencies_ns, n=100, method="inclusive")[q - 1] / 1e6


def run(seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    """One serve-mix run; returns metrics plus attempted/failed counts."""
    requests = workloads.serve_requests(seed, WARMUP + int(MAX_RATE * seconds))
    plain = [sys.executable, "-u", "-m", "repro.cli", "serve", "--port", "0",
             "--store", str(scratch / "store")]
    calibrator = Calibrator()
    try:
        return _measure(requests, plain, seconds, trace, scratch, calibrator)
    finally:
        calibrator.close()


def _measure(requests: list, plain: list[str], seconds: float, trace: bool,
             scratch: Path, calibrator: Calibrator) -> dict:
    if not trace:
        setups = []
        for k in range(2):
            probe = Server(plain, scratch / f"probe{k}.log")
            setups.append(probe.setup_s)
            probe.stop()
        server = Server(plain, scratch / "server.log")
        setups.append(server.setup_s)
        try:
            warm, windows = load(server.port, requests, seconds, calibrator)
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        speed = REFERENCE_S / statistics.median(calibrator.samples)
        results = warm + [r for w in windows for r in w.results]
        rate = statistics.median(w.rate() for w in windows)
        return {
            "attempted": len(results),
            "failed": count_failures(requests, results),
            "samples": len(results) - len(warm),
            "speed": speed,
            "metrics": {
                "jobs_per_s": rate,
                "req_per_s": rate,
                "latency_p50_ms": statistics.median(
                    _quantile_ms(w.latencies(), 50) for w in windows
                ),
                "latency_p99_ms": statistics.median(
                    _quantile_ms(w.latencies(), 99) for w in windows
                ),
                "setup_s": statistics.median(setups) * speed,
                "peak_rss_mb": rss,
            },
        }

    # Traced run: the same requests against an untraced server, then a
    # traced one, half the time each; the difference is the overhead.
    half = seconds / 2
    server = Server(plain, scratch / "server.log")
    try:
        plain_warm, plain_windows = load(server.port, requests, half, calibrator)
    finally:
        server.stop()
    out = scratch / "trace.json"
    traced_argv = [sys.executable, "-u", str(HERE / "serve_traced.py"), str(out),
                   "serve", "--port", "0", "--store", str(scratch / "traced-store")]
    server = Server(traced_argv, scratch / "traced.log")
    try:
        warm, windows = load(server.port, requests, half, calibrator)
    finally:
        server.stop()
    speed = REFERENCE_S / statistics.median(calibrator.samples)
    summary = json.loads(out.read_text())
    results = warm + [r for w in windows for r in w.results]
    plain_ns = statistics.fmean(x for w in plain_windows for x in w.latencies())
    traced_ns = statistics.fmean(x for w in windows for x in w.latencies())
    every = results + plain_warm + [r for w in plain_windows for r in w.results]
    return {
        "attempted": len(every),
        "failed": count_failures(requests, every),
        "samples": len(results),
        "speed": speed,
        "summary": summary,
        "jobs": len(results),
        "client_ns": sum(r[1] for r in results),
        "overhead_ns": traced_ns - plain_ns,
        "overhead_ratio": traced_ns / plain_ns - 1,
    }
