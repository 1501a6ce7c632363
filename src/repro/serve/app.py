"""The asyncio HTTP server: routing, shedding, metrics, shutdown.

Plain :mod:`asyncio` streams and hand-rolled HTTP/1.1 — no framework,
no dependency.  The protocol subset is deliberately small: JSON bodies,
``Content-Length`` framing (no chunked requests), keep-alive by
default.  Everything interesting happens in :meth:`BandwidthService.
dispatch`, which is pure ``(method, target, body) -> response`` and
therefore testable without a socket.

Request flow for the compute endpoints (``/v1/beff``, ``/v1/sweep``):

1. **shed** — past ``max_inflight`` concurrently served compute
   requests the service answers ``429`` with a ``Retry-After`` header
   instead of queueing unboundedly;
2. **validate** — the body parses into frozen
   :class:`~repro.runner.job.SimJob` values or fails as a ``400``;
3. **key** — each job is keyed once (``SimJob.cache_key``); the probe,
   the coalescer and the response all reuse that key;
4. **probe** — the :class:`~repro.serve.lookup.LookupTier` answers
   analytically-decided points, and points the shared
   :class:`~repro.runner.executor.SweepExecutor` holds in its memo or
   store, inline, in microseconds;
5. **drain** — the rest coalesce through the
   :class:`~repro.serve.coalesce.Coalescer` onto that executor in a
   worker thread.

Shutdown is graceful: the listener closes, keep-alive connections
parked between requests are closed, in-flight requests finish and are
answered with ``Connection: close``, queued drain batches finish (their
results already published to the result store, if any), and late
requests get ``503``.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
from fractions import Fraction
from typing import Awaitable, Callable
from urllib.parse import parse_qs, urlsplit

from ..core.classify import classify_pair
from ..obs import metrics as _metrics
from ..obs import names as _names
from ..obs import trace as _trace
from ..obs.export import render_prometheus
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Stopwatch
from ..runner.executor import SweepExecutor
from ..runner.job import SimJob
from ..runner.resilience import RetryPolicy, SweepFailureError
from .coalesce import Coalescer
from .lookup import LookupTier
from .protocol import (
    MAX_SWEEP_JOBS,
    ProtocolError,
    job_from_payload,
    outcome_to_payload,
)

__all__ = ["BandwidthService", "run_server"]

#: Largest accepted request body (a full MAX_SWEEP_JOBS sweep fits).
MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}

#: Known route paths — also the latency/request label vocabulary
#: (unknown paths collapse onto one label to bound cardinality).
_ROUTES = ("/v1/beff", "/v1/sweep", "/v1/regime", "/metrics", "/healthz")

_Response = tuple[int, str, bytes, dict[str, str]]

#: The served executor's failure policy: a drain batch that raises is
#: bisected at once, without backoff, so a job that cannot complete
#: comes back as its own ``FailedOutcome`` (a 502 ``failed-job``)
#: instead of failing every request that shared its batch.  Any
#: exception a batch raises is caught this way, a programming error too.
_DRAIN_RETRY = RetryPolicy(max_retries=0, backoff_base_ms=0)


def _json_body(obj: object) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode()


def _fraction_str(value: Fraction | None) -> str | None:
    if value is None:
        return None
    return f"{value.numerator}/{value.denominator}"


class BandwidthService:
    """The bandwidth oracle behind the HTTP endpoints.

    Parameters
    ----------
    executor:
        The warm :class:`SweepExecutor` every request shares, and the
        only owner of cached answers: the lookup tier peeks its memo
        and store, the drain runs misses through it (which publishes
        them to its store, if it has one).
    max_inflight:
        Load-shedding cap on concurrently served compute requests.
    max_sweep_jobs:
        Per-request job cap for ``/v1/sweep`` (413 above it).
    """

    def __init__(
        self,
        *,
        executor: SweepExecutor,
        max_inflight: int = 64,
        max_sweep_jobs: int = MAX_SWEEP_JOBS,
    ) -> None:
        if max_inflight < 0:
            raise ValueError("max_inflight must be non-negative")
        self.executor = executor
        self.lookup = LookupTier(executor=executor)
        self.coalescer = Coalescer(executor)
        self.registry = MetricsRegistry()
        self.max_inflight = max_inflight
        self.max_sweep_jobs = max_sweep_jobs
        self._inflight = 0
        self._draining = False
        self._server: asyncio.AbstractServer | None = None
        #: connection handler tasks still running
        self._handlers: set[asyncio.Task[None]] = set()
        #: writers of connections waiting for their next request line
        self._parked: set[asyncio.StreamWriter] = set()

    # ------------------------------------------------------------------
    # Dispatch (socket-free core; the unit tests call this directly)
    # ------------------------------------------------------------------
    async def dispatch(self, method: str, target: str, body: bytes = b"") -> _Response:
        """Serve one request: ``(status, content_type, body, headers)``."""
        url = urlsplit(target)
        endpoint = url.path if url.path in _ROUTES else "unknown"
        watch = Stopwatch()
        extra: dict[str, str] = {}
        with _trace.span(_names.SPAN_SERVE_REQUEST, endpoint=endpoint):
            try:
                status, ctype, payload, extra = await self._route(
                    method, url.path, url.query, body
                )
            except ProtocolError as exc:
                status, ctype, payload = self._error(exc)
                if exc.mode == "overloaded":
                    extra = {"Retry-After": "1"}
            except Exception as exc:  # noqa: BLE001 - boundary: 500, never a crash
                err = ProtocolError("internal", f"{type(exc).__name__}: {exc}")
                status, ctype, payload = self._error(err)
        reg = _metrics.active_metrics()
        if reg is not None:
            reg.counter(
                _names.SERVE_REQUESTS, endpoint=endpoint, status=status
            ).inc()
            reg.histogram(_names.SERVE_LATENCY, endpoint=endpoint).observe(
                watch.elapsed_us()
            )
        return status, ctype, payload, extra

    def _error(self, exc: ProtocolError) -> tuple[int, str, bytes]:
        body = _json_body(
            {
                "error": {
                    "mode": exc.mode,
                    "status": exc.status,
                    "message": str(exc),
                }
            }
        )
        return exc.status, "application/json", body

    async def _route(
        self, method: str, path: str, query: str, body: bytes
    ) -> _Response:
        if path not in _ROUTES:
            raise ProtocolError("not-found", f"no such endpoint: {path}")
        if path == "/healthz":
            self._expect(method, "GET")
            return self._healthz()
        if path == "/metrics":
            self._expect(method, "GET")
            text = render_prometheus(self.registry)
            return 200, "text/plain; version=0.0.4", text.encode(), {}
        if path == "/v1/regime":
            self._expect(method, "GET")
            return self._regime(query)
        self._expect(method, "POST")
        self._check_capacity()
        data = self._parse_json(body)
        self._inflight += 1
        self._set_inflight_gauge()
        try:
            if path == "/v1/beff":
                return await self._beff(data)
            return await self._sweep(data)
        finally:
            self._inflight -= 1
            self._set_inflight_gauge()

    @staticmethod
    def _expect(method: str, allowed: str) -> None:
        if method != allowed:
            raise ProtocolError(
                "bad-method", f"this endpoint only accepts {allowed}"
            )

    def _check_capacity(self) -> None:
        if self._draining:
            raise ProtocolError("shutting-down", "service is draining")
        if self._inflight >= self.max_inflight:
            reg = _metrics.active_metrics()
            if reg is not None:
                reg.counter(_names.SERVE_SHED).inc()
            raise ProtocolError(
                "overloaded",
                f"in-flight cap ({self.max_inflight}) reached; retry later",
            )

    def _set_inflight_gauge(self) -> None:
        reg = _metrics.active_metrics()
        if reg is not None:
            reg.gauge(_names.SERVE_INFLIGHT).set(self._inflight)

    @staticmethod
    def _parse_json(body: bytes) -> object:
        try:
            return json.loads(body)
        except ValueError as exc:
            raise ProtocolError(
                "malformed", f"request body is not valid JSON: {exc}"
            ) from None

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def _healthz(self) -> _Response:
        body = _json_body(
            {
                "status": "draining" if self._draining else "ok",
                "inflight": self._inflight,
                "queue_depth": self.coalescer.queue_depth,
                "lookup_entries": len(self.executor),
                "executor": self.executor.stats.as_dict(),
            }
        )
        return 200, "application/json", body, {}

    def _regime(self, query: str) -> _Response:
        params = parse_qs(query)

        def _int(name: str, required: bool = True) -> int | None:
            values = params.get(name)
            if not values:
                if required:
                    raise ProtocolError(
                        "malformed", f"missing query parameter {name!r}"
                    )
                return None
            try:
                return int(values[-1])
            except ValueError:
                raise ProtocolError(
                    "malformed", f"query parameter {name!r} must be an integer"
                ) from None

        m = _int("m")
        n_c = _int("n_c")
        d1 = _int("d1")
        d2 = _int("d2")
        s = _int("s", required=False)
        assert m is not None and n_c is not None
        assert d1 is not None and d2 is not None
        try:
            c = classify_pair(m, n_c, d1, d2, s=s)
        except ValueError as exc:
            raise ProtocolError("malformed", str(exc)) from None
        predicted = c.predicted_bandwidth
        body = _json_body(
            {
                "m": c.m,
                "n_c": c.n_c,
                "d1": c.d1,
                "d2": c.d2,
                "s": s,
                "regime": c.regime.value,
                "predicted_bandwidth": _fraction_str(predicted),
                "predicted_bandwidth_float": (
                    None if predicted is None else float(predicted)
                ),
                "bandwidth_lower": _fraction_str(c.bandwidth_lower),
                "bandwidth_upper": _fraction_str(c.bandwidth_upper),
                "delayed_stream": c.delayed_stream,
                "conflict_free_offset": c.conflict_free_offset,
                "notes": list(c.notes),
            }
        )
        return 200, "application/json", body, {}

    async def _answer_one(self, job: SimJob) -> dict:
        """One job's response object; a failed job's has tier ``failed``."""
        key = job.cache_key()
        hit = self.lookup.probe(job, key)
        if hit is not None:
            outcome, tier = hit
            return outcome_to_payload(outcome, key=key, tier=tier)
        outcome = await self.coalescer.submit(job, key)
        if outcome.failed:
            error = getattr(outcome, "error", "?")
            return {
                "key": key,
                "tier": "failed",
                "failed": True,
                "error": f"job could not be completed: {error}",
            }
        return outcome_to_payload(outcome, key=key, tier="simulated")

    async def _beff(self, data: object) -> _Response:
        job = job_from_payload(data)
        if job.trace:
            raise ProtocolError("malformed", "trace jobs are not servable")
        result = await self._answer_one(job)
        if result["tier"] == "failed":
            raise ProtocolError("failed-job", result["error"])
        return 200, "application/json", _json_body(result), {}

    async def _sweep(self, data: object) -> _Response:
        if not isinstance(data, dict) or not isinstance(data.get("jobs"), list):
            raise ProtocolError(
                "malformed", "sweep body must be {\"jobs\": [...]}"
            )
        raw_jobs = data["jobs"]
        if len(raw_jobs) > self.max_sweep_jobs:
            raise ProtocolError(
                "too-large",
                f"sweep of {len(raw_jobs)} jobs exceeds the cap of "
                f"{self.max_sweep_jobs}",
            )
        jobs = [job_from_payload(item) for item in raw_jobs]
        results = await asyncio.gather(*(self._answer_one(job) for job in jobs))
        tiers: dict[str, int] = {}
        for item in results:
            tiers[item["tier"]] = tiers.get(item["tier"], 0) + 1
        body = _json_body(
            {
                "results": list(results),
                "count": len(results),
                "failures": tiers.get("failed", 0),
                "tiers": tiers,
            }
        )
        return 200, "application/json", body, {}

    # ------------------------------------------------------------------
    # The socket layer
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)
        try:
            # A draining service never parks a connection: aclose()
            # closes the parked ones and waits for the rest.
            while not self._draining:
                self._parked.add(writer)
                request_line = await reader.readline()
                self._parked.discard(writer)
                if not request_line:
                    break
                parts = request_line.decode("latin-1").split()
                if len(parts) != 3:
                    await self._write_response(
                        writer,
                        self._error(
                            ProtocolError("malformed", "bad request line")
                        )
                        + ({},),
                        keep=False,
                    )
                    break
                method, target, _version = parts
                headers: dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                try:
                    length = int(headers.get("content-length", "0") or "0")
                except ValueError:
                    length = -1
                if length < 0 or length > MAX_BODY_BYTES:
                    await self._write_response(
                        writer,
                        self._error(
                            ProtocolError(
                                "too-large", "invalid or oversized body"
                            )
                        )
                        + ({},),
                        keep=False,
                    )
                    break
                body = await reader.readexactly(length) if length else b""
                response = await self.dispatch(method, target, body)
                keep = (
                    headers.get("connection", "").lower() != "close"
                    and not self._draining
                )
                await self._write_response(writer, response, keep=keep)
                if not keep:
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            self._parked.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter, response: _Response, *, keep: bool
    ) -> None:
        status, ctype, payload, extra = response
        reason = _REASONS.get(status, "OK")
        head = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {ctype}",
            f"Content-Length: {len(payload)}",
        ]
        head.extend(f"{name}: {value}" for name, value in extra.items())
        head.append(f"Connection: {'keep-alive' if keep else 'close'}")
        writer.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n")
        writer.write(payload)
        await writer.drain()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(
        self, host: str = "127.0.0.1", port: int = 0, *,
        start_serving: bool = True,
    ) -> asyncio.AbstractServer:
        """Bind the listener and enable the service metrics registry.

        With ``start_serving=False`` the socket is bound but accepts no
        connection until ``await server.start_serving()``.
        """
        self._server = await asyncio.start_server(
            self._handle_client, host, port, start_serving=start_serving
        )
        _metrics.enable_metrics(self.registry)
        return self._server

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("service is not listening")
        port = self._server.sockets[0].getsockname()[1]
        return int(port)

    async def aclose(self) -> None:
        """Graceful shutdown: close the listener and idle connections,
        let in-flight requests answer, drain queued work."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            # An idle keep-alive client would otherwise hold its handler
            # in readline(): wait_closed() waits on it forever (3.12.1+)
            # or asyncio.run cancels it mid-read (3.11).
            for writer in list(self._parked):
                writer.close()
            if self._handlers:
                await asyncio.wait(list(self._handlers))
            await self._server.wait_closed()
            self._server = None
        await self.coalescer.close()
        _metrics.disable_metrics()


async def _amain(
    service: BandwidthService,
    host: str,
    port: int,
    announce: Callable[[str], object],
    precompute: Callable[[BandwidthService], Awaitable[None]] | None = None,
) -> None:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    try:
        server = await service.start(host, port, start_serving=False)
    except OSError as exc:
        # asyncio rewords bind failures; report the plain OS cause.
        cause = exc.strerror or str(exc)
        if exc.errno is not None and exc.errno > 0:
            cause = os.strerror(exc.errno)
        raise ValueError(f"cannot listen on {host}:{port}: {cause}") from exc
    # Nothing is served until the precompute is done: a drain run_many
    # must not overlap the precompute's on the one executor.
    if precompute is not None:
        try:
            await precompute(service)
        except BaseException:
            await service.aclose()
            raise
    await server.start_serving()
    announce(f"serving on http://{host}:{service.port}")
    await stop.wait()
    announce("draining")
    await service.aclose()


def run_server(
    *,
    host: str = "127.0.0.1",
    port: int = 8080,
    backend: str = "auto",
    store_path: str | None = None,
    max_inflight: int = 64,
    precompute_jobs: list[SimJob] | None = None,
    announce: Callable[[str], object] = print,
) -> None:
    """Build a service and serve until SIGINT/SIGTERM (the CLI entry).

    ``store_path`` gives the service's executor a
    :class:`~repro.runner.store.ResultStore`: repeats of stored keys
    are answered from it, and fresh results are published to it.
    ``precompute_jobs`` runs through the executor in one ``run_many``
    after the listener is bound and before it serves or is announced,
    so a ``--precompute`` launch only accepts connections and reports
    ready once its memo (and store) hold every precomputed point; a
    precompute job that fails raises :class:`SweepFailureError` before
    anything is served.
    A job that cannot complete answers 502 ``failed-job`` and fails
    only its own request, not the others drained with it.
    A listener that cannot bind (address in use, unresolvable host)
    raises ``ValueError`` naming ``host:port``.
    """
    executor = SweepExecutor(
        backend=backend, store_path=store_path, retry=_DRAIN_RETRY
    )
    service = BandwidthService(executor=executor, max_inflight=max_inflight)

    async def _precompute(svc: BandwidthService) -> None:
        assert precompute_jobs is not None
        loop = asyncio.get_running_loop()
        outs = await loop.run_in_executor(
            None, svc.executor.run_many, precompute_jobs
        )
        failures = [out for out in outs if out.failed]
        if failures:
            raise SweepFailureError(failures)
        announce(f"precomputed {len(svc.executor)} unique results")

    asyncio.run(
        _amain(
            service,
            host,
            port,
            announce,
            _precompute if precompute_jobs else None,
        )
    )
