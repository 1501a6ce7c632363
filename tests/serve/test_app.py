"""The HTTP service: routing, shedding, exactness, the socket layer."""

import asyncio
import json

import pytest

from repro.obs import names as _names
from repro.obs.metrics import MetricsRegistry, capture_metrics
from repro.runner.executor import SweepExecutor
from repro.runner.job import SimJob
from repro.runner.resilience import RetryPolicy, SweepFailureError
from repro.serve.app import BandwidthService, run_server
from repro.serve.protocol import job_from_payload

from ..property.paths import served

#: Analytically undecided pair: forces the simulation drain path.
UNDECIDED = {"banks": 8, "bank_cycle": 4, "streams": [[0, 4], [0, 4]]}
#: Theorem 1 point with a non-trivial exact value: m=8, n_c=4, d=4
#: -> r = 2 < n_c, b_eff = r/n_c = 1/2.
ANALYTIC = {"banks": 8, "bank_cycle": 4, "streams": [[0, 4]]}
#: A cyclic pair no closed form decides: exactly 4/3 over 120 clocks.
CYCLIC_PAIR = {
    "banks": 40, "bank_cycle": 3, "streams": [[0, 1], [0, 3]],
    "cpus": [0, 1], "priority": "cyclic",
}
#: The same shape on 41 banks, bounded far below its cycle.
UNFINISHABLE = {**CYCLIC_PAIR, "banks": 41, "max_cycles": 3}


def _dispatch(service, method, target, body=b""):
    return asyncio.run(service.dispatch(method, target, body))


def _post(service, target, obj):
    return _dispatch(service, "POST", target, json.dumps(obj).encode())


def _service(**kwargs):
    kwargs.setdefault("executor", SweepExecutor(backend="auto"))
    return BandwidthService(**kwargs)


class TestRouting:
    def test_unknown_path_is_404(self):
        status, _, body, _ = _dispatch(_service(), "GET", "/nope")
        assert status == 404
        assert json.loads(body)["error"]["mode"] == "not-found"

    def test_wrong_method_is_405(self):
        status, _, body, _ = _dispatch(_service(), "POST", "/healthz")
        assert status == 405
        assert json.loads(body)["error"]["mode"] == "bad-method"

    def test_malformed_body_is_400_not_500(self):
        service = _service()
        for raw in (b"{nope", b"[]", b"null", b'{"jobs": 3}'):
            status, _, body, _ = _dispatch(
                service, "POST", "/v1/beff", raw
            )
            assert status == 400, raw
            assert json.loads(body)["error"]["mode"] == "malformed"

    def test_healthz_reports_state(self):
        status, _, body, _ = _dispatch(_service(), "GET", "/healthz")
        assert status == 200
        data = json.loads(body)
        assert data["status"] == "ok"
        assert data["inflight"] == 0


class TestBeff:
    def test_analytic_point_returns_exact_fraction(self):
        status, _, body, _ = _post(_service(), "/v1/beff", ANALYTIC)
        assert status == 200
        data = json.loads(body)
        assert data["bandwidth"] == "1/2"
        assert data["tier"] == "analytic"
        assert data["bandwidth_float"] == 0.5

    def test_undecided_point_simulates_exactly(self):
        service = _service()
        status, _, body, _ = _post(service, "/v1/beff", UNDECIDED)
        assert status == 200
        data = json.loads(body)
        assert data["tier"] == "simulated"
        # two interleaved streams on one n_c=4 bank: 2 grants / 4 clocks
        assert data["bandwidth"] == "1/2"
        assert service.executor.stats.executed == 1

    def test_second_identical_request_is_a_lookup(self):
        service = _service()
        _post(service, "/v1/beff", UNDECIDED)
        status, _, body, _ = _post(service, "/v1/beff", UNDECIDED)
        assert status == 200
        assert json.loads(body)["tier"] == "memo"
        assert service.executor.stats.executed == 1

    def test_storeless_service_never_answers_store(self):
        service = _service()
        twin = {**UNDECIDED, "streams": [[3, 4], [3, 4]]}  # isomorphic
        tiers = [
            json.loads(_post(service, "/v1/beff", body)[2])["tier"]
            for body in (UNDECIDED, UNDECIDED, twin, UNDECIDED)
        ]
        assert tiers == ["simulated", "memo", "memo", "memo"]
        _, _, body, _ = _post(service, "/v1/sweep", {"jobs": [UNDECIDED] * 3})
        assert json.loads(body)["tiers"] == {"memo": 3}
        assert service.executor.stats.executed == 1

    def test_store_tier_serves_precomputed_points(self, tmp_path):
        job = job_from_payload(UNDECIDED)
        SweepExecutor(backend="fast", store_path=tmp_path).run_one(job)
        service = BandwidthService(
            executor=SweepExecutor(backend="auto", store_path=tmp_path)
        )
        status, _, body, _ = _post(service, "/v1/beff", UNDECIDED)
        assert status == 200
        assert json.loads(body)["tier"] == "store"
        assert service.executor.stats.executed == 0
        # the store read was promoted into the executor's memo
        status, _, body, _ = _post(service, "/v1/beff", UNDECIDED)
        assert status == 200
        assert json.loads(body)["tier"] == "memo"
        assert service.executor.stats.executed == 0

    def test_failed_job_is_502(self):
        service = _service(executor=_failing_executor())
        status, _, body, _ = _post(service, "/v1/beff", UNDECIDED)
        assert status == 502
        assert json.loads(body)["error"]["mode"] == "failed-job"


class TestServedFailureIsolation:
    """The service ``run_server`` builds: a job that cannot finish fails
    only its own request, not the others drained in its batch."""

    def test_concurrent_requests_answer_200_and_502(self):
        service = served()

        async def both():
            return await asyncio.gather(*(
                service.dispatch("POST", "/v1/beff", json.dumps(job).encode())
                for job in (CYCLIC_PAIR, UNFINISHABLE)
            ))

        (ok, _, ok_body, _), (bad, _, bad_body, _) = asyncio.run(both())
        assert ok == 200
        data = json.loads(ok_body)
        assert (data["bandwidth"], data["period"]) == ("4/3", 120)
        assert bad == 502
        assert json.loads(bad_body)["error"]["mode"] == "failed-job"

    def test_sweep_counts_the_failed_entry(self):
        jobs = [CYCLIC_PAIR, UNFINISHABLE]
        status, _, body, _ = _post(served(), "/v1/sweep", {"jobs": jobs})
        assert status == 200
        data = json.loads(body)
        assert data["failures"] == 1
        assert data["results"][0]["bandwidth"] == "4/3"
        assert data["results"][1]["tier"] == "failed"

    def test_failed_precompute_raises_before_serving(self):
        announced = []
        with pytest.raises(SweepFailureError, match="within 3 cycles"):
            run_server(
                port=0,
                precompute_jobs=[job_from_payload(UNFINISHABLE)],
                announce=announced.append,
            )
        assert announced == []


def _failing_executor():
    """Undecided jobs fail on the analytic backend; the non-strict
    policy returns them as FailedOutcome values."""
    return SweepExecutor(
        backend="analytic", retry=RetryPolicy(max_retries=0, backoff_base_ms=0)
    )


@pytest.fixture
def key_calls(monkeypatch):
    """Every ``SimJob.cache_key`` call, recorded as the job it keyed."""
    calls = []
    cache_key = SimJob.cache_key

    def counted(job):
        calls.append(job)
        return cache_key(job)

    monkeypatch.setattr(SimJob, "cache_key", counted)
    return calls


class TestOneKeyPerRequest:
    """Each request keys its job once; a miss adds run_many's own key."""

    def _key_calls(self, key_calls, service, body):
        key_calls.clear()
        status, _, _, _ = _post(service, "/v1/beff", body)
        assert status == 200
        return len(key_calls)

    def test_analytic_answer_keys_once(self, key_calls):
        assert self._key_calls(key_calls, _service(), ANALYTIC) == 1

    def test_miss_then_memo_answer(self, key_calls):
        service = _service()
        assert self._key_calls(key_calls, service, UNDECIDED) == 2
        assert self._key_calls(key_calls, service, UNDECIDED) == 1

    def test_store_answer_keys_once(self, key_calls, tmp_path):
        job = job_from_payload(UNDECIDED)
        SweepExecutor(backend="fast", store_path=tmp_path).run_one(job)
        service = _service(executor=SweepExecutor(store_path=tmp_path))
        assert self._key_calls(key_calls, service, UNDECIDED) == 1

    def test_failed_sweep_entry_reuses_the_request_key(self, key_calls):
        service = _service(executor=_failing_executor())
        status, _, body, _ = _post(service, "/v1/sweep", {"jobs": [UNDECIDED]})
        # the request's key plus run_many's; the failed entry adds none
        assert len(key_calls) == 2
        assert status == 200
        data = json.loads(body)
        assert data["failures"] == 1
        (entry,) = data["results"]
        assert entry["tier"] == "failed" and entry["failed"] is True
        assert entry["key"] == job_from_payload(UNDECIDED).cache_key()


class TestSweep:
    def test_sweep_returns_results_in_order_with_tier_counts(self):
        service = _service()
        jobs = [ANALYTIC, UNDECIDED, ANALYTIC]
        status, _, body, _ = _post(service, "/v1/sweep", {"jobs": jobs})
        assert status == 200
        data = json.loads(body)
        assert data["count"] == 3
        assert data["failures"] == 0
        tiers = [r["tier"] for r in data["results"]]
        assert tiers[0] == "analytic" and tiers[2] == "analytic"
        assert tiers[1] == "simulated"
        assert data["tiers"]["analytic"] == 2

    def test_sweep_deduplicates_identical_jobs(self):
        service = _service()
        status, _, body, _ = _post(
            service, "/v1/sweep", {"jobs": [UNDECIDED] * 16}
        )
        assert status == 200
        assert service.executor.stats.executed == 1
        values = {r["bandwidth"] for r in json.loads(body)["results"]}
        assert values == {"1/2"}

    def test_oversized_sweep_is_413(self):
        service = _service(max_sweep_jobs=2)
        status, _, body, _ = _post(
            service, "/v1/sweep", {"jobs": [ANALYTIC] * 3}
        )
        assert status == 413
        assert json.loads(body)["error"]["mode"] == "too-large"


class TestRegime:
    def test_classifies_a_pair_in_closed_form(self):
        status, _, body, _ = _dispatch(
            _service(), "GET", "/v1/regime?m=16&n_c=4&d1=1&d2=2"
        )
        assert status == 200
        data = json.loads(body)
        assert data["regime"] == "unique-barrier"
        assert data["predicted_bandwidth"] == "3/2"
        assert data["delayed_stream"] == 2

    def test_missing_parameter_is_400(self):
        status, _, body, _ = _dispatch(
            _service(), "GET", "/v1/regime?m=16&n_c=4&d1=1"
        )
        assert status == 400


class TestLoadShedding:
    def test_zero_cap_sheds_with_retry_after(self):
        service = _service(max_inflight=0)
        with capture_metrics() as reg:
            status, _, body, extra = _post(service, "/v1/beff", ANALYTIC)
        assert status == 429
        assert json.loads(body)["error"]["mode"] == "overloaded"
        assert extra.get("Retry-After") == "1"
        shed = reg.get(_names.SERVE_SHED)
        assert shed is not None and shed.value == 1

    def test_draining_service_returns_503(self):
        service = _service()
        asyncio.run(service.aclose())
        status, _, body, _ = _post(service, "/v1/beff", ANALYTIC)
        assert status == 503
        assert json.loads(body)["error"]["mode"] == "shutting-down"


class TestMetricsContract:
    def test_dispatch_emits_only_contract_names(self):
        service = _service()
        with capture_metrics() as reg:
            _post(service, "/v1/beff", ANALYTIC)
            _post(service, "/v1/beff", UNDECIDED)
            _dispatch(service, "GET", "/healthz")
            _dispatch(service, "GET", "/nope")
        names = {metric.name for metric in reg.collect()}
        assert names <= _names.metric_names()
        assert _names.SERVE_REQUESTS in names
        assert _names.SERVE_LATENCY in names
        assert _names.SERVE_LOOKUP in names

    def test_latency_histogram_populates_per_endpoint(self):
        service = _service()
        with capture_metrics() as reg:
            _post(service, "/v1/beff", ANALYTIC)
        hist = reg.get(_names.SERVE_LATENCY, endpoint="/v1/beff")
        assert hist is not None and hist.count == 1


class TestHttpServer:
    """End-to-end over a real socket."""

    @staticmethod
    async def _request(host, port, raw):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(raw)
        await writer.drain()
        writer.write_eof()
        data = await reader.read()
        writer.close()
        await writer.wait_closed()
        return data

    @staticmethod
    def _http(method, path, obj=None):
        body = b"" if obj is None else json.dumps(obj).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: t\r\nContent-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        return head.encode() + body

    def test_round_trip_and_graceful_shutdown(self):
        async def main():
            service = _service()
            await service.start("127.0.0.1", 0)
            port = service.port
            raw = await self._request(
                "127.0.0.1", port, self._http("POST", "/v1/beff", ANALYTIC)
            )
            head, _, payload = raw.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200 OK")
            data = json.loads(payload)
            assert data["bandwidth"] == "1/2"

            metrics_raw = await self._request(
                "127.0.0.1", port, self._http("GET", "/metrics")
            )
            assert b"HTTP/1.1 200" in metrics_raw.split(b"\r\n", 1)[0]
            assert b"serve_http_requests" in metrics_raw

            await service.aclose()
            # the registry is released on shutdown
            from repro.obs.metrics import active_metrics

            assert active_metrics() is None

        asyncio.run(main())

    def test_keep_alive_serves_sequential_requests(self):
        async def main():
            service = _service()
            await service.start("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            body = json.dumps(ANALYTIC).encode()
            head = (
                "POST /v1/beff HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode()
            for _ in range(2):
                writer.write(head + body)
                await writer.drain()
                status_line = await reader.readline()
                assert status_line.startswith(b"HTTP/1.1 200")
                length = None
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b""):
                        break
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":")[1])
                assert length is not None
                payload = await reader.readexactly(length)
                assert json.loads(payload)["bandwidth"] == "1/2"
            writer.close()
            await service.aclose()

        asyncio.run(main())

    def test_drain_closes_idle_keep_alive_connections(self):
        async def main():
            service = _service()
            await service.start("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            body = json.dumps(ANALYTIC).encode()
            writer.write(
                (
                    "POST /v1/beff HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                ).encode()
                + body
            )
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200")
            assert b"Connection: keep-alive" in head
            length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
            await reader.readexactly(length)
            # The client now sits idle between requests: the drain must
            # neither wait on it nor leave its socket open.
            await asyncio.wait_for(service.aclose(), 5)
            assert await asyncio.wait_for(reader.read(), 5) == b""
            writer.close()

        asyncio.run(main())

    def test_bad_request_line_closes_with_400(self):
        async def main():
            service = _service()
            await service.start("127.0.0.1", 0)
            raw = await self._request(
                "127.0.0.1", service.port, b"garbage\r\n\r\n"
            )
            assert raw.startswith(b"HTTP/1.1 400")
            await service.aclose()

        asyncio.run(main())

    def test_metrics_registry_isolated_per_service(self):
        async def main():
            service = _service()
            await service.start("127.0.0.1", 0)
            assert isinstance(service.registry, MetricsRegistry)
            await self._request(
                "127.0.0.1",
                service.port,
                self._http("POST", "/v1/beff", ANALYTIC),
            )
            text = (
                await self._request(
                    "127.0.0.1", service.port, self._http("GET", "/metrics")
                )
            ).decode()
            assert 'serve_http_requests{endpoint="/v1/beff"' in text
            assert "serve_http_latency_us" in text
            await service.aclose()

        asyncio.run(main())

    def test_nothing_is_served_until_the_precompute_is_done(self):
        # A drain run_many must never overlap the precompute's on the one
        # executor, so the listener accepts no connection before it ends.
        from repro.serve.app import _amain

        async def answers(port):
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
            except ConnectionRefusedError:
                return False
            writer.write(self._http("GET", "/healthz"))
            await writer.drain()
            try:
                return bool(await asyncio.wait_for(reader.read(), 0.5))
            except asyncio.TimeoutError:
                return False
            finally:
                writer.close()

        async def main():
            service = _service()
            held, release, ready = (asyncio.Event() for _ in range(3))

            async def precompute(svc):
                held.set()
                await release.wait()
                await asyncio.get_running_loop().run_in_executor(
                    None, svc.executor.run_many, [job_from_payload(UNDECIDED)]
                )

            def announce(line):
                if line.startswith("serving on"):
                    ready.set()

            task = asyncio.create_task(
                _amain(service, "127.0.0.1", 0, announce, precompute)
            )
            try:
                await asyncio.wait_for(held.wait(), 10)
                assert not await answers(service.port)
                release.set()
                await asyncio.wait_for(ready.wait(), 30)
                raw = await self._request(
                    "127.0.0.1", service.port,
                    self._http("POST", "/v1/beff", UNDECIDED),
                )
                assert json.loads(raw.partition(b"\r\n\r\n")[2])["tier"] == "memo"
                assert service.executor.stats.executed == 1
            finally:
                task.cancel()
                await asyncio.gather(task, return_exceptions=True)
                await service.aclose()

        asyncio.run(main())
