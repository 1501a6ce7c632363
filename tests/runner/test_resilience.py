"""Fault-tolerant sweep execution: retry, bisection, pool recovery,
the crash-safe result store.  Companion to docs/RUNNER.md "Failure
semantics"."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import warnings
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.memory.config import MemoryConfig
from repro.obs import capture_metrics, metric_names
from repro.obs import names as obs_names
from repro.runner import (
    FailedJobError,
    FailedOutcome,
    ResultStore,
    RetryPolicy,
    SweepExecutor,
    SweepFailureError,
    jobs_for_offsets,
)
from repro.runner import backends as backends_mod
from repro.runner import executor as executor_mod
from repro.runner.backends import FastBackend
from repro.runner.resilience import (
    CHAOS_HANG_MS_ENV,
    CHAOS_HANG_ONCE_DIR_ENV,
    CHAOS_ONCE_DIR_ENV,
    CHAOS_RATE_ENV,
)

CFG = MemoryConfig(banks=12, bank_cycle=3)

#: A retry policy that never sleeps (tests should not wait on backoff).
FAST = RetryPolicy(max_retries=2, backoff_base_ms=0)


def _jobs():
    return jobs_for_offsets(CFG, 1, 7, range(12))


def _clean_outcomes():
    return SweepExecutor(backend="fast").run_many(_jobs())


def _install_backend(monkeypatch, backend):
    """Register an ad-hoc backend instance under its ``name``."""
    monkeypatch.setitem(backends_mod._INSTANCES, backend.name, backend)


class FlakyBackend(FastBackend):
    """Raises on the first ``fail_first`` run_batch calls, then works."""

    name = "flaky"

    def __init__(self, fail_first: int = 2) -> None:
        super().__init__()
        self.fail_first = fail_first
        self.calls = 0

    def run_batch(self, jobs):
        self.calls += 1
        if self.calls <= self.fail_first:
            raise RuntimeError("transient worker failure")
        return super().run_batch(jobs)


class PoisonBackend(FastBackend):
    """Raises whenever a specific poisoned job is in the batch."""

    name = "poison"

    def __init__(self, poison_key: str) -> None:
        super().__init__()
        self.poison_key = poison_key
        self.armed = True

    def run_batch(self, jobs):
        if self.armed and any(
            j.cache_key() == self.poison_key for j in jobs
        ):
            raise RuntimeError("poisoned job")
        return super().run_batch(jobs)


# ----------------------------------------------------------------------
# Policy object
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_schedule_is_deterministic_doubling(self):
        p = RetryPolicy(max_retries=4, backoff_base_ms=10)
        assert p.schedule_ms() == (10, 20, 40, 80)
        assert p.backoff_ms(1) == 10
        assert p.backoff_ms(3) == 40

    def test_zero_base_disables_waiting(self):
        assert RetryPolicy(backoff_base_ms=0).schedule_ms() == (0, 0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"backoff_base_ms": -1},
            {"chunk_timeout": 0},
            {"chunk_timeout": -1.0},
            {"degrade_after": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_attempts_count_from_one(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff_ms(0)


class TestFailedOutcome:
    def test_numeric_access_raises(self):
        out = FailedOutcome(job=_jobs()[0], error="boom", attempts=3)
        assert out.failed is True
        for prop in (
            "bandwidth", "period", "grants", "steady_start", "cycles",
            "result", "bandwidth_float", "full_rate_streams",
            "conflict_free", "pair_regime",
        ):
            with pytest.raises(FailedJobError, match="boom"):
                getattr(out, prop)

    def test_real_outcomes_report_not_failed(self):
        out = SweepExecutor(backend="fast").run_one(_jobs()[0])
        assert out.failed is False

    def test_describe_mentions_error_and_attempts(self):
        out = FailedOutcome(job=_jobs()[0], error="boom", attempts=3)
        assert "boom" in out.describe()
        assert "3 attempt(s)" in out.describe()


# ----------------------------------------------------------------------
# Inline recovery (workers=1)
# ----------------------------------------------------------------------
class TestInlineRecovery:
    def test_transient_failure_retried_to_success(self, monkeypatch):
        _install_backend(monkeypatch, FlakyBackend(fail_first=2))
        ex = SweepExecutor(backend="flaky", retry=FAST)
        outs = ex.run_many(_jobs())
        clean = _clean_outcomes()
        assert [o.bandwidth for o in outs] == [o.bandwidth for o in clean]
        assert ex.stats.retries == 2
        assert ex.stats.failures == 0
        assert ex.stats.recovered == ex.stats.executed

    def test_without_policy_first_error_propagates(self, monkeypatch):
        _install_backend(monkeypatch, FlakyBackend(fail_first=1))
        ex = SweepExecutor(backend="flaky")
        with pytest.raises(RuntimeError, match="transient"):
            ex.run_many(_jobs())

    def test_bisection_isolates_the_poisoned_job(self, monkeypatch):
        jobs = _jobs()
        # The representative actually dispatched for each canonical key.
        fresh: dict[str, object] = {}
        for job in jobs:
            fresh.setdefault(job.cache_key(), job)
        poison_key = sorted(fresh)[len(fresh) // 2]
        _install_backend(monkeypatch, PoisonBackend(poison_key))
        ex = SweepExecutor(backend="poison", retry=FAST)
        outs = ex.run_many(jobs)
        clean = _clean_outcomes()
        assert ex.stats.failures == 1
        assert ex.stats.retries == 18
        assert ex.stats.recovered == 11
        for out, ref, job in zip(outs, clean, jobs):
            if job.cache_key() == poison_key:
                assert out.failed is True
                assert out.job is job
                assert out.attempts == 3
                with pytest.raises(FailedJobError):
                    out.bandwidth
            else:
                assert out.failed is False
                assert out.bandwidth == ref.bandwidth
                assert out.grants == ref.grants

    def test_failed_jobs_are_not_memoized(self, monkeypatch):
        job = _jobs()[0]
        backend = PoisonBackend(job.cache_key())
        _install_backend(monkeypatch, backend)
        ex = SweepExecutor(backend="poison", retry=FAST)
        assert ex.run_one(job).failed is True
        executed = ex.stats.executed
        backend.armed = False  # the poison clears: a re-run must re-try
        out = ex.run_one(job)
        assert out.failed is False
        assert ex.stats.executed == executed + 1

    def test_strict_policy_raises_and_persists_survivors(
        self, monkeypatch, tmp_path
    ):
        jobs = _jobs()
        fresh: dict[str, object] = {}
        for job in jobs:
            fresh.setdefault(job.cache_key(), job)
        poison_key = sorted(fresh)[0]
        _install_backend(monkeypatch, PoisonBackend(poison_key))
        path = tmp_path / "store"
        ex = SweepExecutor(
            backend="poison", store_path=path,
            retry=RetryPolicy(max_retries=1, backoff_base_ms=0, strict=True),
        )
        with pytest.raises(SweepFailureError) as info:
            ex.run_many(jobs)
        assert len(info.value.failures) == 1
        assert info.value.failures[0].job.cache_key() == poison_key
        # The healthy work of the batch reached the store.
        assert set(ResultStore(path).keys()) == set(fresh) - {poison_key}


# ----------------------------------------------------------------------
# Process-pool recovery (workers > 1, chaos-injected crashes)
# ----------------------------------------------------------------------
class TestPoolRecovery:
    def test_worker_crash_recovers_bit_identical(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(CHAOS_ONCE_DIR_ENV, str(tmp_path / "once"))
        (tmp_path / "once").mkdir()
        ex = SweepExecutor(backend="fast", workers=2, retry=FAST)
        outs = ex.run_many(_jobs())
        clean = _clean_outcomes()
        assert [o.bandwidth for o in outs] == [o.bandwidth for o in clean]
        assert [o.grants for o in outs] == [o.grants for o in clean]
        assert ex.stats.failures == 0
        assert ex.stats.retries > 0
        assert ex.stats.recovered > 0

    def test_worker_crash_over_store_recovers_bit_identical(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(CHAOS_ONCE_DIR_ENV, str(tmp_path / "once"))
        (tmp_path / "once").mkdir()
        ex = SweepExecutor(
            backend="fast", workers=2, retry=FAST,
            store_path=tmp_path / "store",
        )
        outs = ex.run_many(_jobs())
        clean = _clean_outcomes()
        assert [o.to_payload() for o in outs] == [
            o.to_payload() for o in clean
        ]
        assert ex.stats.failures == 0
        assert ex.stats.retries > 0
        # Every unique key reached the store, recovered chunks included.
        store = ResultStore(tmp_path / "store")
        assert set(store.keys()) == {j.cache_key() for j in _jobs()}

    def test_persistent_crashes_degrade_to_inline(self, monkeypatch):
        monkeypatch.setenv(CHAOS_RATE_ENV, "1.0")
        ex = SweepExecutor(
            backend="fast", workers=2,
            retry=RetryPolicy(
                max_retries=1, backoff_base_ms=0, degrade_after=1
            ),
        )
        outs = ex.run_many(_jobs())
        clean = _clean_outcomes()
        assert [o.bandwidth for o in outs] == [o.bandwidth for o in clean]
        assert ex.stats.failures == 0
        # Two pool rounds fail whole (2 chunks, then 2 retries), the
        # second bisecting each chunk; the four halves then run inline
        # once each, every one a re-dispatch.
        assert ex.stats.retries == 6
        assert ex.stats.recovered == 12

    def test_degraded_chunks_retry_with_a_fresh_budget(self, monkeypatch):
        monkeypatch.setenv(CHAOS_RATE_ENV, "1.0")
        keys = sorted({j.cache_key() for j in _jobs()})
        poison_key = keys[len(keys) // 2]
        _install_backend(monkeypatch, PoisonBackend(poison_key))
        ex = SweepExecutor(
            backend="poison", workers=2,
            retry=RetryPolicy(
                max_retries=1, backoff_base_ms=0, degrade_after=1
            ),
        )
        outs = ex.run_many(_jobs())
        clean = _clean_outcomes()
        assert ex.stats.retries == 13
        assert ex.stats.failures == 1
        assert ex.stats.recovered == 11
        for out, ref in zip(outs, clean):
            if out.job.cache_key() == poison_key:
                # Inline, the poisoned job is dispatched once and retried
                # once after the pool gave up on it.
                assert out.failed is True
                assert out.attempts == 2
                assert out.error == "RuntimeError: poisoned job"
            else:
                assert out.bandwidth == ref.bandwidth

    def test_without_policy_a_job_error_propagates(self, monkeypatch):
        keys = sorted({j.cache_key() for j in _jobs()})
        _install_backend(monkeypatch, PoisonBackend(keys[len(keys) // 2]))
        with pytest.raises(RuntimeError, match="^poisoned job$"):
            SweepExecutor(backend="poison", workers=2).run_many(_jobs())
        outs = SweepExecutor(backend="fast", workers=2).run_many(_jobs())
        assert [o.to_payload() for o in outs] == [
            o.to_payload() for o in _clean_outcomes()
        ]

    def test_without_policy_a_worker_crash_propagates(self, monkeypatch):
        monkeypatch.setenv(CHAOS_RATE_ENV, "1.0")
        with pytest.raises(BrokenProcessPool):
            SweepExecutor(backend="fast", workers=2).run_many(_jobs())
        monkeypatch.delenv(CHAOS_RATE_ENV)
        outs = SweepExecutor(backend="fast", workers=2).run_many(_jobs())
        assert [o.to_payload() for o in outs] == [
            o.to_payload() for o in _clean_outcomes()
        ]

    def test_hung_chunk_times_out_and_recovers(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CHAOS_HANG_ONCE_DIR_ENV, str(tmp_path / "hang"))
        monkeypatch.setenv(CHAOS_HANG_MS_ENV, "30000")
        (tmp_path / "hang").mkdir()
        ex = SweepExecutor(
            backend="fast", workers=2,
            retry=RetryPolicy(
                max_retries=2, backoff_base_ms=0, chunk_timeout=0.25
            ),
        )
        outs = ex.run_many(_jobs())
        clean = _clean_outcomes()
        assert [o.bandwidth for o in outs] == [o.bandwidth for o in clean]
        assert ex.stats.failures == 0
        assert ex.stats.retries > 0

    def test_hung_workers_do_not_outlive_the_sweep(self, tmp_path):
        # A timed-out pool's workers are terminated, so the process
        # exits once the sweep is done instead of joining a worker that
        # is still hanging.
        (tmp_path / "hang").mkdir()
        script = textwrap.dedent(
            """
            import json
            from repro.memory.config import MemoryConfig
            from repro.runner import RetryPolicy, SweepExecutor, jobs_for_offsets

            cfg = MemoryConfig(banks=12, bank_cycle=3)
            ex = SweepExecutor(
                backend="fast", workers=2,
                retry=RetryPolicy(
                    max_retries=2, backoff_base_ms=0, chunk_timeout=0.25
                ),
            )
            outs = ex.run_many(jobs_for_offsets(cfg, 1, 7, range(12)))
            print(json.dumps([o.to_payload() for o in outs]))
            """
        )
        env = {
            **_subprocess_env(),
            CHAOS_HANG_ONCE_DIR_ENV: str(tmp_path / "hang"),
            CHAOS_HANG_MS_ENV: "30000",
        }
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=_REPO, env=env, capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 0, proc.stderr
        clean = json.dumps([o.to_payload() for o in _clean_outcomes()])
        assert proc.stdout.strip() == clean

    def test_chaos_never_fires_in_the_orchestrator(self, monkeypatch):
        # Inline execution with a 100% crash rate must be unaffected:
        # the hook only fires inside multiprocessing workers.
        monkeypatch.setenv(CHAOS_RATE_ENV, "1.0")
        ex = SweepExecutor(backend="fast")
        outs = ex.run_many(_jobs())
        assert len(outs) == len(_jobs())


# ----------------------------------------------------------------------
# Crash-safe result store (the executor's only on-disk level)
# ----------------------------------------------------------------------
def _subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), "src") if p
    )
    return env


_REPO = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


class TestCrashSafeCache:
    def _sweep_over_bad_entry(self, tmp_path, corrupt, match):
        """Fill a store, corrupt one entry, sweep again: the entry is
        quarantined and reads as a miss, so only its job re-runs."""
        jobs = _jobs()
        store = ResultStore(tmp_path / "store")
        SweepExecutor(backend="fast", store_path=store.root).run_many(jobs)
        path = store.path_for(jobs[0].cache_key())
        path.write_text(corrupt(path.read_text()))
        ex = SweepExecutor(backend="fast", store_path=store.root)
        with pytest.warns(RuntimeWarning, match=match):
            ex.run_many(jobs)
        assert ex.stats.executed == 1
        assert path.with_suffix(".json.corrupt").exists()
        return store

    def test_corrupt_json_quarantined(self, tmp_path):
        self._sweep_over_bad_entry(
            tmp_path, lambda text: "{not json at all", "unreadable"
        )

    def test_truncated_file_quarantined(self, tmp_path):
        self._sweep_over_bad_entry(
            tmp_path, lambda text: text[: len(text) // 2], "unreadable"
        )

    def test_non_object_entries_quarantined(self, tmp_path):
        self._sweep_over_bad_entry(
            tmp_path,
            lambda text: json.dumps({**json.loads(text), "payload": [1, 2]}),
            "malformed",
        )

    @staticmethod
    def _store_with_bad_payload(tmp_path, field="bandwidth", value="oops"):
        """A filled store whose entry for ``_jobs()[0]`` is a well-formed
        file with a payload the decoder rejects (``value=None`` drops
        ``field``)."""
        store = ResultStore(tmp_path / "store")
        SweepExecutor(backend="fast", store_path=store.root).run_many(_jobs())
        path = store.path_for(_jobs()[0].cache_key())
        data = json.loads(path.read_text())
        if value is None:
            del data["payload"][field]
        else:
            data["payload"][field] = value
        path.write_text(json.dumps(data))
        return store, path

    @pytest.mark.parametrize(
        "field, value",
        [
            ("bandwidth", "oops"),
            ("bandwidth", "1/0"),
            ("bandwidth", 0.75),
            ("grants", 3),
            ("grants", [5]),
            ("period", "x"),
            ("period", None),
        ],
        ids=[
            "not-a-ratio",
            "zero-denominator",
            "float",
            "grants-int",
            "grants-wrong-arity",
            "period-str",
            "missing",
        ],
    )
    def test_undecodable_payload_quarantined(self, tmp_path, field, value):
        # Such an entry used to make every rerun raise; now its job
        # re-runs exactly and the entry is rewritten.
        jobs = _jobs()
        store, path = self._store_with_bad_payload(tmp_path, field, value)
        clean = [o.to_payload() for o in _clean_outcomes()]
        ex = SweepExecutor(backend="fast", store_path=store.root)
        with pytest.warns(RuntimeWarning, match="undecodable"):
            outs = ex.run_many(jobs)
        assert ex.stats.executed == 1
        assert [o.job for o in outs] == jobs
        assert [o.to_payload() for o in outs] == clean
        assert path.with_suffix(".json.corrupt").exists()
        warm = SweepExecutor(backend="fast", store_path=store.root)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the rewrite is clean
            assert [o.to_payload() for o in warm.run_many(jobs)] == clean
        assert warm.stats.executed == 0

    def test_peek_quarantines_undecodable_payload(self, tmp_path):
        job = _jobs()[0]
        key = job.cache_key()
        store, path = self._store_with_bad_payload(tmp_path)
        ex = SweepExecutor(backend="fast", store_path=store.root)
        with pytest.warns(RuntimeWarning, match="undecodable"):
            assert ex.peek(job, key) is None
        assert len(ex) == 0  # never memoized
        assert path.with_suffix(".json.corrupt").exists()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ex.peek(job, key) is None  # now a plain miss

    def test_quarantine_then_rebuild_roundtrips(self, tmp_path):
        store = self._sweep_over_bad_entry(
            tmp_path, lambda text: "garbage", "unreadable"
        )
        warm = SweepExecutor(backend="fast", store_path=store.root)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the rewrite is clean
            warm.run_many(_jobs())
        assert warm.stats.executed == 0
        assert warm.stats.hits == len(_jobs())

    def test_evicted_entries_stay_in_the_store(self, tmp_path):
        jobs = _jobs()
        ex = SweepExecutor(
            backend="fast", store_path=tmp_path / "store", max_memo=2
        )
        first = ex.run_one(jobs[0])
        ex.run_many(jobs[1:])  # evicts jobs[0] from the tiny memo
        executed = ex.stats.executed
        with capture_metrics() as reg:
            out = ex.run_one(jobs[0])
        assert ex.stats.executed == executed
        assert reg.counter(obs_names.STORE_HITS).value == 1
        assert out.bandwidth == first.bandwidth

    def test_sibling_executors_share_one_store(self, tmp_path):
        jobs = _jobs()
        a = SweepExecutor(backend="fast", store_path=tmp_path / "store")
        b = SweepExecutor(backend="fast", store_path=tmp_path / "store")
        a.run_one(jobs[0])
        b.run_one(jobs[5])
        a.run_one(jobs[5])  # b's result
        b.run_one(jobs[0])  # a's result
        assert a.stats.executed == b.stats.executed == 1
        assert a.stats.hits == b.stats.hits == 1

    def test_kill_mid_sweep_loses_at_most_one_chunk(self, tmp_path):
        # A subprocess sweeps batch 1 (published to the store chunk by
        # chunk), then dies hard mid-batch-2 with no chance to clean
        # up.  The store must come back readable with batch 1.
        store = tmp_path / "store"
        script = textwrap.dedent(
            f"""
            import os
            from repro.memory.config import MemoryConfig
            from repro.runner import SweepExecutor, jobs_for_offsets
            from repro.runner import backends

            cfg = MemoryConfig(banks=12, bank_cycle=3)

            class DyingBackend(backends.FastBackend):
                name = "dying"
                def run_batch(self, jobs):
                    if any(j.streams[1][1] == 11 for j in jobs):
                        os._exit(9)  # simulated power cut, no cleanup
                    return super().run_batch(jobs)

            backends._INSTANCES["dying"] = DyingBackend()
            ex = SweepExecutor(backend="dying", store_path={str(store)!r})
            ex.run_many(jobs_for_offsets(cfg, 1, 7, range(12)))
            ex.run_many(jobs_for_offsets(cfg, 1, 11, range(12)))
            os._exit(7)  # unreachable: the batch above dies
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=_REPO, env=_subprocess_env(), timeout=120,
        )
        assert proc.returncode == 9
        warm = SweepExecutor(backend="fast", store_path=store)
        warm.run_many(jobs_for_offsets(CFG, 1, 7, range(12)))
        assert warm.stats.executed == 0  # batch 1 fully recovered
        assert warm.stats.hits == 12

    def test_killed_writer_never_tears_the_store(self, tmp_path):
        # A subprocess rewrites every entry of a store in a tight
        # put_many loop and is SIGKILLed while doing so.  Each write is
        # a *unique* temp file published via os.replace, so the kill
        # can land anywhere — mid-temp-write included — and every entry
        # must stay complete: no quarantine, and a stray temp file is
        # invisible to readers.
        import signal
        import time

        store = tmp_path / "store"
        script = textwrap.dedent(
            f"""
            from repro.memory.config import MemoryConfig
            from repro.runner import ResultStore, SweepExecutor, jobs_for_offsets

            cfg = MemoryConfig(banks=12, bank_cycle=3)
            ex = SweepExecutor(backend="fast", store_path={str(store)!r})
            for d1, d2 in [(1, 7), (2, 6), (3, 4), (1, 11)]:
                ex.run_many(jobs_for_offsets(cfg, d1, d2, range(12)))
            store = ResultStore({str(store)!r})
            payloads = dict(store.items())
            print(len(payloads), flush=True)
            while True:  # rewrite forever until killed
                store.put_many(payloads)
                print("W", flush=True)
            """
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            cwd=_REPO, env=_subprocess_env(), stdout=subprocess.PIPE,
        )
        try:
            assert proc.stdout is not None
            written = int(proc.stdout.readline())
            proc.stdout.read(8)  # several rewrites have happened
            time.sleep(0.05)  # land somewhere inside a later one
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == -signal.SIGKILL

        result_store = ResultStore(store)
        some_entry = next(iter(result_store.root.glob("??/*.json")))
        # What a kill mid-temp-write leaves behind, whether or not this
        # kill did.
        (some_entry.parent / f"{some_entry.name}torn.tmp").write_text("{")
        assert len(result_store) == written  # items() skips the temp
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any quarantine fails
            warm = SweepExecutor(backend="fast", store_path=store)
            warm.run_many(jobs_for_offsets(CFG, 1, 7, range(12)))
            warm.run_many(jobs_for_offsets(CFG, 1, 11, range(12)))
        assert warm.stats.executed == 0  # every entry survived the kill
        assert not list(result_store.root.rglob("*.corrupt"))


# ----------------------------------------------------------------------
# The executor's sharp-edge regressions
# ----------------------------------------------------------------------
class TestFalsyPayloadRegression:
    def test_empty_payload_resolves_from_its_source(self, monkeypatch):
        # `ran.get(key) or held.get(key) or memo[key]` used to fall
        # through on a falsy-but-present payload and KeyError on the
        # memo.  Membership checks must resolve {} from `ran`.
        job = _jobs()[0]
        seen: list[dict] = []

        class StubOutcome:
            @staticmethod
            def from_payload(job, payload):
                seen.append(payload)
                return payload

        ex = SweepExecutor(backend="fast", max_memo=1)
        monkeypatch.setattr(
            ex, "_execute",
            lambda fresh, backend: ({k: {} for k in fresh}, {}, {}),
        )
        monkeypatch.setattr(executor_mod, "SimOutcome", StubOutcome)
        outs = ex.run_many([job])
        assert outs == [{}]
        assert seen == [{}]


# ----------------------------------------------------------------------
# Instrumentation of the failure path
# ----------------------------------------------------------------------
class TestFailureMetrics:
    def test_flaky_run_emits_only_contract_names(self, monkeypatch):
        _install_backend(monkeypatch, FlakyBackend(fail_first=2))
        ex = SweepExecutor(backend="flaky", retry=FAST)
        with capture_metrics() as reg:
            ex.run_many(_jobs())
        emitted = {m.name for m in reg.collect()}
        assert emitted <= metric_names(), emitted - metric_names()
        retries = reg.get(obs_names.EXECUTOR_RETRIES)
        assert retries is not None and retries.value == ex.stats.retries
        recovered = reg.get(obs_names.EXECUTOR_RECOVERED)
        assert recovered is not None
        assert recovered.value == ex.stats.recovered

    def test_failure_counter(self, monkeypatch):
        job = _jobs()[0]
        _install_backend(monkeypatch, PoisonBackend(job.cache_key()))
        ex = SweepExecutor(backend="poison", retry=FAST)
        with capture_metrics() as reg:
            ex.run_one(job)
        failures = reg.get(obs_names.EXECUTOR_FAILURES)
        assert failures is not None and failures.value == 1
