"""The instrumentation contract: emitted names == declared == documented."""

from __future__ import annotations

import pathlib

from repro.memory.config import MemoryConfig
from repro.obs import (
    METRIC_CONTRACT,
    SPAN_CONTRACT,
    Histogram,
    active_metrics,
    active_trace,
    capture_metrics,
    capture_spans,
    metric_names,
    span_names,
)
from repro.obs import names as obs_names
from repro.runner import SimJob, SweepExecutor, jobs_for_offsets

DOCS = pathlib.Path(__file__).resolve().parents[2] / "docs"
CFG = MemoryConfig(banks=12, bank_cycle=3)


def _jobs() -> list[SimJob]:
    return jobs_for_offsets(CFG, 1, 7, range(12))


class TestContractDeclaration:
    def test_constants_match_contract_rows(self):
        assert metric_names() == {spec.name for spec in METRIC_CONTRACT}
        assert span_names() == {spec.name for spec in SPAN_CONTRACT}

    def test_contracts_are_sorted_and_unique(self):
        names = [spec.name for spec in METRIC_CONTRACT]
        assert names == sorted(set(names))
        snames = [spec.name for spec in SPAN_CONTRACT]
        assert snames == sorted(set(snames))

    def test_every_metric_name_documented(self):
        doc = (DOCS / "OBSERVABILITY.md").read_text()
        for spec in METRIC_CONTRACT:
            assert f"`{spec.name}`" in doc, f"{spec.name} not documented"

    def test_every_span_name_documented(self):
        doc = (DOCS / "OBSERVABILITY.md").read_text()
        for spec in SPAN_CONTRACT:
            assert f"`{spec.name}`" in doc, f"{spec.name} not documented"

    def test_documented_label_keys_match_contract(self):
        doc = (DOCS / "OBSERVABILITY.md").read_text()
        for spec in METRIC_CONTRACT + SPAN_CONTRACT:
            for label in spec.labels:
                assert f"`{label}`" in doc, (
                    f"label {label!r} of {spec.name} not documented"
                )


class TestEmittedNames:
    def test_instrumented_sweep_emits_only_contract_names(self):
        ex = SweepExecutor(backend="auto", max_memo=5)
        with capture_metrics() as reg, capture_spans() as rec:
            ex.run_many(_jobs())
            ex.run_many(_jobs())  # memo hits
        emitted = {m.name for m in reg.collect()}
        assert emitted, "instrumented sweep recorded nothing"
        assert emitted <= metric_names(), emitted - metric_names()
        spans_seen = {s.name for s in rec.finished()}
        assert spans_seen
        assert spans_seen <= span_names(), spans_seen - span_names()

    def test_reference_backend_emits_engine_counters(self):
        ex = SweepExecutor(backend="reference")
        with capture_metrics() as reg:
            ex.run_one(SimJob.from_specs(CFG, [(0, 1), (5, 7)]))
        jobs = reg.get(obs_names.ENGINE_JOBS)
        clocks = reg.get(obs_names.ENGINE_CLOCKS)
        detections = reg.get(obs_names.ENGINE_STEADY_DETECTIONS)
        assert jobs is not None and jobs.value == 1
        assert clocks is not None and clocks.value > 0
        assert detections is not None and detections.value == 1
        assert {m.name for m in reg.collect()} <= metric_names()


class TestExecutorCounters:
    def test_deltas_and_cache_hits(self):
        ex = SweepExecutor(backend="auto")
        ex.run_many(_jobs())  # warm up before metrics are enabled
        pre = ex.stats.as_dict()
        with capture_metrics() as reg:
            ex.run_many(_jobs())  # all memo hits
        post = ex.stats.as_dict()
        hits = reg.get(obs_names.EXECUTOR_MEMO_HITS)
        assert hits is not None
        # only the delta since enablement is published
        assert hits.value == post["hits"] - pre["hits"] == 12
        assert reg.get(obs_names.EXECUTOR_EXECUTED) is None  # zero delta
        submitted = reg.get(obs_names.EXECUTOR_SUBMITTED)
        assert submitted is not None and submitted.value == 12
        size = reg.get(obs_names.EXECUTOR_MEMO_SIZE)
        assert size is not None and size.value == len(ex)

    def test_eviction_counter(self):
        with capture_metrics() as reg:
            ex = SweepExecutor(backend="auto", max_memo=3)
            ex.run_many(_jobs())
        ev = reg.get(obs_names.EXECUTOR_MEMO_EVICTIONS)
        assert ev is not None
        assert ev.value == ex.stats.evictions > 0

    def test_chunk_histogram_on_inline_path(self):
        with capture_metrics() as reg:
            ex = SweepExecutor(backend="auto")
            ex.run_many(_jobs())
        hist = reg.get(obs_names.EXECUTOR_CHUNK_JOBS)
        assert isinstance(hist, Histogram)
        assert hist.count == 1  # one inline chunk
        assert hist.sum == ex.stats.executed


class TestTierDispatch:
    def test_auto_dispatch_split(self):
        with capture_metrics() as reg:
            ex = SweepExecutor(backend="auto")
            ex.run_many(_jobs())
        analytic = reg.get(obs_names.AUTO_DISPATCH, tier="analytic")
        fastsim = reg.get(obs_names.AUTO_DISPATCH, tier="fastsim")
        total = (analytic.value if analytic else 0) + (
            fastsim.value if fastsim else 0
        )
        assert total == ex.stats.executed
        # fastsim fallbacks show up in the steady-cycle histograms
        if fastsim is not None:
            mu = reg.get(obs_names.FASTSIM_STEADY_MU)
            lam = reg.get(obs_names.FASTSIM_STEADY_LAM)
            assert isinstance(mu, Histogram) and mu.count == fastsim.value
            assert isinstance(lam, Histogram) and lam.count == fastsim.value

    def test_analytic_decided_theorem_labels(self):
        with capture_metrics() as reg:
            ex = SweepExecutor(backend="auto")
            # single stream: Theorem 1 territory
            ex.run_one(SimJob.from_specs(CFG, [(0, 1)]))
        decided = reg.get(obs_names.ANALYTIC_DECIDED, theorem="t1-single")
        assert decided is not None and decided.value == 1


class TestNoopDefault:
    def test_disabled_run_records_nothing_and_matches(self):
        assert active_metrics() is None
        assert active_trace() is None
        ex = SweepExecutor(backend="auto")
        plain = ex.run_many(_jobs())
        with capture_metrics():
            instrumented = SweepExecutor(backend="auto").run_many(_jobs())
        # instrumentation cannot perturb the exact results
        assert [o.bandwidth for o in plain] == [
            o.bandwidth for o in instrumented
        ]
        assert [o.grants for o in plain] == [o.grants for o in instrumented]

    def test_registry_untouched_outside_capture(self):
        with capture_metrics() as reg:
            pass  # nothing ran while enabled
        before = reg.snapshot()
        SweepExecutor(backend="auto").run_many(_jobs())
        assert reg.snapshot() == before


class TestArbiterMetrics:
    def test_policy_jobs_counted_on_the_fast_path(self):
        from repro.runner import run

        job = SimJob.from_specs(
            CFG, [(0, 1), (0, 1)], cpus=(0, 1), regulate=["stream:0=1/4"]
        )
        with capture_metrics() as reg:
            run(job, backend="fast")
        counted = reg.get(obs_names.ARBITER_POLICY_JOBS, kind="regulated")
        assert counted is not None and counted.value == 1

    def test_reference_engine_counts_regulator_vetoes(self):
        from repro.runner import run

        job = SimJob.from_specs(
            CFG, [(0, 1), (0, 1)], cpus=(0, 1), regulate=["stream=1/4"]
        )
        with capture_metrics() as reg:
            run(job, backend="reference")
        vetoes = reg.get(obs_names.ARBITER_VETOES)
        assert vetoes is not None and vetoes.value > 0
