"""Scheduler equivalence: inline and pool execution, with and without
a result store, answer exactly as the reference engine does, cold, from
the memo and from the store, with consistent stats (``paths.
check_executor``), and surface injected failures identically
(docs/RUNNER.md "Scheduling")."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.memory.config import MemoryConfig
from repro.runner import (
    FailedOutcome,
    RetryPolicy,
    SweepExecutor,
    SweepFailureError,
    jobs_for_offsets,
)
from repro.runner import backends as backends_mod
from repro.runner.backends import FastBackend

from .paths import CORPUS, PLACEMENTS, answer, check_executor, placed
from .paths import populations

CFG = MemoryConfig(banks=12, bank_cycle=3)

#: A retry policy that never sleeps (tests should not wait on backoff).
FAST = RetryPolicy(max_retries=2, backoff_base_ms=0)


def _install_backend(monkeypatch, backend):
    monkeypatch.setitem(backends_mod._INSTANCES, backend.name, backend)


class PoisonBackend(FastBackend):
    """Raises whenever one of the poisoned jobs is in the batch."""

    name = "equiv-poison"

    def __init__(self, poison_keys):
        super().__init__()
        self.poison_keys = set(poison_keys)

    def run_batch(self, jobs):
        for job in jobs:
            if job.cache_key() in self.poison_keys:
                raise RuntimeError("poisoned job in batch")
        return super().run_batch(jobs)


@pytest.mark.parametrize("backend", ["fast", "auto", "batch"])
@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
def test_bit_identical_outcomes(backend, placement):
    check_executor(CORPUS, backend, placement)


@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
@given(population=populations())
@settings(max_examples=2, deadline=None)
def test_stats_invariants(placement, population):
    check_executor(population, "auto", placement)


@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
def test_failed_outcomes_surface_identically(
    monkeypatch, placement, tmp_path
):
    jobs = jobs_for_offsets(CFG, 1, 7, range(12))
    poison_keys = sorted({j.cache_key() for j in jobs})[:2]
    _install_backend(monkeypatch, PoisonBackend(poison_keys))

    baseline_ex = SweepExecutor(backend="equiv-poison", retry=FAST)
    baseline = [answer(o) for o in baseline_ex.run_many(jobs)]

    ex = SweepExecutor(
        backend="equiv-poison", retry=FAST, **placed(placement, tmp_path)
    )
    outs = ex.run_many(jobs)
    assert [answer(o) for o in outs] == baseline
    for out, job in zip(outs, jobs):
        if job.cache_key() in poison_keys:
            assert isinstance(out, FailedOutcome)
            assert out.job == job
            assert out.attempts == FAST.max_retries + 1
            assert "poisoned job in batch" in out.error
        else:
            assert not out.failed
    assert ex.stats.failures == baseline_ex.stats.failures == len(
        poison_keys
    )
    assert ex.stats.retries > 0


@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
def test_strict_failures_are_listed_in_batch_order(
    monkeypatch, placement, tmp_path
):
    # Pooled chunks give up in completion order; the error lists them
    # in batch order regardless, so its message is stable.
    jobs = jobs_for_offsets(CFG, 1, 7, range(12))
    keys = list(dict.fromkeys(j.cache_key() for j in jobs))
    # The sorted extremes sit in different pool chunks and are isolated
    # at the same bisection depth, so under a pool they race.
    poisoned = {min(keys), max(keys)}
    poison_keys = [k for k in keys if k in poisoned]
    _install_backend(monkeypatch, PoisonBackend(poison_keys))
    strict = RetryPolicy(max_retries=2, backoff_base_ms=0, strict=True)
    for run in range(1 if placement == "inline" else 3):
        ex = SweepExecutor(
            backend="equiv-poison", retry=strict,
            **placed(placement, tmp_path / str(run)),
        )
        with pytest.raises(SweepFailureError) as info:
            ex.run_many(jobs)
        failures = info.value.failures
        assert [f.job.cache_key() for f in failures] == poison_keys
