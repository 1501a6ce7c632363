"""Scheduler equivalence: inline and pool execution, with and without
a result store, are bit-identical over the same job population —
payloads, failure surfacing, and stats invariants alike (docs/RUNNER.md
"Scheduling")."""

from __future__ import annotations

import pytest

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

CFG = MemoryConfig(banks=12, bank_cycle=3)

#: A retry policy that never sleeps (tests should not wait on backoff).
FAST = RetryPolicy(max_retries=2, backoff_base_ms=0)

#: SweepExecutor placement kwargs per configuration under test, given
#: a fresh per-test directory (the store-backed pool publishes there).
PLACEMENTS = {
    "inline": lambda tmp: {"workers": 1},
    "pool-2": lambda tmp: {"workers": 2},
    "pool-3": lambda tmp: {"workers": 3},
    "pool-2-store": lambda tmp: {"workers": 2, "store_path": tmp / "store"},
}


def _mixed_jobs():
    """A population spanning the execution tiers: theorem-decided
    pairs (analytic under ``auto``), conflict pairs (simulated), and
    enough starts that pooled runs actually chunk."""
    jobs = []
    for d1, d2 in [(1, 7), (2, 6), (1, 1), (3, 4), (4, 8)]:
        jobs.extend(jobs_for_offsets(CFG, d1, d2, range(8)))
    return jobs


def _outcome_fingerprint(outcomes):
    out = []
    for o in outcomes:
        if getattr(o, "failed", False):
            out.append(("failed", o.job.cache_key(), o.error, o.attempts))
        else:
            out.append(o.to_payload())
    return out


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
def test_bit_identical_outcomes(backend, placement, tmp_path):
    jobs = _mixed_jobs()
    baseline = SweepExecutor(backend=backend).run_many(jobs)
    ex = SweepExecutor(backend=backend, **PLACEMENTS[placement](tmp_path))
    outs = ex.run_many(jobs)
    assert _outcome_fingerprint(outs) == _outcome_fingerprint(baseline)


@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
def test_stats_invariants(placement, tmp_path):
    jobs = _mixed_jobs()
    unique = len({j.cache_key() for j in jobs})
    ex = SweepExecutor(backend="fast", **PLACEMENTS[placement](tmp_path))
    ex.run_many(jobs)
    s = ex.stats
    assert s.submitted == len(jobs)
    assert s.hits + s.deduped + s.executed == s.submitted
    assert s.executed == unique
    assert s.failures == 0
    # A second pass is all hits, on every scheduler.
    ex.run_many(jobs)
    assert ex.stats.executed == unique
    assert ex.stats.hits == 2 * len(jobs) - unique - ex.stats.deduped


@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
def test_failed_outcomes_surface_identically(
    monkeypatch, placement, tmp_path
):
    jobs = jobs_for_offsets(CFG, 1, 7, range(12))
    poison_keys = sorted({j.cache_key() for j in jobs})[:2]
    _install_backend(monkeypatch, PoisonBackend(poison_keys))

    baseline_ex = SweepExecutor(backend="equiv-poison", retry=FAST)
    baseline = _outcome_fingerprint(baseline_ex.run_many(jobs))

    ex = SweepExecutor(
        backend="equiv-poison", retry=FAST, **PLACEMENTS[placement](tmp_path)
    )
    outs = ex.run_many(jobs)
    assert _outcome_fingerprint(outs) == baseline
    for out, job in zip(outs, jobs):
        if job.cache_key() in poison_keys:
            assert isinstance(out, FailedOutcome)
            assert out.job == job
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
            **PLACEMENTS[placement](tmp_path / str(run)),
        )
        with pytest.raises(SweepFailureError) as info:
            ex.run_many(jobs)
        failures = info.value.failures
        assert [f.job.cache_key() for f in failures] == poison_keys
