"""Which pair shapes ``FlatSim`` runs on its fused two-port loops.

Two-stream jobs under fixed rules or one shared ``cyclic`` /
``block-cyclic:N`` rule never reach the generic per-clock step; LRU
rules and split rules still do.  Each check patches
``FlatSim._step_generic`` to raise, so a shape that falls back to it
fails loudly instead of running slowly.
"""

from __future__ import annotations

import itertools

import pytest

from repro.runner import SimJob, run
from repro.runner.fastsim import FlatSim


class GenericStep(Exception):
    """Raised by the patched generic step."""


def _refuse(self: FlatSim) -> None:
    raise GenericStep


@pytest.fixture
def no_generic_step(monkeypatch):
    monkeypatch.setattr(FlatSim, "_step_generic", _refuse)


def _job(priority, cpus, sections, mapping="cyclic", intra=None, cycles=None):
    return SimJob(
        banks=12,
        bank_cycle=3,
        sections=sections,
        section_mapping=mapping,
        streams=((0, 1), (1, 5)),
        cpus=cpus,
        priority=priority,
        intra_priority=intra,
        steady=cycles is None,
        cycles=cycles,
    )


def _id(job: SimJob) -> str:
    rules = job.priority + (f"/{job.intra_priority}" if job.intra_priority else "")
    placement = "same-cpu" if job.cpus[0] == job.cpus[1] else "two-cpu"
    memory = f"s{job.sections}-{job.section_mapping}" if job.sections else "s1"
    mode = "steady" if job.steady else f"span{job.cycles}"
    return f"{rules}-{placement}-{memory}-{mode}"


FUSED = [
    _job(priority, cpus, sections, mapping, cycles=cycles)
    for priority, cpus, (sections, mapping), cycles in itertools.product(
        ("fixed", "cyclic", "block-cyclic:2", "block-cyclic:3"),
        ((0, 0), (0, 1)),
        ((None, "cyclic"), (3, "cyclic"), (3, "consecutive")),
        (None, 97),
    )
]


@pytest.mark.parametrize("job", FUSED, ids=_id)
def test_fused_pairs_never_step_generically(job, monkeypatch):
    want = run(job, backend="reference").to_payload()
    monkeypatch.setattr(FlatSim, "_step_generic", _refuse)
    for backend in ("fast", "reference") if job.steady else ("fast",):
        got = run(job, backend=backend).to_payload()
        assert got == {**want, "backend": backend}


@pytest.mark.parametrize(
    "job",
    [
        _job("lru", (0, 1), None),
        _job("cyclic", (0, 0), 3, intra="fixed"),
        _job("cyclic", (0, 1), None, intra="fixed", cycles=40),
    ],
    ids=_id,
)
def test_lru_and_split_rules_step_generically(job, no_generic_step):
    with pytest.raises(GenericStep):
        run(job, backend="fast")


def test_fused_loops_leave_the_rule_in_phase():
    """After a fused span the rule's snapshot is the phase that the
    generic step would have reached, so a later generic step (or an
    anchor ``key()``) sees the right state."""
    job = _job("block-cyclic:3", (0, 1), None, cycles=11)
    fused = FlatSim.from_job(job)
    fused.run_span(11)
    stepped = FlatSim.from_job(job)
    for _ in range(11):
        stepped._step_generic()
    assert fused.key() == stepped.key()
    assert fused.grants == stepped.grants
    fused._step_generic()
    stepped._step_generic()
    assert fused.key() == stepped.key()
