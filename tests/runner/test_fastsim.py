"""The one-frame pair functions and which pair shapes run on them.

Two-stream jobs under fixed rules or one shared ``cyclic`` /
``block-cyclic:N`` rule never reach the generic per-clock step; LRU
rules and split rules still do.  Each check patches
``FlatSim._step_generic`` to raise, so a shape that falls back to it
fails loudly instead of running slowly.  The pair detector must also
give up exactly where the reference does, and detect from a mid-run
engine state exactly as the generic walkers do.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest

from repro.runner import SimJob, run
from repro.runner import fastsim
from repro.runner.fastsim import FlatSim

from ..property.paths import attempt, engine_at


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


#: One fixed, one cyclic and one block-cyclic pair on each placement:
#: two CPUs, one sectioned CPU, and one CPU with consecutive sections.
BOUNDARY = [
    _job(priority, cpus, sections, mapping)
    for priority in ("fixed", "cyclic", "block-cyclic:3")
    for cpus, sections, mapping in (
        ((0, 1), None, "cyclic"),
        ((0, 0), 3, "cyclic"),
        ((0, 0), 3, "consecutive"),
    )
]


@pytest.mark.parametrize("job", BOUNDARY, ids=_id)
def test_pair_detector_gives_up_where_the_reference_does(job):
    cycles = run(job, backend="reference").cycles
    for bound in (cycles - 1, cycles):
        bounded = replace(job, max_cycles=bound)
        want = attempt(run, bounded, backend="reference")
        assert isinstance(want, str) == (bound < cycles)
        assert attempt(run, bounded, backend="fast") == want


def test_phase_one_budget_exit(monkeypatch):
    """Fig. 8(a) (mu 4, lam 16) under a bound of 3: phase 1's budget of
    13 steps runs out before any anchor recurs, so phase 2 (whose lead
    starts with a span) never runs."""
    job = SimJob(
        banks=12, bank_cycle=3, sections=3, streams=((0, 1), (1, 1)),
        cpus=(0, 0), max_cycles=3,
    )

    def no_phase_two(*args):
        raise AssertionError("phase 2 ran")

    monkeypatch.setattr(fastsim, "run_pair_span", no_phase_two)
    with pytest.raises(RuntimeError, match="within 3 cycles"):
        run(job, backend="fast")


@pytest.mark.parametrize("clocks", [7, 11])
@pytest.mark.parametrize("priority", ["fixed", "cyclic", "block-cyclic:3"])
@pytest.mark.parametrize("cpus, sections", [((0, 1), None), ((0, 0), 3)])
def test_mid_run_detection_matches_the_generic_walkers(
    priority, cpus, sections, clocks, monkeypatch
):
    """An engine stepped 7 or 11 clocks (no whole number of turns of
    any rule here) with banks still busy hands its state and rule phase
    to the pair detector; walkers that step clock by clock from the
    same state must find the same mu, lam and grants."""
    job = replace(_job(priority, cpus, sections), streams=((0, 2), (1, 3)))
    engines = [engine_at(job), engine_at(job)]
    for engine in engines:
        engine.run(clocks)
        assert any(engine.banks.snapshot())
    real = fastsim.find_steady_cycle
    found = []

    def detect(make, max_cycles):
        found.append(real(make, max_cycles))
        return found[-1]

    def generic(make, max_cycles):
        def walker():
            sim = make()
            sim.rotation = None
            return sim

        return detect(walker, max_cycles)

    def no_pair_detector(*args):
        raise AssertionError("the pair detector ran")

    monkeypatch.setattr(fastsim, "find_steady_cycle", detect)
    monkeypatch.setattr(FlatSim, "_step_generic", _refuse)
    fused = engines[0].run_to_steady_state()
    monkeypatch.undo()
    monkeypatch.setattr(fastsim, "find_steady_cycle", generic)
    monkeypatch.setattr(fastsim, "find_pair_cycle", no_pair_detector)
    assert engines[1].run_to_steady_state() == fused
    assert found[0] == found[1]
