"""The fast backend is a bit-exact replacement for the reference engine.

Randomized jobs — memory shape, sections (both mappings), stream count,
starts, strides, CPU placement, priority rules — run through both
backends; every component of the steady outcome must match exactly.
This is the cross-check that licenses using the fast path anywhere the
reference engine was used.

The reference backend takes its transient and period from the fast
engine's detector, so the two agreeing says nothing about "steady"
itself.  ``TestFirstRepeatOracle`` checks every backend against a
first-repeat dictionary detector that steps the object engine and keys
each clock on its full state, sharing no code with that detector.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.arithmetic import units_tuple
from repro.core.stream import AccessStream
from repro.runner import SimJob, run
from repro.sim.engine import Engine
from repro.sim.port import Port


@st.composite
def sim_jobs(draw):
    m = draw(st.integers(2, 20))
    n_c = draw(st.integers(1, 5))
    sections = draw(
        st.sampled_from([None] + [s for s in range(1, m + 1) if m % s == 0])
    )
    mapping = (
        draw(st.sampled_from(["cyclic", "consecutive"]))
        if sections is not None
        else "cyclic"
    )
    n = draw(st.integers(1, 4))
    streams = tuple(
        (draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1)))
        for _ in range(n)
    )
    cpus = tuple(draw(st.integers(0, 1)) for _ in range(n))
    priority = draw(
        st.sampled_from(["fixed", "cyclic", "lru", "block-cyclic:2"])
    )
    intra = draw(st.sampled_from([None, "fixed", "cyclic"]))
    return SimJob(
        banks=m,
        bank_cycle=n_c,
        streams=streams,
        cpus=cpus,
        sections=sections,
        section_mapping=mapping,
        priority=priority,
        intra_priority=intra,
    )


def _engine(job: SimJob) -> Engine:
    """A fresh object engine at ``job``'s start state."""
    ports = [Port(index=i, cpu=c) for i, c in enumerate(job.cpus)]
    engine = Engine(
        job.config,
        ports,
        priority=job.priority,
        intra_priority=job.intra_priority,
    )
    for port, (b, d) in zip(ports, job.streams):
        port.assign(AccessStream(start_bank=b, stride=d).bound(job.banks))
    return engine


def _first_repeat(engine: Engine) -> tuple[int, int, tuple[int, ...]]:
    """``(first clock of the periodic regime, minimal period, per-port
    grants over one period)`` by stepping ``engine`` until a full state
    recurs: the historical dictionary detector, from the engine's
    current clock on."""
    seen: dict[tuple, int] = {}
    totals: list[tuple[int, ...]] = []
    start = engine.cycle
    while True:
        key = engine._state_key()
        first = seen.get(key)
        if first is not None:
            now = tuple(p.granted_total for p in engine.ports)
            before = totals[first - start]
            return (
                first,
                engine.cycle - first,
                tuple(b - a for a, b in zip(before, now)),
            )
        seen[key] = engine.cycle
        totals.append(tuple(p.granted_total for p in engine.ports))
        engine.step()


#: Cyclic priority across CPUs with a period of 1026 clocks: at half the
#: period the positions and banks repeat with the rule in the opposite
#: phase, so a detector that ignores the rule reports 513.
LONG_CYCLIC = SimJob(
    banks=27,
    bank_cycle=8,
    streams=((2, 2), (1, 7)),
    cpus=(1, 0),
    priority="cyclic",
)
#: Fig. 8(b): one CPU, three sections; the cyclic rule dissolves the
#: linked conflict of Fig. 8(a) (b_eff 3/2 -> 2).
FIG8B = SimJob(
    banks=12,
    bank_cycle=3,
    sections=3,
    streams=((0, 1), (1, 1)),
    cpus=(0, 0),
    priority="cyclic",
)


class TestFirstRepeatOracle:
    @given(job=sim_jobs())
    @example(job=LONG_CYCLIC)
    @example(job=FIG8B)
    @settings(max_examples=150, deadline=None)
    def test_steady_answers_match_dictionary_detector(self, job):
        want = _first_repeat(_engine(job))
        for backend in ("fast", "batch", "reference"):
            out = run(job, backend=backend)
            assert (out.steady_start, out.period, out.grants) == want, backend

    @given(job=sim_jobs(), k=st.integers(0, 40).map(lambda i: 2 * i + 1))
    @example(job=LONG_CYCLIC, k=3)
    @example(job=FIG8B, k=1)
    @settings(max_examples=80, deadline=None)
    def test_resumed_detection_matches_dictionary_detector(self, job, k):
        """Detection from a mid-run engine: walkers start at an odd
        clock, with a rotating rule part-way through its rotation."""
        oracle = _engine(job)
        oracle.run(k)
        engine = _engine(job)
        engine.run(k)
        _, period, grants, start = engine.run_to_steady_state()
        assert (start, period, grants) == _first_repeat(oracle)


class TestBackendEquivalence:
    @given(job=sim_jobs())
    @settings(max_examples=120, deadline=None)
    def test_steady_outcomes_bit_identical(self, job):
        ref = run(job, backend="reference")
        fast = run(job, backend="fast")
        assert fast.bandwidth == ref.bandwidth
        assert fast.period == ref.period
        assert fast.grants == ref.grants
        assert fast.steady_start == ref.steady_start

    @given(job=sim_jobs(), horizon=st.integers(1, 120))
    @settings(max_examples=60, deadline=None)
    def test_fixed_horizon_grants_identical(self, job, horizon):
        job = SimJob(
            banks=job.banks,
            bank_cycle=job.bank_cycle,
            streams=job.streams,
            cpus=job.cpus,
            sections=job.sections,
            section_mapping=job.section_mapping,
            priority=job.priority,
            intra_priority=job.intra_priority,
            steady=False,
            cycles=horizon,
        )
        ref = run(job, backend="reference")
        fast = run(job, backend="fast")
        assert fast.grants == ref.grants
        assert fast.bandwidth == ref.bandwidth


class TestCanonicalizationSoundness:
    @given(job=sim_jobs())
    @settings(max_examples=80, deadline=None)
    def test_canonical_job_has_identical_outcome(self, job):
        """The Appendix isomorphism must preserve the whole steady outcome.

        The renumbering is a bijection on memory states commuting with
        the arbitration step, so per-port grants, period *and* transient
        length carry over exactly — this is what makes the canonical job
        a sound cache identity.
        """
        original = run(job)
        canonical = run(job.canonical())
        assert canonical.bandwidth == original.bandwidth
        assert canonical.period == original.period
        assert canonical.grants == original.grants
        assert canonical.steady_start == original.steady_start

    @given(job=sim_jobs())
    @settings(max_examples=200, deadline=None)
    def test_canonical_streams_match_brute_force(self, job):
        """The stabiliser-coset scan finds the minimum over all of U(m).

        The brute force applies every unit after translating stream 1
        to bank 0 and keeps the lexicographically smallest stream tuple,
        which is the definition the coset scan must reproduce.
        """
        m = job.banks
        if job.section_mapping == "cyclic" or job.effective_sections == m:
            b0 = job.streams[0][0]
            want = min(
                tuple(((b - b0) * k % m, d * k % m) for b, d in job.streams)
                for k in units_tuple(m)
            )
        else:
            want = job.streams  # renumbering would break the sections
        assert job.canonical().streams == want
        assert job.canonical().cache_key() == job.cache_key()

    @given(
        job=sim_jobs(),
        k=st.integers(1, 19),
        c=st.integers(0, 19),
    )
    @settings(max_examples=80, deadline=None)
    def test_explicit_isomorphs_share_cache_key(self, job, k, c):
        from math import gcd

        m = job.banks
        if gcd(k, m) != 1 or not job._frame().renumbering_safe:
            return
        mapped = SimJob(
            banks=m,
            bank_cycle=job.bank_cycle,
            streams=tuple(
                ((b * k + c) % m, (d * k) % m) for b, d in job.streams
            ),
            cpus=job.cpus,
            sections=job.sections,
            section_mapping=job.section_mapping,
            priority=job.priority,
            intra_priority=job.intra_priority,
        )
        assert mapped.cache_key() == job.cache_key()
