"""The fast backend is a bit-exact replacement for the reference engine.

Randomized jobs (memory shape, sections under both mappings, stream
count, starts, strides, CPU placement, priority rules) run through the
path harness of ``paths.py``; every answer must equal the reference
engine's.  This is the cross-check that licenses using the fast path
anywhere the reference engine was used.

The reference backend takes its transient and period from the fast
engine's detector, so the two agreeing says nothing about "steady"
itself.  ``TestFirstRepeatOracle`` checks every backend against a
first-repeat dictionary detector that steps the object engine and keys
each clock on its full state, sharing no code with that detector.
"""

from __future__ import annotations

from dataclasses import replace
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.arithmetic import units_tuple
from repro.runner import run

from .paths import NAMED, check_run, engine_at, first_repeat, jobs
from .paths import renumbering_safe

#: Cyclic priority across CPUs with a period of 1026 clocks: at half the
#: period the positions and banks repeat with the rule in the opposite
#: phase, so a detector that ignores the rule reports 513.
LONG_CYCLIC = NAMED["long-cyclic"]
#: Fig. 8(b): one CPU, three sections; the cyclic rule dissolves the
#: linked conflict of Fig. 8(a) (b_eff 3/2 -> 2).
FIG8B = NAMED["fig8b"]


class TestFirstRepeatOracle:
    # Policy jobs meet the first-repeat detector in every harness truth.
    @given(job=jobs(policies=False, modes=("steady",)))
    @example(job=LONG_CYCLIC)
    @example(job=FIG8B)
    @settings(max_examples=150, deadline=None)
    def test_steady_answers_match_dictionary_detector(self, job):
        want = first_repeat(engine_at(job))
        for backend in ("fast", "batch", "reference"):
            out = run(job, backend=backend)
            assert (out.steady_start, out.period, out.grants) == want, backend

    @given(
        job=jobs(policies=False, modes=("steady",)),
        k=st.integers(0, 40).map(lambda i: 2 * i + 1),
    )
    @example(job=LONG_CYCLIC, k=3)
    @example(job=FIG8B, k=1)
    @settings(max_examples=80, deadline=None)
    def test_resumed_detection_matches_dictionary_detector(self, job, k):
        """Detection from a mid-run engine: walkers start at an odd
        clock, with a rotating rule part-way through its rotation."""
        oracle = engine_at(job)
        oracle.run(k)
        engine = engine_at(job)
        engine.run(k)
        _, period, grants, start = engine.run_to_steady_state()
        assert (start, period, grants) == first_repeat(oracle)


class TestBackendEquivalence:
    @given(job=jobs(policies=False, modes=("steady",)))
    @settings(max_examples=60, deadline=None)
    def test_steady_outcomes_bit_identical(self, job):
        check_run(job)

    @given(job=jobs(policies=False, modes=("span",)))
    @settings(max_examples=40, deadline=None)
    def test_fixed_horizon_grants_identical(self, job):
        check_run(job)


class TestCanonicalizationSoundness:
    @given(job=jobs(policies=False))
    @settings(max_examples=40, deadline=None)
    def test_canonical_job_has_identical_outcome(self, job):
        """The Appendix isomorphism must preserve the whole outcome.

        The renumbering is a bijection on memory states commuting with
        the arbitration step, so per-port grants, period *and* transient
        length carry over exactly, which makes the canonical job a sound
        cache identity (``check_run`` runs it).
        """
        check_run(job)

    @given(job=jobs())
    @settings(max_examples=200, deadline=None)
    def test_canonical_streams_match_brute_force(self, job):
        """The stabiliser-coset scan finds the minimum over all of U(m).

        The brute force applies every unit after translating stream 1
        to bank 0 and keeps the lexicographically smallest stream tuple,
        which is the definition the coset scan must reproduce.
        """
        m = job.banks
        if renumbering_safe(job):
            b0 = job.streams[0][0]
            want = min(
                tuple(((b - b0) * k % m, d * k % m) for b, d in job.streams)
                for k in units_tuple(m)
            )
        else:
            want = job.streams  # renumbering would break sections or buckets
        assert job.canonical().streams == want
        assert job.canonical().cache_key() == job.cache_key()

    @given(job=jobs(), k=st.integers(1, 19), c=st.integers(0, 19))
    @settings(max_examples=80, deadline=None)
    def test_explicit_isomorphs_share_cache_key(self, job, k, c):
        m = job.banks
        if gcd(k, m) != 1 or not renumbering_safe(job):
            return
        streams = tuple(((b * k + c) % m, (d * k) % m) for b, d in job.streams)
        assert replace(job, streams=streams).cache_key() == job.cache_key()
