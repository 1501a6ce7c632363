"""Arbiter policies give bit-identical outcomes on every backend.

The policy refactor replaced the engine's two-rule grant loop; these
properties license it.  Jobs with the full policy surface (every
priority rule, wfq ranking, per-stream and per-bank token-bucket
regulation) must answer exactly as the reference engine does on the
scalar fast core (Brent detection, with the policy's snapshot in every
compared state), the batch backend's policy partition and the canonical
job.  The analytic tier must stay never-wrong: a decided outcome for a
regulated job is bit-identical to simulation, and non-vacuous policies
are always honestly undecided (``paths.check_run``).
"""

from __future__ import annotations

from hypothesis import given, settings

from .paths import check_batch, check_run, jobs

#: The full policy surface on small memories and up to three streams.
POLICY = {"banks": (2, 12), "streams": (1, 3), "policies": True}


class TestPolicyBackendEquivalence:
    @given(job=jobs(**POLICY, modes=("steady",)))
    @settings(max_examples=50, deadline=None)
    def test_reference_fast_batch_bit_identical(self, job):
        check_run(job)
        check_batch([job])

    @given(job=jobs(**POLICY, modes=("span",)))
    @settings(max_examples=30, deadline=None)
    def test_fixed_horizon_grants_identical(self, job):
        check_run(job)

    @given(job=jobs(**POLICY))
    @settings(max_examples=30, deadline=None)
    def test_canonical_policy_job_has_identical_outcome(self, job):
        check_run(job)


class TestLRUInsideSteadyDetection:
    """LRU rules hold a last-grant ranking in every state the steady
    detector compares; split or shared, regulated or not, the fast path
    must agree with the reference engine on every start."""

    @given(
        job=jobs(
            banks=(2, 10),
            streams=(2, 2),
            priorities=("lru",),
            intras=("lru",),
            modes=("steady",),
        ).filter(lambda job: job.arbiter is None)
    )
    @settings(max_examples=80, deadline=None)
    def test_lru_jobs_agree_across_backends(self, job):
        check_run(job)


class TestAnalyticNeverWrongUnderPolicy:
    @given(job=jobs(**POLICY))
    @settings(max_examples=50, deadline=None)
    def test_decided_regulated_outcomes_match_simulation(self, job):
        check_run(job)
