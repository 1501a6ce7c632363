"""The batch SoA core is a bit-exact replacement for the scalar engines.

Randomized *populations* of every job shape run through
``BatchBackend.run_batch`` in one lockstep call; every per-job answer
must equal the reference engine's, and a population holding jobs that
exhaust ``max_cycles`` must raise the lowest-indexed failing job's
exact ``RuntimeError`` (``paths.check_batch``).  This is the
cross-check that licenses routing sweeps through the lockstep core.
"""

from __future__ import annotations

from hypothesis import given, settings

from .paths import check_batch, populations


class TestBatchEquivalence:
    @given(jobs=populations(max_size=10, modes=("steady",)))
    @settings(max_examples=12, deadline=None)
    def test_steady_populations_bit_identical(self, jobs):
        check_batch(jobs)

    @given(jobs=populations(modes=("span",)))
    @settings(max_examples=15, deadline=None)
    def test_span_populations_bit_identical(self, jobs):
        check_batch(jobs)

    @given(jobs=populations())
    @settings(max_examples=15, deadline=None)
    def test_max_cycles_error_identical(self, jobs):
        """Steady, span and bounded jobs mixed: the lowest-indexed
        failing job's error, same type and message."""
        check_batch(jobs)
