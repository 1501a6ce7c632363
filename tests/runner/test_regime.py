"""Shared regime-observation helpers (deduped from sim.pairs/sim.multi)."""

from __future__ import annotations

import pytest

from repro.runner.regime import (
    ObservedRegime,
    full_rate_streams,
    is_conflict_free,
    observe_pair_regime,
)


class TestFullRate:
    def test_counts_streams_at_one_grant_per_clock(self):
        assert full_rate_streams(12, (12, 12, 7)) == 2
        assert full_rate_streams(6, (6,)) == 1
        assert full_rate_streams(6, (5, 3)) == 0

    def test_conflict_free_means_all_full_rate(self):
        assert is_conflict_free(12, (12, 12))
        assert not is_conflict_free(12, (12, 7))


class TestPairRegime:
    def test_conflict_free(self):
        assert observe_pair_regime(6, (6, 6)) is ObservedRegime.CONFLICT_FREE

    def test_barrier_on_2(self):
        assert observe_pair_regime(6, (6, 1)) is ObservedRegime.BARRIER_ON_2

    def test_barrier_on_1(self):
        assert observe_pair_regime(5, (2, 5)) is ObservedRegime.BARRIER_ON_1

    def test_mutual(self):
        assert observe_pair_regime(5, (3, 4)) is ObservedRegime.MUTUAL

    def test_requires_two_streams(self):
        with pytest.raises(ValueError):
            observe_pair_regime(5, (5,))


class TestDegenerateJobs:
    """Edge-of-parameter-space jobs observed through the runner layer.

    Degenerate strides (d ≡ 0 mod m), a single port (n_c = 1), and a
    single bank (m = 1) all collapse the steady state to its smallest
    possible period; the regime observers and both backends must agree
    on these boundary cases.
    """

    def _run_both(self, banks, bank_cycle, specs):
        from repro.memory.config import MemoryConfig
        from repro.runner import SimJob, run

        job = SimJob.from_specs(
            MemoryConfig(banks=banks, bank_cycle=bank_cycle), specs
        )
        ref = run(job, backend="reference")
        fast = run(job, backend="fast")
        assert (ref.bandwidth, ref.period, ref.grants) == (
            fast.bandwidth,
            fast.period,
            fast.grants,
        ), "backends disagree on a degenerate job"
        return ref

    def test_zero_stride_solo_hits_one_bank_every_cycle(self):
        # d = 0: every access lands on the same bank, so the stream is
        # pinned to the bank recovery rate 1/n_c regardless of m.
        from fractions import Fraction

        from repro.core.single import predict_single

        out = self._run_both(banks=8, bank_cycle=4, specs=[(0, 0)])
        assert out.bandwidth == Fraction(1, 4)
        assert out.period == 4
        assert out.grants == (1,)
        assert not is_conflict_free(out.period, out.grants)
        assert full_rate_streams(out.period, out.grants) == 0
        assert predict_single(8, 0, 4).bandwidth == out.bandwidth

    def test_zero_stride_pair_same_bank_is_barrier(self):
        # Both streams camp on bank 0; the second never gets a grant in
        # steady state, which the pair observer reads as a barrier.
        from fractions import Fraction

        out = self._run_both(banks=8, bank_cycle=4, specs=[(0, 0), (0, 0)])
        assert out.bandwidth == Fraction(1, 4)
        assert out.grants == (1, 0)
        regime = observe_pair_regime(out.period, out.grants)
        assert regime is ObservedRegime.MUTUAL

    def test_zero_stride_pair_disjoint_banks_do_not_interact(self):
        # Degenerate strides on different banks never collide; each
        # stream independently runs at the bank recovery rate.
        from fractions import Fraction

        out = self._run_both(banks=8, bank_cycle=4, specs=[(0, 0), (4, 0)])
        assert out.bandwidth == Fraction(1, 2)
        assert out.grants == (1, 1)
        assert full_rate_streams(out.period, out.grants) == 0

    def test_single_bank_pair_serialises_everything(self):
        # m = 1: one bank serves all traffic, so total bandwidth is the
        # recovery rate and only the first port ever wins arbitration.
        from fractions import Fraction

        out = self._run_both(banks=1, bank_cycle=3, specs=[(0, 0), (0, 0)])
        assert out.bandwidth == Fraction(1, 3)
        assert out.grants == (1, 0)
        assert observe_pair_regime(out.period, out.grants) is (
            ObservedRegime.MUTUAL
        )

    def test_single_cycle_bank_never_conflicts_solo(self):
        # n_c = 1: a bank recovers instantly, so a solo unit-stride
        # stream is conflict-free at full rate.
        from fractions import Fraction

        from repro.core.single import predict_single

        out = self._run_both(banks=8, bank_cycle=1, specs=[(0, 1)])
        assert out.bandwidth == Fraction(1)
        assert out.grants == (out.period,)
        assert is_conflict_free(out.period, out.grants)
        assert full_rate_streams(out.period, out.grants) == 1
        assert predict_single(8, 1, 1).bandwidth == Fraction(1)

    def test_single_cycle_bank_pair_is_conflict_free(self):
        # With n_c = 1 even two identical streams on the same banks
        # interleave without stalls once the pipeline fills.
        from fractions import Fraction

        out = self._run_both(banks=8, bank_cycle=1, specs=[(0, 1), (0, 1)])
        assert out.bandwidth == Fraction(2)
        regime = observe_pair_regime(out.period, out.grants)
        assert regime is ObservedRegime.CONFLICT_FREE

    def test_single_bank_single_cycle_pair(self):
        # m = 1 and n_c = 1 together: period collapses to one clock and
        # the lone bank grants exactly one port per clock.
        from fractions import Fraction

        out = self._run_both(banks=1, bank_cycle=1, specs=[(0, 0), (0, 0)])
        assert out.bandwidth == Fraction(1)
        assert out.period == 1
        assert out.grants == (1, 0)
        assert observe_pair_regime(out.period, out.grants) is (
            ObservedRegime.BARRIER_ON_2
        )


def test_sim_reexports_are_the_same_objects():
    # The sim front ends re-export the shared enum and delegate their
    # legacy helpers here; observers from either module must agree.
    from repro.sim import pairs

    assert pairs.ObservedRegime is ObservedRegime
