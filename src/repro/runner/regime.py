"""Steady-state regime observation shared by every simulation front end.

Reading a regime off a steady period is pure arithmetic on the per-port
grant counts: a stream runs at *full rate* when it collects one grant per
clock of the period.  The runner layer owns the single canonical
implementation; :mod:`repro.sim.pairs` and :mod:`repro.sim.multi`
(``full_rate_streams`` / ``conflict_free``) delegate here.
"""

from __future__ import annotations

import enum

__all__ = [
    "ObservedRegime",
    "full_rate_streams",
    "is_conflict_free",
    "observe_pair_regime",
]


class ObservedRegime(enum.Enum):
    """Steady-state behaviour read off a simulated pair."""

    CONFLICT_FREE = "conflict-free"        # both streams full rate
    BARRIER_ON_2 = "barrier-on-2"          # stream 1 full rate, 2 delayed
    BARRIER_ON_1 = "barrier-on-1"          # inverted barrier (Fig. 6)
    MUTUAL = "mutual"                      # both delayed (double conflict)


def full_rate_streams(period: int, grants: tuple[int, ...]) -> int:
    """How many streams run at one grant per clock over the period."""
    if period <= 0:
        raise ValueError("period must be positive")
    return sum(1 for g in grants if g == period)


def is_conflict_free(period: int, grants: tuple[int, ...]) -> bool:
    """Whether *every* stream runs at full rate over the period."""
    if period <= 0:
        raise ValueError("period must be positive")
    return all(g == period for g in grants)


def observe_pair_regime(period: int, grants: tuple[int, ...]) -> ObservedRegime:
    """Classify a two-stream steady state by its per-port grant counts."""
    if len(grants) != 2:
        raise ValueError(f"pair regime needs exactly 2 grant counts, got {len(grants)}")
    g1, g2 = grants
    full1 = g1 == period
    full2 = g2 == period
    if full1 and full2:
        return ObservedRegime.CONFLICT_FREE
    if full1:
        return ObservedRegime.BARRIER_ON_2
    if full2:
        return ObservedRegime.BARRIER_ON_1
    return ObservedRegime.MUTUAL
