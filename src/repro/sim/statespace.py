"""State-space analysis of stream workloads (extension).

The analytical model's assumption 1 rests on the observation that "the
possible memory states are finite, and some cyclic state will be
reached".  This module turns that observation into tooling: enumerate
the trajectory of a workload, measure its transient length and period,
and aggregate over all relative starts — giving exact distributions
where the paper could only exhibit examples (Figs. 3-6 are single
trajectories of such state spaces).

The detector itself lives in the runner layer now
(:func:`repro.runner.run` with a steady :class:`repro.runner.SimJob`);
these helpers are adapters that shape its outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ..memory.config import MemoryConfig

__all__ = ["Trajectory", "trajectory", "start_space_profile", "StartSpaceProfile"]


@dataclass(frozen=True)
class Trajectory:
    """One workload's run to its cyclic state.

    ``transient`` — clocks before the periodic regime is entered;
    ``period`` — length of the cycle;
    ``bandwidth`` — exact grants/clock over one period;
    ``grants`` — per-stream grants over one period;
    ``states_visited`` — distinct states seen (transient + cycle).
    """

    transient: int
    period: int
    bandwidth: Fraction
    grants: tuple[int, ...]
    states_visited: int

    @property
    def cycle_fraction_of_states(self) -> float:
        """Share of visited states that belong to the cycle."""
        return self.period / self.states_visited


def _trajectory_from_outcome(out) -> Trajectory:
    assert out.period is not None and out.steady_start is not None
    return Trajectory(
        transient=out.steady_start,
        period=out.period,
        bandwidth=out.bandwidth,
        grants=out.grants,
        states_visited=out.steady_start + out.period,
    )


def trajectory(
    config: MemoryConfig,
    specs: list[tuple[int, int]],
    *,
    cpus: list[int] | None = None,
    priority: str = "fixed",
    max_cycles: int = 1_000_000,
) -> Trajectory:
    """Run ``(start_bank, stride)`` streams to their cyclic state."""
    if not specs:
        raise ValueError("need at least one stream")
    from ..runner import SimJob, run

    job = SimJob.from_specs(
        config, specs, cpus=cpus, priority=priority, max_cycles=max_cycles
    )
    return _trajectory_from_outcome(run(job))


@dataclass(frozen=True)
class StartSpaceProfile:
    """Aggregate behaviour of a stride pair over all relative starts."""

    m: int
    n_c: int
    d1: int
    d2: int
    bandwidths: dict[int, Fraction]
    transients: dict[int, int]
    periods: dict[int, int]

    @property
    def best(self) -> Fraction:
        return max(self.bandwidths.values())

    @property
    def worst(self) -> Fraction:
        return min(self.bandwidths.values())

    @property
    def mean_bandwidth(self) -> Fraction:
        vals = list(self.bandwidths.values())
        return sum(vals, Fraction(0)) / len(vals)

    @property
    def max_transient(self) -> int:
        return max(self.transients.values())

    def bandwidth_histogram(self) -> dict[Fraction, int]:
        """How many starts land at each steady bandwidth."""
        hist: dict[Fraction, int] = {}
        for bw in self.bandwidths.values():
            hist[bw] = hist.get(bw, 0) + 1
        return hist


def start_space_profile(
    config: MemoryConfig,
    d1: int,
    d2: int,
    *,
    same_cpu: bool = False,
    priority: str = "fixed",
    arbiter: "str | None" = None,
    regulate: "Sequence[str]" = (),
    executor: "object | None" = None,
) -> StartSpaceProfile:
    """Exact profile of a pair over every relative start offset.

    The paper's "in general the relative starting positions cannot be
    predicted" motivates looking at the whole distribution: a pair whose
    *worst* start is fine is robust, one like Fig. 5/6's needs either
    placement control or architectural help.

    The ``m`` per-offset jobs run as one batch through a
    :class:`repro.runner.SweepExecutor` (``executor`` or the process-wide
    default), so they deduplicate, memoize and — given a multi-worker
    executor — fan out in parallel.
    """
    from ..runner import SweepExecutor, default_executor, jobs_for_offsets

    m = config.banks
    ex = executor if executor is not None else default_executor()
    assert isinstance(ex, SweepExecutor)
    jobs = jobs_for_offsets(
        config, d1, d2, range(m), same_cpu=same_cpu, priority=priority,
        arbiter=arbiter, regulate=regulate,
    )
    outcomes = ex.run_many(jobs)
    bandwidths: dict[int, Fraction] = {}
    transients: dict[int, int] = {}
    periods: dict[int, int] = {}
    for off, out in zip(range(m), outcomes):
        assert out.period is not None and out.steady_start is not None
        bandwidths[off] = out.bandwidth
        transients[off] = out.steady_start
        periods[off] = out.period
    return StartSpaceProfile(
        m=m,
        n_c=config.bank_cycle,
        d1=d1 % m,
        d2=d2 % m,
        bandwidths=bandwidths,
        transients=transients,
        periods=periods,
    )
