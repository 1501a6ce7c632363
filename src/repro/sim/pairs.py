"""Two-stream experiment helpers.

Thin adapters over the :mod:`repro.runner` layer for the configuration
every theorem talks about: two infinite streams, either on different
CPUs (``s = m`` effectively — paths are no bottleneck) or on one CPU of
a sectioned memory.  Adds the start-offset sweeps used to verify
existence claims ("there exist start banks such that ...") and to
observe start dependence (Figs. 4-6).

These signatures predate the runner and are kept as stable shims;
new code should build :class:`repro.runner.SimJob` descriptions and use
:func:`repro.runner.run` / :class:`repro.runner.SweepExecutor` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..memory.config import MemoryConfig
from ..runner.regime import ObservedRegime, observe_pair_regime
from .engine import SimulationResult

__all__ = [
    "ObservedRegime",
    "PairResult",
    "simulate_pair",
    "bandwidth_by_offset",
    "best_offset",
    "worst_offset",
    "offsets_achieving",
]


@dataclass(frozen=True)
class PairResult:
    """Steady-state verdict for one concrete pair of streams."""

    bandwidth: Fraction
    period: int
    grants: tuple[int, int]
    regime: ObservedRegime
    result: SimulationResult | None

    @property
    def bandwidth_float(self) -> float:
        return float(self.bandwidth)


def simulate_pair(
    config: MemoryConfig,
    d1: int,
    d2: int,
    *,
    b1: int = 0,
    b2: int = 0,
    same_cpu: bool = False,
    priority: str = "fixed",
    max_cycles: int = 1_000_000,
    trace: bool = False,
) -> PairResult:
    """Exact steady state of two infinite streams.

    ``same_cpu=True`` puts both ports on CPU 0, activating section/path
    arbitration (the Theorem 8/9 topology); the default places them on
    different CPUs (Theorems 2-7: only bank and simultaneous conflicts).
    """
    cpus = [0, 0] if same_cpu else [0, 1]

    from ..runner import SimJob, run

    job = SimJob.from_specs(
        config,
        [(b1, d1), (b2, d2)],
        cpus=cpus,
        priority=priority,
        max_cycles=max_cycles,
        trace=trace,
    )
    out = run(job)
    assert out.period is not None
    grants = (out.grants[0], out.grants[1])
    return PairResult(
        bandwidth=out.bandwidth,
        period=out.period,
        grants=grants,
        regime=observe_pair_regime(out.period, grants),
        result=out.result,
    )


def bandwidth_by_offset(
    config: MemoryConfig,
    d1: int,
    d2: int,
    *,
    same_cpu: bool = False,
    priority: str = "fixed",
    offsets: list[int] | None = None,
    executor: "object | None" = None,
) -> dict[int, Fraction]:
    """Steady bandwidth for every relative start offset ``b2 - b1``.

    The analytical model's assumption 2 ("all streams begin
    simultaneously") is harmless because "a relative position in time can
    be transformed to a relative position in space" — this sweep explores
    exactly that space.

    The sweep runs through a :class:`repro.runner.SweepExecutor`
    (``executor`` or the process-wide default), so isomorphic offsets are
    deduplicated and repeated sweeps are memoized.
    """
    if offsets is None:
        offsets = list(range(config.banks))

    from ..runner import SweepExecutor, default_executor, jobs_for_offsets

    ex = executor if executor is not None else default_executor()
    assert isinstance(ex, SweepExecutor)
    jobs = jobs_for_offsets(
        config,
        d1,
        d2,
        [off % config.banks for off in offsets],
        same_cpu=same_cpu,
        priority=priority,
    )
    outcomes = ex.run_many(jobs)
    return {off: o.bandwidth for off, o in zip(offsets, outcomes)}


def best_offset(
    config: MemoryConfig, d1: int, d2: int, **kwargs
) -> tuple[int, Fraction]:
    """Offset maximising steady bandwidth (ties: smallest offset)."""
    table = bandwidth_by_offset(config, d1, d2, **kwargs)
    off = max(sorted(table), key=lambda o: table[o])
    return off, table[off]


def worst_offset(
    config: MemoryConfig, d1: int, d2: int, **kwargs
) -> tuple[int, Fraction]:
    """Offset minimising steady bandwidth (ties: smallest offset)."""
    table = bandwidth_by_offset(config, d1, d2, **kwargs)
    off = min(sorted(table), key=lambda o: table[o])
    return off, table[off]


def offsets_achieving(
    config: MemoryConfig,
    d1: int,
    d2: int,
    bandwidth: Fraction,
    **kwargs,
) -> list[int]:
    """All start offsets whose steady bandwidth equals ``bandwidth``."""
    table = bandwidth_by_offset(config, d1, d2, **kwargs)
    return [o for o in sorted(table) if table[o] == bandwidth]
