"""k-stream simulation front end (extension of :mod:`repro.sim.pairs`).

Drives the runner with an arbitrary number of infinite streams spread
over CPUs and reports the exact steady state — used to validate the
k-stream bounds of :mod:`repro.core.multistream` and to quantify the
Section IV remark about six active ports on sixteen banks.

Kept as a stable shim over :func:`repro.runner.run`; new code should
build :class:`repro.runner.SimJob` descriptions directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..memory.config import MemoryConfig
from ..runner import regime as _regime
from .engine import SimulationResult

__all__ = ["MultiResult", "simulate_multi", "equal_stride_table"]


@dataclass(frozen=True)
class MultiResult:
    """Steady state of a k-stream workload."""

    bandwidth: Fraction
    period: int
    grants: tuple[int, ...]
    result: SimulationResult | None

    @property
    def full_rate_streams(self) -> int:
        """How many streams run at one grant per clock."""
        return _regime.full_rate_streams(self.period, self.grants)

    @property
    def conflict_free(self) -> bool:
        return _regime.is_conflict_free(self.period, self.grants)


def simulate_multi(
    config: MemoryConfig,
    specs: list[tuple[int, int]],
    *,
    cpus: list[int] | None = None,
    priority: str = "fixed",
    max_cycles: int = 2_000_000,
) -> MultiResult:
    """Exact steady state for streams given as ``(start_bank, stride)``.

    ``cpus`` defaults to one CPU per stream (no section bottlenecks);
    group streams onto shared CPUs to engage path arbitration.
    """
    if not specs:
        raise ValueError("need at least one stream")
    from ..runner import SimJob, run

    job = SimJob.from_specs(
        config, specs, cpus=cpus, priority=priority, max_cycles=max_cycles
    )
    out = run(job)
    assert out.period is not None
    return MultiResult(
        bandwidth=out.bandwidth,
        period=out.period,
        grants=out.grants,
        result=out.result,
    )


def equal_stride_table(
    config: MemoryConfig,
    d: int,
    max_streams: int,
    *,
    staggered: bool = True,
    priority: str = "fixed",
) -> dict[int, Fraction]:
    """Steady bandwidth of ``p = 1..max_streams`` distance-``d`` streams.

    With ``staggered=True`` streams start at the conflict-free offsets
    ``i·n_c·d`` (where they exist; falling back to ``i·n_c·d mod m``
    anyway — the interesting question is what the memory does when the
    ideal spacing stops fitting).
    """
    m, n_c = config.banks, config.bank_cycle
    out: dict[int, Fraction] = {}
    for p in range(1, max_streams + 1):
        if staggered:
            specs = [((i * n_c * (d % m)) % m, d % m) for i in range(p)]
        else:
            specs = [(0, d % m)] * p
        out[p] = simulate_multi(config, specs, priority=priority).bandwidth
    return out
