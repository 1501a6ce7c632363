"""Further machine experiments (the paper's companion-study directions).

Section IV closes with "further experiments and their results are
described in [10]" — the authors' companion report on modelling,
measurement and simulation of X-MP memory interference.  That report is
not reproducible verbatim (unpublished at the paper's press time), but
its stated direction — richer interference scenarios between the two
CPUs — is; this module provides the two natural next experiments:

* :func:`dueling_triads` — *both* CPUs run the triad, with independent
  increments: the symmetric version of Fig. 10's asymmetric setup;
* :func:`contention_matrix` — the full (INC0, INC1) grid of CPU-0
  execution times, generalising Fig. 10(a)'s single d=1 competitor row.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..memory.config import MemoryConfig
from ..memory.layout import triad_common_block
from ..sim.stats import ConflictKind
from .workloads import TRIAD_IDIM, triad_program
from .xmp import XMP_CONFIG, build_xmp

__all__ = ["DuelResult", "dueling_triads", "contention_matrix"]


@dataclass(frozen=True)
class DuelResult:
    """Outcome of two CPUs running triads concurrently.

    ``cycles_cpu0``/``cycles_cpu1`` are each CPU's own completion times
    (the machine runs until both finish; each CPU's last store defines
    its time).
    """

    inc0: int
    inc1: int
    cycles_cpu0: int
    cycles_cpu1: int
    total_cycles: int
    conflicts_cpu0: dict[str, int]
    conflicts_cpu1: dict[str, int]

    @property
    def imbalance(self) -> float:
        """Slower CPU's time over the faster's (1.0 = symmetric)."""
        lo = min(self.cycles_cpu0, self.cycles_cpu1)
        hi = max(self.cycles_cpu0, self.cycles_cpu1)
        return hi / max(1, lo)


def _conflict_summary(stats, ports) -> dict[str, int]:
    return {
        "bank": sum(stats.ports[p].episodes[ConflictKind.BANK] for p in ports),
        "section": sum(
            stats.ports[p].episodes[ConflictKind.SECTION] for p in ports
        ),
        "simultaneous": sum(
            stats.ports[p].episodes[ConflictKind.SIMULTANEOUS] for p in ports
        ),
    }


def dueling_triads(
    inc0: int,
    inc1: int,
    *,
    n: int = 512,
    config: MemoryConfig = XMP_CONFIG,
    chain_latency: int = 8,
    priority: str = "cyclic",
    separate_commons: bool = True,
) -> DuelResult:
    """Run a triad on each CPU simultaneously.

    ``separate_commons=True`` gives each CPU its own COMMON block (CPU 1
    offset by one extra word so the start banks interleave); otherwise
    both operate on the same arrays — the worst case, every stream pair
    hitting the same start banks.
    """
    machine = build_xmp(
        config=config, chain_latency=chain_latency, priority=priority
    )
    cpu0, cpu1 = machine.cpus
    common0 = triad_common_block(TRIAD_IDIM)
    if separate_commons:
        common1 = triad_common_block(TRIAD_IDIM, base=4 * TRIAD_IDIM + 1)
    else:
        common1 = common0
    cpu0.load_program(triad_program(inc0, n=n, common=common0))
    cpu1.load_program(triad_program(inc1, n=n, common=common1))
    machine.run_until_programs_finish()

    stats = machine.engine.stats
    ports0 = [slot.port.index for slot in cpu0.ports]
    ports1 = [slot.port.index for slot in cpu1.ports]
    return DuelResult(
        inc0=inc0,
        inc1=inc1,
        cycles_cpu0=cpu0.last_completion + 1,
        cycles_cpu1=cpu1.last_completion + 1,
        total_cycles=machine.clock,
        conflicts_cpu0=_conflict_summary(stats, ports0),
        conflicts_cpu1=_conflict_summary(stats, ports1),
    )


def contention_matrix(
    incs0: list[int] | range,
    incs1: list[int] | range,
    *,
    n: int = 256,
    **kwargs,
) -> dict[tuple[int, int], DuelResult]:
    """The full (INC0, INC1) grid of :func:`dueling_triads` runs."""
    return {
        (i0, i1): dueling_triads(i0, i1, n=n, **kwargs)
        for i0 in incs0
        for i1 in incs1
    }
