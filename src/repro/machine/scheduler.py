"""Machine-level simulation loop: CPUs issuing into the shared memory.

Couples :class:`~repro.machine.cpu.CpuModel` instances to one
:class:`~repro.sim.engine.Engine`: each clock, every CPU first issues
ready instructions onto idle ports, then the memory arbitration runs,
then drained instructions retire.  The run ends when every CPU's program
has completed (background-only CPUs never hold the machine up).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..memory.config import MemoryConfig
from ..sim.engine import Engine
from ..sim.stats import SimStats
from ..sim.trace import TraceRecorder
from .cpu import CpuModel

__all__ = ["MachineSimulation", "MachineRunResult"]


@dataclass
class MachineRunResult:
    """Outcome of a machine run.

    ``cycles`` is the execution time in clock periods — the quantity
    Fig. 10(a)/(b) plots (the paper reports CPU seconds; ours differ by
    the constant clock period τ, which cancels in every shape claim).
    """

    cycles: int
    stats: SimStats
    trace: TraceRecorder | None


class MachineSimulation:
    """An engine plus the CPUs that feed it."""

    def __init__(
        self,
        config: MemoryConfig,
        cpus: list[CpuModel],
        *,
        priority: str = "cyclic",
        trace: bool = False,
    ) -> None:
        if not cpus:
            raise ValueError("need at least one CPU")
        ports = [slot.port for cpu in cpus for slot in cpu.ports]
        # Engine requires dense indices in order; validate wiring here so
        # the error points at machine assembly rather than engine guts.
        for expect, port in enumerate(ports):
            if port.index != expect:
                raise ValueError(
                    f"port indices must be dense and ordered across CPUs; "
                    f"found index {port.index} at position {expect}"
                )
        self.config = config
        self.cpus = cpus
        # The machine loop interleaves CPU issue with arbitration every
        # clock — a finite, stateful workload outside the SimJob model.
        self.engine = Engine(config, ports, priority=priority, trace=trace)  # reprolint: disable=LAYER001

    @property
    def clock(self) -> int:
        return self.engine.cycle

    def step(self) -> None:
        """One machine clock: issue → arbitrate/transfer → retire."""
        for cpu in self.cpus:
            cpu.issue(self.clock, self.config.banks)
        self.engine.step()
        for cpu in self.cpus:
            cpu.collect_completions(self.clock - 1)

    def run_until_programs_finish(self, max_cycles: int = 2_000_000) -> MachineRunResult:
        """Advance clocks until every CPU program retired its last
        instruction; background streams keep flowing meanwhile."""
        while not all(cpu.program_finished for cpu in self.cpus):
            if self.clock >= max_cycles:
                raise RuntimeError(
                    f"programs not finished within {max_cycles} clocks"
                )
            self.step()
        return MachineRunResult(
            cycles=self.clock,
            stats=self.engine.stats,
            trace=self.engine.trace,
        )
