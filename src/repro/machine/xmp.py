"""The Cray X-MP model and the Section IV triad experiment.

Machine shape (matching the Juelich installation the paper measured):

* 2 CPUs, 16 memory banks, bipolar memory — ``n_c = 4`` clocks;
* 4 sections, one access path per section per CPU (Fig. 1's topology
  scaled up);
* per CPU: two read ports and one write port, so "with all ports active,
  there are up to six ports simultaneously requesting access" and
  ``6·n_c = 24 > 16`` banks — conflicts are then unavoidable, which the
  paper uses to explain why even INC = 1 is not perfectly clean.

:func:`run_triad` reproduces one Fig. 10 data point;
:func:`triad_sweep` the full INC = 1..16 panel.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..memory.config import MemoryConfig
from ..memory.layout import CommonBlock, triad_common_block
from ..sim.port import Port
from ..sim.stats import ConflictKind, SimStats
from .cpu import CpuModel, CpuPort
from .instructions import PortKind
from .scheduler import MachineRunResult, MachineSimulation
from .workloads import TRIAD_IDIM, TRIAD_N, triad_program, unit_stride_background

__all__ = [
    "XMP_CONFIG",
    "TriadResult",
    "build_xmp",
    "run_program",
    "run_triad",
    "triad_sweep",
]

#: 16 banks, n_c = 4, 4 sections — the measured machine.
XMP_CONFIG = MemoryConfig(banks=16, bank_cycle=4, sections=4)

#: Port kinds per CPU: two read ports, one write port.
CPU_PORT_KINDS = (PortKind.READ, PortKind.READ, PortKind.WRITE)


@dataclass(frozen=True)
class TriadResult:
    """One Fig. 10 data point.

    Conflict counts cover the *triad CPU's* ports only (the simulator in
    the paper reports "the bank conflicts, section conflicts, and
    simultaneous conflicts encountered by the triad").
    """

    inc: int
    cycles: int
    other_cpu_active: bool
    bank_conflicts: int
    section_conflicts: int
    simultaneous_conflicts: int
    bank_stall_cycles: int
    section_stall_cycles: int
    simultaneous_stall_cycles: int
    triad_grants: int
    #: Result elements produced (loop trip count); set by the driver.
    elements: int = TRIAD_N

    @property
    def clocks_per_element(self) -> float:
        """Normalised execution time (clocks per loop iteration)."""
        return self.cycles / self.elements


def build_xmp(
    *,
    config: MemoryConfig = XMP_CONFIG,
    chain_latency: int = 8,
    priority: str = "cyclic",
    trace: bool = False,
) -> MachineSimulation:
    """Assemble a two-CPU X-MP with empty programs."""
    cpus: list[CpuModel] = []
    index = 0
    for cpu_id in range(2):
        slots = []
        for kind in CPU_PORT_KINDS:
            # X-MP assembly: finite instruction workloads, not SimJobs.
            slots.append(CpuPort(port=Port(index=index, cpu=cpu_id), kind=kind))  # reprolint: disable=LAYER001
            index += 1
        cpus.append(CpuModel(cpu_id, slots, chain_latency=chain_latency))
    return MachineSimulation(config, cpus, priority=priority, trace=trace)


def run_program(
    program: list,
    *,
    other_cpu_active: bool = True,
    config: MemoryConfig = XMP_CONFIG,
    chain_latency: int = 8,
    priority: str = "cyclic",
    trace: bool = False,
    label_inc: int = 0,
) -> TriadResult:
    """Execute an arbitrary instruction program on CPU 0 of the X-MP.

    The generic driver behind :func:`run_triad` — also used for the
    kernel library (:mod:`repro.machine.kernels`).  ``label_inc`` only
    tags the result row.
    """
    machine = build_xmp(
        config=config,
        chain_latency=chain_latency,
        priority=priority,
        trace=trace,
    )
    cpu0, cpu1 = machine.cpus
    cpu0.load_program(program)
    if other_cpu_active:
        cpu1.set_background(
            unit_stride_background(config.banks, ports=len(CPU_PORT_KINDS)),
            config.banks,
        )
    run = machine.run_until_programs_finish()
    ports = [slot.port.index for slot in cpu0.ports]
    # loop trip count: elements of the longest single reference stream
    # per segment chain; stores define it when present, else loads.
    stores = [i for i in program if i.kind is PortKind.WRITE]
    refs = stores if stores else list(program)
    elements = sum(i.length for i in refs) // max(
        1, len({i.name.split("[")[0] for i in refs})
    )
    return _summarise(
        label_inc, run, ports, other_cpu_active, elements=max(1, elements)
    )


def run_triad(
    inc: int,
    *,
    other_cpu_active: bool = True,
    n: int = TRIAD_N,
    idim: int = TRIAD_IDIM,
    config: MemoryConfig = XMP_CONFIG,
    chain_latency: int = 8,
    priority: str = "cyclic",
    common: CommonBlock | None = None,
    trace: bool = False,
) -> TriadResult:
    """Execute ``A(I) = B(I) + C(I)*D(I)`` for one increment.

    ``other_cpu_active`` toggles between the Fig. 10(a) environment
    (competitor CPU streaming distance 1 on all three ports) and the
    Fig. 10(b) dedicated machine.
    """
    if common is None:
        common = triad_common_block(idim)
    return run_program(
        triad_program(inc, n=n, common=common),
        other_cpu_active=other_cpu_active,
        config=config,
        chain_latency=chain_latency,
        priority=priority,
        trace=trace,
        label_inc=inc,
    )


def _summarise(
    inc: int,
    run: MachineRunResult,
    triad_ports: list[int],
    other_cpu_active: bool,
    *,
    elements: int = TRIAD_N,
) -> TriadResult:
    stats: SimStats = run.stats

    def _sum(field: str, kind: ConflictKind) -> int:
        return sum(
            getattr(stats.ports[p], field)[kind] for p in triad_ports
        )

    return TriadResult(
        inc=inc,
        cycles=run.cycles,
        other_cpu_active=other_cpu_active,
        bank_conflicts=_sum("episodes", ConflictKind.BANK),
        section_conflicts=_sum("episodes", ConflictKind.SECTION),
        simultaneous_conflicts=_sum("episodes", ConflictKind.SIMULTANEOUS),
        bank_stall_cycles=_sum("stall_cycles", ConflictKind.BANK),
        section_stall_cycles=_sum("stall_cycles", ConflictKind.SECTION),
        simultaneous_stall_cycles=_sum("stall_cycles", ConflictKind.SIMULTANEOUS),
        triad_grants=sum(stats.ports[p].grants for p in triad_ports),
        elements=elements,
    )


def triad_sweep(
    incs: range | list[int] = range(1, 17),
    *,
    other_cpu_active: bool = True,
    **kwargs,
) -> list[TriadResult]:
    """The full Fig. 10 panel: one :func:`run_triad` per increment."""
    return [
        run_triad(inc, other_cpu_active=other_cpu_active, **kwargs)
        for inc in incs
    ]
