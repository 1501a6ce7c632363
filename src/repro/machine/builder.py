"""Generic vector-machine assembly, plus the Fujitsu VP preset.

The introduction names two machines "of special interest": the Cray
X-MP *and* the Fujitsu VP-100/VP-200 [7].  The X-MP is hard-wired in
:mod:`repro.machine.xmp`; this module generalises the assembly so any
port topology can be described, and provides a VP-200-flavoured preset:

* **single CPU** (the VP was a uniprocessor attached to a host),
* **two load/store pipes** — each pipe can carry loads *or* stores
  (unlike the X-MP's dedicated 2-read/1-write split),
* wider interleave (the VP-200 shipped with up to 128-way interleaved
  static-RAM storage; the preset uses 32 banks with ``n_c = 4`` to stay
  comparable to the 16-bank X-MP baseline), and
* longer vector registers (up to 1024 elements; preset strip-mines at
  256).

The point of the preset is architectural comparison under the *same*
conflict model, not a cycle-faithful VP — documented as such.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..memory.config import MemoryConfig
from ..sim.port import Port
from .cpu import CpuModel, CpuPort
from .instructions import PortKind
from .scheduler import MachineSimulation

__all__ = [
    "MachineSpec",
    "build_machine",
    "run_on",
    "XMP_SPEC",
    "VP200_SPEC",
]


@dataclass(frozen=True)
class MachineSpec:
    """Declarative description of a vector machine.

    ``port_kinds`` lists, per CPU, the kind of each memory port.  A
    ``PortKind.READ`` port serves loads, ``PortKind.WRITE`` stores; a
    load/store *pipe* that serves both is modelled as the pair
    appearing in preference order — the issue logic simply looks for an
    idle port of the matching kind, so machines with flexible pipes
    declare one kind per direction they can sustain concurrently.
    """

    name: str
    config: MemoryConfig
    port_kinds: tuple[tuple[PortKind, ...], ...]
    vector_length: int
    chain_latency: int = 8

    def __post_init__(self) -> None:
        if not self.port_kinds:
            raise ValueError("machine needs at least one CPU")
        if any(not kinds for kinds in self.port_kinds):
            raise ValueError("every CPU needs at least one port")
        if self.vector_length <= 0:
            raise ValueError("vector length must be positive")
        if self.chain_latency < 0:
            raise ValueError("chain latency must be non-negative")

    @property
    def cpus(self) -> int:
        return len(self.port_kinds)

    @property
    def total_ports(self) -> int:
        return sum(len(k) for k in self.port_kinds)


def build_machine(
    spec: MachineSpec,
    *,
    priority: str = "cyclic",
    trace: bool = False,
) -> MachineSimulation:
    """Instantiate an empty machine from a spec."""
    cpus: list[CpuModel] = []
    index = 0
    for cpu_id, kinds in enumerate(spec.port_kinds):
        slots = []
        for kind in kinds:
            slots.append(
                # Machine assembly wires finite instruction workloads,
                # which the infinite-stream SimJob cannot express.
                CpuPort(port=Port(index=index, cpu=cpu_id), kind=kind)  # reprolint: disable=LAYER001
            )
            index += 1
        cpus.append(
            CpuModel(cpu_id, slots, chain_latency=spec.chain_latency)
        )
    return MachineSimulation(
        spec.config, cpus, priority=priority, trace=trace
    )


#: The measured machine: 2 CPUs x (2 read + 1 write), 16 banks, n_c=4.
XMP_SPEC = MachineSpec(
    name="Cray X-MP (2 CPU, 16 banks)",
    config=MemoryConfig(banks=16, bank_cycle=4, sections=4),
    port_kinds=(
        (PortKind.READ, PortKind.READ, PortKind.WRITE),
        (PortKind.READ, PortKind.READ, PortKind.WRITE),
    ),
    vector_length=64,
)

#: A VP-200-flavoured uniprocessor: two flexible load/store pipes
#: (modelled as READ+WRITE pairs), 32-way interleave, VL = 256.
VP200_SPEC = MachineSpec(
    name="Fujitsu VP-200-like (1 CPU, 32 banks)",
    config=MemoryConfig(banks=32, bank_cycle=4, sections=8),
    port_kinds=(
        (PortKind.READ, PortKind.READ, PortKind.WRITE, PortKind.WRITE),
    ),
    vector_length=256,
)


def run_on(
    spec: MachineSpec,
    program: list,
    *,
    cpu: int = 0,
    background: dict[int, dict[int, object]] | None = None,
    priority: str = "cyclic",
    max_cycles: int = 2_000_000,
):
    """Run an instruction program on one CPU of a described machine.

    ``background`` optionally maps *other* CPU ids to their
    port-position → infinite-stream assignments (as
    :meth:`CpuModel.set_background` expects).  Returns the
    :class:`~repro.machine.scheduler.MachineRunResult`.
    """
    machine = build_machine(spec, priority=priority)
    if not 0 <= cpu < spec.cpus:
        raise ValueError(f"cpu {cpu} outside 0..{spec.cpus - 1}")
    machine.cpus[cpu].load_program(program)
    if background:
        for cpu_id, streams in background.items():
            if cpu_id == cpu:
                raise ValueError("background must target a different CPU")
            machine.cpus[cpu_id].set_background(
                streams, spec.config.banks
            )
    return machine.run_until_programs_finish(max_cycles=max_cycles)
