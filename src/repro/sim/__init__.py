"""Cycle-accurate interleaved-memory simulator.

Python re-implementation of the Fortran 77 simulator the authors ran next
to their Cray X-MP measurements (Section IV):

``port``
    Request side: one pending access per clock, stall-on-deny.
``priority``
    Fixed / cyclic / LRU conflict arbitration rules.
``arbiter``
    Pluggable :class:`ArbiterPolicy` layer (weighted-fair rotation,
    token-bucket bandwidth regulation) over the priority rules.
``engine``
    The per-clock arbitration loop (bank → section → simultaneous) and
    exact steady-state (cyclic state) detection.
``pairs``
    Two-stream front end with start-offset sweeps.
``stats``
    Conflict counters (stall cycles and episodes, per type).
``trace``
    Event log feeding the figure renderer in :mod:`repro.viz`.
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - the static view of __getattr__ below
    from .arbiter import (
        ArbiterPolicy,
        PriorityArbiter,
        RegulatedArbiter,
        RegulationSpec,
        TokenBucket,
        WeightedFairArbiter,
        canonical_arbiter,
        canonical_regulation,
        make_arbiter,
        parse_regulation,
    )
    from .engine import Engine, SimulationResult, simulate_streams
    from .multi import MultiResult, equal_stride_table, simulate_multi
    from .statespace import (
        StartSpaceProfile,
        Trajectory,
        start_space_profile,
        trajectory,
    )
    from .pairs import (
        ObservedRegime,
        PairResult,
        bandwidth_by_offset,
        best_offset,
        offsets_achieving,
        simulate_pair,
        worst_offset,
    )
    from .port import Port
    from .priority import (
        BlockCyclicPriority,
        CyclicPriority,
        FixedPriority,
        LRUPriority,
        PriorityRule,
        make_priority,
    )
    from .stats import ConflictKind, PortStats, SimStats
    from .trace import CycleTrace, DenialEvent, GrantEvent, TraceRecorder

__all__ = [
    "ArbiterPolicy",
    "BlockCyclicPriority",
    "ConflictKind",
    "CycleTrace",
    "CyclicPriority",
    "DenialEvent",
    "Engine",
    "FixedPriority",
    "GrantEvent",
    "LRUPriority",
    "MultiResult",
    "ObservedRegime",
    "PairResult",
    "Port",
    "PortStats",
    "PriorityArbiter",
    "PriorityRule",
    "RegulatedArbiter",
    "RegulationSpec",
    "SimStats",
    "SimulationResult",
    "StartSpaceProfile",
    "TokenBucket",
    "TraceRecorder",
    "Trajectory",
    "WeightedFairArbiter",
    "bandwidth_by_offset",
    "canonical_arbiter",
    "canonical_regulation",
    "equal_stride_table",
    "best_offset",
    "make_arbiter",
    "make_priority",
    "offsets_achieving",
    "parse_regulation",
    "simulate_multi",
    "simulate_pair",
    "simulate_streams",
    "start_space_profile",
    "trajectory",
    "worst_offset",
]


def __getattr__(name: str) -> object:
    """Resolve a re-export on first access (PEP 562).

    Importing one module of this package (``repro.sim.priority``, say,
    which every job validation needs) loads that module alone, not the
    engine and the front ends listed here.
    """
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import (
        arbiter, engine, multi, pairs, port, priority, statespace, stats, trace,
    )

    homes = (arbiter, engine, multi, pairs, port, priority, statespace, stats, trace)
    value = next(getattr(home, name) for home in homes if name in home.__all__)
    globals()[name] = value  # later reads bypass this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
