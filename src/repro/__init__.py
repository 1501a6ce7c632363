"""repro — Oed & Lange (1985), interleaved memories in vector processors.

A faithful, fully-executable reproduction of

    W. Oed and O. Lange, "On the Effective Bandwidth of Interleaved
    Memories in Vector Processor Systems", IEEE Trans. Computers,
    C-34(10):949-957, October 1985.

Layers (see DESIGN.md for the full inventory):

* :mod:`repro.core` — the analytical model: Theorem 1 (return numbers),
  single-stream bandwidth, Theorems 2-9 on two-stream conflict-freeness,
  barrier-situations and sections, the eq. (29) barrier bandwidth, the
  Appendix isomorphism and eq. (33) Fortran strides.
* :mod:`repro.memory` — the hardware substrate: banks, bank cycle time,
  sections/paths, address mappings, COMMON-block layout.
* :mod:`repro.sim` — a cycle-accurate simulator with dynamic conflict
  resolution, three conflict types, pluggable priority rules and exact
  steady-state (cyclic state) bandwidth detection.
* :mod:`repro.runner` — the unified execution layer: hashable
  :class:`~repro.runner.SimJob` descriptions canonicalized via the
  Appendix isomorphism, pluggable backends (object-graph reference
  engine vs. flat-array fast engine) and the memoizing, deduplicating
  :class:`~repro.runner.SweepExecutor` every sweep fans out through.
* :mod:`repro.machine` — a Cray X-MP model (2 CPUs x 3 ports, 16 banks,
  ``n_c = 4``) running strip-mined, chained vector loops: the Section IV
  triad experiment.
* :mod:`repro.viz` — ASCII renderings of the paper's bank/clock trace
  figures and result series.
* :mod:`repro.analysis` — sweeps and sim-vs-theory validation harness.
* :mod:`repro.skewing` — skewing schemes (the conclusion's outlook),
  evaluated under the same conflict model.

Quick start::

    >>> from repro import classify_pair, simulate_pair, FIG2_CONFIG
    >>> classify_pair(12, 3, 1, 7).regime
    <PairRegime.CONFLICT_FREE: 'conflict-free'>
    >>> simulate_pair(FIG2_CONFIG, 1, 7).bandwidth
    Fraction(2, 1)
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - the static view of __getattr__ below
    from .core import (
        INFINITE,
        AccessStream,
        PairClassification,
        PairRegime,
        SingleStreamPrediction,
        barrier_bandwidth,
        barrier_possible,
        canonical_pair,
        classify_pair,
        conflict_free_possible,
        disjoint_sets_possible,
        loop_distance,
        predict_single,
        return_number,
        single_stream_bandwidth,
        unique_barrier,
    )
    from .memory import (
        CRAY_XMP_16,
        FIG2_CONFIG,
        FIG3_CONFIG,
        FIG5_CONFIG,
        FIG7_CONFIG,
        FIG8_CONFIG,
        MemoryConfig,
        triad_common_block,
    )
    from .runner import (
        SimJob,
        SimOutcome,
        SweepExecutor,
        default_executor,
        run,
    )
    from .sim import (
        ConflictKind,
        Engine,
        ObservedRegime,
        SimulationResult,
        simulate_pair,
        simulate_streams,
    )

__version__ = "1.0.0"

__all__ = [
    "AccessStream",
    "CRAY_XMP_16",
    "ConflictKind",
    "Engine",
    "FIG2_CONFIG",
    "FIG3_CONFIG",
    "FIG5_CONFIG",
    "FIG7_CONFIG",
    "FIG8_CONFIG",
    "INFINITE",
    "MemoryConfig",
    "ObservedRegime",
    "PairClassification",
    "PairRegime",
    "SimJob",
    "SimOutcome",
    "SimulationResult",
    "SingleStreamPrediction",
    "SweepExecutor",
    "barrier_bandwidth",
    "barrier_possible",
    "canonical_pair",
    "classify_pair",
    "conflict_free_possible",
    "default_executor",
    "disjoint_sets_possible",
    "loop_distance",
    "predict_single",
    "return_number",
    "run",
    "simulate_pair",
    "simulate_streams",
    "single_stream_bandwidth",
    "triad_common_block",
    "unique_barrier",
    "__version__",
]


def __getattr__(name: str) -> object:
    """Resolve a re-export on first access (PEP 562).

    ``import repro`` — and with it every ``import repro.<module>``, the
    CLI and the service included — imports no subpackage until one of
    the ``__all__`` names is read.
    """
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import core, memory, runner, sim

    value = next(
        getattr(home, name)
        for home in (core, memory, runner, sim)
        if name in home.__all__
    )
    globals()[name] = value  # later reads bypass this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
