"""Cycle-accurate simulation engine with dynamic conflict resolution.

The engine re-implements, in Python, the Fortran 77 simulator the authors
used alongside their Cray X-MP measurements.  Semantics (Section II):

* every non-idle port presents one request per clock period;
* **bank conflict** — the target bank is still active: the request (and
  with it the whole stream) is delayed one clock;
* **section conflict** — several ports of *one* CPU target inactive banks
  reachable only through the same access path: the priority rule grants
  one, the rest are delayed;
* **simultaneous bank conflict** — several ports (necessarily of
  different CPUs, each with its own path) target the same inactive bank:
  the priority rule grants one, the rest are delayed;
* a granted bank stays active for ``n_c`` clocks; a granted path is
  occupied for one clock;
* next clock "all active ports compete again" — denied requests are
  re-presented, with their cause re-evaluated.

Arbitration order follows the definitions: bank-activity masks first,
then per-CPU path arbitration, then cross-CPU same-bank arbitration.
One consequence of the two-stage Fig. 1 topology is deliberate: a port
that loses its CPU's *path* arbitration is NOT reconsidered if the path
winner subsequently loses the cross-CPU bank arbitration — the path was
already allocated inside the CPU's interconnection network by the time
memory rejected the request.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..core.stream import AccessStream
from ..memory.bank import BankArray
from ..memory.config import MemoryConfig
from ..memory.sections import SectionMap, section_map_for
from ..obs import metrics as _metrics
from ..obs import names as _names
from ..obs import trace as _obs_trace
from .arbiter import ArbiterPolicy, make_arbiter
from .port import Port
from .stats import ConflictKind, SimStats
from .trace import TraceRecorder

__all__ = ["Engine", "SimulationResult", "simulate_streams"]


@dataclass
class SimulationResult:
    """Outcome of an engine run.

    ``steady`` fields are populated only by
    :meth:`Engine.run_to_steady_state` (infinite streams).
    """

    config: MemoryConfig
    stats: SimStats
    trace: TraceRecorder | None
    cycles: int
    #: Exact steady-state bandwidth (grants per clock over one period).
    steady_bandwidth: Fraction | None = None
    #: Steady-state period in clocks.
    steady_period: int | None = None
    #: Grants per port over one steady period.
    steady_grants: tuple[int, ...] | None = None
    #: Clock at which the periodic regime was first entered.
    steady_start: int | None = None

    @property
    def measured_bandwidth(self) -> Fraction:
        """Whole-run average ``b_eff`` (includes startup transient)."""
        return self.stats.effective_bandwidth()

    def bandwidth(self) -> Fraction:
        """Best available ``b_eff``: exact steady value when detected."""
        return (
            self.steady_bandwidth
            if self.steady_bandwidth is not None
            else self.measured_bandwidth
        )


class Engine:
    """One memory system plus its ports, steppable clock by clock."""

    def __init__(
        self,
        config: MemoryConfig,
        ports: list[Port],
        *,
        priority: str = "fixed",
        intra_priority: str | None = None,
        arbiter: str | None = None,
        regulate: tuple[str, ...] = (),
        trace: TraceRecorder | bool | None = None,
    ) -> None:
        """``priority`` arbitrates cross-CPU (simultaneous bank)
        conflicts; ``intra_priority`` the per-CPU path (section)
        conflicts.  By default one rule serves both, matching the
        paper's presentation; real machines may differ (the X-MP's
        port priority within a CPU was fixed by port role while the
        inter-CPU rule rotated).

        ``arbiter`` replaces the two-rule wiring with an arbiter spec
        such as ``"wfq:2,1"``; ``regulate`` wraps whichever policy
        results with token-bucket regulators (``"stream=1/3"``-style
        specs).  :func:`~repro.sim.arbiter.make_arbiter` builds the
        policy from these spec strings, as it does for the fast
        engines.
        """
        if not ports:
            raise ValueError("need at least one port")
        indices = [p.index for p in ports]
        if indices != list(range(len(ports))):
            raise ValueError(
                f"port indices must be 0..n-1 in order, got {indices}"
            )
        self.config = config
        self.ports = ports
        self.banks = BankArray(config.banks, config.bank_cycle)
        self.section_map: SectionMap = section_map_for(config)
        self.arbiter: ArbiterPolicy = make_arbiter(
            len(ports),
            config.banks,
            priority=priority,
            intra_priority=intra_priority,
            arbiter=arbiter,
            regulate=regulate,
        )
        if trace is True:
            trace = TraceRecorder()
        elif trace is False:
            trace = None
        self.trace = trace
        self.stats = SimStats.for_ports(len(ports))
        self.cycle = 0
        #: bank -> port index currently holding it (for blame in traces)
        self._bank_owner: dict[int, int] = {}

    # ------------------------------------------------------------------
    # One clock period
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Simulate one clock period."""
        arbiter = self.arbiter
        if self.trace is not None:
            favoured = arbiter.favoured(len(self.ports), self.cycle)
            self.trace.begin_cycle(
                self.cycle, priority_label=self.ports[favoured].label
            )

        m = self.config.banks
        pending = [
            (p.index, p.current_bank(m)) for p in self.ports if not p.idle
        ]

        granted: list[tuple[int, int]] = []
        denied: list[tuple[int, int, ConflictKind, int | None]] = []

        # Phase 1 — bank conflicts: active banks reject everyone.
        survivors: list[tuple[int, int]] = []
        for port, bank in pending:
            if self.banks.is_free(bank):
                survivors.append((port, bank))
            else:
                denied.append(
                    (port, bank, ConflictKind.BANK, self._bank_owner.get(bank))
                )

        # Phase 1b — regulator vetoes: the bank is free, but the stream
        # or bank has exhausted its bandwidth budget this clock.  Vetoed
        # ports drop out of the contender set entirely (another port may
        # win the path/bank they would have contested).
        if arbiter.regulated:
            admitted: list[tuple[int, int]] = []
            for port, bank in survivors:
                if arbiter.admit(port, bank, self.cycle):
                    admitted.append((port, bank))
                else:
                    denied.append(
                        (port, bank, ConflictKind.REGULATED, None)
                    )
            survivors = admitted

        # Phase 2 — section conflicts: per (cpu, path) at most one grant.
        by_path: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for port, bank in survivors:
            cpu = self.ports[port].cpu
            path = self.section_map.section_of(bank)
            by_path.setdefault((cpu, path), []).append((port, bank))
        survivors = []
        for contenders in by_path.values():
            if len(contenders) == 1:
                survivors.append(contenders[0])
                continue
            winner = arbiter.rank_section(
                [port for port, _ in sorted(contenders)], self.cycle
            )
            for port, bank in contenders:
                if port == winner:
                    survivors.append((port, bank))
                else:
                    denied.append((port, bank, ConflictKind.SECTION, winner))

        # Phase 3 — simultaneous bank conflicts: per bank at most one
        # grant (cross-CPU by construction after phase 2).
        by_bank: dict[int, list[tuple[int, int]]] = {}
        for port, bank in survivors:
            by_bank.setdefault(bank, []).append((port, bank))
        for bank, contenders in by_bank.items():
            if len(contenders) == 1:
                granted.append(contenders[0])
                continue
            winner = arbiter.rank_bank(
                [port for port, _ in sorted(contenders)], bank, self.cycle
            )
            for port, b in contenders:
                if port == winner:
                    granted.append((port, b))
                else:
                    denied.append((port, b, ConflictKind.SIMULTANEOUS, winner))

        # Commit grants.
        for port, bank in granted:
            self.banks.grant(bank)
            self._bank_owner[bank] = port
            self.ports[port].advance()
            self.stats.ports[port].record_grant()
            arbiter.granted(port, bank, self.cycle)
            if self.trace is not None:
                self.trace.grant(port, bank, self.ports[port].label)

        # Commit denials.
        for port, bank, kind, blocker in denied:
            self.stats.ports[port].record_denial(kind)
            if self.trace is not None:
                self.trace.denial(
                    port, bank, kind, self.ports[port].label, blocker
                )

        # Clock edge.
        self.banks.tick()
        arbiter.tick(self.cycle)
        self.cycle += 1
        self.stats.cycles = self.cycle

    # ------------------------------------------------------------------
    # Bulk runs
    # ------------------------------------------------------------------
    def run(self, cycles: int) -> None:
        """Advance a fixed number of clock periods."""
        if cycles < 0:
            raise ValueError("cycle count must be non-negative")
        for _ in range(cycles):
            self.step()

    def run_until_idle(self, max_cycles: int = 1_000_000) -> int:
        """Run until every port drained its (finite) stream.

        Returns the cycle count at completion; raises if any port holds
        an infinite stream or the bound is exceeded.
        """
        for p in self.ports:
            if p.stream is not None and p.stream.is_infinite and not p.idle:
                raise ValueError(
                    f"port {p.index} has an infinite stream; "
                    "use run()/run_to_steady_state()"
                )
        while any(not p.idle for p in self.ports):
            if self.cycle >= max_cycles:
                raise RuntimeError(
                    f"streams not drained within {max_cycles} cycles"
                )
            self.step()
        return self.cycle

    # ------------------------------------------------------------------
    # Steady-state detection
    # ------------------------------------------------------------------
    def _state_key(self) -> tuple:
        """Hashable full state of the Markov chain.

        For infinite constant-stride streams the pending bank determines
        each port's entire future, so the key is: bank busy counters +
        pending bank per port + arbiter-policy state (priority rules,
        regulator bucket levels).  Finite states ⇒ some state must recur
        ⇒ the run is eventually periodic (the paper's "some cyclic state
        will be reached").
        """
        m = self.config.banks
        return (
            self.banks.snapshot(),
            tuple(p.snapshot_bank(m) for p in self.ports),
            self.arbiter.snapshot(),
        )

    def run_to_steady_state(
        self, max_cycles: int = 1_000_000
    ) -> tuple[Fraction, int, tuple[int, ...], int]:
        """Detect the cyclic state and return its exact bandwidth.

        Returns ``(b_eff, period, per-port grants in one period,
        first cycle of the periodic regime)``.  Requires all ports to
        carry infinite streams (the analytical model's assumption 1).

        Implementation: cheap :class:`~repro.runner.fastsim.FlatSim`
        walkers cloned from the current engine state find the transient
        length and minimal period via Brent's algorithm (O(1) memory —
        the historical ``seen`` dictionary retained every visited
        state), then the engine itself replays exactly those
        ``transient + period`` clocks so statistics and traces come out
        as they always have.  Every walker arbitrates with a deep copy
        of :attr:`arbiter`, the policy this engine steps with, whatever
        its kind; a two-port plain priority wiring under fixed rules or
        one shared rotating rule hands its state and rule phase to the
        one-frame pair detector instead.
        """
        import copy

        from ..runner.fastsim import FlatSim, bound_exceeded, find_steady_cycle

        for p in self.ports:
            if p.stream is None or not p.stream.is_infinite:
                raise ValueError(
                    "steady-state detection requires infinite streams on "
                    f"all ports (port {p.index} violates this)"
                )
        m = self.config.banks
        sect = [self.section_map.section_of(j) for j in range(m)]
        cpus = [p.cpu for p in self.ports]
        positions = [p.current_bank(m) for p in self.ports]
        strides = [p.stream.stride for p in self.ports if p.stream]
        busy = self.banks.snapshot()
        start_cycle = self.cycle

        def make() -> FlatSim:
            # The arbiter is part of the simulated state: each walker
            # gets a fresh deep copy (preserving intra-is-priority
            # aliasing) and continues the engine's clock numbering so
            # timestamp-based rules (LRU) stay consistent.
            return FlatSim(
                m=m,
                n_c=self.config.bank_cycle,
                sect=sect,
                cpus=cpus,
                positions=positions,
                strides=strides,
                policy=copy.deepcopy(self.arbiter),
                busy=busy,
                start_cycle=start_cycle,
            )

        try:
            with _obs_trace.span(
                _names.SPAN_ENGINE_STEADY_DETECT, start_cycle=start_cycle
            ):
                mu, lam, _ = find_steady_cycle(
                    make, max_cycles - self.cycle
                )
        except RuntimeError:
            raise bound_exceeded(max_cycles) from None
        reg = _metrics.active_metrics()
        if reg is not None:
            reg.counter(_names.ENGINE_STEADY_DETECTIONS).inc()

        # Replay the detected span on the real engine: contiguous
        # statistics/trace, and ``self.cycle`` ends at transient+period
        # exactly as the dictionary detector left it.
        cycle0 = self.cycle + mu
        self.run(mu)
        grants0 = tuple(p.granted_total for p in self.ports)
        self.run(lam)
        per_port = tuple(
            g1 - g0
            for g0, g1 in zip(
                grants0, (p.granted_total for p in self.ports)
            )
        )
        return Fraction(sum(per_port), lam), lam, per_port, cycle0

    # ------------------------------------------------------------------
    def result(self) -> SimulationResult:
        """Package the current statistics (no steady-state fields)."""
        return SimulationResult(
            config=self.config,
            stats=self.stats,
            trace=self.trace,
            cycles=self.cycle,
        )


def simulate_streams(
    config: MemoryConfig,
    streams: list[AccessStream],
    *,
    cpus: list[int] | None = None,
    priority: str = "fixed",
    intra_priority: str | None = None,
    arbiter: str | None = None,
    regulate: tuple[str, ...] = (),
    cycles: int | None = None,
    steady: bool = False,
    trace: bool = False,
    max_cycles: int = 1_000_000,
) -> SimulationResult:
    """One-call front end: build an engine, run it, return the result.

    Parameters
    ----------
    streams:
        One stream per port, in port order.
    cpus:
        CPU id per port (default: all on CPU 0 — the same-CPU, section
        topology; pass ``[0, 1]`` for the two-CPU experiments).
    cycles:
        Fixed horizon to simulate; mutually exclusive with ``steady``.
    steady:
        Detect the cyclic state and report its exact bandwidth
        (infinite streams only).
    """
    if cpus is None:
        cpus = [0] * len(streams)
    if len(cpus) != len(streams):
        raise ValueError("cpus and streams must align")
    ports = [Port(index=i, cpu=c) for i, c in enumerate(cpus)]
    engine = Engine(
        config, ports, priority=priority,
        intra_priority=intra_priority, arbiter=arbiter,
        regulate=regulate, trace=trace,
    )
    for port, stream in zip(ports, streams):
        port.assign(stream.bound(config.banks))
    if steady and cycles is not None:
        raise ValueError("pass either cycles= or steady=, not both")
    if steady:
        bw, period, per_port, start = engine.run_to_steady_state(max_cycles)
        res = engine.result()
        res.steady_bandwidth = bw
        res.steady_period = period
        res.steady_grants = per_port
        res.steady_start = start
        return res
    if cycles is not None:
        engine.run(cycles)
    elif any(not s.is_infinite for s in streams):
        engine.run_until_idle(max_cycles=max_cycles)
    else:
        engine.run(1000)
    return engine.result()
