"""Flat-array simulation core and O(1)-memory steady-state detection.

This module is Tier B of the runner's execution pipeline: a re-usable,
allocation-light implementation of the engine's two-stage arbitration
(bank busy → per-CPU section path → cross-CPU simultaneous bank) over
plain integer lists, plus Brent's cycle-detection algorithm for finding
the steady state without the historical ``seen`` dictionary.

The dictionary detector hashed a full-width state tuple *every clock*
and kept every visited state alive — O(cycles × state-width) memory and
an O(state-width) tuple build per clock.  Brent's algorithm keeps one
anchor snapshot (re-taken at powers of two) and compares the live state
against it with short-circuiting C-level list equality; memory is O(1)
in the run length and the per-clock cost is dominated by the arbitration
itself.

Two-stream jobs with no arbiter policy, under fixed rules or one shared
``cyclic`` / ``block-cyclic:N`` rule (:func:`pair_rotation` decides
this from the job spec), run on two functions that each keep the whole
run in one Python frame on integer locals: :func:`run_pair_span` for a
fixed horizon and :func:`find_pair_cycle` for the steady detector.
Neither builds a walker or a policy object.  A two-port rotating rule's
state is a function of the clock alone, so both take the rule's phase
at the start clock and compute the winner only on a conflicting clock.

Everything else steps clock by clock on :class:`FlatSim`, whose one
arbitration input is the job's :class:`~repro.sim.arbiter.ArbiterPolicy`
— the same protocol object the reference engine consults: LRU rules,
split rules (a separate ``intra_priority`` other than fixed/fixed),
weighted-fair and regulated policies, and jobs with one or with three
or more streams.  :func:`find_steady_cycle` runs Brent's algorithm over
its walkers, and hands a template walker in a fused pair shape (as
:meth:`Engine.run_to_steady_state <repro.sim.engine.Engine.
run_to_steady_state>` builds from mid-run) to :func:`find_pair_cycle`.

Bit-identity contract (relied on by the backends and locked by
``tests/property``): for the same start state the detector reports
exactly the first-repeat answer of the dictionary version — the minimal
transient ``mu`` (first clock of the periodic regime), the minimal
period ``lam``, per-port grants over ``[mu, mu+lam)``, and a total of
``mu + lam`` simulated clocks; jobs whose ``mu + lam`` exceeds
``max_cycles`` raise the same ``RuntimeError``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from ..obs import metrics as _metrics
from ..obs import names as _names

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..memory.config import MemoryConfig
    from ..sim.arbiter import ArbiterPolicy
    from ..sim.priority import PriorityRule
    from .job import SimJob

__all__ = [
    "FlatSim",
    "bound_exceeded",
    "find_pair_cycle",
    "find_steady_cycle",
    "pair_rotation",
    "run_pair_span",
    "section_table",
]


def _record_steady(mu: int, lam: int) -> None:
    """Feed the detector's answer to the mu/lam histograms (no-op when
    metrics are off — one None check per steady job, nothing per clock)."""
    reg = _metrics.active_metrics()
    if reg is not None:
        reg.histogram(_names.FASTSIM_STEADY_MU).observe(mu)
        reg.histogram(_names.FASTSIM_STEADY_LAM).observe(lam)


def bound_exceeded(max_cycles: int) -> RuntimeError:
    """The error every engine raises for a steady job whose transient
    plus period exceeds its ``max_cycles``."""
    return RuntimeError(
        f"no cyclic state within {max_cycles} cycles "
        "(state space exhausted the bound)"
    )


#: One full comparable state: positions, policy snapshot, bank
#: countdowns.  Positions lead because they discriminate fastest.
StateKey = tuple[list[int], tuple, list[int]]


def section_table(config: "MemoryConfig") -> list[int]:
    """Bank → section index for ``config``, as a flat list."""
    from ..memory.sections import section_map_for

    smap = section_map_for(config)
    return [smap.section_of(j) for j in range(config.banks)]


def pair_rotation(job: "SimJob") -> int | None:
    """Rotation block of a job the fused pair functions run, else ``None``.

    Fused jobs have two streams, no ``arbiter`` and no ``regulate``, and
    either fixed rules for both conflict kinds (``0``: port 0 always
    wins) or one shared ``cyclic`` (``1``) or ``block-cyclic:N`` (``N``)
    rule, which favours port 1 on the second half of every
    ``2·block``-clock turn.
    """
    if len(job.streams) != 2 or job.arbiter is not None or job.regulate:
        return None
    prio, intra = job.priority, job.intra_priority
    if prio == "fixed":
        return 0 if intra is None or intra == "fixed" else None
    if intra is not None or prio == "lru":
        return None
    if prio == "cyclic":
        return 1
    from ..sim.priority import parse_priority

    return parse_priority(prio)[1]


def _rotation_block(rule: "PriorityRule") -> int | None:
    """:func:`pair_rotation`'s block for a rule object shared by both
    conflict kinds of a two-port arbiter, else ``None``."""
    from ..sim.priority import BlockCyclicPriority, CyclicPriority

    if isinstance(rule, CyclicPriority) and rule.n_ports == 2:
        return 1
    if isinstance(rule, BlockCyclicPriority) and rule.n_ports == 2:
        return rule.block
    return None


def _successors(m: int, stride: int) -> list[int]:
    """Bank ``(b + stride) % m`` at index ``b``: a stream's next bank."""
    return [*range(stride, m), *range(stride)]


def run_pair_span(
    m: int,
    n_c: int,
    sect: Sequence[int],
    same_cpu: bool,
    rot: int,
    phase: int,
    streams: Sequence[tuple[int, int]],
    busy: list[int],
    t: int,
    clocks: int,
) -> tuple[int, int, int, int]:
    """Advance a fused pair ``clocks`` clocks from clock ``t``.

    The state is the two streams' ``(pending bank, stride)``, the banks'
    busy-until clocks (bank ``b`` is free at clock ``u`` iff
    ``busy[b] <= u``; updated in place), the clock and, for a rotating
    rule (block ``rot`` > 0), its ``phase`` at clock ``t``: a
    conflicting clock ``u`` grants port 1 iff
    ``(u - t + phase) // rot`` is odd.  ``sect`` (bank → section) is
    read only when ``same_cpu``.  Returns both pending banks and both
    ports' grants over the span.
    """
    (b0, s0), (b1, s1) = streams
    n0, n1 = _successors(m, s0), _successors(m, s1)
    ph = phase - t
    c0 = c1 = 0
    for u in range(t, t + clocks):
        g0 = busy[b0] <= u
        g1 = busy[b1] <= u
        if g0 and g1 and (sect[b0] == sect[b1] if same_cpu else b0 == b1):
            if rot and ((u + ph) // rot) & 1:
                g0 = False
            else:
                g1 = False
        if g0:
            busy[b0] = u + n_c
            c0 += 1
            b0 = n0[b0]
        if g1:
            busy[b1] = u + n_c
            c1 += 1
            b1 = n1[b1]
    return b0, b1, c0, c1


def find_pair_cycle(
    m: int,
    n_c: int,
    sect: Sequence[int],
    same_cpu: bool,
    rot: int,
    phase: int,
    streams: Sequence[tuple[int, int]],
    busy: Sequence[int],
    t: int,
    max_cycles: int,
) -> tuple[int, int, tuple[int, ...]]:
    """:func:`find_steady_cycle` for a fused pair, in one frame.

    Takes the state :func:`run_pair_span` does (``busy`` is only read).
    Phase 1 re-roots its anchor at every power of two within a
    ``3·max_cycles + 4`` step budget.  It compares positions every clock
    and the rule's phase and the busy counters only on a position
    collision, and counts grants since the anchor: the anchor that
    recurs lies on the cycle, so those are one period's.  The phase
    recurs only every ``2·rot`` clocks, so ``lam`` is a multiple of
    that, and the two phase-2 walkers, ``lam`` apart, need not compare
    phases.  The leading one starts from the last anchor at or before
    its start clock.
    """
    if max_cycles < 0:
        raise bound_exceeded(max_cycles)
    (p0, s0), (p1, s1) = streams
    n0, n1 = _successors(m, s0), _successors(m, s1)
    period = 2 * rot if rot else 1
    ph = phase - t

    # Phase 1 — the minimal period lam.
    hare = list(busy)
    b0, b1 = p0, p1
    limit = 3 * max_cycles + 4
    power = 1
    total = 0
    now = t
    lam = 0
    anchors: list[tuple[int, int, int, list[int]]] = []
    while not lam:
        window = min(power, limit + 1 - total)
        k0, k1, anchor, kept = b0, b1, now, hare.copy()
        anchors.append((anchor, k0, k1, kept))
        c0 = c1 = 0
        for u in range(now, now + window):
            g0 = hare[b0] <= u
            g1 = hare[b1] <= u
            if g0 and g1 and (sect[b0] == sect[b1] if same_cpu else b0 == b1):
                if rot and ((u + ph) // rot) & 1:
                    g0 = False
                else:
                    g1 = False
            if g0:
                hare[b0] = u + n_c
                c0 += 1
                b0 = n0[b0]
            if g1:
                hare[b1] = u + n_c
                c1 += 1
                b1 = n1[b1]
            if (
                b0 == k0
                and b1 == k1
                and (u + 1 - anchor) % period == 0
                and [v - u - 1 if v > u + 1 else 0 for v in hare]
                == [v - anchor if v > anchor else 0 for v in kept]
            ):
                lam = u + 1 - anchor
                break
        else:
            total += window
            if window < power:
                raise bound_exceeded(max_cycles)
            power <<= 1
            now += window
    if lam > max_cycles:
        raise bound_exceeded(max_cycles)

    # Phase 2 — the minimal transient mu: the first clock u at which
    # the walker from t meets the one from t + lam (at clock w).
    w = t + lam
    a, l0, l1, lead = next(x for x in reversed(anchors) if x[0] <= w)
    l0, l1 = run_pair_span(
        m, n_c, sect, same_cpu, rot, phase + a - t,
        ((l0, s0), (l1, s1)), lead, a, w - a,
    )[:2]
    trail = list(busy)
    r0, r1 = p0, p1
    u = t
    while not (
        r0 == l0
        and r1 == l1
        and [v - u if v > u else 0 for v in trail]
        == [v - w if v > w else 0 for v in lead]
    ):
        if w - t >= max_cycles:
            raise bound_exceeded(max_cycles)
        g0 = trail[r0] <= u
        g1 = trail[r1] <= u
        if g0 and g1 and (sect[r0] == sect[r1] if same_cpu else r0 == r1):
            if rot and ((u + ph) // rot) & 1:
                g0 = False
            else:
                g1 = False
        if g0:
            trail[r0] = u + n_c
            r0 = n0[r0]
        if g1:
            trail[r1] = u + n_c
            r1 = n1[r1]
        g0 = lead[l0] <= w
        g1 = lead[l1] <= w
        if g0 and g1 and (sect[l0] == sect[l1] if same_cpu else l0 == l1):
            if rot and ((w + ph) // rot) & 1:
                g0 = False
            else:
                g1 = False
        if g0:
            lead[l0] = w + n_c
            l0 = n0[l0]
        if g1:
            lead[l1] = w + n_c
            l1 = n1[l1]
        u += 1
        w += 1
    _record_steady(u - t, lam)
    return u - t, lam, (c0, c1)


class FlatSim:
    """One workload's state in flat integer lists, steppable per clock.

    Semantically identical to :class:`repro.sim.engine.Engine` for
    infinite constant-stride streams (the property suite cross-checks
    every steady outcome); keeps no statistics, no trace, and allocates
    nothing per clock on the conflict-free path.  ``policy`` is the one
    arbitration input and part of the simulated state.
    """

    __slots__ = (
        "m",
        "n_c",
        "n",
        "sect",
        "cpu",
        "pos",
        "stride",
        "policy",
        "static_rules",
        "rotation",
        "busy",
        "grants",
        "cycle",
        "ports",
    )

    def __init__(
        self,
        *,
        m: int,
        n_c: int,
        sect: Sequence[int],
        cpus: Sequence[int],
        positions: Sequence[int],
        strides: Sequence[int],
        policy: "ArbiterPolicy",
        busy: Sequence[int] | None = None,
        start_cycle: int = 0,
    ) -> None:
        from ..sim.arbiter import PriorityArbiter
        from ..sim.priority import FixedPriority

        self.m = m
        self.n_c = n_c
        self.n = len(positions)
        self.sect = list(sect)
        self.cpu = list(cpus)
        self.pos = [b % m for b in positions]
        self.stride = [d % m for d in strides]
        self.policy = policy
        # A plain priority arbiter over fixed rules is stateless: its
        # snapshot needs no compare and walkers may share it.
        # ``rotation`` is the policy's fused pair shape, as
        # :func:`pair_rotation` reads it from a job spec, or None.
        self.static_rules = False
        self.rotation: int | None = None
        if type(policy) is PriorityArbiter:
            prio, intra = policy.priority, policy.intra
            self.static_rules = isinstance(prio, FixedPriority) and isinstance(
                intra, FixedPriority
            )
            if self.n == 2:
                if self.static_rules:
                    self.rotation = 0
                elif intra is prio:
                    self.rotation = _rotation_block(prio)
        # Banks are tracked as absolute busy-until clocks (bank ``b`` is
        # free at clock ``t`` iff ``busy[b] <= t``), not countdowns: a
        # grant writes one timestamp and the per-clock decrement sweep
        # of the countdown representation disappears entirely.  ``busy``
        # arrives as engine-style countdown counters.
        self.busy = (
            [0] * m
            if busy is None
            else [start_cycle + c if c else 0 for c in busy]
        )
        self.grants = [0] * self.n
        # Absolute clock fed to the policy: policies cloned from a
        # mid-run engine carry timestamps in the engine's numbering.
        self.cycle = start_cycle
        self.ports = list(range(self.n))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_job(cls, job: "SimJob", sect: Sequence[int] | None = None) -> "FlatSim":
        """Fresh simulation of ``job`` from its start state.

        ``sect`` lets batch drivers share one precomputed bank→section
        table across every job with the same memory shape.
        """
        from ..sim.arbiter import make_arbiter

        return cls(
            m=job.banks,
            n_c=job.bank_cycle,
            sect=section_table(job.config) if sect is None else sect,
            cpus=job.cpus,
            positions=[b for b, _ in job.streams],
            strides=[d for _, d in job.streams],
            policy=make_arbiter(
                len(job.streams),
                job.banks,
                priority=job.priority,
                intra_priority=job.intra_priority,
                arbiter=job.arbiter,
                regulate=job.regulate,
            ),
        )

    def clone_start(self) -> "FlatSim":
        """Cheap structural copy of this (never-stepped) template.

        Only valid for static rules, whose policy is stateless and can
        be shared between walkers; read-only tables (``sect``, ``cpu``,
        ``stride``) are shared, mutable state is copied.
        """
        new = FlatSim.__new__(FlatSim)
        new.m = self.m
        new.n_c = self.n_c
        new.n = self.n
        new.sect = self.sect
        new.cpu = self.cpu
        new.pos = self.pos.copy()
        new.stride = self.stride
        new.policy = self.policy
        new.static_rules = self.static_rules
        new.rotation = self.rotation
        new.busy = self.busy.copy()
        new.grants = self.grants.copy()
        new.cycle = self.cycle
        new.ports = self.ports
        return new

    # ------------------------------------------------------------------
    # One clock period — the exact three-phase arbitration of
    # Engine.step(), on flat state.
    # ------------------------------------------------------------------
    def _step_generic(self) -> None:
        """One clock, the policy ranking contenders and (when regulated)
        vetoing admissions — the flat mirror of ``Engine.step``."""
        busy = self.busy
        pos = self.pos
        cycle = self.cycle
        pol = self.policy
        # Phase 1 — bank conflicts: active banks reject everyone.
        free = [p for p in self.ports if busy[pos[p]] <= cycle]
        # Phase 1b — regulator vetoes.
        if pol.regulated and free:
            free = [p for p in free if pol.admit(p, pos[p], cycle)]
        # Phase 2 — section conflicts: per (cpu, path) at most one.
        if len(free) > 1:
            cpu = self.cpu
            sect = self.sect
            groups: dict[tuple[int, int], list[int]] = {}
            for p in free:
                key = (cpu[p], sect[pos[p]])
                g = groups.get(key)
                if g is None:
                    groups[key] = [p]
                else:
                    g.append(p)
            if len(groups) != len(free):
                free = [
                    members[0]
                    if len(members) == 1
                    else pol.rank_section(members, cycle)
                    for members in groups.values()
                ]
            # Phase 3 — simultaneous bank conflicts: per bank at most
            # one grant (cross-CPU by construction after phase 2).
            if len(free) > 1:
                banks: dict[int, list[int]] = {}
                for p in free:
                    b = pos[p]
                    g = banks.get(b)
                    if g is None:
                        banks[b] = [p]
                    else:
                        g.append(p)
                if len(banks) != len(free):
                    free = [
                        members[0]
                        if len(members) == 1
                        else pol.rank_bank(sorted(members), b, cycle)
                        for b, members in banks.items()
                    ]
        # Commit grants.
        m = self.m
        until = cycle + self.n_c
        stride = self.stride
        grants = self.grants
        for p in free:
            b = pos[p]
            busy[b] = until
            grants[p] += 1
            pol.granted(p, b, cycle)
            b += stride[p]
            pos[p] = b - m if b >= m else b
        # Clock edge.
        pol.tick(cycle)
        self.cycle = cycle + 1

    def run_span(self, clocks: int) -> None:
        """Advance a fixed number of clock periods."""
        step = self._step_generic
        for _ in range(clocks):
            step()

    def walk_until_match(self, key: StateKey, window: int) -> int:
        """Step up to ``window`` clocks, checking for ``key`` after each.

        Returns the number of steps taken when the state matched, or
        ``-1`` when the window closed without a match (the walker then
        sits exactly ``window`` steps further on).
        """
        step = self._step_generic
        matches = self.matches
        for taken in range(1, window + 1):
            step()
            if matches(key):
                return taken
        return -1

    # ------------------------------------------------------------------
    # State identity (for cycle detection)
    # ------------------------------------------------------------------
    def _busy_counters(self) -> list[int]:
        """Busy-until clocks as clock-invariant remaining counters."""
        t = self.cycle
        return [u - t if u > t else 0 for u in self.busy]

    def key(self) -> StateKey:
        """Copy of the full comparable state (the detector's anchor)."""
        return (self.pos.copy(), self.policy.snapshot(), self._busy_counters())

    def matches(self, key: StateKey) -> bool:
        """Whether the live state equals an anchor (short-circuiting).

        Positions discriminate almost every clock, so the O(m) busy
        normalisation only happens on the rare position collision.
        """
        if self.pos != key[0]:
            return False
        if not self.static_rules and self.policy.snapshot() != key[1]:
            return False
        return self._busy_counters() == key[2]

    def same_state(self, other: "FlatSim") -> bool:
        """Whether two walkers of one workload are in the same state
        (the walkers may sit at different absolute clocks)."""
        if self.pos != other.pos:
            return False
        if (
            not self.static_rules
            and self.policy.snapshot() != other.policy.snapshot()
        ):
            return False
        return self._busy_counters() == other._busy_counters()


def find_steady_cycle(
    make: Callable[[], FlatSim], max_cycles: int
) -> tuple[int, int, tuple[int, ...]]:
    """Brent's algorithm over fresh walkers from ``make()``.

    Returns ``(mu, lam, grants)`` where ``mu`` is the minimal transient,
    ``lam`` the minimal period and ``grants`` the per-port grants over
    one period — everything the backends need to report the exact
    steady outcome of the historical first-repeat detector.

    Raises the detector's ``RuntimeError`` iff ``mu + lam > max_cycles``
    (phase 1 is bounded by ``3·max_cycles + 4`` steps, which Brent never
    exceeds while ``mu + lam <= max_cycles``).  A walker in a fused
    pair shape is handed, state and rule phase, to
    :func:`find_pair_cycle`.
    """
    if max_cycles < 0:
        raise bound_exceeded(max_cycles)

    template = make()
    rot = template.rotation
    if rot is not None:
        return find_pair_cycle(
            template.m,
            template.n_c,
            template.sect,
            template.cpu[0] == template.cpu[1],
            rot,
            # A shared rotating rule's snapshot is (phase,) twice over.
            template.policy.snapshot()[0][0] if rot else 0,
            list(zip(template.pos, template.stride)),
            template.busy,
            template.cycle,
            max_cycles,
        )
    # Static-rule workloads spawn walkers by cheap structural copy of
    # one never-stepped template instead of re-deriving the job thrice.
    if template.static_rules:
        make = template.clone_start
        hare = make()
    else:
        hare = template

    # Phase 1 — find the minimal period lam.  The anchor ("tortoise")
    # re-roots at every power of two; transient states never recur, so
    # the first match is at distance exactly lam.  Each power-of-two
    # window runs as one walk-and-compare span; the global step budget
    # (never hit while mu + lam <= max_cycles) caps the windows.
    limit = 3 * max_cycles + 4
    power = 1
    total = 0
    while True:
        anchor = hare.key()
        window = min(power, limit + 1 - total)
        took = hare.walk_until_match(anchor, window)
        if took >= 0:
            lam = took
            break
        total += window
        if window < power:
            raise bound_exceeded(max_cycles)
        power <<= 1
    if lam > max_cycles:
        raise bound_exceeded(max_cycles)

    # Phase 2 — find the minimal transient mu: walk two fresh walkers
    # lam apart until they meet; the meeting point is the first state of
    # the periodic regime, and the walkers' grant counters differ by
    # one period's grants.
    lead = make()
    lead.run_span(lam)
    trail = make()
    mu = 0
    while not trail.same_state(lead):
        if mu + lam >= max_cycles:
            raise bound_exceeded(max_cycles)
        trail._step_generic()
        lead._step_generic()
        mu += 1
    _record_steady(mu, lam)
    return mu, lam, tuple(g1 - g0 for g0, g1 in zip(trail.grants, lead.grants))
