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

Arbitration has one input, the job's
:class:`~repro.sim.arbiter.ArbiterPolicy` — the same protocol object
the reference engine consults — and one per-clock step that ranks
contenders and (when regulated) vetoes admissions through it.

Two-stream jobs run fused loops (span, detector walk, meeting walk)
with every hot value in integer locals and no policy calls per clock,
when the policy is a plain :class:`~repro.sim.arbiter.PriorityArbiter`
whose conflict kinds are both arbitrated by fixed rules or by one
shared ``cyclic`` / ``block-cyclic:N`` rule.  A two-port rotating
rule's state is a function of the clock alone, so the loops read its
phase from the policy snapshot once on entry, compute the winner only
on a conflicting clock, and restore the phase on exit.  LRU rules,
split rules (a separate ``intra_priority`` other than fixed/fixed),
weighted-fair and regulated policies and jobs with three or more
streams step clock by clock.

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
    from ..sim.arbiter import ArbiterPolicy
    from ..sim.priority import PriorityRule
    from .job import SimJob

__all__ = ["FlatSim", "find_steady_cycle"]


def _record_steady(mu: int, lam: int) -> None:
    """Feed the detector's answer to the mu/lam histograms (no-op when
    metrics are off — one None check per steady job, nothing per clock)."""
    reg = _metrics.active_metrics()
    if reg is not None:
        reg.histogram(_names.FASTSIM_STEADY_MU).observe(mu)
        reg.histogram(_names.FASTSIM_STEADY_LAM).observe(lam)

#: One full comparable state: positions, policy snapshot, bank
#: countdowns.  Positions lead because they discriminate fastest.
StateKey = tuple[list[int], tuple, list[int]]


def _rotation_block(rule: "PriorityRule") -> int | None:
    """Clocks per turn of a two-port rotating rule, else ``None``.

    Port 1 is favoured on the second half of every ``2 * block``-clock
    rotation, and the rule's snapshot is its phase in that rotation.
    """
    from ..sim.priority import BlockCyclicPriority, CyclicPriority

    if isinstance(rule, CyclicPriority) and rule.n_ports == 2:
        return 1
    if isinstance(rule, BlockCyclicPriority) and rule.n_ports == 2:
        return rule.block
    return None


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
        "_pair_same_cpu",
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
        # ``rotation`` is the shape the fused two-port loops take: 0 for
        # fixed rules (they never rotate), the block length of one
        # shared rotating rule, and None for everything else.
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
        self._pair_same_cpu = self.n == 2 and self.cpu[0] == self.cpu[1]

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_job(cls, job: "SimJob", sect: Sequence[int] | None = None) -> "FlatSim":
        """Fresh simulation of ``job`` from its start state.

        ``sect`` lets batch drivers share one precomputed bank→section
        table across every job with the same memory shape.
        """
        from ..memory.sections import section_map_for
        from ..sim.arbiter import make_arbiter

        m = job.banks
        if sect is None:
            smap = section_map_for(job.config)
            sect = [smap.section_of(j) for j in range(m)]
        return cls(
            m=m,
            n_c=job.bank_cycle,
            sect=sect,
            cpus=job.cpus,
            positions=[b for b, _ in job.streams],
            strides=[d for _, d in job.streams],
            policy=make_arbiter(
                len(job.streams),
                m,
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
        new._pair_same_cpu = self._pair_same_cpu
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
        if self.rotation is not None:
            self._run_span_pair(clocks)
            return
        step = self._step_generic
        for _ in range(clocks):
            step()

    # ------------------------------------------------------------------
    # Fused two-port loops.  A conflicting clock ``t`` (both ports free
    # and on one section of one CPU, or on one bank across CPUs) grants
    # port 1 iff ``rot and ((t + ph) // rot) & 1``, where ``rot`` is
    # the rotation block (0 for fixed rules: port 0 always wins) and
    # ``ph`` the phase offset read once on entry; the policy is not
    # called per clock, and the rule's phase is restored on exit.
    # ------------------------------------------------------------------
    def _phase(self) -> int:
        """Offset ``ph`` such that the rotating rule's snapshot at clock
        ``t`` is ``(t + ph) % (2 * rotation)`` (0 for fixed rules).

        The policy's snapshot is ``(priority, intra)``, one shared rule
        in both places.
        """
        rot = self.rotation
        if not rot:
            return 0
        return (self.policy.snapshot()[0][0] - self.cycle) % (2 * rot)

    def _write_back(self, b0: int, b1: int, c0: int, c1: int, t: int, ph: int) -> None:
        """Write a fused loop's locals back, the rule's phase included."""
        self.pos[0] = b0
        self.pos[1] = b1
        self.grants[0] = c0
        self.grants[1] = c1
        self.cycle = t
        rot = self.rotation
        if rot:
            phase = ((t + ph) % (2 * rot),)
            self.policy.restore((phase, phase))

    def _run_span_pair(self, clocks: int) -> None:
        """Fused two-port loop: one frame for the whole span, all hot
        state carried in integer locals and written back on exit."""
        busy = self.busy
        sect = self.sect
        s0, s1 = self.stride
        n_c = self.n_c
        m = self.m
        same_cpu = self._pair_same_cpu
        rot = self.rotation
        ph = self._phase()
        b0, b1 = self.pos
        c0, c1 = self.grants
        t = self.cycle
        for _ in range(clocks):
            g0 = busy[b0] <= t
            g1 = busy[b1] <= t
            if (
                g0
                and g1
                and (sect[b0] == sect[b1] if same_cpu else b0 == b1)
            ):
                if rot and ((t + ph) // rot) & 1:
                    g0 = False
                else:
                    g1 = False
            until = t + n_c
            if g0:
                busy[b0] = until
                c0 += 1
                b0 += s0
                if b0 >= m:
                    b0 -= m
            if g1:
                busy[b1] = until
                c1 += 1
                b1 += s1
                if b1 >= m:
                    b1 -= m
            t += 1
        self._write_back(b0, b1, c0, c1, t, ph)

    # ------------------------------------------------------------------
    # Bulk detector loops
    # ------------------------------------------------------------------
    def walk_until_match(self, key: StateKey, window: int) -> int:
        """Step up to ``window`` clocks, checking for ``key`` after each.

        Returns the number of steps taken when the state matched, or
        ``-1`` when the window closed without a match (the walker then
        sits exactly ``window`` steps further on).
        """
        if self.rotation is not None:
            return self._walk_until_match_pair(key, window)
        step = self._step_generic
        matches = self.matches
        for taken in range(1, window + 1):
            step()
            if matches(key):
                return taken
        return -1

    def _walk_until_match_pair(self, key: StateKey, window: int) -> int:
        """Fused step-and-compare for the two-port shapes.

        The position compare is the only per-clock check; the rule's
        phase and the O(m) busy normalisation are compared on the rare
        position collision (fixed rules have one phase, so theirs always
        matches).
        """
        busy = self.busy
        sect = self.sect
        s0, s1 = self.stride
        n_c = self.n_c
        m = self.m
        same_cpu = self._pair_same_cpu
        rot = self.rotation
        ph = self._phase()
        period = 2 * rot if rot else 1
        k0, k1 = key[0]
        kph = key[1][0][0] if rot else 0
        kbusy = key[2]
        b0, b1 = self.pos
        c0, c1 = self.grants
        t = self.cycle
        taken = 0
        found = -1
        while taken < window:
            g0 = busy[b0] <= t
            g1 = busy[b1] <= t
            if (
                g0
                and g1
                and (sect[b0] == sect[b1] if same_cpu else b0 == b1)
            ):
                if rot and ((t + ph) // rot) & 1:
                    g0 = False
                else:
                    g1 = False
            until = t + n_c
            if g0:
                busy[b0] = until
                c0 += 1
                b0 += s0
                if b0 >= m:
                    b0 -= m
            if g1:
                busy[b1] = until
                c1 += 1
                b1 += s1
                if b1 >= m:
                    b1 -= m
            t += 1
            taken += 1
            if (
                b0 == k0
                and b1 == k1
                and (t + ph) % period == kph
                and [u - t if u > t else 0 for u in busy] == kbusy
            ):
                found = taken
                break
        self._write_back(b0, b1, c0, c1, t, ph)
        return found

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


def _meet_pair(trail: FlatSim, lead: FlatSim, mu_limit: int) -> int:
    """Fused phase-2 meeting loop for the two-port shapes.

    Steps both walkers in lockstep until their (clock-normalised)
    states coincide, returning the step count ``mu`` — or ``-1`` once
    ``mu_limit`` lockstep steps passed without a meeting.  Both sims
    are left at the exit state (positions, grants, clock and rule phase
    written back).
    """
    busy_a = trail.busy
    busy_b = lead.busy
    sect = trail.sect
    s0, s1 = trail.stride
    n_c = trail.n_c
    m = trail.m
    same_cpu = trail._pair_same_cpu
    rot = trail.rotation
    period = 2 * rot if rot else 1
    pa = trail._phase()
    pb = lead._phase()
    a0, a1 = trail.pos
    b0, b1 = lead.pos
    ca0, ca1 = trail.grants
    cb0, cb1 = lead.grants
    ta = trail.cycle
    tb = lead.cycle
    mu = 0
    while True:
        if (
            a0 == b0
            and a1 == b1
            and (ta + pa) % period == (tb + pb) % period
            and [u - ta if u > ta else 0 for u in busy_a]
            == [u - tb if u > tb else 0 for u in busy_b]
        ):
            break
        if mu >= mu_limit:
            mu = -1
            break
        g0 = busy_a[a0] <= ta
        g1 = busy_a[a1] <= ta
        if (
            g0
            and g1
            and (sect[a0] == sect[a1] if same_cpu else a0 == a1)
        ):
            if rot and ((ta + pa) // rot) & 1:
                g0 = False
            else:
                g1 = False
        until = ta + n_c
        if g0:
            busy_a[a0] = until
            ca0 += 1
            a0 += s0
            if a0 >= m:
                a0 -= m
        if g1:
            busy_a[a1] = until
            ca1 += 1
            a1 += s1
            if a1 >= m:
                a1 -= m
        ta += 1
        g0 = busy_b[b0] <= tb
        g1 = busy_b[b1] <= tb
        if (
            g0
            and g1
            and (sect[b0] == sect[b1] if same_cpu else b0 == b1)
        ):
            if rot and ((tb + pb) // rot) & 1:
                g0 = False
            else:
                g1 = False
        until = tb + n_c
        if g0:
            busy_b[b0] = until
            cb0 += 1
            b0 += s0
            if b0 >= m:
                b0 -= m
        if g1:
            busy_b[b1] = until
            cb1 += 1
            b1 += s1
            if b1 >= m:
                b1 -= m
        tb += 1
        mu += 1
    trail._write_back(a0, a1, ca0, ca1, ta, pa)
    lead._write_back(b0, b1, cb0, cb1, tb, pb)
    return mu


def find_steady_cycle(
    make: Callable[[], FlatSim], max_cycles: int
) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    """Brent's algorithm over fresh walkers from ``make()``.

    Returns ``(mu, lam, grants_at_mu, grants_at_mu_plus_lam)`` where
    ``mu`` is the minimal transient, ``lam`` the minimal period and the
    grant tuples are cumulative per-port grants after ``mu`` and
    ``mu + lam`` clocks — everything the backends need to report the
    exact steady outcome of the historical first-repeat detector.

    Raises the detector's ``RuntimeError`` iff ``mu + lam > max_cycles``
    (phase 1 is bounded by ``3·max_cycles + 4`` steps, which Brent never
    exceeds while ``mu + lam <= max_cycles``).
    """

    def exhausted() -> RuntimeError:
        return RuntimeError(
            f"no cyclic state within {max_cycles} cycles "
            "(state space exhausted the bound)"
        )

    if max_cycles < 0:
        raise exhausted()

    # Static-rule workloads spawn walkers by cheap structural copy of
    # one never-stepped template instead of re-deriving the job thrice.
    template = make()
    if template.static_rules:
        make = template.clone_start
        hare = make()
    else:
        hare = template

    # Phase 1 — find the minimal period lam.  The anchor ("tortoise")
    # re-roots at every power of two; transient states never recur, so
    # the first match is at distance exactly lam.  Each power-of-two
    # window runs as one fused walk-and-compare span; the global step
    # budget (never hit while mu + lam <= max_cycles) caps the windows.
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
            raise exhausted()
        power <<= 1
    if lam > max_cycles:
        raise exhausted()

    # Phase 2 — find the minimal transient mu: walk two fresh walkers
    # lam apart until they meet; the meeting point is the first state of
    # the periodic regime, and the walkers' grant counters are exactly
    # the cumulative grants after mu and mu + lam clocks.
    lead = make()
    lead.run_span(lam)
    trail = make()
    if trail.rotation is not None:
        mu = _meet_pair(trail, lead, max_cycles - lam)
        if mu < 0:
            raise exhausted()
        _record_steady(mu, lam)
        return mu, lam, tuple(trail.grants), tuple(lead.grants)
    mu = 0
    while not trail.same_state(lead):
        if mu + lam >= max_cycles:
            raise exhausted()
        trail._step_generic()
        lead._step_generic()
        mu += 1
    _record_steady(mu, lam)
    return mu, lam, tuple(trail.grants), tuple(lead.grants)
