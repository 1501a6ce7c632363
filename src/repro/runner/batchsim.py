"""Lockstep structure-of-arrays simulation of whole job populations.

Tier B's :class:`~repro.runner.fastsim.FlatSim` steps one job at a time
over flat Python lists; the sweeps this repository actually runs (the
regime census, the start-space profiles, the planned bandwidth-oracle
precomputation) evaluate *thousands* of near-identical jobs.  This
module advances an entire population in lockstep as NumPy
structure-of-arrays state:

- bank busy-until clocks as one flat ``(jobs * m_max,)`` int64 array
  (row-offset indexed, so a gather/scatter touches every lane at once),
- per-port positions, strides, CPU owners and grant counters as
  ``(n_max, jobs)`` int64 arrays,
- priority-rule state vectorized per rule kind (fixed / rotating /
  LRU) — the same tiny state machines as
  :mod:`repro.sim.priority`, expressed as per-lane tick counters and
  last-grant timestamps,
- per-lane Brent steady-cycle detection sharing one global anchor
  schedule (anchors at cumulative steps ``2^k - 1``, exactly the
  power-of-two re-rooting of :func:`repro.runner.fastsim.
  find_steady_cycle`), with an active-lane mask so converged lanes
  retire from the stepped population without stalling the rest.

Bit-identity contract: for every lane the reported ``(mu, lam,
per-port grants)`` triple — and the ``RuntimeError`` raised when
``mu + lam`` exceeds ``max_cycles`` — is exactly what the fast backend
computes for that job alone.  The path harness ``tests/property/paths.py``
locks this over randomized mixed populations.

Exactness discipline: all state arrays are ``int64`` (or ``bool_``)
and every operation on them is integer arithmetic — no float dtype
ever appears, so grant counts and periods convert losslessly to the
exact ``Fraction`` bandwidths at the backend boundary.  The reprolint
``EXACT001`` rule enforces this mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np
from numpy.typing import NDArray

from ..memory.config import MemoryConfig
from ..obs import metrics as _metrics
from ..obs import names as _names
from ..sim.priority import parse_priority
from .analytic import BATCH_MIN_POPULATION
from .fastsim import section_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .job import SimJob

__all__ = [
    "BATCH_MIN_POPULATION",
    "run_span_batch",
    "run_steady_batch",
]

IntArray = NDArray[np.int64]
BoolArray = NDArray[np.bool_]

#: Shared bank→section tables, keyed by the memory shape triple so a
#: lookup never has to construct a :class:`MemoryConfig`.
SectCache = dict[tuple[int, "int | None", str], IntArray]

#: Tail handoff: once fewer than ``max(_TAIL_MIN_LANES, J//16)`` lanes
#: survive after ``_TAIL_MIN_STEPS`` lockstep steps, the stragglers run
#: individually on :class:`~repro.runner.fastsim.FlatSim` instead of
#: dragging near-empty vector wavefronts along.
_TAIL_MIN_LANES = 32
_TAIL_MIN_STEPS = 1024

#: Priority-rule kind codes, by the kind :func:`~repro.sim.priority.
#: parse_priority` reads.  ``cyclic`` is ``block-cyclic:1`` — the two
#: rules share choose offset *and* snapshot once the tick counter is
#: kept raw (CyclicPriority stores ``ticks % n``, which equals
#: ``ticks % (1·n)``).
_FIXED = 0
_ROT = 1
_LRU = 2
_KIND_CODES = {"fixed": _FIXED, "cyclic": _ROT, "block-cyclic": _ROT, "lru": _LRU}

#: Last-grant sentinel for padding ports (lanes with fewer than
#: ``n_max`` streams).  It must sort *after* every live port's
#: ``(last_grant, port)`` key so padded LRU ranks are a constant suffix
#: and full-width rank equality coincides with real-width equality.
_LRU_PAD = 1 << 40


def _rule_code(name: str) -> tuple[int, int]:
    """``(kind code, block)`` for a priority spec."""
    kind, block = parse_priority(name)
    return _KIND_CODES[kind], block


def _sect_table(job: "SimJob", cache: SectCache) -> IntArray:
    """Shared bank→section table for one memory shape."""
    key = (job.banks, job.sections, job.section_mapping)
    table = cache.get(key)
    if table is None:
        table = np.array(section_table(job.config), dtype=np.int64)
        cache[key] = table
    return table


def _pair_fixed_job(job: "SimJob") -> bool:
    """Whether a job fits the specialised two-port fixed-rule kernel
    (the same shape :class:`FlatSim` special-cases)."""
    return (
        len(job.streams) == 2
        and job.priority == "fixed"
        and job.intra_priority in (None, "fixed")
    )


@dataclass(frozen=True)
class LaneSteady:
    """One lane's steady answer: minimal transient, minimal period and
    the cumulative per-port grants after ``mu`` and ``mu + lam`` clocks
    (identical to :func:`repro.runner.fastsim.find_steady_cycle`)."""

    mu: int
    lam: int
    grants0: tuple[int, ...]
    grants1: tuple[int, ...]


@dataclass
class BatchStats:
    """Counters the batch drivers accumulate for ``repro.obs``.

    ``lanes`` — jobs advanced in lockstep; ``steps`` — vectorized
    wavefronts executed; ``waves`` — size of each retirement wave;
    ``populations`` — lanes per SoA group; ``occupancy`` — active-mask
    occupancy (percent) sampled at each anchor.
    """

    lanes: int = 0
    steps: int = 0
    waves: list[int] = field(default_factory=list)
    populations: list[int] = field(default_factory=list)
    occupancy: list[int] = field(default_factory=list)


class BatchSim:
    """A population of jobs as structure-of-arrays lockstep state.

    All per-lane state lives in ``(n_max, J)`` / ``(J,)`` / flat
    ``(J * m_max,)`` int64 arrays; one :meth:`step` call advances every
    lane selected by its boolean ``act`` mask through the exact
    three-phase arbitration of :class:`~repro.runner.fastsim.FlatSim`.
    """

    def __init__(
        self,
        jobs: Sequence["SimJob"],
        sect_tables: SectCache | None = None,
    ) -> None:
        if not jobs:
            raise ValueError("need at least one job")
        if sect_tables is None:
            sect_tables = {}
        J = len(jobs)
        n_max = max(len(job.streams) for job in jobs)
        m_max = max(job.banks for job in jobs)
        self.J = J
        self.n_max = n_max
        self.m_max = m_max

        # Bulk column construction: one Python list comprehension per
        # field, then a single array conversion (per-element scalar
        # stores would dominate the whole setup for census-sized
        # populations).
        self.m_arr = np.array([job.banks for job in jobs], dtype=np.int64)
        self.n_c_arr = np.array(
            [job.bank_cycle for job in jobs], dtype=np.int64
        )
        self.n_arr = np.array(
            [len(job.streams) for job in jobs], dtype=np.int64
        )
        self.t = np.zeros(J, dtype=np.int64)
        self.pos = np.array(
            [
                [
                    job.streams[p][0] % job.banks
                    if p < len(job.streams)
                    else 0
                    for job in jobs
                ]
                for p in range(n_max)
            ],
            dtype=np.int64,
        )
        self.stride = np.array(
            [
                [
                    job.streams[p][1] % job.banks
                    if p < len(job.streams)
                    else 0
                    for job in jobs
                ]
                for p in range(n_max)
            ],
            dtype=np.int64,
        )
        self.cpu = np.array(
            [
                [
                    job.cpus[p] if p < len(job.cpus) else 0
                    for job in jobs
                ]
                for p in range(n_max)
            ],
            dtype=np.int64,
        )
        self.live = np.arange(n_max, dtype=np.int64)[:, None] < self.n_arr
        self.grants = np.zeros((n_max, J), dtype=np.int64)
        prio_codes = [_rule_code(job.priority) for job in jobs]
        intra_codes = [
            prio_codes[j]
            if job.intra_priority is None
            else _rule_code(job.intra_priority)
            for j, job in enumerate(jobs)
        ]
        self.prio_kind = np.array(
            [k for k, _ in prio_codes], dtype=np.int64
        )
        self.prio_block = np.array(
            [b for _, b in prio_codes], dtype=np.int64
        )
        self.prio_off = np.zeros(J, dtype=np.int64)
        self.intra_kind = np.array(
            [k for k, _ in intra_codes], dtype=np.int64
        )
        self.intra_block = np.array(
            [b for _, b in intra_codes], dtype=np.int64
        )
        self.intra_off = np.zeros(J, dtype=np.int64)
        self.same_rule = np.array(
            [job.intra_priority is None for job in jobs], dtype=np.bool_
        )
        self.prio_last = np.where(
            self.live, np.int64(-1), np.int64(_LRU_PAD)
        )
        self.intra_last = self.prio_last.copy()
        self._busy_flat = np.zeros(J * m_max, dtype=np.int64)
        # Group lanes by memory shape so each distinct section table is
        # broadcast once instead of copied per lane.
        sect2d = np.zeros((J, m_max), dtype=np.int64)
        shape_lanes: dict[tuple[int, "int | None", str], list[int]] = {}
        for j, job in enumerate(jobs):
            shape_lanes.setdefault(
                (job.banks, job.sections, job.section_mapping), []
            ).append(j)
        for key, lanes in shape_lanes.items():
            table = _sect_table(jobs[lanes[0]], sect_tables)
            sect2d[lanes, : key[0]] = table
        self._sect_flat = sect2d.ravel()
        # Lanes whose intra rule is "the same instance as prio" compare
        # and arbitrate section conflicts with the prio keys directly;
        # their separate intra state is inert (kind degraded to fixed).
        self._eff_ikind = np.where(self.same_rule, _FIXED, self.intra_kind)
        self._ro = np.arange(J, dtype=np.int64) * m_max
        self._pidx = np.arange(n_max, dtype=np.int64).reshape(n_max, 1)
        self._any_lru = bool((self.prio_kind == _LRU).any())
        self._all_same_rule = bool(self.same_rule.all())
        self._static_all = bool(
            (self.prio_kind == _FIXED).all()
            and (self._eff_ikind == _FIXED).all()
        )
        self._pair2 = bool(n_max == 2 and (self.n_arr == 2).all())
        self._pair_fixed = self._pair2 and self._static_all
        if self._pair2:
            self._same01 = self.cpu[0] == self.cpu[1]
            self._pair_any_same_cpu = bool(self._same01.any())
        # Ordered port pairs, pairwise "a better contender beats me"
        # elimination: reproduces the grouped min-by-key choice because
        # rule keys are strict total orders.  Section conflicts only
        # arise within a CPU, simultaneous bank conflicts only across
        # CPUs (same bank implies same section, so same-CPU same-bank
        # pairs die in phase 2) — each phase iterates only the pairs
        # that can matter anywhere in the population.
        self._pairs2: list[tuple[int, int, BoolArray]] = []
        self._pairs3: list[tuple[int, int, BoolArray]] = []
        for p in range(n_max):
            for q in range(n_max):
                if p == q:
                    continue
                both = self.live[p] & self.live[q]
                if not both.any():
                    continue
                cpu_eq = both & (self.cpu[p] == self.cpu[q])
                if cpu_eq.any():
                    self._pairs2.append((p, q, cpu_eq))
                cpu_ne = both & ~cpu_eq
                if cpu_ne.any():
                    self._pairs3.append((p, q, cpu_ne))
        # Populations without rotating/LRU rules have constant keys.
        self._prio_static = bool((self.prio_kind == _FIXED).all())
        self._intra_static = bool((self._eff_ikind == _FIXED).all())
        self._kfix = (
            np.broadcast_to(self._pidx, (n_max, J))
            if (self._prio_static or self._intra_static)
            else None
        )
        self._pos0 = self.pos.copy()
        self._plast0 = self.prio_last.copy()
        self._ilast0 = self.intra_last.copy()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def clone_start(self) -> "BatchSim":
        """Second walker over the same population, at the start state.

        Read-only tables are shared; mutable state is fresh.
        """
        new = BatchSim.__new__(BatchSim)
        new.J = self.J
        new.n_max = self.n_max
        new.m_max = self.m_max
        new.m_arr = self.m_arr
        new.n_c_arr = self.n_c_arr
        new.n_arr = self.n_arr
        new.stride = self.stride
        new.cpu = self.cpu
        new.live = self.live
        new.prio_kind = self.prio_kind
        new.prio_block = self.prio_block
        new.intra_kind = self.intra_kind
        new.intra_block = self.intra_block
        new.same_rule = self.same_rule
        new._eff_ikind = self._eff_ikind
        new._sect_flat = self._sect_flat
        new._ro = self._ro
        new._pidx = self._pidx
        new._any_lru = self._any_lru
        new._all_same_rule = self._all_same_rule
        new._static_all = self._static_all
        new._pair2 = self._pair2
        new._pair_fixed = self._pair_fixed
        if self._pair2:
            new._same01 = self._same01
            new._pair_any_same_cpu = self._pair_any_same_cpu
        new._pairs2 = self._pairs2
        new._pairs3 = self._pairs3
        new._prio_static = self._prio_static
        new._intra_static = self._intra_static
        new._kfix = self._kfix
        new._pos0 = self._pos0
        new._plast0 = self._plast0
        new._ilast0 = self._ilast0
        new.t = np.zeros(self.J, dtype=np.int64)
        new.pos = self._pos0.copy()
        new.grants = np.zeros((self.n_max, self.J), dtype=np.int64)
        new.prio_off = np.zeros(self.J, dtype=np.int64)
        new.intra_off = np.zeros(self.J, dtype=np.int64)
        new.prio_last = self._plast0.copy()
        new.intra_last = self._ilast0.copy()
        new._busy_flat = np.zeros(self.J * self.m_max, dtype=np.int64)
        return new

    def compact(self, keep: BoolArray) -> None:
        """Drop retired lanes, keeping the survivors contiguous.

        Vector step cost is O(J) whether lanes are active or not;
        compacting at anchor boundaries keeps wavefronts dense.  The
        caller must re-slice any per-lane bookkeeping (original-index
        map, per-lane bounds) with the same mask.
        """
        Jn = int(keep.sum())
        for name in (
            "m_arr",
            "n_c_arr",
            "n_arr",
            "t",
            "prio_kind",
            "prio_block",
            "prio_off",
            "intra_kind",
            "intra_block",
            "intra_off",
            "same_rule",
            "_eff_ikind",
        ):
            setattr(self, name, getattr(self, name)[keep])
        for name in (
            "pos",
            "stride",
            "cpu",
            "live",
            "grants",
            "prio_last",
            "intra_last",
            "_pos0",
            "_plast0",
            "_ilast0",
        ):
            setattr(self, name, getattr(self, name)[:, keep])
        self._sect_flat = (
            self._sect_flat.reshape(self.J, self.m_max)[keep].ravel()
        )
        self._busy_flat = (
            self._busy_flat.reshape(self.J, self.m_max)[keep].ravel()
        )
        self.J = Jn
        self._ro = np.arange(Jn, dtype=np.int64) * self.m_max
        if self._pair2:
            self._same01 = self._same01[keep]
            self._pair_any_same_cpu = bool(self._same01.any())
        self._pairs2 = [
            (p, q, mask[keep]) for p, q, mask in self._pairs2
        ]
        self._pairs3 = [
            (p, q, mask[keep]) for p, q, mask in self._pairs3
        ]
        if self._kfix is not None:
            self._kfix = np.broadcast_to(self._pidx, (self.n_max, Jn))
        self._all_same_rule = bool(self.same_rule.all())
        self._any_lru = bool((self.prio_kind == _LRU).any())

    # ------------------------------------------------------------------
    # One clock period for every lane selected by ``act``
    # ------------------------------------------------------------------
    def step(self, act: BoolArray) -> None:
        if self._pair_fixed:
            self._step_pair_fixed(act)
        elif self._pair2:
            self._step_pair_generic(act)
        else:
            self._step_generic(act)

    def _step_pair_fixed(self, act: BoolArray) -> None:
        """Two streams, fixed rules: every branch of the generic step
        resolved at construction time (bit-identical trajectories)."""
        t = self.t
        busy = self._busy_flat
        b0 = self.pos[0]
        b1 = self.pos[1]
        flat0 = b0 + self._ro
        flat1 = b1 + self._ro
        f0 = act & (busy[flat0] <= t)
        f1 = act & (busy[flat1] <= t)
        if self._pair_any_same_cpu:
            coll = np.where(
                self._same01,
                self._sect_flat[flat0] == self._sect_flat[flat1],
                b0 == b1,
            )
        else:
            coll = b0 == b1
        # Section conflict (same CPU) or simultaneous bank conflict
        # (across CPUs): fixed priority grants port 0.
        f1 &= ~(f0 & coll)
        until = t + self.n_c_arr
        busy[flat0[f0]] = until[f0]
        busy[flat1[f1]] = until[f1]
        self.grants[0] += f0
        self.grants[1] += f1
        m = self.m_arr
        nb0 = b0 + self.stride[0]
        nb0 = np.where(nb0 >= m, nb0 - m, nb0)
        self.pos[0] = np.where(f0, nb0, b0)
        nb1 = b1 + self.stride[1]
        nb1 = np.where(nb1 >= m, nb1 - m, nb1)
        self.pos[1] = np.where(f1, nb1, b1)
        self.t = t + act

    def _step_pair_generic(self, act: BoolArray) -> None:
        """Two streams, arbitrary rules: 1-D row kernel with the
        pairwise winner decision resolved per rule kind (no 2-D
        temporaries, no generic key build)."""
        t = self.t
        busy = self._busy_flat
        b0 = self.pos[0]
        b1 = self.pos[1]
        flat0 = b0 + self._ro
        flat1 = b1 + self._ro
        f0 = act & (busy[flat0] <= t)
        f1 = act & (busy[flat1] <= t)
        both = f0 & f1
        if both.any():
            if self._pair_any_same_cpu:
                sect_conf = both & self._same01 & (
                    self._sect_flat[flat0] == self._sect_flat[flat1]
                )
                bank_conf = both & ~self._same01 & (b0 == b1)
            else:
                sect_conf = np.zeros_like(both)
                bank_conf = both & (b0 == b1)
            if sect_conf.any() or bank_conf.any():
                w1p = self._pair_port1_wins(
                    self.prio_kind, self.prio_off, self.prio_block,
                    self.prio_last,
                )
                if self._all_same_rule:
                    w1s = w1p
                else:
                    w1i = self._pair_port1_wins(
                        self._eff_ikind, self.intra_off,
                        self.intra_block, self.intra_last,
                    )
                    w1s = np.where(self.same_rule, w1p, w1i)
                f0 &= ~(sect_conf & w1s) & ~(bank_conf & w1p)
                f1 &= ~(sect_conf & ~w1s) & ~(bank_conf & ~w1p)
        until = t + self.n_c_arr
        busy[flat0[f0]] = until[f0]
        busy[flat1[f1]] = until[f1]
        self.grants[0] += f0
        self.grants[1] += f1
        if self._any_lru:
            lruk = self.prio_kind == _LRU
            self.prio_last[0] = np.where(f0 & lruk, t, self.prio_last[0])
            self.prio_last[1] = np.where(f1 & lruk, t, self.prio_last[1])
        m = self.m_arr
        nb0 = b0 + self.stride[0]
        nb0 = np.where(nb0 >= m, nb0 - m, nb0)
        self.pos[0] = np.where(f0, nb0, b0)
        nb1 = b1 + self.stride[1]
        nb1 = np.where(nb1 >= m, nb1 - m, nb1)
        self.pos[1] = np.where(f1, nb1, b1)
        self.prio_off += act
        self.intra_off += act
        self.t = t + act

    def _pair_port1_wins(
        self, kind: IntArray, off: IntArray, block: IntArray, last: IntArray
    ) -> BoolArray:
        """Whether port 1 beats port 0 under each lane's rule (two-port
        populations only): a rotating rule favours port 1 exactly when
        its offset phase is 1, LRU when port 1's last grant is older.
        Fixed lanes stay False — port 0 wins."""
        w1 = np.zeros(self.J, dtype=np.bool_)
        rot = kind == _ROT
        if rot.any():
            w1 |= rot & (((off // block) % 2) == 1)
        lru = kind == _LRU
        if lru.any():
            w1 |= lru & (last[1] < last[0])
        return w1

    def _step_generic(self, act: BoolArray) -> None:
        pos = self.pos
        flat = pos + self._ro
        # Phase 1 — bank conflicts: active banks reject everyone.
        free = self.live & act & (self._busy_flat[flat] <= self.t)
        if int(free.sum(axis=0).max(initial=0)) > 1:
            g = self._arbitrate(free, flat)
        else:
            g = free
        # Commit grants.
        until = self.t + self.n_c_arr
        gp, gj = np.nonzero(g)
        self._busy_flat[flat[gp, gj]] = until[gj]
        self.grants += g
        if self._any_lru:
            upd = g & (self.prio_kind == _LRU)
            self.prio_last = np.where(upd, self.t, self.prio_last)
        newpos = pos + self.stride
        newpos = np.where(newpos >= self.m_arr, newpos - self.m_arr, newpos)
        self.pos = np.where(g, newpos, pos)
        # Clock edge.
        self.prio_off += act
        self.intra_off += act
        self.t = self.t + act

    def _arbitrate(self, free: BoolArray, flat: IntArray) -> BoolArray:
        """Phases 2 and 3 of the arbitration, pairwise-vectorized.

        Rule keys are strict total orders (ties broken by port index,
        exactly the ascending-order ``min`` of the rule objects), so "p
        loses iff some co-contender has a smaller key" selects the same
        unique winner per group as the engine's grouped ``choose``.
        """
        if self._prio_static:
            assert self._kfix is not None
            kp = self._kfix
        else:
            kp = self._keys(
                self.prio_kind, self.prio_off, self.prio_block,
                self.prio_last,
            )
        if self._all_same_rule or (self._prio_static and self._intra_static):
            ik = kp
        elif self._intra_static:
            assert self._kfix is not None
            ik = np.where(self.same_rule, kp, self._kfix)
        else:
            ki = self._keys(
                self._eff_ikind,
                self.intra_off,
                self.intra_block,
                self.intra_last,
            )
            ik = np.where(self.same_rule, kp, ki)
        # Phase 2 — section conflicts: per (cpu, path) at most one.
        sv = self._sect_flat[flat]
        lose = np.zeros_like(free)
        for p, q, cpu_eq in self._pairs2:
            lose[p] |= (
                free[p]
                & free[q]
                & cpu_eq
                & (sv[p] == sv[q])
                & (ik[q] < ik[p])
            )
        w = free & ~lose
        # Phase 3 — simultaneous bank conflicts: per bank at most one
        # (cross-CPU only: same-CPU same-bank pairs died in phase 2,
        # because the section is a function of the bank).
        lose2 = np.zeros_like(free)
        for p, q, cpu_ne in self._pairs3:
            lose2[p] |= (
                w[p]
                & w[q]
                & cpu_ne
                & (flat[p] == flat[q])
                & (kp[q] < kp[p])
            )
        return w & ~lose2

    def _keys(
        self, kind: IntArray, off: IntArray, block: IntArray, last: IntArray
    ) -> IntArray:
        """Composite arbitration keys, smaller wins (strict total order).

        fixed: port index; rotating: distance from the favoured port,
        then port; LRU: last-grant clock, then port.
        """
        rot = kind == _ROT
        if rot.all():
            offset = (off // block) % self.n_arr
            prim = (self._pidx - offset) % self.n_arr
            return prim * self.n_max + self._pidx
        prim = np.zeros((self.n_max, self.J), dtype=np.int64)
        if rot.any():
            offset = (off // block) % self.n_arr
            prim = np.where(rot, (self._pidx - offset) % self.n_arr, prim)
        lru = kind == _LRU
        if lru.any():
            prim = np.where(lru, last + 1, prim)
        return prim * self.n_max + self._pidx

    # ------------------------------------------------------------------
    # State identity (for cycle detection)
    # ------------------------------------------------------------------
    def _busy_rem(self, cols: IntArray | None = None) -> IntArray:
        """Busy-until clocks as clock-invariant remaining counters."""
        busy2 = self._busy_flat.reshape(self.J, self.m_max)
        if cols is None:
            rem = busy2 - self.t[:, None]
        else:
            rem = busy2[cols] - self.t[cols, None]
        return np.maximum(rem, 0)

    def _snap_sub(
        self,
        kind: IntArray,
        off: IntArray,
        block: IntArray,
        last: IntArray,
        n: IntArray,
    ) -> IntArray:
        """Rule-state snapshots for a lane subset, one column per lane.

        Rotating rules: the phase within one full rotation (row 0).
        LRU rules: last-grant ranks over all ``n_max`` rows — padding
        ports carry a constant maximal sentinel, so full-width rank
        equality coincides with the engine's real-width rank equality.
        """
        out = np.zeros((self.n_max, kind.shape[0]), dtype=np.int64)
        rot = kind == _ROT
        if rot.any():
            out[0, rot] = off[rot] % (block[rot] * n[rot])
        lru = kind == _LRU
        if lru.any():
            keys = (last + 1) * self.n_max + self._pidx
            order = np.argsort(keys, axis=0, kind="stable")
            ranks = np.zeros_like(keys)
            np.put_along_axis(
                ranks, order, np.broadcast_to(self._pidx, keys.shape), axis=0
            )
            out[:, lru] = ranks[:, lru]
        return out

    def snap_cols(self, cols: IntArray) -> tuple[IntArray, IntArray]:
        """(prio, intra) rule snapshots for the selected lanes."""
        sp = self._snap_sub(
            self.prio_kind[cols],
            self.prio_off[cols],
            self.prio_block[cols],
            self.prio_last[:, cols],
            self.n_arr[cols],
        )
        si = self._snap_sub(
            self._eff_ikind[cols],
            self.intra_off[cols],
            self.intra_block[cols],
            self.intra_last[:, cols],
            self.n_arr[cols],
        )
        return sp, si

    def snapshot_state(
        self,
    ) -> tuple[IntArray, IntArray, IntArray | None, IntArray | None]:
        """Full comparable state of every lane (the detector's anchor)."""
        a_pos = self.pos.copy()
        a_busy = self._busy_rem()
        if self._static_all:
            return a_pos, a_busy, None, None
        cols = np.arange(self.J, dtype=np.int64)
        a_sp, a_si = self.snap_cols(cols)
        return a_pos, a_busy, a_sp, a_si

    def match_anchor(
        self,
        anchor: tuple[IntArray, IntArray, IntArray | None, IntArray | None],
        active: BoolArray,
    ) -> IntArray:
        """Active lanes whose live state equals their anchor column.

        Positions discriminate almost every clock, so the O(m) busy
        normalisation and the rule snapshots only run on the rare
        position collision.
        """
        a_pos, a_busy, a_sp, a_si = anchor
        pm = active & (self.pos == a_pos).all(axis=0)
        cols = np.nonzero(pm)[0]
        if cols.size == 0:
            return cols
        ok = (self._busy_rem(cols) == a_busy[cols]).all(axis=1)
        if not self._static_all:
            assert a_sp is not None and a_si is not None
            sp, si = self.snap_cols(cols)
            ok &= (sp == a_sp[:, cols]).all(axis=0)
            ok &= (si == a_si[:, cols]).all(axis=0)
        return cols[ok]

    def meet_cols(self, other: "BatchSim", active: BoolArray) -> IntArray:
        """Active lanes where the two walkers are in the same state
        (the walkers may sit at different per-lane clocks)."""
        pm = active & (self.pos == other.pos).all(axis=0)
        cols = np.nonzero(pm)[0]
        if cols.size == 0:
            return cols
        ok = (self._busy_rem(cols) == other._busy_rem(cols)).all(axis=1)
        if not self._static_all:
            sp_a, si_a = self.snap_cols(cols)
            sp_b, si_b = other.snap_cols(cols)
            ok &= (sp_a == sp_b).all(axis=0)
            ok &= (si_a == si_b).all(axis=0)
        return cols[ok]

    def lane_grants(self, col: int) -> tuple[int, ...]:
        """Cumulative per-port grants of one lane."""
        n = int(self.n_arr[col])
        return tuple(self.grants[:n, col].tolist())


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def _compact_anchor(
    anchor: tuple[IntArray, IntArray, IntArray | None, IntArray | None],
    keep: BoolArray,
) -> tuple[IntArray, IntArray, IntArray | None, IntArray | None]:
    """Anchor columns restricted to the kept lanes."""
    a_pos, a_busy, a_sp, a_si = anchor
    return (
        a_pos[:, keep],
        a_busy[keep],
        None if a_sp is None else a_sp[:, keep],
        None if a_si is None else a_si[:, keep],
    )


def _drive_steady(
    jobs: Sequence["SimJob"],
    sect_tables: SectCache,
    stats: BatchStats,
) -> tuple[list[LaneSteady | None], list[int], list[int]]:
    """Brent's detection over one homogeneous SoA group.

    Returns per-job answers plus the sub-indices of lanes that
    exhausted their ``max_cycles`` bound and of lanes handed to the
    scalar tail fallback.
    """
    J0 = len(jobs)
    stats.lanes += J0
    stats.populations.append(J0)
    mc0 = np.array([job.max_cycles for job in jobs], dtype=np.int64)
    lam_arr = np.full(J0, -1, dtype=np.int64)
    errors: list[int] = []
    fallback: list[int] = []
    tail_floor = max(_TAIL_MIN_LANES, J0 // 16)

    # Phase 1 — find each lane's minimal period lam.  One global anchor
    # schedule (cumulative steps 2^k - 1) reproduces FlatSim's
    # power-of-two re-rooting for every lane simultaneously; a lane that
    # walks ``3·max_cycles + 5`` steps without matching its anchor has
    # exhausted its bound.
    sim = BatchSim(jobs, sect_tables)
    mc = mc0
    limit = 3 * mc + 4
    orig = np.arange(J0, dtype=np.int64)
    active = np.ones(sim.J, dtype=np.bool_)
    anchor = sim.snapshot_state()
    anchor_step = 0
    next_anchor = 1
    s = 0
    while True:
        nact = int(active.sum())
        if nact == 0:
            break
        if s >= _TAIL_MIN_STEPS and nact < tail_floor:
            fallback.extend(int(i) for i in orig[active])
            break
        # Keep wavefronts dense: drop retired lanes whenever they are
        # the majority.  The anchor columns compact alongside, so this
        # is safe mid-window.
        if 2 * nact < sim.J:
            sim.compact(active)
            anchor = _compact_anchor(anchor, active)
            mc = mc[active]
            limit = limit[active]
            orig = orig[active]
            active = np.ones(sim.J, dtype=np.bool_)
        if s == next_anchor:
            anchor = sim.snapshot_state()
            anchor_step = s
            next_anchor = 2 * next_anchor + 1
            stats.occupancy.append((nact * 100) // sim.J)
        sim.step(active)
        s += 1
        stats.steps += 1
        cols = sim.match_anchor(anchor, active)
        if cols.size:
            lam = s - anchor_step
            oc = orig[cols]
            bad = lam > mc[cols]
            errors.extend(int(i) for i in oc[bad])
            lam_arr[oc[~bad]] = lam
            active[cols] = False
            stats.waves.append(int(cols.size))
        over = active & (s >= limit + 1)
        if over.any():
            errors.extend(int(i) for i in orig[over])
            active &= ~over
            stats.waves.append(int(over.sum()))

    # Phase 2 — find each lane's minimal transient mu: a lead walker
    # warmed up lam steps and a trail walker from the start advance in
    # lockstep until their states coincide.
    results: list[LaneSteady | None] = [None] * J0
    ph2 = [i for i in range(J0) if lam_arr[i] >= 0]
    if not ph2:
        return results, errors, fallback
    orig2 = np.array(ph2, dtype=np.int64)
    trail = BatchSim([jobs[i] for i in ph2], sect_tables)
    lead = trail.clone_start()
    lam2 = lam_arr[orig2]
    mc2 = mc0[orig2]
    warm = int(lam2.max())
    for k in range(warm):
        lead.step(lam2 > k)
        stats.steps += 1
    active = np.ones(trail.J, dtype=np.bool_)
    s = 0
    while True:
        nact = int(active.sum())
        if nact == 0:
            break
        if s >= _TAIL_MIN_STEPS and nact < tail_floor:
            fallback.extend(int(i) for i in orig2[active])
            break
        if 2 * nact < trail.J:
            trail.compact(active)
            lead.compact(active)
            orig2 = orig2[active]
            lam2 = lam2[active]
            mc2 = mc2[active]
            active = np.ones(trail.J, dtype=np.bool_)
        cols = trail.meet_cols(lead, active)
        if cols.size:
            for c in cols:
                ci = int(c)
                results[int(orig2[ci])] = LaneSteady(
                    mu=s,
                    lam=int(lam2[ci]),
                    grants0=trail.lane_grants(ci),
                    grants1=lead.lane_grants(ci),
                )
            active[cols] = False
            stats.waves.append(int(cols.size))
        over = active & (s + lam2 >= mc2)
        if over.any():
            errors.extend(int(i) for i in orig2[over])
            active &= ~over
            stats.waves.append(int(over.sum()))
        if not active.any():
            break
        trail.step(active)
        lead.step(active)
        s += 1
        stats.steps += 2
    return results, errors, fallback


def _split_groups(jobs: Sequence["SimJob"]) -> list[list[int]]:
    """Population split by kernel: pair-fixed, pair-generic, generic.

    Keeping the two-port lanes apart from wider ones lets the 1-D pair
    kernels run without padded rows dragging the wavefront shape."""
    pf: list[int] = []
    pg: list[int] = []
    gen: list[int] = []
    for i, job in enumerate(jobs):
        if _pair_fixed_job(job):
            pf.append(i)
        elif len(job.streams) == 2:
            pg.append(i)
        else:
            gen.append(i)
    return [idx for idx in (pf, pg, gen) if idx]


def run_steady_batch(
    jobs: Sequence["SimJob"],
    sect_tables: SectCache | None = None,
) -> tuple[list[LaneSteady | None], list[int], list[int], BatchStats]:
    """Steady answers for a population, advanced in lockstep.

    Returns ``(results, exceeded, fallback, stats)``: per-job
    :class:`LaneSteady` (``None`` where undecided), the indices whose
    ``mu + lam`` exceeded ``max_cycles`` (the backend raises the
    engine's ``RuntimeError`` for the first of them), and the indices
    handed to the scalar tail fallback.
    """
    if sect_tables is None:
        sect_tables = {}
    for job in jobs:
        if job.arbiter is not None or job.regulate:
            raise ValueError(
                "the batch core vectorizes only the priority rules; "
                "arbiter-policy jobs take the BatchBackend fallback"
            )
    results: list[LaneSteady | None] = [None] * len(jobs)
    errors: list[int] = []
    fallback: list[int] = []
    stats = BatchStats()
    for idx in _split_groups(jobs):
        sub = [jobs[i] for i in idx]
        res_sub, err_sub, fb_sub = _drive_steady(sub, sect_tables, stats)
        for k, i in enumerate(idx):
            results[i] = res_sub[k]
        errors.extend(idx[k] for k in err_sub)
        fallback.extend(idx[k] for k in fb_sub)
    _emit("steady", stats)
    return results, sorted(errors), sorted(fallback), stats


def run_span_batch(
    jobs: Sequence["SimJob"],
    sect_tables: SectCache | None = None,
) -> tuple[list[tuple[int, ...]], BatchStats]:
    """Fixed-horizon grants for a population, advanced in lockstep.

    Lanes with shorter horizons freeze (their clocks stop) while longer
    ones run on; per-lane grants match a solo :class:`FlatSim` span run
    bit for bit.
    """
    if sect_tables is None:
        sect_tables = {}
    for job in jobs:
        if job.arbiter is not None or job.regulate:
            raise ValueError(
                "the batch core vectorizes only the priority rules; "
                "arbiter-policy jobs take the BatchBackend fallback"
            )
    results: list[tuple[int, ...]] = [()] * len(jobs)
    stats = BatchStats()
    for idx in _split_groups(jobs):
        sub = [jobs[i] for i in idx]
        stats.lanes += len(sub)
        stats.populations.append(len(sub))
        sim = BatchSim(sub, sect_tables)
        cyc = np.array([job.cycles for job in sub], dtype=np.int64)
        top = int(cyc.max())
        for s in range(top):
            sim.step(cyc > s)
            stats.steps += 1
        for k, i in enumerate(idx):
            results[i] = sim.lane_grants(k)
    _emit("span", stats)
    return results, stats


def _emit(mode: str, stats: BatchStats) -> None:
    """Feed the batch-core counters/histograms (no-op when metrics are
    off — one None check per batch, nothing per wavefront)."""
    reg = _metrics.active_metrics()
    if reg is None:
        return
    reg.counter(_names.BATCH_JOBS, mode=mode).inc(stats.lanes)
    reg.counter(_names.BATCH_STEPS, mode=mode).inc(stats.steps)
    for v in stats.populations:
        reg.histogram(_names.BATCH_POPULATION).observe(v)
    for v in stats.waves:
        reg.histogram(_names.BATCH_WAVES).observe(v)
    for v in stats.occupancy:
        reg.histogram(_names.BATCH_OCCUPANCY).observe(v)
