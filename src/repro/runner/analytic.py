"""Tier A: closed-form steady-state answers, straight from the theory.

Large sweeps ask the same question millions of times — "what is the
exact steady state of these streams on this memory?" — and for a big
slice of the parameter space the paper already answers it in closed
form.  This module turns those theorems into a *solver*: given a
:class:`~repro.runner.job.SimJob`, :func:`solve` either returns a
:class:`~repro.runner.job.SimOutcome` **bit-identical to what the
simulation backends would produce** (same exact ``Fraction`` bandwidth,
same minimal period, same per-port grants over that period, same
transient length, same total cycles) or ``None`` — *undecided*, fall
through to simulation.  It never guesses: every decided case rests on a
certificate that pins the whole trajectory, and the property suite
cross-checks decided outcomes against both simulation backends
exhaustively on small machines.

Decided regimes
---------------
Single stream (Theorem 1 + §III-A)
    The return number ``r = m / gcd(m, d)`` fixes everything: a stream
    with ``r >= n_c`` runs at full rate with transient ``n_c - 1`` and
    period ``r``; one with ``r < n_c`` self-conflicts into an
    ``n_c``-clock period with ``r`` grants and transient ``r - 1``.
Bank-disjoint pair (Theorem 2)
    With ``f = gcd(m, d1, d2) > 1`` and start banks in different residue
    classes mod ``f``, the streams never touch a common bank; the joint
    steady state is the independent product of the single-stream forms
    (transient ``max``, period ``lcm``, grants scaled per stream).
Conflict-free pair (Theorem 3 machinery, start-resolved)
    Both streams full-rate and, for every skew ``|j| < n_c``, the
    congruence ``c + j·d1 ≡ 0 (mod gcd(m, d1 - d2))`` unsolvable — no
    clock ever sees a busy or simultaneous bank, so both streams run at
    rate 1 with transient ``n_c - 1`` and period ``lcm(r1, r2)``.

The barrier regime (Theorems 4-7) pins the steady *bandwidth* but not
the transient length for arbitrary starts, so barrier jobs are left to
the simulator — returning ``undecided`` is the honest answer whenever
the full outcome tuple is not certain.

Gates
-----
The certificates describe bank behaviour, so the solver only fires when
arbitration state cannot leak into the steady detector's state key:
priority rules with constant snapshots (any rule is constant for one
port except ``block-cyclic``; two-port jobs require ``fixed``) and
section topologies where path conflicts coincide with bank conflicts
(distinct CPUs, or one section per bank).

:class:`AutoBackend` puts the solver in front of simulation: undecided
fused pairs run on the fast engine, and only large populations of
undecided jobs that step clock by clock reach the NumPy batch kernel.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from ..core.arithmetic import lcm
from ..obs import metrics as _metrics
from ..obs import names as _names
from ..obs import trace as _trace
from .fastsim import pair_rotation
from .job import SimJob, SimOutcome

__all__ = ["solve", "AnalyticBackend", "AutoBackend"]

#: Smallest population of analytic-undecided jobs that step clock by
#: clock (no fused pair: see :func:`~repro.runner.fastsim.pair_rotation`)
#: for which the ``auto`` tier routes them to the batch core: below
#: this the SoA setup cost outweighs the vectorized stepping.  Fused
#: pairs never go there; the one-frame pair detector is as fast as the
#: kernel on every census shape.  It lives here, not in the NumPy-backed
#: :mod:`repro.runner.batchsim` (which re-exports it), so deciding the
#: tier imports no NumPy.
BATCH_MIN_POPULATION = 96


def _record_decided(theorem: str) -> None:
    """Count one closed-form decision (no-op unless metrics are on)."""
    reg = _metrics.active_metrics()
    if reg is not None:
        reg.counter(_names.ANALYTIC_DECIDED, theorem=theorem).inc()

#: Rules whose snapshot is constant when arbitrating a single port.
#: (``block-cyclic`` free-runs a clock counter even with no conflicts.)
_SINGLE_SAFE = frozenset(("fixed", "cyclic", "lru"))


def _single_form(m: int, n_c: int, d: int) -> tuple[int, int, int]:
    """``(transient, period, grants)`` of one infinite stream, exact.

    ``r = m / gcd(m, d)`` banks participate (Theorem 1; ``d = 0`` gives
    ``r = 1``).  ``r >= n_c`` — full rate: the state (pending bank +
    busy counters) first repeats with period ``r`` after the ``n_c - 1``
    clock busy-ramp.  ``r < n_c`` — the stream stalls on its own busy
    banks: ``r`` grants per ``n_c`` clocks, transient ``r - 1``.
    """
    r = m // gcd(m, d)
    if r >= n_c:
        return n_c - 1, r, r
    return r - 1, n_c, r


def _outcome(
    job: SimJob, mu: int, lam: int, grants: Sequence[int]
) -> SimOutcome | None:
    """Package a decided answer, honouring the job's cycle bound."""
    if mu + lam > job.max_cycles:
        # The simulator would exhaust its bound; let it raise its error.
        return None
    return SimOutcome(
        job=job,
        backend="analytic",
        bandwidth=Fraction(sum(grants), lam),
        period=lam,
        grants=tuple(grants),
        steady_start=mu,
        cycles=mu + lam,
    )


def _solve_single(job: SimJob) -> SimOutcome | None:
    if job.priority not in _SINGLE_SAFE:
        return None
    if job.intra_priority is not None and job.intra_priority not in _SINGLE_SAFE:
        return None
    _, d = job.streams[0]
    mu, lam, r = _single_form(job.banks, job.bank_cycle, d)
    out = _outcome(job, mu, lam, (r,))
    if out is not None:
        _record_decided("t1-single")
    return out


def _solve_pair(job: SimJob) -> SimOutcome | None:
    # Stateless arbitration only: any stateful rule's snapshot would
    # enter the detector's state key and stretch the reported period.
    if job.priority != "fixed" or job.intra_priority not in (None, "fixed"):
        return None
    # Section conflicts must coincide with bank conflicts: distinct CPUs
    # (no shared path) or one section per bank.
    if len(set(job.cpus)) != 2 and job.effective_sections != job.banks:
        return None
    m = job.banks
    n_c = job.bank_cycle
    (b1, d1), (b2, d2) = job.streams

    # Theorem 2 — bank-disjoint: gcd(m, d1, d2) = f > 1 splits the banks
    # into residue classes mod f that each stream can never leave.
    f = gcd(gcd(m, d1), d2)
    if f > 1 and (b2 - b1) % f != 0:
        mu1, lam1, r1 = _single_form(m, n_c, d1)
        mu2, lam2, r2 = _single_form(m, n_c, d2)
        lam = lcm(lam1, lam2)
        grants = ((lam // lam1) * r1, (lam // lam2) * r2)
        out = _outcome(job, max(mu1, mu2), lam, grants)
        if out is not None:
            _record_decided("t2-disjoint")
        return out

    # Conflict-free from these starts: both streams individually
    # full-rate, and no clock skew |j| < n_c ever lands the two streams
    # on one bank.  Assuming full rate, stream 2 at clock t and stream 1
    # at clock t - j collide iff c + t·(d2 - d1) + j·d1 ≡ 0 (mod m),
    # which has a solution in t iff c + j·d1 ≡ 0 (mod gcd(m, d1 - d2)).
    # Unsolvable for every relevant j ⇒ the full-rate assumption is
    # self-consistent and exact from clock 0.
    r1 = m // gcd(m, d1)
    r2 = m // gcd(m, d2)
    if r1 < n_c or r2 < n_c:
        return None
    c = (b2 - b1) % m
    g = gcd(m, d1 - d2)  # d1 == d2 -> gcd(m, 0) = m
    if all((c + j * d1) % g for j in range(-(n_c - 1), n_c)):
        lam = lcm(r1, r2)
        out = _outcome(job, n_c - 1, lam, (lam, lam))
        if out is not None:
            _record_decided("t3-start-resolved")
        return out

    # Possible conflicts (barrier or worse): leave to the simulator.
    return None


def _policy_safe(job: SimJob) -> bool:
    """Whether the job's arbiter policy leaves the closed forms exact.

    A ``wfq`` arbiter free-runs its schedule slot (the ``block-cyclic``
    problem: constant state is what the certificates assume), so any
    explicit arbiter is undecided.  Regulators are undecided too —
    *unless* every bucket is vacuous (``rate >= window``): such a bucket
    refills to its cap every clock, never vetoes, and contributes a
    constant snapshot, so the trajectory and the detector's answer are
    bit-identical to the unregulated job.  Anything else returns
    ``False`` and the solver honestly reports *undecided* — the
    never-wrong property test locks this in.
    """
    if job.arbiter is not None:
        return False
    if job.regulate:
        from ..sim.arbiter import regulation_is_vacuous

        return regulation_is_vacuous(job.regulate)
    return True


def solve(job: SimJob) -> SimOutcome | None:
    """Closed-form outcome of ``job``, or ``None`` when undecided.

    A non-``None`` return is exact and bit-identical to simulation;
    ``None`` means "the theory does not pin this job down" — never an
    approximation.
    """
    if not job.steady or job.trace:
        return None
    if not _policy_safe(job):
        return None
    n = len(job.streams)
    if n == 1:
        return _solve_single(job)
    if n == 2:
        return _solve_pair(job)
    return None


class AnalyticBackend:
    """The solver as a strict backend: raises on undecided jobs.

    Useful for probing coverage; sweeps want :class:`AutoBackend`,
    which falls back to simulation instead.
    """

    name = "analytic"
    #: Closed forms cost microseconds per job; big chunks amortise the
    #: dispatch overhead.
    preferred_chunk = 1024

    def run(self, job: SimJob) -> SimOutcome:
        out = solve(job)
        if out is None:
            raise ValueError(
                "job is not analytically decided; run it on the auto/fast "
                f"backend ({job.describe()})"
            )
        return out

    def run_batch(self, jobs: Sequence[SimJob]) -> list[SimOutcome]:
        return [self.run(job) for job in jobs]


class AutoBackend:
    """Tier dispatch: closed form when the theory decides, then fast
    simulation for undecided fused pairs and for small populations of
    the rest, and the lockstep batch core for large ones."""

    name = "auto"
    #: Large chunks keep the batch tier's lockstep populations wide.
    preferred_chunk = 2048

    def run(self, job: SimJob) -> SimOutcome:
        out = solve(job)
        reg = _metrics.active_metrics()
        if out is not None:
            if reg is not None:
                reg.counter(_names.AUTO_DISPATCH, tier="analytic").inc()
            return out
        if reg is not None:
            reg.counter(_names.AUTO_DISPATCH, tier="fastsim").inc()
        from .backends import get_backend

        return get_backend("fast").run(job)

    def run_batch(self, jobs: Sequence[SimJob]) -> list[SimOutcome]:
        """Solve what the theory decides.  Undecided fused pairs run on
        the fast engine, which is as fast as the batch core on them.
        The undecided rest steps clock by clock: it goes to the lockstep
        batch core when it is large enough to amortise the array setup
        (and holds no trace job, which only scalar engines keep), to the
        fast engine otherwise.  A failure raises the lowest-indexed
        failing job's error, as one sequential fast run would."""
        from .backends import get_backend

        with _trace.span(_names.SPAN_AUTO_RUN_BATCH, jobs=len(jobs)):
            out: list[SimOutcome | None] = []
            fused: list[int] = []
            clocked: list[int] = []
            for i, job in enumerate(jobs):
                o = solve(job)
                out.append(o)
                if o is None:
                    (clocked if pair_rotation(job) is None else fused).append(i)
            rest = sorted(fused + clocked)
            batched = (
                len(clocked) >= BATCH_MIN_POPULATION
                and not any(jobs[i].trace for i in clocked)
            )
            tiers = (
                {"fastsim": fused, "batch": clocked}
                if batched
                else {"fastsim": rest}
            )
            reg = _metrics.active_metrics()
            if reg is not None:
                decided = len(jobs) - len(rest)
                if decided:
                    reg.counter(
                        _names.AUTO_DISPATCH, tier="analytic"
                    ).inc(decided)
                for tier, idx in tiers.items():
                    if idx:
                        reg.counter(_names.AUTO_DISPATCH, tier=tier).inc(
                            len(idx)
                        )
            try:
                for tier, idx in tiers.items():
                    if idx:
                        sim = get_backend("batch" if tier == "batch" else "fast")
                        ran = sim.run_batch([jobs[i] for i in idx])
                        for i, o in zip(idx, ran):
                            out[i] = o
            except RuntimeError:
                if batched and fused:
                    # The two groups ran apart: one sequential run in
                    # job order raises the lowest-indexed job's error.
                    get_backend("fast").run_batch([jobs[i] for i in rest])
                raise
            assert all(o is not None for o in out)
            return [o for o in out if o is not None]
