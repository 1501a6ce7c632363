"""The job layer: one hashable description per simulation run.

Every analysis in the repository ultimately asks the same question —
"what does this set of infinite constant-stride streams do to this
memory?" — and :class:`SimJob` is the one canonical way to ask it.  A job
freezes the memory shape, the stream specs, the CPU placement and the
priority rules; :class:`SimOutcome` carries the exact :class:`~fractions.
Fraction` steady-state answer.

Jobs canonicalize through the paper's Appendix isomorphism: a bank
renumbering ``j -> k·j (mod m)`` with ``gcd(k, m) = 1`` (plus a start-bank
translation) maps a job onto an equivalent one without changing any
conflict behaviour, so equivalent jobs share one cache entry in the
:class:`~repro.runner.executor.SweepExecutor`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from ..core.isomorphism import stabilizer_units
from ..memory.config import MemoryConfig
from .regime import ObservedRegime, full_rate_streams, is_conflict_free, observe_pair_regime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.engine import SimulationResult

__all__ = ["SimJob", "SimOutcome", "jobs_for_offsets"]


@dataclass(frozen=True)
class SimJob:
    """A frozen, hashable description of one simulation run.

    Parameters
    ----------
    banks, bank_cycle, sections, section_mapping:
        The memory shape (see :class:`repro.memory.config.MemoryConfig`).
    streams:
        One ``(start_bank, stride)`` spec per port, already reduced
        modulo ``banks`` (use :meth:`from_specs` to normalise raw specs).
        All job streams are the analytical *infinite* streams.
    cpus:
        Owning CPU per port; section conflicts arise within a CPU,
        simultaneous bank conflicts across CPUs.
    priority, intra_priority:
        Rule names as accepted by :func:`repro.sim.priority.make_priority`.
        ``intra_priority=None`` means "the same rule *instance* arbitrates
        both conflict kinds" (the paper's presentation), which for
        stateful rules is *not* equivalent to naming the rule twice.
    arbiter:
        Optional arbiter-policy spec replacing the two-rule wiring
        (``"wfq:W0,W1,..."`` — see :mod:`repro.sim.arbiter`); ``None``
        keeps the classic priority/intra_priority arbitration.
    regulate:
        Token-bucket regulator specs (``"stream=1/3"``,
        ``"bank:0=1/4"``, ...) wrapped around whichever policy results.
        Empty means unregulated.
    steady:
        Detect the cyclic state and report its exact bandwidth (default).
        ``steady=False`` requires ``cycles`` — a fixed-horizon run.
    cycles:
        Fixed clock horizon for ``steady=False`` jobs.
    max_cycles:
        Safety bound for steady-state detection.
    trace:
        Record a cycle-by-cycle trace (reference backend only).
    """

    banks: int
    bank_cycle: int
    streams: tuple[tuple[int, int], ...]
    cpus: tuple[int, ...]
    sections: int | None = None
    section_mapping: str = "cyclic"
    priority: str = "fixed"
    intra_priority: str | None = None
    arbiter: str | None = None
    regulate: tuple[str, ...] = ()
    steady: bool = True
    cycles: int | None = None
    max_cycles: int = 1_000_000
    trace: bool = False

    def __post_init__(self) -> None:
        # MemoryConfig performs the full shape validation.
        cfg = MemoryConfig(
            banks=self.banks,
            bank_cycle=self.bank_cycle,
            sections=self.sections,
            section_mapping=self.section_mapping,
        )
        if not self.streams:
            raise ValueError("a job needs at least one stream")
        if len(self.cpus) != len(self.streams):
            raise ValueError(
                f"cpus ({len(self.cpus)}) and streams "
                f"({len(self.streams)}) must align"
            )
        for b, d in self.streams:
            if not (0 <= b < cfg.banks and 0 <= d < cfg.banks):
                raise ValueError(
                    f"stream spec ({b}, {d}) not reduced modulo m={cfg.banks}; "
                    "build jobs via SimJob.from_specs()"
                )
        for c in self.cpus:
            if c < 0:
                raise ValueError("cpu ids must be non-negative")
        # Spec strings fail at job construction, not deep inside a
        # backend (and therefore with HTTP 400, not 500, on the wire).
        from ..sim.priority import parse_priority

        parse_priority(self.priority)
        if self.intra_priority is not None:
            parse_priority(self.intra_priority)
        if self.arbiter is not None or self.regulate:
            from ..sim.arbiter import canonical_arbiter, validate_regulation

            canonical_arbiter(self.arbiter, len(self.streams))
            if not isinstance(self.regulate, tuple):
                raise ValueError(
                    "regulate must be a tuple of spec strings; "
                    "build jobs via SimJob.from_specs()"
                )
            validate_regulation(
                self.regulate, len(self.streams), self.banks
            )
        if self.steady and self.cycles is not None:
            raise ValueError("pass either steady=True or cycles=, not both")
        if not self.steady and self.cycles is None:
            raise ValueError("fixed-horizon jobs need cycles=")
        if self.cycles is not None and self.cycles < 0:
            raise ValueError("cycle count must be non-negative")
        if self.max_cycles <= 0:
            raise ValueError("max_cycles must be positive")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_specs(
        cls,
        config: MemoryConfig,
        specs: Sequence[tuple[int, int]],
        *,
        cpus: Sequence[int] | None = None,
        priority: str = "fixed",
        intra_priority: str | None = None,
        arbiter: str | None = None,
        regulate: Sequence[str] = (),
        steady: bool = True,
        cycles: int | None = None,
        max_cycles: int = 1_000_000,
        trace: bool = False,
    ) -> "SimJob":
        """Build a job from raw ``(start_bank, stride)`` specs.

        Starts and strides are reduced modulo ``config.banks``; ``cpus``
        defaults to one CPU per stream (no section bottlenecks).
        """
        m = config.banks
        if cpus is None:
            cpus = range(len(specs))
        return cls(
            banks=config.banks,
            bank_cycle=config.bank_cycle,
            sections=config.sections,
            section_mapping=config.section_mapping,
            streams=tuple((b % m, d % m) for b, d in specs),
            cpus=tuple(cpus),
            priority=priority,
            intra_priority=intra_priority,
            arbiter=arbiter,
            regulate=tuple(regulate),
            steady=steady,
            cycles=cycles,
            max_cycles=max_cycles,
            trace=trace,
        )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def config(self) -> MemoryConfig:
        """The memory shape as a :class:`MemoryConfig`."""
        return MemoryConfig(
            banks=self.banks,
            bank_cycle=self.bank_cycle,
            sections=self.sections,
            section_mapping=self.section_mapping,
        )

    @property
    def n_ports(self) -> int:
        return len(self.streams)

    @property
    def effective_sections(self) -> int:
        return self.banks if self.sections is None else self.sections

    # ------------------------------------------------------------------
    # Canonicalization (Appendix isomorphism)
    # ------------------------------------------------------------------
    def _frame(self) -> "_Frame":
        """This job's identity minus its streams (cached per job shape)."""
        return _shape_frame(
            self.banks, self.bank_cycle, self.sections, self.section_mapping,
            self.cpus, self.priority, self.intra_priority, self.arbiter,
            self.regulate, self.steady, self.cycles,
        )

    def canonical(self) -> "SimJob":
        """The canonical representative of this job's isomorphism class.

        Applies every admissible renumbering ``j -> k·(j - b0)`` (unit
        ``k``, translation to put stream 1 at bank 0) and keeps the
        lexicographically smallest stream tuple.  Port order, CPU
        placement and priority rules are untouched — they are not part of
        the bank-address symmetry.  Jobs whose section mapping breaks the
        symmetry canonicalize to themselves (modulo field normalisation).

        The returned job always has ``trace=False`` and the default
        ``max_cycles`` (neither affects the steady outcome), ``sections``
        resolved to its effective value and every policy spec in its one
        spelling, so it is a pure cache identity.  It is the reference
        form of :meth:`cache_key`, which computes the same identity
        without building it.
        """
        frame = self._frame()
        return replace(
            self,
            sections=frame.sections,
            streams=_canonical_streams(self.banks, self.streams)
            if frame.renumbering_safe
            else self.streams,
            priority=frame.priority,
            intra_priority=frame.intra_priority,
            arbiter=frame.arbiter,
            regulate=frame.regulate,
            trace=False,
            max_cycles=1_000_000,
        )

    def cache_key(self) -> str:
        """Stable string identity of the canonical job (cache key)."""
        frame = self._frame()
        streams = (
            _canonical_streams(self.banks, self.streams)
            if frame.renumbering_safe
            else self.streams
        )
        return (
            frame.prefix
            + ",".join([f"{b}:{d}" for b, d in streams])
            + frame.suffix
        )

    def describe(self) -> str:
        """One-line human summary for logs and benchmark headers."""
        streams = " ".join(f"{b}:{d}" for b, d in self.streams)
        return f"{self.config.describe()}; streams {streams}; cpus {self.cpus}"


class _Frame(NamedTuple):
    """A job's identity minus its streams: the :meth:`SimJob.cache_key`
    text around the canonical streams, and the canonical field values
    :meth:`SimJob.canonical` writes back."""

    prefix: str
    suffix: str
    sections: int
    priority: str
    intra_priority: str | None
    arbiter: str | None
    regulate: tuple[str, ...]
    renumbering_safe: bool


@lru_cache(maxsize=4096)
def _shape_frame(
    banks: int,
    bank_cycle: int,
    sections: int | None,
    section_mapping: str,
    cpus: tuple[int, ...],
    priority: str,
    intra_priority: str | None,
    arbiter: str | None,
    regulate: tuple[str, ...],
    steady: bool,
    cycles: int | None,
) -> _Frame:
    """The :class:`_Frame` of every job with these non-stream fields.

    A sweep submits many jobs of one shape (the stride-pair census has
    four shapes for 12,437 jobs), so the frame is computed once per
    shape.  ``lru_cache`` is thread-safe, so the serve event loop and
    its drain thread may key jobs concurrently, and it matches
    arguments by ``==``, the equality :class:`SimJob` itself uses: a
    hit can only join jobs that already compare equal.

    The renumbering-safe flag says whether bank renumberings preserve
    the job's conflicts.  A unit renumbering ``j -> k·j`` (and a
    translation ``j -> j + c``) preserves bank-busy structure always,
    and the same-section relation exactly when the mapping is the
    paper's cyclic ``k = j mod s`` (``j1 ≡ j2 (mod s)`` is invariant
    because ``gcd(k, s) = 1`` follows from ``s | m``) or when ``s = m``
    (sections degenerate to banks).  Cheung & Smith's consecutive
    grouping is *not* renumbering-invariant.  A regulator pinned to a
    specific bank (``bank:IDX=...``) also breaks the symmetry —
    renumbering moves the throttled bank; uniform and per-stream
    regulators are invariant.
    """
    effective = banks if sections is None else sections
    safe = section_mapping == "cyclic" or effective == banks
    if arbiter is not None or regulate:
        from ..sim.arbiter import (
            canonical_arbiter,
            canonical_regulation,
            regulation_renumbering_safe,
        )

        arbiter = canonical_arbiter(arbiter, len(cpus))
        regulate = canonical_regulation(regulate)
        safe = safe and regulation_renumbering_safe(regulate)
    priority = _priority_spelling(priority)
    intra = None if intra_priority is None else _priority_spelling(intra_priority)
    mode = "steady" if steady else f"cycles={cycles}"
    suffix = (
        f"|cpu{','.join([str(c) for c in cpus])}"
        f"|{priority}/{'~' if intra is None else intra}|{mode}"
    )
    # Policy segments only when non-default, so every pre-arbiter
    # cache key (and result-store entry) stays byte-identical.
    if arbiter is not None:
        suffix += f"|arb:{arbiter}"
    if regulate:
        suffix += f"|reg:{';'.join(regulate)}"
    return _Frame(
        prefix=f"m{banks}c{bank_cycle}s{effective}@{section_mapping}|",
        suffix=suffix,
        sections=effective,
        priority=priority,
        intra_priority=intra,
        arbiter=arbiter,
        regulate=regulate,
        renumbering_safe=safe,
    )


def _canonical_streams(
    m: int, streams: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, int], ...]:
    """The lexicographically smallest image of ``streams`` under the
    renumberings ``j -> k·(j - b0)``, ``gcd(k, m) = 1``.

    Stream 1 becomes ``(0, k·d0)``, which is minimal exactly for the
    units mapping ``d0`` to ``gcd(m, d0)`` — so every candidate starts
    with ``(0, gcd(m, d0) mod m)``, only that (cached) stabiliser coset
    is scanned, and only the remaining streams are compared.  A single
    stream needs no scan at all.
    """
    b0, d0 = streams[0]
    if len(streams) == 1:
        return ((0, math.gcd(m, d0) % m),)
    units = stabilizer_units(m, d0)
    head = (0, d0 * units[0] % m)  # the same for every unit of the coset
    # images[i][j] is stream i + 2 under unit j, so zip yields each
    # unit's candidate tuple.
    images = [
        [((b - b0) * k % m, d * k % m) for k in units] for b, d in streams[1:]
    ]
    return (head, *min(zip(*images)))


def _priority_spelling(name: str) -> str:
    """The one spelling of a validated priority spec: ``block-cyclic:N``
    with ``N`` as parsed, so ``block-cyclic: +04 `` keys as
    ``block-cyclic:4``; ``fixed``/``cyclic``/``lru`` are returned as is."""
    if not name.startswith("block-cyclic:"):
        return name
    from ..sim.priority import parse_priority

    return f"block-cyclic:{parse_priority(name)[1]}"


#: What :meth:`SimOutcome.from_payload` raises on a malformed payload: a
#: missing field, a field of the wrong shape, or a bandwidth that is not
#: a ``"num/den"`` string of integers with a nonzero denominator.
PAYLOAD_ERRORS = (KeyError, ValueError, ZeroDivisionError)


@dataclass(frozen=True, eq=False)
class SimOutcome:
    """Exact result of running a :class:`SimJob`.

    For steady jobs ``bandwidth`` is the exact steady-state ``b_eff``
    (a :class:`~fractions.Fraction`), ``grants`` the per-port grant
    counts over one ``period``, and ``steady_start`` the first clock of
    the periodic regime.  For fixed-horizon jobs ``bandwidth`` is the
    whole-run average, ``grants`` the whole-run per-port counts, and
    ``period``/``steady_start`` are ``None``.
    """

    job: SimJob
    backend: str
    bandwidth: Fraction
    period: int | None
    grants: tuple[int, ...]
    steady_start: int | None
    cycles: int
    #: Full engine result (stats, optional trace).  Populated only by the
    #: reference backend; ``None`` for fast-backend and cached outcomes.
    result: "SimulationResult | None" = field(default=None, repr=False)

    # ------------------------------------------------------------------
    @property
    def failed(self) -> bool:
        """Executor failure discriminator — always ``False`` on a real
        outcome; ``True`` on the :class:`~repro.runner.resilience.
        FailedOutcome` stand-in a non-strict retry policy returns."""
        return False

    @property
    def bandwidth_float(self) -> float:
        return float(self.bandwidth)

    @property
    def full_rate_streams(self) -> int:
        """How many streams run at one grant per clock (steady jobs)."""
        if self.period is None:
            raise ValueError("full-rate accounting needs a steady outcome")
        return full_rate_streams(self.period, self.grants)

    @property
    def conflict_free(self) -> bool:
        if self.period is None:
            raise ValueError("conflict-freeness needs a steady outcome")
        return is_conflict_free(self.period, self.grants)

    @property
    def pair_regime(self) -> ObservedRegime:
        """Observed regime for two-stream steady jobs."""
        if self.period is None:
            raise ValueError("regime observation needs a steady outcome")
        return observe_pair_regime(self.period, self.grants)

    # ------------------------------------------------------------------
    # Cache (JSON) serialisation — numbers only, exact
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-safe dict capturing the exact numeric outcome."""
        return {
            "backend": self.backend,
            "bandwidth": f"{self.bandwidth.numerator}/{self.bandwidth.denominator}",
            "period": self.period,
            "grants": list(self.grants),
            "steady_start": self.steady_start,
            "cycles": self.cycles,
        }

    @classmethod
    def from_payload(cls, job: SimJob, payload: dict) -> "SimOutcome":
        """Rebuild an outcome for ``job`` from a cached payload.

        Valid for any job in the payload's isomorphism class: the
        Appendix renumbering preserves per-port grants, period and
        transient length exactly.  A malformed payload raises one of
        :data:`PAYLOAD_ERRORS`: ``bandwidth`` must be a string, ``grants``
        a list of one int per port, ``cycles`` an int and ``period`` and
        ``steady_start`` ints or ``None``.
        """
        bandwidth, period, grants, start, cycles = (
            payload["bandwidth"],
            payload["period"],
            payload["grants"],
            payload["steady_start"],
            payload["cycles"],
        )
        if not (
            isinstance(bandwidth, str)
            and isinstance(grants, list)
            and len(grants) == job.n_ports
            and all([isinstance(g, int) for g in grants])
            and isinstance(cycles, int)
            and (period is None or isinstance(period, int))
            and (start is None or isinstance(start, int))
        ):
            raise ValueError(f"malformed outcome payload {payload!r}")
        num, den = bandwidth.split("/")
        return cls(
            job=job,
            backend=f"cache:{payload['backend']}",
            bandwidth=Fraction(int(num), int(den)),
            period=period,
            grants=tuple(grants),
            steady_start=start,
            cycles=cycles,
        )

    def for_job(self, job: SimJob) -> "SimOutcome":
        """This outcome for an isomorphic ``job``: a new outcome sharing
        the immutable exact fields, which the renumbering preserves (see
        :meth:`from_payload`).  Like any cached outcome it carries no
        ``result``.  A direct constructor call costs about half of
        :func:`dataclasses.replace`."""
        return SimOutcome(
            job=job,
            backend=self.backend,
            bandwidth=self.bandwidth,
            period=self.period,
            grants=self.grants,
            steady_start=self.steady_start,
            cycles=self.cycles,
        )


def jobs_for_offsets(
    config: MemoryConfig,
    d1: int,
    d2: int,
    offsets: Iterable[int],
    *,
    same_cpu: bool = False,
    priority: str = "fixed",
    arbiter: str | None = None,
    regulate: Sequence[str] = (),
    max_cycles: int = 1_000_000,
) -> list[SimJob]:
    """One steady pair job per relative start offset (a common sweep)."""
    cpus = (0, 0) if same_cpu else (0, 1)
    return [
        SimJob.from_specs(
            config,
            [(0, d1), (off, d2)],
            cpus=cpus,
            priority=priority,
            arbiter=arbiter,
            regulate=regulate,
            max_cycles=max_cycles,
        )
        for off in offsets
    ]
