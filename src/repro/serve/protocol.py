"""The service wire contract: endpoints, payload schemas, status codes.

Everything the server promises to the outside world is declared here as
data — the endpoint catalog (:data:`ENDPOINTS`), the request-to-job
validator (:func:`job_from_payload`), the exact response serialiser
(:func:`outcome_to_payload`) and the failure-mode table
(:data:`FAILURE_STATUS`).  ``docs/SERVICE.md`` documents exactly these
tables and ``tests/serve/test_docs.py`` diffs the two, so the document
cannot drift from the code.

Requests describe jobs in plain JSON mirroring the
:class:`~repro.runner.job.SimJob` fields; validation goes through
:meth:`SimJob.from_specs`, so the server accepts exactly what the
library accepts (starts/strides reduce modulo ``banks``, shape errors
surface as 400s).  Responses carry the steady-state bandwidth **twice**:
as the exact ``"num/den"`` :class:`~fractions.Fraction` string (the
number the paper's tables are made of) and as a convenience float.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..memory.config import MemoryConfig
from ..runner.job import SimJob, SimOutcome

__all__ = [
    "ENDPOINTS",
    "EndpointSpec",
    "FAILURE_STATUS",
    "MAX_SWEEP_JOBS",
    "ProtocolError",
    "job_from_payload",
    "outcome_to_payload",
]

#: Hard cap on jobs per ``/v1/sweep`` request (larger sweeps should be
#: split client-side or run through the CLI, not one HTTP body).
MAX_SWEEP_JOBS = 4096


@dataclass(frozen=True)
class EndpointSpec:
    """One row of the endpoint catalog."""

    method: str
    path: str
    summary: str


#: The full endpoint catalog, in documentation order.
ENDPOINTS: tuple[EndpointSpec, ...] = (
    EndpointSpec(
        "POST", "/v1/beff",
        "Exact steady-state effective bandwidth of one job.",
    ),
    EndpointSpec(
        "POST", "/v1/sweep",
        "Batch of jobs; results in input order, dedup/coalescing "
        "applied across the batch.",
    ),
    EndpointSpec(
        "GET", "/v1/regime",
        "Closed-form regime classification of a stream pair "
        "(no simulation).",
    ),
    EndpointSpec(
        "GET", "/metrics",
        "Prometheus text exposition of the service registry.",
    ),
    EndpointSpec(
        "GET", "/healthz",
        "Liveness probe: status, in-flight count, executor memo size.",
    ),
)

#: Failure mode -> HTTP status.  ``docs/SERVICE.md`` documents this
#: table verbatim; the app layer never invents a status outside it
#: (success codes aside).
FAILURE_STATUS: dict[str, int] = {
    "malformed": 400,        # unparseable body / invalid job fields
    "not-found": 404,        # unknown path
    "bad-method": 405,       # known path, wrong HTTP method
    "too-large": 413,        # sweep over MAX_SWEEP_JOBS, or oversized body
    "overloaded": 429,       # in-flight cap reached (Retry-After attached)
    "internal": 500,         # unexpected server-side error
    "failed-job": 502,       # executor returned a FailedOutcome
    "shutting-down": 503,    # graceful drain in progress
}


class ProtocolError(ValueError):
    """A request the protocol rejects, carrying its failure mode."""

    def __init__(self, mode: str, message: str) -> None:
        if mode not in FAILURE_STATUS:
            raise ValueError(f"unknown failure mode {mode!r}")
        super().__init__(message)
        self.mode = mode
        self.status = FAILURE_STATUS[mode]


_JOB_KEYS = frozenset(
    (
        "banks", "bank_cycle", "streams", "cpus", "sections",
        "section_mapping", "priority", "intra_priority", "arbiter",
        "regulate", "steady", "cycles", "max_cycles",
    )
)


def _require_int(payload: dict, key: str) -> int:
    value = payload.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProtocolError("malformed", f"{key!r} must be an integer")
    return value


def job_from_payload(payload: object) -> SimJob:
    """Validate one JSON job description into a frozen :class:`SimJob`.

    The schema mirrors the ``SimJob`` fields (``streams`` as a list of
    ``[start_bank, stride]`` pairs); unknown keys and trace requests are
    rejected rather than ignored, so a typoed field can never silently
    fall back to a default.  All shape errors raise
    :class:`ProtocolError` with mode ``"malformed"`` (HTTP 400).
    """
    if not isinstance(payload, dict):
        raise ProtocolError("malformed", "job must be a JSON object")
    unknown = set(payload) - _JOB_KEYS
    if unknown:
        raise ProtocolError(
            "malformed", f"unknown job field(s): {sorted(unknown)}"
        )
    banks = _require_int(payload, "banks")
    bank_cycle = _require_int(payload, "bank_cycle")
    raw_streams = payload.get("streams")
    if not isinstance(raw_streams, list) or not raw_streams:
        raise ProtocolError(
            "malformed", "'streams' must be a non-empty list"
        )
    streams: list[tuple[int, int]] = []
    for spec in raw_streams:
        if (
            not isinstance(spec, (list, tuple))
            or len(spec) != 2
            or not all(
                isinstance(x, int) and not isinstance(x, bool) for x in spec
            )
        ):
            raise ProtocolError(
                "malformed",
                "each stream must be an integer pair [start_bank, stride]",
            )
        streams.append((spec[0], spec[1]))
    cpus = payload.get("cpus")
    if cpus is not None and (
        not isinstance(cpus, list)
        or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in cpus
        )
    ):
        raise ProtocolError("malformed", "'cpus' must be a list of integers")
    for key in ("sections", "cycles", "max_cycles"):
        value = payload.get(key)
        if value is not None and (
            not isinstance(value, int) or isinstance(value, bool)
        ):
            raise ProtocolError(
                "malformed", f"{key!r} must be an integer or null"
            )
    for key in ("section_mapping", "priority"):
        value = payload.get(key)
        if value is not None and not isinstance(value, str):
            raise ProtocolError("malformed", f"{key!r} must be a string")
    intra = payload.get("intra_priority")
    if intra is not None and not isinstance(intra, str):
        raise ProtocolError(
            "malformed", "'intra_priority' must be a string or null"
        )
    arbiter = payload.get("arbiter")
    if arbiter is not None and not isinstance(arbiter, str):
        raise ProtocolError(
            "malformed", "'arbiter' must be a string or null"
        )
    regulate = payload.get("regulate", [])
    if not isinstance(regulate, list) or not all(
        isinstance(x, str) for x in regulate
    ):
        raise ProtocolError(
            "malformed", "'regulate' must be a list of spec strings"
        )
    steady = payload.get("steady", True)
    if not isinstance(steady, bool):
        raise ProtocolError("malformed", "'steady' must be a boolean")
    try:
        config = MemoryConfig(
            banks=banks,
            bank_cycle=bank_cycle,
            sections=payload.get("sections"),
            section_mapping=payload.get("section_mapping", "cyclic"),
        )
        return SimJob.from_specs(
            config,
            streams,
            cpus=cpus,
            priority=payload.get("priority", "fixed"),
            intra_priority=intra,
            arbiter=arbiter,
            regulate=regulate,
            steady=steady,
            cycles=payload.get("cycles"),
            max_cycles=payload.get("max_cycles", 1_000_000),
        )
    except ValueError as exc:
        raise ProtocolError("malformed", str(exc)) from None


def outcome_to_payload(outcome: SimOutcome, *, key: str, tier: str) -> dict:
    """One response object: exact numbers plus provenance.

    ``key`` is the job's canonical ``cache_key()``, computed once per
    request by the caller.  ``tier`` records where the answer came from
    (``analytic`` / ``memo`` / ``store`` / ``simulated``); ``bandwidth``
    stays the exact ``"num/den"`` string and ``bandwidth_float`` is the
    convenience decimal (the serve layer is outside the EXACT001
    exactness scope, analyses must keep using the Fraction).
    """
    body = outcome.to_payload()
    body["bandwidth_float"] = outcome.bandwidth_float
    body["key"] = key
    body["tier"] = tier
    return body
