"""The bandwidth-oracle service: an async query server over the runner.

The repository's analyses consume bandwidth answers in-process through
the :class:`~repro.runner.executor.SweepExecutor`; this package exposes
the same oracle over HTTP/JSON so external tooling (dashboards, sweep
farms, notebooks on other machines) can ask "what is the exact steady
``b_eff`` of these streams on this memory?" without importing the
repository.  Zero dependencies beyond the standard library: the server
is plain :mod:`asyncio` streams, the protocol plain JSON.

Four modules, one per concern:

:mod:`repro.serve.protocol`
    The wire contract — endpoint catalog, request validation into
    frozen :class:`~repro.runner.job.SimJob` values, exact-``Fraction``
    response payloads, and the failure-mode → HTTP status table.
:mod:`repro.serve.lookup`
    The cheap tier — closed-form :func:`~repro.runner.analytic.solve`,
    then the shared executor's memo and
    :class:`~repro.runner.store.ResultStore` via
    :meth:`~repro.runner.executor.SweepExecutor.peek`; answers on the
    event loop in microseconds, never simulates, keeps no table.
:mod:`repro.serve.coalesce`
    The expensive tier — concurrent identical queries (identical under
    the Appendix isomorphism) fold onto one in-flight computation, and
    distinct queries micro-batch through one warm shared executor.
:mod:`repro.serve.app`
    The HTTP server — routing, keep-alive, per-request latency
    histograms, load shedding past an in-flight cap, ``/metrics``
    Prometheus export, graceful cache-flushing shutdown.

The endpoint and metric contracts are documented in ``docs/SERVICE.md``
and diffed against this package by ``tests/serve/test_docs.py``.
"""

from .app import BandwidthService, run_server
from .coalesce import Coalescer
from .lookup import LookupTier
from .protocol import (
    ENDPOINTS,
    FAILURE_STATUS,
    EndpointSpec,
    ProtocolError,
    job_from_payload,
    outcome_to_payload,
)

__all__ = [
    "BandwidthService",
    "Coalescer",
    "ENDPOINTS",
    "EndpointSpec",
    "FAILURE_STATUS",
    "LookupTier",
    "ProtocolError",
    "job_from_payload",
    "outcome_to_payload",
    "run_server",
]
