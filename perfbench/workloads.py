"""Seeded inputs for the ledger workloads, with their exact answers.

The census population is a fixed set (every stride pair times every
start phase); the seed only fixes the order in which it is submitted,
so every seed does the same work and the checksum below holds for all
of them.  The checksum is an exact sum over every submitted job's
outcome and was computed once with the reference engine
(``SweepExecutor(backend="reference")``); every execution path must
reproduce it bit for bit.

The serve mix is drawn from the seed: analytically decided single
streams, repeats of a small hot set of undecided pairs, and pairs the
server has never seen.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from repro.memory.config import MemoryConfig
from repro.runner import SimJob

#: (banks, bank_cycle, sections, priority, start phases, cpus).  The
#: sectioned shape puts both streams on one CPU so that section
#: conflicts arise (distinct CPUs only see simultaneous bank conflicts).
CENSUS_SHAPES = (
    (32, 4, None, "cyclic", 4, (0, 1)),
    (16, 4, None, "fixed", 16, (0, 1)),
    (13, 4, None, "fixed", 13, (0, 1)),
    (16, 4, 4, "fixed", 8, (0, 0)),
)


@dataclass(frozen=True)
class Checksum:
    """Exact sums over one population's outcomes, plus its dedup shape."""

    jobs: int
    unique: int
    bandwidth: Fraction
    period: int
    transient: int


CENSUS = Checksum(
    jobs=12437,
    unique=3088,
    bandwidth=Fraction(71309887721, 4157010),
    period=558532,
    transient=78521,
)


def census_population(seed: int) -> list[SimJob]:
    """Every stride pair at every start phase of each census shape."""
    jobs = []
    for banks, bank_cycle, sections, priority, phases, cpus in CENSUS_SHAPES:
        cfg = MemoryConfig(banks=banks, bank_cycle=bank_cycle, sections=sections)
        for d1 in range(1, banks + 1):
            for d2 in range(1, banks + 1):
                for phase in range(phases):
                    jobs.append(
                        SimJob.from_specs(
                            cfg,
                            [(0, d1), (phase, d2)],
                            cpus=cpus,
                            priority=priority,
                        )
                    )
    random.Random(seed).shuffle(jobs)
    return jobs


def checksum(outcomes: list, unique: int) -> Checksum:
    """The :class:`Checksum` a list of steady outcomes adds up to."""
    return Checksum(
        jobs=len(outcomes),
        unique=unique,
        bandwidth=sum((o.bandwidth for o in outcomes), Fraction(0)),
        period=sum(o.period for o in outcomes),
        transient=sum(o.steady_start for o in outcomes),
    )


# ----------------------------------------------------------------------
# serve-mix
# ----------------------------------------------------------------------
#: Shares of the request stream; the rest are novel undecided pairs.
SINGLE_SHARE = 0.5
HOT_SHARE = 0.3
SINGLES = 128
HOT = 16


@dataclass(frozen=True)
class Request:
    """One POST /v1/beff request and the job it asks about."""

    job: SimJob
    wire: bytes


def _request(body: dict) -> Request:
    cfg = MemoryConfig(banks=body["banks"], bank_cycle=body["bank_cycle"])
    job = SimJob.from_specs(
        cfg,
        [tuple(s) for s in body["streams"]],
        cpus=body.get("cpus"),
        priority=body.get("priority", "fixed"),
    )
    data = json.dumps(body, separators=(",", ":")).encode()
    head = (
        "POST /v1/beff HTTP/1.1\r\nHost: perfbench\r\n"
        f"Content-Length: {len(data)}\r\n\r\n"
    ).encode()
    return Request(job, head + data)


def _cyclic_pair(rng: random.Random, lo: int, hi: int) -> dict:
    m = rng.randint(lo, hi)
    return {
        "banks": m,
        "bank_cycle": 4,
        "streams": [[0, rng.randint(1, m)], [rng.randrange(m), rng.randint(1, m)]],
        "cpus": [0, 1],
        "priority": "cyclic",
    }


def serve_requests(seed: int, count: int) -> list[Request]:
    """``count`` requests of the seeded serve mix.

    Singles (m up to 4096) are decided by Theorem 1, so the lookup tier
    answers them without simulating.  Cyclic-priority pairs are never
    analytically decided: the hot set is simulated once and then answered
    from the lookup tier's table, and every novel pair (unique under the isomorphism
    key) reaches the coalescer and a fast-engine simulation.
    """
    rng = random.Random(seed)
    singles = []
    for _ in range(SINGLES):
        m = rng.randint(2, 4096)
        body = {
            "banks": m,
            "bank_cycle": rng.choice((4, 8)),
            "streams": [[rng.randrange(m), rng.randint(1, m)]],
        }
        singles.append(_request(body))
    seen: set[str] = set()
    hot = []
    while len(hot) < HOT:
        req = _request(_cyclic_pair(rng, 16, 32))
        key = req.job.cache_key()
        if key not in seen:
            seen.add(key)
            hot.append(req)
    out = []
    while len(out) < count:
        u = rng.random()
        if u < SINGLE_SHARE:
            out.append(rng.choice(singles))
        elif u < SINGLE_SHARE + HOT_SHARE:
            out.append(rng.choice(hot))
        else:
            req = _request(_cyclic_pair(rng, 32, 64))
            key = req.job.cache_key()
            if key not in seen:
                seen.add(key)
                out.append(req)
    return out
