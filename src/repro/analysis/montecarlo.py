"""Monte-Carlo environment analysis: expected bandwidth, random starts.

"In general the relative starting positions cannot be predicted" — so a
system designer cares about the *expectation and tail* of the bandwidth
over random placements, not just the best case.  For two streams the
start space is small enough to enumerate exactly
(:mod:`repro.sim.statespace`); for three or more streams it grows as
``m^(k-1)`` and sampling takes over.  This module samples k-stream
environments with a seeded RNG and reports distribution summaries.

Samples run as one batch through a :class:`repro.runner.SweepExecutor`:
repeated and isomorphic placements collapse onto single simulations (the
executor's canonical-job memoization subsumes the explicit de-dup this
module used to carry), and a multi-worker executor fans the batch out
over processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..memory.config import MemoryConfig
from ..runner import SimJob, SweepExecutor, default_executor

__all__ = ["EnvironmentSample", "sample_environments", "expected_bandwidth"]


@dataclass(frozen=True)
class EnvironmentSample:
    """Distribution summary of steady bandwidths over random starts."""

    m: int
    n_c: int
    strides: tuple[int, ...]
    samples: int
    mean: float
    worst: Fraction
    best: Fraction
    #: empirical P(b_eff == best) — how lucky a random placement must be
    best_share: float

    @property
    def spread(self) -> float:
        """best - worst, as floats (0 for placement-insensitive pairs)."""
        # Presentation boundary: worst/best stay exact Fractions above.
        return float(self.best) - float(self.worst)  # reprolint: disable=EXACT001


def sample_environments(
    config: MemoryConfig,
    strides: list[int],
    *,
    samples: int = 50,
    seed: int = 0,
    same_cpu: bool = False,
    priority: str = "fixed",
    executor: SweepExecutor | None = None,
) -> EnvironmentSample:
    """Sample random start banks for ``strides`` and summarise b_eff.

    Stream 0 is pinned at bank 0 (only relative placement matters); the
    rest draw uniform starts.  Exact rational bandwidths per sample come
    from the steady-state detector, so ``worst``/``best`` are exact
    values actually attained.
    """
    if not strides:
        raise ValueError("need at least one stride")
    if samples <= 0:
        raise ValueError("sample count must be positive")
    import numpy as np  # only the sampler needs it

    m = config.banks
    rng = np.random.default_rng(seed)
    cpus = [0] * len(strides) if same_cpu else list(range(len(strides)))
    ex = executor if executor is not None else default_executor()
    jobs = []
    for _ in range(samples):
        starts = (0, *(int(x) for x in rng.integers(0, m, len(strides) - 1)))
        specs = [(b, d % m) for b, d in zip(starts, strides)]
        jobs.append(
            SimJob.from_specs(
                config, specs, cpus=cpus, priority=priority,
                max_cycles=2_000_000,
            )
        )
    values = [out.bandwidth for out in ex.run_many(jobs)]
    best = max(values)
    return EnvironmentSample(
        m=m,
        n_c=config.bank_cycle,
        strides=tuple(d % m for d in strides),
        samples=samples,
        # mean/best_share are declared float summaries of an exact sample
        # set; worst/best keep the attained Fractions.
        mean=float(sum(values, Fraction(0)) / len(values)),  # reprolint: disable=EXACT001
        worst=min(values),
        best=best,
        best_share=sum(1 for v in values if v == best) / len(values),  # reprolint: disable=EXACT001
    )


def expected_bandwidth(
    config: MemoryConfig,
    strides: list[int],
    **kwargs,
) -> float:
    """Shorthand for the sampled mean of :func:`sample_environments`."""
    return sample_environments(config, strides, **kwargs).mean
