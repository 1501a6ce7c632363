"""The committed corpus and drawn populations down every path.

``corpus.json`` pins each wire-format job's cache key and exact answer
across commits; the reference engine must rederive every entry, and
every path in ``paths.py`` must return it.  Drawn populations reach the
in-process executor and the service's lookup tiers, and one population
is wide enough for the ``auto`` backend's batch tier.  Twins — one job
at the bounds just below and at its ``mu + lam`` — must each answer as
a cold run of their own would, whichever ran or was cached first.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings

from repro.runner.analytic import BATCH_MIN_POPULATION

from .paths import (
    CORPUS,
    ENTRIES,
    NAMED,
    check_batch,
    check_executor,
    check_http,
    check_run,
    check_twins,
    derive,
    jobs,
    populations,
    truth,
)


def test_corpus_on_every_path():
    for entry in ENTRIES:
        assert derive(entry) == entry, entry["name"]
    for job in CORPUS:
        check_run(job)
    finishing = [job for job in CORPUS if isinstance(truth(job), dict)]
    check_batch(finishing)
    check_batch([job for job in CORPUS if job not in finishing])
    for placement in ("inline", "pool-2", "pool-2-store"):
        check_executor(CORPUS, "auto", placement)
    check_http(CORPUS)


@given(population=populations(max_size=10))
@settings(max_examples=8, deadline=None)
def test_inline_executor_and_service_answer_the_truth(population):
    check_executor(population, "auto", "inline")
    check_http(population)


@given(
    population=populations(
        min_size=BATCH_MIN_POPULATION,
        max_size=BATCH_MIN_POPULATION,
        banks=(2, 6),
        streams=(3, 3),
    )
)
@settings(max_examples=1, deadline=None)
def test_auto_population_takes_the_batch_tier(population):
    """Three streams are never decided, so the whole population goes to
    the lockstep kernel in the cold inline pass."""
    assert check_executor(population, "auto", "inline") == BATCH_MIN_POPULATION


@pytest.mark.parametrize(
    "name", ["fig8a", "fig8b", "long-block-cyclic", "xmp-three-ports", "fig3-lru"]
)
def test_corpus_twins_on_every_path(name):
    check_twins(NAMED[name])


@given(job=jobs(streams=(1, 3), modes=("steady",)))
@settings(max_examples=6, deadline=None)
def test_drawn_twins_on_every_path(job):
    assume(isinstance(truth(job), dict))
    check_twins(job)
