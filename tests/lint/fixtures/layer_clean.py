"""LAYER001 fixture: everything rides the runner layer."""

from repro.runner import SimJob, SweepExecutor, run
from repro.sim.engine import SimulationResult  # importing types is fine


def steady(config, specs):
    job = SimJob.from_specs(config, specs)
    return run(job, backend="fast")


def sweep(jobs) -> list:
    return SweepExecutor().run_many(jobs)


def population(jobs) -> list:
    from repro.runner import get_backend

    # The batch core is reached through its backend, never directly.
    return get_backend("batch").run_batch(jobs)


def annotate(res: SimulationResult) -> int:
    return res.cycles

# reprolint: module=repro.viz.layer_fixture
