"""What loads when: each stack is imported by the first code that uses it.

NumPy backs only the lockstep batch kernel, so importing the package,
booting the CLI or the service, answering requests below the batch
threshold, and running pairs at any population size must not load it.
Each check runs in a fresh interpreter, since this test process has
long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def _fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON line last."""
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "module",
    ["repro", "repro.cli", "repro.runner", "repro.serve", "repro.analysis"],
)
def test_import_loads_no_numpy(module):
    loaded = _fresh(
        f"import json, sys, {module}\n"
        "print(json.dumps('numpy' in sys.modules))"
    )
    assert loaded is False


def test_package_surface_resolves_on_first_access():
    out = _fresh(
        "import json, sys, repro\n"
        "loaded = [m for m in sys.modules if m.startswith('repro.')]\n"
        "listed = set(repro.__all__) <= set(dir(repro))\n"
        "ns = {}\n"
        "exec('from repro import *', ns)\n"
        "star = sorted(set(ns) - {'__builtins__'}) == sorted(repro.__all__)\n"
        "print(json.dumps({'loaded': loaded, 'listed': listed, 'star': star}))"
    )
    assert out == {"loaded": [], "listed": True, "star": True}


def test_serve_boot_loads_only_its_own_stack():
    loaded = _fresh(
        "import json, sys, repro.cli, repro.serve.app\n"
        "repro.cli.build_parser()\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    for name in (
        "numpy", "repro.analysis", "repro.machine", "repro.viz",
        "repro.lint", "repro.sim",
    ):
        assert name not in loaded


def test_serving_below_the_batch_threshold_loads_no_numpy():
    out = _fresh(
        "import asyncio, json, sys\n"
        "from repro.runner.executor import SweepExecutor\n"
        "from repro.serve.app import BandwidthService\n"
        "service = BandwidthService(executor=SweepExecutor(backend='auto'))\n"
        "single = {'banks': 8, 'bank_cycle': 4, 'streams': [[0, 4]]}\n"
        "pair = {'banks': 8, 'bank_cycle': 4, 'streams': [[0, 4], [0, 4]]}\n"
        "async def main():\n"
        "    tiers = []\n"
        "    for body in (single, pair, pair):\n"
        "        _, _, raw, _ = await service.dispatch(\n"
        "            'POST', '/v1/beff', json.dumps(body).encode())\n"
        "        tiers.append(json.loads(raw)['tier'])\n"
        "    return tiers\n"
        "tiers = asyncio.run(main())\n"
        "print(json.dumps({'tiers': tiers, 'numpy': 'numpy' in sys.modules}))"
    )
    assert out == {"tiers": ["analytic", "simulated", "memo"], "numpy": False}


def test_validating_and_serving_a_pair_load_only_the_priority_rules():
    # Job validation parses the priority spec; that must not drag in the
    # engine and the rest of repro.sim (it cost the first request of a
    # process some 40 ms).
    out = _fresh(
        "import asyncio, json, sys\n"
        "from repro.runner import SimJob\n"
        "from repro.runner.executor import SweepExecutor\n"
        "from repro.serve.app import BandwidthService\n"
        "def sim():\n"
        "    return sorted(m for m in sys.modules if m.startswith('repro.sim'))\n"
        "SimJob(banks=8, bank_cycle=4, streams=((0, 1), (1, 3)),\n"
        "       cpus=(0, 1), priority='cyclic')\n"
        "validated = sim()\n"
        "service = BandwidthService(executor=SweepExecutor(backend='auto'))\n"
        "pair = {'banks': 37, 'bank_cycle': 4, 'streams': [[0, 5], [3, 11]],\n"
        "        'cpus': [0, 1], 'priority': 'cyclic'}\n"
        "async def main():\n"
        "    tiers = []\n"
        "    for _ in range(2):\n"
        "        _, _, raw, _ = await service.dispatch(\n"
        "            'POST', '/v1/beff', json.dumps(pair).encode())\n"
        "        tiers.append(json.loads(raw)['tier'])\n"
        "    return tiers\n"
        "tiers = asyncio.run(main())\n"
        "pools = sorted(m for m in ('multiprocessing',\n"
        "                           'concurrent.futures.process')\n"
        "               if m in sys.modules)\n"
        "print(json.dumps({'validated': validated, 'served': sim(),\n"
        "                  'tiers': tiers, 'pools': pools}))"
    )
    # A fused pair simulates from the job's fields: no arbiter policy.
    rules = ["repro.sim", "repro.sim.priority"]
    assert out == {
        "validated": rules,
        "served": rules,
        "tiers": ["simulated", "memo"],
        "pools": [],
    }


def test_inline_sweep_loads_no_pool_machinery():
    # Only a pooled run needs concurrent.futures and multiprocessing;
    # importing them costs an inline sweep several milliseconds.
    out = _fresh(
        "import json, sys\n"
        "from repro.memory.config import MemoryConfig\n"
        "from repro.runner import SweepExecutor, jobs_for_offsets\n"
        "cfg = MemoryConfig(banks=16, bank_cycle=4)\n"
        "outs = SweepExecutor(backend='auto').run_many(\n"
        "    jobs_for_offsets(cfg, 1, 6, range(16)))\n"
        "print(json.dumps({'jobs': len(outs), 'pools': sorted(\n"
        "    m for m in sys.modules\n"
        "    if m.split('.')[0] in ('concurrent', 'multiprocessing'))}))"
    )
    assert out == {"jobs": 16, "pools": []}


#: ``BATCH_MIN_POPULATION`` undecided jobs of one clocked shape (the
#: closed form decides no three-stream job), and the same number of
#: undecided fused pairs, fixed and cyclic.
_POPULATIONS = (
    "from repro.memory.config import MemoryConfig\n"
    "from repro.runner import SimJob, solve\n"
    "from repro.runner.analytic import BATCH_MIN_POPULATION\n"
    "cfg = MemoryConfig(banks=16, bank_cycle=4)\n"
    "def population(rules, streams, size=BATCH_MIN_POPULATION):\n"
    "    undecided = {}\n"
    "    for d1 in range(1, 16):\n"
    "        for d2 in range(d1, 16):\n"
    "            for off in range(16):\n"
    "                for rule in rules:\n"
    "                    specs = [(0, d1), (off, d2), (1, 3)][:streams]\n"
    "                    job = SimJob.from_specs(cfg, specs, priority=rule)\n"
    "                    if solve(job) is None:\n"
    "                        undecided.setdefault(job.cache_key(), job)\n"
    "    return list(undecided.values())[:size]\n"
    "clocked = population(['fixed'], 3)\n"
    "pairs = population(['fixed', 'cyclic'], 2)\n"
)


def test_batch_kernel_run_loads_numpy_with_fast_answers():
    out = _fresh(
        "import json, sys\n"
        "from repro.runner import SweepExecutor, run\n"
        + _POPULATIONS
        + "jobs = clocked\n"
        "before = 'numpy' in sys.modules\n"
        "outs = SweepExecutor(backend='auto').run_many(jobs)\n"
        "def answer(o):\n"
        "    p = o.to_payload()\n"
        "    del p['backend']\n"
        "    return p\n"
        "print(json.dumps({\n"
        "    'jobs': len(jobs),\n"
        "    'before': before,\n"
        "    'after': 'numpy' in sys.modules,\n"
        "    'equal': [answer(o) for o in outs]\n"
        "        == [answer(run(j, backend='fast')) for j in jobs],\n"
        "}))"
    )
    from repro.runner.analytic import BATCH_MIN_POPULATION

    assert out == {
        "jobs": BATCH_MIN_POPULATION,
        "before": False,
        "after": True,
        "equal": True,
    }


@pytest.mark.parametrize("workers", [1, 2])
def test_fused_pair_populations_stay_on_fast_without_numpy(workers):
    # Pairs run on the fast engine at any population size, so neither
    # an inline run nor a pool's parent before the fork imports NumPy.
    out = _fresh(
        "import json, sys\n"
        "from repro.obs import capture_metrics, names\n"
        "from repro.runner import SweepExecutor, scheduling\n"
        + _POPULATIONS
        + "forked = []\n"
        "load = scheduling._load_batch_kernel\n"
        "def spy(backend, chunks):\n"
        "    load(backend, chunks)\n"
        "    forked.append('numpy' in sys.modules)\n"
        "scheduling._load_batch_kernel = spy\n"
        f"ex = SweepExecutor(backend='auto', workers={workers})\n"
        "with capture_metrics() as metrics:\n"
        "    ex.run_many(pairs)\n"
        "fast = metrics.get(names.AUTO_DISPATCH, tier='fastsim')\n"
        "print(json.dumps({\n"
        "    'jobs': len(pairs),\n"
        "    'fastsim': fast.value if fast else 0,\n"
        "    'forked': forked,\n"
        "    'numpy': 'numpy' in sys.modules,\n"
        "}))"
    )
    from repro.runner.analytic import BATCH_MIN_POPULATION

    assert out["jobs"] >= BATCH_MIN_POPULATION
    if workers == 1:
        # Pool workers keep their own metrics.
        assert out["fastsim"] == out["jobs"]
    assert out["forked"] == ([False] if workers > 1 else [])
    assert out["numpy"] is False


def test_pool_parent_preloads_the_kernel_for_clocked_auto_chunks():
    # Two chunks of 96 undecided three-stream jobs each: every worker's
    # auto backend batches its chunk, so the parent loads NumPy first.
    out = _fresh(
        "import json, sys\n"
        "from repro.runner import SweepExecutor, scheduling\n"
        + _POPULATIONS
        + "forked = []\n"
        "load = scheduling._load_batch_kernel\n"
        "def spy(backend, chunks):\n"
        "    load(backend, chunks)\n"
        "    forked.append(('numpy' in sys.modules, list(map(len, chunks))))\n"
        "scheduling._load_batch_kernel = spy\n"
        "jobs = population(['fixed'], 3, 2 * BATCH_MIN_POPULATION)\n"
        "SweepExecutor(backend='auto', workers=2).run_many(jobs)\n"
        "print(json.dumps(forked))"
    )
    from repro.runner.analytic import BATCH_MIN_POPULATION

    assert out == [[True, [BATCH_MIN_POPULATION, BATCH_MIN_POPULATION]]]


def test_pool_parent_preloads_the_kernel_only_for_batch_chunks():
    # Forked workers inherit what the parent imported before the fork;
    # loading NumPy in each worker of each pool made pooled batch runs
    # several times slower.
    out = _fresh(
        "import json, sys\n"
        "from repro.memory.config import MemoryConfig\n"
        "from repro.runner import SweepExecutor, jobs_for_offsets\n"
        "cfg = MemoryConfig(banks=8, bank_cycle=4)\n"
        "jobs = jobs_for_offsets(cfg, 4, 4, range(8))\n"
        "SweepExecutor(backend='auto', workers=2).run_many(jobs)\n"
        "auto = 'numpy' in sys.modules\n"
        "ex = SweepExecutor(backend='batch', workers=2)\n"
        "ex.run_many(jobs)\n"
        "print(json.dumps({'auto': auto, 'batch': 'numpy' in sys.modules,\n"
        "                  'pooled': ex.stats.executed > 1}))"
    )
    assert out == {"auto": False, "batch": True, "pooled": True}
