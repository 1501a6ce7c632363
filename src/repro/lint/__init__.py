"""reprolint: AST-based invariant analysis for the reproduction.

The reproduction's value rests on invariants that runtime tests only
spot-check: theorem verdicts are exact ``Fraction`` arithmetic, sweeps
are deterministic across process-pool fan-out, and every simulation
rides the runner layer so backends stay bit-identical and cacheable.
This package enforces those invariants *statically*, at CI time:

* ``EXACT001`` — no float contamination in the exactness layers;
* ``DET001`` — no unseeded RNGs, wall-clock reads, or set-order leaks;
* ``LAYER001`` — engine primitives only behind ``run(job, backend=...)``;
* ``API001`` — ``__all__`` ↔ ``docs/API.md`` drift;
* ``FROZEN001`` — no ``object.__setattr__`` mutation of frozen results;
* ``OBS001`` — monotonic-clock reads confined to ``repro.obs.trace``;
* ``IMPORT001`` — the layer DAG on the whole-program import graph;
* ``PAR001`` — process-pool workers picklable and global-free;
* ``OBS002`` — instrumentation names from ``repro.obs.names`` only;
* ``DEAD001`` — no dead ``__all__`` surface on leaf modules.

The per-file rules walk one AST at a time; the cross-file rules share a
whole-program :class:`~repro.lint.index.ProjectIndex` built in a single
parse pass.  The driver keeps an incremental cache
(``.reprolint-cache.json``), fans files over a process pool
(``--jobs``) and renders SARIF 2.1.0 for code scanning (``--format
sarif``).  See ``docs/LINT.md`` for the full rule catalog.

Run it with ``repro-mem lint`` or ``python tools/run_reprolint.py``;
suppress intentional exceptions with ``# reprolint: disable=RULE``.
Pure stdlib — importing this package never imports the simulator.
"""

from .framework import (
    Finding,
    LintCache,
    LintContext,
    LintReport,
    ProjectRule,
    Rule,
    Suppressions,
    all_rules,
    get_rules,
    lint_file,
    lint_paths,
    lint_source,
    module_name_for_path,
    register_rule,
    rules_digest,
)
from .index import ModuleInfo, ProjectIndex
from .report import render_json, render_text, to_json_dict
from .sarif import render_sarif, to_sarif_dict

__all__ = [
    "Finding",
    "LintCache",
    "LintContext",
    "LintReport",
    "ModuleInfo",
    "ProjectIndex",
    "ProjectRule",
    "Rule",
    "Suppressions",
    "all_rules",
    "get_rules",
    "lint_file",
    "lint_paths",
    "lint_source",
    "module_name_for_path",
    "register_rule",
    "render_json",
    "render_sarif",
    "render_text",
    "rules_digest",
    "to_json_dict",
    "to_sarif_dict",
]
