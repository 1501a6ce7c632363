"""The file-scoped reprolint rules.

Each rule guards one invariant of the reproduction (see DESIGN.md §7):

``EXACT001``
    Theorem checks are *exact*: bandwidths are ``Fraction`` values end to
    end, so the exactness layers (``repro.core``, ``repro.runner``,
    ``repro.analysis``) must not introduce floats — no float literals, no
    ``float()``/``complex()`` conversions, no true division (``/``
    silently produces a float on integers; write ``Fraction(a, b)`` or
    ``a // b``).  The same discipline extends to NumPy state arrays
    (the ``runner.batchsim`` SoA core): array constructors must pin an
    exact dtype (``np.int64`` / ``np.bool_`` / ``np.intp``) so nothing
    silently lands in ``float64`` or a platform-narrow integer that can
    overflow, float dtypes never appear, and ``np.divide`` /
    ``np.true_divide`` are forbidden outright.  Presentation helpers
    whose *name* ends in ``_float`` are the blessed boundary where
    exact values become floats for display, and are exempt.
``DET001``
    Results must be reproducible run-to-run and identical across the
    in-process and process-pool execution paths: no module-level
    ``random.*`` calls, no legacy ``numpy.random`` global-state API, no
    unseeded ``default_rng()``, no wall-clock reads, and no iteration
    over sets where the order can leak into results (Python set order is
    arbitrary across processes — exactly the hazard of the
    ``SweepExecutor`` fan-out).
``LAYER001``
    Every simulation rides ``run(job, backend=...)`` so backends stay
    interchangeable and sweeps stay cacheable: the engine primitives
    (``Engine``, ``Port``, ``simulate_streams``) may only be invoked
    from ``repro.runner.backends`` and the engine cores themselves.
``FROZEN001``
    ``SimJob``/``SimOutcome`` are frozen: cache keys and memoized
    outcomes assume value semantics, so ``object.__setattr__`` mutation
    of frozen instances is forbidden outside ``__init__``-family
    methods (the frozen-dataclass self-initialization idiom).
``OBS001``
    Monotonic-clock reads (``time.perf_counter`` and friends) inside
    the ``repro`` package are confined to ``repro.obs.trace`` — the one
    sanctioned timing boundary, off by default, whose readings can
    never flow into result values.  Benchmarks and tools outside the
    package time things however they like.

Three *project* rules (whole-program, run once per invocation on the
shared :class:`~repro.lint.index.ProjectIndex`) live here too:

``PAR001``
    Anything handed to a process pool (``.submit``/``.map`` in a module
    importing ``concurrent.futures`` or ``multiprocessing``) must be a
    module-level picklable callable — no lambdas, no bound methods, no
    nested functions, no call results, and no workers that mutate
    module globals (each pool process gets its own copy; mutations
    silently diverge).  ``REPRO_CHAOS_*`` env literals are confined to
    ``repro.runner.resilience``, the worker-side chaos boundary.
``OBS002``
    Metric/span names at instrumentation call sites must be
    ``repro.obs.names`` constants — the static complement to the
    runtime contract test, enforced even on never-executed paths.
``DEAD001``
    ``__all__`` entries of leaf modules that no other file references
    are dead surface: drop the export or the symbol.  Package
    ``__init__`` re-export lists are the curated public API and are
    exempt.

File rules scope themselves by the module's dotted name (fixture files
declare theirs with a ``# reprolint: module=`` directive); project
rules additionally consult the file's tree role.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from .framework import (
    Finding,
    LintContext,
    ProjectRule,
    Rule,
    register_rule,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .index import ModuleInfo, ProjectIndex

__all__ = [
    "ClockBoundaryRule",
    "DeadExportRule",
    "DeterminismRule",
    "ExactnessRule",
    "FrozenMutationRule",
    "MetricNameRule",
    "PoolSafetyRule",
    "RunnerLayerRule",
]


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def build_import_map(ctx: LintContext) -> dict[str, str]:
    """Map local names to their dotted import origins.

    ``import numpy as np``               → ``{"np": "numpy"}``
    ``from numpy import random``         → ``{"random": "numpy.random"}``
    ``from ..sim.engine import Engine``  → ``{"Engine": "repro.sim.engine.Engine"}``

    Relative imports resolve against ``ctx.module`` when known; when the
    package is unknown the unresolved leading levels are dropped, so
    origin matching should compare by dotted *suffix*.
    """
    out: dict[str, str] = {}
    pkg_parts: list[str] = []
    if ctx.module:
        parts = ctx.module.split(".")
        pkg_parts = parts if ctx.is_package else parts[:-1]
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                origin = alias.name if alias.asname else alias.name.split(".")[0]
                out[bound] = origin
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = pkg_parts[: len(pkg_parts) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                out[bound] = f"{base}.{alias.name}" if base else alias.name
    return out


def dotted_name(node: ast.expr) -> list[str] | None:
    """``a.b.c`` attribute chain as a list, or ``None`` for other shapes."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


def resolve_call_origin(
    node: ast.Call, imports: dict[str, str]
) -> str | None:
    """Dotted origin of a call target, alias-resolved (best effort)."""
    chain = dotted_name(node.func)
    if not chain:
        return None
    head = imports.get(chain[0], chain[0])
    return ".".join([head, *chain[1:]])


class _ScopedVisitor(ast.NodeVisitor):
    """Visitor that tracks the enclosing function-name stack."""

    def __init__(self) -> None:
        self.func_stack: list[str] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_func(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_func(node)

    def _visit_func(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.func_stack.append(node.name)
        try:
            self.generic_visit(node)
        finally:
            self.func_stack.pop()


# ----------------------------------------------------------------------
# EXACT001
# ----------------------------------------------------------------------
#: NumPy constructors whose default dtype is float64 or a
#: platform-dependent integer — silent overflow / precision hazards on
#: the exact int64 state arrays of the batch core.
_NP_CONSTRUCTORS = frozenset({
    "zeros", "ones", "empty", "full", "arange", "array", "asarray",
})
#: The exact dtypes the state arrays may pin.
_NP_EXACT_DTYPES = frozenset({
    "numpy.int64", "numpy.bool_", "numpy.intp",
})
#: Float dtypes: forbidden anywhere on an exact path.
_NP_FLOAT_DTYPES = frozenset({
    "numpy.float16", "numpy.float32", "numpy.float64", "numpy.float128",
    "numpy.half", "numpy.single", "numpy.double", "numpy.longdouble",
    "numpy.floating",
})
#: ufuncs that produce floats from integer input.
_NP_FLOAT_CALLS = frozenset({"numpy.divide", "numpy.true_divide"})


@register_rule
class ExactnessRule(Rule):
    code = "EXACT001"
    name = "exact-fraction-arithmetic"
    description = (
        "No float literals, float()/complex() conversions, or true "
        "division in the exactness layers (repro.core, repro.runner, "
        "repro.analysis, repro.obs); NumPy state arrays pin exact "
        "dtypes (np.int64/np.bool_/np.intp) and never touch float "
        "dtypes or np.divide; *_float helpers are the blessed "
        "presentation boundary."
    )

    SCOPES = ("repro.core", "repro.runner", "repro.analysis", "repro.obs")

    def applies_to(self, ctx: LintContext) -> bool:
        return ctx.in_package(*self.SCOPES)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        rule = self
        imports = build_import_map(ctx)

        class V(_ScopedVisitor):
            def __init__(self) -> None:
                super().__init__()
                self.found: list[Finding] = []

            def _visit_func(self, node):  # type: ignore[override]
                if node.name.endswith("_float"):
                    return  # blessed presentation helper: skip subtree
                super()._visit_func(node)

            def visit_Constant(self, node: ast.Constant) -> None:
                if type(node.value) is float:
                    self.found.append(rule.finding(
                        ctx, node,
                        f"float literal {node.value!r} on an exact path; "
                        "use Fraction or move it behind a *_float helper",
                    ))
                elif type(node.value) is complex:
                    self.found.append(rule.finding(
                        ctx, node,
                        f"complex literal {node.value!r} on an exact path",
                    ))

            def visit_Attribute(self, node: ast.Attribute) -> None:
                chain = dotted_name(node)
                if chain is not None:
                    head = imports.get(chain[0], chain[0])
                    origin = ".".join([head, *chain[1:]])
                    if origin in _NP_FLOAT_DTYPES:
                        self.found.append(rule.finding(
                            ctx, node,
                            f"float dtype {origin} on an exact path; the "
                            "state arrays stay np.int64/np.bool_ and "
                            "bandwidth stays Fraction at the boundary",
                        ))
                self.generic_visit(node)

            def _check_numpy_call(self, node: ast.Call) -> None:
                origin = resolve_call_origin(node, imports)
                if origin is None:
                    return
                if origin in _NP_FLOAT_CALLS:
                    self.found.append(rule.finding(
                        ctx, node,
                        f"{origin}() produces floats from integer "
                        "arrays; use Fraction(a, b) or // at the "
                        "boundary",
                    ))
                    return
                parts = origin.split(".")
                if (
                    len(parts) == 2
                    and parts[0] == "numpy"
                    and parts[1] in _NP_CONSTRUCTORS
                ):
                    dtype = next(
                        (k.value for k in node.keywords if k.arg == "dtype"),
                        None,
                    )
                    if dtype is None:
                        self.found.append(rule.finding(
                            ctx, node,
                            f"numpy.{parts[1]}() without an explicit "
                            "dtype defaults to float64 or a "
                            "platform-dependent integer; pin "
                            "dtype=np.int64 (or np.bool_/np.intp)",
                        ))
                        return
                    chain = dotted_name(dtype)
                    resolved = None
                    if chain is not None:
                        head = imports.get(chain[0], chain[0])
                        resolved = ".".join([head, *chain[1:]])
                    if resolved in _NP_FLOAT_DTYPES:
                        return  # visit_Attribute already flags it
                    if resolved not in _NP_EXACT_DTYPES:
                        self.found.append(rule.finding(
                            ctx, node,
                            f"numpy.{parts[1]}() dtype is not an exact "
                            "dtype; pin dtype=np.int64 (or "
                            "np.bool_/np.intp) so state arrays cannot "
                            "silently overflow or go float",
                        ))

            def visit_Call(self, node: ast.Call) -> None:
                if isinstance(node.func, ast.Name) and node.func.id in (
                    "float", "complex",
                ):
                    self.found.append(rule.finding(
                        ctx, node,
                        f"{node.func.id}() conversion on an exact path; "
                        "keep Fraction, or rename the enclosing helper "
                        "to *_float",
                    ))
                self._check_numpy_call(node)
                self.generic_visit(node)

            def visit_BinOp(self, node: ast.BinOp) -> None:
                if isinstance(node.op, ast.Div):
                    self.found.append(rule.finding(
                        ctx, node,
                        "true division on an exact path silently "
                        "produces a float on integers; use "
                        "Fraction(a, b) or a // b",
                    ))
                self.generic_visit(node)

            def visit_AugAssign(self, node: ast.AugAssign) -> None:
                if isinstance(node.op, ast.Div):
                    self.found.append(rule.finding(
                        ctx, node,
                        "in-place true division on an exact path; use "
                        "Fraction or //=",
                    ))
                self.generic_visit(node)

        v = V()
        v.visit(ctx.tree)
        yield from v.found


# ----------------------------------------------------------------------
# DET001
# ----------------------------------------------------------------------
#: Order-sensitive consumers: feeding them a set leaks arbitrary order
#: into results (sorted()/len()/min()/max()/sum() are order-free).
_ORDER_SENSITIVE_CALLS = frozenset(
    {"list", "tuple", "iter", "enumerate", "zip"}
)
#: numpy.random legacy API — global-state, seed-order-dependent.
_NUMPY_LEGACY = frozenset({
    "seed", "rand", "randn", "randint", "random", "random_sample",
    "choice", "shuffle", "permutation", "normal", "uniform", "bytes",
})
_WALLCLOCK = frozenset({
    "time.time", "time.time_ns", "datetime.now", "datetime.utcnow",
    "datetime.today", "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


def _is_set_valued(node: ast.expr, imports: dict[str, str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        name = imports.get(node.func.id, node.func.id)
        return name in ("set", "frozenset")
    return False


@register_rule
class DeterminismRule(Rule):
    code = "DET001"
    name = "deterministic-results"
    description = (
        "No unseeded/global RNG state, no wall-clock reads, and no "
        "set-iteration-order leaking into ordered results."
    )

    def applies_to(self, ctx: LintContext) -> bool:
        # Result determinism is a repro-package invariant; tests and
        # tools may read clocks and roll dice however they like.
        return ctx.in_package("repro")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        imports = build_import_map(ctx)
        rule = self

        class V(_ScopedVisitor):
            def __init__(self) -> None:
                super().__init__()
                self.found: list[Finding] = []

            def visit_Call(self, node: ast.Call) -> None:
                origin = resolve_call_origin(node, imports)
                if origin is not None:
                    self._check_origin(node, origin)
                if (
                    isinstance(node.func, ast.Name)
                    and imports.get(node.func.id, node.func.id)
                    in _ORDER_SENSITIVE_CALLS
                    and node.args
                    and any(_is_set_valued(a, imports) for a in node.args)
                ):
                    self.found.append(rule.finding(
                        ctx, node,
                        f"{node.func.id}() over a set leaks arbitrary "
                        "iteration order into results; sort first "
                        "(sorted(...)) or keep a list",
                    ))
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                    and node.args
                    and _is_set_valued(node.args[0], imports)
                ):
                    self.found.append(rule.finding(
                        ctx, node,
                        "str.join over a set produces order-dependent "
                        "output; sort first",
                    ))
                self.generic_visit(node)

            def _check_origin(self, node: ast.Call, origin: str) -> None:
                parts = origin.split(".")
                if origin in _WALLCLOCK:
                    self.found.append(rule.finding(
                        ctx, node,
                        f"wall-clock read {origin}() in a result path "
                        "makes runs irreproducible; thread timestamps "
                        "in explicitly (time.perf_counter is fine for "
                        "benchmark timing)",
                    ))
                elif parts[0] == "random" and len(parts) == 2:
                    if parts[1] not in ("Random", "SystemRandom"):
                        self.found.append(rule.finding(
                            ctx, node,
                            f"module-level random.{parts[1]}() uses the "
                            "shared unseeded RNG; construct "
                            "random.Random(seed) instead",
                        ))
                elif parts[:2] == ["numpy", "random"] and len(parts) == 3:
                    if parts[2] in _NUMPY_LEGACY:
                        self.found.append(rule.finding(
                            ctx, node,
                            f"legacy numpy.random.{parts[2]}() mutates "
                            "global RNG state; use "
                            "numpy.random.default_rng(seed)",
                        ))
                    elif parts[2] == "default_rng" and not (
                        node.args or node.keywords
                    ):
                        self.found.append(rule.finding(
                            ctx, node,
                            "default_rng() without a seed is "
                            "irreproducible; pass an explicit seed",
                        ))

            def visit_For(self, node: ast.For) -> None:
                self._check_iter(node.iter)
                self.generic_visit(node)

            def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
                self._check_iter(node.iter)
                self.generic_visit(node)

            def visit_comprehension_iters(self, node: ast.expr) -> None:
                pass

            def _check_iter(self, iter_node: ast.expr) -> None:
                if _is_set_valued(iter_node, imports):
                    self.found.append(rule.finding(
                        ctx, iter_node,
                        "iterating a set in arbitrary order; wrap in "
                        "sorted(...) if the loop feeds ordered results",
                    ))

            def _visit_comp(self, node) -> None:
                for gen in node.generators:
                    self._check_iter(gen.iter)
                self.generic_visit(node)

            visit_ListComp = _visit_comp
            visit_SetComp = _visit_comp
            visit_DictComp = _visit_comp
            visit_GeneratorExp = _visit_comp

        v = V()
        v.visit(ctx.tree)
        yield from v.found


# ----------------------------------------------------------------------
# LAYER001
# ----------------------------------------------------------------------
@register_rule
class RunnerLayerRule(Rule):
    code = "LAYER001"
    name = "runner-layer-discipline"
    description = (
        "Engine primitives (Engine, Port, simulate_streams) may only be "
        "invoked from repro.runner.backends and the engine cores; "
        "everything else rides run(job, backend=...) and the "
        "SweepExecutor."
    )

    #: Modules allowed to touch the engine directly: the backend layer
    #: itself and the engine internals.  ``repro.runner.fastsim`` is
    #: the flat-array core the fast backend runs on — an engine
    #: primitive in its own right, blessed for the same reason
    #: ``repro.sim.engine`` is — and ``repro.runner.batchsim`` is its
    #: structure-of-arrays twin.
    BLESSED = frozenset({
        "repro.runner.backends",
        "repro.runner.fastsim",
        "repro.runner.batchsim",
        "repro.sim.engine",
        "repro.sim.port",
    })

    #: Call origins that bypass the runner layer (matched by suffix so
    #: relative imports resolve identically).  The fastsim core joins
    #: the historical engine primitives: calling ``FlatSim``, a
    #: steady-cycle detector or the pair span directly skips backend
    #: checking and the executor's cache, exactly like constructing an
    #: ``Engine``.  The
    #: batch core's entry points bypass the same way — and additionally
    #: skip the error/fallback bookkeeping only ``BatchBackend`` does.
    TARGET_SUFFIXES = (
        "sim.engine.Engine",
        "sim.engine.simulate_streams",
        "sim.port.Port",
        "runner.fastsim.FlatSim",
        "runner.fastsim.find_steady_cycle",
        "runner.fastsim.find_pair_cycle",
        "runner.fastsim.run_pair_span",
        "runner.batchsim.BatchSim",
        "runner.batchsim.run_steady_batch",
        "runner.batchsim.run_span_batch",
    )

    def applies_to(self, ctx: LintContext) -> bool:
        if ctx.module in self.BLESSED:
            return False
        # tools/ write committed artifacts, so they ride the runner
        # like package code; tests must construct engines to test them.
        return ctx.in_package("repro") or ctx.role == "tools"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        imports = build_import_map(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = resolve_call_origin(node, imports)
            if origin is None:
                continue
            for suffix in self.TARGET_SUFFIXES:
                if origin == suffix or origin.endswith("." + suffix):
                    short = suffix.rsplit(".", 1)[-1]
                    yield self.finding(
                        ctx, node,
                        f"direct {short}() call bypasses the runner "
                        "layer; build a SimJob and call "
                        "run(job, backend=...) so the result is "
                        "backend-checked and cacheable",
                    )
                    break


# ----------------------------------------------------------------------
# OBS001
# ----------------------------------------------------------------------
@register_rule
class ClockBoundaryRule(Rule):
    code = "OBS001"
    name = "clock-boundary"
    description = (
        "Monotonic-clock reads (time.perf_counter[_ns], "
        "time.monotonic[_ns], time.process_time[_ns]) in the repro "
        "package are confined to repro.obs.trace, the sanctioned span "
        "timing boundary."
    )

    #: The one module allowed to read the clock: span timing is off by
    #: default and its readings never reach a result value.
    BLESSED = frozenset({"repro.obs.trace"})

    #: Monotonic clocks (wall clocks are DET001's business).
    CLOCKS = frozenset({
        "time.perf_counter", "time.perf_counter_ns",
        "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns",
        "time.thread_time", "time.thread_time_ns",
    })

    def applies_to(self, ctx: LintContext) -> bool:
        if ctx.module in self.BLESSED:
            return False
        return ctx.in_package("repro")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        imports = build_import_map(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = resolve_call_origin(node, imports)
            if origin in self.CLOCKS:
                yield self.finding(
                    ctx, node,
                    f"{origin}() outside repro.obs.trace; ad-hoc timing "
                    "fragments the observability contract — wrap the "
                    "region in repro.obs.trace.span(...) instead",
                )


# ----------------------------------------------------------------------
# FROZEN001
# ----------------------------------------------------------------------
@register_rule
class FrozenMutationRule(Rule):
    code = "FROZEN001"
    name = "no-frozen-mutation"
    description = (
        "No object.__setattr__/__delattr__ mutation of frozen instances "
        "outside __init__-family methods: SimJob/SimOutcome identity "
        "backs cache keys and memoized outcomes."
    )

    #: The frozen-dataclass self-initialization idiom is legitimate.
    ALLOWED_SCOPES = frozenset({
        "__init__", "__post_init__", "__new__", "__setstate__",
    })

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        rule = self

        class V(_ScopedVisitor):
            def __init__(self) -> None:
                super().__init__()
                self.found: list[Finding] = []

            def visit_Call(self, node: ast.Call) -> None:
                chain = dotted_name(node.func)
                if (
                    chain is not None
                    and len(chain) == 2
                    and chain[0] == "object"
                    and chain[1] in ("__setattr__", "__delattr__")
                    and not (
                        self.func_stack
                        and self.func_stack[-1] in rule.ALLOWED_SCOPES
                    )
                ):
                    self.found.append(rule.finding(
                        ctx, node,
                        f"object.{chain[1]}() mutates a frozen instance; "
                        "frozen jobs/outcomes back cache identities — "
                        "build a new instance with dataclasses.replace()",
                    ))
                self.generic_visit(node)

        v = V()
        v.visit(ctx.tree)
        yield from v.found


# ----------------------------------------------------------------------
# PAR001
# ----------------------------------------------------------------------
@register_rule
class PoolSafetyRule(ProjectRule):
    code = "PAR001"
    name = "process-pool-safety"
    description = (
        "Callables handed to a process pool (.submit/.map) must be "
        "module-level picklable functions that mutate no module "
        "globals; REPRO_CHAOS_* env literals are confined to "
        "repro.runner.resilience."
    )

    #: Executor/pool dispatch methods whose first argument crosses the
    #: pickle boundary.
    POOL_METHODS = frozenset({"submit", "map"})
    #: The one worker-side module allowed to spell chaos env names.
    CHAOS_HOME = "repro.runner.resilience"
    CHAOS_PREFIX = "REPRO_CHAOS"

    def check_project(self, project: "ProjectIndex") -> Iterator[Finding]:
        for info in project.repro_modules():
            if info.role != "src":
                continue
            yield from self._check_chaos_literals(info)
            if self._imports_pools(info):
                yield from self._check_dispatch_sites(project, info)

    def _imports_pools(self, info: "ModuleInfo") -> bool:
        for edge in info.imports:
            if edge.origin == "multiprocessing" or edge.origin.startswith(
                ("multiprocessing.", "concurrent.futures")
            ):
                return True
        return False

    def _check_chaos_literals(
        self, info: "ModuleInfo"
    ) -> Iterator[Finding]:
        if info.module == self.CHAOS_HOME or info.package == "lint":
            return  # the analyzer itself spells the pattern it detects
        for node in ast.walk(info.tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.startswith(self.CHAOS_PREFIX)
            ):
                yield Finding(
                    path=info.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule=self.code,
                    message=(
                        f"chaos env literal {node.value!r} outside "
                        f"{self.CHAOS_HOME}; import the named constant "
                        "so fault injection stays confined to the "
                        "worker-side boundary"
                    ),
                )

    def _check_dispatch_sites(
        self, project: "ProjectIndex", info: "ModuleInfo"
    ) -> Iterator[Finding]:
        for node in ast.walk(info.tree):
            if (
                not isinstance(node, ast.Call)
                or not isinstance(node.func, ast.Attribute)
                or node.func.attr not in self.POOL_METHODS
                or not node.args
            ):
                continue
            message = self._worker_problem(project, info, node.args[0])
            if message is not None:
                yield Finding(
                    path=info.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule=self.code,
                    message=message,
                )

    def _worker_problem(
        self,
        project: "ProjectIndex",
        info: "ModuleInfo",
        arg: ast.expr,
    ) -> str | None:
        if isinstance(arg, ast.Lambda):
            return (
                "lambda submitted to a process pool is not picklable; "
                "define a module-level worker function"
            )
        if isinstance(arg, ast.Call):
            return (
                "call-result worker (e.g. partial(...)) submitted to a "
                "process pool; submit a module-level function and pass "
                "its arguments through the pool instead"
            )
        if isinstance(arg, ast.Attribute):
            chain = dotted_name(arg)
            if chain is None:
                return None
            if chain[0] in ("self", "cls"):
                return (
                    "bound-method worker is not picklable across the "
                    "pool boundary; hoist the work into a module-level "
                    "function"
                )
            head = info.import_map.get(chain[0], chain[0])
            return self._resolved_problem(
                project, ".".join([head, *chain[1:]])
            )
        if isinstance(arg, ast.Name):
            origin = info.import_map.get(arg.id)
            if origin is not None:
                return self._resolved_problem(project, origin)
            return self._symbol_problem(info, arg.id)
        return None

    def _resolved_problem(
        self, project: "ProjectIndex", origin: str
    ) -> str | None:
        target = project.resolve_module(origin)
        if target is None or origin == target.module:
            return None  # external or whole-module reference
        symbol = origin[len(target.module) + 1 :].split(".")[0]
        return self._symbol_problem(target, symbol)

    def _symbol_problem(
        self, info: "ModuleInfo", symbol: str
    ) -> str | None:
        if symbol in info.global_mutators:
            return (
                f"worker {symbol}() mutates module globals via "
                "`global`; each pool process gets its own copy, so the "
                "mutation silently diverges — thread state through "
                "arguments and return values"
            )
        if symbol in info.symbols:
            return None
        if symbol in info.nested_functions:
            return (
                f"nested function {symbol}() is not picklable across "
                "the pool boundary; hoist it to module level"
            )
        return None


# ----------------------------------------------------------------------
# OBS002
# ----------------------------------------------------------------------
@register_rule
class MetricNameRule(ProjectRule):
    code = "OBS002"
    name = "metric-name-constants"
    description = (
        "Metric/span names at instrumentation call sites "
        "(.counter/.gauge/.histogram/.span) must be repro.obs.names "
        "constants, not inline strings — the static complement to the "
        "runtime metrics contract test."
    )

    METHODS = frozenset({"counter", "gauge", "histogram", "span"})
    NAMES_MODULE = "repro.obs.names"

    def check_project(self, project: "ProjectIndex") -> Iterator[Finding]:
        names_info = project.by_module.get(self.NAMES_MODULE)
        known = names_info.symbols if names_info is not None else None
        for info in project.repro_modules():
            if info.role != "src" or info.module.startswith("repro.obs"):
                continue
            yield from self._check_imports(info, known)
            yield from self._check_call_sites(info, known)

    def _check_imports(
        self, info: "ModuleInfo", known: frozenset[str] | None
    ) -> Iterator[Finding]:
        if known is None:
            return
        prefix = self.NAMES_MODULE + "."
        for edge in info.imports:
            if not edge.origin.startswith(prefix):
                continue
            symbol = edge.origin[len(prefix) :]
            if "." not in symbol and symbol not in known:
                yield Finding(
                    path=info.path,
                    line=edge.lineno,
                    col=0,
                    rule=self.code,
                    message=(
                        f"{self.NAMES_MODULE}.{symbol} does not exist; "
                        "instrumentation names come from the contract "
                        "in repro.obs.names"
                    ),
                )

    def _check_call_sites(
        self, info: "ModuleInfo", known: frozenset[str] | None
    ) -> Iterator[Finding]:
        prefix = self.NAMES_MODULE + "."
        for node in ast.walk(info.tree):
            if (
                not isinstance(node, ast.Call)
                or not isinstance(node.func, ast.Attribute)
                or node.func.attr not in self.METHODS
                or not node.args
            ):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                yield Finding(
                    path=info.path,
                    line=arg.lineno,
                    col=arg.col_offset,
                    rule=self.code,
                    message=(
                        f"inline instrumentation name {arg.value!r}; "
                        "add a constant to repro.obs.names and use it "
                        "so the metrics contract test can see the name"
                    ),
                )
                continue
            chain = dotted_name(arg) if isinstance(arg, ast.Attribute) else None
            if chain is None or known is None:
                continue  # bare names: the runtime contract test's job
            head = info.import_map.get(chain[0], chain[0])
            origin = ".".join([head, *chain[1:]])
            if origin.startswith(prefix):
                symbol = origin[len(prefix) :]
                if "." not in symbol and symbol not in known:
                    yield Finding(
                        path=info.path,
                        line=arg.lineno,
                        col=arg.col_offset,
                        rule=self.code,
                        message=(
                            f"{origin} does not exist in "
                            "repro.obs.names; instrumentation names "
                            "come from the contract module"
                        ),
                    )


# ----------------------------------------------------------------------
# DEAD001
# ----------------------------------------------------------------------
@register_rule
class DeadExportRule(ProjectRule):
    code = "DEAD001"
    name = "dead-exports"
    description = (
        "__all__ entries of leaf modules referenced nowhere else in "
        "the project are dead public surface; drop the export or the "
        "symbol (package __init__ re-export lists are the curated API "
        "and are exempt)."
    )

    def check_project(self, project: "ProjectIndex") -> Iterator[Finding]:
        for info in project.repro_modules():
            if info.role != "src" or info.is_package or info.exports is None:
                continue
            for symbol in info.exports:
                if not project.is_used_elsewhere(info.module, symbol):
                    yield Finding(
                        path=info.path,
                        line=info.export_lines.get(symbol, 1),
                        col=0,
                        rule=self.code,
                        message=(
                            f"{info.module}.{symbol} is in __all__ but "
                            "referenced nowhere else in the project; "
                            "drop the export or delete the symbol"
                        ),
                    )
