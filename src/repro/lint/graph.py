"""IMPORT001: the repository layer DAG, enforced on the import graph.

The reproduction's module architecture is a strict layering::

    obs, lint          (rank 0 — leaves: import no other repro package)
    core               (rank 1 — exact arithmetic, no engine knowledge)
    memory             (rank 2 — bank models over core primitives)
    runner             (rank 3 — orchestration; sim only via backends)
    sim, machine,      (rank 4 — engines, analyses, generators)
    analysis, skewing,
    stochastic, viz
    serve              (rank 5 — the HTTP service over the runner)
    cli                (rank 6 — may import anything)

A module may import downward (strictly smaller rank) or sideways
(same rank, including its own package); importing *upward* inverts the
dependency arrow and is rejected.  The handful of sanctioned inversions
— the runner's engine-primitive boundary, mirror of LAYER001's
``BLESSED`` set — are listed in :data:`BLESSED_EDGES`.

Cycles are checked on the *eager* subgraph only: a function-scoped or
``TYPE_CHECKING``-guarded import does not execute at import time, so it
cannot deadlock module initialisation — moving an import into the
function that needs it is the sanctioned way to break a cycle, and the
layer check still polices the edge's direction.
"""

from __future__ import annotations

from typing import Iterator

from .framework import Finding, ProjectRule, register_rule
from .index import ImportEdge, ModuleInfo, ProjectIndex

__all__ = ["BLESSED_EDGES", "LAYER_RANKS", "ImportGraphRule", "layer_rank"]

#: Rank of each top-level ``repro`` subpackage; smaller = lower layer.
LAYER_RANKS: dict[str, int] = {
    "obs": 0,
    "lint": 0,
    "core": 1,
    "memory": 2,
    "runner": 3,
    "sim": 4,
    "machine": 4,
    "analysis": 4,
    "skewing": 4,
    "stochastic": 4,
    "viz": 4,
    "serve": 5,
    "cli": 6,
    "": 6,  # the repro root package re-exports the public surface
}

#: Rank assumed for a subpackage not listed above: new packages default
#: to the engine tier — they may use everything below the runner but
#: must be added here explicitly before the runner may import them.
DEFAULT_RANK = 4

#: Packages that must import no other repro package at all (rank-0
#: leaves): observability and the linter itself stay embeddable in any
#: context — including each other's absence.
LEAF_PACKAGES = frozenset({"obs", "lint"})

#: Sanctioned upward edges (importer module, imported module): the
#: engine-primitive boundary the runner backends own (mirror of
#: LAYER001's ``BLESSED`` module set), plus the spec-validation
#: boundary — ``SimJob``, the analytic tier and the batch kernel consult
#: the sim layer's priority/arbiter grammar to reject malformed specs at
#: construction, to keep closed forms honest about regulated jobs and
#: to read rule kinds.  Those grammar modules import nothing from the
#: runner, and the runner's other edges are function-scoped, so the
#: eager graph stays acyclic.
BLESSED_EDGES = frozenset(
    {
        ("repro.runner.analytic", "repro.sim.arbiter"),
        ("repro.runner.backends", "repro.sim.engine"),
        ("repro.runner.batchsim", "repro.sim.priority"),
        ("repro.runner.fastsim", "repro.sim.arbiter"),
        ("repro.runner.fastsim", "repro.sim.priority"),
        ("repro.runner.job", "repro.sim.arbiter"),
        ("repro.runner.job", "repro.sim.engine"),
        ("repro.runner.job", "repro.sim.priority"),
        ("repro.runner.resilience", "repro.sim.engine"),
    }
)


def layer_rank(package: str) -> int:
    """Layer rank of a top-level repro subpackage name."""
    return LAYER_RANKS.get(package, DEFAULT_RANK)


def _top_package(module: str) -> str:
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else ""


@register_rule
class ImportGraphRule(ProjectRule):
    """Layer DAG over the whole-program import graph."""

    code = "IMPORT001"
    name = "import-layer-dag"
    description = (
        "repro packages import only downward in the layer DAG "
        "(obs/lint < core < memory < runner < engines < serve < cli); "
        "upward imports and eager import cycles are rejected"
    )

    def check_project(self, project: ProjectIndex) -> Iterator[Finding]:
        yield from self._check_layers(project)
        yield from self._check_cycles(project)

    # ------------------------------------------------------------------
    # Layering
    # ------------------------------------------------------------------
    def _check_layers(self, project: ProjectIndex) -> Iterator[Finding]:
        for info in project.repro_modules():
            if info.role != "src":
                continue  # test/tool doubles may shadow repro names
            src_pkg = _top_package(info.module)
            src_rank = layer_rank(src_pkg)
            seen: set[tuple[str, int]] = set()
            for edge in info.imports:
                target = project.resolve_module(edge.origin)
                if target is None or target.role != "src":
                    continue
                if not target.module.startswith("repro"):
                    continue
                dst_pkg = _top_package(target.module)
                if dst_pkg == src_pkg:
                    continue
                if (info.module, target.module) in BLESSED_EDGES:
                    continue
                key = (target.module, edge.lineno)
                if key in seen:
                    continue
                seen.add(key)
                dst_rank = layer_rank(dst_pkg)
                if src_pkg in LEAF_PACKAGES:
                    yield self._finding(
                        info,
                        edge,
                        f"leaf package repro.{src_pkg} must not import "
                        f"{target.module}; obs and lint depend on no "
                        "other repro package",
                    )
                elif dst_rank > src_rank:
                    yield self._finding(
                        info,
                        edge,
                        f"upward import: {info.module} (layer "
                        f"{src_pkg or 'root'}, rank {src_rank}) must not "
                        f"import {target.module} (layer {dst_pkg}, rank "
                        f"{dst_rank}); invert the dependency or route it "
                        "through a blessed runner boundary",
                    )

    # ------------------------------------------------------------------
    # Cycles (eager edges only)
    # ------------------------------------------------------------------
    def _check_cycles(self, project: ProjectIndex) -> Iterator[Finding]:
        graph: dict[str, list[tuple[str, ImportEdge]]] = {}
        infos: dict[str, ModuleInfo] = {}
        for info in project.repro_modules():
            if info.role != "src":
                continue
            infos[info.module] = info
            edges: list[tuple[str, ImportEdge]] = []
            for edge in info.imports:
                if edge.lazy:
                    continue
                target = project.resolve_module(edge.origin)
                if (
                    target is None
                    or target.role != "src"
                    or target.module == info.module
                ):
                    continue
                edges.append((target.module, edge))
            graph[info.module] = edges

        for scc in _tarjan(
            {m: [t for t, _ in e] for m, e in graph.items()}
        ):
            if len(scc) < 2:
                continue
            members = sorted(scc)
            anchor = members[0]
            in_cycle = set(scc)
            edge = next(
                (e for t, e in graph[anchor] if t in in_cycle), None
            )
            info = infos[anchor]
            yield Finding(
                path=info.path,
                line=edge.lineno if edge is not None else 1,
                col=0,
                rule=self.code,
                message=(
                    "eager import cycle: "
                    + " -> ".join(members + [anchor])
                    + "; break it by moving one import into the "
                    "function that needs it"
                ),
            )

    def _finding(
        self, info: ModuleInfo, edge: ImportEdge, message: str
    ) -> Finding:
        return Finding(
            path=info.path,
            line=edge.lineno,
            col=0,
            rule=self.code,
            message=message,
        )


def _tarjan(graph: dict[str, list[str]]) -> list[list[str]]:
    """Strongly connected components, iterative Tarjan."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = 0

    for start in sorted(graph):
        if start in index:
            continue
        work: list[tuple[str, int]] = [(start, 0)]
        while work:
            node, child_i = work[-1]
            if child_i == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = graph.get(node, [])
            for i in range(child_i, len(children)):
                child = children[i]
                if child not in graph:
                    continue
                if child not in index:
                    work[-1] = (node, i + 1)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                scc: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(scc)
            if work:
                parent, _ = work[-1]
                low[parent] = min(low[parent], low[node])
    return sccs
