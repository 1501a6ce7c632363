"""The reprolint core: contexts, rules, suppressions, and the lint driver.

reprolint is a *project-specific* static analyzer: each rule encodes one
invariant the reproduction's correctness argument rests on (exact
``Fraction`` arithmetic, deterministic ordering, runner-layer
discipline, documented public surfaces, frozen result objects).  The
framework is deliberately small — pure stdlib ``ast`` walking, no
third-party dependencies — so it can gate CI anywhere the test suite
runs.

Two rule shapes exist:

* **file rules** (:class:`Rule`) see one parsed module at a time via a
  :class:`LintContext`;
* **project rules** (:class:`ProjectRule`) run once per invocation
  against a whole-program :class:`~repro.lint.index.ProjectIndex`
  (cross-file invariants: the import-layer DAG, process-pool pickle
  safety, metric-name discipline, dead exports, API-doc drift).

``lint_paths`` has two production features on top:

* an **incremental cache** (``.reprolint-cache.json``): per-file
  findings keyed by source digest + rule-set digest, project findings
  keyed by the index content digest — a warm rerun on an unchanged
  tree re-lints zero files and parses zero ASTs;
* **multiprocess file linting** (``jobs=N``) fanning files over a
  process pool (the workers are module-level callables — PAR001 eats
  its own dogfood).

Suppression: append ``# reprolint: disable=RULE`` (comma-separate for
several rules, or ``all``) to the offending line, put
``# reprolint: disable-next=RULE`` on the line above it, or
``# reprolint: disable-file=RULE`` anywhere in the file to waive the
whole module.  Several directives may share one line.  Suppressions are
the documented escape hatch for *intentional* exceptions — each one in
this repository carries a justification comment — and the driver can
flag waivers that no longer suppress anything
(``report_unused_suppressions=True``).  Fixture files declare their
lint scope with ``# reprolint: module=dotted.name``.
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .index import ProjectIndex

__all__ = [
    "Finding",
    "LintCache",
    "LintContext",
    "LintReport",
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
    "rules_digest",
]

#: Pseudo-rule reported when a file cannot be parsed at all.
PARSE_ERROR_CODE = "PARSE001"
#: Pseudo-rule reported for waivers that no longer suppress anything.
UNUSED_SUPPRESSION_CODE = "SUPPRESS001"

#: Path components the driver never lints (bytecode caches, and the
#: lint fixture corpus — intentionally-bad sources that are *data*).
EXCLUDED_PARTS = frozenset({"__pycache__", "fixtures"})


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Finding":
        return cls(
            path=str(data["path"]),
            line=int(data["line"]),
            col=int(data["col"]),
            rule=str(data["rule"]),
            message=str(data["message"]),
        )


_DIRECTIVE = re.compile(
    r"#\s*reprolint:\s*(disable|disable-next|disable-file)\s*="
    r"\s*([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)
_MODULE_DIRECTIVE = re.compile(
    r"#\s*reprolint:\s*module\s*=\s*([A-Za-z0-9_.]+)"
)


def _iter_comments(source: str) -> Iterator[tuple[int, str]]:
    """Yield ``(lineno, text)`` for every comment token in ``source``.

    Tokenizing (rather than regex-scanning raw lines) keeps directives
    inside *string literals* inert — a test asserting on the text
    ``"# reprolint: disable=X"`` must not waive anything in the test
    file itself.  Sources the tokenizer rejects fall back to scanning
    every line; their suppressions still work and the parse failure is
    reported separately as PARSE001.
    """
    comments: list[tuple[int, str]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                comments.append((tok.start[0], tok.string))
    except (tokenize.TokenError, IndentationError, SyntaxError, ValueError):
        comments = list(enumerate(source.splitlines(), start=1))
    return iter(comments)


@dataclass
class _Directive:
    """One parsed ``# reprolint:`` waiver and its usage bookkeeping."""

    lineno: int  #: line the directive sits on
    kind: str  #: disable | disable-next | disable-file
    rules: frozenset[str]
    used: set[str] = field(default_factory=set)

    def applies_to_line(self, line: int) -> bool:
        if self.kind == "disable-file":
            return True
        if self.kind == "disable-next":
            return line == self.lineno + 1
        return line == self.lineno


class Suppressions:
    """Per-line and per-file rule waivers parsed from comments.

    Every directive on a line is honoured (``finditer``, not the first
    match), and each records which of its rule codes actually
    suppressed a finding so stale waivers can be reported.
    """

    def __init__(self, directives: Sequence[_Directive]) -> None:
        self._directives = list(directives)

    @classmethod
    def parse(cls, source: str) -> "Suppressions":
        directives: list[_Directive] = []
        for lineno, text in _iter_comments(source):
            for m in _DIRECTIVE.finditer(text):
                rules = frozenset(
                    r.strip() for r in m.group(2).split(",") if r.strip()
                )
                if rules:
                    directives.append(_Directive(lineno, m.group(1), rules))
        return cls(directives)

    def is_suppressed(self, rule: str, line: int) -> bool:
        """Whether a ``rule`` finding on ``line`` is waived.

        Marks **every** matching directive as used, so a finding
        covered by both a line and a file waiver keeps both alive.
        """
        hit = False
        for d in self._directives:
            if not d.applies_to_line(line):
                continue
            if "all" in d.rules:
                d.used.add("all")
                hit = True
            if rule in d.rules:
                d.used.add(rule)
                hit = True
        return hit

    def unused(self, active_codes: Iterable[str]) -> list[tuple[int, str]]:
        """``(line, rule)`` waiver entries that suppressed nothing.

        Only rules in ``active_codes`` are considered — a waiver for a
        rule that did not run this invocation is not (yet) stale.  An
        ``all`` entry is stale only when the full active set ran over
        the line and nothing matched.
        """
        active = set(active_codes)
        out: list[tuple[int, str]] = []
        for d in self._directives:
            for rule in sorted(d.rules):
                if rule == "all":
                    if "all" not in d.used and not d.used:
                        out.append((d.lineno, rule))
                elif rule in active and rule not in d.used:
                    out.append((d.lineno, rule))
        return out

    def directive_lines(self) -> list[int]:
        return [d.lineno for d in self._directives]


def module_name_for_path(path: str | Path) -> str:
    """Best-effort dotted module name for a file path.

    Looks for the last ``repro`` component in the path (the package this
    analyzer is written for) and joins everything from there; returns
    ``""`` when the file is not under a ``repro`` tree.  ``__init__.py``
    maps to its package name.
    """
    parts = list(Path(path).parts)
    if "repro" not in parts:
        return ""
    idx = len(parts) - 1 - parts[::-1].index("repro")
    mod_parts = parts[idx:]
    last = mod_parts[-1]
    if last.endswith(".py"):
        last = last[: -len(".py")]
    if last == "__init__":
        mod_parts = mod_parts[:-1]
    else:
        mod_parts[-1] = last
    return ".".join(mod_parts)


@dataclass
class LintContext:
    """Everything a file rule may consult about one module."""

    path: str
    module: str
    is_package: bool
    source: str
    tree: ast.Module
    suppressions: Suppressions
    #: which top-level tree dir the file lives under (src/tests/tools/
    #: benchmarks/examples) — rules scope themselves by it.
    role: str = "src"

    def in_package(self, *prefixes: str) -> bool:
        """Whether this module lives under any of the dotted prefixes."""
        return any(
            self.module == p or self.module.startswith(p + ".")
            for p in prefixes
        )


class Rule:
    """Base class for single-file AST rules."""

    code: str = ""
    name: str = ""
    description: str = ""

    def applies_to(self, ctx: LintContext) -> bool:
        return True

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: LintContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.code,
            message=message,
        )


class ProjectRule:
    """Base class for once-per-invocation, cross-file rules.

    ``check_project`` receives the shared whole-program
    :class:`~repro.lint.index.ProjectIndex` — one parse pass over the
    tree, built once and handed to every project rule.  Findings that
    land on indexed source lines are filtered through that file's
    suppressions by the driver, exactly like file-rule findings.
    """

    code: str = ""
    name: str = ""
    description: str = ""

    def check_project(self, project: "ProjectIndex") -> Iterator[Finding]:
        raise NotImplementedError


_REGISTRY: dict[str, Rule | ProjectRule] = {}


def register_rule(cls: type) -> type:
    """Class decorator adding a rule to the global registry."""
    inst = cls()
    if not inst.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if inst.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {inst.code}")
    _REGISTRY[inst.code] = inst
    return cls


def all_rules() -> tuple[Rule | ProjectRule, ...]:
    """Every registered rule, sorted by code."""
    _ensure_builtin_rules()
    return tuple(_REGISTRY[c] for c in sorted(_REGISTRY))


def get_rules(codes: Sequence[str] | None = None) -> tuple[Rule | ProjectRule, ...]:
    """Resolve rule codes to instances (``None`` means every rule)."""
    if codes is None:
        return all_rules()
    _ensure_builtin_rules()
    out = []
    for code in codes:
        try:
            out.append(_REGISTRY[code])
        except KeyError:
            known = ", ".join(sorted(_REGISTRY))
            raise ValueError(f"unknown rule {code!r}; known rules: {known}") from None
    return tuple(out)


def _ensure_builtin_rules() -> None:
    # The rule modules register themselves on import; import them lazily
    # so framework <-> rules stays acyclic.
    from . import apidoc, graph, rules  # noqa: F401


def rules_digest(rules: Sequence[Rule | ProjectRule]) -> str:
    """Cache identity of the active rule set.

    Hashes the active rule codes **and** the source of the lint package
    itself, so editing any rule (or the framework) invalidates every
    cached finding — content-addressed, no version counters to forget.
    """
    h = hashlib.sha256()
    for code in sorted({r.code for r in rules}):
        h.update(code.encode("utf-8"))
        h.update(b"\0")
    pkg = Path(__file__).resolve().parent
    for src in sorted(pkg.glob("*.py")):
        h.update(src.name.encode("utf-8"))
        h.update(b"\0")
        h.update(hashlib.sha256(src.read_bytes()).digest())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
@dataclass
class LintReport:
    """Outcome of one lint invocation."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    #: files actually parsed and linted this run
    files_linted: int = 0
    #: files served straight from the incremental cache
    files_cached: int = 0
    root: str | None = None

    @property
    def clean(self) -> bool:
        return not self.findings

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.rule] = out.get(f.rule, 0) + 1
        return dict(sorted(out.items()))


@dataclass
class _FileResult:
    """One file's lint outcome, cache-serializable."""

    path: str
    digest: str
    findings: list[Finding]
    #: findings suppressed by directives (kept so a warm run can still
    #: account suppression usage without re-linting)
    waived: list[Finding]

    def as_dict(self) -> dict[str, object]:
        return {
            "digest": self.digest,
            "findings": [f.as_dict() for f in self.findings],
            "waived": [f.as_dict() for f in self.waived],
        }

    @classmethod
    def from_dict(cls, path: str, data: dict) -> "_FileResult":
        return cls(
            path=path,
            digest=str(data["digest"]),
            findings=[Finding.from_dict(d) for d in data["findings"]],
            waived=[Finding.from_dict(d) for d in data["waived"]],
        )


def _derive_module(source: str, path: str | Path) -> tuple[str, bool]:
    """Module identity for a file: ``# reprolint: module=`` directive
    first (fixtures self-describe their scope), path mapping second."""
    for _, text in _iter_comments(source):
        m = _MODULE_DIRECTIVE.search(text)
        if m is not None:
            return m.group(1), str(path).endswith("__init__.py")
    return module_name_for_path(path), str(path).endswith("__init__.py")


def _lint_source_full(
    source: str,
    *,
    path: str = "<string>",
    module: str | None = None,
    is_package: bool = False,
    role: str | None = None,
    rules: Sequence[Rule | ProjectRule] | None = None,
    tree: ast.Module | None = None,
) -> tuple[list[Finding], list[Finding]]:
    """File-rule pass returning (kept, waived-by-suppression)."""
    if module is None:
        module, is_package = _derive_module(source, path)
    if role is None:
        from .index import role_for_path

        role = role_for_path(path)
    if tree is None:
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            return [
                Finding(
                    path=path,
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    rule=PARSE_ERROR_CODE,
                    message=f"file does not parse: {exc.msg}",
                )
            ], []
        except ValueError as exc:
            # ast.parse raises bare ValueError on encoding-hostile
            # input (null bytes and friends); report, don't crash.
            return [
                Finding(
                    path=path,
                    line=1,
                    col=0,
                    rule=PARSE_ERROR_CODE,
                    message=f"file does not parse: {exc}",
                )
            ], []
    ctx = LintContext(
        path=path,
        module=module,
        is_package=is_package,
        source=source,
        tree=tree,
        suppressions=Suppressions.parse(source),
        role=role,
    )
    active = rules if rules is not None else all_rules()
    findings: list[Finding] = []
    waived: list[Finding] = []
    for rule in active:
        if not isinstance(rule, Rule) or not rule.applies_to(ctx):
            continue
        for f in rule.check(ctx):
            if ctx.suppressions.is_suppressed(f.rule, f.line):
                waived.append(f)
            else:
                findings.append(f)
    return sorted(findings), sorted(waived)


def lint_source(
    source: str,
    *,
    path: str = "<string>",
    module: str | None = None,
    is_package: bool = False,
    rules: Sequence[Rule | ProjectRule] | None = None,
) -> list[Finding]:
    """Lint one module's source text with the file rules."""
    findings, _ = _lint_source_full(
        source,
        path=path,
        module=module,
        is_package=is_package,
        rules=rules,
    )
    return findings


def lint_file(
    path: str | Path,
    *,
    module: str | None = None,
    rules: Sequence[Rule | ProjectRule] | None = None,
) -> list[Finding]:
    """Lint one file on disk with the file rules."""
    p = Path(path)
    return lint_source(
        p.read_text(encoding="utf-8"),
        path=str(p),
        module=module,
        is_package=module is None and p.name == "__init__.py",
        rules=rules,
    )


def _iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for sub in sorted(p.rglob("*.py")):
                # Relative to the requested dir, so a fixture tree can
                # itself be linted when passed explicitly as a path.
                if not EXCLUDED_PARTS.intersection(sub.relative_to(p).parts):
                    yield sub
        elif p.suffix == ".py":
            yield p


def find_project_root(start: str | Path) -> Path | None:
    """Walk upward from ``start`` to the nearest ``pyproject.toml``."""
    p = Path(start).resolve()
    if p.is_file():
        p = p.parent
    for candidate in (p, *p.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return None


# ----------------------------------------------------------------------
# Incremental cache
# ----------------------------------------------------------------------
#: Default cache file name, created next to ``pyproject.toml``.
CACHE_FILENAME = ".reprolint-cache.json"
_CACHE_VERSION = 1


class LintCache:
    """Content-addressed findings cache (``.reprolint-cache.json``).

    Per-file entries are keyed by the source digest; the whole cache is
    keyed by the rule-set digest, so editing any rule or the framework
    discards everything.  Project-rule findings are keyed by the index
    content digest and replayed without parsing when the tree is
    unchanged.
    """

    def __init__(self, path: Path, ruleset: str) -> None:
        self.path = path
        self.ruleset = ruleset
        self._files: dict[str, dict] = {}
        self._project: dict | None = None
        self.loaded = False

    @classmethod
    def load(cls, path: str | Path, ruleset: str) -> "LintCache":
        cache = cls(Path(path), ruleset)
        try:
            data = json.loads(cache.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return cache
        if (
            not isinstance(data, dict)
            or data.get("version") != _CACHE_VERSION
            or data.get("ruleset") != ruleset
        ):
            return cache  # incompatible or stale: start cold
        files = data.get("files")
        project = data.get("project")
        if isinstance(files, dict):
            cache._files = files
            cache.loaded = True
        if isinstance(project, dict):
            cache._project = project
        return cache

    def lookup(self, path: str, digest: str) -> _FileResult | None:
        entry = self._files.get(path)
        if not isinstance(entry, dict) or entry.get("digest") != digest:
            return None
        try:
            return _FileResult.from_dict(path, entry)
        except (KeyError, TypeError, ValueError):
            return None

    def store(self, result: _FileResult) -> None:
        self._files[result.path] = result.as_dict()

    def lookup_project(
        self, digest: str
    ) -> tuple[list[Finding], list[Finding]] | None:
        entry = self._project
        if not isinstance(entry, dict) or entry.get("digest") != digest:
            return None
        try:
            return (
                [Finding.from_dict(d) for d in entry["findings"]],
                [Finding.from_dict(d) for d in entry["waived"]],
            )
        except (KeyError, TypeError, ValueError):
            return None

    def store_project(
        self, digest: str, findings: list[Finding], waived: list[Finding]
    ) -> None:
        self._project = {
            "digest": digest,
            "findings": [f.as_dict() for f in findings],
            "waived": [f.as_dict() for f in waived],
        }

    def write(self) -> None:
        doc = {
            "version": _CACHE_VERSION,
            "ruleset": self.ruleset,
            "files": self._files,
            "project": self._project,
        }
        tmp = self.path.with_suffix(".tmp")
        try:
            tmp.write_text(
                json.dumps(doc, sort_keys=True), encoding="utf-8"
            )
            tmp.replace(self.path)
        except OSError:
            pass  # caching is best-effort; never fail the lint run


# ----------------------------------------------------------------------
# Multiprocess file linting
# ----------------------------------------------------------------------
def _lint_files_worker(
    payload: tuple[list[str], tuple[str, ...] | None]
) -> list[_FileResult]:
    """Process-pool worker: lint a chunk of files by path.

    Module-level and closure-free on purpose — the exact discipline
    PAR001 enforces on every pool entry point in this repository.
    """
    paths, codes = payload
    rules = get_rules(list(codes)) if codes is not None else None
    out: list[_FileResult] = []
    for path in paths:
        raw = Path(path).read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        source = raw.decode("utf-8", errors="surrogateescape")
        findings, waived = _lint_source_full(source, path=path, rules=rules)
        out.append(_FileResult(path, digest, findings, waived))
    return out


def _registry_codes(
    rules: Sequence[Rule | ProjectRule],
) -> tuple[str, ...] | None:
    """Rule codes if every active rule is registry-resolvable (the
    requirement for pool workers to rebuild the set by name)."""
    _ensure_builtin_rules()
    codes = []
    for rule in rules:
        if _REGISTRY.get(rule.code) is not rule:
            return None
        codes.append(rule.code)
    return tuple(codes)


def lint_paths(
    paths: Sequence[str | Path],
    *,
    rules: Sequence[Rule | ProjectRule] | None = None,
    root: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
    jobs: int = 1,
    cache: str | Path | None = None,
    report_unused_suppressions: bool = False,
) -> LintReport:
    """Lint files/directories plus the project-level rules.

    ``root`` anchors project rules (the whole-program index, docs
    drift, the cache default) and is auto-detected as the nearest
    ancestor of the first path holding a ``pyproject.toml``.  Project
    rules are skipped when no root can be determined.

    ``cache`` names the incremental cache file (``None`` disables
    caching — the library default; the CLI passes
    ``<root>/.reprolint-cache.json`` unless ``--no-cache``).
    ``jobs`` > 1 fans un-cached files over a process pool.
    """
    active = rules if rules is not None else all_rules()
    report = LintReport()

    resolved_root: Path | None
    if root is not None:
        resolved_root = Path(root)
    elif paths:
        resolved_root = find_project_root(paths[0])
    else:
        resolved_root = None
    if resolved_root is not None:
        report.root = str(resolved_root)

    ruleset = rules_digest(active)
    lint_cache: LintCache | None = None
    if cache is not None:
        lint_cache = LintCache.load(cache, ruleset)

    # ------------------------------------------------------------------
    # File rules: cache lookup, then serial or pooled linting.
    # ------------------------------------------------------------------
    files = list(_iter_python_files(paths))
    suppressions_by_path: dict[str, Suppressions] = {}
    sources: dict[str, str] = {}
    results: list[_FileResult] = []
    to_lint: list[tuple[str, str, str]] = []  # (path, digest, source)
    for file in files:
        path_str = str(file)
        raw = file.read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        source = raw.decode("utf-8", errors="surrogateescape")
        sources[path_str] = source
        cached = (
            lint_cache.lookup(path_str, digest)
            if lint_cache is not None
            else None
        )
        if cached is not None:
            results.append(cached)
            report.files_cached += 1
        else:
            to_lint.append((path_str, digest, source))
        report.files_checked += 1

    worker_codes = _registry_codes(active)
    if jobs > 1 and len(to_lint) > 1 and worker_codes is not None:
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, -(-len(to_lint) // jobs))
        payloads = [
            ([p for p, _, _ in to_lint[i : i + chunk]], worker_codes)
            for i in range(0, len(to_lint), chunk)
        ]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for batch in pool.map(_lint_files_worker, payloads):
                for result in batch:
                    if progress is not None:
                        progress(result.path)
                    results.append(result)
                    report.files_linted += 1
    else:
        for path_str, digest, source in to_lint:
            if progress is not None:
                progress(path_str)
            findings, waived = _lint_source_full(
                source, path=path_str, rules=active
            )
            results.append(_FileResult(path_str, digest, findings, waived))
            report.files_linted += 1

    for result in results:
        report.findings.extend(result.findings)
        if lint_cache is not None:
            lint_cache.store(result)

    # ------------------------------------------------------------------
    # Project rules: shared whole-program index, digest-keyed cache.
    # ------------------------------------------------------------------
    project_rules = [r for r in active if isinstance(r, ProjectRule)]
    project_findings: list[Finding] = []
    project_waived: list[Finding] = []
    if project_rules and resolved_root is not None:
        from .index import ProjectIndex

        cached_project = None
        index_digest: str | None = None
        if lint_cache is not None:
            index_digest = ProjectIndex.content_digest(resolved_root)
            cached_project = lint_cache.lookup_project(index_digest)
        if cached_project is not None:
            project_findings, project_waived = cached_project
        else:
            index = ProjectIndex.build(resolved_root)
            raw_findings: list[Finding] = []
            for rule in project_rules:
                raw_findings.extend(rule.check_project(index))
            for f in raw_findings:
                info = index.files.get(_relpath(f.path, resolved_root))
                if info is not None and info.suppressions.is_suppressed(
                    f.rule, f.line
                ):
                    project_waived.append(f)
                else:
                    project_findings.append(f)
            if lint_cache is not None:
                lint_cache.store_project(
                    index_digest
                    if index_digest is not None
                    else index.digest,
                    sorted(project_findings),
                    sorted(project_waived),
                )
        report.findings.extend(project_findings)

    # ------------------------------------------------------------------
    # Unused-suppression accounting (replay waived findings so cached
    # files are accounted without re-linting).
    # ------------------------------------------------------------------
    if report_unused_suppressions:
        for path_str, source in sources.items():
            suppressions_by_path[path_str] = Suppressions.parse(source)
        for result in results:
            supp = suppressions_by_path.get(result.path)
            if supp is None:
                continue
            for f in result.waived:
                supp.is_suppressed(f.rule, f.line)
            for f in result.findings:
                supp.is_suppressed(f.rule, f.line)
        for f in project_waived:
            for path_str, supp in suppressions_by_path.items():
                if _same_file(path_str, f.path, resolved_root):
                    supp.is_suppressed(f.rule, f.line)
        active_codes = {r.code for r in active}
        for path_str in sorted(suppressions_by_path):
            supp = suppressions_by_path[path_str]
            for lineno, rule in supp.unused(active_codes):
                report.findings.append(
                    Finding(
                        path=path_str,
                        line=lineno,
                        col=0,
                        rule=UNUSED_SUPPRESSION_CODE,
                        message=(
                            f"suppression of {rule} no longer matches "
                            "any finding; remove the stale waiver"
                        ),
                    )
                )

    report.findings.sort()
    if lint_cache is not None:
        lint_cache.write()
    return report


def _relpath(path: str, root: Path) -> str:
    """Root-relative posix key for a finding path (index lookup)."""
    p = Path(path)
    try:
        return p.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return p.as_posix()


def _same_file(linted_path: str, finding_path: str, root: Path | None) -> bool:
    if linted_path == finding_path:
        return True
    if root is None:
        return False
    return _relpath(linted_path, root) == _relpath(finding_path, root)
