"""Command-line front end for reprolint.

Used two ways: ``repro-mem lint ...`` (a subcommand of the main CLI) and
``python tools/run_reprolint.py ...`` (standalone, CI-friendly).  Both
share :func:`add_lint_arguments` / :func:`run_from_namespace` so flags
and behaviour cannot drift.

Exit codes: ``0`` clean, ``1`` findings, ``2`` usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .framework import (
    CACHE_FILENAME,
    all_rules,
    find_project_root,
    get_rules,
    lint_paths,
)
from .report import render_json, render_text

__all__ = ["add_lint_arguments", "build_parser", "main", "run_from_namespace"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to any argparse parser (shared surface)."""
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files/directories to lint (default: ./src if present, else .)",
    )
    parser.add_argument(
        "--rules", type=str, default=None, metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        dest="output_format", help="stdout format (default: text)",
    )
    parser.add_argument(
        "--output", type=str, default=None, metavar="FILE",
        help="also write the report to FILE (JSON, or SARIF when "
             "--format sarif) for CI artifacts",
    )
    parser.add_argument(
        "--root", type=str, default=None, metavar="DIR",
        help="project root for cross-file rules (default: nearest "
             "ancestor with a pyproject.toml)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="lint files over N worker processes (default: 1)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help=f"disable the incremental cache ({CACHE_FILENAME} "
             "next to pyproject.toml)",
    )
    parser.add_argument(
        "--report-unused-suppressions", action="store_true",
        help="flag # reprolint: waivers that no longer suppress anything "
             "(SUPPRESS001)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description="AST-based invariant analyzer for the reproduction "
                    "(exactness, determinism, runner-layer discipline, "
                    "import layering, pool safety)",
    )
    add_lint_arguments(parser)
    return parser


def _list_rules() -> int:
    for rule in all_rules():
        print(f"{rule.code}  {rule.name}")
        print(f"    {rule.description}")
    return 0


def run_from_namespace(args: argparse.Namespace) -> int:
    """Execute a lint run described by parsed arguments."""
    if args.list_rules:
        return _list_rules()
    try:
        rules = (
            get_rules([c.strip() for c in args.rules.split(",") if c.strip()])
            if args.rules
            else None
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    paths = args.paths
    if not paths:
        paths = ["src"] if Path("src").is_dir() else ["."]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2

    root = Path(args.root) if args.root else find_project_root(paths[0])
    cache: Path | None = None
    if not args.no_cache and root is not None:
        cache = root / CACHE_FILENAME

    try:
        report = lint_paths(
            paths,
            rules=rules,
            root=root,
            jobs=args.jobs,
            cache=cache,
            report_unused_suppressions=args.report_unused_suppressions,
        )
    except ValueError as exc:  # e.g. a rule that fails to register
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.output_format == "sarif":
        from .sarif import render_sarif

        rendered = render_sarif(report, rules=rules)
    elif args.output_format == "json":
        rendered = render_json(report)
    else:
        rendered = None

    if args.output:
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            rendered if rendered is not None else render_json(report),
            encoding="utf-8",
        )
    if rendered is not None:
        print(rendered, end="")
    else:
        print(render_text(report))
    return 0 if report.clean else 1


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point (``tools/run_reprolint.py``)."""
    args = build_parser().parse_args(argv)
    return run_from_namespace(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
