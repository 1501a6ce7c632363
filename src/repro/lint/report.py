"""Reporters: render a :class:`~repro.lint.framework.LintReport`.

Three formats: a compact human one (``path:line:col: CODE message``,
one per line, plus a summary), a JSON document for CI artifacts, and
SARIF 2.1.0 for code-scanning upload (see :mod:`repro.lint.sarif`).
The JSON schema is versioned so downstream tooling can detect changes.
"""

from __future__ import annotations

import json

from .framework import LintReport

__all__ = ["JSON_SCHEMA_VERSION", "render_json", "render_text", "to_json_dict"]

#: Bump when the JSON report layout changes incompatibly.
#: v2: adds files_linted / files_cached / baselined (incremental cache
#: and baseline accounting).
#: v3: drops baselined (the baseline mode is gone).
JSON_SCHEMA_VERSION = 3


def render_text(report: LintReport) -> str:
    """Human-readable findings plus a one-line summary."""
    lines = [f.render() for f in report.findings]
    cache_note = ""
    if report.files_cached:
        cache_note = (
            f" ({report.files_linted} linted, "
            f"{report.files_cached} from cache)"
        )
    if report.clean:
        lines.append(
            f"reprolint: {report.files_checked} files checked"
            f"{cache_note}, clean"
        )
    else:
        by_rule = ", ".join(
            f"{code}: {n}" for code, n in report.counts().items()
        )
        lines.append(
            f"reprolint: {len(report.findings)} finding(s) in "
            f"{report.files_checked} files{cache_note} "
            f"({by_rule})"
        )
    return "\n".join(lines)


def to_json_dict(report: LintReport) -> dict[str, object]:
    """JSON-safe dict of the full report."""
    return {
        "schema_version": JSON_SCHEMA_VERSION,
        "tool": "reprolint",
        "root": report.root,
        "files_checked": report.files_checked,
        "files_linted": report.files_linted,
        "files_cached": report.files_cached,
        "clean": report.clean,
        "counts": report.counts(),
        "findings": [f.as_dict() for f in report.findings],
    }


def render_json(report: LintReport) -> str:
    return json.dumps(to_json_dict(report), indent=2, sort_keys=True) + "\n"
