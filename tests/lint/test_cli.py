"""reprolint CLI surfaces: exit codes, JSON artifact, self-clean gate.

The subprocess tests exercise ``tools/run_reprolint.py`` exactly as CI
invokes it, including the acceptance property that an injected
EXACT001/DET001 violation turns the exit code red.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

from repro.cli import main as repro_main
from repro.lint import lint_paths
from repro.lint.cli import build_parser
from repro.lint.report import JSON_SCHEMA_VERSION

ROOT = pathlib.Path(__file__).resolve().parents[2]
TOOL = ROOT / "tools" / "run_reprolint.py"


def run_tool(*args: str, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


class TestSelfClean:
    def test_src_tree_is_clean_in_process(self):
        report = lint_paths([ROOT / "src"], root=ROOT)
        assert report.clean, "\n".join(f.render() for f in report.findings)
        assert report.files_checked > 50

    def test_whole_tree_is_clean_in_process(self):
        # The acceptance gate: src, tests AND tools carry zero
        # unsuppressed findings, stale waivers included.
        report = lint_paths(
            [ROOT / "src", ROOT / "tests", ROOT / "tools"],
            root=ROOT,
            report_unused_suppressions=True,
        )
        assert report.clean, "\n".join(f.render() for f in report.findings)

    def test_tool_exits_zero_on_src(self):
        proc = run_tool("src")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout


def _tree_with(tmp_path: pathlib.Path, source: str) -> pathlib.Path:
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (tmp_path / "pyproject.toml").write_text("")
    (pkg / "injected.py").write_text(source)
    return tmp_path


class TestInjectedViolations:
    def test_exact001_injection_fails_the_run(self, tmp_path):
        tree = _tree_with(tmp_path, "def f(a, b):\n    return a / b\n")
        out = tmp_path / "report.json"
        proc = run_tool(str(tree / "src"), "--output", out, cwd=tmp_path)
        assert proc.returncode == 1
        report = json.loads(out.read_text())
        assert report["clean"] is False
        assert report["counts"].get("EXACT001") == 1

    def test_det001_injection_fails_the_run(self, tmp_path):
        tree = _tree_with(
            tmp_path, "import random\n\nx = random.random()\n"
        )
        proc = run_tool(str(tree / "src"), cwd=tmp_path)
        assert proc.returncode == 1
        assert "DET001" in proc.stdout

    def test_suppressed_injection_passes(self, tmp_path):
        tree = _tree_with(
            tmp_path,
            "def f(a, b):\n"
            "    return a / b  # reprolint: disable=EXACT001\n",
        )
        proc = run_tool(str(tree / "src"), cwd=tmp_path)
        assert proc.returncode == 0


class TestJsonReport:
    def test_schema_fields(self, tmp_path):
        out = tmp_path / "r.json"
        proc = run_tool("src", "--format", "json", "--output", out)
        assert proc.returncode == 0
        stdout_doc = json.loads(proc.stdout)
        file_doc = json.loads(out.read_text())
        assert stdout_doc == file_doc
        for key in (
            "schema_version", "tool", "files_checked", "files_linted",
            "files_cached", "clean", "counts", "findings", "root",
        ):
            assert key in file_doc
        assert "baselined" not in file_doc
        assert file_doc["tool"] == "reprolint"
        assert file_doc["schema_version"] == JSON_SCHEMA_VERSION == 3


class TestNewFlags:
    def test_parser_knows_the_production_flags(self):
        args = build_parser().parse_args(
            ["src", "--jobs", "4", "--format", "sarif", "--no-cache",
             "--report-unused-suppressions"]
        )
        assert args.jobs == 4
        assert args.output_format == "sarif"
        assert args.no_cache
        assert args.report_unused_suppressions

    def test_sarif_output_to_file(self, tmp_path):
        out = tmp_path / "lint.sarif"
        proc = run_tool(
            "src", "--format", "sarif", "--output", out, "--no-cache"
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        doc = json.loads(out.read_text())
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["tool"]["driver"]["name"] == "reprolint"
        assert json.loads(proc.stdout) == doc

    def test_jobs_flag_matches_serial(self, tmp_path):
        tree = _tree_with(tmp_path, "def f(a, b):\n    return a / b\n")
        serial = run_tool(str(tree / "src"), "--no-cache", cwd=tmp_path)
        pooled = run_tool(
            str(tree / "src"), "--no-cache", "--jobs", "2", cwd=tmp_path
        )
        assert serial.returncode == pooled.returncode == 1
        assert serial.stdout == pooled.stdout

    def test_warm_cache_relints_zero_files(self, tmp_path):
        tree = _tree_with(tmp_path, "X = 1\n")
        run_tool(str(tree / "src"), cwd=tmp_path)
        assert (tmp_path / ".reprolint-cache.json").exists()
        out = tmp_path / "warm.json"
        proc = run_tool(
            str(tree / "src"), "--format", "json", "--output", out,
            cwd=tmp_path,
        )
        assert proc.returncode == 0
        warm = json.loads(out.read_text())
        assert warm["files_linted"] == 0
        assert warm["files_cached"] == warm["files_checked"]


class TestCliErrors:
    def test_unknown_rule_is_usage_error(self):
        proc = run_tool("src", "--rules", "BOGUS001")
        assert proc.returncode == 2
        assert "unknown rule" in proc.stderr

    def test_baseline_flags_are_usage_errors(self):
        # The baseline mode is gone; its flags are unknown arguments.
        for flags in (("--baseline", "b.json"), ("--update-baseline",)):
            proc = run_tool("src", *flags)
            assert proc.returncode == 2
            assert f"unrecognized arguments: {flags[0]}" in proc.stderr

    def test_zero_jobs_is_usage_error(self):
        proc = run_tool("src", "--jobs", "0")
        assert proc.returncode == 2

    def test_missing_path_is_usage_error(self):
        proc = run_tool("definitely/not/here")
        assert proc.returncode == 2

    def test_list_rules(self):
        proc = run_tool("--list-rules")
        assert proc.returncode == 0
        for code in ("EXACT001", "DET001", "LAYER001", "API001", "FROZEN001"):
            assert code in proc.stdout


class TestReproMemSubcommand:
    def test_lint_subcommand_clean(self, capsys, monkeypatch):
        monkeypatch.chdir(ROOT)
        assert repro_main(["lint", "src"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_subcommand_rules_filter(self, capsys, monkeypatch):
        monkeypatch.chdir(ROOT)
        assert repro_main(["lint", "src", "--rules", "FROZEN001"]) == 0

    @pytest.mark.parametrize("flag", ["--list-rules"])
    def test_lint_subcommand_list(self, capsys, flag):
        assert repro_main(["lint", flag]) == 0
        assert "LAYER001" in capsys.readouterr().out
