"""tools/bench_compare.py ``--compare``: which benchmarks ``--keys`` gates."""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

KEYS = (
    "benchmarks/bench_regime_census.py::test_census_population",
    "benchmarks/bench_regime_census.py::test_regime_census",
    "benchmarks/bench_start_space.py::test_start_space",
)


def _compare(tmp_path, keys):
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import bench_compare
    finally:
        sys.path.pop(0)
    paths = []
    for name, seconds in (("before", 1.0), ("after", 2.0)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"benchmarks": dict.fromkeys(KEYS, seconds)}))
        paths.append(str(path))
    return bench_compare._compare_artifacts(*paths, 0.98, keys)


def test_keys_match_test_names_not_file_paths(tmp_path):
    # "regime_census" is also part of bench_regime_census.py, the file
    # that holds test_census_population, which it must not gate.
    report = _compare(tmp_path, ["regime_census", "start_space"])
    assert sorted(report["benchmarks"]) == sorted(KEYS[1:])
    assert not report["pass"]


def test_no_keys_compares_every_shared_benchmark(tmp_path):
    assert sorted(_compare(tmp_path, None)["benchmarks"]) == sorted(KEYS)
