"""The content-addressed shared result store (repro.runner.store)."""

from __future__ import annotations

import hashlib
import json
import warnings

import pytest

from repro.memory.config import MemoryConfig
from repro.obs import capture_metrics
from repro.obs import names as obs_names
from repro.runner import ResultStore, SweepExecutor, jobs_for_offsets

CFG = MemoryConfig(banks=12, bank_cycle=3)


def _payloads(n: int = 6) -> dict[str, dict]:
    """Real job keys and payloads (exact Fractions survive the store)."""
    ex = SweepExecutor(backend="fast")
    out = {}
    for job, outcome in zip(
        jobs_for_offsets(CFG, 1, 7, range(n)),
        ex.run_many(jobs_for_offsets(CFG, 1, 7, range(n))),
    ):
        out[job.cache_key()] = outcome.to_payload()
    return out


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        payloads = _payloads()
        for key, payload in payloads.items():
            store.put(key, payload)
        for key, payload in payloads.items():
            assert store.get(key) == payload

    def test_get_miss_is_none(self, tmp_path):
        assert ResultStore(tmp_path).get("no-such-key") is None

    def test_put_many_get_many(self, tmp_path):
        store = ResultStore(tmp_path)
        payloads = _payloads()
        store.put_many(payloads)
        keys = list(payloads) + ["absent", list(payloads)[0]]
        assert store.get_many(keys) == payloads

    def test_contains_len_keys(self, tmp_path):
        store = ResultStore(tmp_path)
        payloads = _payloads()
        store.put_many(payloads)
        assert len(store) == len(payloads)
        assert set(store.keys()) == set(payloads)
        assert list(payloads)[0] in store
        assert "absent" not in store

    def test_last_writer_wins(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", {"v": 1})
        store.put("k", {"v": 2})
        assert store.get("k") == {"v": 2}

    def test_root_under_a_file_is_a_value_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(ValueError, match="not a usable directory"):
            ResultStore(blocker / "store")


class TestLayout:
    def test_content_addressing(self, tmp_path):
        store = ResultStore(tmp_path)
        digest = hashlib.sha256(b"some-key").hexdigest()
        path = store.path_for("some-key")
        assert path.parent.name == digest[:2]
        assert path.name == f"{digest}.json"
        assert path.parent.parent == store.root

    def test_no_temp_files_left_behind(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_many(_payloads())
        assert not list(store.root.rglob("*.tmp*"))

    def test_file_carries_key_header(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", {"v": 1})
        data = json.loads(store.path_for("k").read_text())
        assert data["key"] == "k"
        assert data["version"] == 1


class TestQuarantine:
    def test_corrupt_file_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.path_for("k")
        path.parent.mkdir(parents=True)
        path.write_text("{ not json")
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert store.get("k") is None
        assert not path.exists()
        assert path.with_suffix(path.suffix + ".corrupt").exists()

    @pytest.mark.parametrize(
        "body", [b"", b'{"version": 1, "key": "k", "payload": "\xff\xfe"}'],
        ids=["zero-byte", "invalid-utf8"],
    )
    def test_undecodable_bytes_read_as_miss(self, tmp_path, body):
        store = ResultStore(tmp_path)
        path = store.path_for("k")
        path.parent.mkdir(parents=True)
        path.write_bytes(body)
        assert list(store.items()) == []  # the bulk read skips it
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert store.get("k") is None
        assert not path.exists()
        assert path.with_suffix(path.suffix + ".corrupt").read_bytes() == body

    def test_version_mismatch_quarantines(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", {"v": 1})
        path = store.path_for("k")
        path.write_text(json.dumps({"version": 99, "key": "k", "payload": {}}))
        with pytest.warns(RuntimeWarning, match="version-mismatched"):
            assert store.get("k") is None

    def test_non_object_payload_quarantines(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", {"v": 1})
        path = store.path_for("k")
        path.write_text(json.dumps({"version": 1, "key": "k", "payload": [1]}))
        assert list(store.items()) == []  # the bulk read skips it
        with pytest.warns(RuntimeWarning, match="malformed"):
            assert store.get("k") is None
        assert path.with_suffix(path.suffix + ".corrupt").exists()

    def test_clean_store_never_warns(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_many(_payloads())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.get_many(store.keys())


class TestMetrics:
    def test_hit_miss_write_counters(self, tmp_path):
        payloads = _payloads()
        with capture_metrics() as reg:
            store = ResultStore(tmp_path)
            store.put_many(payloads)
            store.put("extra", {"v": 1})
            found = store.get_many(list(payloads) + ["absent"])
            assert store.get("absent-two") is None
        assert len(found) == len(payloads)
        assert reg.counter(obs_names.STORE_WRITES).value == len(payloads) + 1
        assert reg.counter(obs_names.STORE_HITS).value == len(payloads)
        assert reg.counter(obs_names.STORE_MISSES).value == 2

    def test_quarantine_counter(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.path_for("k")
        path.parent.mkdir(parents=True)
        path.write_text("garbage")
        with capture_metrics() as reg, pytest.warns(RuntimeWarning):
            store.get("k")
        assert reg.counter(obs_names.STORE_QUARANTINED).value == 1
