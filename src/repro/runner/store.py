"""Content-addressed shared result store: one payload file per job key.

:class:`ResultStore` is the only on-disk level of the
:class:`~repro.runner.executor.SweepExecutor`: the executor probes it
after its in-process memo and publishes every finished chunk to it.
Many writers share one store — a ``repro-mem serve`` process, several
sweeps over one directory — so it is a directory of *per-key* files:

* **Content addressing** — the file for a canonical job key lives at
  ``root/<hh>/<sha256(key)>.json`` where ``hh`` is the first two hex
  digits of the digest (256-way fan-out keeps directories small).  Two
  writers holding the same key hold the same *result* (keys canonicalize
  through the Appendix isomorphism), so a lost race loses nothing.
* **Crash atomicity** — every write lands in a unique temp file in the
  destination directory and is published with :func:`os.replace`.
  Readers never observe a half-written payload; a killed writer leaves
  at most a stray ``*.tmp*`` file, never a truncated entry.
* **Quarantine on corruption** — an unreadable or version-mismatched
  payload file is moved aside to ``<file>.corrupt`` and reads as a
  miss, so the executor simply re-runs that job and rewrites it.  The
  executor also calls :meth:`ResultStore.quarantine` on a payload it
  cannot decode into an outcome.
* **Plain-path reads** — a read is one binary ``open`` of a path built
  with :func:`os.path.join`; :meth:`ResultStore.path_for` gives the
  same path as a :class:`~pathlib.Path`.

The store holds JSON payloads (:meth:`repro.runner.job.SimOutcome.
to_payload` dicts — exact ``Fraction`` values survive the round trip)
keyed by :meth:`repro.runner.job.SimJob.cache_key`; it never touches
job objects.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from ..obs import metrics as _metrics
from ..obs import names as _names

__all__ = ["ResultStore"]

_STORE_VERSION = 1


def _read(file: str | os.PathLike[str]) -> object:
    """One payload file's JSON (raises ``OSError`` or ``ValueError``),
    read whole in one unbuffered call: a buffer would only add a copy."""
    with open(file, "rb", buffering=0) as handle:
        return json.loads(handle.read())


class ResultStore:
    """A directory of atomically written per-key result payloads."""

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self._root = os.fspath(self.root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(
                f"result store {str(self.root)!r} is not a usable "
                f"directory: {exc.strerror or exc}"
            ) from exc

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        """Where the payload file for ``key`` lives (may not exist)."""
        return Path(self._file(key))

    def _file(self, key: str) -> str:
        """:meth:`path_for` as a plain string (reads skip pathlib)."""
        digest = hashlib.sha256(key.encode()).hexdigest()
        return os.path.join(self._root, digest[:2], digest + ".json")

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, key: str) -> dict | None:
        """The stored payload for ``key``, or ``None`` on a miss."""
        payload = self._load(key)
        reg = _metrics.active_metrics()
        if reg is not None:
            if payload is None:
                reg.counter(_names.STORE_MISSES).inc()
            else:
                reg.counter(_names.STORE_HITS).inc()
        return payload

    def get_many(self, keys: Iterable[str]) -> dict[str, dict]:
        """Payloads for every present key (absent keys are omitted)."""
        found: dict[str, dict] = {}
        misses = 0
        for key in keys:
            if key in found:
                continue
            payload = self._load(key)
            if payload is None:
                misses += 1
            else:
                found[key] = payload
        reg = _metrics.active_metrics()
        if reg is not None:
            if found:
                reg.counter(_names.STORE_HITS).inc(len(found))
            if misses:
                reg.counter(_names.STORE_MISSES).inc(misses)
        return found

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._file(key))

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def keys(self) -> Iterator[str]:
        """Every key currently stored (reads each file's header)."""
        for key, _ in self.items():
            yield key

    def items(self) -> Iterator[tuple[str, dict]]:
        """Every ``(key, payload)`` pair currently stored.

        One sequential pass over the fan-out directories; unreadable or
        malformed files are skipped (use :meth:`get` for the
        quarantining read path).  For inspection and bulk export
        (``len(store)`` and :meth:`keys` go through it); the cache
        levels read one key at a time.
        """
        for file in sorted(self.root.glob("??/*.json")):
            try:
                data = _read(file)
            except (OSError, ValueError):
                continue
            if (
                isinstance(data, dict)
                and data.get("version") == _STORE_VERSION
                and isinstance(data.get("key"), str)
                and isinstance(data.get("payload"), dict)
            ):
                yield data["key"], data["payload"]

    def _load(self, key: str) -> dict | None:
        try:
            data = _read(self._file(key))
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            self.quarantine(key, f"unreadable payload file ({exc})")
            return None
        if (
            not isinstance(data, dict)
            or data.get("version") != _STORE_VERSION
            or not isinstance(data.get("payload"), dict)
        ):
            self.quarantine(key, "malformed or version-mismatched payload")
            return None
        return data["payload"]

    def quarantine(self, key: str, reason: str) -> None:
        """Move ``key``'s file aside to ``<file>.corrupt`` and warn, so
        the entry reads as a miss and its job re-runs and rewrites it."""
        file = self._file(key)
        target = file + ".corrupt"
        try:
            os.replace(file, target)
            where = f"quarantined to {target}"
        except OSError as exc:
            where = f"could not quarantine ({exc})"
        warnings.warn(
            f"result store entry {file}: {reason}; {where}; "
            "treating as a miss",
            RuntimeWarning,
            stacklevel=4,
        )
        reg = _metrics.active_metrics()
        if reg is not None:
            reg.counter(_names.STORE_QUARANTINED).inc()

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(self, key: str, payload: Mapping[str, object]) -> None:
        """Atomically write one payload (last writer wins, never torn)."""
        self._write(key, payload)
        reg = _metrics.active_metrics()
        if reg is not None:
            reg.counter(_names.STORE_WRITES).inc()

    def put_many(self, payloads: Mapping[str, Mapping[str, object]]) -> None:
        """Atomically write each payload (one file, one replace, each)."""
        for key, payload in payloads.items():
            self._write(key, payload)
        reg = _metrics.active_metrics()
        if reg is not None and payloads:
            reg.counter(_names.STORE_WRITES).inc(len(payloads))

    def _write(self, key: str, payload: Mapping[str, object]) -> None:
        file = self._file(key)
        directory = os.path.dirname(file)
        os.makedirs(directory, exist_ok=True)
        body = json.dumps(
            {"version": _STORE_VERSION, "key": key, "payload": dict(payload)},
            separators=(",", ":"),
        )
        # A unique temp file per writer: concurrent sweeps publishing
        # the same key race only on the final rename, which is atomic.
        fd, tmp = tempfile.mkstemp(
            prefix=os.path.basename(file), suffix=".tmp", dir=directory
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(body)
            os.replace(tmp, file)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
