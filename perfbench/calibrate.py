"""Machine-speed probe: a fixed pure-Python loop in its own interpreter.

The measuring box is a shared 2-vCPU virtual machine whose speed drifts
by about 15% over minutes, for CPU time as much as for wall time.  The
drift scales the program and this loop alike, so the ledger reports
each timing multiplied by ``REFERENCE_S / probe``: the value the timing
would have had at the probe's reference speed.  In a 200-second trial
on that box this cut the spread of 25-second census-warm windows from
26% to 3% (interquartile range over median).

The probe runs in a separate interpreter that never imports the
program, so nothing the program does to its own process (a tracer, a
garbage-collector setting) can slow the probe along with it and hide a
regression.

    python3 perfbench/calibrate.py   # one probe time in ns per stdin line
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

#: Probe time at the reference speed (the box's fast state when the
#: ledger was defined).  Changing it rescales every timing: never edit
#: it in a change that claims a gain.
REFERENCE_S = 0.0075
_LOOP = 100_000
_REPEATS = 3


def _probe_ns() -> int:
    """Fastest of a few runs of the fixed loop, in ns."""
    best = None
    for _ in range(_REPEATS):
        start = time.perf_counter_ns()
        x = 0
        for i in range(_LOOP):
            x += i * i % 7
        elapsed = time.perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


class Calibrator:
    """A probe process, kept alive for the run and asked on demand."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.samples: list[float] = []

    def sample(self) -> float:
        """One probe time in seconds (also kept in ``samples``)."""
        assert self._proc.stdin is not None and self._proc.stdout is not None
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        seconds = int(self._proc.stdout.readline()) / 1e9
        self.samples.append(seconds)
        return seconds

    def close(self) -> None:
        assert self._proc.stdin is not None and self._proc.stdout is not None
        self._proc.stdin.close()
        self._proc.wait(timeout=30)
        self._proc.stdout.close()


def main() -> int:
    for _ in sys.stdin:
        print(_probe_ns(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
