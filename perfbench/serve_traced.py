"""`repro-mem serve` with layer spans recorded, written on shutdown.

    python3 perfbench/serve_traced.py OUT.json serve --port 0 [...]

Installs the layer wrappers, runs the CLI unchanged, and after the
graceful SIGTERM drain writes the span summary (plus the service's own
obs counters, read just before they are switched off) to OUT.json and
every span to OUT.json's sibling spans.jsonl.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    from repro import cli
    from repro.serve.app import BandwidthService

    out = Path(argv[1])
    rec = tracing.Recorder()
    tracing.install(rec)
    aclose = BandwidthService.aclose

    async def aclose_reading_counters(self: BandwidthService) -> None:
        rec.obs.update(tracing.counter_values(self.registry))
        await aclose(self)

    BandwidthService.aclose = aclose_reading_counters
    rc = cli.main(argv[2:])
    summary = tracing.dump(rec, out.with_name("spans.jsonl"))
    out.write_text(json.dumps(summary))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
