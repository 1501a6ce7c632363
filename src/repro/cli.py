"""Command-line interface: ``repro-mem``.

Puts the library's main entry points on the shell for quick exploration:

* ``repro-mem classify``  — analytic regime of a stride pair;
* ``repro-mem simulate``  — exact steady state of arbitrary streams,
  optionally with a Fig. 2-9 style trace;
* ``repro-mem single``    — Theorem 1 / Section III-A for one stride;
* ``repro-mem triad``     — the Fig. 10 experiment;
* ``repro-mem atlas``     — Section V stride guidance for a machine;
* ``repro-mem profile``   — start-space distribution of a stride pair;
* ``repro-mem census``    — regime counts over the whole stride space;
* ``repro-mem duel``      — both CPUs running triads against each other;
* ``repro-mem lint``      — reprolint static invariant analysis.

Examples::

    repro-mem classify -m 12 -c 3 1 7
    repro-mem simulate -m 13 -c 6 --stream 0:1 --stream 0:6 --trace
    repro-mem triad --inc 1-16 --n 256
    repro-mem atlas -m 16 -c 4
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runner import RetryPolicy

# Each command imports its own stack (analysis, machine, engine, viz)
# when it runs, so `serve` and the short commands load only what they use.
from .memory.config import MemoryConfig
from .runner import available_backends

__all__ = ["main", "build_parser", "serve_main"]


def _parse_range(spec: str) -> list[int]:
    """``"1-16"`` or ``"1,2,5"`` or ``"3"`` to a list of ints."""
    out: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if "-" in part:
            lo, hi = part.split("-", 1)
            out.extend(range(int(lo), int(hi) + 1))
        elif part:
            out.append(int(part))
    if not out:
        raise argparse.ArgumentTypeError(f"empty range spec {spec!r}")
    return out


def _parse_stream(spec: str) -> tuple[int, int]:
    """``"b:d"`` start-bank/stride pair."""
    try:
        b, d = spec.split(":", 1)
        return int(b), int(d)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"stream spec must be START:STRIDE, got {spec!r}"
        ) from exc


def _parse_port(spec: str) -> int:
    """A TCP port: ``0`` (any free port) through ``65535``."""
    try:
        port = int(spec)
    except ValueError:
        port = -1
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(
            f"port must be an integer in 0-65535, got {spec!r}"
        )
    return port


def _add_memory_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("-m", "--banks", type=int, default=16,
                   help="bank count m (default 16)")
    p.add_argument("-c", "--bank-cycle", type=int, default=4,
                   help="bank cycle time n_c in clocks (default 4)")
    p.add_argument("-s", "--sections", type=int, default=None,
                   help="section count (default: one per bank)")
    p.add_argument("--consecutive-sections", action="store_true",
                   help="use Cheung & Smith's consecutive bank grouping")


def _add_arbiter_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--arbiter", default=None, metavar="SPEC",
                   help="arbiter policy: 'priority' (default; the "
                        "--priority rule) or 'wfq:W0,W1,...' with one "
                        "integer weight per stream")
    p.add_argument("--regulate", action="append", default=[],
                   metavar="TARGET=RATE/WINDOW",
                   help="token-bucket grant regulator, repeatable; "
                        "TARGET is stream, stream:IDX, bank or bank:IDX "
                        "(e.g. --regulate stream:0=1/4)")


def _add_runner_args(
    p: argparse.ArgumentParser, *, jobs: bool = True
) -> None:
    p.add_argument("--backend", choices=list(available_backends()),
                   default=None,
                   help="simulation backend (default: $REPRO_SIM_BACKEND "
                        "or reference)")
    if jobs:
        p.add_argument("--jobs", "--workers", type=int, default=1,
                       metavar="N", dest="jobs",
                       help="worker processes for the sweep (default 1; "
                            "--workers is an alias)")
        p.add_argument("--store", default=None, metavar="DIR",
                       help="content-addressed shared result-store "
                            "directory: probed before execution, populated "
                            "chunk by chunk, reusable across sweeps")
    p.add_argument("--retries", type=int, default=None, metavar="N",
                   help="enable fault-tolerant execution: retry each "
                        "failing chunk up to N times, then bisect to "
                        "isolate the poisoned job (docs/RUNNER.md, "
                        "Failure semantics)")
    p.add_argument("--chunk-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="condemn the pool when no running chunk finishes "
                        "within SECONDS and retry its unfinished chunks "
                        "(implies --retries; pool execution only)")
    p.add_argument("--strict-failures", action="store_true",
                   help="exit non-zero if any job still fails after "
                        "retries, instead of reporting FailedOutcome "
                        "stand-ins")


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    """Observability switches for the sweep-shaped subcommands
    (docs/OBSERVABILITY.md documents every emitted name)."""
    p.add_argument("--metrics", nargs="?", const="-", default=None,
                   metavar="PATH",
                   help="collect pipeline metrics; bare --metrics prints a "
                        "text report, PATH writes .json / .prom / text")
    p.add_argument("--trace-spans", action="store_true",
                   help="time the pipeline's phases and print the span tree")


def _retry_policy(args: argparse.Namespace) -> "RetryPolicy | None":
    """Build the executor retry policy from the CLI switches.

    Returns ``None`` (historical fail-fast semantics) unless at least
    one of ``--retries`` / ``--chunk-timeout`` / ``--strict-failures``
    was given.
    """
    retries = getattr(args, "retries", None)
    timeout = getattr(args, "chunk_timeout", None)
    strict = bool(getattr(args, "strict_failures", False))
    if retries is None and timeout is None and not strict:
        return None
    from .runner import RetryPolicy

    return RetryPolicy(
        max_retries=retries if retries is not None else 2,
        chunk_timeout=timeout,
        strict=strict,
    )


def _executor_kwargs(args: argparse.Namespace) -> dict:
    """SweepExecutor construction kwargs from the runner CLI switches
    (worker count, retry policy, result store)."""
    kwargs: dict = {
        "workers": getattr(args, "jobs", 1),
        "retry": _retry_policy(args),
    }
    store = getattr(args, "store", None)
    if store is not None:
        kwargs["store_path"] = store
    return kwargs


def _memory(args: argparse.Namespace) -> MemoryConfig:
    return MemoryConfig(
        banks=args.banks,
        bank_cycle=args.bank_cycle,
        sections=args.sections,
        section_mapping=(
            "consecutive" if args.consecutive_sections else "cyclic"
        ),
    )


class _CommandParser(argparse.ArgumentParser):
    """A subcommand parser whose arguments may be attached on first use:
    ``lint``'s are, so no other command imports reprolint."""

    attach: Callable[[argparse.ArgumentParser], None] | None = None

    def _attached(self) -> None:
        if self.attach is not None:
            attach, self.attach = self.attach, None
            attach(self)

    def parse_known_args(self, *args, **kwargs):
        self._attached()
        return super().parse_known_args(*args, **kwargs)

    def format_usage(self) -> str:
        self._attached()
        return super().format_usage()

    def format_help(self) -> str:
        self._attached()
        return super().format_help()


def _add_lint_arguments(p: argparse.ArgumentParser) -> None:
    from .lint.cli import add_lint_arguments

    add_lint_arguments(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mem",
        description="Interleaved-memory bandwidth analysis "
        "(Oed & Lange 1985 reproduction)",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_CommandParser
    )

    p = sub.add_parser("classify", help="analytic regime of a stride pair")
    _add_memory_args(p)
    p.add_argument("d1", type=int)
    p.add_argument("d2", type=int)

    p = sub.add_parser("single", help="one-stream analysis (Theorem 1)")
    _add_memory_args(p)
    p.add_argument("stride", type=int)

    p = sub.add_parser("simulate", help="exact steady state of streams")
    _add_memory_args(p)
    p.add_argument("--stream", action="append", type=_parse_stream,
                   required=True, metavar="START:STRIDE",
                   help="add a stream (repeatable)")
    p.add_argument("--cpus", type=str, default=None,
                   help="comma list of CPU ids per stream")
    p.add_argument("--priority", default="fixed",
                   help="fixed | cyclic | block-cyclic:N | lru")
    _add_arbiter_args(p)
    p.add_argument("--trace", type=int, nargs="?", const=36, default=None,
                   metavar="CLOCKS", help="render a trace of CLOCKS clocks")
    p.add_argument("--show-priority", action="store_true",
                   help="add the favoured-stream header row (Figs. 8-9)")
    _add_runner_args(p, jobs=False)
    _add_obs_args(p)

    p = sub.add_parser("triad", help="the Fig. 10 X-MP experiment")
    p.add_argument("--inc", type=_parse_range, default=list(range(1, 17)),
                   help="increments, e.g. 1-16 or 2,3,8")
    p.add_argument("--n", type=int, default=1024, help="vector length")
    p.add_argument("--dedicated", action="store_true",
                   help="shut the other CPU off (Fig. 10b)")

    p = sub.add_parser("atlas", help="stride guidance table (Section V)")
    _add_memory_args(p)
    p.add_argument("--strides", type=_parse_range,
                   default=list(range(1, 17)))

    p = sub.add_parser(
        "profile", help="steady bandwidth over every relative start"
    )
    _add_memory_args(p)
    p.add_argument("d1", type=int)
    p.add_argument("d2", type=int)
    p.add_argument("--same-cpu", action="store_true")
    p.add_argument("--priority", default="fixed",
                   help="fixed | cyclic | block-cyclic:N | lru")
    _add_arbiter_args(p)
    _add_runner_args(p)
    _add_obs_args(p)

    p = sub.add_parser(
        "census", help="regime counts over all stride pairs"
    )
    _add_memory_args(p)
    p.add_argument("--observed", action="store_true",
                   help="simulate every canonical pair over every start "
                        "instead of classifying analytically")
    _add_runner_args(p)
    _add_obs_args(p)

    p = sub.add_parser("duel", help="both CPUs run triads concurrently")
    p.add_argument("inc0", type=int)
    p.add_argument("inc1", type=int)
    p.add_argument("--n", type=int, default=512)

    p = sub.add_parser(
        "serve", help="bandwidth-oracle HTTP service (docs/SERVICE.md)"
    )
    _add_memory_args(p)
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=_parse_port, default=8080,
                   help="bind port; 0 picks a free one (default 8080)")
    p.add_argument("--backend", choices=list(available_backends()),
                   default="auto",
                   help="drain-tier backend (default auto)")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="shared result-store directory: repeats of stored "
                        "results are read from it, fresh results are "
                        "published to it")
    p.add_argument("--max-inflight", type=int, default=64, metavar="N",
                   help="load-shed (429 + Retry-After) past N concurrent "
                        "compute requests (default 64)")
    p.add_argument("--precompute", type=_parse_range, default=None,
                   metavar="STRIDES",
                   help="before announcing readiness, simulate every "
                        "stride pair from this range (e.g. 1-16) over "
                        "every relative start on the configured memory "
                        "into the executor's memo (and the store)")

    p = sub.add_parser(
        "lint", help="static invariant analysis (reprolint)"
    )
    p.attach = _add_lint_arguments
    return parser


def _cmd_classify(args: argparse.Namespace) -> int:
    from .analysis.report import fraction_str
    from .core.classify import classify_pair

    cfg = _memory(args)
    s = cfg.effective_sections if cfg.sectioned else None
    cls = classify_pair(cfg.banks, cfg.bank_cycle, args.d1, args.d2, s=s)
    print(f"memory: {cfg.describe()}")
    print(f"pair:   d1={args.d1}, d2={args.d2}")
    print(f"regime: {cls.regime.value}")
    print(f"predicted b_eff: {fraction_str(cls.predicted_bandwidth)}")
    print(
        f"bounds: [{fraction_str(cls.bandwidth_lower)}, "
        f"{fraction_str(cls.bandwidth_upper)}]"
    )
    if cls.conflict_free_offset is not None:
        print(f"conflict-free relative start: {cls.conflict_free_offset}")
    if cls.delayed_stream is not None:
        print(f"barrier delays stream: {cls.delayed_stream}")
    for note in cls.notes:
        print(f"note: {note}")
    return 0


def _cmd_single(args: argparse.Namespace) -> int:
    from .analysis.report import fraction_str
    from .core.single import predict_single

    cfg = _memory(args)
    p = predict_single(cfg.banks, args.stride, cfg.bank_cycle)
    print(f"memory: {cfg.describe()}")
    print(f"stride {args.stride}: return number r = {p.return_number}")
    print(f"b_eff = {fraction_str(p.bandwidth)}")
    print("conflict free" if p.conflict_free else
          f"self-conflicting: stalls {p.stall_per_period} of every "
          f"{p.period} clocks")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .analysis.report import fraction_str
    from .runner import SimJob, SweepExecutor, run

    cfg = _memory(args)
    cpus = (
        [int(x) for x in args.cpus.split(",")]
        if args.cpus
        else list(range(len(args.stream)))
    )
    job = SimJob.from_specs(
        cfg,
        args.stream,
        cpus=cpus,
        priority=args.priority,
        arbiter=args.arbiter,
        regulate=args.regulate,
    )
    if args.trace is not None:
        from .viz.ascii_trace import render_result

        # A trace job runs on the reference engine, whose result (event
        # log included) the outcome carries.
        traced = run(
            replace(job, steady=False, cycles=args.trace + 8, trace=True)
        ).result
        assert traced is not None
        print(render_result(traced, stop=args.trace,
                            show_sections=cfg.sectioned,
                            show_priority=args.show_priority))
        print()
    policy = _retry_policy(args)
    if policy is not None:
        out = SweepExecutor(backend=args.backend, retry=policy).run_one(job)
        if getattr(out, "failed", False):
            print(f"error: {out.describe()}", file=sys.stderr)
            return 1
    else:
        out = run(job, backend=args.backend)
    line = f"memory: {cfg.describe()}; priority: {args.priority}"
    if args.arbiter is not None:
        line += f"; arbiter: {args.arbiter}"
    if args.regulate:
        line += f"; regulate: {', '.join(args.regulate)}"
    print(line)
    print(f"steady b_eff = {fraction_str(out.bandwidth)} "
          f"(period {out.period} clocks, grants {out.grants})")
    return 0


def _cmd_triad(args: argparse.Namespace) -> int:
    from .analysis.report import triad_report
    from .machine.xmp import triad_sweep

    rows = triad_sweep(
        args.inc, other_cpu_active=not args.dedicated, n=args.n
    )
    env = "other CPU off" if args.dedicated else "other CPU streaming d=1"
    print(triad_report(rows, title=f"Triad, n={args.n}, {env}"))
    return 0


def _cmd_atlas(args: argparse.Namespace) -> int:
    from .analysis.atlas import stride_atlas
    from .analysis.report import fraction_str
    from .viz.tables import format_table

    cfg = _memory(args)
    rows = stride_atlas(cfg, args.strides)
    print(format_table(
        ["stride", "d", "r", "solo b_eff", "vs d=1", "safe"],
        [
            (
                a.stride, a.distance, a.return_number,
                fraction_str(a.solo_bandwidth),
                a.vs_unit_stride_regime,
                "yes" if a.safe else "no",
            )
            for a in rows
        ],
        title=f"Stride atlas for {cfg.describe()}",
    ))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .runner import SweepExecutor
    from .sim.statespace import start_space_profile
    from .viz.profile import render_histogram, render_profile

    cfg = _memory(args)
    prof = start_space_profile(
        cfg, args.d1, args.d2,
        same_cpu=args.same_cpu, priority=args.priority,
        arbiter=args.arbiter, regulate=tuple(args.regulate),
        executor=SweepExecutor(backend=args.backend, **_executor_kwargs(args)),
    )
    print(render_profile(prof, title=f"start space on {cfg.describe()}"))
    print()
    print(render_histogram(prof))
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    from .analysis.census import regime_census
    from .viz.tables import format_table

    cfg = _memory(args)
    if args.observed:
        return _census_observed(cfg, args)
    census = regime_census(
        cfg.banks, cfg.bank_cycle,
        s=cfg.effective_sections if cfg.sectioned else None,
    )
    print(format_table(
        ["regime", "pairs", "share"],
        census.rows(),
        title=(
            f"Regime census for {cfg.describe()}: {census.total} pairs, "
            f"{census.determined} analytically exact"
        ),
    ))
    return 0


def _census_observed(cfg: MemoryConfig, args: argparse.Namespace) -> int:
    """Simulated census plus an exact bandwidth summary.

    Two passes over the same job set through one executor: the census
    sweep simulates every canonical pair over every relative start, the
    summary pass recalls the identical outcomes from the memo — so the
    ``--metrics`` report always shows live cache-hit counters.
    """
    from fractions import Fraction

    from .analysis.census import observed_regime_census
    from .analysis.report import fraction_str
    from .analysis.sweep import canonical_pairs
    from .runner import SweepExecutor, jobs_for_offsets
    from .viz.tables import format_table

    # The observed census runs on the plain (unsectioned) shape.
    flat = MemoryConfig(banks=cfg.banks, bank_cycle=cfg.bank_cycle)
    ex = SweepExecutor(backend=args.backend or "auto", **_executor_kwargs(args))
    counts = observed_regime_census(cfg.banks, cfg.bank_cycle, executor=ex)
    total_pairs = sum(counts.values())
    print(format_table(
        ["observed regime", "pairs", "share"],
        [
            (label, n, f"{100 * n / total_pairs:.1f}%")
            for label, n in sorted(
                counts.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ],
        title=(
            f"Observed regime census for {flat.describe()}: "
            f"{total_pairs} canonical pairs, all relative starts"
        ),
    ))
    # Summary pass: exact bandwidth distribution over the same jobs.
    total = Fraction(0)
    lo: Fraction | None = None
    hi: Fraction | None = None
    n_jobs = 0
    for d1, d2 in canonical_pairs(cfg.banks):
        jobs = jobs_for_offsets(flat, d1, d2, range(cfg.banks))
        for out in ex.run_many(jobs):
            n_jobs += 1
            total += out.bandwidth
            if lo is None or out.bandwidth < lo:
                lo = out.bandwidth
            if hi is None or out.bandwidth > hi:
                hi = out.bandwidth
    assert lo is not None and hi is not None
    print()
    print(f"{n_jobs} start-resolved runs: "
          f"b_eff min {fraction_str(lo)}, "
          f"mean {fraction_str(total / n_jobs)}, "
          f"max {fraction_str(hi)}")
    st = ex.stats
    print(f"executor: {st.submitted} submitted, {st.hits} memo hits, "
          f"{st.deduped} deduped, {st.executed} executed")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint.cli import run_from_namespace

    return run_from_namespace(args)


def _cmd_duel(args: argparse.Namespace) -> int:
    from .machine.experiments import dueling_triads

    r = dueling_triads(args.inc0, args.inc1, n=args.n)
    print(f"dueling triads, n={args.n}:")
    print(f"  CPU 0 (INC={r.inc0}): {r.cycles_cpu0} clocks "
          f"(bank/section/simultaneous conflicts: "
          f"{r.conflicts_cpu0['bank']}/{r.conflicts_cpu0['section']}/"
          f"{r.conflicts_cpu0['simultaneous']})")
    print(f"  CPU 1 (INC={r.inc1}): {r.cycles_cpu1} clocks "
          f"(bank/section/simultaneous conflicts: "
          f"{r.conflicts_cpu1['bank']}/{r.conflicts_cpu1['section']}/"
          f"{r.conflicts_cpu1['simultaneous']})")
    print(f"  imbalance: {r.imbalance:.2f}x")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve.app import run_server

    precompute_jobs = None
    if args.precompute is not None:
        from .runner import jobs_for_offsets

        cfg = _memory(args)
        strides = sorted(set(args.precompute))
        precompute_jobs = [
            job
            for d1 in strides
            for d2 in strides
            if d1 <= d2
            for job in jobs_for_offsets(
                cfg, d1, d2, range(cfg.banks)
            )
        ]
    run_server(
        host=args.host,
        port=args.port,
        backend=args.backend,
        store_path=args.store,
        max_inflight=args.max_inflight,
        precompute_jobs=precompute_jobs,
    )
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "single": _cmd_single,
    "simulate": _cmd_simulate,
    "triad": _cmd_triad,
    "atlas": _cmd_atlas,
    "profile": _cmd_profile,
    "census": _cmd_census,
    "duel": _cmd_duel,
    "serve": _cmd_serve,
    "lint": _cmd_lint,
}


def _emit_metrics(reg: "object", dest: str) -> None:
    """Render the captured registry to stdout or a file by suffix."""
    from pathlib import Path

    from .obs import render_json, render_prometheus, render_text

    if dest == "-":
        print()
        print(render_text(reg))  # type: ignore[arg-type]
        return
    if dest.endswith(".json"):
        text = render_json(reg)  # type: ignore[arg-type]
    elif dest.endswith(".prom"):
        text = render_prometheus(reg)  # type: ignore[arg-type]
    else:
        text = render_text(reg) + "\n"  # type: ignore[arg-type]
    Path(dest).write_text(text)
    print(f"metrics written to {dest}", file=sys.stderr)


def _run_command(args: argparse.Namespace) -> int:
    """Dispatch one subcommand, honouring the observability switches."""
    metrics_dest = getattr(args, "metrics", None)
    want_spans = bool(getattr(args, "trace_spans", False))
    if metrics_dest is None and not want_spans:
        return _COMMANDS[args.command](args)
    from contextlib import ExitStack

    from .obs import capture_metrics, capture_spans, render_spans, span
    from .obs import names as _names

    with ExitStack() as stack:
        reg = (
            stack.enter_context(capture_metrics())
            if metrics_dest is not None
            else None
        )
        rec = stack.enter_context(capture_spans()) if want_spans else None
        with span(_names.SPAN_CLI, command=args.command):
            rc = _COMMANDS[args.command](args)
    if rec is not None:
        print()
        print(render_spans(rec))
    if reg is not None:
        _emit_metrics(reg, metrics_dest)
    return rc


def serve_main(argv: list[str] | None = None) -> int:
    """``repro-serve`` entry: ``repro-mem serve`` with fewer keystrokes."""
    args = sys.argv[1:] if argv is None else argv
    return main(["serve", *args])


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    from .runner import FailedJobError, SweepFailureError

    args = build_parser().parse_args(argv)
    try:
        return _run_command(args)
    except SweepFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for failure in exc.failures:
            print(f"  {failure.describe()}", file=sys.stderr)
        return 1
    except FailedJobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
