"""Command line interface (the ``autocheck`` console script).

Subcommands:

* ``autocheck analyze <trace file> --function main --start L1 --end L2`` —
  run the analysis on an existing dynamic trace file (the paper's primary
  usage: trace + main loop location in, critical variables out);
* ``autocheck analyze-batch <manifest.json>`` — fan a manifest of traces
  and bundled apps across a process pool, reusing the artifact store;
* ``autocheck app <name>`` — trace and analyse one of the bundled benchmarks;
* ``autocheck trace <mini-C file> -o out.trace`` — compile and trace a mini-C
  program;
* ``autocheck static-report <app-or-source>`` — print the static CFG /
  loop / liveness picture of a bundled app or a mini-C file;
* ``autocheck serve`` — run the analysis-as-a-service HTTP/JSON daemon in
  front of the artifact store (bounded worker pool, request coalescing,
  backpressure; see ``docs/serve.md``);
* ``autocheck gc`` — inspect and evict entries of the artifact store;
* ``autocheck campaign`` — run a fault-injection checkpoint campaign over
  the bundled fleet (apps x checkpoint content x interval policy x seeded
  kill points) and verdict restart equivalence per app;
* ``autocheck table2|table3|table4|validate|figure5|run-all`` — regenerate
  the paper's evaluation artefacts;
* ``autocheck list`` — list the bundled benchmarks.

The parser is built by :func:`build_parser` (separate from :func:`main`) so
the docs flag-drift check in ``tests/test_docs.py`` can compare the live
option surface against ``docs/cli.md``.

Exit codes follow one convention across the verbs: 0 = success, 1 = a
verdict failed (restart mismatch, Table II mismatch, batch entry error,
static cross-check violation), 2 = bad invocation or bad input (unknown app
or policy; an unreadable, corrupt or loop-less trace or source given to
``analyze`` or ``trace``), reported as one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.apps.registry import all_apps, get_app
from repro.codegen.lowering import compile_source
from repro.core.config import AutoCheckConfig, MainLoopSpec
from repro.core.errors import AnalysisError
from repro.core.pipeline import AutoCheck
from repro.experiments import (
    format_table2,
    format_table3,
    format_table4,
    format_validation,
    run_all,
    run_figure5,
    run_table2,
    run_table3,
    run_table4,
    run_validation,
)
from repro.experiments.common import analyze_app
from repro.minicc.errors import MiniCError
from repro.static.check import cross_check
from repro.static.textreport import render_static_report
from repro.trace.binio import BinaryTraceError
from repro.trace.textio import TraceFormatError
from repro.tracer.driver import trace_to_file
from repro.util.formatting import render_table
from repro.util.timing import TimingBreakdown

#: What bad input to ``analyze`` and ``trace`` raises: an unreadable path, a
#: corrupt binary or text trace, a trace with no record in the loop range
#: or an unknown opcode, and a mini-C program that does not compile.
_INPUT_ERRORS = (OSError, BinaryTraceError, TraceFormatError, AnalysisError,
                 MiniCError)


def _load_module(path: str):
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    return compile_source(source, module_name=path), source


def _input_error(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _print_static_check(module, spec, report) -> int:
    diagnostics = cross_check(module, spec, report)
    if diagnostics:
        print(f"Static cross-check: {len(diagnostics)} violation(s)")
        for diagnostic in diagnostics:
            print(f"  {diagnostic}")
        return 1
    print("Static cross-check: ok (dynamic MLI within the static candidate "
          "set; every dynamic DDG edge statically feasible)")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.static_check and not args.source:
        print("error: --static-check needs the IR module; pass the mini-C "
              "program via --source", file=sys.stderr)
        return 2
    spec = MainLoopSpec(function=args.function, start_line=args.start,
                        end_line=args.end)
    config = AutoCheckConfig(main_loop=spec,
                             induction_variable=args.induction,
                             use_cache=args.cache,
                             cache_dir=args.cache_dir)
    try:
        module = _load_module(args.source)[0] if args.source else None
        report = AutoCheck(config, trace_path=args.trace, module=module).run()
    except _INPUT_ERRORS as exc:
        return _input_error(exc)
    print(report.summary())
    if args.profile:
        _print_profile(report.timings)
    if args.static_check:
        return _print_static_check(module, spec, report)
    return 0


def _print_profile(timings: TimingBreakdown) -> None:
    """One run's stage breakdown: the top-level stages, the walk's
    ``walk.*`` stages under ``fused_analysis``, the total, and the walk's
    record count and throughput."""
    rows = []
    for name, seconds in timings.stages.items():
        if "." in name:
            continue
        rows.append((name, f"{seconds:.4f}"))
        if name == "fused_analysis":
            rows.extend((f"  {stage}", f"{stage_seconds:.4f}")
                        for stage, stage_seconds in timings.stages.items()
                        if stage.startswith("walk."))
    rows.append(("total", f"{timings.total:.4f}"))
    rate = timings.records_per_second("fused_analysis")
    rows.append(("records", str(timings.get_count("fused_analysis"))))
    rows.append(("krec/s", f"{rate / 1000:.1f}" if rate else "-"))
    print("Profile (seconds per stage):")
    print(render_table(("stage", "value"), rows))


def _cmd_analyze_batch(args: argparse.Namespace) -> int:
    from repro.store.batch import run_batch

    result = run_batch(args.manifest,
                       workers=args.workers,
                       use_cache=args.cache,
                       cache_dir=args.cache_dir,
                       trace_dir=args.trace_dir)
    print(result.summary())
    return 0 if result.all_ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import AnalysisServer

    try:
        server = AnalysisServer(host=args.host, port=args.port,
                                workers=args.workers,
                                queue_limit=args.queue_limit,
                                use_cache=args.cache,
                                cache_dir=args.cache_dir,
                                trace_dir=args.trace_dir)
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    print(f"autocheck serve: listening on http://{server.host}:{server.port} "
          f"({args.workers} workers, queue limit {args.queue_limit}, "
          f"store {server.store.root})")
    print("endpoints: POST /analyze · GET /jobs/<id> · GET /report/<key> · "
          "GET /stats · GET /healthz  (Ctrl-C drains and exits)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down: draining in-flight jobs ...")
    server.close(graceful=True)
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    from repro.store.cache import ArtifactStore

    store = ArtifactStore(args.cache_dir)
    before = store.stats()
    print(f"store {store.root}: {before.entries} entries, "
          f"{before.total_bytes} bytes")
    if not (args.clear or args.max_entries is not None
            or args.max_age_days is not None or args.max_bytes is not None):
        return 0
    result = store.gc(
        max_entries=args.max_entries,
        max_age_seconds=(args.max_age_days * 86400.0
                         if args.max_age_days is not None else None),
        max_bytes=args.max_bytes,
        clear=args.clear,
        dry_run=args.dry_run)
    verb = "would evict" if args.dry_run else "evicted"
    print(f"{verb} {result.evicted} entries ({result.evicted_bytes} bytes), "
          f"kept {result.kept} ({result.kept_bytes} bytes)")
    return 0


def _unknown_app(exc: KeyError) -> int:
    name = exc.args[0] if exc.args else exc
    print(f"error: unknown app {name!r} (see 'autocheck list')",
          file=sys.stderr)
    return 2


def _cmd_app(args: argparse.Namespace) -> int:
    try:
        app = get_app(args.name)
    except KeyError as exc:
        return _unknown_app(exc)
    analysis = analyze_app(app)
    print(f"# {app.title} — {app.description}")
    print(analysis.report.summary())
    status = "matches" if analysis.matches_expected else "DIFFERS from"
    print(f"Result {status} the paper's Table II row "
          f"({analysis.mismatch_description()}).")
    exit_code = 0 if analysis.matches_expected else 1
    if args.static_check:
        check_code = _print_static_check(
            analysis.module, analysis.report.main_loop, analysis.report)
        exit_code = exit_code or check_code
    return exit_code


def _cmd_static_report(args: argparse.Namespace) -> int:
    try:
        app = get_app(args.target)
    except KeyError:
        app = None
    if app is not None:
        module = app.module()
        spec = app.main_loop()
    else:
        from repro.apps.base import find_mclr

        try:
            module, source = _load_module(args.target)
        except OSError:
            print(f"error: {args.target!r} is neither a bundled app nor a "
                  f"readable mini-C source file", file=sys.stderr)
            return 2
        try:
            start, end = find_mclr(source)
            spec = MainLoopSpec(function=args.function, start_line=start,
                                end_line=end)
        except ValueError:
            # No @mclr markers: report structure only, no spec-derived parts.
            spec = None
    print(render_static_report(module, spec=spec))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    try:
        module, _ = _load_module(args.source)
        size, result = trace_to_file(module, args.output, fmt=args.format)
    except _INPUT_ERRORS as exc:
        return _input_error(exc)
    print(f"wrote {size} bytes ({args.format}) to {args.output}; "
          f"program output:")
    for line in result.output:
        print(f"  {line}")
    return 0


def _cmd_list(_: argparse.Namespace) -> int:
    for app in all_apps(include_example=True):
        expected = ", ".join(f"{k} ({v})" for k, v in app.expected_critical.items())
        print(f"{app.name:10s} {app.title:15s} expected: {expected}")
    return 0


def _cmd_experiment(args: argparse.Namespace, runner, formatter,
                    verdict=None) -> int:
    """Shared driver for the table/validate verbs (one exit-code convention:
    2 = unknown app, 1 = failed verdict, 0 = success)."""
    try:
        result = runner(apps=args.apps)
    except KeyError as exc:
        return _unknown_app(exc)
    print(formatter(result))
    if verdict is not None and not verdict(result):
        return 1
    return 0


def _validation_verdict(rows) -> bool:
    return all(row.restart_successful and not row.false_positives
               for row in rows)


def _cmd_run_all(args: argparse.Namespace) -> int:
    try:
        print(run_all(apps=args.apps, output_path=args.output,
                      include_validation=not args.skip_validation))
    except KeyError as exc:
        return _unknown_app(exc)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import (
        CONTENT_POLICIES,
        INTERVAL_POLICIES,
        CampaignConfig,
        PolicyError,
        parse_policies,
        resolve_app_names,
        run_campaign,
    )

    try:
        config = CampaignConfig(
            apps=resolve_app_names(args.apps),
            content_policies=parse_policies(args.policies, CONTENT_POLICIES,
                                            "content"),
            interval_policies=parse_policies(args.intervals,
                                             INTERVAL_POLICIES, "interval"),
            trials=args.trials,
            seed=args.seed,
            every_k=args.every_k,
            workers=args.workers,
            run_necessity=args.necessity,
            use_cache=args.cache,
            cache_dir=args.cache_dir,
            trace_dir=args.trace_dir,
        )
        report = run_campaign(config)
    except PolicyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
    if args.json:
        print(report.to_json(), end="")
    else:
        print(report.summary())
    return 0 if report.all_pass else 1


def _add_cache_flags(parser: argparse.ArgumentParser, default: bool) -> None:
    """The shared ``--cache/--no-cache`` + ``--cache-dir`` pair."""
    parser.add_argument("--cache", action=argparse.BooleanOptionalAction,
                        default=default,
                        help="consult/publish the content-addressed artifact "
                             "store: a hit (same trace digest, same semantic "
                             "config, same report schema) skips the record "
                             "walk entirely"
                             + (" (default: on)" if default
                                else " (default: off)"))
    parser.add_argument("--cache-dir", default=None,
                        help="artifact store root (default: "
                             "$AUTOCHECK_CACHE_DIR or ~/.cache/autocheck)")


def build_parser() -> argparse.ArgumentParser:
    """Build the full CLI parser (also consumed by the docs drift check)."""
    parser = argparse.ArgumentParser(
        prog="autocheck",
        description="AutoCheck: automatically identify variables for "
                    "checkpointing by data dependency analysis (SC'24 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command")

    p_analyze = sub.add_parser("analyze", help="analyse an existing trace file")
    p_analyze.add_argument("trace")
    p_analyze.add_argument("--function", default="main")
    p_analyze.add_argument("--start", type=int, required=True,
                           help="main loop start line")
    p_analyze.add_argument("--end", type=int, required=True,
                           help="main loop end line")
    p_analyze.add_argument("--induction", default=None)
    p_analyze.add_argument("--source", default=None,
                           help="the traced mini-C program; supplies the IR "
                                "module the static analyses need (required "
                                "by --static-check)")
    p_analyze.add_argument("--static-check", action="store_true",
                           help="after the analysis, cross-check the dynamic "
                                "result against the static IR dataflow "
                                "over-approximation (dynamic MLI must be "
                                "within the static candidate set, every "
                                "dynamic DDG edge statically feasible); "
                                "violations are printed as named "
                                "diagnostics and exit non-zero")
    p_analyze.add_argument("--profile", action="store_true",
                           help="after the report, print the run's stage "
                                "breakdown: top-level stages, every walk.* "
                                "stage, records and krec/s")
    _add_cache_flags(p_analyze, default=False)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_batch = sub.add_parser(
        "analyze-batch",
        help="analyse a manifest of traces/apps over a process pool, "
             "reusing the artifact store")
    p_batch.add_argument("manifest",
                         help="JSON manifest: a list of entries, or an "
                              "object with 'entries' (and optionally "
                              "'trace_dir')")
    p_batch.add_argument("--workers", type=int, default=1,
                         help="process-pool width; 1 runs inline")
    p_batch.add_argument("--trace-dir", default=None,
                         help="where app entries keep their generated "
                              "binary traces (reused across runs; default: "
                              "<store root>/traces)")
    _add_cache_flags(p_batch, default=True)
    p_batch.set_defaults(func=_cmd_analyze_batch)

    p_serve = sub.add_parser(
        "serve",
        help="run the analysis-as-a-service HTTP/JSON daemon: warm "
             "requests answer from the artifact store, cold ones fan "
             "into a bounded worker pool with request coalescing and "
             "429 backpressure")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8573,
                         help="bind port; 0 picks an ephemeral port "
                              "(default: 8573)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="analysis worker threads for cold requests "
                              "(default: 2)")
    p_serve.add_argument("--queue-limit", type=int, default=16,
                         help="max queued cold analyses before the daemon "
                              "sheds load with 429 (default: 16)")
    p_serve.add_argument("--trace-dir", default=None,
                         help="where app traces and uploaded trace bodies "
                              "are kept (default: <store root>/traces)")
    _add_cache_flags(p_serve, default=True)
    p_serve.set_defaults(func=_cmd_serve)

    p_gc = sub.add_parser("gc",
                          help="inspect the artifact store and evict entries")
    p_gc.add_argument("--cache-dir", default=None,
                      help="artifact store root (default: "
                           "$AUTOCHECK_CACHE_DIR or ~/.cache/autocheck)")
    p_gc.add_argument("--max-entries", type=int, default=None,
                      help="keep at most N entries (oldest evicted first)")
    p_gc.add_argument("--max-age-days", type=float, default=None,
                      help="evict entries older than D days")
    p_gc.add_argument("--max-bytes", type=int, default=None,
                      help="keep the newest entries totalling at most B bytes")
    p_gc.add_argument("--clear", action="store_true",
                      help="evict every entry")
    p_gc.add_argument("--dry-run", action="store_true",
                      help="report what would be evicted without deleting")
    p_gc.set_defaults(func=_cmd_gc)

    p_app = sub.add_parser("app", help="trace + analyse a bundled benchmark")
    p_app.add_argument("name")
    p_app.add_argument("--static-check", action="store_true",
                       help="also run the static-vs-dynamic cross-check "
                            "oracle on the result (exit non-zero on any "
                            "violation)")
    p_app.set_defaults(func=_cmd_app)

    p_static = sub.add_parser(
        "static-report",
        help="print the static IR picture (CFG, dominators, loops, "
             "liveness, MLI candidates) of a bundled app or mini-C file")
    p_static.add_argument("target",
                          help="bundled benchmark name or path to a mini-C "
                               "source file")
    p_static.add_argument("--function", default="main",
                          help="main-loop function for source files whose "
                               "@mclr markers supply the line range "
                               "(default: main)")
    p_static.set_defaults(func=_cmd_static_report)

    p_trace = sub.add_parser("trace", help="compile and trace a mini-C source file")
    p_trace.add_argument("source")
    p_trace.add_argument("-o", "--output", required=True)
    p_trace.add_argument("-f", "--format", choices=("text", "binary"),
                         default="text",
                         help="trace encoding (binary is smaller and much "
                              "faster to parse)")
    p_trace.set_defaults(func=_cmd_trace)

    p_list = sub.add_parser("list", help="list bundled benchmarks")
    p_list.set_defaults(func=_cmd_list)

    p_campaign = sub.add_parser(
        "campaign",
        help="run a fault-injection checkpoint campaign: apps x checkpoint "
             "content x interval policy x seeded kill points, verdicting "
             "restart equivalence against uninterrupted runs")
    p_campaign.add_argument("--apps", default="all",
                            help="comma-separated app names, or 'all' for "
                                 "the full 16-app bundled fleet "
                                 "(default: all)")
    p_campaign.add_argument("--policies", default="critical,full,blcr",
                            help="checkpoint-content policies to sweep: "
                                 "'critical' (the AutoCheck set), 'full' "
                                 "(every variable live at the main loop), "
                                 "'blcr' (whole-process baseline) "
                                 "(default: critical,full,blcr)")
    p_campaign.add_argument("--intervals", default="every-k",
                            help="interval policies to sweep: 'every-k' "
                                 "(fixed cadence, see --every-k), 'young', "
                                 "'daly' (model-recommended cadences under "
                                 "the synthetic time model) "
                                 "(default: every-k)")
    p_campaign.add_argument("--trials", type=int, default=3,
                            help="kill points per matrix cell; the first "
                                 "pins the kill-before-first-checkpoint "
                                 "edge, the second the kill-during-"
                                 "checkpoint-write edge (default: 3)")
    p_campaign.add_argument("--seed", type=int, default=7,
                            help="campaign seed; the full trial plan and "
                                 "all verdicts are a pure function of it "
                                 "(default: 7)")
    p_campaign.add_argument("--every-k", type=int, default=2,
                            help="cadence (in iterations) of the every-k "
                                 "interval policy (default: 2)")
    p_campaign.add_argument("--workers", type=int, default=1,
                            help="process-pool width for per-app prep and "
                                 "trial batches; 1 runs inline")
    p_campaign.add_argument("--necessity", action="store_true",
                            help="also run the drop-one ablation per app "
                                 "and verdict false positives")
    p_campaign.add_argument("--out", default=None,
                            help="write the canonical JSON report here "
                                 "(byte-identical across same-seed re-runs)")
    p_campaign.add_argument("--json", action="store_true",
                            help="print the JSON report to stdout instead "
                                 "of the summary table")
    p_campaign.add_argument("--trace-dir", default=None,
                            help="where per-app binary traces are kept "
                                 "(reused across runs; default: "
                                 "<store root>/traces)")
    _add_cache_flags(p_campaign, default=True)
    p_campaign.set_defaults(func=_cmd_campaign)

    for name, runner, formatter, verdict in (
            ("table2", run_table2, format_table2, None),
            ("table3", run_table3, format_table3, None),
            ("table4", run_table4, format_table4, None),
            ("validate", run_validation, format_validation,
             _validation_verdict)):
        p_cmd = sub.add_parser(name, help=f"regenerate {name}")
        p_cmd.add_argument("--apps", nargs="*", default=None)
        p_cmd.set_defaults(func=lambda a, r=runner, f=formatter, v=verdict:
                           _cmd_experiment(a, r, f, v))

    p_fig = sub.add_parser("figure5", help="regenerate the Fig. 4/5 worked example")
    p_fig.set_defaults(func=lambda a: (print(run_figure5().summary()) or 0))

    p_all = sub.add_parser("run-all", help="run every experiment")
    p_all.add_argument("--apps", nargs="*", default=None)
    p_all.add_argument("--output", default=None)
    p_all.add_argument("--skip-validation", action="store_true")
    p_all.set_defaults(func=_cmd_run_all)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    return int(args.func(args) or 0)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
