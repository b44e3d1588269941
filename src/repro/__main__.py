"""Command-line entry point: ``python -m repro <artifact> [options]``.

Regenerates the paper's tables and figures from the command line::

    python -m repro table1
    python -m repro fig5 --scale 0.5 --benchmarks gzip,twolf
    python -m repro all --scale 1.0

Telemetry (see ``docs/observability.md``)::

    python -m repro fig5 --trace run.jsonl --metrics run.json
    python -m repro trace-report run.jsonl
    python -m repro trace-report run.jsonl --trace-id 4bf92f35...
    python -m repro all --manifest results/run_manifest.json

Distributed tracing (see ``docs/observability.md``)::

    python -m repro fig5 --trace-dir results/trace
    python -m repro trace list --dir results/trace
    python -m repro trace show <trace_id> --dir results/trace

Performance (see ``docs/performance.md``)::

    python -m repro all --jobs 8          # process-pool fan-out
    python -m repro fig5 --jobs 1         # serial (the old behaviour)
    python -m repro cache info            # persistent artifact cache
    python -m repro cache clear

Campaigns (see ``docs/campaigns.md``)::

    python -m repro campaign run fig7 --scale 0.5 --jobs 8
    python -m repro campaign status fig7
    python -m repro campaign resume fig7     # after a crash or ^C
    python -m repro campaign report fig7

Compiler pipeline (see ``docs/compiler.md``)::

    python -m repro compile --benchmark twolf --config all-best-heur
    python -m repro compile --benchmark twolf \
        --pipeline "exact,freq,short,ret,loop,cost:edge" -o marks.json

Decision ledger (see ``docs/observability.md``)::

    python -m repro explain mcf --config All-best-cost
    python -m repro explain mcf --branch 137
    python -m repro explain mcf --json -o results/explain_mcf.json

Simulator cost profile (see ``docs/observability.md``)::

    python -m repro profile gzip --scale 0.5
    python -m repro profile gzip --folded -o gzip.folded
    python -m repro profile gzip --json -o results/profile_gzip.json

Serving daemon (see ``docs/serving.md``)::

    python -m repro serve --port 8642 --warm gzip,twolf
    curl -d '{"benchmark": "twolf"}' localhost:8642/v1/compile
"""

import argparse
import sys
from contextlib import ExitStack

from repro.errors import ReproError
from repro.exec import JobError, artifact_cache, default_jobs
from repro.experiments import (
    ablations,
    meldcompare,
    priorwork,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    table1,
    table2,
)
from repro.obs import (
    MetricsRegistry,
    NULL_TRACER,
    SpanTree,
    activate,
    build_manifest,
    format_by_name,
    format_trace_report,
    jsonl_tracer,
    span,
    summarize_trace,
    telemetry,
    write_manifest,
)

ARTIFACTS = {
    "table1": table1,
    "table2": table2,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "priorwork": priorwork,
    "meldcompare": meldcompare,
}

#: Where ``python -m repro all`` writes its combined manifest unless
#: ``--manifest`` overrides it.
DEFAULT_ALL_MANIFEST = "results/run_manifest.json"


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "campaign":
        from repro.campaign.cli import main as campaign_main

        return campaign_main(argv[1:])
    if argv and argv[0] == "compile":
        from repro.compiler.cli import main as compile_main

        return compile_main(argv[1:])
    if argv and argv[0] == "explain":
        from repro.obs.explain import main as explain_main

        return explain_main(argv[1:])
    if argv and argv[0] == "profile":
        from repro.obs.profile_cli import main as profile_main

        return profile_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.serve.daemon import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "trace":
        from repro.obs.traceview import main as trace_main

        return trace_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Regenerate tables/figures of 'Profile-assisted Compiler "
            "Support for Dynamic Predication in Diverge-Merge "
            "Processors' (CGO 2007)."
        ),
    )
    parser.add_argument(
        "artifact",
        choices=sorted(ARTIFACTS) + [
            "all", "ablations", "coverage", "trace-report", "cache",
        ],
        help="which table/figure to regenerate (or trace-report to "
             "summarize an event log, or cache to manage the artifact "
             "cache; 'campaign run/resume/status/report' manages "
             "durable sweeps — see docs/campaigns.md)",
    )
    parser.add_argument(
        "path",
        nargs="?",
        default=None,
        help="for trace-report: the JSONL trace log to summarize; "
             "for cache: the action (info or clear)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for experiment cells "
             f"(default: all {default_jobs()} CPUs; 1 = serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent artifact cache directory (default: "
             f"$REPRO_CACHE_DIR or {artifact_cache.DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-disk-cache",
        action="store_true",
        help="skip the persistent artifact cache for this run",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="trace-length multiplier (1.0 ≈ 60k insts per benchmark)",
    )
    parser.add_argument(
        "--benchmarks",
        default="",
        help="comma-separated benchmark subset (default: all 17)",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="also render speedup figures as ASCII bar charts",
    )
    parser.add_argument(
        "--trace",
        metavar="OUT.jsonl",
        default=None,
        help="write structured telemetry events (episodes, flushes, "
             "selection decisions) as JSONL",
    )
    parser.add_argument(
        "--trace-id",
        metavar="ID",
        default=None,
        help="for trace-report: keep only events stamped with this "
             "distributed trace id",
    )
    parser.add_argument(
        "--trace-dir",
        metavar="DIR",
        default=None,
        help="span spool directory for distributed tracing: the run "
             "becomes one trace ('python -m repro trace show <id>' "
             "merges it with any worker processes)",
    )
    parser.add_argument(
        "--metrics",
        metavar="OUT.json",
        default=None,
        help="write the metrics-registry snapshot as JSON",
    )
    parser.add_argument(
        "--metrics-format",
        choices=("json", "openmetrics"),
        default="json",
        help="format for --metrics output (openmetrics = Prometheus "
             "text exposition)",
    )
    parser.add_argument(
        "--manifest",
        metavar="OUT.json",
        default=None,
        help="write a run manifest (config, git rev, span timings, "
             f"metrics); 'all' defaults to {DEFAULT_ALL_MANIFEST}",
    )
    args = parser.parse_args(argv)

    if args.cache_dir:
        artifact_cache.set_cache_dir(args.cache_dir)
    if args.no_disk_cache:
        artifact_cache.set_disabled(True)
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")

    if args.artifact == "cache":
        return _run_cache_command(parser, args.path)

    if args.artifact == "trace-report":
        if not args.path:
            parser.error("trace-report requires a trace log path")
        try:
            summary = summarize_trace(args.path, trace_id=args.trace_id)
        except OSError as exc:
            print(f"python -m repro: error: cannot read trace: {exc}",
                  file=sys.stderr)
            return 1
        except ValueError as exc:
            print(f"python -m repro: error: {exc}", file=sys.stderr)
            return 1
        print(format_trace_report(summary))
        return 0
    if args.path is not None:
        parser.error(
            f"unexpected positional argument {args.path!r} "
            f"(only trace-report and cache take one)"
        )

    benchmarks = (
        [b.strip() for b in args.benchmarks.split(",") if b.strip()]
        or None
    )

    registry = MetricsRegistry()
    spans = SpanTree()
    tracer = jsonl_tracer(args.trace) if args.trace else NULL_TRACER
    telemetry_requested = bool(
        args.trace or args.metrics or args.manifest
    )

    ctx = None
    if args.trace_dir:
        from repro.obs import tracectx

        ctx = tracectx.TraceContext.root(
            service="repro", trace_dir=args.trace_dir,
            attrs={"artifact": args.artifact},
        )
    try:
        with ExitStack() as stack:
            stack.enter_context(
                telemetry(tracer=tracer, metrics=registry, spans=spans))
            stack.enter_context(activate(ctx))
            if ctx is not None:
                stack.enter_context(span(f"repro.{args.artifact}"))
            status = _run_artifact(args, benchmarks)
    except (ReproError, JobError) as exc:
        # A pooled cell's ReproError arrives wrapped in the JobError
        # that names the cell; any other failure keeps its traceback.
        if not isinstance(exc, ReproError) \
                and not isinstance(exc.__cause__, ReproError):
            raise
        print(f"python -m repro: error: {exc}", file=sys.stderr)
        return 2
    finally:
        tracer.close()
    if status:
        return status

    if ctx is not None:
        print(f"[obs] trace {ctx.trace_id} spooled to {args.trace_dir} "
              f"(python -m repro trace show {ctx.trace_id} "
              f"--dir {args.trace_dir})")

    if args.trace:
        print(f"[obs] trace written to {args.trace}")
    if args.metrics:
        if args.metrics_format == "openmetrics":
            registry.write_openmetrics(args.metrics)
        else:
            registry.write_json(args.metrics)
        print(f"[obs] metrics written to {args.metrics} "
              f"({args.metrics_format})")

    manifest_path = args.manifest
    if manifest_path is None and args.artifact == "all":
        manifest_path = DEFAULT_ALL_MANIFEST
    if manifest_path:
        manifest = build_manifest(
            command=f"python -m repro {args.artifact}",
            args={
                "artifact": args.artifact,
                "scale": args.scale,
                "benchmarks": args.benchmarks or "all",
                "trace": args.trace,
                "metrics": args.metrics,
            },
            benchmarks=benchmarks,
            scale=args.scale,
            phases=spans,
            metrics=registry,
        )
        write_manifest(manifest_path, manifest)
        print(f"[obs] run manifest written to {manifest_path}")

    if telemetry_requested or args.artifact == "all":
        print()
        print(format_by_name(spans.by_name()))
    return 0


def _run_cache_command(parser, action):
    """``python -m repro cache {info,clear}``."""
    action = action or "info"
    if action == "info":
        info = artifact_cache.info()
        state = "enabled" if info["enabled"] else "disabled"
        print(f"artifact cache at {info['dir']} ({state})")
        print(
            f"  {info['entries']} entries, {info['bytes']:,} bytes "
            f"({artifact_cache.format_size(info['bytes'])}), "
            f"format v{info['format_version']}"
        )
        for kind in sorted(info["kinds"]):
            bucket = info["kinds"][kind]
            print(
                f"    {kind}: {bucket['entries']} entries, "
                f"{artifact_cache.format_size(bucket['bytes'])}"
            )
        return 0
    if action == "clear":
        removed = artifact_cache.clear()
        print(
            f"artifact cache at {artifact_cache.cache_dir()}: "
            f"removed {removed} entries"
        )
        return 0
    parser.error(f"unknown cache action {action!r} (use info or clear)")


def _run_artifact(args, benchmarks):
    """Dispatch one artifact run under the active telemetry context."""
    jobs = args.jobs if args.jobs is not None else default_jobs()

    if args.artifact == "coverage":
        from repro.experiments import coverage

        results = coverage.run_many(
            benchmarks or ["gcc"], scale=args.scale, jobs=jobs
        )
        for result in results:
            print(coverage.format_result(result))
            print()
        return 0

    if args.artifact == "ablations":
        for run in (
            ablations.run_acc_conf,
            ablations.run_max_cfm,
            ablations.run_confidence_threshold,
            ablations.run_easy_branch_filter,
            ablations.run_predictor_sensitivity,
            ablations.run_per_app_acc_conf,
        ):
            result = run(scale=args.scale, benchmarks=benchmarks,
                         jobs=jobs)
            print(ablations.format_result(result))
            print()
        return 0

    names = sorted(ARTIFACTS) if args.artifact == "all" else [args.artifact]
    for name in names:
        module = ARTIFACTS[name]
        if name == "table1":
            result = module.run()
        else:
            result = module.run(scale=args.scale, benchmarks=benchmarks,
                                jobs=jobs)
        print(module.format_result(result))
        if args.chart and "means" in result and "series" in result:
            from repro.experiments.charts import (
                chart_flush_result,
                chart_speedup_result,
            )
            chart = (
                chart_flush_result(result, name)
                if name == "fig6"
                else chart_speedup_result(result, name)
            )
            print()
            print(chart)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
