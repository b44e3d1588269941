"""``python -m repro campaign {run,resume,status,watch,report,merge}``.

A campaign lives in one directory (default
``results/campaigns/<name>/``) holding the frozen ``spec.json`` and
the append-only ``journal.jsonl``.  ``run`` creates the directory and
drains the sweep; ``resume`` replays the journal and re-runs only
pending/failed cells; ``status`` and ``report`` are pure readers.

Sharded runs (``--shards N --shard-index I``) drain only the cells
whose content-hashed ID lands in shard I, journaling into
``journal.shard-I-of-N.jsonl`` — run each shard on its own machine
against the same spec, collect the shard journals into one directory,
and ``merge`` recombines them into the ``journal.jsonl`` an unsharded
run would have produced (``report`` output is byte-identical).

Exit codes: 0 — all cells settled (completed or quarantined); 3 —
interrupted with pending cells (``--max-cells`` or SIGINT); 130 —
SIGINT; 143 — SIGTERM; 1 — usage or spec errors.  Both interrupt
paths drain cleanly: in-flight workers are terminated, every durably
journaled record survives, and no traceback is spewed.
"""

import argparse
import os
import signal
import sys

from repro.campaign.backends import (
    LocalPoolBackend,
    ShardedBackend,
)
from repro.campaign.journal import (
    JOURNAL_NAME,
    SPEC_NAME,
    Journal,
    find_shard_journals,
    merge_shard_journals,
    replay,
)
from repro.campaign.report import render_report, render_status
from repro.campaign.scheduler import (
    DEFAULT_BACKOFF,
    DEFAULT_MAX_ATTEMPTS,
    Scheduler,
)
from repro.campaign.spec import CampaignSpec
from repro.obs import tracectx
from repro.obs.spans import span

#: Campaign directories live here unless ``--results-dir`` overrides.
DEFAULT_RESULTS_DIR = os.path.join("results", "campaigns")


def builtin_specs():
    """Named spec builders: ``(scale, benchmarks) -> CampaignSpec``."""
    from repro.experiments import ablations, fig7, meldcompare

    return {
        "fig7": fig7.campaign_spec,
        "meld": meldcompare.campaign_spec,
        "confidence-threshold":
            ablations.campaign_spec_confidence_threshold,
        "predictor-sensitivity":
            ablations.campaign_spec_predictor_sensitivity,
        "max-cfm": ablations.campaign_spec_max_cfm,
    }


class _Terminated(Exception):
    """SIGTERM arrived; unwind like ^C but exit 143."""


def _raise_terminated(signum, frame):
    raise _Terminated()


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    # SIGTERM drains exactly like ^C: the scheduler's finally-block
    # terminates in-flight workers, the journal already holds every
    # durable record, and the exit is a clean nonzero code instead of
    # a traceback.  Only install in the main thread (signal handlers
    # are process-global; embedded callers keep their own).
    previous_term = None
    try:
        previous_term = signal.signal(signal.SIGTERM, _raise_terminated)
    except ValueError:  # pragma: no cover — not the main thread
        pass
    try:
        return args.handler(parser, args)
    except KeyboardInterrupt:
        print("\ncampaign interrupted; resume with: "
              "python -m repro campaign resume <name>", file=sys.stderr)
        return 130
    except _Terminated:
        print("\ncampaign terminated; resume with: "
              "python -m repro campaign resume <name>", file=sys.stderr)
        return 143
    except (ValueError, OSError) as exc:
        print(f"python -m repro campaign: error: {exc}", file=sys.stderr)
        return 1
    finally:
        if previous_term is not None:
            signal.signal(signal.SIGTERM, previous_term)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro campaign",
        description=(
            "Resumable, fault-tolerant design-space sweep campaigns "
            "(see docs/campaigns.md)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="start a new campaign from a builtin or JSON spec"
    )
    run.add_argument(
        "spec",
        help="builtin spec name "
             f"({', '.join(sorted(builtin_specs()))}) or a spec.json path",
    )
    run.add_argument("--name", default=None,
                     help="campaign name (default: the spec's name)")
    run.add_argument("--scale", type=float, default=None,
                     help="trace-length multiplier override")
    run.add_argument("--benchmarks", default="",
                     help="comma-separated benchmark subset override")
    run.add_argument("--fresh", action="store_true",
                     help="discard an existing journal for this name")
    _add_exec_args(run)
    run.set_defaults(handler=_cmd_run)

    resume = sub.add_parser(
        "resume", help="re-run only the pending/failed cells"
    )
    resume.add_argument("target", help="campaign name or directory")
    _add_exec_args(resume)
    resume.set_defaults(handler=_cmd_resume)

    status = sub.add_parser("status", help="progress and failure summary")
    status.add_argument("target", help="campaign name or directory")
    status.add_argument("--results-dir", default=DEFAULT_RESULTS_DIR)
    status.set_defaults(handler=_cmd_status)

    watch = sub.add_parser(
        "watch",
        help="live status view tailing the journal(s) across shards "
             "(pure reader; never perturbs the run)",
    )
    watch.add_argument("target", help="campaign name or directory")
    watch.add_argument("--results-dir", default=DEFAULT_RESULTS_DIR)
    watch.add_argument("--interval", type=float, default=2.0,
                       metavar="S",
                       help="seconds between refreshes (default 2)")
    watch.add_argument("--once", action="store_true",
                       help="render a single frame and exit")
    watch.set_defaults(handler=_cmd_watch)

    report = sub.add_parser(
        "report", help="deterministic per-cell and aggregate tables"
    )
    report.add_argument("target", help="campaign name or directory")
    report.add_argument("--results-dir", default=DEFAULT_RESULTS_DIR)
    report.add_argument(
        "--explain", action="store_true",
        help="append the per-cell decision-ledger section "
             "(estimate-vs-observed; journaled by each cell)",
    )
    report.add_argument(
        "--resources", action="store_true",
        help="append the per-cell worker CPU time and peak RSS "
             "section (getrusage; journaled by each cell)",
    )
    report.set_defaults(handler=_cmd_report)

    merge = sub.add_parser(
        "merge",
        help="recombine shard journals into one journal.jsonl "
             "(report is byte-identical to an unsharded run)",
    )
    merge.add_argument("target", help="campaign name or directory")
    merge.add_argument("--results-dir", default=DEFAULT_RESULTS_DIR)
    merge.add_argument(
        "--force", action="store_true",
        help="overwrite an existing journal.jsonl",
    )
    merge.set_defaults(handler=_cmd_merge)
    return parser


def _add_exec_args(sub):
    sub.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="concurrent cell workers (default 1)")
    sub.add_argument("--timeout", type=float, default=None, metavar="S",
                     help="per-cell wall-clock budget in seconds")
    sub.add_argument("--retries", type=int,
                     default=DEFAULT_MAX_ATTEMPTS, metavar="N",
                     help="total attempts before quarantine "
                          f"(default {DEFAULT_MAX_ATTEMPTS})")
    sub.add_argument("--backoff", type=float,
                     default=DEFAULT_BACKOFF, metavar="S",
                     help="first-retry backoff seconds, doubling "
                          f"(default {DEFAULT_BACKOFF})")
    sub.add_argument("--max-cells", type=int, default=None, metavar="N",
                     help="stop after N completed cells (for smoke "
                          "tests of resume)")
    sub.add_argument("--shards", type=int, default=None, metavar="N",
                     help="split the spec's cells across N shard "
                          "journals by content-hashed cell ID; this "
                          "invocation runs one shard (see merge)")
    sub.add_argument("--shard-index", type=int, default=None,
                     metavar="I",
                     help="which shard (0..N-1) this invocation runs "
                          "(requires --shards)")
    sub.add_argument("--results-dir", default=DEFAULT_RESULTS_DIR,
                     help=f"campaign root (default {DEFAULT_RESULTS_DIR})")
    sub.add_argument("--trace-dir", default=None, metavar="DIR",
                     help="enable distributed tracing: spool spans "
                          "from the scheduler and every cell worker "
                          "into DIR (default: $REPRO_TRACE_DIR when "
                          "set; see 'python -m repro trace show')")


def _resolve_backend(parser, args):
    """The execution backend the run/resume flags describe."""
    if args.shards is None and args.shard_index is None:
        return LocalPoolBackend()
    if args.shards is None or args.shard_index is None:
        parser.error("--shards and --shard-index go together")
    try:
        return ShardedBackend(args.shards, args.shard_index)
    except ValueError as exc:
        parser.error(str(exc))


def _campaign_dir(target, results_dir):
    """Resolve a campaign name-or-directory to its directory."""
    if os.path.isdir(target) \
            and os.path.exists(os.path.join(target, SPEC_NAME)):
        return target
    return os.path.join(results_dir, target)


def _cmd_run(parser, args):
    spec = _resolve_spec(args)
    backend = _resolve_backend(parser, args)
    name = args.name or spec.name
    directory = os.path.join(args.results_dir, name)
    journal_path = os.path.join(directory, backend.journal_name())
    if args.fresh and os.path.exists(directory):
        for filename in (backend.journal_name(), SPEC_NAME):
            path = os.path.join(directory, filename)
            if os.path.exists(path):
                os.remove(path)
    if os.path.exists(journal_path) \
            and os.path.getsize(journal_path) > 0:
        parser.error(
            f"campaign {name!r} already has a journal at "
            f"{journal_path}; use 'campaign resume {name}' "
            f"(or run --fresh to discard it)"
        )
    os.makedirs(directory, exist_ok=True)
    spec_path = os.path.join(directory, SPEC_NAME)
    if os.path.exists(spec_path):
        # Another shard of the same campaign may have written it
        # already; identical specs dump identical bytes, mismatched
        # ones must not share a directory.
        existing = CampaignSpec.load(spec_path)
        if existing.spec_hash != spec.spec_hash:
            parser.error(
                f"{spec_path} holds spec {existing.spec_hash} but this "
                f"run resolves to {spec.spec_hash}; refusing to mix"
            )
    spec.dump(spec_path)
    return _execute(spec, directory, args, replay(journal_path),
                    backend)


def _cmd_resume(parser, args):
    directory = _campaign_dir(args.target, args.results_dir)
    spec_path = os.path.join(directory, SPEC_NAME)
    if not os.path.exists(spec_path):
        parser.error(f"no campaign spec at {spec_path}")
    spec = CampaignSpec.load(spec_path)
    backend = _resolve_backend(parser, args)
    state = replay(os.path.join(directory, backend.journal_name()))
    if state.spec_hash is not None and state.spec_hash != spec.spec_hash:
        parser.error(
            f"journal was written for spec {state.spec_hash} but "
            f"{SPEC_NAME} now hashes to {spec.spec_hash}; refusing "
            f"to mix results"
        )
    return _execute(spec, directory, args, state, backend)


def _trace_context(args, backend):
    """The run's :class:`~repro.obs.tracectx.TraceContext`, or None.

    Tracing is opt-in: ``--trace-dir DIR`` (or an inherited
    ``REPRO_TRACE_DIR``) turns it on.  When ``REPRO_TRACEPARENT`` is
    also set, this run *joins* the caller's trace (e.g. a driver
    orchestrating several shards) instead of rooting a new one.
    """
    trace_dir = args.trace_dir \
        or os.environ.get(tracectx.TRACE_DIR_ENV) or None
    if not trace_dir:
        return None
    service = "campaign"
    if isinstance(backend, ShardedBackend):
        service = f"campaign-shard{backend.shard_index}"
    ctx = tracectx.TraceContext.from_env(service=service)
    if ctx is not None:
        if ctx.spool is None:
            ctx.spool = tracectx.SpanSpool(trace_dir)
        return ctx
    return tracectx.TraceContext.root(service=service,
                                      trace_dir=trace_dir)


def _execute(spec, directory, args, state, backend):
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    owned = [cell for cell in spec.cells() if backend.owns(cell)]
    pending = [
        cell for cell in state.pending_cells(spec)
        if backend.owns(cell)
    ]
    total = len(owned)
    shard_note = ""
    if isinstance(backend, ShardedBackend):
        shard_note = (f" (shard {backend.shard_index}/{backend.shards}: "
                      f"{total} of {len(spec.cells())} cells)")
    if not pending:
        print(f"campaign {spec.name!r}: all {total} cells already "
              f"settled{shard_note}; nothing to do")
        print(f"  report: python -m repro campaign report {spec.name}")
        return 0
    print(f"campaign {spec.name!r}: {len(pending)}/{total} cells to "
          f"run under {args.jobs} worker(s){shard_note} [{directory}]")
    ctx = _trace_context(args, backend)
    from contextlib import ExitStack

    with ExitStack() as stack:
        stack.enter_context(tracectx.activate(ctx))
        if ctx is not None:
            stack.enter_context(span(
                "campaign.run",
                attrs={"campaign": spec.name, "pending": len(pending)},
            ))
        journal = stack.enter_context(
            Journal(os.path.join(directory, backend.journal_name()))
        )
        journal.campaign_start(spec.name, spec.spec_hash, args.jobs)
        scheduler = Scheduler(
            spec, journal,
            jobs=args.jobs,
            max_attempts=args.retries,
            backoff=args.backoff,
            cell_timeout=args.timeout,
            backend=backend,
        )
        summary = scheduler.run(state, max_cells=args.max_cells)
    completed = len(summary["results"])
    quarantined = len(summary["quarantined"])
    print(f"campaign {spec.name!r}: {completed}/{total} cells complete, "
          f"{quarantined} quarantined, "
          f"{summary['session_completed']} run this session")
    if ctx is not None:
        print(f"  trace: python -m repro trace show {ctx.trace_id} "
              f"--dir {ctx.spool.directory}")
    if summary["interrupted"]:
        print(f"  interrupted with {summary['pending']} cells pending; "
              f"resume with: python -m repro campaign resume {spec.name}")
        return 3
    if isinstance(backend, ShardedBackend):
        print(f"  merge shards: python -m repro campaign merge "
              f"{spec.name}")
    else:
        print(f"  report: python -m repro campaign report {spec.name}")
    return 0


def _warn_unmerged_shards(directory):
    """Point at ``campaign merge`` when only shard journals exist."""
    journal_path = os.path.join(directory, JOURNAL_NAME)
    if os.path.exists(journal_path) \
            and os.path.getsize(journal_path) > 0:
        return
    try:
        shards = find_shard_journals(directory)
    except ValueError:
        return
    if shards:
        print(
            f"note: {len(shards)} unmerged shard journal(s) in "
            f"{directory}; run 'python -m repro campaign merge "
            f"{os.path.basename(directory)}' to combine them",
            file=sys.stderr,
        )


def _cmd_status(parser, args):
    directory = _campaign_dir(args.target, args.results_dir)
    spec_path = os.path.join(directory, SPEC_NAME)
    if not os.path.exists(spec_path):
        parser.error(f"no campaign spec at {spec_path}")
    spec = CampaignSpec.load(spec_path)
    _warn_unmerged_shards(directory)
    state = replay(os.path.join(directory, JOURNAL_NAME))
    print(render_status(spec, state, directory=directory))
    return 0


def _cmd_watch(parser, args):
    from repro.campaign.watch import watch_loop

    directory = _campaign_dir(args.target, args.results_dir)
    spec_path = os.path.join(directory, SPEC_NAME)
    if not os.path.exists(spec_path):
        parser.error(f"no campaign spec at {spec_path}")
    spec = CampaignSpec.load(spec_path)
    if args.interval <= 0:
        parser.error("--interval must be > 0")
    return watch_loop(spec, directory, interval=args.interval,
                      once=args.once)


def _cmd_report(parser, args):
    directory = _campaign_dir(args.target, args.results_dir)
    spec_path = os.path.join(directory, SPEC_NAME)
    if not os.path.exists(spec_path):
        parser.error(f"no campaign spec at {spec_path}")
    spec = CampaignSpec.load(spec_path)
    _warn_unmerged_shards(directory)
    state = replay(os.path.join(directory, JOURNAL_NAME))
    print(render_report(
        spec, state.results,
        quarantined=state.quarantined,
        ledgers=state.ledger if args.explain else None,
        resources=state.resources if args.resources else None,
    ))
    return 0


def _cmd_merge(parser, args):
    directory = _campaign_dir(args.target, args.results_dir)
    if not os.path.isdir(directory):
        parser.error(f"no campaign directory at {directory}")
    summary = merge_shard_journals(directory, force=args.force)
    present = len(summary["shards"])
    expected = summary["shard_count"]
    print(f"merged {present}/{expected} shard journal(s) "
          f"({summary['records']} records) into {summary['output']}")
    if summary["corrupt_lines"]:
        print(f"  skipped {summary['corrupt_lines']} corrupt "
              f"(torn-tail) line(s)")
    if present < expected:
        missing = sorted(
            set(range(expected))
            - {index for index, _ in summary["shards"]}
        )
        print(f"  warning: shard(s) {missing} missing — their cells "
              f"will show as pending", file=sys.stderr)
    print(f"  report: python -m repro campaign report "
          f"{os.path.basename(directory)}")
    return 0


def _resolve_spec(args):
    builders = builtin_specs()
    benchmarks = [
        b.strip() for b in args.benchmarks.split(",") if b.strip()
    ] or None
    if args.spec in builders:
        scale = args.scale if args.scale is not None else 1.0
        return builders[args.spec](scale=scale, benchmarks=benchmarks)
    if not os.path.exists(args.spec):
        raise ValueError(
            f"{args.spec!r} is neither a builtin spec "
            f"({', '.join(sorted(builders))}) nor a spec file"
        )
    spec = CampaignSpec.load(args.spec)
    overrides = {}
    if args.scale is not None:
        overrides["scale"] = args.scale
    if benchmarks:
        overrides["benchmarks"] = tuple(benchmarks)
    if overrides:
        import dataclasses

        spec = dataclasses.replace(spec, **overrides)
    return spec
