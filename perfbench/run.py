"""The repository's benchmark: the paths users run, end to end.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (one fixed scale and
benchmark set, :data:`SCALE` and :data:`BENCHMARKS`):

``fig5-cold``
    ``python -m repro fig5 --jobs 1`` with an empty artifact cache,
    repeated in fresh processes.
``serve-mix``
    ``python -m repro serve --warm ...``; one closed-loop client sends a
    seeded mix of compile/simulate/explain requests over one HTTP/1.1
    keep-alive connection.
``campaign-fig7``
    ``python -m repro campaign run fig7 --jobs 1`` into a fresh results
    directory with a warm artifact cache, repeated in fresh processes.

With ``--trace 0`` the last stdout line is a JSON object with every
end-to-end metric, CPU-bound timings scaled to a reference host speed
(:data:`PROBE`); with ``--trace 1`` a separate run adds the layer
wrappers of ``perfbench/layers.py`` and reports per-layer metrics and a
per-layer table with an ``unattributed`` row.  Outputs are checked
against ``perfbench/golden/``; a mismatch counts as a failed operation.
See ``perfbench/README.md`` for every metric's definition.
"""

import argparse
import hashlib
import http.client
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden")

SCALE = 0.3
BENCHMARKS = ("gzip", "vpr", "mcf", "twolf")
WORKLOADS = ("fig5-cold", "serve-mix", "campaign-fig7")

#: fig7 campaign cells per benchmark (4 MAX_INSTR x 5 MIN_MERGE_PROB).
FIG7_CELLS_PER_BENCHMARK = 20
#: Daemon spawns per serve-mix run; ``setup_s`` is their median.
SERVE_SETUPS = 5
#: The host-speed probe: a fresh interpreter that imports numpy and a
#: few standard modules, the kind of work a program process starts with.
#: It runs before each repetition and each daemon spawn.  The program is
#: not involved, so a change to the program does not move it.
PROBE = "import numpy, json, argparse, decimal, email.parser"
#: The probe's median seconds on the host the bounds were set on (a
#: shared 2-vCPU VM, Python 3.11, numpy 2.4).  CPU-bound timings are
#: reported at that host's speed: scaled by ``PROBE_REF_S / probe``,
#: with the probe timed just before the work.  See README.md, "Host
#: speed".
PROBE_REF_S = 0.218
#: Longest wait for a daemon to exit after SIGTERM.
DRAIN_TIMEOUT = 30.0
#: Longest wait for a daemon to answer ``/healthz``.
READY_TIMEOUT = 120.0
#: Serve request pool: endpoint -> (presets, times each distinct request
#: appears per block).  A block holds 24 compile, 8 simulate and 4
#: explain requests, so every seed sends the same mix in another order.
#: The 67/22/11% mix is an assumption ("mostly compile, some simulate
#: and explain"): no record of real traffic exists to derive it from.
#: The traced run's per-endpoint ``serve.*_ms_p50`` figures give what is
#: needed to reweight it.
SERVE_POOL = {
    "compile": (("all-best-heur", "all-best-cost", "exact-freq"), 2),
    "simulate": (("all-best-heur", "all-best-cost"), 1),
    "explain": (("all-best-cost",), 1),
}

END_TO_END = (
    ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
    ("setup_s", "s"), ("req_per_s", "1/s"),
    ("latency_p50_ms", "ms"), ("latency_p95_ms", "ms"),
)

#: The SimProfiler buckets (repro.uarch.COMPONENTS), listed here so the
#: metric names do not depend on importing the program.
BUCKETS = ("fetch", "branch_predict", "icache", "dcache", "rob_retire",
           "dpred_episode", "wrong_path", "dataflow", "other")

PER_LAYER = (
    [("workloads.load_s", "s"), ("workloads.load_calls", "count"),
     ("artifact_cache.key_s", "s"), ("artifact_cache.load_s", "s"),
     ("artifact_cache.store_s", "s"), ("artifact_cache.hits", "count"),
     ("artifact_cache.misses", "count"),
     ("emulator.execute_s", "s"), ("emulator.execute_calls", "count"),
     ("emulator.insts", "count"), ("emulator.insts_per_s", "1/s"),
     ("profiling.finish_s", "s"),
     ("compiler.select_s", "s"), ("compiler.select_calls", "count"),
     ("compiler.analysis_hits", "count"),
     ("compiler.analysis_misses", "count"),
     ("uarch.run_s", "s"), ("uarch.runs", "count"),
     ("uarch.sim_insts", "count"), ("uarch.sim_insts_per_s", "1/s"),
     ("uarch.baseline_runs", "count"), ("uarch.baseline_reuse", "ratio")]
    + [(f"uarch.{b}_s", "s") for b in BUCKETS]
    + [(f"uarch.{b}_frac", "ratio") for b in BUCKETS]
    + [(f"uarch.{b}_events", "count") for b in BUCKETS]
    + [("exec.overhead_s", "s"),
       ("campaign.cells", "count"), ("campaign.cell_s", "s"),
       ("campaign.overhead_s", "s"), ("campaign.journal_bytes", "bytes"),
       ("campaign.retries", "count"), ("campaign.report_s", "s"),
       ("serve.server_ms_p50", "ms"), ("serve.transport_ms_p50", "ms"),
       ("serve.compile_ms_p50", "ms"), ("serve.simulate_ms_p50", "ms"),
       ("serve.explain_ms_p50", "ms"), ("serve.coalesced", "count"),
       ("serve.errors", "count"), ("serve.drain_s", "s"),
       ("experiments.report_s", "s"),
       ("obs.serve_traced_req_per_s", "1/s"),
       ("obs.serve_untraced_req_per_s", "1/s"),
       ("bench.traced_wall_s", "s"), ("bench.unattributed_s", "s"),
       ("bench.probe_s", "s"),
       ("bench.trace_overhead", "ratio")]
)

#: Layer-table rows: layer -> the span names of perfbench/layers.py.
LAYER_ROWS = (
    ("repro.workloads", ("workloads.load",)),
    ("repro.exec.artifact_cache", ("artifact_cache.key",
                                   "artifact_cache.load",
                                   "artifact_cache.store")),
    ("repro.emulator", ("emulator.execute",)),
    ("repro.profiling", ("profiling.finish",)),
    ("repro.compiler", ("compiler.select", "compiler.analysis")),
    ("repro.uarch", ("uarch.make", "uarch.run")),
    ("repro.experiments", ("experiments.report",)),
    ("repro.campaign", ("campaign.report",)),
    ("repro.serve", ("serve.request",)),
)


class BenchError(Exception):
    """The benchmark cannot run here (not a failed operation)."""


# -- statistics ------------------------------------------------------------


def percentile(values, pct):
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def digest(data):
    return hashlib.sha256(data).hexdigest()


# -- processes ---------------------------------------------------------------


class Bench:
    """One benchmark run: its work directory, child env and tallies."""

    def __init__(self, workload, seed, seconds, traced):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.work = os.path.join(ROOT, ".bench_work",
                                 f"{workload}-{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.live = []
        self.probes = []
        self._dirs = 0

    def __enter__(self):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(os.path.join(self.work, "tmp"))
        return self

    def __exit__(self, *exc):
        for proc in self.live:
            if proc.returncode is None:
                proc.kill()
                self.reap(proc)
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass  # another run still uses it
        return False

    def fresh_dir(self, stem):
        self._dirs += 1
        path = os.path.join(self.work, f"{stem}{self._dirs}")
        os.makedirs(path)
        return path

    def env(self, cache_dir):
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        env["REPRO_CACHE_DIR"] = cache_dir
        env["TMPDIR"] = os.path.join(self.work, "tmp")
        return env

    def spawn(self, argv, cache_dir, out_dir):
        with open(os.path.join(out_dir, "stdout"), "wb") as stdout, \
                open(os.path.join(out_dir, "stderr"), "wb") as stderr:
            proc = subprocess.Popen(
                [sys.executable] + argv, cwd=self.work,
                env=self.env(cache_dir), stdin=subprocess.DEVNULL,
                stdout=stdout, stderr=stderr,
            )
        self.live.append(proc)
        return proc

    def reap(self, proc):
        """Wait for ``proc``; returns ``(exit code, max RSS in MB)``.

        ``os.wait4`` reports the largest max-RSS among the process and
        the children it reaped (forked campaign cells included).
        """
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss / 1024.0

    def run(self, argv, cache_dir, out_dir):
        """Run to completion; returns ``(code, rss_mb, stdout bytes)``."""
        code, rss = self.reap(self.spawn(argv, cache_dir, out_dir))
        with open(os.path.join(out_dir, "stdout"), "rb") as handle:
            return code, rss, handle.read()

    def launcher(self, command, out_dir, traced):
        argv = [os.path.join(HERE, "launch.py"),
                "--times", os.path.join(out_dir, "times.json")]
        if traced:
            argv += ["--spans", os.path.join(out_dir, "spans.json")]
        return argv + ["--"] + command

    def prepare(self, cache_dir, fill):
        """Compile the program's bytecode once; optionally fill the cache."""
        out = self.fresh_dir("prep")
        code, _, _ = self.run(
            ["-c", "import repro.__main__, repro.campaign.cli, "
                   "repro.serve.daemon"], cache_dir, out)
        if code != 0:
            raise BenchError(f"cannot import repro: {read_text(out)}")
        if fill:
            code, _, _ = self.run(
                [os.path.join(HERE, "launch.py"), "--fill",
                 ",".join(BENCHMARKS), "--scale", str(SCALE)],
                cache_dir, out)
            if code != 0:
                raise BenchError(f"cache fill failed: {read_text(out)}")

    def speed(self):
        """Run the host-speed probe; returns ``PROBE_REF_S / seconds``."""
        started = time.perf_counter()
        code = subprocess.call(
            [sys.executable, "-I", "-c", PROBE], cwd=self.work,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        if code != 0:
            raise BenchError(f"host-speed probe exited {code}")
        self.probes.append(time.perf_counter() - started)
        return PROBE_REF_S / self.probes[-1]

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


def read_text(out_dir):
    with open(os.path.join(out_dir, "stderr"), "rb") as handle:
        return handle.read().decode("utf-8", "replace")[-2000:]


def load_json(path, default=None):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return default


def golden_bytes(name):
    with open(os.path.join(GOLDEN, name), "rb") as handle:
        return handle.read()


def golden_counts(workload):
    return load_json(os.path.join(GOLDEN, "counts.json"), {}).get(
        workload, {})


# -- spans -----------------------------------------------------------------


def merge_spans(paths):
    """Fold the span files of one repetition into one snapshot."""
    merged = {"spans": {}, "markers": {}, "counts": {}, "baselines": {},
              "sim_buckets": {b: [0.0, 0] for b in BUCKETS}}
    for path in paths:
        snap = load_json(path)
        if snap is None:
            continue
        for name, (calls, total, own) in snap["spans"].items():
            slot = merged["spans"].setdefault(name, [0, 0.0, 0.0])
            slot[0] += calls
            slot[1] += total
            slot[2] += own
        for name, (calls, total) in snap["markers"].items():
            slot = merged["markers"].setdefault(name, [0, 0.0])
            slot[0] += calls
            slot[1] += total
        for name, value in snap["counts"].items():
            merged["counts"][name] = merged["counts"].get(name, 0) + value
        for name, value in snap["baselines"].items():
            merged["baselines"][name] = \
                merged["baselines"].get(name, 0) + value
        for name, (secs, events) in snap["sim_buckets"].items():
            merged["sim_buckets"][name][0] += secs
            merged["sim_buckets"][name][1] += events
    return merged


def span_files(out_dir):
    return [os.path.join(out_dir, name) for name in os.listdir(out_dir)
            if name.startswith("spans.json") and not name.endswith(".tmp")]


def layer_metrics(snap, wall):
    """Per-layer metrics of one traced repetition of ``wall`` seconds."""
    spans, counts = snap["spans"], snap["counts"]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def ratio(num, den):
        return num / den if den else 0.0

    run_s = total("uarch.run")
    execute_s = total("emulator.execute")
    baseline_runs = counts.get("uarch.baseline_runs", 0)
    metrics = {
        "workloads.load_s": total("workloads.load"),
        "workloads.load_calls": calls("workloads.load"),
        "artifact_cache.key_s": total("artifact_cache.key"),
        "artifact_cache.load_s": total("artifact_cache.load"),
        "artifact_cache.store_s": total("artifact_cache.store"),
        "artifact_cache.hits": counts.get("artifact_cache.hits", 0),
        "artifact_cache.misses": counts.get("artifact_cache.misses", 0),
        "emulator.execute_s": execute_s,
        "emulator.execute_calls": calls("emulator.execute"),
        "emulator.insts": counts.get("emulator.insts", 0),
        "emulator.insts_per_s": ratio(counts.get("emulator.insts", 0),
                                      execute_s),
        "profiling.finish_s": total("profiling.finish"),
        "compiler.select_s": total("compiler.select"),
        "compiler.select_calls": calls("compiler.select"),
        "compiler.analysis_hits": counts.get("compiler.analysis_hits", 0),
        "compiler.analysis_misses":
            counts.get("compiler.analysis_misses", 0),
        "uarch.run_s": run_s,
        "uarch.runs": calls("uarch.run"),
        "uarch.sim_insts": counts.get("uarch.sim_insts", 0),
        "uarch.sim_insts_per_s": ratio(counts.get("uarch.sim_insts", 0),
                                       run_s),
        "uarch.baseline_runs": baseline_runs,
        "uarch.baseline_reuse": ratio(len(snap["baselines"]),
                                      baseline_runs),
        "exec.overhead_s": (
            snap["markers"].get("exec.execute", [0, 0.0])[1]
            - snap["markers"].get("exec.job", [0, 0.0])[1]),
        "campaign.cell_s": snap["markers"].get("campaign.cell",
                                               [0, 0.0])[1],
        "campaign.report_s": total("campaign.report"),
        "experiments.report_s": total("experiments.report"),
        "bench.traced_wall_s": wall,
        "bench.unattributed_s": wall - sum(
            own for _, _, own in spans.values()),
    }
    for bucket in BUCKETS:
        secs, events = snap["sim_buckets"][bucket]
        metrics[f"uarch.{bucket}_s"] = secs
        metrics[f"uarch.{bucket}_frac"] = ratio(secs, run_s)
        metrics[f"uarch.{bucket}_events"] = events
    return metrics


def layer_table(snap, wall, title):
    """Self time per layer, plus the unattributed rest of ``wall``."""
    spans = snap["spans"]
    lines = [f"per-layer self time: {title} (wall {wall:.4f} s)",
             f"  {'layer':<28} {'calls':>7} {'self_s':>9} {'share':>7}"]
    attributed = 0.0
    for layer, names in LAYER_ROWS:
        n_calls = sum(spans.get(n, [0, 0.0, 0.0])[0] for n in names)
        own = sum(spans.get(n, [0, 0.0, 0.0])[2] for n in names)
        attributed += own
        share = own / wall if wall else 0.0
        lines.append(f"  {layer:<28} {n_calls:>7} {own:>9.4f} "
                     f"{100 * share:>6.1f}%")
    rest = wall - attributed
    lines.append(f"  {'unattributed':<28} {'':>7} {rest:>9.4f} "
                 f"{100 * rest / wall if wall else 0.0:>6.1f}%")
    return "\n".join(lines)


def check_counts(bench, metrics, workload):
    """Instruction counts must repeat exactly (the golden counts)."""
    expected = golden_counts(workload)
    for name, value in sorted(expected.items()):
        bench.op(metrics.get(name) == value,
                 f"{name} = {metrics.get(name)} (golden {value})")


# -- fig5 ------------------------------------------------------------------


def fig5_command():
    return ["fig5", "--scale", str(SCALE), "--jobs", "1",
            "--benchmarks", ",".join(BENCHMARKS)]


def fig5_rep(bench, cache_dir, traced):
    """One ``fig5`` reproduction in a fresh process; checks its table."""
    out = bench.fresh_dir("fig5-")
    spawned = time.monotonic()
    code, rss, stdout = bench.run(
        bench.launcher(fig5_command(), out, traced), cache_dir, out)
    times = load_json(os.path.join(out, "times.json"))
    golden = golden_bytes("fig5.txt")
    lines = stdout.decode("utf-8", "replace").splitlines()
    golden_lines = golden.decode("utf-8").splitlines()
    ok_run = code == 0 and times is not None
    if not ok_run:
        bench.problems.append(f"fig5 exited {code}: {read_text(out)}")
    for name in BENCHMARKS:
        row = [line for line in lines if line.split()[:1] == [name]]
        want = [line for line in golden_lines
                if line.split()[:1] == [name]]
        bench.op(ok_run and row == want, f"fig5 row {name}: {row}")
    bench.op(ok_run and stdout == golden, "fig5 table != golden")
    if not ok_run:
        return None
    rep = {
        "setup": times["ready"] - spawned,
        "wall": times["end"] - times["ready"],
        "cpu": times["cpu_s"],
        "rss": rss,
        "ops": [seconds for _, seconds in times["jobs"]],
    }
    if traced:
        rep["snap"] = merge_spans(span_files(out))
    return rep


def run_fig5(bench):
    bench.prepare(os.path.join(bench.work, "cache"), fill=False)

    def one_rep(traced):
        cold = bench.fresh_dir("cold-cache")
        try:
            return fig5_rep(bench, cold, traced)
        finally:
            shutil.rmtree(cold, ignore_errors=True)

    plain, traced = repeat(bench, one_rep)
    if bench.traced:
        return traced_result(bench, plain, traced)
    print_measured(bench, fig5_metrics(plain))
    return fig5_metrics([at_reference_speed(rep) for rep in plain])


def fig5_metrics(plain):
    # A repetition has one row per benchmark, too few for a tail:
    # take each repetition's row percentile, then the median over
    # repetitions.
    result = process_metrics(plain)
    result.update({
        "req_per_s": (sum(len(rep["ops"]) for rep in plain)
                      / sum(rep["wall"] for rep in plain)),
        "latency_p50_ms": 1000 * statistics.median(
            percentile(rep["ops"], 50) for rep in plain),
        "latency_p95_ms": 1000 * statistics.median(
            percentile(rep["ops"], 95) for rep in plain),
    })
    return result


def repeat(bench, one_rep):
    """Call ``one_rep(traced)`` until ``bench.seconds`` have passed.

    Returns the plain and the traced repetitions; in a traced run the
    two alternate.  An untraced run makes at least three repetitions.
    """
    deadline = time.monotonic() + bench.seconds
    plain, traced, failures = [], [], 0
    while True:
        use_trace = bench.traced and len(traced) < len(plain)
        speed = bench.speed()
        rep = one_rep(use_trace)
        if rep is None:
            failures += 1
            if failures >= 3 and failures > len(plain) + len(traced):
                raise BenchError("repetitions keep failing: "
                                 + "; ".join(bench.problems[-3:]))
            continue
        rep["speed"] = speed
        (traced if use_trace else plain).append(rep)
        enough = traced if bench.traced else len(plain) >= 3
        if time.monotonic() >= deadline and enough:
            return plain, traced


def at_reference_speed(rep):
    """``rep`` with its timings scaled to the reference host's speed."""
    k = rep["speed"]
    return dict(rep, setup=rep["setup"] * k, wall=rep["wall"] * k,
                cpu=rep["cpu"] * k,
                ops=[seconds * k for seconds in rep["ops"]])


def print_measured(bench, values):
    """Print the timings as measured, before scaling."""
    print(f"as measured (host-speed probe: median "
          f"{statistics.median(bench.probes):.4f} s, reference "
          f"{PROBE_REF_S} s):")
    for name, unit in END_TO_END:
        if name in values:
            print(f"  {name:<30} {values[name]:>14.6g} {unit}")


def process_metrics(plain):
    """The metrics every process-per-repetition workload shares."""
    return {
        "wall_s": statistics.median(rep["wall"] for rep in plain),
        "cpu_s": statistics.median(rep["cpu"] for rep in plain),
        # Resident memory steps by about 4 MB between otherwise equal
        # processes; a maximum over repetitions would report the rare step.
        "peak_rss_mb": statistics.median(rep["rss"] for rep in plain),
        "setup_s": statistics.median(rep["setup"] for rep in plain),
    }


def traced_result(bench, plain, traced):
    """Per-layer metrics: the mean over traced repetitions."""
    per_rep = []
    for rep in traced:
        metrics = layer_metrics(rep["snap"],
                                rep.get("table_wall", rep["wall"]))
        metrics.update(rep.get("extra", {}))
        check_counts(bench, metrics, bench.workload)
        per_rep.append(metrics)
    result = {name: statistics.fmean(m.get(name, 0) for m in per_rep)
              for name, _ in PER_LAYER}
    result["bench.probe_s"] = statistics.median(bench.probes)
    result["bench.trace_overhead"] = (
        statistics.median(rep["wall"] for rep in traced)
        / statistics.median(rep["wall"] for rep in plain))
    last = traced[-1]
    print(layer_table(last["snap"], last.get("table_wall", last["wall"]),
                      f"{bench.workload}, last traced repetition"))
    return result


# -- campaign-fig7 ---------------------------------------------------------


def read_journal(path):
    records = []
    with open(path) as handle:
        for line in handle:
            try:
                records.append(json.loads(line))
            except ValueError:
                pass  # a torn tail is not a result
    return records


def campaign_rep(bench, cache_dir, traced):
    """One fig7 campaign into a fresh results dir, then its report."""
    out = bench.fresh_dir("campaign-")
    results = os.path.join(out, "results")
    spawned = time.monotonic()
    command = ["campaign", "run", "fig7", "--scale", str(SCALE),
               "--benchmarks", ",".join(BENCHMARKS), "--jobs", "1",
               "--results-dir", results]
    code, rss, _ = bench.run(bench.launcher(command, out, traced),
                             cache_dir, out)
    times = load_json(os.path.join(out, "times.json"))
    journal = os.path.join(results, "fig7", "journal.jsonl")
    records = read_journal(journal) if os.path.exists(journal) else []
    finished = [r for r in records if r.get("type") == "cell.finish"]
    expected = FIG7_CELLS_PER_BENCHMARK * len(BENCHMARKS)
    for index in range(expected):
        bench.op(index < len(finished),
                 f"campaign cell {index} not finished (exit {code})")

    report_out = bench.fresh_dir("report-")
    report_cmd = ["campaign", "report", "fig7", "--results-dir", results]
    report_code, _, report = bench.run(
        bench.launcher(report_cmd, report_out, traced), cache_dir,
        report_out)
    bench.op(report_code == 0
             and report == golden_bytes("campaign_fig7_report.txt"),
             f"campaign report != golden (exit {report_code})")
    if code != 0 or times is None:
        bench.problems.append(f"campaign exited {code}: {read_text(out)}")
        return None
    wall = times["end"] - times["ready"]
    rep = {
        "setup": times["ready"] - spawned,
        "wall": wall,
        "cpu": times["cpu_s"],
        "rss": rss,
        "ops": [r["seconds"] for r in finished],
    }
    if traced:
        rep["snap"] = merge_spans(span_files(out) + span_files(report_out))
        report_times = load_json(os.path.join(report_out, "times.json"))
        rep["extra"] = {
            "campaign.cells": len(finished),
            "campaign.overhead_s": wall - sum(rep["ops"]),
            "campaign.journal_bytes": os.path.getsize(journal),
            "campaign.retries": sum(
                1 for r in records if r.get("type") == "cell.fail"),
        }
        if report_times is not None:
            # The report process is part of the repetition's layer table.
            rep["table_wall"] = (
                wall + report_times["end"] - report_times["ready"])
    return rep


def run_campaign(bench):
    cache = os.path.join(bench.work, "cache")
    bench.prepare(cache, fill=True)
    plain, traced = repeat(
        bench, lambda use_trace: campaign_rep(bench, cache, use_trace))
    if bench.traced:
        return traced_result(bench, plain, traced)
    print_measured(bench, campaign_metrics(plain))
    return campaign_metrics([at_reference_speed(rep) for rep in plain])


def campaign_metrics(plain):
    cells = [seconds for rep in plain for seconds in rep["ops"]]
    result = process_metrics(plain)
    result.update({
        "req_per_s": len(cells) / sum(rep["wall"] for rep in plain),
        "latency_p50_ms": 1000 * percentile(cells, 50),
        "latency_p95_ms": 1000 * percentile(cells, 95),
    })
    return result


# -- serve-mix -------------------------------------------------------------


def serve_requests(seed):
    """Endless seeded request stream: ``(endpoint, body bytes)``.

    Every block holds each distinct request of :data:`SERVE_POOL` its
    fixed number of times, in seeded order, so the mix (and with it the
    latency distribution) is the same for every seed.
    """
    rng = random.Random(seed)
    block = [(endpoint, request_body(endpoint, benchmark, preset))
             for endpoint, (presets, repeats) in SERVE_POOL.items()
             for benchmark in BENCHMARKS
             for preset in presets
             for _ in range(repeats)]
    while True:
        rng.shuffle(block)
        yield from block


def request_body(endpoint, benchmark, preset):
    if endpoint == "compile":
        body = {"benchmark": benchmark, "scale": SCALE, "config": preset}
    elif endpoint == "simulate":
        body = {"benchmark": benchmark, "scale": SCALE,
                "selection": preset}
    else:
        body = {"workload": benchmark, "scale": SCALE, "config": preset}
    return json.dumps(body, sort_keys=True).encode("utf-8")


def request_key(endpoint, body):
    return f"{endpoint} {body.decode('utf-8')}"


class Daemon:
    """One ``repro serve`` process and how to reach and stop it."""

    def __init__(self, bench, cache_dir, mode):
        self.bench = bench
        self.out = bench.fresh_dir(f"serve-{mode}-")
        # Default flags, as a user starts it: the daemon traces every
        # request into a fresh temp spool (under the work dir's TMPDIR).
        command = ["serve", "--port", "0", "--warm", ",".join(BENCHMARKS),
                   "--warm-scale", str(SCALE)]
        if mode == "untraced":
            command += ["--no-trace"]
        if mode == "layers":
            argv = bench.launcher(command, self.out, True)
        else:
            argv = ["-m", "repro"] + command
        self.spawned = time.monotonic()
        self.proc = bench.spawn(argv, cache_dir, self.out)
        self.port = None
        self.ready_s = None

    def wait_ready(self):
        """Block until ``/healthz`` answers 200; returns set-up seconds."""
        stdout = os.path.join(self.out, "stdout")
        deadline = self.spawned + READY_TIMEOUT
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"serve exited during set-up: "
                                 f"{read_text(self.out)}")
            if self.port is None:
                with open(stdout, "rb") as handle:
                    found = re.search(rb"listening on http://[^:]+:(\d+)",
                                      handle.read())
                if found:
                    self.port = int(found.group(1))
            if self.port is not None and self._healthy():
                self.ready_s = time.monotonic() - self.spawned
                return self.ready_s
            time.sleep(0.01)
        raise BenchError("serve did not become ready")

    def _healthy(self):
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=10)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            return response.status == 200
        except OSError:
            return False
        finally:
            conn.close()

    def cpu_seconds(self):
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) \
            / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def mark_timed_region(self):
        """Layer daemon: keep set-up spans apart from the timed region."""
        marker = os.path.join(self.out, "spans.json.setup")
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30
        while not os.path.exists(marker):
            if time.monotonic() > deadline:
                raise BenchError("layer daemon did not mark set-up")
            time.sleep(0.01)
        os.rename(marker, os.path.join(self.out, "setup-spans"))

    def stop(self):
        """SIGTERM with a bounded wait; returns drain seconds."""
        started = time.monotonic()
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=DRAIN_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            self.bench.problems.append(
                f"serve did not drain within {DRAIN_TIMEOUT}s")
        return time.monotonic() - started

    def access_log(self):
        records = []
        with open(os.path.join(self.out, "stderr"), "rb") as handle:
            for line in handle:
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict) \
                        and record.get("method") == "POST":
                    records.append(record)
        return records


def drive(bench, daemon, stream, seconds, golden):
    """Closed loop over one keep-alive connection for ``seconds``."""
    samples = []
    conn = http.client.HTTPConnection("127.0.0.1", daemon.port,
                                      timeout=60)
    cpu_start = daemon.cpu_seconds()
    started = time.monotonic()
    deadline = started + seconds
    try:
        while time.monotonic() < deadline or len(samples) < 10:
            if daemon.proc.poll() is not None:
                bench.op(False, "serve exited during the timed region")
                break
            endpoint, body = next(stream)
            key = request_key(endpoint, body)
            sent = time.perf_counter()
            try:
                conn.request("POST", f"/v1/{endpoint}", body=body,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                data = response.read()
                status = response.status
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                bench.op(False, f"{key}: {type(exc).__name__}: {exc}")
                samples.append((endpoint, time.perf_counter() - sent,
                                False))
                continue
            latency = time.perf_counter() - sent
            ok = status == 200 and digest(data) == golden.get(key)
            bench.op(ok, f"{key}: status {status}, digest mismatch"
                     if status == 200 else f"{key}: status {status}")
            samples.append((endpoint, latency, ok))
    finally:
        wall = time.monotonic() - started
        cpu = daemon.cpu_seconds() - cpu_start
        rss = daemon.peak_rss_mb()
        conn.close()  # before SIGTERM: an idle keep-alive blocks drain
    return {"samples": samples, "wall": wall, "cpu": cpu, "rss": rss}


def serve_stats(timed):
    done = [latency for _, latency, ok in timed["samples"] if ok]
    if not done:
        raise BenchError("no serve request succeeded")
    return {
        "wall_s": timed["wall"],
        "cpu_s": timed["cpu"] / len(done),
        "peak_rss_mb": timed["rss"],
        "req_per_s": len(done) / timed["wall"],
        "latency_p50_ms": 1000 * percentile(done, 50),
        "latency_p95_ms": 1000 * percentile(done, 95),
    }


def run_serve(bench):
    cache = os.path.join(bench.work, "cache")
    bench.prepare(cache, fill=True)
    golden = load_json(os.path.join(GOLDEN, "serve.json"))
    if golden is None:
        raise BenchError("missing perfbench/golden/serve.json")
    stream = serve_requests(bench.seed)
    if not bench.traced:
        setups = []
        for attempt in range(SERVE_SETUPS):
            speed = bench.speed()
            daemon = Daemon(bench, cache, "default")
            setups.append((daemon.wait_ready(), speed))
            if attempt < SERVE_SETUPS - 1:
                daemon.stop()
        timed = drive(bench, daemon, stream, bench.seconds, golden)
        daemon.stop()
        bench.speed()
        result = serve_stats(timed)
        result["setup_s"] = statistics.median(s for s, _ in setups)
        print_measured(bench, result)
        # Daemon set-up and CPU are CPU-bound: scale them.  Client
        # latency and req/s stay as measured: most of a request's time
        # is the client's delayed-ACK timer, which host speed does not
        # change.
        result["setup_s"] = statistics.median(s * k for s, k in setups)
        result["cpu_s"] *= PROBE_REF_S / statistics.median(bench.probes)
        return result

    share = bench.seconds / 3.0
    bench.speed()
    daemon = Daemon(bench, cache, "default")
    daemon.wait_ready()
    plain = drive(bench, daemon, stream, share, golden)
    drain = daemon.stop()
    log = daemon.access_log()
    layers = Daemon(bench, cache, "layers")
    layers.wait_ready()
    layers.mark_timed_region()
    traced = drive(bench, layers, stream, share, golden)
    layers.stop()
    untraced = Daemon(bench, cache, "untraced")
    untraced.wait_ready()
    untraced_timed = drive(bench, untraced, stream, share, golden)
    untraced.stop()

    snap = merge_spans(span_files(layers.out))
    setup_snap = merge_spans([os.path.join(layers.out, "setup-spans")])
    metrics = layer_metrics(snap, traced["wall"])
    server = [r["duration_ms"] for r in log if r.get("status") == 200]
    pairs = list(zip(plain["samples"], log))
    metrics.update({
        "serve.server_ms_p50": percentile(server, 50) if server else 0.0,
        "serve.transport_ms_p50": percentile(
            [1000 * latency - record["duration_ms"]
             for (_, latency, _), record in pairs], 50) if pairs else 0.0,
        "serve.coalesced": sum(1 for r in log if r.get("coalesced")),
        "serve.errors": sum(1 for r in log if r.get("status") != 200),
        "serve.drain_s": drain,
        "bench.probe_s": statistics.median(bench.probes),
        "obs.serve_traced_req_per_s": serve_stats(plain)["req_per_s"],
        "obs.serve_untraced_req_per_s":
            serve_stats(untraced_timed)["req_per_s"],
        "bench.trace_overhead": (serve_stats(plain)["req_per_s"]
                                 / serve_stats(traced)["req_per_s"]),
    })
    for endpoint in SERVE_POOL:
        durations = [r["duration_ms"] for r in log
                     if r.get("path") == f"/v1/{endpoint}"]
        metrics[f"serve.{endpoint}_ms_p50"] = (
            percentile(durations, 50) if durations else 0.0)
    print(layer_table(setup_snap, layers.ready_s,
                      "serve-mix daemon set-up (spawn to /healthz)"))
    print(layer_table(snap, traced["wall"], "serve-mix timed region"))
    return {name: metrics.get(name, 0.0) for name, _ in PER_LAYER}


# -- entry point -----------------------------------------------------------


def run_workload(bench):
    if bench.workload == "fig5-cold":
        return run_fig5(bench)
    if bench.workload == "serve-mix":
        return run_serve(bench)
    return run_campaign(bench)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGTERM unwinds through Bench.__exit__, which stops children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"perfbench: no program source under {ROOT}/src/repro; "
              f"run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        with Bench(args.workload, args.seed, args.seconds,
                   bool(args.trace)) as bench:
            values = run_workload(bench)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    units = dict(PER_LAYER if args.trace else END_TO_END)
    for problem in bench.problems:
        print(f"FAILED: {problem}")
    for name in units:
        print(f"{name:<32} {values[name]:>14.6g} {units[name]}")
    print(f"operations: {bench.attempted} attempted, "
          f"{bench.failed} failed")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
