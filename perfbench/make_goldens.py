"""Regenerate ``perfbench/golden/`` from the current program.

    python3 perfbench/make_goldens.py

Run from the root of a checkout, only when a change is meant to alter
outputs.  Besides writing the goldens it checks the invariants they
rest on, and refuses to write them if one fails:

- the fig7 campaign report's sensitivity grid equals the ``fig7``
  driver's table, cell for cell;
- every served ``compile`` and ``explain`` response is byte-identical
  to the matching CLI command's stdout;
- instruction counts (``emulator.insts``, ``uarch.sim_insts``) repeat
  exactly across two traced repetitions.

At scale 1.0 over all benchmarks the fig5 golden would be
``results/fig5.txt``; the benchmark uses :data:`run.SCALE` and
:data:`run.BENCHMARKS` so that a repetition takes seconds.
"""

import json
import os
import re
import sys

import run


def write(name, data):
    os.makedirs(run.GOLDEN, exist_ok=True)
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(os.path.join(run.GOLDEN, name), mode) as handle:
        handle.write(data)


def grid(text, row_pattern):
    """``{row label: [cells]}`` of a percent grid in ``text``."""
    rows = {}
    for line in text.splitlines():
        match = re.match(row_pattern, line)
        if match:
            rows[match.group(1)] = re.findall(r"[+-]\d+\.\d%", line)
    return rows


def cli(bench, cache, argv):
    out = bench.fresh_dir("cli-")
    code, _, stdout = bench.run(["-m", "repro"] + argv, cache, out)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} failed: {run.read_text(out)}")
    return stdout


def tables(bench, cache):
    names = ",".join(run.BENCHMARKS)
    common = ["--scale", str(run.SCALE), "--benchmarks", names,
              "--jobs", "1"]
    write("fig5.txt", cli(bench, cache, ["fig5"] + common))
    fig7 = cli(bench, cache, ["fig7"] + common).decode()
    results = os.path.join(bench.work, "campaign")
    cli(bench, cache, ["campaign", "run", "fig7", "--results-dir",
                       results] + common)
    report = cli(bench, cache, ["campaign", "report", "fig7",
                                "--results-dir", results]).decode()
    driver = grid(fig7, r"^(\d+)\s+[+-]")
    campaign = grid(report.split("Sensitivity")[1], r"^(\d+)\s+[+-]")
    if not driver or driver != campaign:
        raise SystemExit(f"campaign grid {campaign} != fig7 {driver}")
    write("fig7.txt", fig7)
    write("campaign_fig7_report.txt", report)


def serve_digests(bench, cache):
    daemon = run.Daemon(bench, cache, "default")
    daemon.wait_ready()
    digests = {}
    try:
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", daemon.port)
        for endpoint, (presets, _) in run.SERVE_POOL.items():
            for benchmark in run.BENCHMARKS:
                for preset in presets:
                    body = run.request_body(endpoint, benchmark, preset)
                    conn.request("POST", f"/v1/{endpoint}", body=body)
                    response = conn.getresponse()
                    data = response.read()
                    if response.status != 200:
                        raise SystemExit(f"{endpoint} {body}: "
                                         f"{response.status} {data}")
                    check_cli(bench, cache, endpoint, benchmark, preset,
                              data)
                    digests[run.request_key(endpoint, body)] = \
                        run.digest(data)
        conn.close()
    finally:
        daemon.stop()
    write("serve.json", json.dumps(digests, indent=2, sort_keys=True)
          + "\n")


def check_cli(bench, cache, endpoint, benchmark, preset, served):
    scale = ["--scale", str(run.SCALE)]
    if endpoint == "compile":
        expected = cli(bench, cache, ["compile", "--benchmark", benchmark,
                                      "--config", preset] + scale)
    elif endpoint == "explain":
        expected = cli(bench, cache, ["explain", benchmark, "--config",
                                      preset, "--json"] + scale)
    else:
        return  # simulate == a campaign cell; the test suite pins it
    if served != expected:
        raise SystemExit(f"served {endpoint} {benchmark}/{preset} "
                         f"differs from the CLI")


def counts(bench):
    keys = {
        "fig5-cold": ("emulator.execute_calls", "emulator.insts",
                      "uarch.sim_insts"),
        "campaign-fig7": ("emulator.execute_calls", "uarch.sim_insts"),
    }
    warm = os.path.join(bench.work, "warm-cache")
    bench.prepare(warm, fill=True)
    result = {}
    for workload, names in keys.items():
        seen = []
        for _ in range(2):
            if workload == "fig5-cold":
                rep = run.fig5_rep(bench, bench.fresh_dir("cold"), True)
            else:
                rep = run.campaign_rep(bench, warm, True)
            metrics = run.layer_metrics(rep["snap"], rep["wall"])
            seen.append({name: metrics[name] for name in names})
        if seen[0] != seen[1]:
            raise SystemExit(f"{workload} counts differ: {seen}")
        result[workload] = seen[0]
    write("counts.json", json.dumps(result, indent=2, sort_keys=True)
          + "\n")


def main():
    with run.Bench("goldens", 0, 0, True) as bench:
        cache = os.path.join(bench.work, "cache")
        bench.prepare(cache, fill=False)
        tables(bench, cache)
        serve_digests(bench, cache)
        counts(bench)
        if bench.failed:
            raise SystemExit(f"golden checks failed: {bench.problems}")
    print(f"goldens written to {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
