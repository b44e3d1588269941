"""Golden guard: the benchmark's fig5 reproduction, byte for byte.

``python -m repro fig5 --scale 0.3 --jobs 1 --benchmarks
gzip,vpr,mcf,twolf`` must print exactly ``perfbench/golden/fig5.txt``
(the table the steady benchmark checks), so must the same command
with ``--jobs 2``, and turning telemetry on (``--trace``/``--manifest``)
must not change a single table row.  The golden file is only read
here.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GOLDEN = os.path.join(ROOT, "perfbench", "golden", "fig5.txt")
BENCHMARKS = ("gzip", "vpr", "mcf", "twolf")
COMMAND = ["fig5", "--scale", "0.3", "--jobs", "1",
           "--benchmarks", ",".join(BENCHMARKS)]


def _repro(args, cache_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    completed = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, cwd=ROOT, check=False,
    )
    assert completed.returncode == 0, completed.stderr.decode()
    return completed.stdout


def _rows(stdout):
    """The table's data rows: one per benchmark plus the MEAN row."""
    names = BENCHMARKS + ("MEAN",)
    return [line for line in stdout.decode().splitlines()
            if line.split()[:1] and line.split()[0] in names]


def test_fig5_matches_golden_and_telemetry_keeps_the_rows(tmp_path):
    with open(GOLDEN, "rb") as handle:
        golden = handle.read()
    cache_dir = tmp_path / "cache"
    plain = _repro(COMMAND, cache_dir)
    assert plain == golden

    manifest_path = tmp_path / "manifest.json"
    traced = _repro(COMMAND + [
        "--trace", str(tmp_path / "t.jsonl"),
        "--manifest", str(manifest_path),
    ], cache_dir)
    assert len(_rows(golden)) == len(BENCHMARKS) + 1
    assert _rows(traced) == _rows(golden)
    # Telemetry lines only follow the table, never interleave with it.
    assert traced.startswith(golden)
    with open(manifest_path, encoding="utf-8") as handle:
        assert "simulate" in json.load(handle)["phases"]


def test_fig5_two_jobs_matches_golden(tmp_path):
    with open(GOLDEN, "rb") as handle:
        golden = handle.read()
    command = list(COMMAND)
    command[command.index("--jobs") + 1] = "2"
    assert _repro(command, tmp_path / "cache") == golden
