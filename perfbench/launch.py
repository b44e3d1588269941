"""Program-process launcher for the benchmark.

Runs one ``python -m repro`` command in this process and reports when
its timed region started and ended::

    python3 perfbench/launch.py --times T.json [--spans S.json] -- fig5 ...
    python3 perfbench/launch.py --fill gzip,twolf --scale 0.3

Everything before the ``ready`` timestamp — interpreter start and the
``repro`` imports — is what a user pays before any work starts (the
benchmark's ``setup_s``; a traced run also installs its wrappers
there).  ``--times`` receives ``ready``/``end``
(``time.monotonic``, comparable across processes on one host), the CPU
the process and its reaped children used between them, and the
duration of each experiment-engine job (one per figure benchmark row:
the figure's operations).

``--spans`` installs the layer wrappers of :mod:`layers` before the
command runs and writes the process's spans there when it returns
(forked campaign cells write their own files next to it).

``--fill`` builds the artifacts of the named benchmarks through the
runner, so a later run finds a warm artifact cache.
"""

import json
import os
import resource
import signal
import sys
import time


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


def _fill(benchmarks, scale):
    from repro.experiments.runner import get_artifacts

    for name in benchmarks.split(","):
        get_artifacts(name, scale=scale)
    return 0


def _timed(command, times_path, spans_path):
    import repro.__main__ as cli
    from repro.exec import engine

    recorder = None
    if spans_path:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import layers

        recorder = layers.install(spans_path)

        def mark_setup(signum, frame):
            # The serve benchmark signals the end of daemon set-up:
            # set-up spans go to their own file, the timed region
            # starts from empty records.
            recorder.dump(f"{spans_path}.setup")
            recorder.reset()

        signal.signal(signal.SIGUSR1, mark_setup)
    ready = time.monotonic()
    cpu_ready = _cpu_seconds()

    jobs = []
    job_run = engine.Job.run

    def timed_job_run(job):
        started = time.monotonic()
        result = job_run(job)
        jobs.append([job.label, time.monotonic() - started])
        return result

    engine.Job.run = timed_job_run
    try:
        status = cli.main(command)
    finally:
        end = time.monotonic()
        cpu = _cpu_seconds() - cpu_ready
        engine.Job.run = job_run
        if recorder is not None:
            recorder.dump(spans_path)
        with open(times_path, "w") as handle:
            json.dump({"ready": ready, "end": end, "cpu_s": cpu,
                       "jobs": jobs}, handle)
    return status or 0


def main(argv):
    if argv[:1] == ["--fill"] and len(argv) == 4 and argv[2] == "--scale":
        return _fill(argv[1], float(argv[3]))
    if "--" not in argv:
        print("usage: launch.py --times T.json [--spans S.json] -- "
              "<repro args> | --fill B1,B2 --scale S", file=sys.stderr)
        return 2
    split = argv.index("--")
    options, command = argv[:split], argv[split + 1:]
    flags = dict(zip(options[::2], options[1::2]))
    return _timed(command, flags["--times"], flags.get("--spans"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
