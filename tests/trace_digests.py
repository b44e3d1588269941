"""Digests of every benchmark's emulated trace, for the golden pins.

Prints one line per benchmark and input set: the name, the input set,
the instruction count and the hex :attr:`~repro.emulator.trace.Trace.
digest` of the sealed trace columns.  Every trace is emulated afresh
(the persistent artifact cache is disabled), so the lines pin what the
workload generator and the emulator produce.

    python -m tests.trace_digests 0.1 > tests/golden/trace_digests_0.1.txt

``tests/test_trace_digests.py`` compares scale 0.1 with its golden file
in the unit suite; CI compares scale 1.0.
"""

import sys

from repro.exec import artifact_cache
from repro.experiments import runner
from repro.workloads.suite import BENCHMARK_NAMES, INPUT_SETS


def digest_lines(scale):
    """The golden file's lines for ``scale`` (freshly emulated)."""
    lines = []
    artifact_cache.set_disabled(True)
    try:
        for name in BENCHMARK_NAMES:
            for input_set in INPUT_SETS:
                runner.clear_cache()
                trace = runner.get_artifacts(name, input_set, scale).trace
                lines.append(f"{name} {input_set} {len(trace)} "
                             f"{trace.digest.hex()}")
    finally:
        artifact_cache.set_disabled(None)
        runner.clear_cache()
    return lines


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python -m tests.trace_digests SCALE", file=sys.stderr)
        return 2
    for line in digest_lines(float(args[0])):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
