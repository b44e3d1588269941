"""The 17-benchmark suite and its input sets.

Each spec encodes the qualitative character the paper reports for the
real benchmark (Table 2 and the per-benchmark notes of §7):

- *eon, perlbmk, li* — most mispredicted branches sit in **simple
  hammocks** (that is why the simple baselines do well on them, §7.2);
- *vpr, mcf, twolf* — hot, hard **short hammocks** (§7.1's +12%/+14%/+4%
  from always-predication);
- *twolf, go* — hammocks merging at **returns** (+8%/+3.5% from return
  CFMs);
- *gzip, parser, compress* — hot unpredictable-exit **loops** (parser's
  dictionary-compare loop is the paper's running example);
- *gcc, go* — very branchy, high-MPKI codes with complex CFGs;
- *mcf* — memory-bound pointer chasing (baseline IPC 0.45);
- *vortex, gap, m88ksim, eon* — mostly predictable branches (MPKI ≈ 1).

Everything else is **frequently-hammocks** — the paper's dominant
source of benefit (Alg-freq contributes 10% of the 20.4%).

Input sets: ``reduced`` (profiling and runs by default) and ``train``
(different seed, branch biases shifted by 0.03 and loop trip counts
scaled by 1.25 — enough to move some selections, as in Figure 10,
without changing program character).
"""

import zlib
from dataclasses import dataclass, field
from typing import Dict

from repro.errors import WorkloadError
from repro.workloads.generator import (
    BenchmarkSpec,
    Region,
    build_program,
    fill_memory,
)

#: Input-set definitions: (seed offset, bias shift, trip-count scale).
INPUT_SETS = {
    "reduced": (0, 0.0, 1.0),
    "train": (7919, 0.03, 1.25),
}


@dataclass
class Workload:
    """A ready-to-run benchmark instance.

    The input memory image is generated on first read of
    :attr:`memory` and then kept: a run served from the artifact cache
    needs only the program, so it never pays for ``fill_memory``.
    """

    name: str
    input_set: str
    spec: BenchmarkSpec
    program: object
    segments: list
    max_instructions: int
    _memory: dict = field(default=None, init=False, repr=False,
                          compare=False)

    @property
    def memory(self):
        """The input set's memory image (built once, on first read)."""
        if self._memory is None:
            seed_offset, p_shift, iter_scale = INPUT_SETS[self.input_set]
            seed = zlib.crc32(self.name.encode()) + seed_offset
            self._memory = fill_memory(
                self.spec, self.segments, seed,
                p_shift=p_shift, iter_scale=iter_scale,
            )
        return self._memory


def _spec(name, regions, iterations, note=""):
    # ``iterations`` here is only the pre-calibration starting point;
    # load_benchmark rescales it to hit ``target_dynamic``.
    return BenchmarkSpec(
        name=name, regions=tuple(regions), iterations=iterations, note=note
    )


# Shorthand region constructors keep the table below readable.
def _freq(p=0.45, count=1, side=12, rare=0.08, cold=70,
          behavior="bursty"):
    # ``p`` under bursty behaviour is the target misprediction rate.
    return Region("freq_hammock", p=p, count=count, side_insts=side,
                  rare_prob=rare, cold_insts=cold, behavior=behavior)


def _simple(p=0.45, count=1, side=12, behavior="bursty"):
    return Region("simple_hammock", p=p, count=count, side_insts=side,
                  behavior=behavior)


def _nested(p=0.45, count=1, side=12, behavior="bursty"):
    return Region("nested_hammock", p=p, count=count, side_insts=side,
                  behavior=behavior)


def _short(p=0.08, count=1, behavior="biased"):
    # Rare-event condition: taken only ``p`` of the time, i.i.d.  The
    # predictor settles on not-taken, so mispredictions are isolated
    # (~1/p executions apart) and roughly half of them arrive at *high*
    # confidence — the JRS counter saturates between them.  Those are
    # the mispredictions only the §3.4 always-predicate heuristic can
    # cover.
    return Region("short_hammock", p=p, count=count, behavior=behavior)


def _split(p=0.45, count=1, side=110):
    return Region("split", p=p, count=count, side_insts=side,
                  behavior="bursty")


def _ret(p=0.45, count=1, side=5, behavior="bursty"):
    return Region("ret_hammock", p=p, count=count, side_insts=side,
                  behavior=behavior)


def _loop(mean=3.0, count=1, body=5, trip="geometric"):
    return Region("diverge_loop", mean_iters=mean, count=count,
                  body_insts=body, trip_kind=trip)


def _longloop(mean=18.0, count=1, body=3):
    # Rejected by both LOOP_ITER (mean > 15) and DYNAMIC_LOOP_SIZE
    # (mean × body size > 80) — heuristic-rejection exercise.  Constant
    # trip counts keep its latch predictable (a well-behaved for-loop).
    return Region("long_loop", mean_iters=mean, count=count,
                  body_insts=body, trip_kind="constant")




def _mid(p=0.07, count=1):
    # Mid-size, moderately-predictable hammock (~80-inst sides, ~7%
    # misprediction).  Below MAX_INSTR=50 it is never a candidate; at
    # MAX_INSTR ≥ 100 Alg-exact admits it, where predication is a net
    # loss (its cost sits at the §4 model's break-even, but its real
    # PVN is far below the assumed 40%).  These are why "too large
    # MAX_INSTR hurts" (paper §7.1.1).
    return Region("simple_hammock", p=p, count=count, side_insts=88,
                  behavior="bursty")

def _borderloop():
    # A selection-*boundary* loop: with the reduced input its average
    # dynamic size (3 trips × 26-inst body = 78) sits just under
    # DYNAMIC_LOOP_SIZE = 80, so it is selected; with the train input
    # (trip counts × 1.25 → 4) it crosses the threshold and is
    # rejected.  Constant trips keep its latch perfectly predictable,
    # so the flip changes the *selection set* (Figure 10) without
    # disturbing performance.  These model the paper's input-sensitive
    # selections (gap 26%, mcf/crafty/vortex/bzip2/ijpeg 10-18%).
    return Region("diverge_loop", mean_iters=3.3, body_insts=24,
                  trip_kind="constant", gate_prob=0.15)

def _compute(n=10, count=1):
    return Region("compute", body_insts=n, count=count)


def _memory(loads=1, words=65536, count=1):
    return Region("memory", loads=loads, region_words=words, count=count)


BENCHMARK_SPECS: Dict[str, BenchmarkSpec] = {
    # -- SPEC CPU2000 integer ------------------------------------------------
    "gzip": _spec("gzip", [
        _freq(p=0.18, count=2), _loop(mean=3.0, count=1, body=6, trip="jittery"),
        _simple(p=0.95, behavior="biased", count=2), _compute(80, count=3), _longloop(),
        _split(p=0.35), _mid(),
    ], 1700, "loop-heavy compressor; diverge loops pay off (+6%)"),
    "vpr": _spec("vpr", [
        _short(p=0.06, count=3), _freq(p=0.28, count=3),
        _simple(p=0.95, behavior="biased"), _compute(50, count=2),
        _memory(loads=1, words=16384), _split(p=0.40),
    ], 1800, "hot hard short hammocks (+12% from always-predication)"),
    "gcc": _spec("gcc", [
        _freq(p=0.25, count=3, rare=0.10), _freq(p=0.30, count=2, side=14),
        _nested(p=0.92, behavior="biased"), _short(), _ret(p=0.15),
        _split(p=0.45, count=3), _compute(70),
    ], 1100, "very branchy, complex CFGs, high MPKI"),
    "mcf": _spec("mcf", [
        _memory(loads=1, words=65536, count=2), _short(p=0.11, count=2),
        _freq(p=0.22), _compute(50, count=2), _split(p=0.50),
        _borderloop(),
    ], 1500, "memory-bound; one dominant mispredicted short hammock (+14%)"),
    "crafty": _spec("crafty", [
        _freq(p=0.17, count=2), _nested(p=0.15), _simple(p=0.95, behavior="biased", count=2),
        _compute(80, count=3), _loop(mean=3.5, trip="jittery"),
        _split(p=0.40), _borderloop(), _mid(),
    ], 1500, "mixed search code"),
    "parser": _spec("parser", [
        _loop(mean=3.0, count=3, body=5), _freq(p=0.18, count=2),
        _simple(p=0.95, behavior="biased"), _compute(70, count=3), _split(p=0.40),
    ], 1500, "dictionary word-compare loop: unpredictable exits (+14%)"),
    "eon": _spec("eon", [
        _simple(p=0.07, count=2, side=12), _simple(p=0.96, behavior="biased", count=2),
        _compute(40, count=2), _longloop(), _mid(),
    ], 1400, "mispredictions concentrated in simple hammocks"),
    "perlbmk": _spec("perlbmk", [
        _simple(p=0.16, count=2, side=12), _freq(p=0.20, count=2),
        _compute(40, count=2), _split(p=0.45),
    ], 1600, "simple-hammock dominated interpreter"),
    "gap": _spec("gap", [
        Region("simple_hammock", behavior="pattern", p=0.02, count=2),
        Region("freq_hammock", behavior="pattern", p=0.03, count=2),
        _simple(p=0.96, behavior="biased", count=2), _compute(40, count=2),
        _borderloop(),
    ], 1700, "mostly predictable; selection is input-sensitive"),
    "vortex": _spec("vortex", [
        _simple(p=0.97, behavior="biased", count=3), _nested(p=0.95, behavior="biased"), _compute(40, count=2),
        _ret(p=0.95, behavior="biased"), _borderloop(),
    ], 1700, "highly predictable OO database; IPC-bound"),
    "bzip2": _spec("bzip2", [
        _freq(p=0.24, count=2), _loop(mean=4.0, body=8),
        _simple(p=0.93, behavior="biased"), _compute(60, count=2),
        _memory(loads=1, words=32768), _split(p=0.45), _borderloop(), _mid(),
    ], 1500, "biased-but-noisy compressor branches"),
    "twolf": _spec("twolf", [
        _short(p=0.10, count=2), _ret(p=0.12, count=2),
        _freq(p=0.16, count=2), _compute(60, count=2), _split(p=0.45),
        _mid(),
    ], 1500, "short hammocks (+4%) and return-merged hammocks (+8%)"),
    # -- SPEC 95 integer ----------------------------------------------------
    "compress": _spec("compress", [
        _loop(mean=4.0, count=1, body=6, trip="jittery"), _freq(p=0.20),
        _simple(p=0.94, behavior="biased"), _compute(80, count=3),
    ], 1700, "small kernel with data-driven loops"),
    "go": _spec("go", [
        _freq(p=0.32, count=3, rare=0.08), _freq(p=0.35, count=2, side=12),
        _ret(p=0.20, count=2), _short(count=2),
        _split(p=0.45, count=4), _compute(50, count=2),
    ], 1100, "hardest branches in the suite (MPKI 23), return merges"),
    "ijpeg": _spec("ijpeg", [
        _compute(60, count=2), _freq(p=0.14, count=2),
        _longloop(mean=16), _simple(p=0.96, behavior="biased", count=2),
        _borderloop(), _mid(),
    ], 1500, "compute-heavy with a few hard hammocks"),
    "li": _spec("li", [
        _simple(p=0.12, count=3, side=11), _ret(p=0.94, behavior="biased"),
        _compute(60), _split(p=0.40),
    ], 1600, "lisp interpreter: simple hammocks everywhere"),
    "m88ksim": _spec("m88ksim", [
        _simple(p=0.96, behavior="biased", count=3), _freq(p=0.95, behavior="biased", count=2),
        _compute(50, count=2), _nested(p=0.05), _mid(),
    ], 1700, "mostly predictable simulator loop"),
}

BENCHMARK_NAMES = tuple(BENCHMARK_SPECS)

_CALIBRATION_ITERATIONS = 48

#: Dynamic instructions each benchmark's ``reduced`` input executes in
#: ``_CALIBRATION_ITERATIONS`` outer iterations.  The counts are
#: deterministic functions of the specs above; pinning them keeps the
#: calibration emulation off every load.  After editing a spec, the
#: generator or the emulator, re-measure with
#: :func:`measure_calibration_count` (the workload tests compare this
#: table against a fresh measurement and print the line to paste).
CALIBRATION_COUNTS: Dict[str, int] = {
    "gzip": 32272,
    "vpr": 15980,
    "gcc": 27092,
    "mcf": 16855,
    "crafty": 32404,
    "parser": 23127,
    "eon": 17136,
    "perlbmk": 13855,
    "gap": 12407,
    "vortex": 12127,
    "bzip2": 25312,
    "twolf": 20382,
    "compress": 16184,
    "go": 34487,
    "ijpeg": 22517,
    "li": 11917,
    "m88ksim": 16055,
}

_program_cache = {}


def measure_calibration_count(name):
    """Emulate ``name`` for the calibration run; its instruction count."""
    from repro.emulator import ArchState, Emulator

    spec = BENCHMARK_SPECS[name].with_iterations(_CALIBRATION_ITERATIONS)
    program, segments = build_program(spec)
    workload = Workload(name, "reduced", spec, program, segments,
                        max_instructions=2_000_000)
    result = Emulator(program).run(
        state=ArchState(memory=workload.memory),
        max_instructions=workload.max_instructions,
    )
    return result.instruction_count


def load_benchmark(name, input_set="reduced", scale=1.0):
    """Instantiate a benchmark with one of its input sets.

    ``scale`` multiplies the target dynamic length (run-length knob for
    quick tests vs full experiments).  The outer iteration count comes
    from the pinned calibration (:data:`CALIBRATION_COUNTS`) so every
    benchmark lands near its ``target_dynamic`` regardless of region
    mix.
    """
    if name not in BENCHMARK_SPECS:
        raise WorkloadError(f"unknown benchmark {name!r}")
    if input_set not in INPUT_SETS:
        raise WorkloadError(f"unknown input set {input_set!r}")
    base_spec = BENCHMARK_SPECS[name]
    per_iteration = max(
        8.0, CALIBRATION_COUNTS[name] / _CALIBRATION_ITERATIONS
    )
    iterations = int(base_spec.target_dynamic * scale / per_iteration)
    spec = base_spec.with_iterations(iterations)
    cache_key = (name, spec.iterations)
    if cache_key not in _program_cache:
        _program_cache[cache_key] = build_program(spec)
    program, segments = _program_cache[cache_key]
    return Workload(
        name=name,
        input_set=input_set,
        spec=spec,
        program=program,
        segments=segments,
        max_instructions=int(spec.target_dynamic * scale * 4) + 100_000,
    )
