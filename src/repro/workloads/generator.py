"""Benchmark program generation from region specifications.

A benchmark is one big outer loop over an input index; the body is a
sequence of *regions*, each a control-flow archetype from the paper's
Figure 3 (plus supporting compute/memory regions).  Every region reads
its per-iteration input word from its own memory segment, so branch
behaviour — and therefore which branches are hard to predict — is a
property of the generated input set, not of the code.

Region kinds
------------
``simple_hammock``
    if/else with ``side_insts`` straight-line instructions per side and
    no internal control flow (Figure 3a).  Alg-exact territory.
``nested_hammock``
    an if/else whose taken side contains another if/else (Figure 3b).
``freq_hammock``
    an if/else whose taken side has a *rare* branch to a long cold
    block before the common merge point (Figure 3c).  The cold path
    exceeds MAX_INSTR, so Alg-exact rejects the branch, but the common
    merge is reached with probability ≈ 1−rare on frequently executed
    paths — Alg-freq territory.
``short_hammock``
    a 2–3 instruction hammock with a hard-to-predict condition — the
    §3.4 always-predicate shape.
``ret_hammock``
    a call to a helper whose body is a hammock ending in *different*
    return instructions on each side — the §3.5 return-CFM shape (the
    branch has no IPOSDOM inside the helper).
``diverge_loop``
    a small do-while loop with a data-driven trip count — the §5
    diverge-loop shape (latch branch, exit at fall-through).
``long_loop``
    a larger/longer loop the §5.2 heuristics must *reject*.
``split``
    an if/else whose sides are so long (~110 instructions each) that
    reconvergence lies beyond any useful dynamic-predication scope —
    the §4 cost model and the MAX_INSTR bound both reject it.  These
    model the mispredictions DMP *cannot* cover (the reason gcc's
    carefully-selected diverge branches cover only 30% of its
    mispredictions, §7.2).
``compute``
    straight-line arithmetic (serial chain or parallel mix).
``memory``
    pointer-chasing loads over a private segment (mcf-style cache
    pressure) or strided streaming loads.
"""

from array import array
from dataclasses import dataclass, replace
from typing import Tuple

from repro.errors import WorkloadError
from repro.isa import ProgramBuilder
from repro.workloads.behaviors import BehaviorRNG

#: Register conventions inside generated programs.
REG_INDEX = 10        # outer loop index
REG_LIMIT = 11        # outer loop bound
REG_ARG = 20          # argument pointer for helper calls
_CHASE_REGS = (21, 60, 61, 62, 63)  # pointer-chase registers
_ACCUMULATORS = tuple(range(22, 60))

REGION_KINDS = frozenset(
    {
        "simple_hammock",
        "nested_hammock",
        "freq_hammock",
        "short_hammock",
        "split",
        "ret_hammock",
        "diverge_loop",
        "long_loop",
        "compute",
        "memory",
    }
)


@dataclass(frozen=True)
class Region:
    """One control-flow region of a benchmark.

    ``p`` is the primary branch-behaviour parameter (meaning depends on
    ``behavior``: Bernoulli bias for ``biased``, stay-probability for
    ``markov``, flip-noise for ``pattern``).  ``count`` replicates the
    region as distinct static code with independent input streams.
    """

    kind: str
    behavior: str = "biased"
    p: float = 0.5
    side_insts: int = 6
    rare_prob: float = 0.03
    cold_insts: int = 70
    body_insts: int = 6
    mean_iters: float = 4.0
    trip_kind: str = "geometric"
    loads: int = 1
    region_words: int = 4096
    count: int = 1
    #: For loop regions: probability the loop runs at all in a given
    #: iteration (a zero trip word skips it).  < 1.0 emits a gate branch.
    gate_prob: float = 1.0

    def __post_init__(self):
        if self.kind not in REGION_KINDS:
            raise WorkloadError(f"unknown region kind {self.kind!r}")
        if self.count < 1:
            raise WorkloadError("region count must be >= 1")


@dataclass(frozen=True)
class BenchmarkSpec:
    """A named benchmark: regions + outer iteration count.

    ``target_dynamic`` is the intended dynamic trace length; the suite
    loader scales ``iterations`` to hit it from the pinned per-iteration
    cost in ``suite.CALIBRATION_COUNTS`` (regions have very different
    per-iteration costs).
    """

    name: str
    regions: Tuple[Region, ...]
    iterations: int = 3000
    target_dynamic: int = 60_000
    note: str = ""

    def with_iterations(self, iterations):
        return replace(self, iterations=max(16, int(iterations)))


@dataclass
class _Segment:
    """Memory segment assigned to one region replica."""

    region: Region
    replica: int
    base: int
    words: int


class _Emitter:
    """Builds the program and records the memory layout."""

    def __init__(self, spec):
        self.spec = spec
        self.builder = ProgramBuilder(spec.name)
        self.segments = []
        self._next_base = 0
        self._acc_cursor = 0
        self._helper_bodies = []
        self._chase_regs = []

    # -- resources --------------------------------------------------------

    def _alloc_segment(self, region, replica, words):
        segment = _Segment(region, replica, self._next_base, words)
        self.segments.append(segment)
        # Pad segments to distinct cache-line-aligned areas.
        self._next_base += words + (16 - words % 16) % 16 + 64
        return segment

    def _acc(self):
        reg = _ACCUMULATORS[self._acc_cursor % len(_ACCUMULATORS)]
        self._acc_cursor += 1
        return reg

    def _label(self, hint):
        return self.builder.fresh_label(hint)

    # -- top level -----------------------------------------------------------

    def emit(self):
        spec = self.spec
        b = self.builder
        b.begin_function("main")
        b.movi(REG_INDEX, 0)
        b.movi(REG_LIMIT, spec.iterations)
        # Pointer-chase registers start at index 0 of their segments.
        chase_count = sum(
            r.count for r in spec.regions if r.kind == "memory"
        )
        for i in range(min(chase_count, len(_CHASE_REGS))):
            b.movi(_CHASE_REGS[i], 0)
        loop_top = self._label("outer")
        finish = self._label("finish")
        b.label(loop_top)
        b.cmpge(2, REG_INDEX, REG_LIMIT)
        b.bnez(2, finish)
        for region in spec.regions:
            for replica in range(region.count):
                self._emit_region(region, replica)
        b.addi(REG_INDEX, REG_INDEX, 1)
        b.jmp(loop_top)
        b.label(finish)
        b.halt()
        b.end_function()
        for emit_helper in self._helper_bodies:
            emit_helper()
        return b.build(), self.segments

    # -- region dispatch -------------------------------------------------------

    def _emit_region(self, region, replica):
        emitters = {
            "simple_hammock": self._emit_simple_hammock,
            "nested_hammock": self._emit_nested_hammock,
            "freq_hammock": self._emit_freq_hammock,
            "short_hammock": self._emit_short_hammock,
            "split": self._emit_split,
            "ret_hammock": self._emit_ret_hammock,
            "diverge_loop": self._emit_loop,
            "long_loop": self._emit_loop,
            "compute": self._emit_compute,
            "memory": self._emit_memory,
        }
        emitters[region.kind](region, replica)

    def _load_input_word(self, segment, dest=3):
        """dest <- segment.base[index]; uses r2 as scratch."""
        b = self.builder
        b.movi(2, segment.base)
        b.add(2, 2, REG_INDEX)
        b.ld(dest, 2, 0)

    def _side(self, n, acc, op_cycle=0):
        """n straight-line instructions accumulating into ``acc``."""
        b = self.builder
        for i in range(n):
            if i % 4 == 3:
                b.xor(acc, acc, imm=(i + op_cycle) * 7 + 1)
            else:
                b.addi(acc, acc, i + 1)

    # -- hammocks ------------------------------------------------------------

    def _emit_simple_hammock(self, region, replica):
        b = self.builder
        segment = self._alloc_segment(region, replica, self.spec.iterations)
        acc_then, acc_else = self._acc(), self._acc()
        then_label = self._label("sh_then")
        merge_label = self._label("sh_merge")
        self._load_input_word(segment)
        b.bnez(3, then_label)
        self._side(region.side_insts, acc_else)
        b.jmp(merge_label)
        b.label(then_label)
        self._side(region.side_insts, acc_then, op_cycle=3)
        b.label(merge_label)
        # Post-CFM code is control- AND data-independent of the hammock
        # (the paper's premise): it must not read the side accumulators,
        # or select-µops would serialize it on branch resolution.
        b.addi(2, 2, 1)

    def _emit_short_hammock(self, region, replica):
        b = self.builder
        segment = self._alloc_segment(region, replica, self.spec.iterations)
        acc = self._acc()
        then_label = self._label("shs_then")
        merge_label = self._label("shs_merge")
        self._load_input_word(segment)
        b.bnez(3, then_label)
        b.addi(acc, acc, 1)
        b.jmp(merge_label)
        b.label(then_label)
        b.addi(acc, acc, 2)
        b.label(merge_label)
        b.xor(acc, acc, imm=5)

    def _emit_split(self, region, replica):
        # Long divergent sides: reconvergence is ~2×side_insts away,
        # far past the point where dynamic predication pays off.
        b = self.builder
        segment = self._alloc_segment(region, replica, self.spec.iterations)
        acc_a, acc_b = self._acc(), self._acc()
        then_l = self._label("sp_then")
        merge_l = self._label("sp_merge")
        self._load_input_word(segment)
        b.bnez(3, then_l)
        self._emit_ilp_block(region.side_insts, (acc_a, acc_b))
        b.jmp(merge_l)
        b.label(then_l)
        self._emit_ilp_block(region.side_insts, (acc_b, acc_a))
        b.label(merge_l)
        b.add(acc_a, acc_a, acc_b)

    def _emit_ilp_block(self, n, accs):
        """n straight-line instructions spread over ``accs`` (has ILP)."""
        b = self.builder
        for i in range(n):
            acc = accs[i % len(accs)]
            b.addi(acc, acc, i + 1)

    def _emit_nested_hammock(self, region, replica):
        b = self.builder
        segment = self._alloc_segment(region, replica, self.spec.iterations)
        acc1, acc2 = self._acc(), self._acc()
        side = max(2, region.side_insts // 2)
        then_l = self._label("nh_then")
        inner_then_l = self._label("nh_ithen")
        inner_merge_l = self._label("nh_imerge")
        merge_l = self._label("nh_merge")
        self._load_input_word(segment)
        b.and_(4, 3, imm=1)
        b.bnez(4, then_l)
        self._side(region.side_insts, acc1)
        b.jmp(merge_l)
        b.label(then_l)
        b.and_(5, 3, imm=2)
        b.bnez(5, inner_then_l)
        self._side(side, acc2)
        b.jmp(inner_merge_l)
        b.label(inner_then_l)
        self._side(side, acc2, op_cycle=5)
        b.label(inner_merge_l)
        b.addi(acc2, acc2, 9)
        b.label(merge_l)
        b.addi(2, 2, 1)

    def _emit_freq_hammock(self, region, replica):
        b = self.builder
        segment = self._alloc_segment(region, replica, self.spec.iterations)
        acc, cold_acc = self._acc(), self._acc()
        then_l = self._label("fh_then")
        merge_l = self._label("fh_merge")
        self._load_input_word(segment)
        b.and_(4, 3, imm=1)
        b.bnez(4, then_l)
        self._side(region.side_insts, acc)
        b.jmp(merge_l)
        b.label(then_l)
        self._side(region.side_insts, acc, op_cycle=7)
        b.and_(5, 3, imm=2)
        b.beqz(5, merge_l)
        # The rare cold path: long enough that any path through it
        # exceeds MAX_INSTR, so Alg-exact rejects this hammock.
        self._side(region.cold_insts, cold_acc)
        b.label(merge_l)
        b.addi(2, 2, 3)

    def _emit_ret_hammock(self, region, replica):
        b = self.builder
        segment = self._alloc_segment(region, replica, self.spec.iterations)
        helper_name = f"ret_helper_{replica}_{segment.base}"
        acc = self._acc()
        b.movi(REG_ARG, segment.base)
        b.add(REG_ARG, REG_ARG, REG_INDEX)
        b.call(helper_name)
        b.addi(acc, acc, 6)

        side = region.side_insts

        def emit_helper(name=helper_name, side=side):
            hb = self.builder
            hb.begin_function(name)
            then_l = self._label("rh_then")
            hb.ld(3, REG_ARG, 0)
            hb.bnez(3, then_l)
            self._side(side, 6)
            hb.ret()
            hb.label(then_l)
            self._side(side, 7, op_cycle=11)
            hb.ret()
            hb.end_function()

        self._helper_bodies.append(emit_helper)

    # -- loops ----------------------------------------------------------------

    def _emit_loop(self, region, replica):
        # The body spreads work over three accumulators, reset each
        # outer iteration: dependence chains stay iteration-local, as
        # in real code (a program-length serial chain would make every
        # pipeline flush bubble the global critical path).
        b = self.builder
        segment = self._alloc_segment(region, replica, self.spec.iterations)
        accs = [self._acc() for _ in range(3)]
        top_l = self._label("loop_top")
        self._load_input_word(segment, dest=8)
        if region.gate_prob < 1.0:
            # Gated shape: the skip side runs a straight pad longer than
            # MAX_INSTR before reconverging, so the gate branch has no
            # reachable merge point within the compiler's analysis
            # bounds and never becomes a diverge-branch candidate — it
            # exists purely to modulate the loop's profile weight.
            skip_l = self._label("loop_skip")
            after_l = self._label("loop_after")
            b.beqz(8, skip_l)
            for acc in accs:
                b.movi(acc, replica)
            b.label(top_l)
            for i in range(region.body_insts):
                b.addi(accs[i % len(accs)], accs[i % len(accs)], i + 1)
            b.addi(8, 8, -1)
            b.bnez(8, top_l)
            b.jmp(after_l)
            b.label(skip_l)
            self._emit_ilp_block(56, (accs[0], accs[1]))
            b.label(after_l)
        else:
            for acc in accs:
                b.movi(acc, replica)
            b.label(top_l)
            for i in range(region.body_insts):
                b.addi(accs[i % len(accs)], accs[i % len(accs)], i + 1)
            b.addi(8, 8, -1)
            b.bnez(8, top_l)
        b.add(accs[0], accs[0], accs[1])

    # -- compute / memory -------------------------------------------------------

    def _emit_compute(self, region, replica):
        # Spread work over several accumulators so compute regions have
        # ILP, and re-seed them every iteration so dependence chains
        # stay iteration-local (real integer code is not one serial
        # chain spanning the whole program).
        b = self.builder
        accs = [self._acc() for _ in range(6)]
        for k, acc in enumerate(accs):
            b.movi(acc, replica * 3 + k)
        for i in range(region.body_insts):
            acc = accs[i % len(accs)]
            if i % 7 == 6:
                b.xor(acc, acc, imm=i * 11 + 3)
            else:
                b.addi(acc, acc, i + 1)

    def _emit_memory(self, region, replica):
        b = self.builder
        segment = self._alloc_segment(
            region, replica, region.region_words
        )
        chase_reg = _CHASE_REGS[len(self._chase_regs) % len(_CHASE_REGS)]
        self._chase_regs.append(chase_reg)
        acc = self._acc()
        for _ in range(region.loads):
            b.movi(4, segment.base)
            b.add(4, 4, chase_reg)
            b.ld(chase_reg, 4, 0)
        b.add(acc, acc, chase_reg)


def build_program(spec):
    """Build ``spec``; returns ``(program, segments)``.

    ``segments`` describe the memory layout: which words each region
    replica reads.  :func:`fill_memory` populates them for an input
    set.
    """
    return _Emitter(spec).emit()


def fill_memory(spec, segments, seed, p_shift=0.0, iter_scale=1.0):
    """Generate the input memory image for one input set.

    The image is one ``array('q')`` sized to the segment layout (the
    padding reads zero).  ``p_shift`` perturbs branch biases and
    ``iter_scale`` scales loop trip counts — this is how the "train"
    input set differs from the "reduced" one (§7.3).
    """
    rng = BehaviorRNG(seed)
    size = max((s.base + s.words for s in segments), default=0)
    memory = array("q", [0]) * size
    n = spec.iterations
    for segment in segments:
        region = segment.region
        kind = region.kind
        if kind in ("simple_hammock", "short_hammock", "ret_hammock",
                    "split"):
            words = _behavior_bits(rng, region, n, p_shift)
        elif kind == "nested_hammock":
            outer = _behavior_bits(rng, region, n, p_shift)
            inner = rng.biased(n, min(0.95, region.p + 0.2))
            words = [o | (i << 1) for o, i in zip(outer, inner)]
        elif kind == "freq_hammock":
            outer = _behavior_bits(rng, region, n, p_shift)
            rare = rng.biased(n, region.rare_prob)
            words = [o | (r << 1) for o, r in zip(outer, rare)]
        elif kind in ("diverge_loop", "long_loop"):
            mean = max(1.0, region.mean_iters * iter_scale)
            if region.trip_kind == "geometric":
                words = rng.geometric_trips(n, mean)
            elif region.trip_kind == "jittery":
                words = rng.jittery_trips(n, mean)
            elif region.trip_kind == "uniform":
                lo = max(1, int(mean * 0.5))
                hi = max(lo + 1, int(mean * 1.5))
                words = rng.uniform_trips(n, lo, hi)
            else:
                words = rng.constant_trips(n, max(1, int(mean)))
            if region.gate_prob < 1.0:
                # Blocky gating: long on/off phases keep the gate branch
                # highly predictable (it exists to modulate the loop's
                # *profile weight*, not to add a hard branch).
                period = max(2, round(1.0 / region.gate_prob))
                block = 32
                words = [
                    t if (i // block) % period == 0 else 0
                    for i, t in enumerate(words)
                ]
        elif kind == "memory":
            words = rng.pointer_chain(segment.words, segment.words)
        elif kind == "compute":
            continue
        else:  # pragma: no cover - region kinds are closed
            raise WorkloadError(f"no input generator for {kind!r}")
        memory[segment.base:segment.base + len(words)] = array("q", words)
    return memory


def _behavior_bits(rng, region, n, p_shift):
    p = min(0.98, max(0.02, region.p + p_shift))
    if region.behavior == "biased":
        return rng.biased(n, p)
    if region.behavior == "markov":
        return rng.markov(n, p_same=p)
    if region.behavior == "pattern":
        return rng.pattern(n, noise=min(0.45, max(0.0, region.p + p_shift)))
    if region.behavior == "bursty":
        # ``p`` is the target misprediction rate; hard phases are fair
        # coins, so the hard fraction is twice that.
        return rng.bursty(n, hard_fraction=2.0 * p)
    raise WorkloadError(f"unknown behavior {region.behavior!r}")
