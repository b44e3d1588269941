"""numpy batch replay: the timing simulator's trace replay.

:class:`VectorizedTimingSimulator` is the one replay of the timing
model; :func:`make_simulator` builds it.  It produces **bit-identical**
:class:`~repro.uarch.stats.SimStats` (and identical ledger counters and
trace events) to the scalar row-by-row replay it replaced, which the
tests keep as a frozen oracle (``tests/_legacy_simulator.py``; "the
scalar engine" below), while replaying the trace an order of magnitude
faster.  The key observation is that the branch machinery —
perceptron, JRS confidence, BTB, RAS — and the cache hierarchy evolve
purely from *trace-determined* inputs (pc, taken, next_pc, address),
never from timing state.  So the pre-passes run over the whole trace
first (one window at a time), and the replay then consumes the trace
in windows:

1. **D-cache pre-pass** — ``memory.data_latency`` is replayed over the
   loads/stores in trace order (the scalar engine calls it for every
   memory row unconditionally, and the instruction side never misses
   after the warm pass — see :func:`supports` — so the D-cache/L2
   access sequence is trace-order pure).  Load latencies are scattered
   into the trace's latency vector.
2. **Branch pre-pass** — predictor outcomes and confidence queries for
   the conditional branches.  For the perceptron, per-branch histories
   are materialized as one sliding-window matrix over ``initial history
   ⊕ outcomes`` and training happens in-place per branch; prediction
   and update share one dot product (the scalar path computes the same
   dot twice).
3. **Control pre-pass** — BTB bubbles and RAS return predictions for
   the control rows, emitted as compact cursor-indexed lists.
4. **Decode gather** — per window, static per-pc tables (kind, latency,
   sources, destination) are gathered for the window's rows in one
   numpy indexing operation.
5. **Lean replay** — a single python loop advances the front-end and
   dataflow clocks over plain python lists (one ``tolist`` per column).
   In-order retire is block-scanned: the scalar retire state is the
   closed-form slot ``p_e = max(p_{e-1} + 1, retire_width * c_e)`` of
   ROB entry ``e`` completing at ``c_e``, so one
   ``np.maximum.accumulate`` computes the free cycles ``p_e //
   retire_width`` of every entry appended so far, at least
   ``rob_size`` entries at a time.  Free cycles never decrease and
   neither does the fetch cycle, so the row loop keeps the index of
   the next entry that can stall fetch (advanced lazily by
   ``bisect_right``) and pays one integer compare per row.  Dpred
   episodes, flushes, and wrong-path walks fall back to the exact
   scalar semantics via the shared helpers on the base class — the
   bias table and wrong-path walker stay interleaved in the replay
   loop because the walker reads the bias table as of the
   (timing-dependent) episode entry row.

The pre-pass outputs of a simulator's first run depend on nothing but
the program, the trace and the config, so they are memoized (see
:data:`_PREPASS_MEMO`): the figure experiments simulate each trace once
per annotation, and every run after the first runs only steps 4–5.
The same memo entry keeps the *finished* runs of its trace, keyed by
the program tables the replay reads and the annotation: figure 5 adds
its heuristics cumulatively, and a step that adds no mark repeats the
previous step's run exactly, so a simulator whose first run repeats a
finished one returns a copy of its stats and folds in the metrics it
recorded, replaying nothing (see
:meth:`VectorizedTimingSimulator._run_memoized`).  A finished run
keeps its per-pc counters when its replay tracked them, so a ledger or
per-branch run is a hit too; only runs with a tracer always replay:
their events are not stored.  The memo is per process: a campaign
worker serves many cells, so its later cells of a trace hit the runs
its earlier cells stored.

With ``profiler=None`` the replay loop carries **no** per-row stopwatch
checks and reads no clock (same zero-overhead guarantee as the scalar
engine, pinned by ``tests/test_spans_profiler.py``).  With a profiler,
each batched kernel is charged to its component: memo key and lookup →
other, window setup/gathers → fetch, D-cache pre-pass → dcache,
branch/control pre-passes → branch_predict, replay loop → dataflow,
warm pass → icache, retire block scans, stall checks and the drain →
rob_retire, episode construction/walks → dpred_episode/wrong_path.
The stopwatch partition still sums exactly to the instrumented run;
event counts match the scalar engine except ``icache`` (the vectorized
engine proves the instruction side resident once instead of probing it
per fetch group) and the per-kernel (instead of per-row) fetch/dataflow
attribution.
"""

import hashlib
import weakref
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import replace
from time import perf_counter

import numpy as np

from repro.branchpred.confidence import COUNTER_MAX
from repro.branchpred.perceptron import (
    WEIGHT_MAX,
    WEIGHT_MIN,
    PerceptronPredictor,
)
from repro.core.marks import DivergeKind
from repro.emulator.trace import columns_digest
from repro.emulator.windows import trace_columns, window_bounds
from repro.errors import SimulationError
from repro.isa.registers import NUM_REGISTERS
from repro.memory.hierarchy import INSTRUCTIONS_PER_LINE
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.uarch.profiler import (
    BRANCH_PRED,
    DATAFLOW,
    DCACHE,
    DPRED_EPISODE,
    FETCH,
    ICACHE,
    NUM_COMPONENTS,
    OTHER,
    ROB_RETIRE,
    WRONG_PATH,
)
from repro.uarch.simulator import TimingSimulator
from repro.uarch.stats import SimStats
from repro.uarch.wrongpath import _walk_tables

#: Row classes in the static decode tables.  Memory rows collapse to
#: ``_PLAIN`` in the replay-kind table (their latency is precomputed),
#: so the replay loop only branches on control kinds and ``_CMOV``, a
#: replay-only kind for the one opcode with a third source (its old
#: destination; see :func:`_decode_tables`).
_PLAIN, _COND, _JMP, _CALL, _RET, _LOAD, _STORE, _CMOV = range(8)

#: Default replay window (rows).  Large enough to amortize the numpy
#: pre-passes, small enough that the gathered columns stay cache-warm.
DEFAULT_WINDOW = 1 << 15

#: Sentinel register indices: decode tables map "no destination" (NOP,
#: store, branch, or an architectural r0 write) to a scratch slot that
#: is written but never read, and "no source" to a null slot that is
#: read but never written (so it always reports ready-at-0).  This
#: keeps the replay loop branch-free on operand presence.
_SCRATCH_REG = NUM_REGISTERS
_NULL_REG = NUM_REGISTERS + 1

#: Static decode tables are pure functions of the program, shared
#: across simulator instances (constructing a simulator per run is the
#: common pattern in the experiment drivers).
_DECODE_CACHE = weakref.WeakKeyDictionary()

#: Pre-pass memo: (program digest, trace digest, config) -> _Prepasses,
#: least recently used first.  The D-cache, branch and control
#: pre-passes of a freshly built simulator depend only on the program's
#: kind and latency tables, the trace columns and the processor config,
#: so the figure experiments' many runs of one trace (a baseline plus
#: one run per annotation) compute them once.  Each entry also holds
#: the finished runs of its trace (``_Prepasses.runs``), keyed by the
#: digest of the other tables the replay and the wrong-path walker
#: read and by the annotation's marks; a hit on either refreshes the
#: entry.  Keys digest the column contents, so an entry cannot outlive
#: the data it was computed from; a sealed trace is hashed once, when
#: it is sealed, since its columns cannot change after.  Not
#: thread-safe, like the runner's LRUs (serve serializes computations).
_PREPASS_MEMO = OrderedDict()

#: Most entries the pre-pass memo holds.  An entry keeps eight bytes
#: per load row, three per conditional-branch row and nine per control
#: row: about 12 KB per trace at the perfbench scale (0.3), about four
#: times that at scale 1.0.
PREPASS_MEMO_ENTRIES = 64

#: Most finished runs one memo entry holds, least recently used dropped
#: first.  Figure 5 runs each trace under at most 11 distinct
#: annotations (the baseline and ten selection configs), a fig7
#: campaign at most 8 at the perfbench scale.  A run keeps its stats, a
#: metrics snapshot and, when tracked, its per-pc counters: 6-9 KB, so
#: a full memo holds at most ~9 MB of runs (fig5 on all 17 benchmarks:
#: ~2 MB).
RUN_MEMO_RUNS = 16


def clear_prepass_memo():
    """Drop every pre-pass memo entry and the runs it holds (the next
    run of a trace is cold)."""
    _PREPASS_MEMO.clear()


def clear_run_memo():
    """Drop the finished runs only: the next run of a trace takes its
    pre-passes from the memo and replays."""
    for entry in _PREPASS_MEMO.values():
        entry.runs.clear()


def _store_run(entry, run_key, done):
    """Keep ``done`` in a memo entry, most recently used, dropping the
    least recently used runs past :data:`RUN_MEMO_RUNS`.  ``done``
    takes the event counts and per-pc counters of a run it replaces
    when it lacks them: every run of one key is the same run."""
    stored = entry.runs.get(run_key)
    if stored is not None:
        if done.events is None:
            done.events = stored.events
        if done.per_branch is None:
            done.per_branch = stored.per_branch
    entry.runs[run_key] = done
    entry.runs.move_to_end(run_key)
    while len(entry.runs) > RUN_MEMO_RUNS:
        entry.runs.popitem(last=False)


def _decode_tables(program):
    """The static per-pc decode tables of ``program`` (cached).

    ``(kind, replay_kind, latency, src1, src2, dest, targets,
    replay_digest, digest)``; ``digest`` covers the kind and latency
    tables, everything of the program the pre-passes read, and
    ``replay_digest`` the rest of what a run reads: the replay-kind,
    source, destination and target tables and the wrong-path walker's
    kinds.  A third source is always the instruction's own old
    destination (CMOV), so instead of a third source table those rows
    get the replay kind ``_CMOV`` — unless the destination is r0, which
    is always ready at cycle 0.
    """
    try:
        cached = _DECODE_CACHE.get(program)
    except TypeError:         # unweakrefable program stand-in
        cached = None
    if cached is not None:
        return cached
    instructions = program.instructions
    n = len(instructions)
    kind = np.zeros(n, dtype=np.int64)
    lat = np.empty(n, dtype=np.int64)
    src1 = np.full(n, _NULL_REG, dtype=np.int64)
    src2 = np.full(n, _NULL_REG, dtype=np.int64)
    dest = np.full(n, _SCRATCH_REG, dtype=np.int64)
    targets = [-1] * n
    cmov = np.zeros(n, dtype=bool)
    for pc, inst in enumerate(instructions):
        if inst.is_conditional_branch:
            kind[pc] = _COND
        elif inst.is_call:
            kind[pc] = _CALL
        elif inst.is_return:
            kind[pc] = _RET
        elif inst.is_control:
            kind[pc] = _JMP
        elif inst.is_load:
            kind[pc] = _LOAD
        elif inst.is_store:
            kind[pc] = _STORE
        lat[pc] = inst.latency
        reads = inst.read_registers()
        if reads:
            src1[pc] = reads[0]
            if len(reads) > 1:
                src2[pc] = reads[1]
        written = inst.written_register()
        if written:   # None and r0 both mean "no dataflow dest"
            dest[pc] = written
            if len(reads) > 2:
                assert reads[2] == written, "third source must be dest"
                cmov[pc] = True
        if inst.target is not None:
            targets[pc] = inst.target
    digest = hashlib.sha256()
    digest.update(kind)
    digest.update(lat)
    replay_kind = np.where(kind >= _LOAD, _PLAIN, kind)
    replay_kind[cmov] = _CMOV
    replay_digest = hashlib.sha256()
    for table in (replay_kind, src1, src2, dest, targets,
                  _walk_tables(program)[0]):
        replay_digest.update(np.asarray(table, dtype=np.int64))
    cached = (kind, replay_kind, lat, src1, src2, dest, targets,
              replay_digest.digest(), digest.digest())
    try:
        _DECODE_CACHE[program] = cached
    except TypeError:
        pass
    return cached


def _memo_key(program_digest, trace, columns, config):
    """The pre-pass memo key: program tables, trace contents, config.

    A sealed :class:`~repro.emulator.trace.Trace` brings the digest of
    its columns; any other trace is hashed on every call.
    """
    digest = getattr(trace, "digest", None)
    if digest is None:
        digest = columns_digest(columns)
    return program_digest, digest, config


class _Prepasses:
    """Whole-trace outputs of the annotation-independent pre-passes.

    ``load_lat`` holds the D-cache latency of every load row, in trace
    order; ``cond_*`` the predicted/low-confidence/mispredicted flags of
    every conditional branch row; ``ctl_taken``/``ctl_extra`` the BTB
    and RAS outcome of every control row (see ``_control_prepass``).
    ``counters`` are the component counters the run exposes, as left
    by the pre-passes (see :meth:`VectorizedTimingSimulator.
    _component_counters`).  ``runs`` holds the finished runs of the
    trace, least recently used first: ``(replay digest, annotation
    key)`` -> :class:`_FinishedRun`.
    """

    __slots__ = ("load_lat", "cond_pred", "cond_low", "cond_mis",
                 "ctl_taken", "ctl_extra", "mispredictions",
                 "low_confidence", "low_confidence_mispredicted",
                 "mem_rows", "counters", "runs")


class _FinishedRun:
    """A run of a memoized trace: its stats (label aside), the metrics
    it recorded (a registry snapshot and the help texts of its
    instruments), its per-component event counts when it ran with a
    profiler and its per-pc counter lists (slots as in
    :data:`repro.obs.ledger.RUNTIME_COUNTERS`) when its replay tracked
    them."""

    __slots__ = ("stats", "metrics", "helps", "events", "per_branch")

    def __init__(self, stats, registry, timing, per_branch):
        self.stats = replace(stats, label="", per_branch={})
        self.metrics = registry.as_dict()
        self.helps = {name: registry.get(name).help
                      for name in self.metrics}
        self.events = None if timing is None else tuple(timing[1])
        self.per_branch = per_branch

    def serves(self, profiled, tracked):
        """Does this run hold what a run with(out) a profiler and
        per-pc tracking needs?"""
        return ((not profiled or self.events is not None)
                and (not tracked or self.per_branch is not None))

    def stats_for(self, label, collect_per_branch):
        per_branch = (_per_branch_stats(self.per_branch)
                      if collect_per_branch else {})
        return replace(self.stats, label=label, per_branch=per_branch)


def _per_branch_stats(per_branch):
    """:attr:`SimStats.per_branch` from per-pc counter lists."""
    return {
        pc: {
            "executions": c[0],
            "mispredictions": c[1],
            "episodes": c[2],
            "flushes_avoided": c[3],
            "flushes": c[4],
        }
        for pc, c in per_branch.items()
        if c[0]
    }


def _annotation_key(annotation):
    """The run-memo key of an annotation: its marks, ``None`` for none
    (an empty annotation simulates exactly the baseline)."""
    return tuple(annotation) if annotation else None


def supports(program, config):
    """Can the vectorized engine replay ``program`` bit-identically?

    Returns ``(ok, reason)``; a simulator for a program it rejects
    cannot be built (the replay models no I-cache misses).  The one
    structural precondition is that the static code stays I-cache
    resident after the warm pass both engines run: the scalar engine
    probes the I-cache once per fetch group, and skipping those probes
    (which is what makes batch replay fast) is only sound when every
    probe would hit — otherwise probe misses would stall fetch and
    interleave extra L2 accesses into the D-cache pre-pass's access
    sequence.  Program pcs occupy contiguous
    lines ``0 .. L-1``, so residency reduces to per-set occupancy
    ``ceil(L / num_sets) <= associativity``.
    """
    num_lines = (config.icache_kb * 1024) // 64
    num_sets = max(1, num_lines // config.icache_assoc)
    program_lines = -(-len(program.instructions) // INSTRUCTIONS_PER_LINE)
    if -(-program_lines // num_sets) > config.icache_assoc:
        return False, (
            f"program ({len(program.instructions)} instructions, "
            f"{program_lines} lines) exceeds I-cache residency "
            f"({num_sets} sets x {config.icache_assoc} ways)"
        )
    return True, ""


class VectorizedTimingSimulator(TimingSimulator):
    """:class:`TimingSimulator` with the batch-replay ``run``.

    Construction, configuration, and the dpred episode machinery come
    from the shared base (predictor, confidence, BTB, RAS, memory
    hierarchy, bias table, and wrong-path walker state), as they did
    for the scalar engine, so a given (program, config, annotation)
    triple runs through exactly the same model.  Raises
    :class:`~repro.errors.SimulationError` for a program that is not
    I-cache resident (see :func:`supports`).  ``window_size`` is the
    replay window in trace rows (tests sweep tiny windows to pin the
    window-boundary behaviour).
    """

    def __init__(self, program, config=None, annotation=None,
                 collect_per_branch=False, tracer=None, metrics=None,
                 ledger=None, profiler=None, window_size=None):
        super().__init__(
            program, config=config, annotation=annotation,
            collect_per_branch=collect_per_branch, tracer=tracer,
            metrics=metrics, ledger=ledger, profiler=profiler,
        )
        ok, reason = supports(program, self.config)
        if not ok:
            raise SimulationError(
                f"cannot simulate this program on this processor "
                f"configuration: {reason}"
            )
        self.window_size = (
            DEFAULT_WINDOW if window_size is None else int(window_size)
        )
        if self.window_size < 1:
            raise SimulationError(
                f"window_size must be >= 1, got {self.window_size}"
            )
        self._build_decode_tables()
        # The memo applies to a simulator's first run only: its
        # components start from the state every fresh simulator has.
        self._fresh = True
        # After a run-memo hit: the trace columns and memo key of the
        # run this simulator has still to go through (see
        # _settle_deferred).
        self._skipped = None
        # After a pre-pass memo hit: the trace columns whose pre-passes
        # the components still have to go through, and the counters to
        # go through them from.
        self._deferred = None

    # ------------------------------------------------------------------
    # Static decode tables
    # ------------------------------------------------------------------

    def _build_decode_tables(self):
        n = len(self.program.instructions)
        (self._kind_table, self._replay_kind_table, self._lat_table,
         self._src1_table, self._src2_table,
         self._dest_table, self._target_by_pc, self._replay_digest,
         self._program_digest) = _decode_tables(self.program)
        # Diverge marks by pc (same truthiness rule as the scalar row
        # loop: an empty annotation never yields a diverge branch).
        if self.annotation:
            diverge_by_pc = [None] * n
            for mark in self.annotation:
                diverge_by_pc[mark.branch_pc] = mark
            self._diverge_by_pc = diverge_by_pc
        else:
            self._diverge_by_pc = None

    # ------------------------------------------------------------------
    # Whole-trace pre-passes and their memo
    # ------------------------------------------------------------------

    def _warm_icache(self):
        """Warm the instruction side (identical to the scalar engine);
        returns the number of probes.  :func:`supports` guarantees every
        later probe would hit, which is why the replay loop skips them.
        """
        num_instructions = len(self.program.instructions)
        warm_step = max(1, self.memory.icache.words_per_line)
        for pc in range(0, num_instructions, warm_step):
            self.memory.instruction_latency(pc)
        return -(-num_instructions // warm_step)

    def _component_counters(self):
        """The pre-pass components' counters that a run exposes."""
        memory = self.memory
        conf = self.confidence
        btb = self.btb
        ras = self.ras
        return (memory.dcache.hits, memory.dcache.misses,
                memory.l2.hits, memory.l2.misses,
                conf.queries, conf.low_confidence_count,
                conf.low_confidence_mispredicted, conf._history,
                btb.hits, btb.misses,
                ras.predictions, ras.mispredictions, ras.overflows)

    def _set_component_counters(self, counters):
        memory = self.memory
        conf = self.confidence
        btb = self.btb
        ras = self.ras
        (memory.dcache.hits, memory.dcache.misses,
         memory.l2.hits, memory.l2.misses,
         conf.queries, conf.low_confidence_count,
         conf.low_confidence_mispredicted, conf._history,
         btb.hits, btb.misses,
         ras.predictions, ras.mispredictions, ras.overflows) = counters

    def _swap_metrics(self, registry):
        """Record into ``registry`` from now on; returns the registry
        this simulator recorded into before."""
        previous = self.metrics
        self._bind_metrics(registry)
        return previous

    def _settle_deferred(self):
        """Go through what a memo hit skipped, before the next run.

        A run-memo hit skipped the whole run: it is replayed here from
        the counters it started with, without tracer, profiler, ledger
        or per-branch collection and into a throwaway registry, so
        nothing it does is emitted or counted twice.  A pre-pass hit
        restores the counters but leaves the caches, predictor, BTB
        and RAS as they were.  Either way, a second run on this
        simulator starts from the state the first run leaves.
        """
        if self._skipped is not None:
            columns, key, counters = self._skipped
            self._skipped = None
            self._set_component_counters(counters)
            live = self._swap_metrics(MetricsRegistry())
            saved = (self.tracer, self.profiler, self.ledger,
                     self.collect_per_branch)
            self.tracer, self.profiler = NULL_TRACER, None
            self.ledger, self.collect_per_branch = None, False
            try:
                self._replay(columns, key, "", None)
            finally:
                self._swap_metrics(live)
                (self.tracer, self.profiler, self.ledger,
                 self.collect_per_branch) = saved
        if self._deferred is not None:
            columns, counters = self._deferred
            self._deferred = None
            self._set_component_counters(counters)
            self._compute_prepasses(*columns)

    def _prepasses(self, columns, key, charge=None):
        """The :class:`_Prepasses` of these trace columns.

        A simulator's first run passes its memo ``key`` and looks them
        up in the memo (a hit restores the component counters they
        leave); a miss, or any later run (``key`` None), computes them
        on the components.  ``charge`` is the run's stopwatch, ``None``
        when profiling is off.
        """
        if key is None:
            return self._compute_prepasses(*columns, charge)
        entry = _PREPASS_MEMO.get(key)
        if entry is None:
            entry = self._compute_prepasses(*columns, charge)
            _PREPASS_MEMO[key] = entry
            while len(_PREPASS_MEMO) > PREPASS_MEMO_ENTRIES:
                _PREPASS_MEMO.popitem(last=False)
        else:
            _PREPASS_MEMO.move_to_end(key)
            self._deferred = (columns, self._component_counters())
            self._set_component_counters(entry.counters)
        return entry

    def _compute_prepasses(self, pcs, next_pcs, addresses, charge=None):
        """Replay the D-cache, branch and control pre-passes over the
        whole trace, one window at a time, on this simulator's
        components."""
        kinds = self._kind_table[pcs]
        data_latency = self.memory.data_latency
        load_lat = []
        cond_pred = []
        cond_low = []
        cond_mis = []
        ctl_taken = []
        ctl_extra = []
        n_mis = n_low = n_low_mis = mem_count = 0
        for start, stop in window_bounds(pcs.shape[0], self.window_size):
            kinds_w = kinds[start:stop]
            pcs_w = pcs[start:stop]
            next_w = next_pcs[start:stop]
            # D-cache pre-pass (trace-order pure access sequence).
            mem_rows = np.nonzero(kinds_w >= _LOAD)[0]
            if mem_rows.size:
                mem_count += int(mem_rows.size)
                addr_list = addresses[start:stop][mem_rows].tolist()
                load_list = (kinds_w[mem_rows] == _LOAD).tolist()
                ap_lat = load_lat.append
                for address, is_load in zip(addr_list, load_list):
                    latency = data_latency(address)
                    if is_load:
                        ap_lat(latency)
            if charge is not None:
                charge(DCACHE)
            # Branch-predictor / confidence pre-pass.
            cond_rows = np.nonzero(kinds_w == _COND)[0]
            window_mis = ()
            if cond_rows.size:
                (pred, low, window_mis, w_mis, w_low,
                 w_low_mis) = self._branch_prepass(
                    pcs_w[cond_rows],
                    next_w[cond_rows] != pcs_w[cond_rows] + 1,
                )
                cond_pred += pred
                cond_low += low
                cond_mis += window_mis
                n_mis += w_mis
                n_low += w_low
                n_low_mis += w_low_mis
            # BTB / RAS pre-pass.
            taken, extra = self._control_prepass(kinds_w, pcs_w, next_w,
                                                 window_mis)
            ctl_taken += taken
            ctl_extra += extra
            if charge is not None:
                charge(BRANCH_PRED)
        entry = _Prepasses()
        entry.load_lat = np.array(load_lat, dtype=np.int64)
        entry.cond_pred = np.array(cond_pred, dtype=bool)
        entry.cond_low = np.array(cond_low, dtype=bool)
        entry.cond_mis = np.array(cond_mis, dtype=bool)
        entry.ctl_taken = np.array(ctl_taken, dtype=bool)
        entry.ctl_extra = np.array(ctl_extra, dtype=np.int64)
        entry.mispredictions = n_mis
        entry.low_confidence = n_low
        entry.low_confidence_mispredicted = n_low_mis
        entry.mem_rows = mem_count
        entry.counters = self._component_counters()
        entry.runs = OrderedDict()
        return entry

    # ------------------------------------------------------------------
    # Per-window pre-pass kernels
    # ------------------------------------------------------------------

    def _branch_prepass(self, cond_pcs, cond_taken):
        """Replay predictor + confidence over a window's cond branches.

        Returns ``(predicted, low_conf, mispredicted)`` python lists
        plus the window's (mispredictions, low-confidence, low-and-mis)
        counts.  Predictor and confidence state advance exactly as the
        scalar per-branch ``predict``/``update`` calls would.
        """
        m = cond_pcs.shape[0]
        pcs_list = cond_pcs.tolist()
        taken_list = cond_taken.tolist()
        pred_l = []
        low_l = []
        mis_l = []
        ap_pred = pred_l.append
        ap_low = low_l.append
        ap_mis = mis_l.append
        predictor = self.predictor
        conf = self.confidence
        counters = conf._counters
        centries = conf.num_entries
        cthreshold = conf.threshold
        chist = conf._history
        chist_mask = conf._history_mask
        cidx_mask = centries - 1
        n_mis = 0
        n_low = 0
        n_low_mis = 0
        if isinstance(predictor, PerceptronPredictor):
            h = predictor.history_bits
            # Chronological outcome stream: initial history (oldest
            # first) followed by this window's outcomes; branch j's
            # most-recent-first history is a reversed length-h slice
            # ending just before outcome j.
            outcomes = cond_taken.astype(np.int32) * 2 - 1
            chron = np.concatenate((predictor._history[::-1], outcomes))
            windows = np.lib.stride_tricks.sliding_window_view(
                chron[::-1], h
            )
            hist_rows = windows[np.arange(m, 0, -1)]
            weights = predictor._weights
            num_perceptrons = predictor.num_perceptrons
            pthreshold = predictor.threshold
            for j in range(m):
                pc = pcs_list[j]
                taken = taken_list[j]
                row = weights[pc % num_perceptrons]
                history = hist_rows[j]
                output = int(row[0]) + int(row[1:] @ history)
                pred = output >= 0
                mis = pred != taken
                if mis or (output if pred else -output) <= pthreshold:
                    # minimum+maximum ufuncs with out= do what np.clip
                    # does without its (much slower) dispatch wrapper.
                    weight_tail = row[1:]
                    if taken:
                        bias_weight = int(row[0]) + 1
                        row[0] = (bias_weight if bias_weight <= WEIGHT_MAX
                                  else WEIGHT_MAX)
                        np.add(weight_tail, history, out=weight_tail)
                        np.minimum(weight_tail, WEIGHT_MAX,
                                   out=weight_tail)
                        np.maximum(weight_tail, WEIGHT_MIN,
                                   out=weight_tail)
                    else:
                        bias_weight = int(row[0]) - 1
                        row[0] = (bias_weight if bias_weight >= WEIGHT_MIN
                                  else WEIGHT_MIN)
                        np.subtract(weight_tail, history, out=weight_tail)
                        np.maximum(weight_tail, WEIGHT_MIN,
                                   out=weight_tail)
                        np.minimum(weight_tail, WEIGHT_MAX,
                                   out=weight_tail)
                index = (pc ^ (chist & cidx_mask)) % centries
                low = counters[index] < cthreshold
                if low:
                    n_low += 1
                    if mis:
                        n_low_mis += 1
                if mis:
                    n_mis += 1
                    counters[index] = 0
                    chist = ((chist << 1) | 1) & chist_mask
                else:
                    bumped = counters[index] + 1
                    if bumped <= COUNTER_MAX:
                        counters[index] = bumped
                    chist = (chist << 1) & chist_mask
                ap_pred(pred)
                ap_low(low)
                ap_mis(mis)
            predictor._history = chron[len(chron) - h:][::-1].copy()
        else:
            predict = predictor.predict
            update = predictor.update
            for j in range(m):
                pc = pcs_list[j]
                taken = taken_list[j]
                pred = predict(pc)
                mis = pred != taken
                update(pc, taken)
                index = (pc ^ (chist & cidx_mask)) % centries
                low = counters[index] < cthreshold
                if low:
                    n_low += 1
                    if mis:
                        n_low_mis += 1
                if mis:
                    n_mis += 1
                    counters[index] = 0
                    chist = ((chist << 1) | 1) & chist_mask
                else:
                    bumped = counters[index] + 1
                    if bumped <= COUNTER_MAX:
                        counters[index] = bumped
                    chist = (chist << 1) & chist_mask
                ap_pred(pred)
                ap_low(low)
                ap_mis(mis)
        conf._history = chist
        conf.queries += m
        conf.low_confidence_count += n_low
        conf.low_confidence_mispredicted += n_low_mis
        return pred_l, low_l, mis_l, n_mis, n_low, n_low_mis

    def _control_prepass(self, kinds_w, pcs_w, next_w, cond_mis):
        """Replay BTB + RAS over a window's control rows.

        Returns ``(ctl_taken, ctl_extra)`` aligned with the window's
        control rows in trace order: for cond/jmp/call rows ``extra``
        is the BTB bubble to charge (0 when none), for ret rows it is
        the RAS-correct flag.  ``cond_mis`` is the branch pre-pass's
        misprediction list (cond rows are a subsequence of control
        rows, so a cond-ordinal cursor lines them up).
        """
        ctrl_rows = np.nonzero((kinds_w >= _COND) & (kinds_w <= _RET))[0]
        if not ctrl_rows.size:
            return [], []
        kinds = kinds_w[ctrl_rows].tolist()
        pcs = pcs_w[ctrl_rows].tolist()
        nexts = next_w[ctrl_rows].tolist()
        btb = self.btb
        tags = btb._tags
        btb_targets = btb._targets
        num_entries = btb.num_entries
        bubble = btb.miss_bubble_cycles
        push = self.ras.push
        pop_predict = self.ras.pop_predict
        taken_l = []
        extra_l = []
        ap_taken = taken_l.append
        ap_extra = extra_l.append
        hits = 0
        misses = 0
        cond_cursor = 0
        for k, pc, nxt in zip(kinds, pcs, nexts):
            taken = nxt != pc + 1
            ap_taken(taken)
            if k == _COND:
                mis = cond_mis[cond_cursor]
                cond_cursor += 1
                if not taken or mis:
                    ap_extra(0)
                    continue
            elif k == _RET:
                ap_extra(1 if pop_predict(nxt) else 0)
                continue
            elif k == _CALL:
                push(pc + 1)
            # Taken control: the BTB lookup, and an insert on a miss.
            index = pc % num_entries
            if tags[index] == pc:
                hits += 1
                if btb_targets[index] == nxt:
                    ap_extra(0)
                    continue
            else:
                misses += 1
            tags[index] = pc
            btb_targets[index] = nxt
            ap_extra(bubble)
        btb.hits += hits
        btb.misses += misses
        return taken_l, extra_l

    # ------------------------------------------------------------------
    # Batch replay
    # ------------------------------------------------------------------

    def run(self, trace, label=""):
        """Simulate ``trace`` and return :class:`SimStats`.

        A simulator's first run goes through the run memo (see
        :meth:`_run_memoized`) unless a tracer wants the events only a
        replay emits.
        """
        if not trace:
            raise SimulationError("empty trace")
        profiler = self.profiler
        started = perf_counter() if profiler is not None else None
        # Columnar view of the trace (zero-copy for compact traces).
        columns = trace_columns(trace)
        key = None
        if self._fresh:
            self._fresh = False
            key = _memo_key(self._program_digest, trace, columns,
                            self.config)
            if not self.tracer.enabled:
                return self._run_memoized(columns, key, label, started)
        stats, timing, _ = self._replay(columns, key, label, started)
        if timing is not None:
            profiler.record_run(label, *timing, stats,
                                metrics=self.metrics)
        return stats

    def _run_memoized(self, columns, key, label, started):
        """A first run through the run memo.

        A hit — a finished run of the same trace, config, program
        tables and annotation — returns a copy of the stored stats,
        leaves the component counters as its replay left them and
        folds the stored metrics snapshot into this simulator's
        registry, replaying nothing until a second run needs the state
        it leaves (see :meth:`_settle_deferred`).  With a ledger, a hit
        records a copy of the stored per-pc counters into it; with
        per-branch collection, it rebuilds ``stats.per_branch`` from
        them; a stored run without them counts as a miss.  With a
        profiler, a hit charges its own seconds to ``other`` and
        reports the stored event counts; a stored run without them
        counts as a miss.  A miss replays into a private registry and
        stores the run, and folds the same snapshot in, so a hit leaves
        every counter, gauge and histogram as the replay would.
        ``started`` is the run's start on the profiler's clock.
        """
        profiler = self.profiler
        ledger = self.ledger
        run_key = (self._replay_digest, _annotation_key(self.annotation))
        entry = _PREPASS_MEMO.get(key)
        done = None if entry is None else entry.runs.get(run_key)
        hit = done is not None and done.serves(
            profiler is not None,
            ledger is not None or self.collect_per_branch)
        if hit:
            _PREPASS_MEMO.move_to_end(key)
            entry.runs.move_to_end(run_key)
            self._skipped = (columns, key, self._component_counters())
            self._set_component_counters(entry.counters)
            stats = done.stats_for(label, self.collect_per_branch)
            if ledger is not None:
                ledger.record_run(
                    label,
                    {pc: list(c) for pc, c in done.per_branch.items()},
                    stats)
        else:
            live = self._swap_metrics(MetricsRegistry())
            try:
                stats, timing, per_branch = self._replay(
                    columns, key, label, started)
            finally:
                private = self._swap_metrics(live)
            done = _FinishedRun(stats, private, timing, per_branch)
            entry = _PREPASS_MEMO.get(key)     # the replay's pre-passes
            if entry is not None:
                _store_run(entry, run_key, done)
        self.metrics.merge_snapshot(done.metrics, done.helps)
        if profiler is not None:
            if hit:
                seconds = [0.0] * NUM_COMPONENTS
                seconds[OTHER] = perf_counter() - started
                timing = (seconds, list(done.events))
            profiler.record_run(label, *timing, stats,
                                metrics=self.metrics)
        return stats

    def _replay(self, columns, key, label, started):
        """Replay the trace ``columns``: ``(stats, timing, per_branch)``.

        ``key`` is the memo key of a first run (see :meth:`_prepasses`);
        ``timing`` is ``(seconds, events)`` per component, stopwatched
        from ``started``, with a profiler and ``None`` without one;
        ``per_branch`` the per-pc counter lists with a ledger or
        per-branch collection and ``None`` without either.
        """
        cfg = self.config
        stats = SimStats(label=label)
        pcs_np, next_np, addr_np = columns
        n = pcs_np.shape[0]
        tracer = self.tracer
        traced = tracer.enabled
        if traced:
            from repro.obs import events as obs_events

            tracer.emit(obs_events.SimRunStart(
                label=label,
                trace_length=n,
                dmp_enabled=self.annotation is not None,
            ))
        hist_episode_cycles = self._hist_episode_cycles

        # Same stopwatch-partition contract as the scalar engine, but
        # charged per batched kernel instead of per row — the replay
        # loop itself carries no per-row charge sites (its residual
        # bills to dataflow at the window boundary), so profiler=None
        # stays allocation- and check-free on the hot path.
        profiling = self.profiler is not None
        if profiling:
            comp_sec = [0.0] * NUM_COMPONENTS
            comp_events = [0] * NUM_COMPONENTS
            mark = started

            def charge(index):
                nonlocal mark
                now = perf_counter()
                comp_sec[index] += now - mark
                mark = now
        else:
            charge = None

        self._settle_deferred()
        if profiling:
            charge(OTHER)

        icache_probes = self._warm_icache()
        if profiling:
            charge(ICACHE)
            comp_events[ICACHE] += icache_probes

        # D-cache, branch and control pre-passes over the whole trace
        # (memoized per trace and config), as flat lists the replay
        # walks with cursors.
        prepass = self._prepasses(columns, key, charge)
        lat_np = self._lat_table[pcs_np]
        if prepass.load_lat.size:
            lat_np[self._kind_table[pcs_np] == _LOAD] = \
                prepass.load_lat
        cond_pred = prepass.cond_pred.tolist()
        cond_low = prepass.cond_low.tolist()
        cond_mis = prepass.cond_mis.tolist()
        ctl_taken = prepass.ctl_taken.tolist()
        ctl_extra = prepass.ctl_extra.tolist()
        stats.conditional_branches = len(cond_pred)
        stats.mispredictions = prepass.mispredictions
        stats.low_confidence_branches = prepass.low_confidence
        stats.low_confidence_mispredicted = \
            prepass.low_confidence_mispredicted
        if profiling:
            charge(BRANCH_PRED)
            comp_events[DCACHE] += prepass.mem_rows
            comp_events[BRANCH_PRED] += len(ctl_taken)
        cond_cursor = 0
        ctl_cursor = 0

        # Hoisted configuration and machinery.
        fetch_width = cfg.fetch_width
        half_width = max(1, fetch_width // 2)
        frontend_depth = cfg.frontend_depth
        redirect = cfg.redirect_penalty
        retire_width = cfg.retire_width
        rob_size = cfg.rob_size
        max_cond = cfg.max_cond_branches_per_cycle
        max_wrong_path = cfg.dpred_max_wrong_path_insts
        diverge_by_pc = self._diverge_by_pc
        dmp = diverge_by_pc is not None
        bias_counters = self.bias._counters
        replay_kind_table = self._replay_kind_table
        src1_table = self._src1_table
        src2_table = self._src2_table
        dest_table = self._dest_table
        target_by_pc = self._target_by_pc

        # Front-end / dataflow state (carried across windows).
        cycle = 0
        slots_used = 0
        cond_used = 0
        complete = 0
        # Two extra slots for the decode-table sentinels: _NULL_REG is
        # never written (always ready at 0), _SCRATCH_REG never read.
        reg_ready = [0] * (NUM_REGISTERS + 2)
        episode = None

        # ROB, block-scanned.  Entries are numbered in append order;
        # entry e completes at c_e and retires in slot p_e = max(p_{e-1}
        # + 1, retire_width * c_e), i.e. in cycle p_e // retire_width
        # (the scalar engine's (last_retire_cycle, retired_in_cycle)
        # state is p = retire_width * last_retire_cycle +
        # retired_in_cycle - 1).  A row fetched with rob_len entries
        # appended first retires entries up to rob_len - rob_size, and
        # stalls until that entry's free cycle if it is later than
        # ``cycle``.  Free cycles never decrease with e, and ``cycle``
        # never goes back, so the row loop compares against one bound:
        # ``stall_len`` is rob_size plus the first entry not known to be
        # free by ``cycle`` (or not yet scanned).  A scan computes the
        # slots of every entry appended so far, at least rob_size of
        # them, with one cumulative maximum.
        rob = []                 # completion cycles not yet scanned
        rob_append = rob.append
        rob_extend = rob.extend
        rob_len = 0              # entries appended so far
        scanned = 0              # entries whose free cycle is known
        free = []                # free cycles of entries free_base..
        free_base = 0
        stall_len = rob_size
        p = -1                   # retire slot of entry scanned - 1

        ledger = self.ledger
        per_branch = (
            {} if (self.collect_per_branch or ledger is not None)
            else None
        )
        track = per_branch is not None

        def branch_counters(pc):
            counters = per_branch.get(pc)
            if counters is None:
                # Slot order matches repro.obs.ledger.RUNTIME_COUNTERS
                # (same comment as the scalar engine).
                counters = [0] * 11
                per_branch[pc] = counters
            return counters

        def end_episode_unmerged(reason="resolved-unmerged"):
            nonlocal episode, cycle
            ep = episode
            episode = None
            if ep.resolve > cycle:
                cycle = ep.resolve
            duration = ep.resolve - ep.start_cycle
            if duration < 0:
                duration = 0
            hist_episode_cycles.observe(duration)
            if track:
                counters = branch_counters(ep.branch_pc)
                counters[6] += 1
                counters[10] += duration
            if traced:
                tracer.emit(obs_events.DpredEpisodeEnd(
                    branch_pc=ep.branch_pc,
                    cycle=cycle,
                    duration_cycles=duration,
                    reason=reason,
                ))
            if ep.kind == "loop":
                resolve = ep.resolve
                for reg in ep.select_registers:
                    if resolve > reg_ready[reg]:
                        reg_ready[reg] = resolve

        def charge_fetch_slots(count):
            nonlocal cycle, slots_used
            slots_used += count
            while slots_used >= fetch_width:
                cycle += 1
                slots_used -= fetch_width

        def end_episode_merged(merge_cycle):
            nonlocal episode, cycle, rob_len
            ep = episode
            episode = None
            if merge_cycle > cycle:
                cycle = merge_cycle
            stats.dpred_episodes_merged += 1
            duration = merge_cycle - ep.start_cycle
            if duration < 0:
                duration = 0
            hist_episode_cycles.observe(duration)
            if track:
                counters = branch_counters(ep.branch_pc)
                counters[5] += 1
                counters[9] += ep.num_selects
                counters[10] += duration
            if traced:
                tracer.emit(obs_events.DpredEpisodeMerge(
                    branch_pc=ep.branch_pc,
                    cycle=cycle,
                    duration_cycles=duration,
                    select_uops=ep.num_selects,
                ))
            stats.dpred_select_uops += ep.num_selects
            if ep.num_selects:
                rob_extend([ep.resolve] * ep.num_selects)
                rob_len += ep.num_selects
                charge_fetch_slots(ep.num_selects)
            resolve = ep.resolve
            for reg in ep.select_registers:
                if resolve > reg_ready[reg]:
                    reg_ready[reg] = resolve

        for window_start, window_stop in window_bounds(
            n, self.window_size
        ):
            pcs_w = pcs_np[window_start:window_stop]
            kinds_l = replay_kind_table[pcs_w].tolist()
            pcs_l = pcs_w.tolist()
            lat_l = lat_np[window_start:window_stop].tolist()
            src1_l = src1_table[pcs_w].tolist()
            src2_l = src2_table[pcs_w].tolist()
            dest_l = dest_table[pcs_w].tolist()
            if profiling:
                charge(FETCH)

            # ---- lean replay over the window ------------------------
            for k, pc, lat, src1, src2, dest in zip(
                kinds_l, pcs_l, lat_l, src1_l, src2_l, dest_l
            ):
                # ---- episode bookkeeping at the fetch boundary ------
                if episode is not None:
                    if profiling:
                        charge(DATAFLOW)
                    if cycle >= episode.resolve:
                        end_episode_unmerged()
                    elif episode.kind == "hammock" \
                            and not episode.true_merged:
                        if pc in episode.cfm_pcs or (
                            episode.return_cfm and k == _RET
                        ):
                            episode.true_merged = True
                            if episode.false_merged and \
                                    episode.false_done_cycle \
                                    <= episode.resolve:
                                end_episode_merged(
                                    episode.false_done_cycle)
                            else:
                                end_episode_unmerged("true-path-waits")
                    if profiling:
                        charge(DPRED_EPISODE)

                # ---- ROB slot ---------------------------------------
                if rob_len >= stall_len:
                    if profiling:
                        charge(DATAFLOW)
                    oldest = rob_len - rob_size    # retires to free a slot
                    if oldest >= scanned:
                        completes = np.array(rob, dtype=np.int64)
                        rob.clear()
                        offsets = np.arange(completes.shape[0])
                        slots = np.maximum.accumulate(
                            completes * retire_width - offsets)
                        np.maximum(slots, p + 1, out=slots)
                        slots += offsets
                        p = int(slots[-1])
                        # Entries before ``oldest`` are never looked
                        # up again.
                        free = (slots[oldest - scanned:]
                                // retire_width).tolist()
                        free_base = oldest
                        scanned = rob_len
                    index = oldest - free_base
                    if free[index] > cycle:
                        cycle = free[index]
                        slots_used = 0
                        cond_used = 0
                    stall_len = rob_size + free_base + bisect_right(
                        free, cycle, index + 1)
                    if profiling:
                        charge(ROB_RETIRE)

                # ---- fetch slot -------------------------------------
                if slots_used >= fetch_width or (
                    k == _COND and cond_used >= max_cond
                ) or (
                    episode is not None and slots_used >= half_width
                    and episode.half_width
                    and cycle < episode.false_done_cycle
                ):
                    cycle += 1
                    slots_used = 0
                    cond_used = 0
                fetch_cycle = cycle
                slots_used += 1

                # ---- dataflow timing --------------------------------
                start = fetch_cycle + frontend_depth
                ready = reg_ready[src1]
                if ready > start:
                    start = ready
                ready = reg_ready[src2]
                if ready > start:
                    start = ready
                complete = start + lat
                rob_append(complete)
                rob_len += 1

                # ---- control flow -----------------------------------
                # The destination is written after this block (no
                # control path reads it), so a CMOV still sees its old
                # value here: its third source.
                if k:
                    if k == _CMOV:
                        ready = reg_ready[dest] + lat
                        if ready > complete:
                            complete = ready
                            rob[-1] = complete
                        reg_ready[dest] = complete
                        continue
                    taken = ctl_taken[ctl_cursor]
                    extra = ctl_extra[ctl_cursor]
                    ctl_cursor += 1
                    if k == _COND:
                        cond_used += 1
                        predicted = cond_pred[cond_cursor]
                        low_conf = cond_low[cond_cursor]
                        mispredicted = cond_mis[cond_cursor]
                        cond_cursor += 1
                        if track:
                            counters = branch_counters(pc)
                            counters[0] += 1
                            if mispredicted:
                                counters[1] += 1
                        resolve = complete
                        if dmp:
                            bias_count = bias_counters.get(pc, 2)
                            if taken:
                                if bias_count < 3:
                                    bias_counters[pc] = bias_count + 1
                                else:
                                    bias_counters[pc] = bias_count
                            elif bias_count > 0:
                                bias_counters[pc] = bias_count - 1
                            else:
                                bias_counters[pc] = bias_count
                            diverge = diverge_by_pc[pc]
                        else:
                            diverge = None
                        entered = False
                        if diverge is not None:
                            expected_remaining = 1.0
                            if diverge.kind is DivergeKind.LOOP:
                                expected_remaining = \
                                    self._observe_loop_outcome(
                                        pc,
                                        taken == diverge.loop_direction,
                                    )
                            if episode is None and (
                                diverge.always_predicate or low_conf
                            ):
                                if profiling:
                                    charge(DATAFLOW)
                                if diverge.kind is DivergeKind.LOOP:
                                    entered = self._enter_loop_episode(
                                        stats, diverge, predicted, taken,
                                        fetch_cycle, resolve,
                                        expected_remaining,
                                        counters=(
                                            branch_counters(pc)
                                            if track else None
                                        ),
                                    )
                                    if entered:
                                        episode = self._loop_episode
                                else:
                                    episode = self._make_hammock_episode(
                                        stats, diverge, taken,
                                        target_by_pc[pc],
                                        fetch_cycle, resolve,
                                        mispredicted,
                                        charge=charge,
                                    )
                                    entered = True
                            if entered:
                                ep = episode
                                if track:
                                    counters = branch_counters(pc)
                                    counters[2] += 1
                                    counters[8] += ep.false_insts
                                    if ep.kind == "loop":
                                        counters[9] += ep.num_selects
                                if ep.mispredicted:
                                    stats.dpred_flushes_avoided += 1
                                    if track:
                                        counters[3] += 1
                                stats.dpred_wrong_path_insts += \
                                    ep.false_insts
                                if ep.false_insts:
                                    rob_extend(
                                        [ep.resolve] * ep.false_insts)
                                    rob_len += ep.false_insts
                                if ep.kind == "loop" and ep.num_selects:
                                    charge_fetch_slots(ep.num_selects)
                                    stats.dpred_select_uops += \
                                        ep.num_selects
                                    rob_extend(
                                        [ep.resolve] * ep.num_selects)
                                    rob_len += ep.num_selects
                                if profiling:
                                    charge(DPRED_EPISODE)
                                    comp_events[DPRED_EPISODE] += 1
                                    comp_events[WRONG_PATH] += \
                                        ep.false_insts
                        if not entered:
                            if mispredicted and episode is not None \
                                    and episode.kind == "loop" \
                                    and episode.branch_pc == pc \
                                    and diverge is not None \
                                    and predicted \
                                    == diverge.loop_direction:
                                if profiling:
                                    charge(DATAFLOW)
                                stats.dpred_flushes_avoided += 1
                                if resolve > episode.resolve:
                                    episode.resolve = resolve
                                episode.half_width = True
                                extra_insts = \
                                    max(1, diverge.loop_body_size) * 2
                                if extra_insts > max_wrong_path:
                                    extra_insts = max_wrong_path
                                if track:
                                    counters = branch_counters(pc)
                                    counters[3] += 1
                                    counters[8] += extra_insts
                                if traced:
                                    tracer.emit(
                                        obs_events.DpredEpisodeExtend(
                                            branch_pc=pc, cycle=cycle,
                                            extra_insts=extra_insts,
                                        ))
                                episode.false_insts += extra_insts
                                stats.dpred_wrong_path_insts += \
                                    extra_insts
                                rob_extend([resolve] * extra_insts)
                                rob_len += extra_insts
                                done = fetch_cycle + max(
                                    1, -(-extra_insts // half_width)
                                )
                                if done > episode.false_done_cycle:
                                    episode.false_done_cycle = done
                                if profiling:
                                    charge(DPRED_EPISODE)
                                    comp_events[DPRED_EPISODE] += 1
                                    comp_events[WRONG_PATH] += \
                                        extra_insts
                            elif mispredicted:
                                if profiling:
                                    charge(DATAFLOW)
                                if episode is not None:
                                    duration = \
                                        cycle - episode.start_cycle
                                    if duration < 0:
                                        duration = 0
                                    hist_episode_cycles.observe(
                                        duration)
                                    if track:
                                        counters = branch_counters(
                                            episode.branch_pc)
                                        counters[7] += 1
                                        counters[10] += duration
                                    if traced:
                                        tracer.emit(
                                            obs_events.DpredEpisodeFlush(
                                                branch_pc=(
                                                    episode.branch_pc),
                                                cycle=cycle,
                                                duration_cycles=duration,
                                                flushed_by_pc=pc,
                                                source=(
                                                    "branch-mispredict"),
                                            ))
                                    episode = None
                                stats.pipeline_flushes += 1
                                if traced:
                                    tracer.emit(obs_events.PipelineFlush(
                                        pc=pc, cycle=cycle,
                                        source="branch-mispredict",
                                    ))
                                if track:
                                    branch_counters(pc)[4] += 1
                                redirected = resolve + redirect
                                if redirected > cycle:
                                    cycle = redirected
                                slots_used = 0
                                cond_used = 0
                                if profiling:
                                    charge(BRANCH_PRED)
                        # extra is nonzero only for taken,
                        # correctly-predicted cond rows (the pre-pass
                        # encodes the scalar taken/!mispredicted gate).
                        if extra:
                            cycle += extra
                            slots_used = 0
                            cond_used = 0
                    elif k == _RET:
                        if not extra:        # RAS mispredicted
                            if profiling:
                                charge(DATAFLOW)
                            stats.pipeline_flushes += 1
                            if track:
                                branch_counters(pc)[4] += 1
                            if traced:
                                tracer.emit(obs_events.PipelineFlush(
                                    pc=pc, cycle=cycle,
                                    source="return-mispredict",
                                ))
                            if episode is not None:
                                duration = cycle - episode.start_cycle
                                if duration < 0:
                                    duration = 0
                                hist_episode_cycles.observe(duration)
                                if track:
                                    counters = branch_counters(
                                        episode.branch_pc)
                                    counters[7] += 1
                                    counters[10] += duration
                                if traced:
                                    tracer.emit(
                                        obs_events.DpredEpisodeFlush(
                                            branch_pc=episode.branch_pc,
                                            cycle=cycle,
                                            duration_cycles=duration,
                                            flushed_by_pc=pc,
                                            source="return-mispredict",
                                        ))
                                episode = None
                            redirected = complete + redirect
                            if redirected > cycle:
                                cycle = redirected
                            slots_used = 0
                            cond_used = 0
                            if profiling:
                                charge(BRANCH_PRED)
                    elif extra:              # JMP / CALL BTB bubble
                        cycle += extra
                        slots_used = 0
                        cond_used = 0
                    # Taken control flow ends the fetch group.
                    if taken:
                        slots_used = fetch_width + 1
                reg_ready[dest] = complete

            if profiling:
                charge(DATAFLOW)
                rows = window_stop - window_start
                comp_events[FETCH] += rows
                comp_events[DATAFLOW] += rows

        # ---- drain -----------------------------------------------------
        if rob:       # the block scan's closed form, last entry only
            completes = np.array(rob, dtype=np.int64)
            best = int((completes * retire_width
                        - np.arange(len(rob))).max())
            p = len(rob) - 1 + max(best, p + 1)
        last_retire_cycle = p // retire_width if p >= 0 else 0
        if profiling:
            charge(ROB_RETIRE)
            comp_events[ROB_RETIRE] = rob_len
        stats.retired_instructions = n
        if cycle < last_retire_cycle:
            cycle = last_retire_cycle
        if cycle < complete:     # the last trace row's completion
            cycle = complete
        stats.cycles = cycle
        stats.dcache_misses = self.memory.dcache.misses
        stats.l2_misses = self.memory.l2.misses
        if self.collect_per_branch:
            stats.per_branch = _per_branch_stats(per_branch)
        if ledger is not None:
            ledger.record_run(label, per_branch, stats)
        self._record_run_metrics(stats)
        if traced:
            tracer.emit(obs_events.SimRunEnd(
                label=label,
                cycles=stats.cycles,
                retired_instructions=stats.retired_instructions,
                pipeline_flushes=stats.pipeline_flushes,
                dpred_episodes=stats.dpred_episodes,
                dpred_episodes_merged=stats.dpred_episodes_merged,
                mispredictions=stats.mispredictions,
                dpred_flushes_avoided=stats.dpred_flushes_avoided,
                dpred_wrong_path_insts=stats.dpred_wrong_path_insts,
                dpred_select_uops=stats.dpred_select_uops,
            ))
        if profiling:
            charge(OTHER)
            comp_events[OTHER] += 1
            return stats, (comp_sec, comp_events), per_branch
        return stats, None, per_branch


def make_simulator(program, config=None, annotation=None, **kwargs):
    """Build the timing simulator for ``program``: every caller's one
    constructor.

    ``kwargs`` are forwarded to :class:`VectorizedTimingSimulator`
    (``collect_per_branch``, ``tracer``, ``metrics``, ``ledger``,
    ``profiler``, ``window_size``).  Raises
    :class:`~repro.errors.SimulationError` with :func:`supports`'s
    reason when the program is not I-cache resident on ``config``.
    """
    return VectorizedTimingSimulator(program, config=config,
                                     annotation=annotation, **kwargs)


def simulate(program, trace, config=None, annotation=None, label=""):
    """One-call convenience: build a simulator and run ``trace``."""
    simulator = make_simulator(program, config=config,
                               annotation=annotation)
    return simulator.run(trace, label=label)
