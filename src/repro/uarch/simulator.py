"""Trace-driven cycle-level timing simulation (baseline and DMP).

The simulator replays the functional trace through a timing model of
the Table 1 machine:

- **Front end**: ``fetch_width`` instructions per cycle, fetch breaks
  on taken control flow, at most ``max_cond_branches_per_cycle``
  conditional branches per cycle, I-cache miss stalls, BTB miss
  bubbles on taken control, return-address-stack prediction of
  returns.
- **Execution**: each instruction dispatches ``frontend_depth`` cycles
  after fetch and completes when its source registers are ready plus
  its latency (loads/stores walk the cache hierarchy).  This dataflow
  ready-time model captures dependence chains without simulating a
  scheduler structurally.
- **Retire**: in-order, ``retire_width`` per cycle, bounded by the
  ``rob_size``-entry reorder buffer; fetch stalls when the ROB fills.
- **Branches**: resolved at their completion cycle; a misprediction
  flushes — the correct path refetches at
  ``resolution + redirect_penalty`` (minimum penalty 25 cycles).

With a :class:`~repro.core.marks.BinaryAnnotation`, diverge branches
additionally trigger **dpred-mode** on low confidence (or always, for
short hammocks): the front end splits, fetching the true path (from
the trace) and a synthesized wrong path (:mod:`repro.uarch.wrongpath`)
on alternating cycles until both reach a CFM point of the branch.  On
merge, select-µops are inserted (consuming fetch slots and making the
hammock-written registers wait for the branch's resolution); on
resolution-before-merge the episode degrades to dual-path execution.
Either way a mispredicted diverge branch in dpred-mode does not flush —
that is DMP's benefit.  Diverge loop branches predicate iterations:
late exits avoid the flush at the cost of fetching the extra (NOPped)
iterations and per-iteration select-µops; early exits flush as usual
(§5.1's three cases).
"""

from repro.branchpred import (
    BranchTargetBuffer,
    JRSConfidenceEstimator,
    ReturnAddressStack,
    make_predictor,
)
from repro.core.marks import DivergeKind
from repro.emulator import trace_rows
from repro.errors import SimulationError
from repro.isa.instructions import Opcode
from repro.memory import MemoryHierarchy
from repro.obs import events as obs_events
from repro.obs.context import get_metrics, get_tracer
from repro.uarch.config import ProcessorConfig
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
from repro.uarch.stats import SimStats
from repro.uarch.wrongpath import BiasTable, WrongPathWalker

#: Histogram buckets for dpred episode length in cycles.
EPISODE_CYCLE_BUCKETS = (2, 5, 10, 20, 50, 100, 200, 500)

#: Histogram buckets for wrong-path instructions fetched per episode.
WRONG_PATH_INST_BUCKETS = (0, 5, 10, 25, 50, 100, 200)

#: Histogram buckets for the confidence estimator's per-run PVN.
PVN_BUCKETS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0)


class _Episode:
    """One active dpred-mode episode."""

    __slots__ = (
        "kind",
        "branch_pc",
        "resolve",
        "cfm_pcs",
        "return_cfm",
        "false_insts",
        "false_merged",
        "false_done_cycle",
        "true_merged",
        "select_registers",
        "num_selects",
        "mispredicted",
        "half_width",
        "start_cycle",
    )

    def __init__(self, kind, branch_pc, resolve, start_cycle):
        self.kind = kind
        self.branch_pc = branch_pc
        self.resolve = resolve
        self.start_cycle = start_cycle
        self.cfm_pcs = frozenset()
        self.return_cfm = False
        self.false_insts = 0
        self.false_merged = False
        self.false_done_cycle = resolve
        self.true_merged = False
        self.select_registers = frozenset()
        self.num_selects = 0
        self.mispredicted = False
        self.half_width = True


class TimingSimulator:
    """Replays a dynamic trace through the timing model.

    Parameters
    ----------
    program:
        The static program the trace came from.
    config:
        :class:`ProcessorConfig`; defaults to the Table 1 machine.
    annotation:
        Diverge-branch marks.  ``None`` simulates the baseline
        processor (DMP support idle).
    tracer:
        A :class:`repro.obs.tracer.Tracer` emitting typed events
        (episodes, flushes, cache misses).  Defaults to the active
        telemetry context — the no-op null tracer unless the CLI (or a
        test) installed one, in which case the hot loop pays a single
        ``tracer.enabled`` check per site.
    metrics:
        A :class:`repro.obs.metrics.MetricsRegistry`; always on.
        Per-run totals and per-episode histograms are recorded here
        (never per-instruction work).
    ledger:
        A :class:`repro.obs.ledger.RuntimeLedger`, or ``None`` (the
        default — zero overhead).  When present, per-pc episode
        outcome counters are collected and folded in once per run via
        :meth:`~repro.obs.ledger.RuntimeLedger.record_run`.
    profiler:
        A :class:`repro.uarch.profiler.SimProfiler`, or ``None`` (the
        default — zero overhead, same opt-in pattern as the ledger).
        When present, the run loop charges its own wall-clock to
        per-component buckets (stopwatch partition: the buckets sum to
        the instrumented run time exactly) plus deterministic event
        counts, folded in once per run via
        :meth:`~repro.uarch.profiler.SimProfiler.record_run`.
    """

    def __init__(self, program, config=None, annotation=None,
                 collect_per_branch=False, tracer=None, metrics=None,
                 ledger=None, profiler=None):
        self.program = program
        self.config = (config or ProcessorConfig()).validate()
        self.annotation = annotation
        self.tracer = tracer if tracer is not None else get_tracer()
        self._bind_metrics(
            metrics if metrics is not None else get_metrics())
        self.ledger = ledger
        self.profiler = profiler
        #: When True, SimStats.per_branch records executions,
        #: mispredictions, episodes, avoided and taken flushes per pc
        #: (used by the coverage report; small runtime overhead).
        self.collect_per_branch = collect_per_branch
        cfg = self.config
        self.predictor = make_predictor(
            cfg.predictor_kind,
            **(
                {
                    "num_perceptrons": cfg.perceptron_entries,
                    "history_bits": cfg.perceptron_history,
                }
                if cfg.predictor_kind == "perceptron"
                else {}
            ),
        )
        self.confidence = JRSConfidenceEstimator(
            num_entries=cfg.confidence_entries,
            history_bits=cfg.confidence_history,
            threshold=cfg.confidence_threshold,
        )
        self.btb = BranchTargetBuffer(cfg.btb_entries)
        self.ras = ReturnAddressStack(cfg.ras_depth)
        self.memory = MemoryHierarchy(
            icache_kb=cfg.icache_kb,
            icache_assoc=cfg.icache_assoc,
            icache_latency=cfg.icache_latency,
            dcache_kb=cfg.dcache_kb,
            dcache_assoc=cfg.dcache_assoc,
            dcache_latency=cfg.dcache_latency,
            l2_kb=cfg.l2_kb,
            l2_assoc=cfg.l2_assoc,
            l2_latency=cfg.l2_latency,
            memory_latency=cfg.memory_latency,
        )
        self.bias = BiasTable()
        self.walker = WrongPathWalker(program, self.bias,
                                      metrics=self.metrics)
        self._loop_episode = None
        # Diverge pc -> the episode fields its mark fixes (see
        # _hammock_shape).
        self._hammock_shapes = {}
        # Dynamic trip-count tracking for diverge loop branches: the
        # number of predicated iterations in an episode is bounded by
        # how much longer the loop will actually run, estimated from an
        # EWMA of recent continue-run lengths minus the current streak.
        self._loop_streak = {}
        self._loop_run_ewma = {}

    def _bind_metrics(self, metrics):
        """Record this simulator's metrics into ``metrics`` from now on."""
        self.metrics = metrics
        self._hist_episode_cycles = metrics.histogram(
            "dpred_episode_cycles", EPISODE_CYCLE_BUCKETS,
            help="dpred episode length in cycles",
        )
        self._hist_wrong_path = metrics.histogram(
            "dpred_wrong_path_insts_per_episode", WRONG_PATH_INST_BUCKETS,
            help="wrong-path instructions fetched per dpred episode",
        )

    def _observe_loop_outcome(self, pc, continued):
        """Update per-branch trip statistics; returns expected remaining."""
        streak = self._loop_streak.get(pc, 0)
        ewma = self._loop_run_ewma.get(pc, 4.0)
        if continued:
            self._loop_streak[pc] = streak + 1
        else:
            self._loop_run_ewma[pc] = 0.75 * ewma + 0.25 * streak
            self._loop_streak[pc] = 0
        return max(1.0, ewma - streak)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, trace, label=""):
        """Simulate ``trace`` and return :class:`SimStats`."""
        if not trace:
            raise SimulationError("empty trace")
        cfg = self.config
        stats = SimStats(label=label)
        instructions = self.program.instructions
        tracer = self.tracer
        traced = tracer.enabled
        if traced:
            tracer.emit(obs_events.SimRunStart(
                label=label,
                trace_length=len(trace),
                dmp_enabled=self.annotation is not None,
            ))
        hist_episode_cycles = self._hist_episode_cycles

        # Opt-in cost attribution (see repro.uarch.profiler): a single
        # running timestamp; each charge(i) bills the time since the
        # previous charge point to bucket i, so the buckets partition
        # the instrumented interval exactly.  ``profiling`` is a hoisted
        # local bool — profiler=None pays one check per charge site.
        profiler = self.profiler
        profiling = profiler is not None
        if profiling:
            from time import perf_counter as _perf

            comp_sec = [0.0] * NUM_COMPONENTS
            comp_events = [0] * NUM_COMPONENTS
            mark = _perf()

            def charge(index):
                nonlocal mark
                now = _perf()
                comp_sec[index] += now - mark
                mark = now
        else:
            charge = None

        # Warm the instruction side: at the paper's scale (hundreds of
        # millions of instructions) compulsory I-cache misses are
        # negligible, but at our reduced scale a cold pass over the
        # static code would cost more cycles than the whole benchmark.
        warm_step = max(1, self.memory.icache.words_per_line)
        for pc in range(0, len(instructions), warm_step):
            self.memory.instruction_latency(pc)
        if profiling:
            charge(ICACHE)
            comp_events[ICACHE] += -(-len(instructions) // warm_step)

        # Front-end state.
        cycle = 0
        slots_used = 0
        cond_used = 0
        group_pc = trace[0].pc

        # Dataflow state: architectural register -> ready cycle.
        reg_ready = {}

        # ROB: completion cycles in program order (lazy in-order retire).
        rob = []
        rob_head = 0
        last_retire_cycle = 0
        retired_in_cycle = 0
        last_complete = 0

        episode = None

        ledger = self.ledger
        per_branch = (
            {} if (self.collect_per_branch or ledger is not None)
            else None
        )

        def branch_counters(pc):
            counters = per_branch.get(pc)
            if counters is None:
                # Slot order matches repro.obs.ledger.RUNTIME_COUNTERS:
                # [0 executions, 1 mispredictions, 2 episodes,
                #  3 flushes_avoided, 4 flushes, 5 merged, 6 unmerged,
                #  7 squashed, 8 wrong_path_insts, 9 select_uops,
                #  10 episode_cycles]
                counters = [0] * 11
                per_branch[pc] = counters
            return counters

        fetch_width = cfg.fetch_width
        frontend_depth = cfg.frontend_depth
        redirect = cfg.redirect_penalty
        retire_width = cfg.retire_width
        rob_size = cfg.rob_size
        max_cond = cfg.max_cond_branches_per_cycle
        predictor = self.predictor
        confidence = self.confidence
        bias = self.bias
        memory = self.memory
        annotation = self.annotation

        def retire_one():
            nonlocal rob_head, last_retire_cycle, retired_in_cycle
            complete = rob[rob_head]
            rob_head += 1
            if complete > last_retire_cycle:
                last_retire_cycle = complete
                retired_in_cycle = 1
            else:
                if retired_in_cycle >= retire_width:
                    last_retire_cycle += 1
                    retired_in_cycle = 1
                else:
                    retired_in_cycle += 1
            return last_retire_cycle

        def new_fetch_group(pc):
            nonlocal cycle, slots_used, cond_used, group_pc
            cycle += 1
            slots_used = 0
            cond_used = 0
            group_pc = pc
            if profiling:
                charge(FETCH)
            extra = memory.instruction_latency(pc) - cfg.icache_latency
            if profiling:
                charge(ICACHE)
                comp_events[ICACHE] += 1
            if extra > 0:
                stats.icache_misses += 1
                if traced:
                    tracer.emit(obs_events.CacheMiss(
                        level="icache", pc=pc, cycle=cycle,
                        stall_cycles=extra,
                    ))
                cycle += extra

        def end_episode_unmerged(reason="resolved-unmerged"):
            nonlocal episode, cycle
            ep = episode
            episode = None
            cycle = max(cycle, ep.resolve)
            hist_episode_cycles.observe(max(0, ep.resolve - ep.start_cycle))
            if per_branch is not None:
                counters = branch_counters(ep.branch_pc)
                counters[6] += 1
                counters[10] += max(0, ep.resolve - ep.start_cycle)
            if traced:
                tracer.emit(obs_events.DpredEpisodeEnd(
                    branch_pc=ep.branch_pc,
                    cycle=cycle,
                    duration_cycles=max(0, ep.resolve - ep.start_cycle),
                    reason=reason,
                ))
            if ep.kind == "loop":
                # Post-loop consumers of loop-carried values go through
                # select-µops: ready no earlier than the resolution.
                for reg in ep.select_registers:
                    if ep.resolve > reg_ready.get(reg, 0):
                        reg_ready[reg] = ep.resolve

        def charge_fetch_slots(count):
            # Extra µops (selects) consume fetch slots, spilling into
            # additional cycles only when a group fills — charging whole
            # cycles would make tiny hammocks artificially expensive.
            nonlocal cycle, slots_used
            slots_used += count
            while slots_used >= fetch_width:
                cycle += 1
                slots_used -= fetch_width

        def end_episode_merged(merge_cycle):
            nonlocal episode, cycle, slots_used, cond_used
            ep = episode
            episode = None
            cycle = max(cycle, merge_cycle)
            stats.dpred_episodes_merged += 1
            hist_episode_cycles.observe(max(0, merge_cycle - ep.start_cycle))
            if per_branch is not None:
                counters = branch_counters(ep.branch_pc)
                counters[5] += 1
                counters[9] += ep.num_selects
                counters[10] += max(0, merge_cycle - ep.start_cycle)
            if traced:
                tracer.emit(obs_events.DpredEpisodeMerge(
                    branch_pc=ep.branch_pc,
                    cycle=cycle,
                    duration_cycles=max(0, merge_cycle - ep.start_cycle),
                    select_uops=ep.num_selects,
                ))
            stats.dpred_select_uops += ep.num_selects
            for _ in range(ep.num_selects):
                rob.append(ep.resolve)
            if ep.num_selects:
                charge_fetch_slots(ep.num_selects)
            for reg in ep.select_registers:
                ready = reg_ready.get(reg, 0)
                if ep.resolve > ready:
                    reg_ready[reg] = ep.resolve

        for pc, next_pc, address in trace_rows(trace):
            inst = instructions[pc]

            # ---- episode bookkeeping at the fetch boundary ----------
            if episode is not None:
                if cycle >= episode.resolve:
                    end_episode_unmerged()
                elif episode.kind == "hammock" and not episode.true_merged:
                    at_cfm = pc in episode.cfm_pcs or (
                        episode.return_cfm and inst.is_return
                    )
                    if at_cfm:
                        episode.true_merged = True
                        if episode.false_merged and \
                                episode.false_done_cycle <= episode.resolve:
                            end_episode_merged(episode.false_done_cycle)
                        else:
                            # True path waits for the false path, which
                            # never merges: dual-path until resolution.
                            end_episode_unmerged("true-path-waits")
                if profiling:
                    charge(DPRED_EPISODE)

            # ---- ROB slot ---------------------------------------------
            # Drain until there is space: episodes bulk-insert wrong-path
            # and select-µop entries, so a single pop per instruction
            # would quietly stop enforcing the ROB limit.
            if len(rob) - rob_head >= rob_size:
                while len(rob) - rob_head >= rob_size:
                    free_at = retire_one()
                    if free_at > cycle:
                        cycle = free_at
                        slots_used = 0
                        cond_used = 0
                if profiling:
                    charge(ROB_RETIRE)

            # ---- fetch slot -------------------------------------------
            if episode is not None and episode.half_width \
                    and cycle < episode.false_done_cycle:
                width = max(1, fetch_width // 2)
            else:
                width = fetch_width
            if slots_used >= width or (
                inst.is_conditional_branch and cond_used >= max_cond
            ):
                new_fetch_group(pc)
            fetch_cycle = cycle
            slots_used += 1
            if inst.is_conditional_branch:
                cond_used += 1
            if profiling:
                charge(FETCH)
                comp_events[FETCH] += 1

            # ---- dataflow timing --------------------------------------
            dispatch = fetch_cycle + frontend_depth
            start = dispatch
            for reg in inst.read_registers():
                ready = reg_ready.get(reg, 0)
                if ready > start:
                    start = ready
            if inst.is_load:
                if profiling:
                    charge(DATAFLOW)
                data_latency = memory.data_latency(address)
                if profiling:
                    charge(DCACHE)
                    comp_events[DCACHE] += 1
                complete = start + data_latency
            elif inst.is_store:
                if profiling:
                    charge(DATAFLOW)
                memory.data_latency(address)
                if profiling:
                    charge(DCACHE)
                    comp_events[DCACHE] += 1
                complete = start + inst.latency
            else:
                complete = start + inst.latency
            dest = inst.written_register()
            if dest is not None and dest != 0:
                reg_ready[dest] = complete
            rob.append(complete)
            last_complete = complete
            stats.retired_instructions += 1
            if profiling:
                charge(DATAFLOW)
                comp_events[DATAFLOW] += 1

            # ---- control flow -----------------------------------------
            taken = next_pc != pc + 1
            if inst.is_conditional_branch:
                stats.conditional_branches += 1
                predicted = predictor.predict(pc)
                low_conf = confidence.is_low_confidence(pc)
                mispredicted = predicted != taken
                predictor.update(pc, taken)
                confidence.update(pc, mispredicted,
                                  was_low_confidence=low_conf)
                bias.record(pc, taken)
                if mispredicted:
                    stats.mispredictions += 1
                if low_conf:
                    stats.low_confidence_branches += 1
                    if mispredicted:
                        stats.low_confidence_mispredicted += 1
                if per_branch is not None:
                    counters = branch_counters(pc)
                    counters[0] += 1
                    if mispredicted:
                        counters[1] += 1
                if profiling:
                    charge(BRANCH_PRED)
                    comp_events[BRANCH_PRED] += 1

                resolve = complete
                diverge = annotation.get(pc) if annotation else None
                entered = False
                expected_remaining = 1.0
                if diverge is not None \
                        and diverge.kind is DivergeKind.LOOP:
                    # Trip statistics update on *every* execution.
                    expected_remaining = self._observe_loop_outcome(
                        pc, taken == diverge.loop_direction
                    )
                if diverge is not None and episode is None:
                    trigger = diverge.always_predicate or low_conf
                    if trigger:
                        if diverge.kind is DivergeKind.LOOP:
                            entered = self._enter_loop_episode(
                                stats, diverge, predicted, taken,
                                fetch_cycle, resolve, expected_remaining,
                                counters=(
                                    branch_counters(pc)
                                    if per_branch is not None else None
                                ),
                            )
                            if entered:
                                episode = self._loop_episode
                        else:
                            episode = self._make_hammock_episode(
                                stats, diverge, taken, inst.target,
                                fetch_cycle, resolve, mispredicted,
                                charge=charge,
                            )
                            entered = True
                if entered:
                    ep = episode
                    if per_branch is not None:
                        counters = branch_counters(pc)
                        counters[2] += 1
                        counters[8] += ep.false_insts
                        if ep.kind == "loop":
                            counters[9] += ep.num_selects
                    if ep.mispredicted:
                        stats.dpred_flushes_avoided += 1
                        if per_branch is not None:
                            counters[3] += 1
                    # The wrong path occupies the instruction window for
                    # the whole episode (it retires as NOPs only after
                    # the diverge branch resolves) — this is what makes
                    # dynamically predicating very large hammocks
                    # unprofitable (the §7.1.1 MAX_INSTR effect).
                    stats.dpred_wrong_path_insts += ep.false_insts
                    for _ in range(ep.false_insts):
                        rob.append(ep.resolve)
                    if ep.kind == "loop" and ep.num_selects:
                        # Per-iteration select-µops consume fetch slots
                        # across the episode (Equation 18).
                        charge_fetch_slots(ep.num_selects)
                        stats.dpred_select_uops += ep.num_selects
                        for _ in range(ep.num_selects):
                            rob.append(ep.resolve)
                    if profiling:
                        charge(DPRED_EPISODE)
                        comp_events[DPRED_EPISODE] += 1
                        comp_events[WRONG_PATH] += ep.false_insts
                elif mispredicted and episode is not None \
                        and episode.kind == "loop" \
                        and episode.branch_pc == pc \
                        and diverge is not None \
                        and predicted == diverge.loop_direction:
                    # A later instance of the predicated loop branch
                    # inside the active episode: the over-iteration
                    # (late-exit) misprediction is covered — the extra
                    # iterations become NOPs instead of flushing, but
                    # they do consume fetch bandwidth and ROB space
                    # until the branch resolves.
                    stats.dpred_flushes_avoided += 1
                    episode.resolve = max(episode.resolve, resolve)
                    episode.half_width = True
                    extra = min(
                        max(1, diverge.loop_body_size) * 2,
                        self.config.dpred_max_wrong_path_insts,
                    )
                    if per_branch is not None:
                        counters = branch_counters(pc)
                        counters[3] += 1
                        counters[8] += extra
                    if traced:
                        tracer.emit(obs_events.DpredEpisodeExtend(
                            branch_pc=pc, cycle=cycle, extra_insts=extra,
                        ))
                    episode.false_insts += extra
                    stats.dpred_wrong_path_insts += extra
                    for _ in range(extra):
                        rob.append(resolve)
                    per_cycle = max(1, fetch_width // 2)
                    episode.false_done_cycle = max(
                        episode.false_done_cycle,
                        fetch_cycle + max(1, -(-extra // per_cycle)),
                    )
                    if profiling:
                        charge(DPRED_EPISODE)
                        comp_events[DPRED_EPISODE] += 1
                        comp_events[WRONG_PATH] += extra
                elif mispredicted:
                    if episode is not None:
                        # A mispredicted branch on a predicated path
                        # flushes and squashes the episode.
                        hist_episode_cycles.observe(
                            max(0, cycle - episode.start_cycle))
                        if per_branch is not None:
                            counters = branch_counters(episode.branch_pc)
                            counters[7] += 1
                            counters[10] += max(
                                0, cycle - episode.start_cycle)
                        if traced:
                            tracer.emit(obs_events.DpredEpisodeFlush(
                                branch_pc=episode.branch_pc,
                                cycle=cycle,
                                duration_cycles=max(
                                    0, cycle - episode.start_cycle),
                                flushed_by_pc=pc,
                                source="branch-mispredict",
                            ))
                        episode = None
                    stats.pipeline_flushes += 1
                    if traced:
                        tracer.emit(obs_events.PipelineFlush(
                            pc=pc, cycle=cycle,
                            source="branch-mispredict",
                        ))
                    if per_branch is not None:
                        branch_counters(pc)[4] += 1
                    cycle = max(cycle, resolve + redirect)
                    slots_used = 0
                    cond_used = 0
                if taken and not mispredicted:
                    bubble = self._btb_miss_bubble(pc, next_pc)
                    if bubble:
                        cycle += bubble
                        slots_used = 0
                        cond_used = 0
                if profiling:
                    charge(BRANCH_PRED)
            elif inst.op is Opcode.JMP:
                bubble = self._btb_miss_bubble(pc, next_pc)
                if bubble:
                    cycle += bubble
                    slots_used = 0
                    cond_used = 0
                if profiling:
                    charge(BRANCH_PRED)
                    comp_events[BRANCH_PRED] += 1
            elif inst.is_call:
                self.ras.push(pc + 1)
                bubble = self._btb_miss_bubble(pc, next_pc)
                if bubble:
                    cycle += bubble
                    slots_used = 0
                    cond_used = 0
                if profiling:
                    charge(BRANCH_PRED)
                    comp_events[BRANCH_PRED] += 1
            elif inst.is_return:
                correct = self.ras.pop_predict(next_pc)
                if not correct:
                    stats.pipeline_flushes += 1
                    if per_branch is not None:
                        # Attributed to the return pc; the per-branch
                        # snapshot in SimStats only emits conditional
                        # branches (executions > 0), so this feeds the
                        # ledger without changing the coverage report.
                        branch_counters(pc)[4] += 1
                    if traced:
                        tracer.emit(obs_events.PipelineFlush(
                            pc=pc, cycle=cycle,
                            source="return-mispredict",
                        ))
                    if episode is not None:
                        hist_episode_cycles.observe(
                            max(0, cycle - episode.start_cycle))
                        if per_branch is not None:
                            counters = branch_counters(episode.branch_pc)
                            counters[7] += 1
                            counters[10] += max(
                                0, cycle - episode.start_cycle)
                        if traced:
                            tracer.emit(obs_events.DpredEpisodeFlush(
                                branch_pc=episode.branch_pc,
                                cycle=cycle,
                                duration_cycles=max(
                                    0, cycle - episode.start_cycle),
                                flushed_by_pc=pc,
                                source="return-mispredict",
                            ))
                        episode = None
                    cycle = max(cycle, complete + redirect)
                    slots_used = 0
                    cond_used = 0
                if profiling:
                    charge(BRANCH_PRED)
                    comp_events[BRANCH_PRED] += 1

            # Taken control flow ends the fetch group.
            if taken and inst.is_control:
                slots_used = fetch_width + 1

        # ---- drain -----------------------------------------------------
        while rob_head < len(rob):
            retire_one()
        if profiling:
            charge(ROB_RETIRE)
            # Every ROB entry (true-path, wrong-path, select-µop)
            # retires exactly once, drains included — deterministic.
            comp_events[ROB_RETIRE] = len(rob)
        stats.cycles = max(last_retire_cycle, last_complete, cycle)
        stats.dcache_misses = self.memory.dcache.misses
        stats.l2_misses = self.memory.l2.misses
        if self.collect_per_branch:
            # The coverage-report snapshot keeps its original shape:
            # conditional branches only (executions > 0 — return pcs
            # accrue flushes for the ledger but never execute as
            # branches) with the legacy five keys.
            stats.per_branch = {
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
            profiler.record_run(label, comp_sec, comp_events, stats,
                                metrics=self.metrics)
        return stats

    def _record_run_metrics(self, stats):
        """Fold one run's totals into the metrics registry."""
        metrics = self.metrics
        for name, value in (
            ("sim_runs_total", 1),
            ("sim_instructions_total", stats.retired_instructions),
            ("sim_cycles_total", stats.cycles),
            ("sim_conditional_branches_total", stats.conditional_branches),
            ("sim_mispredictions_total", stats.mispredictions),
            ("sim_pipeline_flushes_total", stats.pipeline_flushes),
            ("sim_dpred_episodes_total", stats.dpred_episodes),
            ("sim_dpred_episodes_merged_total",
             stats.dpred_episodes_merged),
            ("sim_dpred_flushes_avoided_total",
             stats.dpred_flushes_avoided),
            ("sim_dpred_wrong_path_insts_total",
             stats.dpred_wrong_path_insts),
            ("sim_icache_misses_total", stats.icache_misses),
            ("sim_dcache_misses_total", stats.dcache_misses),
            ("sim_l2_misses_total", stats.l2_misses),
        ):
            if value:
                metrics.counter(name).inc(value)
        if stats.low_confidence_branches:
            metrics.histogram(
                "confidence_pvn_per_run", PVN_BUCKETS,
                help="measured Acc_Conf (PVN) per simulation run",
            ).observe(stats.measured_acc_conf)
        self.walker.record_metrics(metrics)
        self.confidence.record_metrics(metrics)

    # ------------------------------------------------------------------
    # DMP episode construction
    # ------------------------------------------------------------------

    def _hammock_shape(self, diverge):
        """The episode fields a hammock mark fixes, built once per mark:
        ``(mark, cfm_pcs, return_cfm, select_registers, num_selects)``.
        """
        shape = self._hammock_shapes.get(diverge.branch_pc)
        if shape is None or shape[0] is not diverge:
            # Table 1: the hardware tracks at most num_cfm_registers CFM
            # points per dpred episode (the compiler caps MAX_CFM to
            # match, so this only bites on hand-written annotations).
            cfm_pcs = diverge.cfm_pcs
            limit = self.config.num_cfm_registers
            if len(cfm_pcs) > limit:
                cfm_pcs = frozenset(sorted(cfm_pcs)[:limit])
            shape = (diverge, cfm_pcs, diverge.has_return_cfm,
                     diverge.select_registers, diverge.num_select_uops)
            self._hammock_shapes[diverge.branch_pc] = shape
        return shape

    def _make_hammock_episode(self, stats, diverge, taken, false_target,
                              fetch_cycle, resolve, mispredicted,
                              charge=None):
        cfg = self.config
        stats.dpred_episodes += 1
        episode = _Episode("hammock", diverge.branch_pc, resolve,
                           fetch_cycle)
        (_, episode.cfm_pcs, episode.return_cfm, episode.select_registers,
         episode.num_selects) = self._hammock_shape(diverge)
        episode.mispredicted = mispredicted
        # Synthesize the path the trace did not take.  The walk is the
        # wrong-path bucket; episode setup around it stays in
        # dpred_episode (``charge`` is the run loop's stopwatch, None
        # when profiling is off).
        false_start = (diverge.branch_pc + 1) if taken else false_target
        if charge is not None:
            charge(DPRED_EPISODE)
        false_insts, false_merged = self.walker.walk(
            false_start,
            episode.cfm_pcs,
            episode.return_cfm,
            cfg.dpred_max_wrong_path_insts,
        )
        if charge is not None:
            charge(WRONG_PATH)
        episode.false_insts = false_insts
        episode.false_merged = false_merged
        per_cycle = max(1, cfg.fetch_width // 2)
        episode.false_done_cycle = fetch_cycle + max(
            1, -(-false_insts // per_cycle)
        )
        self._hist_wrong_path.observe(false_insts)
        if self.tracer.enabled:
            self.tracer.emit(obs_events.DpredEpisodeStart(
                branch_pc=episode.branch_pc,
                kind="hammock",
                cycle=fetch_cycle,
                mispredicted=mispredicted,
                wrong_path_insts=false_insts,
            ))
        return episode

    def _enter_loop_episode(self, stats, diverge, predicted, taken,
                            fetch_cycle, resolve, expected_remaining,
                            counters=None):
        """Handle a low-confidence diverge loop branch instance.

        Returns True when an episode object was installed (stored on
        ``self._loop_episode`` for the caller to pick up).  ``counters``
        is the pc's per-branch ledger slot list; the early-exit path
        (episode counted but dead on arrival) attributes here because
        the caller never sees an episode object for it.
        """
        cfg = self.config
        continue_dir = diverge.loop_direction
        actual_continue = taken == continue_dir
        predicted_continue = predicted == continue_dir

        window = max(1, resolve - fetch_cycle)
        body = max(1, diverge.loop_body_size)
        iter_cycles = max(1, -(-body // cfg.fetch_width))
        # Each predicated iteration consumes a predicate register
        # (Table 1: 32), bounding how deep the loop can be predicated.
        est_iters = max(1, min(window // iter_cycles,
                               int(expected_remaining) + 1,
                               cfg.dpred_max_loop_iterations,
                               cfg.num_predicate_registers))

        stats.dpred_episodes += 1
        stats.dpred_episodes_loop += 1
        episode = _Episode("loop", diverge.branch_pc, resolve, fetch_cycle)
        episode.select_registers = diverge.select_registers
        episode.num_selects = diverge.num_select_uops * est_iters
        episode.mispredicted = predicted != taken

        if predicted_continue and not actual_continue:
            # Late exit: the predictor over-iterates; the extra
            # (predicated) iterations become NOPs — no flush, but the
            # front end wastes half its bandwidth on them and the
            # post-exit code shares fetch until resolution.
            episode.half_width = True
            episode.false_insts = min(
                body * est_iters, cfg.dpred_max_wrong_path_insts
            )
            per_cycle = max(1, cfg.fetch_width // 2)
            episode.false_done_cycle = fetch_cycle + max(
                1, -(-episode.false_insts // per_cycle)
            )
            episode.false_merged = False
        elif not predicted_continue and actual_continue:
            # Early exit: the pipeline must be flushed to re-enter the
            # loop — dpred-mode only added select-µop overhead.  The
            # flush is modelled by *not* suppressing it: report no
            # episode so the caller's normal misprediction path runs,
            # but still charge the select overhead.
            stats.dpred_select_uops += episode.num_selects
            if counters is not None:
                counters[2] += 1
                counters[6] += 1
                counters[9] += episode.num_selects
            self._hist_wrong_path.observe(0)
            if self.tracer.enabled:
                # The episode is counted (stats.dpred_episodes above)
                # but dies immediately, so the trace reflects both.
                self.tracer.emit(obs_events.DpredEpisodeStart(
                    branch_pc=episode.branch_pc, kind="loop",
                    cycle=fetch_cycle, mispredicted=False,
                    wrong_path_insts=0,
                    select_uops=episode.num_selects,
                ))
                self.tracer.emit(obs_events.DpredEpisodeEnd(
                    branch_pc=episode.branch_pc, cycle=fetch_cycle,
                    duration_cycles=0, reason="early-exit-flush",
                ))
            self._loop_episode = None
            return False
        else:
            # Correctly predicted (or no-exit): overhead only.
            episode.half_width = False
            episode.mispredicted = False

        self._hist_wrong_path.observe(episode.false_insts)
        if self.tracer.enabled:
            self.tracer.emit(obs_events.DpredEpisodeStart(
                branch_pc=episode.branch_pc, kind="loop",
                cycle=fetch_cycle, mispredicted=episode.mispredicted,
                wrong_path_insts=episode.false_insts,
                select_uops=episode.num_selects,
            ))
        self._loop_episode = episode
        return True

    def _btb_miss_bubble(self, pc, target):
        """Bubble cycles when a taken control's target misses the BTB.

        Direct targets are discovered at decode on a miss, so the front
        end loses the BTB's ``miss_bubble_cycles``; the entry is filled
        for next time.
        """
        predicted = self.btb.lookup(pc)
        if predicted == target:
            return 0
        self.btb.insert(pc, target)
        return self.btb.miss_bubble_cycles


def simulate(program, trace, config=None, annotation=None, label=""):
    """One-call convenience: build a simulator and run ``trace``.

    Goes through :func:`~repro.uarch.engine.make_simulator`, so
    :envvar:`REPRO_SIM_ENGINE` (default ``auto``) may pick the
    vectorized batch replay — the result is bit-identical either way.
    """
    from repro.uarch.engine import make_simulator

    simulator = make_simulator(program, config=config,
                               annotation=annotation)
    return simulator.run(trace, label=label)
