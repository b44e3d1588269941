"""Trace-driven cycle-level timing simulation (baseline and DMP).

The simulator replays the functional trace through a timing model of
the Table 1 machine.  This module holds the model's shared base,
:class:`TimingSimulator`: construction of its components, the dpred
episode helpers and the per-run metrics.  The replay itself is
:class:`repro.uarch.vectorized.VectorizedTimingSimulator`, built by
:func:`repro.uarch.vectorized.make_simulator`.  The model:

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
from repro.memory import MemoryHierarchy
from repro.obs.context import get_metrics, get_tracer
from repro.uarch.config import ProcessorConfig
from repro.uarch.profiler import DPRED_EPISODE, WRONG_PATH
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
    """The timing model's components and dpred episode machinery.

    :class:`~repro.uarch.vectorized.VectorizedTimingSimulator`
    subclasses it and implements :meth:`run`.

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
        """Not implemented here: :class:`~repro.uarch.vectorized.
        VectorizedTimingSimulator` replays traces (build one with
        :func:`~repro.uarch.vectorized.make_simulator`)."""
        raise NotImplementedError(
            "TimingSimulator is the shared base of the simulator; "
            "VectorizedTimingSimulator replays traces"
        )

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
            from repro.obs import events as obs_events

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
                from repro.obs import events as obs_events

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
            from repro.obs import events as obs_events

            self.tracer.emit(obs_events.DpredEpisodeStart(
                branch_pc=episode.branch_pc, kind="loop",
                cycle=fetch_cycle, mispredicted=episode.mispredicted,
                wrong_path_insts=episode.false_insts,
                select_uops=episode.num_selects,
            ))
        self._loop_episode = episode
        return True
