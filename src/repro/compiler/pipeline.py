"""Pass-manager pipeline: scheduling, specs, and the run loop.

A :class:`Pipeline` runs an ordered list of passes over one
:class:`~repro.compiler.passes.SelectionState` under one ``select``
span (its events: the branches selected).  Per-pass timing is in the
``compile.pass.{start,end}`` trace events (``seconds`` on the end
event), and a ``pipeline_pass_runs_total`` counter counts the passes.  The
:class:`PipelineBuilder` produces the canonical schedule for a
:class:`~repro.core.selector.SelectionConfig` — either given directly
(:meth:`PipelineBuilder.from_config`) or parsed from a declarative
spec string (:meth:`PipelineBuilder.from_spec`).

Spec grammar (comma-separated tokens, order-insensitive — the builder
always normalizes to the canonical schedule below)::

    spec   := token ("," token)*
    token  := "meld" | "meld:short" | "meld:all"
            | "exact" | "freq" | "short" | "ret" | "loop"
            | "cost" | "cost:edge" | "cost:long"
            | "minmisp:" FLOAT

Canonical schedule: meld → exact → freq → minmisp → 2d → short →
cost → finish → ret → loop, with producer/filter passes included only
when enabled.  ``meld`` (bare form = ``meld:short``) schedules the
static if-conversion :class:`~repro.compiler.transform.MeldPass`
*first*: it rewrites the program, so every selection pass after it
compiles the transformed code.  The annotation-only schedule (exact →
… → loop) is the paper's Figure 5 composition order and is what the
legacy ``DivergeSelector`` always did; the equivalence tests pin it
byte-for-byte.
"""

import time
from dataclasses import replace

from repro.compiler.analysis_manager import shared_manager
from repro.compiler.passes import (
    CompileContext,
    CostModelFilterPass,
    ExactCandidatesPass,
    FinishPass,
    FreqCandidatesPass,
    LoopPass,
    MinMispRateFilterPass,
    ReturnCFMPass,
    SelectionState,
    ShortHammockPass,
    TwoDProfileFilterPass,
)
from repro.core.analysis import PATH_CACHE_COUNTERS
from repro.core.marks import BinaryAnnotation
from repro.obs.context import get_metrics, get_tracer
from repro.obs.spans import span

#: Pass tokens that toggle a producer/finisher in the spec grammar.
_FLAG_TOKENS = ("exact", "freq", "short", "ret", "loop")
#: Cost-model methods the ``cost:`` token accepts.
_COST_METHODS = ("edge", "long")
#: Transform modes the ``meld`` token accepts (bare = ``short``).
_MELD_MODES = ("short", "all")


def parse_spec(spec, thresholds=None, name=None):
    """Parse a pipeline spec string into a ``SelectionConfig``.

    Raises :class:`ValueError` on unknown or duplicate tokens; the
    message spells out the grammar so CLI users can self-serve.
    """
    from repro.core.selector import SelectionConfig
    from repro.core.thresholds import SelectionThresholds

    tokens = [token.strip() for token in spec.split(",") if token.strip()]
    if not tokens:
        raise ValueError(f"empty pipeline spec: {spec!r}")
    flags = dict.fromkeys(_FLAG_TOKENS, False)
    cost_model = None
    min_misp_rate = 0.0
    meld = None
    for token in tokens:
        if token == "meld" or token.startswith("meld:"):
            mode = token[5:] if token.startswith("meld:") else "short"
            if mode not in _MELD_MODES:
                raise ValueError(
                    f"unknown meld mode {mode!r} in {token!r}; "
                    f"expected one of {', '.join(_MELD_MODES)}"
                )
            if meld is not None:
                raise ValueError(
                    f"duplicate meld token in pipeline spec {spec!r}"
                )
            meld = mode
        elif token in flags:
            if flags[token]:
                raise ValueError(
                    f"duplicate pass {token!r} in pipeline spec {spec!r}"
                )
            flags[token] = True
        elif token == "cost" or token.startswith("cost:"):
            method = token[5:] if token.startswith("cost:") else "edge"
            if method not in _COST_METHODS:
                raise ValueError(
                    f"unknown cost method {method!r} in {token!r}; "
                    f"expected one of {', '.join(_COST_METHODS)}"
                )
            if cost_model is not None:
                raise ValueError(
                    f"duplicate cost token in pipeline spec {spec!r}"
                )
            cost_model = method
        elif token.startswith("minmisp:"):
            try:
                min_misp_rate = float(token[len("minmisp:"):])
            except ValueError:
                raise ValueError(
                    f"bad minmisp rate in {token!r} "
                    f"(expected minmisp:FLOAT)"
                ) from None
        else:
            raise ValueError(
                f"unknown pipeline token {token!r}; grammar: "
                f"meld[:short|:all]|exact|freq|short|ret|loop"
                f"|cost[:edge|:long]|minmisp:FLOAT, comma-separated"
            )
    return SelectionConfig(
        enable_exact=flags["exact"],
        enable_freq=flags["freq"],
        enable_short=flags["short"],
        enable_return_cfm=flags["ret"],
        enable_loop=flags["loop"],
        cost_model=cost_model,
        thresholds=thresholds or SelectionThresholds(),
        min_misp_rate=min_misp_rate,
        meld=meld,
        name=name or spec,
    )


def format_spec(config):
    """The canonical spec string for a ``SelectionConfig``."""
    tokens = []
    if config.meld is not None:
        tokens.append(f"meld:{config.meld}")
    tokens += [
        token
        for token, enabled in (
            ("exact", config.enable_exact),
            ("freq", config.enable_freq),
            ("short", config.enable_short),
            ("ret", config.enable_return_cfm),
            ("loop", config.enable_loop),
        )
        if enabled
    ]
    if config.cost_model is not None:
        tokens.append(f"cost:{config.cost_model}")
    if config.min_misp_rate > 0.0:
        tokens.append(f"minmisp:{config.min_misp_rate:g}")
    return ",".join(tokens)


def context_for_config(program, profile, config, two_d_profile=None,
                       tracer=None, manager=None, ledger=None):
    """Build the :class:`CompileContext` a config implies.

    The analysis comes from ``manager`` (default: the process-wide
    :func:`shared_manager`), so repeated compiles of the same
    program+profile share dominators, loops, and memoized path sets.
    """
    manager = manager if manager is not None else shared_manager()
    analysis = manager.analysis(program, profile)
    cost_params = config.cost_params
    if config.cost_model is not None and config.per_app_acc_conf:
        measured = profile.measured_acc_conf
        if measured > 0.0:
            cost_params = replace(cost_params, acc_conf=measured)
    return CompileContext(
        program=program,
        profile=profile,
        analysis=analysis,
        thresholds=config.effective_thresholds,
        cost_method=config.cost_model,
        cost_params=cost_params,
        min_misp_rate=config.min_misp_rate,
        two_d_profile=two_d_profile,
        tracer=tracer if tracer is not None else get_tracer(),
        ledger=ledger,
        manager=manager,
    )


class Pipeline:
    """An ordered, instrumented sequence of selection passes."""

    def __init__(self, passes, name="pipeline"):
        self.passes = tuple(passes)
        self.name = name

    def run(self, ctx, state=None):
        """Run every pass; returns the final :class:`SelectionState`."""
        metrics = get_metrics()
        if state is None:
            state = SelectionState(BinaryAnnotation(ctx.program.name))
        state.ledger = ctx.ledger
        tracing = ctx.tracer is not None and ctx.tracer.enabled
        pass_runs = metrics.counter("pipeline_pass_runs_total")
        # The passes' path-cache lookups are tallied on the analysis and
        # counted once, not looked up in the registry one by one.
        analysis = ctx.analysis
        analysis.path_tally = tally = [0, 0]
        try:
            self._run_passes(ctx, state, pass_runs, tracing)
        finally:
            analysis.path_tally = None
            for name, count in zip(PATH_CACHE_COUNTERS, tally):
                if count:
                    metrics.counter(name).inc(count)
        metrics.counter("selection_runs_total").inc()
        metrics.counter("selection_branches_selected_total").inc(
            len(state.annotation)
        )
        return state

    def _run_passes(self, ctx, state, pass_runs, tracing):
        if tracing:
            from repro.obs.events import CompilePassEnd, CompilePassStart
        with span("select") as select_span:
            for index, pipeline_pass in enumerate(self.passes):
                if tracing:
                    ctx.tracer.emit(CompilePassStart(
                        pipeline=self.name,
                        pass_name=pipeline_pass.name,
                        index=index,
                    ))
                    start = time.perf_counter()
                ctx.current_pass = pipeline_pass.name
                try:
                    pipeline_pass.run(ctx, state)
                finally:
                    ctx.current_pass = ""
                pass_runs.inc()
                if tracing:
                    ctx.tracer.emit(CompilePassEnd(
                        pipeline=self.name,
                        pass_name=pipeline_pass.name,
                        index=index,
                        seconds=time.perf_counter() - start,
                        candidates=len(state.candidates),
                        selected=len(state.annotation),
                    ))
            select_span.events = len(state.annotation)

    def pass_names(self):
        return [pipeline_pass.name for pipeline_pass in self.passes]

    def __repr__(self):
        return f"<Pipeline {self.name!r}: {','.join(self.pass_names())}>"


class PipelineBuilder:
    """Builds the canonical pass schedule for a selection config."""

    def __init__(self, config):
        self.config = config

    @classmethod
    def from_config(cls, config):
        return cls(config)

    @classmethod
    def from_spec(cls, spec, thresholds=None, name=None):
        return cls(parse_spec(spec, thresholds=thresholds, name=name))

    def build(self):
        config = self.config
        passes = []
        if config.meld is not None:
            from repro.compiler.transform import MeldPass

            passes.append(MeldPass(config.meld))
        if config.enable_exact:
            passes.append(ExactCandidatesPass())
        if config.enable_freq:
            passes.append(FreqCandidatesPass())
        if config.min_misp_rate > 0.0:
            passes.append(MinMispRateFilterPass())
        # Always scheduled: a no-op unless the context carries a 2D
        # profile, which is unknowable at build time.
        passes.append(TwoDProfileFilterPass())
        if config.enable_short:
            passes.append(ShortHammockPass())
        if config.cost_model is not None:
            passes.append(CostModelFilterPass())
        passes.append(FinishPass())
        if config.enable_return_cfm:
            passes.append(ReturnCFMPass())
        if config.enable_loop:
            passes.append(LoopPass())
        return Pipeline(passes, name=config.name)


def run_selection_pipeline(program, profile, config, two_d_profile=None,
                           tracer=None, manager=None, ledger=None):
    """One-call compile: config → pipeline → final selection state."""
    ctx = context_for_config(
        program, profile, config,
        two_d_profile=two_d_profile, tracer=tracer, manager=manager,
        ledger=ledger,
    )
    return PipelineBuilder.from_config(config).build().run(ctx)
