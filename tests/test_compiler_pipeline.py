"""The ``repro.compiler`` pass-manager pipeline.

The heart of this module is the equivalence matrix: for every
registered :class:`SelectionConfig` preset and every workload in the
suite, the pipeline must emit a :class:`BinaryAnnotation` that is
byte-identical (as an :mod:`annotation_io` document) to the frozen
pre-pipeline selector in :mod:`tests._legacy_selector`.  Around it sit
the unit layers: the analysis manager's content-keyed cache, the spec
grammar, the preset registry, the threshold-unification regression,
and the ``python -m repro compile`` CLI.
"""

import json

import pytest

from repro.compiler import (
    AnalysisManager,
    Pipeline,
    PipelineBuilder,
    context_for_config,
    format_spec,
    parse_spec,
    registry,
    reset_shared_manager,
    run_selection_pipeline,
    shared_manager,
)
from repro.core import (
    DivergeSelector,
    SelectionConfig,
    annotation_io,
    select_diverge_branches,
)
from repro.core.thresholds import COST_MODEL_BOUNDS, SelectionThresholds
from repro.obs import MetricsRegistry, jsonl_tracer, telemetry
from repro.obs.tracer import iter_records
from repro.profiling import Profiler
from repro.workloads import BENCHMARK_NAMES, load_benchmark

from tests._legacy_selector import legacy_select

#: Trace-length multiplier for the equivalence matrix.  Small enough
#: that profiling all 17 workloads stays cheap, large enough that the
#: heuristics actually fire (short hammocks, return CFMs, loops).
EQUIV_SCALE = 0.2


@pytest.fixture(scope="module")
def suite_artifacts():
    """(program, profile) for every benchmark, profiled once."""
    artifacts = {}
    profiler = Profiler()
    for name in BENCHMARK_NAMES:
        workload = load_benchmark(name, scale=EQUIV_SCALE)
        profile = profiler.profile(
            workload.program,
            memory=workload.memory,
            max_instructions=workload.max_instructions,
        )
        artifacts[name] = (workload.program, profile)
    return artifacts


@pytest.fixture(scope="module")
def twolf(suite_artifacts):
    return suite_artifacts["twolf"]


# --------------------------------------------------------------------
# The tentpole contract: pipeline ≡ legacy, for every preset × workload.
# --------------------------------------------------------------------


class TestPipelineEquivalence:
    # Transform presets (meld=...) rewrite the program, which the
    # annotation-only legacy oracle by definition never did; the
    # annotation-only presets must stay byte-identical to it.
    @pytest.mark.parametrize("preset", [
        n for n in registry.names()
        if registry.resolve(n).meld is None
    ])
    def test_preset_matches_legacy_on_every_workload(
        self, preset, suite_artifacts
    ):
        config = registry.resolve(preset)
        manager = AnalysisManager()
        for name, (program, profile) in suite_artifacts.items():
            expected, legacy_costs, legacy_loops = legacy_select(
                program, profile, config
            )
            state = run_selection_pipeline(
                program, profile, config, manager=manager
            )
            assert annotation_io.dumps(state.annotation) == (
                annotation_io.dumps(expected)
            ), f"preset {preset!r} diverges from legacy on {name!r}"
            assert [r.as_dict() for r in state.cost_reports] == [
                r.as_dict() for r in legacy_costs
            ], f"cost reports differ for {preset!r} on {name!r}"
            assert len(state.loop_reports) == len(legacy_loops)

    def test_selector_shim_matches_pipeline(self, twolf):
        """``DivergeSelector`` is now a facade over the same pipeline."""
        program, profile = twolf
        config = SelectionConfig.all_best_heur()
        via_shim = DivergeSelector(program, profile, config).select()
        state = run_selection_pipeline(program, profile, config)
        assert annotation_io.dumps(via_shim) == (
            annotation_io.dumps(state.annotation)
        )

    def test_select_diverge_branches_matches_legacy(self, twolf):
        program, profile = twolf
        config = SelectionConfig.all_best_cost()
        annotation = select_diverge_branches(program, profile, config)
        expected, _, _ = legacy_select(program, profile, config)
        assert annotation_io.dumps(annotation) == (
            annotation_io.dumps(expected)
        )

    def test_cost_reports_order_hammocks_before_returns(self, twolf):
        """Figure 5 consumes ``cost_reports`` positionally: hammock
        candidates first (exact+freq order), then return-CFM ones."""
        program, profile = twolf
        selector = DivergeSelector(
            program, profile, SelectionConfig.all_best_cost()
        )
        selector.select()
        # Return-CFM reports key their merge point on None (see
        # HammockCostReport.as_dict); hammock reports never do.
        is_ret = [
            None in report.useless_by_cfm
            for report in selector.cost_reports
        ]
        first_ret = is_ret.index(True) if True in is_ret else len(is_ret)
        assert not any(is_ret[:first_ret])
        assert all(is_ret[first_ret:])
        assert is_ret, "cost mode must produce cost reports"


# --------------------------------------------------------------------
# Satellite (a): one thresholds source of truth, bounds as overrides.
# --------------------------------------------------------------------


class TestThresholdUnification:
    def test_cost_mode_pins_footnote4_bounds(self):
        effective = SelectionConfig.all_best_cost().effective_thresholds
        assert effective.max_instr == 200
        assert effective.max_cbr == 20
        assert effective.min_merge_prob == 0.0

    def test_cost_mode_preserves_custom_non_bound_thresholds(self):
        """Regression: the legacy selector silently replaced *all*
        thresholds with the COST_MODEL constant in cost mode, so custom
        short-hammock/loop settings were lost there.  Now only the
        three footnote-4 bounds are overridden."""
        custom = SelectionThresholds(
            short_hammock_max_insts=4,
            loop_iter=99,
            min_exec_prob=0.025,
        )
        config = SelectionConfig.all_best_cost(thresholds=custom)
        effective = config.effective_thresholds
        assert effective.short_hammock_max_insts == 4
        assert effective.loop_iter == 99
        assert effective.min_exec_prob == 0.025
        for name, value in COST_MODEL_BOUNDS.items():
            assert getattr(effective, name) == value

    def test_heuristic_mode_passes_thresholds_through(self):
        custom = SelectionThresholds(max_instr=77)
        config = SelectionConfig.all_best_heur(thresholds=custom)
        assert config.effective_thresholds is custom

    def test_short_hammocks_see_effective_thresholds(self, twolf):
        """Both the short partition and its finisher read the same
        thresholds object, so an impossible short-hammock bar removes
        every short-hammock branch — in cost mode too."""
        program, profile = twolf
        strict = SelectionThresholds(short_hammock_min_misp_rate=1.1)
        config = SelectionConfig.all_best_cost(thresholds=strict)
        annotation = select_diverge_branches(program, profile, config)
        assert not [b for b in annotation if b.source == "short-hammock"]


# --------------------------------------------------------------------
# The analysis manager: content keys, LRU, partial invalidation.
# --------------------------------------------------------------------


class TestAnalysisManager:
    def test_same_content_hits(self, twolf):
        program, profile = twolf
        manager = AnalysisManager()
        first = manager.analysis(program, profile)
        assert manager.analysis(program, profile) is first
        assert len(manager) == 1

    def test_hit_and_miss_metrics(self, twolf):
        program, profile = twolf
        registry_ = MetricsRegistry()
        with telemetry(metrics=registry_):
            manager = AnalysisManager()
            manager.analysis(program, profile)
            manager.analysis(program, profile)
        snapshot = registry_.as_dict()
        assert snapshot["analysis_cache_misses_total"]["value"] == 1
        assert snapshot["analysis_cache_hits_total"]["value"] == 1

    def test_configs_share_one_analysis(self, twolf):
        """The cross-config reuse the sweeps depend on: the key is
        (program, profile) content, never the SelectionConfig."""
        program, profile = twolf
        manager = AnalysisManager()
        for preset in ("exact", "all-best-heur", "all-best-cost"):
            run_selection_pipeline(
                program, profile, registry.resolve(preset),
                manager=manager,
            )
        assert len(manager) == 1

    def test_different_profile_misses(self, twolf, suite_artifacts):
        program, profile = twolf
        other_program, other_profile = suite_artifacts["gzip"]
        manager = AnalysisManager()
        manager.analysis(program, profile)
        manager.analysis(other_program, other_profile)
        assert len(manager) == 2
        assert AnalysisManager.key_for(program, profile) != (
            AnalysisManager.key_for(other_program, other_profile)
        )

    def test_lru_eviction(self, suite_artifacts):
        manager = AnalysisManager(capacity=2)
        names = list(BENCHMARK_NAMES)[:3]
        for name in names:
            manager.analysis(*suite_artifacts[name])
        assert len(manager) == 2
        oldest = AnalysisManager.key_for(*suite_artifacts[names[0]])
        assert oldest not in manager

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            AnalysisManager(capacity=0)

    def test_threshold_sweep_reuses_structural_analyses(self, twolf):
        """A threshold mutation keys new *path sets*; the dominators
        and loops (program-derived) are never rebuilt."""
        program, profile = twolf
        manager = AnalysisManager()
        analysis = manager.analysis(program, profile)
        for max_instr in (30, 50, 80):
            swept = SelectionConfig.all_best_heur(
                thresholds=SelectionThresholds(max_instr=max_instr)
            )
            run_selection_pipeline(
                program, profile, swept, manager=manager
            )
            assert manager.analysis(program, profile) is analysis
        assert analysis.path_cache_size() > 0

    def test_invalidate_paths_keeps_structure(self, twolf):
        program, profile = twolf
        manager = AnalysisManager()
        analysis = manager.analysis(program, profile)
        run_selection_pipeline(
            program, profile, SelectionConfig.all_best_heur(),
            manager=manager,
        )
        assert analysis.path_cache_size() > 0
        cfgs_before = analysis.cfgs
        manager.invalidate_paths(program, profile)
        assert analysis.path_cache_size() == 0
        assert manager.analysis(program, profile) is analysis
        assert manager.analysis(program, profile).cfgs is cfgs_before

    def test_invalidate_drops_entry(self, twolf):
        program, profile = twolf
        manager = AnalysisManager()
        first = manager.analysis(program, profile)
        manager.invalidate(program, profile)
        assert manager.analysis(program, profile) is not first

    def test_shared_manager_is_process_global(self, twolf):
        program, profile = twolf
        reset_shared_manager()
        try:
            assert shared_manager() is shared_manager()
            one = DivergeSelector(program, profile)
            two = DivergeSelector(program, profile)
            assert one.analysis is two.analysis
        finally:
            reset_shared_manager()

    def test_explicit_manager_overrides_shared(self, twolf):
        program, profile = twolf
        manager = AnalysisManager()
        selector = DivergeSelector(
            program, profile, analysis_manager=manager
        )
        assert manager.analysis(program, profile) is selector.analysis
        assert len(manager) == 1


class TestContentKeys:
    def test_program_fingerprint_is_stable(self, twolf):
        program, _ = twolf
        assert program.fingerprint == program.fingerprint
        reloaded = load_benchmark("twolf", scale=EQUIV_SCALE).program
        assert reloaded.fingerprint == program.fingerprint

    def test_fingerprints_differ_across_programs(self, suite_artifacts):
        fingerprints = {
            program.fingerprint
            for program, _ in suite_artifacts.values()
        }
        assert len(fingerprints) == len(suite_artifacts)

    def test_profile_cache_key_tracks_content(self, twolf):
        _, profile = twolf
        assert profile.cache_key() == profile.cache_key()
        longer = Profiler().profile(
            load_benchmark("twolf", scale=0.3).program,
            memory=load_benchmark("twolf", scale=0.3).memory,
            max_instructions=load_benchmark(
                "twolf", scale=0.3
            ).max_instructions,
        )
        assert longer.cache_key() != profile.cache_key()


# --------------------------------------------------------------------
# The declarative spec grammar and the pipeline builder.
# --------------------------------------------------------------------


class TestSpecGrammar:
    def test_round_trip_canonicalizes(self):
        config = parse_spec("loop,cost:edge,ret,short,freq,exact")
        assert format_spec(config) == "exact,freq,short,ret,loop,cost:edge"

    @pytest.mark.parametrize("name", [
        n for n in registry.names() if n != "exact-freq"
    ])
    def test_every_preset_spec_round_trips(self, name):
        config = registry.resolve(name)
        spec = format_spec(config)
        assert format_spec(parse_spec(spec)) == spec

    def test_preset_and_spec_spellings_agree(self, twolf):
        """The CI smoke job's contract, asserted in-process."""
        program, profile = twolf
        pairs = [
            ("all-best-heur", "exact,freq,short,ret,loop"),
            ("all-best-cost", "exact,freq,short,ret,loop,cost:edge"),
        ]
        for preset, spec in pairs:
            by_name = run_selection_pipeline(
                program, profile, registry.resolve(preset)
            )
            by_spec = run_selection_pipeline(
                program, profile, parse_spec(spec)
            )
            assert annotation_io.dumps(by_name.annotation) == (
                annotation_io.dumps(by_spec.annotation)
            )

    def test_cost_method_tokens(self):
        assert parse_spec("exact,cost").cost_model == "edge"
        assert parse_spec("exact,cost:edge").cost_model == "edge"
        assert parse_spec("exact,cost:long").cost_model == "long"

    def test_minmisp_token_sets_filter_rate(self):
        config = parse_spec("exact,freq,minmisp:0.02")
        assert config.min_misp_rate == pytest.approx(0.02)
        assert "minmisp:0.02" in format_spec(config)

    @pytest.mark.parametrize("bad", [
        "", "  ", "exact,bogus", "exact,exact", "cost,cost:long",
        "cost:fancy", "minmisp:high", "minmisp",
    ])
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_spec(bad)

    def test_spec_names_default_to_spec_string(self):
        assert parse_spec("exact,freq").name == "exact,freq"
        assert parse_spec("exact", name="solo").name == "solo"

    def test_custom_thresholds_flow_through(self):
        custom = SelectionThresholds(max_instr=64)
        config = parse_spec("exact,freq", thresholds=custom)
        assert config.thresholds.max_instr == 64


class TestPipelineBuilder:
    def test_canonical_schedule(self):
        pipeline = PipelineBuilder.from_config(
            registry.resolve("all-best-cost")
        ).build()
        assert pipeline.pass_names() == [
            "exact", "freq", "2d", "short", "cost", "finish",
            "ret", "loop",
        ]

    def test_minmisp_scheduled_only_when_configured(self):
        with_filter = PipelineBuilder.from_config(
            SelectionConfig(min_misp_rate=0.01)
        ).build()
        without = PipelineBuilder.from_config(SelectionConfig()).build()
        assert "minmisp" in with_filter.pass_names()
        assert "minmisp" not in without.pass_names()

    def test_pipeline_repr_names_passes(self):
        pipeline = PipelineBuilder.from_spec("exact,freq").build()
        assert "exact" in repr(pipeline) and "freq" in repr(pipeline)

    def test_pass_telemetry(self, twolf, tmp_path):
        """Each pass emits start/end events, spans, and counts."""
        program, profile = twolf
        trace_path = tmp_path / "trace.jsonl"
        registry_ = MetricsRegistry()
        tracer = jsonl_tracer(str(trace_path))
        config = registry.resolve("all-best-heur")
        with telemetry(tracer=tracer, metrics=registry_):
            pipeline = PipelineBuilder.from_config(config).build()
            ctx = context_for_config(
                program, profile, config, tracer=tracer,
                manager=AnalysisManager(),
            )
            pipeline.run(ctx)
        tracer.close()
        events = list(iter_records(str(trace_path)))
        starts = [e for e in events if e["type"] == "compile.pass.start"]
        ends = [e for e in events if e["type"] == "compile.pass.end"]
        assert [e["pass_name"] for e in starts] == pipeline.pass_names()
        assert [e["pass_name"] for e in ends] == pipeline.pass_names()
        assert all(e["seconds"] >= 0 for e in ends)
        snapshot = registry_.as_dict()
        assert snapshot["pipeline_pass_runs_total"]["value"] == len(
            pipeline.pass_names()
        )
        assert snapshot["selection_runs_total"]["value"] == 1
        assert "span_compile.exact_seconds_total" in snapshot

    def test_empty_pipeline_yields_empty_annotation(self, twolf):
        program, profile = twolf
        ctx = context_for_config(
            program, profile, SelectionConfig(
                enable_exact=False, enable_freq=False
            ),
            manager=AnalysisManager(),
        )
        state = Pipeline([]).run(ctx)
        assert len(state.annotation) == 0


# --------------------------------------------------------------------
# The preset registry.
# --------------------------------------------------------------------


class TestRegistry:
    def test_names_cover_the_figure_presets(self):
        names = registry.names()
        for expected in (
            "exact", "exact+freq", "exact+freq+short",
            "exact+freq+short+ret", "all-best-heur", "cost-long",
            "cost-edge", "cost-edge+short", "cost-edge+short+ret",
            "all-best-cost", "exact-freq",
        ):
            assert expected in names

    def test_resolve_returns_fresh_configs(self):
        assert registry.resolve("exact") is not registry.resolve("exact")

    def test_resolve_applies_thresholds(self):
        custom = SelectionThresholds(max_instr=31)
        config = registry.resolve("all-best-heur", thresholds=custom)
        assert config.thresholds.max_instr == 31

    def test_unknown_name_lists_choices(self):
        with pytest.raises(KeyError, match="all-best-heur"):
            registry.resolve("no-such-config")

    def test_register_rejects_collisions(self):
        with pytest.raises(ValueError):
            registry.register("exact", lambda thresholds=None: None)

    def test_experiment_configs_resolve_through_registry(self):
        from repro.experiments.configs import (
            COST_CONFIGS,
            CUMULATIVE_HEURISTICS,
            named_config,
        )

        for name, config in CUMULATIVE_HEURISTICS + COST_CONFIGS:
            assert config.name == registry.resolve(name).name
        assert named_config("all-best-cost").cost_model == "edge"


# --------------------------------------------------------------------
# The ``python -m repro compile`` CLI.
# --------------------------------------------------------------------


class TestCompileCLI:
    def _main(self, argv):
        from repro.compiler.cli import main

        return main(argv)

    def test_list_prints_presets(self, capsys):
        assert self._main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "all-best-heur" in out
        assert "exact,freq,short,ret,loop,cost:edge" in out

    def test_config_and_pipeline_spellings_diff_clean(self, tmp_path,
                                                      capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert self._main([
            "--benchmark", "gzip", "--scale", "0.1",
            "--config", "all-best-heur", "-o", str(a),
        ]) == 0
        assert self._main([
            "--benchmark", "gzip", "--scale", "0.1",
            "--pipeline", "exact,freq,short,ret,loop", "-o", str(b),
        ]) == 0
        assert a.read_text() == b.read_text()
        assert "diverge branches" in capsys.readouterr().out

    def test_stdout_emits_annotation_document(self, capsys):
        assert self._main([
            "--benchmark", "gzip", "--scale", "0.1",
            "--config", "exact",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["program"] == "gzip"

    def test_unknown_config_fails_with_choices(self, capsys):
        assert self._main([
            "--benchmark", "gzip", "--config", "nope",
        ]) == 2
        assert "all-best-heur" in capsys.readouterr().err

    def test_bad_spec_fails(self, capsys):
        assert self._main([
            "--benchmark", "gzip", "--pipeline", "exact,bogus",
        ]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_unknown_benchmark_fails(self, capsys):
        assert self._main([
            "--benchmark", "no-such-workload", "--config", "exact",
        ]) == 1

    def test_dispatch_through_repro_main(self, capsys):
        from repro.__main__ import main

        assert main(["compile", "--list"]) == 0
        assert "all-best-cost" in capsys.readouterr().out
