"""The pass-manager compiler pipeline (see ``docs/compiler.md``).

Public surface:

- :class:`AnalysisManager` / :func:`shared_manager` — content-keyed
  caching of :class:`~repro.core.analysis.ProgramAnalysis` products
  shared across configs and sweep cells;
- :class:`Pass` and the concrete selection passes;
- :class:`Pipeline` / :class:`PipelineBuilder` — canonical schedules
  from configs or declarative specs (``"exact,freq,short,ret,loop"``);
- the program transforms (:class:`~repro.compiler.transform.MeldPass`)
  in :mod:`repro.compiler.transform`, loaded by a ``meld`` schedule;
- the preset registry (:func:`resolve`, :func:`names`,
  :func:`register`) every named-config consumer resolves through.
"""

from repro.compiler.analysis_manager import (
    AnalysisManager,
    reset_shared_manager,
    shared_manager,
)
from repro.compiler.passes import (
    CompileContext,
    CostModelFilterPass,
    ExactCandidatesPass,
    FinishPass,
    FreqCandidatesPass,
    LoopPass,
    MinMispRateFilterPass,
    Pass,
    ReturnCFMPass,
    SelectionState,
    ShortHammockPass,
    TwoDProfileFilterPass,
)
from repro.compiler.pipeline import (
    Pipeline,
    PipelineBuilder,
    context_for_config,
    format_spec,
    parse_spec,
    run_selection_pipeline,
)
from repro.compiler.registry import names, register, resolve

__all__ = [
    "AnalysisManager",
    "CompileContext",
    "CostModelFilterPass",
    "ExactCandidatesPass",
    "FinishPass",
    "FreqCandidatesPass",
    "LoopPass",
    "MinMispRateFilterPass",
    "Pass",
    "Pipeline",
    "PipelineBuilder",
    "ReturnCFMPass",
    "SelectionState",
    "ShortHammockPass",
    "TwoDProfileFilterPass",
    "context_for_config",
    "format_spec",
    "names",
    "parse_spec",
    "register",
    "reset_shared_manager",
    "resolve",
    "run_selection_pipeline",
    "shared_manager",
]
