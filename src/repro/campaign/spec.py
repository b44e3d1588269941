"""Declarative campaign specifications.

A :class:`CampaignSpec` describes a design-space sweep as data: the
benchmark list, input sets, trace scale, a base selection algorithm,
and a list of :class:`Axis` objects swept as a full grid.  Axis names
route to one of three targets:

- a :class:`~repro.core.SelectionThresholds` field name
  (``max_instr``, ``min_merge_prob``, ...) overrides that threshold;
- ``proc.<field>`` overrides a :class:`~repro.uarch.ProcessorConfig`
  field (``proc.confidence_threshold``, ``proc.predictor_kind``, ...);
- ``selection`` sweeps the base selection algorithm itself over the
  preset names in :data:`SELECTION_PRESETS`.

:meth:`CampaignSpec.cells` resolves the grid into a deterministic,
ordered list of :class:`Cell` objects.  Each cell's identity is a
content hash of its *resolved* parameters (benchmark, input set,
scale, selection, threshold and processor overrides, and the cell
function), so cell IDs are stable across processes, machines, and
re-orderings of the spec — which is what makes the journal's
"skip what already finished" resume semantics sound.

The default cell function, :func:`run_cell`, is the paper pipeline:
baseline simulation, profile-driven selection, DMP simulation, and the
speedup between them.  Specs may point ``cell`` at any other
module-level function taking the same parameter dict, which keeps the
scheduler and journal reusable for non-simulation sweeps (and makes
the crash/timeout paths testable without patching).
"""

import hashlib
import importlib
import json
from dataclasses import dataclass, field, fields

from repro.compiler import registry
from repro.core import SelectionThresholds
from repro.uarch import ProcessorConfig

#: Dotted path of the default cell function (module:attribute).
DEFAULT_CELL = "repro.campaign.spec:run_cell"

#: Threshold field names an axis may target directly.
THRESHOLD_FIELDS = frozenset(f.name for f in fields(SelectionThresholds))

#: Processor field names an axis may target via ``proc.<field>``.
PROCESSOR_FIELDS = frozenset(f.name for f in fields(ProcessorConfig))

#: The recommended selection presets for sweeps; any name registered
#: in :mod:`repro.compiler.registry` is accepted.
SELECTION_PRESETS = ("exact-freq", "all-best-heur", "all-best-cost")


def _known_selection(name):
    return name in registry.names()


def canonical_json(obj):
    """Deterministic JSON encoding used for hashing and journaling."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_hash(obj, length=12):
    """A short, stable content hash of a JSON-able object."""
    digest = hashlib.sha256(canonical_json(obj).encode("utf-8"))
    return digest.hexdigest()[:length]


def resolve_cell_fn(path):
    """Import the cell function named by ``pkg.mod:attr`` (or dots)."""
    module_name, sep, attr = path.partition(":")
    if not sep:
        module_name, _, attr = path.rpartition(".")
    if not module_name or not attr:
        raise ValueError(f"malformed cell function path {path!r}")
    module = importlib.import_module(module_name)
    try:
        return getattr(module, attr)
    except AttributeError:
        raise ValueError(
            f"cell function {path!r} not found in {module_name}"
        ) from None


@dataclass(frozen=True)
class Axis:
    """One swept dimension: a target name and its grid values."""

    name: str
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError(f"axis {self.name!r} has no values")


@dataclass(frozen=True)
class Cell:
    """One resolved grid point: a stable ID plus its parameters.

    ``point`` is the tuple of (axis name, value) pairs in spec axis
    order — the report groups and labels cells by it.
    """

    cell_id: str
    params: dict
    point: tuple

    @property
    def benchmark(self):
        return self.params["benchmark"]

    def label(self):
        axes = ",".join(f"{n}={v}" for n, v in self.point)
        return f"{self.benchmark}[{axes}]" if axes else self.benchmark


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative design-space sweep (see the module docstring)."""

    name: str
    benchmarks: tuple
    input_sets: tuple = ("reduced",)
    scale: float = 1.0
    selection: str = "all-best-heur"
    axes: tuple = ()
    cell: str = DEFAULT_CELL

    def __post_init__(self):
        object.__setattr__(self, "benchmarks", tuple(self.benchmarks))
        object.__setattr__(self, "input_sets", tuple(self.input_sets))
        object.__setattr__(
            self,
            "axes",
            tuple(
                axis if isinstance(axis, Axis) else Axis(**axis)
                for axis in self.axes
            ),
        )
        self.validate()

    def validate(self):
        if not self.name:
            raise ValueError("campaign needs a name")
        if not self.benchmarks:
            raise ValueError("campaign needs at least one benchmark")
        if not self.input_sets:
            raise ValueError("campaign needs at least one input set")
        seen = set()
        for axis in self.axes:
            if axis.name in seen:
                raise ValueError(f"duplicate axis {axis.name!r}")
            seen.add(axis.name)
            _validate_axis(axis)
        if not _known_selection(self.selection):
            raise ValueError(
                f"unknown selection preset {self.selection!r} "
                f"(choose from {', '.join(registry.names())})"
            )
        return self

    @property
    def spec_hash(self):
        return content_hash(self.as_dict())

    def as_dict(self):
        return {
            "name": self.name,
            "benchmarks": list(self.benchmarks),
            "input_sets": list(self.input_sets),
            "scale": self.scale,
            "selection": self.selection,
            "axes": [
                {"name": axis.name, "values": list(axis.values)}
                for axis in self.axes
            ],
            "cell": self.cell,
        }

    @classmethod
    def from_dict(cls, data):
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown campaign spec keys: {', '.join(sorted(unknown))}"
            )
        return cls(**data)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def points(self):
        """Axis-product points as tuples of (axis name, value) pairs."""
        result = [()]
        for axis in self.axes:
            result = [
                point + ((axis.name, value),)
                for point in result
                for value in axis.values
            ]
        return result

    def cells(self):
        """The ordered, resolved cell list (benchmark-major order).

        Benchmark-major order means the first cell of each benchmark
        warms the persistent artifact cache for all its grid points.
        """
        cells = []
        points = self.points()
        for benchmark in self.benchmarks:
            for input_set in self.input_sets:
                for point in points:
                    params = self._resolve(benchmark, input_set, point)
                    cells.append(
                        Cell(
                            cell_id=content_hash(params),
                            params=params,
                            point=point,
                        )
                    )
        return cells

    def _resolve(self, benchmark, input_set, point):
        thresholds = {}
        processor = {}
        selection = self.selection
        for name, value in point:
            if name == "selection":
                selection = value
            elif name.startswith("proc."):
                processor[name[len("proc."):]] = value
            else:
                thresholds[name] = value
        if not _known_selection(selection):
            raise ValueError(f"unknown selection preset {selection!r}")
        return {
            "benchmark": benchmark,
            "input_set": input_set,
            "scale": self.scale,
            "selection": selection,
            "thresholds": thresholds,
            "processor": processor,
            "cell": self.cell,
        }


def _validate_axis(axis):
    if axis.name == "selection":
        for value in axis.values:
            if not _known_selection(value):
                raise ValueError(
                    f"selection axis value {value!r} is not a preset"
                )
        return
    if axis.name.startswith("proc."):
        fieldname = axis.name[len("proc."):]
        if fieldname not in PROCESSOR_FIELDS:
            raise ValueError(
                f"axis {axis.name!r} targets no ProcessorConfig field"
            )
        return
    if axis.name not in THRESHOLD_FIELDS:
        raise ValueError(
            f"axis {axis.name!r} is neither a SelectionThresholds field, "
            f"a proc.<field>, nor 'selection'"
        )


def build_selection(preset, threshold_overrides=None):
    """A :class:`SelectionConfig` for a preset plus threshold overrides.

    Resolves through :mod:`repro.compiler.registry` — the same place
    the experiments and the ``repro compile`` CLI look names up.
    """
    thresholds = None
    if threshold_overrides:
        thresholds = SelectionThresholds().with_overrides(
            **threshold_overrides
        )
    try:
        return registry.resolve(preset, thresholds=thresholds)
    except KeyError:
        raise ValueError(f"unknown selection preset {preset!r}") from None


def build_processor(overrides):
    """A :class:`ProcessorConfig` with overrides, or ``None`` for default.

    Raises :class:`ValueError` naming any override that is not a
    :class:`ProcessorConfig` field.
    """
    if not overrides:
        return None
    unknown = sorted(set(overrides) - PROCESSOR_FIELDS)
    if unknown:
        raise ValueError(
            f"unknown processor fields: {', '.join(unknown)}"
        )
    return ProcessorConfig(**overrides).validate()


def run_cell(params):
    """The default cell: baseline → selection → DMP simulation → speedup.

    Returns a JSON-ready dict (the journal stores it verbatim); all
    numbers are exact reproductions of what the monolithic figure
    drivers compute for the same (benchmark, config) pair.  The
    ``ledger`` key is the compact decision-ledger summary — the
    scheduler pops it off the result and journals it as a cell
    annotation (like the cache counters), so the deterministic report
    payload stays byte-identical with or without it.
    """
    from repro.experiments.runner import run_baseline, run_selection
    from repro.obs.explain import cell_ledger_summary
    from repro.obs.ledger import RuntimeLedger, SelectionLedger

    processor = build_processor(params.get("processor"))
    selection = build_selection(
        params["selection"], params.get("thresholds")
    )
    benchmark = params["benchmark"]
    input_set = params.get("input_set", "reduced")
    scale = params.get("scale", 1.0)
    baseline = run_baseline(
        benchmark, input_set=input_set, scale=scale, config=processor
    )
    selection_ledger = SelectionLedger()
    runtime_ledger = RuntimeLedger()
    stats, annotation = run_selection(
        benchmark, selection, input_set=input_set, scale=scale,
        config=processor,
        selection_ledger=selection_ledger,
        runtime_ledger=runtime_ledger,
    )
    return {
        "speedup": stats.speedup_over(baseline),
        "baseline": baseline.as_dict(),
        "stats": stats.as_dict(),
        "diverge_branches": len(annotation),
        "ledger": cell_ledger_summary(
            selection_ledger, runtime_ledger, selection.cost_params
        ),
    }


def prepare_cell(params):
    """Warm shared caches in the scheduler *parent* before a cell forks.

    Builds the cell's artifacts (trace + profile) and the shared
    :class:`~repro.compiler.AnalysisManager` entry for its
    (program, profile) pair, so every forked worker of the same
    (benchmark, input set) inherits the analysis — dominators, loops,
    and memoized path sets — via copy-on-write instead of recomputing
    it per cell.  Repeat calls are cache hits, so the scheduler can
    invoke this per launch.  Workers journal their
    ``analysis_cache_hits_total`` so reports can show the reuse.
    """
    from repro.compiler import shared_manager
    from repro.experiments.runner import get_artifacts

    artifacts = get_artifacts(
        params["benchmark"],
        input_set=params.get("input_set", "reduced"),
        scale=params.get("scale", 1.0),
    )
    shared_manager().analysis(artifacts.program, artifacts.profile)


#: The scheduler looks for this attribute on a cell function and, when
#: present, calls it in the parent before each launch (see Scheduler).
run_cell.prepare = prepare_cell
