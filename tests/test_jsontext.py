"""The response writers against the ``json.dumps`` calls they replace.

``annotation_io.dumps`` must equal
``json.dumps(annotation_to_dict(a), indent=2)`` and
``jsontext.dumps_sorted`` ``json.dumps(d, indent=2, sort_keys=True)``,
byte for byte: ``compile``, ``explain --json`` and the daemon's
responses are those bytes.
"""

import enum
import json
import math

import numpy as np
import pytest

from repro.compiler import registry
from repro.core import DivergeSelector, annotation_io
from repro.core.marks import (
    BinaryAnnotation,
    CFMKind,
    CFMPoint,
    DivergeBranch,
    DivergeKind,
)
from repro.experiments.runner import get_artifacts
from repro.jsontext import dumps_sorted, scalar
from repro.obs.explain import build_explain
from repro.workloads import BENCHMARK_NAMES

#: The presets perfbench's serve-mix requests (``SERVE_POOL``).
SERVED_PRESETS = ("all-best-heur", "all-best-cost", "exact-freq")


def _annotation_reference(annotation):
    return json.dumps(annotation_io.annotation_to_dict(annotation), indent=2)


def _sorted_reference(data):
    return json.dumps(data, indent=2, sort_keys=True)


class _Pc(int):
    pass


class _Prob(float):
    pass


class _Name(str):
    pass


class _Level(enum.IntEnum):
    LOW = 3


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_writers_match_json_on_every_served_preset(name):
    artifacts = get_artifacts(name, scale=0.1)
    for preset in SERVED_PRESETS:
        annotation = DivergeSelector(
            artifacts.program, artifacts.profile, registry.resolve(preset)
        ).select()
        assert annotation_io.dumps(annotation) \
            == _annotation_reference(annotation)
        data = build_explain(name, registry.resolve(preset), scale=0.1)
        assert dumps_sorted(data) == _sorted_reference(data)


def _branch(**fields):
    defaults = dict(
        branch_pc=4, kind=DivergeKind.SIMPLE_HAMMOCK,
        cfm_points=(CFMPoint(pc=9, kind=CFMKind.EXACT),),
    )
    return DivergeBranch(**{**defaults, **fields})


@pytest.mark.parametrize("branches", [
    [],
    [_branch(cfm_points=(), select_registers=frozenset())],
    [_branch(cfm_points=(
        CFMPoint(pc=9, kind=CFMKind.APPROXIMATE, merge_prob=0.1234567),
        CFMPoint(pc=None, kind=CFMKind.RETURN, merge_prob=1),
    ), select_registers=frozenset({7, 2, 30}))],
    [_branch(source="pass-ü→∂ \"q\"\n"), _branch(branch_pc=11)],
    [_branch(branch_pc=_Pc(6), source=_Name("exact"), loop_body_size=_Pc(3),
             cfm_points=(CFMPoint(pc=_Level.LOW, kind=CFMKind.EXACT,
                                  merge_prob=_Prob(0.5)),))],
    [_branch(kind=DivergeKind.LOOP, loop_direction=True, loop_body_size=12,
             always_predicate=True)],
], ids=["empty", "no-cfm-no-regs", "return-cfm", "non-ascii",
        "subclasses", "loop"])
def test_annotation_writer_edge_cases(branches):
    annotation = BinaryAnnotation("prög")
    for branch in branches:
        annotation.add(branch)
    text = annotation_io.dumps(annotation)
    assert text == _annotation_reference(annotation)
    assert annotation_io.dumps(annotation_io.loads(text)) == text


@pytest.mark.parametrize("data", [
    {},
    [],
    {"a": [], "b": {}, "c": [[], {}], "d": ()},
    [math.nan, math.inf, -math.inf, 0.1, -0.0, 1e300, 5e-324],
    {"nan": math.nan, "inf": {"pos": math.inf, "neg": -math.inf}},
    {"é": "ü→∂", "ctl": "\x00\t\"\\", "emoji": "\U0001f600"},
    {"np": np.float64(0.25), "enum": _Level.LOW, "int": _Pc(-7),
     "float": _Prob(2.5), "str": _Name("x"), "big": 2 ** 70},
    {3: "int", 1: "keys"},
    {1.5: "float", -0.5: "keys"},
    {True: "bool"},
    {None: "none"},
    {_Name("b"): 1, "a": [True, False, None, (1, "2", [3.0])]},
    "top-level string",
    None,
    [{"z": 1, "y": {"x": [{"w": None}]}}],
], ids=lambda data: type(data).__name__)
def test_sorted_writer_edge_cases(data):
    assert dumps_sorted(data) == _sorted_reference(data)


@pytest.mark.parametrize("value", [
    {1, 2}, np.int64(3), object(), {"a": b"bytes"}, {(1, 2): "tuple key"},
    {1: "mixed", "a": "keys"},
])
def test_sorted_writer_rejects_what_json_rejects(value):
    with pytest.raises(TypeError):
        _sorted_reference(value)
    with pytest.raises(TypeError):
        dumps_sorted(value)


def test_scalar_matches_json():
    for value in ("", "ü", None, True, False, 0, -1, 2 ** 64, 0.1,
                  math.nan, -math.inf, _Level.LOW, np.float64(1.5)):
        assert scalar(value) == json.dumps(value)
    with pytest.raises(TypeError):
        scalar([1])
