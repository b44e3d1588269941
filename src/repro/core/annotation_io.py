"""Serialization of binary annotations.

The paper's toolflow attaches "a list of diverge branches and CFM
points ... to the binary and passed to [the] performance simulator"
(§6.1).  This module provides that artifact: a JSON representation of a
:class:`~repro.core.marks.BinaryAnnotation` that round-trips exactly,
plus helpers for bundling a program image and its annotation into one
"annotated binary" file.
"""

import json

from repro.core.marks import (
    BinaryAnnotation,
    CFMKind,
    CFMPoint,
    DivergeBranch,
    DivergeKind,
)
from repro.errors import SelectionError
from repro.jsontext import scalar, string

FORMAT = "dmp-annotation"
VERSION = 1


def annotation_to_dict(annotation):
    """Plain-dict form of an annotation (stable field order)."""
    return {
        "format": FORMAT,
        "version": VERSION,
        "program": annotation.program_name,
        "branches": [
            {
                "pc": branch.branch_pc,
                "kind": branch.kind.value,
                "cfm_points": [
                    {
                        "pc": point.pc,
                        "kind": point.kind.value,
                        "merge_prob": round(point.merge_prob, 6),
                    }
                    for point in branch.cfm_points
                ],
                "select_registers": sorted(branch.select_registers),
                "always_predicate": branch.always_predicate,
                "loop_direction": branch.loop_direction,
                "loop_body_size": branch.loop_body_size,
                "source": branch.source,
            }
            for branch in annotation
        ],
    }


def annotation_from_dict(data):
    """Rebuild a :class:`BinaryAnnotation` from its dict form."""
    if data.get("format") != FORMAT:
        raise SelectionError("not a DMP annotation document")
    if data.get("version") != VERSION:
        raise SelectionError(
            f"unsupported annotation version {data.get('version')}"
        )
    annotation = BinaryAnnotation(data["program"])
    for entry in data["branches"]:
        cfm_points = tuple(
            CFMPoint(
                pc=point["pc"],
                kind=CFMKind(point["kind"]),
                merge_prob=point["merge_prob"],
            )
            for point in entry["cfm_points"]
        )
        annotation.add(
            DivergeBranch(
                branch_pc=entry["pc"],
                kind=DivergeKind(entry["kind"]),
                cfm_points=cfm_points,
                select_registers=frozenset(entry["select_registers"]),
                always_predicate=entry["always_predicate"],
                loop_direction=entry["loop_direction"],
                loop_body_size=entry["loop_body_size"],
                source=entry.get("source", ""),
            )
        )
    return annotation


#: The document up to the branch list, which is all it varies in.
_HEAD = (
    f'{{\n  "format": {string(FORMAT)},\n  "version": {scalar(VERSION)},'
    f'\n  "program": '
)
_BRANCH = (
    '\n    {\n      "pc": %s,\n      "kind": %s,\n      "cfm_points": %s,'
    '\n      "select_registers": %s,\n      "always_predicate": %s,'
    '\n      "loop_direction": %s,\n      "loop_body_size": %s,'
    '\n      "source": %s\n    }'
)
_POINT = (
    '\n        {\n          "pc": %s,\n          "kind": %s,'
    '\n          "merge_prob": %s\n        }'
)


def _list(items, close):
    """A JSON list of already-indented items (``[]`` when empty)."""
    return "[" + ",".join(items) + close if items else "[]"


def dumps(annotation):
    """Annotation → JSON text.

    A fixed-schema writer: its output is byte-equal to
    ``json.dumps(annotation_to_dict(annotation), indent=2)``, without
    the pure-Python encoder ``json`` uses when ``indent`` is set.
    """
    branches = [
        _BRANCH % (
            scalar(branch.branch_pc),
            string(branch.kind.value),
            _list([
                _POINT % (
                    scalar(point.pc),
                    string(point.kind.value),
                    scalar(round(point.merge_prob, 6)),
                )
                for point in branch.cfm_points
            ], "\n      ]"),
            _list([
                "\n        " + scalar(register)
                for register in sorted(branch.select_registers)
            ], "\n      ]"),
            scalar(branch.always_predicate),
            scalar(branch.loop_direction),
            scalar(branch.loop_body_size),
            scalar(branch.source),
        )
        for branch in annotation
    ]
    return (
        _HEAD + scalar(annotation.program_name) + ',\n  "branches": '
        + _list(branches, "\n  ]") + "\n}"
    )


def loads(text):
    """JSON text → annotation."""
    return annotation_from_dict(json.loads(text))


def save(annotation, path):
    """Write the annotation next to its binary."""
    with open(path, "w") as handle:
        handle.write(dumps(annotation))


def load(path):
    with open(path) as handle:
        return loads(handle.read())


def validate_against_program(annotation, program):
    """Check an annotation is structurally consistent with a program.

    Every marked pc must hold a conditional branch; every concrete CFM
    pc must be a valid instruction index.  Returns a list of problem
    strings (empty = valid) so callers can choose to raise or report.
    """
    problems = []
    for branch in annotation:
        if not 0 <= branch.branch_pc < len(program):
            problems.append(f"branch pc {branch.branch_pc} out of range")
            continue
        if not program[branch.branch_pc].is_conditional_branch:
            problems.append(
                f"pc {branch.branch_pc} is not a conditional branch"
            )
        for point in branch.cfm_points:
            if point.pc is not None and not 0 <= point.pc < len(program):
                problems.append(
                    f"CFM pc {point.pc} of branch {branch.branch_pc} "
                    f"out of range"
                )
    return problems
