"""Run manifests: one JSON document describing one experiment run.

A manifest answers "what exactly produced this result?": the command
and arguments, benchmark set and scale, the git revision and python
version, per-span-name wall-clock timings, and a snapshot of the metrics
registry.  ``python -m repro <artifact> --manifest PATH`` writes one,
and ``python -m repro all`` writes one combined manifest for the whole
run.
"""

import datetime
import json
import os
import platform
import subprocess
import sys

#: Schema tag so downstream tooling can detect format changes.
MANIFEST_SCHEMA = "dmp-repro/run-manifest/v1"


def git_revision(cwd=None):
    """The current git commit hash, or ``None`` outside a checkout."""
    try:
        output = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if output.returncode != 0:
        return None
    return output.stdout.strip() or None


def build_manifest(command, *, args=None, benchmarks=None, scale=None,
                   phases=None, metrics=None):
    """Assemble a manifest dict.

    ``phases`` is a :class:`~repro.obs.spans.SpanTree`, written as its
    :meth:`~repro.obs.spans.SpanTree.by_name` table; ``metrics`` a
    :class:`~repro.obs.metrics.MetricsRegistry`, written as its
    :meth:`~repro.obs.metrics.MetricsRegistry.as_dict` snapshot.
    """
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "command": command,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "git_rev": git_revision(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
    }
    if args is not None:
        manifest["args"] = dict(args)
    if benchmarks is not None:
        manifest["benchmarks"] = list(benchmarks)
    if scale is not None:
        manifest["scale"] = scale
    if phases is not None:
        manifest["phases"] = phases.by_name()
    if metrics is not None:
        manifest["metrics"] = metrics.as_dict()
    return manifest


def write_manifest(path, manifest):
    """Write ``manifest`` as indented JSON; returns ``path``."""
    from repro.ioutil import ensure_parent

    ensure_parent(path)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def read_manifest(path):
    """Load a manifest written by :func:`write_manifest`."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
