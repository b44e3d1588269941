"""What a fresh process imports before (and while) it works.

Each figure reproduction is one fresh ``python -m repro`` process, so
every module it imports is paid for on every start.  The CLI loads a
figure driver only when that artifact is dispatched, the ``repro.obs``
package re-exports only what every run uses, and the trace-event
classes load only when a tracer is enabled.  These tests run each
import in a new interpreter, since this one has long loaded
everything.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

from repro import __main__ as cli
from repro.campaign.cli import BUILTIN_SPECS
from repro.campaign.spec import resolve_cell_fn

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))

#: Modules a figure run never executes unless it traces, writes a
#: manifest, explains, melds, or runs a campaign or the daemon.
NEVER_AT_START = (
    "repro.obs.events",
    "repro.obs.explain",
    "repro.obs.ledger",
    "repro.obs.manifest",
    "repro.obs.trace_report",
    "repro.compiler.transform",
)

#: The response writers: only ``compile``, ``explain --json`` and the
#: daemon print the documents they write.
RESPONSE_WRITERS = ("repro.jsontext", "repro.core.annotation_io")

#: The ``repro.experiments`` modules every figure driver runs.
EAGER_EXPERIMENTS = ("repro.experiments.runner", "repro.experiments.configs")


def _loaded_modules(code, tmp_path):
    """Run ``code`` in a fresh interpreter; the ``repro`` modules it
    left in ``sys.modules``."""
    script = (
        code
        + "\nimport json, sys\n"
        + "print(json.dumps(sorted(m for m in sys.modules"
        + " if m.startswith('repro'))))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "artifact-cache")
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True,
        capture_output=True, text=True, timeout=120,
    )
    return set(json.loads(out.stdout.splitlines()[-1]))


def test_cli_start_loads_no_unused_module(tmp_path):
    loaded = _loaded_modules(
        "import repro.__main__, repro.exec.engine", tmp_path)
    assert not loaded & set(NEVER_AT_START)
    assert not loaded & set(RESPONSE_WRITERS)
    drivers = {
        name for name in loaded
        if name.startswith("repro.experiments.")
        and name not in EAGER_EXPERIMENTS
    }
    assert not drivers
    assert not {
        name for name in loaded
        if name.startswith(("repro.campaign", "repro.serve"))
    }
    assert set(EAGER_EXPERIMENTS) <= loaded


def test_untraced_selection_run_loads_no_events(tmp_path):
    loaded = _loaded_modules(
        "from repro.experiments.configs import named_config\n"
        "from repro.experiments.runner import run_baseline, run_selection\n"
        "base = run_baseline('gzip', scale=0.05)\n"
        "stats, marks = run_selection('gzip',"
        " named_config('all-best-heur'), scale=0.05)\n"
        "assert len(marks) and stats.speedup_over(base) > 0\n",
        tmp_path,
    )
    assert "repro.uarch.vectorized" in loaded
    assert "repro.obs.events" not in loaded


def test_campaign_scheduler_holds_cell_modules_before_forking(tmp_path):
    # Workers fork from the scheduler process: what it has imported,
    # a reused or respawned worker does not compile again.
    loaded = _loaded_modules("import repro.campaign.scheduler", tmp_path)
    assert {
        "repro.experiments.runner",
        "repro.obs.explain",
        "repro.obs.ledger",
    } <= loaded


def test_campaign_run_start_loads_no_response_writer(tmp_path):
    loaded = _loaded_modules(
        "import repro.__main__, repro.campaign.cli", tmp_path)
    assert "repro.campaign.scheduler" in loaded
    assert not loaded & set(RESPONSE_WRITERS)


@pytest.mark.parametrize("name", cli.ARTIFACTS)
def test_every_artifact_names_a_driver(name):
    module = importlib.import_module("repro.experiments." + name)
    assert callable(module.run)
    assert callable(module.format_result)


@pytest.mark.parametrize("name", sorted(BUILTIN_SPECS))
def test_every_builtin_campaign_makes_a_spec(name):
    spec = resolve_cell_fn(BUILTIN_SPECS[name])(
        scale=0.1, benchmarks=["gzip"])
    assert spec.cells()


def test_help_lists_every_artifact(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--help"])
    assert exit_info.value.code == 0
    choices = (
        "{fig10,fig5,fig6,fig7,fig8,fig9,meldcompare,priorwork,table1,"
        "table2,all,ablations,coverage,trace-report,cache}"
    )
    assert choices in capsys.readouterr().out
