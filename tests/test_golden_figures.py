"""Golden guard: figures 6 and 8 and table 2, byte for byte.

``python -m repro <figure> --scale 0.1`` must print exactly
``tests/golden/<figure>.txt`` under ``--jobs 1`` and under ``--jobs 2``.
The goldens are the output of::

    PYTHONPATH=src python -m repro fig6 --scale 0.1 --no-disk-cache \\
        > tests/golden/fig6.txt

(and the same for ``fig8`` and ``table2``).  The runs here share one
artifact cache, so all but the first are warm; the output must not
depend on it.  These drivers simulate many traces under repeated
annotations, so the goldens also pin what the simulator's memo must
not change.  The golden files are only read here.
"""

import os

import pytest

from tests.test_golden_fig5 import ROOT, _repro

FIGURES = ("fig6", "fig8", "table2")


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden-cache")


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("figure", FIGURES)
def test_figure_matches_golden(figure, jobs, cache_dir):
    with open(os.path.join(ROOT, "tests", "golden", f"{figure}.txt"),
              "rb") as handle:
        golden = handle.read()
    assert _repro([figure, "--scale", "0.1", "--jobs", jobs],
                  cache_dir) == golden
