"""``campaign watch``: the live, read-only status view over campaign
journals (unsharded and sharded alike)."""

import io
import json
import os
import time

from repro import __main__ as repro_main
from repro.campaign.backends import shard_of
from repro.campaign.journal import Journal
from repro.campaign.spec import Axis, CampaignSpec
from repro.campaign.backends import shard_journal_name
from repro.campaign.watch import (
    RATE_WINDOW_SECONDS,
    build_watch,
    journal_targets,
    render_watch,
    scan_finishes,
    watch_loop,
)

SCALE = 0.1


def _spec(name="watched", benchmarks=("gzip", "twolf")):
    return CampaignSpec(
        name=name,
        benchmarks=benchmarks,
        scale=SCALE,
        selection="exact-freq",
        axes=(Axis("max_instr", (10, 30)),),
        cell="tests.test_campaign_backends:fake_cell",
    )


def _finish(journal, cell_id, attempt=1):
    journal.cell_start(cell_id, attempt)
    journal.cell_finish(cell_id, attempt, 0.01, {
        "speedup": 1.0, "baseline": {}, "stats": {},
    })


class TestScanFinishes:
    def test_counts_finishes_and_retries(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with Journal(path) as journal:
            journal.campaign_start("x", "h", 1)
            _finish(journal, "aaa")
            journal.cell_start("bbb", 1)
            journal.cell_fail("bbb", 1, "crash", "boom", 0.01)
            _finish(journal, "bbb", attempt=2)
        finishes, retries = scan_finishes(path)
        assert len(finishes) == 2
        assert retries == 1
        assert all(isinstance(ts, float) for ts in finishes)

    def test_missing_journal_is_empty(self, tmp_path):
        assert scan_finishes(str(tmp_path / "nope.jsonl")) == ([], 0)

    def test_torn_tail_tolerated(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with Journal(path) as journal:
            journal.campaign_start("x", "h", 1)
            _finish(journal, "aaa")
        with open(path, "a") as handle:
            handle.write('{"type": "cell.fin')
        finishes, _retries = scan_finishes(path)
        assert len(finishes) == 1


class TestJournalTargets:
    def test_unsharded_owns_everything(self, tmp_path):
        spec = _spec()
        path = str(tmp_path / "journal.jsonl")
        with Journal(path) as journal:
            journal.campaign_start(spec.name, spec.spec_hash, 1)
        targets = journal_targets(spec, str(tmp_path))
        assert len(targets) == 1
        label, target_path, owned = targets[0]
        assert label == "all"
        assert target_path == path
        assert len(owned) == len(spec.cells())

    def test_shard_journals_partition_ownership(self, tmp_path):
        spec = _spec()
        for index in range(2):
            path = os.path.join(
                str(tmp_path), shard_journal_name(index, 2))
            with Journal(path) as journal:
                journal.campaign_start(spec.name, spec.spec_hash, 1)
        targets = journal_targets(spec, str(tmp_path))
        assert [label for label, _, _ in targets] == [
            "shard 0/2", "shard 1/2"]
        owned_ids = [
            {cell.cell_id for cell in owned}
            for _, _, owned in targets
        ]
        assert not (owned_ids[0] & owned_ids[1])
        assert len(owned_ids[0] | owned_ids[1]) == len(spec.cells())
        for index, ids in enumerate(owned_ids):
            assert all(shard_of(i, 2) == index for i in ids)


class TestBuildWatch:
    def test_progress_rate_and_eta(self, tmp_path):
        spec = _spec()
        cells = spec.cells()
        path = str(tmp_path / "journal.jsonl")
        with Journal(path) as journal:
            journal.campaign_start(spec.name, spec.spec_hash, 1)
            _finish(journal, cells[0].cell_id)
        now = time.time() + 1.0
        frame = build_watch(spec, str(tmp_path), now=now)
        assert frame["owned_cells"] == len(cells)
        assert frame["settled_cells"] == 1
        assert frame["pending_cells"] == len(cells) - 1
        assert frame["cells_per_sec"] > 0
        assert frame["eta_seconds"] > 0

    def test_finishes_outside_window_do_not_count(self, tmp_path):
        spec = _spec()
        cells = spec.cells()
        path = str(tmp_path / "journal.jsonl")
        with Journal(path) as journal:
            journal.campaign_start(spec.name, spec.spec_hash, 1)
            _finish(journal, cells[0].cell_id)
        frame = build_watch(spec, str(tmp_path),
                            now=time.time() + RATE_WINDOW_SECONDS + 10)
        assert frame["cells_per_sec"] == 0.0
        assert frame["eta_seconds"] is None

    def test_sharded_rows(self, tmp_path):
        spec = _spec()
        cells = spec.cells()
        by_shard = {0: [], 1: []}
        for cell in cells:
            by_shard[shard_of(cell.cell_id, 2)].append(cell)
        for index in range(2):
            path = os.path.join(
                str(tmp_path), shard_journal_name(index, 2))
            with Journal(path) as journal:
                journal.campaign_start(spec.name, spec.spec_hash, 1)
                for cell in by_shard[index]:
                    _finish(journal, cell.cell_id)
        frame = build_watch(spec, str(tmp_path))
        assert len(frame["rows"]) == 2
        assert frame["settled_cells"] == len(cells)
        assert frame["pending_cells"] == 0
        for row in frame["rows"]:
            assert row["done"] == row["owned"]

    def test_render_mentions_retries_and_progress(self, tmp_path):
        spec = _spec()
        cells = spec.cells()
        path = str(tmp_path / "journal.jsonl")
        with Journal(path) as journal:
            journal.campaign_start(spec.name, spec.spec_hash, 1)
            journal.cell_start(cells[0].cell_id, 1)
            journal.cell_fail(cells[0].cell_id, 1, "crash", "x", 0.01)
            _finish(journal, cells[0].cell_id, attempt=2)
        text = render_watch(build_watch(spec, str(tmp_path)))
        assert f"campaign {spec.name!r}" in text
        assert "1 retries" in text
        assert f"1/{len(cells)}" in text
        assert "cells/s" in text


class TestWatchLoop:
    def test_once_renders_a_single_frame(self, tmp_path):
        spec = _spec()
        path = str(tmp_path / "journal.jsonl")
        with Journal(path) as journal:
            journal.campaign_start(spec.name, spec.spec_hash, 1)
        stream = io.StringIO()
        code = watch_loop(spec, str(tmp_path), once=True,
                          stream=stream, clear=False)
        assert code == 0
        assert "cells settled" in stream.getvalue()

    def test_cli_watch_once(self, tmp_path, capsys):
        spec = _spec()
        results = tmp_path / "results"
        directory = results / spec.name
        directory.mkdir(parents=True)
        spec.dump(str(directory / "spec.json"))
        with Journal(str(directory / "journal.jsonl")) as journal:
            journal.campaign_start(spec.name, spec.spec_hash, 1)
        code = repro_main.main([
            "campaign", "watch", spec.name,
            "--results-dir", str(results), "--once",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cells settled" in out
        assert "eta" in out
