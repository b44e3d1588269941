"""Campaign execution backends: the local pool extraction, shard
partitioning, shard journals and ``campaign merge``."""

import json
import os

import pytest

from repro import __main__ as repro_main
from repro.campaign import (
    Axis,
    CampaignSpec,
    Journal,
    LocalPoolBackend,
    Scheduler,
    ShardedBackend,
    find_shard_journals,
    make_backend,
    merge_shard_journals,
    replay,
    shard_of,
)
from repro.campaign.backends import shard_journal_name
from repro.obs import MetricsRegistry, SpanTree, telemetry

SCALE = 0.1


# -- cell functions (module-level: workers import them by path) --------


def fake_cell(params):
    from repro.campaign.spec import content_hash

    value = int(content_hash(params), 16) % 1000 / 1000.0
    return {
        "speedup": value,
        "baseline": {"ipc": 1.0},
        "stats": {"ipc": 1.0 + value},
    }


def _spec(name="shards", benchmarks=("gzip", "twolf"),
          cell="tests.test_campaign_backends:fake_cell"):
    return CampaignSpec(
        name=name,
        benchmarks=benchmarks,
        scale=SCALE,
        selection="exact-freq",
        axes=(Axis("max_instr", (10, 30, 50)),),
        cell=cell,
    )


def _run_scheduler(spec, journal_path, backend=None):
    state = replay(journal_path)
    with telemetry(metrics=MetricsRegistry(), spans=SpanTree()):
        with Journal(journal_path) as journal:
            journal.campaign_start(spec.name, spec.spec_hash, 1)
            scheduler = Scheduler(
                spec, journal, backoff=0.0, backend=backend,
            )
            return scheduler.run(state)


class TestShardPartition:
    def test_partition_is_disjoint_and_complete(self):
        cells = _spec().cells()
        shards = 3
        owned = [
            {c.cell_id for c in cells
             if shard_of(c.cell_id, shards) == index}
            for index in range(shards)
        ]
        union = set().union(*owned)
        assert union == {c.cell_id for c in cells}
        assert sum(len(part) for part in owned) == len(cells)

    def test_shard_of_is_a_pure_function_of_the_id(self):
        assert shard_of("00f", 4) == shard_of("00f", 4)
        assert shard_of("00f", 1) == 0
        with pytest.raises(ValueError):
            shard_of("00f", 0)

    def test_sharded_backend_validates(self):
        with pytest.raises(ValueError):
            ShardedBackend(0, 0)
        with pytest.raises(ValueError):
            ShardedBackend(2, 2)
        with pytest.raises(ValueError):
            ShardedBackend(2, -1)

    def test_make_backend(self):
        assert isinstance(make_backend("local"), LocalPoolBackend)
        backend = make_backend("sharded", shards=2, shard_index=1)
        assert isinstance(backend, ShardedBackend)
        assert backend.journal_name() == "journal.shard-1-of-2.jsonl"
        with pytest.raises(ValueError):
            make_backend("sharded")
        with pytest.raises(ValueError):
            make_backend("slurm")

    def test_local_backend_owns_everything(self):
        backend = LocalPoolBackend()
        assert all(backend.owns(c) for c in _spec().cells())
        assert backend.journal_name() == "journal.jsonl"


class TestShardJournals:
    def test_find_sorts_by_index(self, tmp_path):
        for index in (2, 0, 1):
            (tmp_path / shard_journal_name(index, 3)).write_text("")
        found = find_shard_journals(tmp_path)
        assert [(i, n) for i, n, _ in found] \
            == [(0, 3), (1, 3), (2, 3)]

    def test_find_rejects_mixed_shard_counts(self, tmp_path):
        (tmp_path / shard_journal_name(0, 2)).write_text("")
        (tmp_path / shard_journal_name(1, 3)).write_text("")
        with pytest.raises(ValueError, match="disagree"):
            find_shard_journals(tmp_path)

    def test_merge_needs_shard_journals(self, tmp_path):
        with pytest.raises(ValueError, match="no shard journals"):
            merge_shard_journals(tmp_path)

    def test_merge_refuses_existing_journal_without_force(
            self, tmp_path):
        (tmp_path / shard_journal_name(0, 1)).write_text(
            '{"type":"campaign.start","spec_hash":"x"}\n'
        )
        (tmp_path / "journal.jsonl").write_text("{}\n")
        with pytest.raises(ValueError, match="--force"):
            merge_shard_journals(tmp_path)
        summary = merge_shard_journals(tmp_path, force=True)
        assert summary["records"] == 1
        assert summary["spec_hash"] == "x"

    def test_merge_refuses_mixed_spec_hashes(self, tmp_path):
        (tmp_path / shard_journal_name(0, 2)).write_text(
            '{"type":"campaign.start","spec_hash":"a"}\n'
        )
        (tmp_path / shard_journal_name(1, 2)).write_text(
            '{"type":"campaign.start","spec_hash":"b"}\n'
        )
        with pytest.raises(ValueError, match="mix spec hashes"):
            merge_shard_journals(tmp_path)

    def test_merge_skips_torn_tail_lines(self, tmp_path):
        (tmp_path / shard_journal_name(0, 1)).write_text(
            '{"type":"campaign.start","spec_hash":"x"}\n'
            '{"type":"cell.fini'  # torn write
        )
        summary = merge_shard_journals(tmp_path)
        assert summary["records"] == 1
        assert summary["corrupt_lines"] == 1


class TestShardedExecution:
    def test_sharded_schedulers_cover_the_spec_exactly_once(
            self, tmp_path):
        spec = _spec()
        all_results = {}
        for index in range(2):
            backend = ShardedBackend(2, index)
            journal_path = str(tmp_path / backend.journal_name())
            summary = _run_scheduler(spec, journal_path,
                                     backend=backend)
            assert not summary["interrupted"]
            overlap = set(summary["results"]) & set(all_results)
            assert not overlap
            all_results.update(summary["results"])
        assert set(all_results) == {c.cell_id for c in spec.cells()}

    def test_merged_report_is_byte_identical_to_unsharded(
            self, tmp_path, capsys):
        sharded = str(tmp_path / "sharded")
        unsharded = str(tmp_path / "unsharded")
        spec_file = tmp_path / "shards.json"
        spec_file.write_text(json.dumps(_spec().as_dict()) + "\n")
        for index in range(2):
            assert repro_main.main(
                ["campaign", "run", str(spec_file),
                 "--results-dir", sharded,
                 "--shards", "2", "--shard-index", str(index)]
            ) == 0
        assert repro_main.main(
            ["campaign", "run", str(spec_file),
             "--results-dir", unsharded]
        ) == 0
        capsys.readouterr()

        # Before the merge, report warns about unmerged shards.
        assert repro_main.main(
            ["campaign", "report", "shards", "--results-dir", sharded]
        ) == 0
        captured = capsys.readouterr()
        assert "unmerged shard journal" in captured.err

        assert repro_main.main(
            ["campaign", "merge", "shards", "--results-dir", sharded]
        ) == 0
        capsys.readouterr()
        assert repro_main.main(
            ["campaign", "report", "shards", "--results-dir", sharded]
        ) == 0
        merged_report = capsys.readouterr().out
        assert repro_main.main(
            ["campaign", "report", "shards", "--results-dir", unsharded]
        ) == 0
        clean_report = capsys.readouterr().out
        assert merged_report == clean_report
        assert merged_report.strip()

    def test_shard_run_resumes_with_the_same_flags(self, tmp_path,
                                                   capsys):
        results = str(tmp_path / "campaigns")
        spec_file = tmp_path / "shards.json"
        spec_file.write_text(json.dumps(_spec().as_dict()) + "\n")
        shard_args = ["--shards", "1", "--shard-index", "0"]
        assert repro_main.main(
            ["campaign", "run", str(spec_file), "--results-dir",
             results, "--max-cells", "2"] + shard_args
        ) == 3
        assert repro_main.main(
            ["campaign", "resume", "shards", "--results-dir", results]
            + shard_args
        ) == 0
        journal = os.path.join(
            results, "shards", shard_journal_name(0, 1)
        )
        state = replay(journal)
        assert len(state.results) == len(_spec().cells())

    def test_shards_flag_needs_shard_index(self, tmp_path):
        spec_file = tmp_path / "shards.json"
        spec_file.write_text(json.dumps(_spec().as_dict()) + "\n")
        with pytest.raises(SystemExit):
            repro_main.main(
                ["campaign", "run", str(spec_file), "--results-dir",
                 str(tmp_path), "--shards", "2"]
            )
