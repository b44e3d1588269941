"""The persistent artifact cache: keys, invalidation, corruption
tolerance, and the single-pass artifact-build guarantee."""

import os
import pickle
import shutil

import pytest

from repro.emulator import Emulator
from repro.exec import artifact_cache
from repro.experiments import runner
from repro.obs import MetricsRegistry, telemetry
from repro.profiling import Profiler
from repro.workloads import generator, load_benchmark, suite

SCALE = 0.1


def _key(name="gzip", input_set="reduced", scale=SCALE, profiler=None):
    profiler = profiler or Profiler()
    return artifact_cache.artifact_key(
        name, input_set, scale, profiler.fingerprint()
    )


def _forbid_input_building(monkeypatch):
    """Make generating input memory or emulating raise."""

    def forbidden(*args, **kwargs):
        raise AssertionError("input memory or emulation on a warm path")

    monkeypatch.setattr(suite, "fill_memory", forbidden)
    monkeypatch.setattr(generator, "fill_memory", forbidden)
    monkeypatch.setattr(Emulator, "run", forbidden)


class TestKeys:
    def test_key_is_stable(self):
        assert _key() == _key()

    def test_program_change_misses(self):
        assert _key(name="gzip") != _key(name="twolf")

    def test_input_set_change_misses(self):
        assert _key(input_set="reduced") != _key(input_set="train")

    def test_scale_change_misses(self):
        assert _key(scale=0.1) != _key(scale=0.2)

    def test_profiler_config_change_misses(self):
        from repro.branchpred import PerceptronPredictor

        small = Profiler(
            predictor=PerceptronPredictor(num_perceptrons=16)
        )
        assert _key() != _key(profiler=small)

    def test_fingerprint_reflects_geometry(self):
        from repro.branchpred import PerceptronPredictor

        default = Profiler().fingerprint()
        small = Profiler(
            predictor=PerceptronPredictor(num_perceptrons=16)
        ).fingerprint()
        assert default != small
        assert "PerceptronPredictor" in default
        assert "JRSConfidenceEstimator" in default

    def test_source_change_misses(self, tmp_path, monkeypatch):
        copy = tmp_path / "workloads"
        shutil.copytree(
            os.path.dirname(suite.__file__), copy,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        dirs = artifact_cache._package_dirs()
        dirs["repro.workloads"] = str(copy)
        monkeypatch.setattr(artifact_cache, "_package_dirs", lambda: dirs)

        def key_of_copy():
            artifact_cache._code_digest.cache_clear()
            try:
                return _key()
            finally:
                artifact_cache._code_digest.cache_clear()

        original = _key()
        assert key_of_copy() == original
        generator_source = copy / "generator.py"
        data = bytearray(generator_source.read_bytes())
        data[-1] ^= 0x01
        generator_source.write_bytes(bytes(data))
        assert key_of_copy() != original

    def test_key_builds_no_input_memory(self, monkeypatch):
        expected = _key()
        _forbid_input_building(monkeypatch)
        monkeypatch.setattr(suite, "_program_cache", {})
        artifact_cache._code_digest.cache_clear()
        load_benchmark("gzip", scale=SCALE)
        assert _key() == expected


class TestRoundtrip:
    def test_store_load_roundtrip(self):
        artifacts = runner.get_artifacts("gzip", scale=SCALE)
        key = _key()
        loaded = artifact_cache.load(key)
        assert loaded is not None
        trace, profile = loaded
        assert list(trace.rows()) == list(artifacts.trace.rows())
        assert profile.total_branches \
            == artifacts.profile.total_branches
        assert profile.measured_acc_conf \
            == artifacts.profile.measured_acc_conf
        runner.clear_cache()

    def test_disk_hit_skips_emulation(self, monkeypatch):
        first = runner.get_artifacts("gzip", scale=SCALE)  # populate disk
        runner.clear_cache()                              # drop in-memory
        monkeypatch.setattr(suite, "_program_cache", {})  # as a new process
        _forbid_input_building(monkeypatch)
        registry = MetricsRegistry()
        with telemetry(metrics=registry):
            hit = runner.get_artifacts("gzip", scale=SCALE)
        assert registry.get("emulator_runs_total") is None
        assert registry.counter("cache_disk_hits_total").value == 1
        assert list(hit.trace.rows()) == list(first.trace.rows())
        assert pickle.dumps(hit.profile) == pickle.dumps(first.profile)
        runner.clear_cache()

    def test_single_emulation_per_workload(self):
        registry = MetricsRegistry()
        with telemetry(metrics=registry):
            runner.clear_cache()
            runner.get_artifacts("gzip", scale=SCALE)
            runner.get_artifacts("gzip", scale=SCALE)
            runner.run_baseline("gzip", scale=SCALE)
        assert registry.counter("emulator_runs_total").value == 1
        runner.clear_cache()

    def test_disabled_cache_stores_nothing(self):
        artifact_cache.set_disabled(True)
        try:
            key = _key()
            assert artifact_cache.store(key, [], None) is None
            assert artifact_cache.load(key) is None
            assert not os.path.isdir(artifact_cache.cache_dir()) \
                or not os.listdir(artifact_cache.cache_dir())
        finally:
            artifact_cache.set_disabled(None)


class TestCorruption:
    def _entry_paths(self):
        root = artifact_cache.cache_dir()
        return [
            os.path.join(root, name)
            for name in os.listdir(root)
            if name.endswith(artifact_cache.ENTRY_SUFFIX)
        ]

    def _corrupt_and_reload(self, mutate):
        first = runner.get_artifacts("gzip", scale=SCALE)
        runner.clear_cache()
        (path,) = self._entry_paths()
        mutate(path)
        registry = MetricsRegistry()
        with telemetry(metrics=registry):
            rebuilt = runner.get_artifacts("gzip", scale=SCALE)
        runner.clear_cache()
        assert registry.counter("cache_disk_corrupt_total").value == 1
        # The rebuild regenerated identical artifacts.
        assert registry.counter("emulator_runs_total").value == 1
        assert list(rebuilt.trace.rows()) == list(first.trace.rows())
        return rebuilt

    def test_truncated_entry_rebuilds(self):
        def truncate(path):
            blob = open(path, "rb").read()
            open(path, "wb").write(blob[: len(blob) // 2])

        self._corrupt_and_reload(truncate)

    def test_flipped_byte_rebuilds(self):
        def flip(path):
            blob = bytearray(open(path, "rb").read())
            blob[-1] ^= 0xFF
            open(path, "wb").write(bytes(blob))

        self._corrupt_and_reload(flip)

    def test_bad_magic_rebuilds(self):
        def stomp(path):
            blob = bytearray(open(path, "rb").read())
            blob[:8] = b"NOTMAGIC"
            open(path, "wb").write(bytes(blob))

        self._corrupt_and_reload(stomp)

    def test_corrupt_entry_is_removed(self):
        runner.get_artifacts("gzip", scale=SCALE)
        runner.clear_cache()
        (path,) = self._entry_paths()
        open(path, "wb").write(b"garbage")
        assert artifact_cache.load(_key()) is None
        assert not os.path.exists(path)


class TestMaintenance:
    def test_info_counts_entries(self):
        runner.get_artifacts("gzip", scale=SCALE)
        runner.clear_cache()
        info = artifact_cache.info()
        assert info["entries"] == 1
        assert info["bytes"] > 0
        assert info["enabled"]

    def test_clear_removes_entries(self):
        runner.get_artifacts("gzip", scale=SCALE)
        runner.clear_cache()
        assert artifact_cache.clear() == 1
        assert artifact_cache.info()["entries"] == 0

    def test_env_var_moves_the_cache(self, tmp_path, monkeypatch):
        other = tmp_path / "elsewhere"
        monkeypatch.setenv(artifact_cache.ENV_CACHE_DIR, str(other))
        assert artifact_cache.cache_dir() == str(other)

    def test_cli_cache_info_and_clear(self, capsys):
        from repro.__main__ import main

        runner.get_artifacts("gzip", scale=SCALE)
        runner.clear_cache()
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "1 entries" in out
        assert main(["cache", "clear"]) == 0
        out = capsys.readouterr().out
        assert "removed 1" in out
        assert artifact_cache.info()["entries"] == 0

    def test_cli_rejects_unknown_cache_action(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["cache", "destroy"])
