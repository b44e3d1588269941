"""Compact trace encoding and the fused trace+profile emulator pass."""

import hashlib
import pickle

import pytest

from repro.emulator import (
    NO_ADDRESS,
    DynamicInstruction,
    Trace,
    TraceView,
    execute,
    trace_rows,
)
from repro.emulator.trace import columns_digest
from repro.experiments import runner
from repro.obs.context import get_metrics
from repro.profiling import Profiler
from repro.uarch import make_simulator, vectorized
from repro.workloads import load_benchmark

SCALE = 0.1


class TestTraceContainer:
    def test_record_and_view(self):
        trace = Trace()
        trace.record(3, 4)
        trace.record(4, 9, 120)
        assert len(trace) == 2
        assert trace[0].pc == 3
        assert trace[0].next_pc == 4
        assert trace[0].address is None
        assert trace[1].address == 120
        assert not trace[0].taken()
        assert trace[1].taken()

    def test_append_dynamic_instruction(self):
        trace = Trace()
        trace.append(DynamicInstruction(5, 6, address=40))
        assert trace[0].pc == 5
        assert trace[0].address == 40

    def test_iteration_yields_views(self):
        trace = Trace()
        trace.record(0, 1)
        trace.record(1, 7)
        views = list(trace)
        assert all(isinstance(v, TraceView) for v in views)
        assert [v.pc for v in views] == [0, 1]

    def test_rows_use_sentinel(self):
        trace = Trace()
        trace.record(0, 1)
        trace.record(1, 2, 55)
        assert list(trace.rows()) == [(0, 1, NO_ADDRESS), (1, 2, 55)]

    def test_trace_rows_on_list_trace(self):
        listed = [DynamicInstruction(0, 1), DynamicInstruction(1, 2, 9)]
        assert list(trace_rows(listed)) == [(0, 1, None), (1, 2, 9)]

    def test_bytes_roundtrip(self):
        trace = Trace()
        for i in range(100):
            trace.record(i, i + 1, i * 8 if i % 3 == 0 else None)
        rebuilt = Trace.from_bytes(*trace.to_bytes())
        assert list(rebuilt.rows()) == list(trace.rows())

    def test_from_bytes_rejects_ragged_columns(self):
        trace = Trace()
        trace.record(0, 1)
        pcs, next_pcs, addresses = trace.to_bytes()
        with pytest.raises(ValueError):
            Trace.from_bytes(pcs, next_pcs, addresses + addresses)

    def test_empty_trace_is_falsy(self):
        assert not Trace()
        trace = Trace()
        trace.record(0, 1)
        assert trace

    def test_nbytes_smaller_than_object_trace(self):
        workload = load_benchmark("gzip", scale=SCALE)
        compact, _ = execute(
            workload.program, memory=workload.memory,
            max_instructions=workload.max_instructions, compact=True,
        )
        # 3 × 8 bytes per instruction; a DynamicInstruction alone is
        # ~56 bytes before the list's pointer.
        assert compact.nbytes == 24 * len(compact)


def _small_trace():
    trace = Trace()
    for i in range(50):
        trace.record(i, i + 1, i * 8 if i % 4 == 0 else None)
    return trace


class TestSealedTrace:
    """A sealed trace is read-only and carries the digest of its
    columns, computed once."""

    def test_seal_rejects_column_writes_record_and_append(self):
        trace = _small_trace().seal()
        with pytest.raises(TypeError):
            trace.addresses[0] = 4096
        with pytest.raises(TypeError):
            trace.pcs[1] = 7
        with pytest.raises(TypeError):
            trace.record(50, 51)
        with pytest.raises(TypeError):
            trace.append(DynamicInstruction(50, 51, address=8))
        assert len(trace) == 50

    def test_digest_is_the_sha256_of_the_columns(self):
        trace = _small_trace()
        assert trace.digest is None
        pcs, next_pcs, addresses = trace.to_bytes()
        expected = hashlib.sha256(pcs + next_pcs + addresses).digest()
        assert trace.seal().digest == expected
        assert columns_digest((trace.pcs, trace.next_pcs,
                               trace.addresses)) == expected
        assert trace.seal().digest == expected        # sealing again

    def test_sealed_trace_reads_like_an_unsealed_one(self):
        plain = _small_trace()
        sealed = _small_trace().seal()
        assert list(sealed.rows()) == list(plain.rows())
        assert [v.address for v in sealed] == [v.address for v in plain]
        assert sealed[4].address == plain[4].address == 32
        assert sealed.nbytes == plain.nbytes
        assert sealed.to_bytes() == plain.to_bytes()

    def test_bytes_round_trip(self):
        sealed = _small_trace().seal()
        rebuilt = Trace.from_bytes(*sealed.to_bytes())
        assert rebuilt.digest is None            # a fresh, writable copy
        assert list(rebuilt.rows()) == list(sealed.rows())
        assert rebuilt.seal().digest == sealed.digest

    @pytest.mark.parametrize("sealed", [False, True])
    def test_pickle_round_trip(self, sealed):
        trace = _small_trace()
        if sealed:
            trace.seal()
        copy = pickle.loads(pickle.dumps(trace))
        assert list(copy.rows()) == list(trace.rows())
        assert copy.digest == trace.digest
        if not sealed:
            copy.record(50, 51)
            assert len(copy) == 51

    def test_get_artifacts_seals_emulated_and_disk_traces(self):
        emulated = runner.get_artifacts("gzip", scale=0.05).trace
        assert emulated.digest is not None
        runner.clear_cache()                     # the next load is a disk hit
        hits = get_metrics().counter(
            "cache_disk_hits_total")
        before = hits.value
        loaded = runner.get_artifacts("gzip", scale=0.05).trace
        assert hits.value == before + 1
        assert loaded is not emulated
        assert loaded.digest == emulated.digest
        with pytest.raises(TypeError):
            loaded.record(0, 1)


class TestSinglePassEquivalence:
    """One fused run == the old trace-then-profile double run."""

    @pytest.fixture(scope="class")
    def workload(self):
        return load_benchmark("twolf", scale=SCALE)

    @pytest.fixture(scope="class")
    def fused(self, workload):
        profiler = Profiler()
        collector = profiler.collector()
        trace, result = execute(
            workload.program,
            memory=workload.memory,
            max_instructions=workload.max_instructions,
            on_branch=collector.on_branch,
            compact=True,
        )
        return trace, collector.finish(result)

    @pytest.fixture(scope="class")
    def two_pass(self, workload):
        trace, _ = execute(
            workload.program,
            memory=workload.memory,
            max_instructions=workload.max_instructions,
        )
        profile = Profiler().profile(
            workload.program,
            memory=workload.memory,
            max_instructions=workload.max_instructions,
        )
        return trace, profile

    def test_traces_identical(self, fused, two_pass):
        compact, _ = fused
        listed, _ = two_pass
        assert len(compact) == len(listed)
        assert list(trace_rows(compact)) == [
            (d.pc, d.next_pc,
             NO_ADDRESS if d.address is None else d.address)
            for d in listed
        ]

    def test_profiles_identical(self, fused, two_pass):
        _, one = fused
        _, two = two_pass
        assert one.total_instructions == two.total_instructions
        assert one.total_branches == two.total_branches
        assert one.total_mispredictions == two.total_mispredictions
        assert one.measured_acc_conf == two.measured_acc_conf

    def test_edge_profiles_identical(self, fused, two_pass):
        _, one = fused
        _, two = two_pass
        for pc in two.edge_profile.executed_branch_pcs():
            assert one.edge_profile.exec_count(pc) \
                == two.edge_profile.exec_count(pc)
            assert one.edge_prob(pc, True) == two.edge_prob(pc, True)

    def test_simulator_agrees_on_both_encodings(self, workload, fused,
                                                two_pass):
        compact, _ = fused
        listed, _ = two_pass
        stats_compact = make_simulator(workload.program).run(compact)
        # Equal columns would make the second run a run-memo hit.
        vectorized.clear_prepass_memo()
        stats_listed = make_simulator(workload.program).run(listed)
        assert stats_compact.cycles == stats_listed.cycles
        assert stats_compact.retired_instructions \
            == stats_listed.retired_instructions
        assert stats_compact.pipeline_flushes \
            == stats_listed.pipeline_flushes
