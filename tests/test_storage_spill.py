"""Spill store unit tests and budgeted-factorization invariance tests.

The central contract of the storage tier: a factorization under a memory
budget produces bit-identical factors and error traces to an unbudgeted
run on every backend, tracked resident bytes never exceed the budget, and
a run with no budget pays zero storage overhead (no spans, no counters).
"""

import os

import numpy as np
import pytest

from repro.core import dbtf
from repro.distengine import ClusterConfig, SimulatedRuntime
from repro.storage import MemoryBudget, PartitionSpillStore, SpilledPartitions
from repro.tensor import planted_tensor

BUDGET_BYTES = 4096


class _FakeNode:
    """Minimal stand-in for a PlanNode: node_id plus a cached slot."""

    _next_id = 0

    def __init__(self, partitions):
        _FakeNode._next_id += 1
        self.node_id = _FakeNode._next_id
        self.cached = partitions


def _partitions(n_arrays: int, n_bytes_each: int):
    """Partition list whose default-measured size is n_arrays * n_bytes_each."""
    return [[np.zeros(n_bytes_each, dtype=np.uint8)] for _ in range(n_arrays)]


class TestPartitionSpillStore:
    @pytest.fixture
    def store(self, tmp_path):
        store = PartitionSpillStore(MemoryBudget(1000), spill_dir=str(tmp_path))
        yield store
        store.close()

    def test_admit_charges_budget(self, store):
        node = _FakeNode(_partitions(2, 100))
        store.admit(node)
        assert store.budget.resident_bytes == 200
        assert store.fetch(node) is node.cached
        assert not isinstance(node.cached, SpilledPartitions)

    def test_lru_eviction_spills_coldest(self, store):
        cold = _FakeNode(_partitions(1, 600))
        warm = _FakeNode(_partitions(1, 300))
        store.admit(cold)
        store.admit(warm)
        hot = _FakeNode(_partitions(1, 400))
        store.admit(hot)  # 600 + 300 + 400 > 1000: cold must go
        assert isinstance(cold.cached, SpilledPartitions)
        assert not isinstance(warm.cached, SpilledPartitions)
        assert not isinstance(hot.cached, SpilledPartitions)
        assert store.budget.resident_bytes == 700
        assert store.budget.spill_events == 1

    def test_marker_preserves_len_and_truthiness(self, store):
        node = _FakeNode(_partitions(3, 600))
        store.admit(node)
        store.admit(_FakeNode(_partitions(1, 900)))  # evicts node
        marker = node.cached
        assert isinstance(marker, SpilledPartitions)
        assert marker is not None and len(marker) == 3
        assert os.path.exists(marker.path)

    def test_fetch_reloads_spilled_entry_bit_identically(self, store):
        rng = np.random.default_rng(0)
        original = [[rng.integers(0, 256, 200, dtype=np.uint8)] for _ in range(2)]
        node = _FakeNode([list(p) for p in original])
        store.admit(node)
        store.admit(_FakeNode(_partitions(1, 900)))  # evicts node
        assert isinstance(node.cached, SpilledPartitions)
        loaded = store.fetch(node)
        assert store.budget.load_events == 1
        assert node.cached is loaded  # re-admitted resident
        for got, want in zip(loaded, original):
            assert np.array_equal(got[0], want[0])

    def test_reload_does_not_rewrite_file(self, store, tmp_path):
        node = _FakeNode(_partitions(1, 600))
        store.admit(node)
        evictor = _FakeNode(_partitions(1, 900))
        store.admit(evictor)
        path = node.cached.path
        mtime = os.path.getmtime(path)
        store.fetch(node)   # reload (evicts evictor — its first, real write)
        after_evictor_spill = store.budget.spilled_bytes
        store.fetch(evictor)  # reload evictor; node re-spills to existing file
        assert isinstance(node.cached, SpilledPartitions)
        assert os.path.getmtime(path) == mtime
        # Re-spill of an already-written file counts an event but no bytes.
        assert store.budget.spilled_bytes == after_evictor_spill
        assert store.budget.spill_events == 3

    def test_oversized_entry_never_resident(self, store):
        node = _FakeNode(_partitions(3, 500))  # 1500 > 1000 limit
        store.admit(node)
        assert isinstance(node.cached, SpilledPartitions)
        assert store.budget.resident_bytes == 0
        loaded = store.fetch(node)
        assert len(loaded) == 3
        # Still spilled: a fetch hands back a transient list, keeps marker.
        assert isinstance(node.cached, SpilledPartitions)

    def test_discard_frees_budget_and_file(self, store):
        node = _FakeNode(_partitions(1, 600))
        store.admit(node)
        store.admit(_FakeNode(_partitions(1, 900)))
        path = node.cached.path
        store.discard(node)
        assert node.cached is None
        assert not os.path.exists(path)
        resident = _FakeNode(_partitions(1, 100))
        store.admit(resident)
        before = store.budget.resident_bytes
        store.discard(resident)
        assert store.budget.resident_bytes == before - 100

    def test_fetch_none_cache_returns_none(self, store):
        node = _FakeNode(None)
        store.admit(node)  # no-op
        assert store.fetch(node) is None

    def test_close_removes_spill_directory(self, tmp_path):
        store = PartitionSpillStore(MemoryBudget(100), spill_dir=str(tmp_path))
        directory = store.directory
        store.admit(_FakeNode(_partitions(1, 600)))
        assert os.path.isdir(directory)
        store.close()
        assert not os.path.exists(directory)
        assert os.path.isdir(str(tmp_path))  # only the subdirectory is removed


def _run(backend: str, memory_budget: "int | None", tracing: bool = False):
    """Fixed-seed DBTF; returns (result, runtime) with the runtime closed."""
    tensor, _ = planted_tensor(
        (10, 10, 10), rank=2, factor_density=0.3,
        rng=np.random.default_rng(7),
    )
    runtime = SimulatedRuntime(
        ClusterConfig(n_machines=2, cores_per_machine=2, backend=backend,
                      memory_budget=memory_budget, tracing=tracing)
    )
    try:
        result = dbtf(tensor, rank=2, max_iterations=2, n_partitions=3,
                      seed=0, runtime=runtime)
        budget = runtime.storage.budget if runtime.storage is not None else None
        return result, runtime, budget
    finally:
        runtime.close()


class TestBudgetedFactorization:
    @pytest.fixture(scope="class")
    def baseline(self):
        result, _, _ = _run("serial", memory_budget=None)
        return result

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_bit_identical_under_budget(self, baseline, backend):
        result, runtime, budget = _run(backend, memory_budget=BUDGET_BYTES)
        assert budget.spill_events > 0, "budget too large to exercise spill"
        assert budget.peak_resident <= BUDGET_BYTES
        assert result.errors_per_iteration == baseline.errors_per_iteration
        for got, want in zip(result.factors, baseline.factors):
            assert np.array_equal(got.words, want.words)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_storage_accounting_backend_invariant(self, backend):
        # On the process backend persist caches live in the workers; the
        # tier charges the block sizes measured there, so its accounting
        # matches serial exactly.
        def accounting(name):
            result, _, budget = _run(name, memory_budget=BUDGET_BYTES)
            return (
                result.report.spill_bytes, budget.spill_events,
                budget.load_events, budget.peak_resident,
                result.report.network_bytes,
            )

        assert accounting(backend) == accounting("serial")

    def test_spilled_worker_caches_hold_partitions(self):
        # At 512 B every cache outgrows the budget and spills as soon as it
        # is admitted.  On the process backend the cache lives in the
        # workers, so the spill must pull the partitions back first.
        serial, _, serial_budget = _run("serial", memory_budget=512)
        result, _, budget = _run("process", memory_budget=512)
        assert result.errors_per_iteration == serial.errors_per_iteration
        for got, want in zip(result.factors, serial.factors):
            assert np.array_equal(got.words, want.words)
        assert (budget.spill_events, budget.load_events) == (
            serial_budget.spill_events, serial_budget.load_events
        )
        # Numpy dtypes unpickled from worker replies pickle a few bytes
        # larger than one process's shared dtype objects; spilled block
        # references instead of partitions would be over 10x smaller.
        assert result.report.spill_bytes == pytest.approx(
            serial.report.spill_bytes, rel=0.05
        )

    def test_spill_bytes_metered_not_networked(self, baseline):
        result, _, _ = _run("serial", memory_budget=BUDGET_BYTES)
        assert result.report.spill_bytes > 0
        assert baseline.report.spill_bytes == 0
        # Spill I/O must not inflate the shuffle/broadcast byte totals.
        # (The budget path routes unfoldings through the memmap store, so
        # its task payloads differ from the coordinate-shuffle path; the
        # wire charges for the data itself must still match exactly.)
        assert result.report.shuffle_bytes == baseline.report.shuffle_bytes
        assert result.report.broadcast_bytes == baseline.report.broadcast_bytes
        assert result.report.task_bytes <= baseline.report.task_bytes

    def test_spill_time_charged_at_disk_bandwidth(self):
        # simulated_time itself folds in host-measured task durations, so
        # only the spill component is comparable across runs.
        result, runtime, _ = _run("serial", memory_budget=BUDGET_BYTES)
        expected = (
            result.report.spill_bytes / ClusterConfig().disk_bytes_per_sec
        )
        assert expected > 0
        assert runtime.metrics.value(
            "simulated_spill_seconds", machines=2
        ) == pytest.approx(expected)


class TestDisabledPathUnchanged:
    """With memory_budget=None the storage tier must be invisible."""

    def test_no_store_constructed(self):
        _, runtime, budget = _run("serial", memory_budget=None)
        assert runtime.storage is None
        assert budget is None

    def test_no_storage_spans_or_counters(self):
        _, runtime, _ = _run("serial", memory_budget=None, tracing=True)
        kinds = {span.kind for span in runtime.tracer.spans}
        assert kinds == {"stage", "task", "kernel", "transfer"}
        metric_names = {row[0] for row in runtime.metrics.collect()}
        assert not any(name.startswith("storage_") for name in metric_names)
        assert "simulated_spill_seconds" not in metric_names

    def test_storage_spans_present_when_budgeted(self):
        _, runtime, _ = _run("serial", memory_budget=BUDGET_BYTES,
                             tracing=True)
        kinds = {span.kind for span in runtime.tracer.spans}
        assert "storage" in kinds
        ops = {
            span.attrs.get("op")
            for span in runtime.tracer.spans
            if span.kind == "storage"
        }
        assert ops == {"spill", "load"}
