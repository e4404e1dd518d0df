"""Tests for the broadcast-handle comms plane.

The contract: ``runtime.broadcast`` returns a first-class, content-addressed
:class:`BroadcastHandle`; pickling a handle drops the value (workers resolve
it from the backend-local store or a spill file); task payloads that embed a
handle cost ~32 wire bytes instead of the value's full size; and the
shared column-sweep task rebuilds the exact target masks from a base
broadcast plus packed per-column deltas, for CP and Tucker caches alike,
while shipping a fraction of the bytes that embedding the factor arrays
in every task would cost.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitops import BitMatrix
from repro.core import DbtfConfig, RowSummationCache, dbtf
from repro.core.partition import build_partition_data, make_partition_plans
from repro.core import update
from repro.core.update import (
    CachedPartition,
    ColumnSweepTask,
    _masks_with_bit_cleared,
)
from repro.distengine import (
    BroadcastHandle,
    ClusterConfig,
    SimulatedRuntime,
)
from repro.distengine.broadcast import _STORE, clear_store
from repro.distengine.shuffle import (
    HANDLE_WIRE_BYTES,
    TransferKind,
    estimate_bytes,
    stable_hash,
)
from repro.tensor import (
    PackedUnfolding,
    SparseBoolTensor,
    planted_tensor,
    unfold,
)
from repro.tucker import BooleanTuckerConfig, boolean_tucker
from repro.tucker.distributed import TuckerCachedPartition


@pytest.fixture
def clean_store():
    clear_store()
    yield
    clear_store()


class TestBroadcastHandle:
    def test_broadcast_returns_handle(self):
        with SimulatedRuntime(ClusterConfig()) as runtime:
            handle = runtime.broadcast(np.arange(10), name="xs")
            assert isinstance(handle, BroadcastHandle)
            assert handle.name == "xs"
            assert handle.n_bytes == estimate_bytes(np.arange(10))
            assert len(handle.content_id) == 16
            np.testing.assert_array_equal(handle.value, np.arange(10))

    def test_pickle_drops_value_and_resolves_from_store(self, clean_store):
        value = np.arange(32)
        handle = BroadcastHandle(value, "aa" * 8, "xs", value.nbytes)
        wire = pickle.dumps(handle)
        # The value never rides inside a pickled handle.
        assert len(wire) < 200
        revived = pickle.loads(wire)
        _STORE[handle.content_id] = value
        np.testing.assert_array_equal(revived.value, value)

    def test_resolution_from_spill_file(self, clean_store, tmp_path):
        value = list(range(100))
        spill = tmp_path / "cafe.pkl"
        spill.write_bytes(pickle.dumps(value))
        handle = pickle.loads(
            pickle.dumps(
                BroadcastHandle(value, "cafe" * 4, "xs", 800, str(spill))
            )
        )
        assert handle.value == value
        # Loaded once into the store; later handles hit it without the file.
        assert _STORE[handle.content_id] == value

    def test_unresolvable_handle_raises(self, clean_store):
        handle = pickle.loads(
            pickle.dumps(BroadcastHandle([1], "beef" * 4, "xs", 8))
        )
        with pytest.raises(RuntimeError, match="no value"):
            handle.value

    def test_handle_costs_constant_wire_bytes(self):
        big = np.zeros(1 << 16, dtype=np.uint64)
        handle = BroadcastHandle(big, "ab" * 8, "big", big.nbytes)
        assert estimate_bytes(handle) == HANDLE_WIRE_BYTES
        # ... and the same inside a task-payload container.
        assert estimate_bytes([handle, handle]) == 2 * HANDLE_WIRE_BYTES + 8

    def test_equal_values_share_content_id(self):
        with SimulatedRuntime(ClusterConfig()) as runtime:
            first = runtime.broadcast(np.arange(8), name="a")
            second = runtime.broadcast(np.arange(8), name="b")
            assert first.content_id == second.content_id


def _dbtf_outcome(tensor, backend="serial", **overrides):
    config = DbtfConfig(rank=8, max_iterations=2, seed=7, n_partitions=4,
                        **overrides)
    cluster = ClusterConfig(
        n_machines=2, cores_per_machine=2, backend=backend, n_workers=2,
    )
    runtime = SimulatedRuntime(cluster)
    try:
        result = dbtf(tensor, config=config, runtime=runtime)
        by_stage = dict(runtime.ledger.by_stage)
        task_bytes = runtime.ledger.bytes_of_kind(TransferKind.TASK)
    finally:
        runtime.close()
    return result, by_stage, task_bytes


def _column_task_bytes(by_stage):
    """TASK bytes of the column stages (the first one fuses the build)."""
    return sum(
        value
        for name, value in by_stage.items()
        if "columnErrors" in name and "collect" not in name
    )


def _per_column_bytes(by_stage):
    """Driver->worker bytes attributable to the per-column sweep."""
    return _column_task_bytes(by_stage) + by_stage.get("columnUpdate", 0)


def _closure_task_bytes(n_rows, outer_rows, inner_rows, rank):
    """Wire bytes of a column task that embeds the arrays it reads.

    The target masks, the outer factor's words and its column as a 0/1
    vector, and the inner factor's column packed over the PVM width — what
    a task must carry when it references no broadcast.
    """
    words = -(-rank // 64)
    return estimate_bytes([
        np.zeros((n_rows, words), dtype=np.uint64),
        np.zeros((outer_rows, words), dtype=np.uint64),
        np.zeros(outer_rows, dtype=np.uint8),
        np.zeros(-(-inner_rows // 64), dtype=np.uint64),
    ])


def _handle(value):
    """An in-memory handle, as the driver and thread workers resolve it.

    Content-addressed like ``runtime.broadcast``: equal values share an id
    and different values do not, which the sweep-mask memo relies on.
    """
    return BroadcastHandle(value, f"{stable_hash(value):016x}", "factors", 0)


def _partitions(tensor, n_partitions):
    packed = PackedUnfolding(unfold(tensor, 0))
    plans = make_partition_plans(
        packed.block_count, packed.block_width, n_partitions
    )
    return build_partition_data(packed, plans)


class TestHandlePathEquivalence:
    @pytest.fixture(scope="class")
    def tensor(self):
        return planted_tensor(
            (40, 32, 24), rank=4, factor_density=0.4,
            rng=np.random.default_rng(11), additive_noise=0.02,
        )[0]

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_bit_identical_across_backends(self, tensor, backend):
        serial, serial_stages, _ = _dbtf_outcome(tensor)
        other, other_stages, _ = _dbtf_outcome(tensor, backend=backend)
        assert serial.error == other.error
        assert serial.errors_per_iteration == other.errors_per_iteration
        for serial_factor, other_factor in zip(serial.factors, other.factors):
            assert np.array_equal(serial_factor.words, other_factor.words)
        # Ledger byte totals are part of the backend-invariance contract.
        assert serial_stages == other_stages

    def test_handles_cut_task_bytes(self, tensor):
        result, by_stage, _ = _dbtf_outcome(tensor)
        n_stages = 8 * 3 * len(result.errors_per_iteration)
        # Every mode's closure task would carry at least the smallest
        # mode's masks and outer factor; the handle tasks stay below.
        smallest_closure = min(
            _closure_task_bytes(n_rows, outer_rows, inner_rows, 8)
            for n_rows, outer_rows, inner_rows in (
                (40, 24, 32), (32, 24, 40), (24, 32, 40),
            )
        )
        assert _column_task_bytes(by_stage) < n_stages * 4 * smallest_closure


@settings(max_examples=30, deadline=None)
@given(
    rank=st.sampled_from([1, 3, 8, 63, 64, 65, 70, 130]),
    n_rows=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_sweep_task_rebuilds_cleared_masks(rank, n_rows, seed, data):
    """After k applied deltas the rebuilt masks equal the updated factor's.

    The oracle is the driver's view: ``BitMatrix.set_column`` per chosen
    column, then ``_masks_with_bit_cleared`` for the column being swept.
    The task's errors must then equal the cache's direct evaluation on
    those masks — for CP and Tucker caches, single- and multi-word masks.
    """
    rng = np.random.default_rng(seed)
    column = data.draw(st.integers(min_value=0, max_value=rank - 1))
    # Skipped (clean) columns leave gaps, so the applied set is any
    # subset of the earlier columns, applied in sweep order.
    applied = data.draw(st.sets(st.integers(0, column - 1))) if column else set()
    base = BitMatrix.random(n_rows, rank, 0.4, rng)
    updated = base.copy()
    deltas = []
    for applied_column in sorted(applied):
        chosen = (rng.random(n_rows) < 0.5).astype(np.uint8)
        updated.set_column(applied_column, chosen)
        deltas.append((applied_column, _handle(np.packbits(chosen))))
    outer = BitMatrix.random(3, rank, 0.4, rng)
    inner = BitMatrix.random(5, rank, 0.4, rng)
    task = ColumnSweepTask(
        _handle([base.words, outer.words, inner.words]), column,
        tuple(deltas), n_rows,
    )
    cleared = _masks_with_bit_cleared(updated.words, column)
    np.testing.assert_array_equal(task.masks(), cleared)

    tensor = SparseBoolTensor.from_dense(
        (rng.random((n_rows, 5, 3)) < 0.3).astype(np.uint8)
    )
    cache = RowSummationCache(inner, group_size=4)
    tucker_outer = BitMatrix.random(3, 2, 0.5, rng)
    tucker_inner = BitMatrix.random(5, 3, 0.5, rng)
    core_perm = (rng.random((rank, 3, 2)) < 0.3).astype(np.uint8)
    for part in _partitions(tensor, 2):
        cp = CachedPartition(part, cache)
        expected = cp.column_errors(
            cleared, outer.words, outer.column(column),
            inner.transpose().words[column],
        )
        tucker = TuckerCachedPartition(
            part, tucker_outer, tucker_inner, core_perm, 4
        )
        for cached, want in ((cp, expected),
                             (tucker, tucker.column_errors(cleared, column))):
            got = task(cached)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])


@pytest.fixture
def empty_mask_memo(monkeypatch):
    monkeypatch.setattr(update, "_MASK_MEMO", None)


@pytest.fixture
def rebuild_calls(monkeypatch, empty_mask_memo):
    """Spy on the sweep-mask rebuild; returns the list of swept columns."""
    calls = []
    rebuild = update._rebuild_masks

    def spy(base, deltas, column, n_rows):
        calls.append(column)
        return rebuild(base, deltas, column, n_rows)

    monkeypatch.setattr(update, "_rebuild_masks", spy)
    return calls


def _rebuild_every_call(task):
    """``ColumnSweepTask.masks`` without the memo: the reference path."""
    return update._rebuild_masks(
        task.factors.value[0], task.deltas, task.column, task.n_rows
    )


class TestWorkerResidentMasks:
    @pytest.fixture(scope="class")
    def tensor(self):
        return planted_tensor(
            (40, 32, 24), rank=4, factor_density=0.4,
            rng=np.random.default_rng(5), additive_noise=0.02,
        )[0]

    def test_rebuild_runs_once_per_column_stage(self, tensor, rebuild_calls):
        rank = 6
        config = DbtfConfig(rank=rank, max_iterations=1, seed=2,
                            n_partitions=8)
        with SimulatedRuntime(ClusterConfig()) as runtime:
            result = dbtf(tensor, config=config, runtime=runtime)
        n_column_stages = 3 * rank * len(result.errors_per_iteration)
        # One rebuild per column stage, shared by all 8 partitions.
        assert len(rebuild_calls) == n_column_stages
        assert rebuild_calls == list(range(rank)) * (n_column_stages // rank)

    def test_masks_are_read_only(self, empty_mask_memo):
        base = BitMatrix.random(6, 5, 0.5, np.random.default_rng(0))
        task = ColumnSweepTask(
            _handle([base.words]), 2,
            ((0, _handle(np.packbits(np.ones(6, dtype=np.uint8)))),), 6,
        )
        masks = task.masks()
        assert not masks.flags.writeable
        with pytest.raises(ValueError):
            masks[0, 0] = 0
        # A hit hands back the same read-only array.
        assert task.masks() is masks

    def test_same_delta_content_elsewhere_gives_other_masks(
        self, empty_mask_memo
    ):
        """Payloads differing only in a column index must not share masks."""
        base = BitMatrix.from_dense(np.array(
            [[1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 0, 0], [0, 0, 1, 1]],
            dtype=np.uint8,
        ))
        factors = _handle([base.words])
        ones = _handle(np.packbits(np.ones(4, dtype=np.uint8)))
        # Each case differs from the one before in one index only: the
        # applied delta's column, then the swept column.
        for applied_column, column in ((0, 3), (1, 3), (1, 2)):
            task = ColumnSweepTask(factors, column, ((applied_column, ones),), 4)
            expected = base.copy()
            expected.set_column(applied_column, np.ones(4, dtype=np.uint8))
            np.testing.assert_array_equal(
                task.masks(), _masks_with_bit_cleared(expected.words, column)
            )

    @pytest.mark.parametrize("rank", [40, 70])
    def test_cp_bit_identical_to_unmemoized(self, tensor, rank, monkeypatch):
        def run(backend):
            config = DbtfConfig(rank=rank, max_iterations=1, seed=4,
                                n_partitions=6)
            cluster = ClusterConfig(backend=backend, n_workers=2)
            with SimulatedRuntime(cluster) as runtime:
                result = dbtf(tensor, config=config, runtime=runtime)
                by_stage = dict(runtime.ledger.by_stage)
            return (
                tuple(f.words.tobytes() for f in result.factors),
                result.errors_per_iteration,
                by_stage,
            )

        with monkeypatch.context() as patch:
            patch.setattr(ColumnSweepTask, "masks", _rebuild_every_call)
            reference = run("serial")
        for backend in ("serial", "thread", "process"):
            assert run(backend) == reference

    def test_tucker_bit_identical_to_unmemoized(self, tensor, monkeypatch):
        config = BooleanTuckerConfig(core_shape=(3, 3, 3), max_iterations=2)

        def run(backend):
            cluster = ClusterConfig(n_machines=1, cores_per_machine=5,
                                    backend=backend, n_workers=2)
            with SimulatedRuntime(cluster) as runtime:
                result = boolean_tucker(tensor, config=config, runtime=runtime)
            return (
                tuple(f.words.tobytes() for f in result.factors),
                result.core.coords.tobytes(),
                result.errors_per_iteration,
            )

        with monkeypatch.context() as patch:
            patch.setattr(ColumnSweepTask, "masks", _rebuild_every_call)
            reference = run("serial")
        for backend in ("serial", "thread", "process"):
            assert run(backend) == reference


class TestPerColumnByteDrop:
    def test_at_least_5x_drop_at_rank8_dim128(self):
        """The headline regression: rank 8, dim 128, >=5x per-column drop.

        The baseline is analytic: each of a column stage's four tasks
        would embed the masks, the outer factor and both columns.
        """
        rng = np.random.default_rng(0)
        dense = (rng.random((128, 128, 128)) < 0.01).astype(np.uint8)
        tensor = SparseBoolTensor.from_dense(dense)
        config = DbtfConfig(rank=8, max_iterations=1, seed=3, n_partitions=4)
        runtime = SimulatedRuntime(ClusterConfig())
        try:
            result = dbtf(tensor, config=config, runtime=runtime)
            per_column = _per_column_bytes(dict(runtime.ledger.by_stage)) / (
                8 * 3 * len(result.errors_per_iteration)
            )
        finally:
            runtime.close()
        closure = 4 * _closure_task_bytes(128, 128, 128, 8)
        ratio = closure / per_column
        assert ratio >= 5.0, (
            f"per-column bytes dropped only {ratio:.2f}x "
            f"({closure} -> {per_column})"
        )
