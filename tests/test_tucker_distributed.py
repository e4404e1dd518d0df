"""Tests for Boolean Tucker on the engine (engine-backed factor updates)."""

import numpy as np
import pytest

from repro.bitops import BitMatrix
from repro.core import prepare_partitioned_unfoldings
from repro.distengine import ClusterConfig, SimulatedRuntime, TransferKind
from repro.resilience import CheckpointConfig
from repro.tensor import SparseBoolTensor
from repro.tucker import BooleanTuckerConfig, boolean_tucker, update_tucker_factor
from repro.tucker.decompose import _TUCKER_MODE_ROLES, _reconstruct_dense

from .algorithm4_oracle import dense_tucker


def planted_tucker(shape, core_shape, factor_density, core_density, seed):
    rng = np.random.default_rng(seed)
    factors = tuple(
        (rng.random((dimension, rank)) < factor_density).astype(np.uint8)
        for dimension, rank in zip(shape, core_shape)
    )
    core = (rng.random(core_shape) < core_density).astype(np.uint8)
    dense = _reconstruct_dense(core, factors)
    return SparseBoolTensor.from_dense(dense)


def slots(n):
    """A serial runtime with ``n`` slots, hence ``n`` partitions."""
    return SimulatedRuntime(ClusterConfig(n_machines=1, cores_per_machine=n))


class TestDbtfTucker:
    def test_matches_single_machine_solver(self):
        # Same greedy updates, same initialization stream: the engine
        # solver and the dense oracle must produce identical decompositions.
        tensor = planted_tucker((14, 12, 10), (2, 3, 2), 0.3, 0.5, seed=0)
        config = BooleanTuckerConfig(core_shape=(2, 3, 2), seed=3)
        with slots(4) as runtime:
            result = boolean_tucker(tensor, config=config, runtime=runtime)
        factors, core, errors = dense_tucker(tensor, config)
        assert result.errors_per_iteration == errors
        assert result.factors == tuple(BitMatrix.from_dense(f) for f in factors)
        assert result.core == SparseBoolTensor.from_dense(core)

    @pytest.mark.parametrize("n_slots", [1, 3, 7])
    def test_partition_invariance(self, n_slots):
        tensor = planted_tucker((10, 10, 10), (2, 2, 2), 0.35, 0.5, seed=1)
        config = BooleanTuckerConfig(core_shape=(2, 2, 2), seed=0)
        with slots(1) as runtime:
            baseline = boolean_tucker(tensor, config=config, runtime=runtime)
        with slots(n_slots) as runtime:
            other = boolean_tucker(tensor, config=config, runtime=runtime)
            assert {
                stage.n_tasks for stage in runtime.stages
                if "tuckerColumnErrors" in stage.name
            } == {n_slots}
        assert other.errors_per_iteration == baseline.errors_per_iteration
        assert other.factors == baseline.factors
        assert other.core == baseline.core

    def test_group_split_invariance(self):
        # Core sizes of 4 under V = 2 split every cache into two groups.
        tensor = planted_tucker((10, 10, 10), (4, 4, 4), 0.3, 0.4, seed=2)
        rng = np.random.default_rng(0)
        factors = [BitMatrix.random(10, 4, 0.4, rng) for _ in range(3)]
        core = (rng.random((4, 4, 4)) < 0.4).astype(np.uint8)
        for mode in range(3):
            outer, inner, permutation = _TUCKER_MODE_ROLES[mode]
            results = []
            for group_size in (15, 2):
                with slots(3) as runtime:
                    rdd = prepare_partitioned_unfoldings(tensor, 3, runtime)[mode]
                    results.append(update_tucker_factor(
                        rdd, factors[mode], factors[outer], factors[inner],
                        core.transpose(permutation), group_size, runtime,
                    ))
            (full, full_error), (split, split_error) = results
            assert full == split
            assert full_error == split_error

    def test_error_matches_reconstruction(self):
        tensor = planted_tucker((12, 12, 12), (2, 2, 2), 0.3, 0.6, seed=3)
        with slots(3) as runtime:
            result = boolean_tucker(tensor, core_shape=(2, 2, 2), runtime=runtime)
        assert result.error == tensor.hamming_distance(result.reconstruct())

    def test_recovers_planted_structure(self):
        tensor = planted_tucker((20, 20, 20), (3, 3, 3), 0.25, 0.4, seed=4)
        config = BooleanTuckerConfig(core_shape=(3, 3, 3), n_initial_sets=4)
        with slots(4) as runtime:
            result = boolean_tucker(tensor, config=config, runtime=runtime)
        assert result.relative_error < 0.4

    def test_engine_accounting(self, tmp_path):
        tensor = planted_tucker((10, 10, 10), (2, 2, 2), 0.3, 0.5, seed=5)
        config = BooleanTuckerConfig(
            core_shape=(2, 2, 2),
            checkpoint=CheckpointConfig(directory=str(tmp_path / "ckpt")),
        )
        with slots(4) as runtime:
            boolean_tucker(tensor, config=config, runtime=runtime)
            assert runtime.ledger.bytes_of_kind(TransferKind.SHUFFLE) > 0
            assert runtime.ledger.bytes_of_kind(TransferKind.BROADCAST) > 0
            assert any(
                stage.name.startswith("cacheTuckerSummations")
                for stage in runtime.stages
            )
            assert runtime.simulated_time(16) > 0
            # Snapshots are metered on the runtime that ran the job.
            assert runtime.metrics.value("checkpoints_written_total") > 0
            # The partitioned unfoldings are released when the run ends.
            assert len(runtime._persisted_nodes) == 0

    def test_empty_tensor(self):
        with slots(2) as runtime:
            result = boolean_tucker(
                SparseBoolTensor.empty((5, 5, 5)), core_shape=(2, 2, 2),
                runtime=runtime,
            )
        assert result.error == 0

    def test_more_partitions_than_unfolded_columns(self):
        # 16 partitions of 3x3 = 9 unfolded columns leave some partitions
        # without a single block; they contribute zero errors per row.
        tensor = SparseBoolTensor.from_nonzeros(
            (3, 3, 3), [(0, 0, 0), (1, 2, 0), (2, 1, 2)]
        )
        config = BooleanTuckerConfig(core_shape=(2, 2, 2), max_iterations=2)
        with slots(16) as runtime:
            result = boolean_tucker(tensor, config=config, runtime=runtime)
        factors, core, errors = dense_tucker(tensor, config)
        assert result.errors_per_iteration == errors
        assert result.factors == tuple(BitMatrix.from_dense(f) for f in factors)

    def test_non_three_way_rejected(self):
        with pytest.raises(ValueError):
            boolean_tucker(SparseBoolTensor.empty((2, 2)), core_shape=(1, 1, 1))

    def test_core_shape_or_config_required(self):
        with pytest.raises(ValueError):
            boolean_tucker(SparseBoolTensor.empty((2, 2, 2)))

