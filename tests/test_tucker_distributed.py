"""Tests for distributed Boolean Tucker (engine-backed factor updates)."""

import numpy as np
import pytest

from repro.bitops import BitMatrix
from repro.distengine import SimulatedRuntime, TransferKind
from repro.tensor import SparseBoolTensor
from repro.tucker import BooleanTuckerConfig, boolean_tucker, dbtf_tucker
from repro.tucker.decompose import _reconstruct_dense


def planted_tucker(shape, core_shape, factor_density, core_density, seed):
    rng = np.random.default_rng(seed)
    factors = tuple(
        (rng.random((dimension, rank)) < factor_density).astype(np.uint8)
        for dimension, rank in zip(shape, core_shape)
    )
    core = (rng.random(core_shape) < core_density).astype(np.uint8)
    dense = _reconstruct_dense(core, factors)
    return SparseBoolTensor.from_dense(dense)


class TestDbtfTucker:
    def test_matches_single_machine_solver(self):
        # Same greedy updates, same initialization stream: the distributed
        # and dense solvers must produce identical decompositions.
        tensor = planted_tucker((14, 12, 10), (2, 3, 2), 0.3, 0.5, seed=0)
        config = BooleanTuckerConfig(core_shape=(2, 3, 2), seed=3)
        dense_result = boolean_tucker(tensor, config=config)
        distributed_result = dbtf_tucker(tensor, config=config, n_partitions=4)
        assert distributed_result.error == dense_result.error
        assert distributed_result.factors == dense_result.factors
        assert distributed_result.core == dense_result.core

    @pytest.mark.parametrize("n_partitions", [1, 3, 7])
    def test_partition_invariance(self, n_partitions):
        tensor = planted_tucker((10, 10, 10), (2, 2, 2), 0.35, 0.5, seed=1)
        config = BooleanTuckerConfig(core_shape=(2, 2, 2), seed=0)
        baseline = dbtf_tucker(tensor, config=config, n_partitions=1)
        other = dbtf_tucker(tensor, config=config, n_partitions=n_partitions)
        assert other.error == baseline.error
        assert other.factors == baseline.factors

    def test_group_split_invariance(self):
        tensor = planted_tucker((10, 10, 10), (4, 4, 4), 0.3, 0.4, seed=2)
        config = BooleanTuckerConfig(core_shape=(4, 4, 4), seed=0,
                                     max_iterations=2)
        full = dbtf_tucker(tensor, config=config, cache_group_size=15)
        split = dbtf_tucker(tensor, config=config, cache_group_size=2)
        assert full.error == split.error
        assert full.factors == split.factors

    def test_error_matches_reconstruction(self):
        tensor = planted_tucker((12, 12, 12), (2, 2, 2), 0.3, 0.6, seed=3)
        result = dbtf_tucker(tensor, core_shape=(2, 2, 2), n_partitions=3)
        assert result.error == tensor.hamming_distance(result.reconstruct())

    def test_recovers_planted_structure(self):
        tensor = planted_tucker((20, 20, 20), (3, 3, 3), 0.25, 0.4, seed=4)
        config = BooleanTuckerConfig(core_shape=(3, 3, 3), n_initial_sets=4)
        result = dbtf_tucker(tensor, config=config, n_partitions=4)
        assert result.relative_error < 0.4

    def test_engine_accounting(self):
        tensor = planted_tucker((10, 10, 10), (2, 2, 2), 0.3, 0.5, seed=5)
        runtime = SimulatedRuntime()
        dbtf_tucker(tensor, core_shape=(2, 2, 2), n_partitions=4,
                    runtime=runtime)
        assert runtime.ledger.bytes_of_kind(TransferKind.SHUFFLE) > 0
        assert runtime.ledger.bytes_of_kind(TransferKind.BROADCAST) > 0
        assert any(
            stage.name.startswith("cacheTuckerSummations")
            for stage in runtime.stages
        )
        assert runtime.simulated_time(16) > 0

    def test_empty_tensor(self):
        result = dbtf_tucker(
            SparseBoolTensor.empty((5, 5, 5)), core_shape=(2, 2, 2),
            n_partitions=2,
        )
        assert result.error == 0

    def test_non_three_way_rejected(self):
        with pytest.raises(ValueError):
            dbtf_tucker(SparseBoolTensor.empty((2, 2)), core_shape=(1, 1, 1))

    def test_core_shape_or_config_required(self):
        with pytest.raises(ValueError):
            dbtf_tucker(SparseBoolTensor.empty((2, 2, 2)))

    def test_checkpoint_config_rejected(self, tmp_path):
        from repro.resilience import CheckpointConfig

        config = BooleanTuckerConfig(
            core_shape=(2, 2, 2),
            checkpoint=CheckpointConfig(directory=str(tmp_path / "ckpt")),
        )
        tensor = planted_tucker((6, 6, 6), (2, 2, 2), 0.3, 0.5, seed=6)
        with pytest.raises(ValueError, match="boolean_tucker"):
            dbtf_tucker(tensor, config=config, n_partitions=2)
        assert not (tmp_path / "ckpt").exists()

    def test_invalid_partitions(self):
        with pytest.raises(ValueError):
            dbtf_tucker(
                SparseBoolTensor.empty((2, 2, 2)), core_shape=(1, 1, 1),
                n_partitions=0,
            )
