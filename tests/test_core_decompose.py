"""Integration tests for the DBTF driver (Algorithm 2)."""

import numpy as np
import pytest

from repro import dbtf, planted_tensor, random_tensor
from repro.core import DbtfConfig
from repro.distengine import ClusterConfig, SimulatedRuntime, TransferKind
from repro.tensor import SparseBoolTensor


class TestDbtfBasics:
    def test_error_matches_reconstruction(self):
        rng = np.random.default_rng(0)
        tensor, _ = planted_tensor((16, 16, 16), rank=3, factor_density=0.3, rng=rng)
        result = dbtf(tensor, rank=3, seed=1, n_partitions=4)
        assert result.error == tensor.hamming_distance(result.reconstruct())

    def test_errors_monotone_non_increasing(self):
        rng = np.random.default_rng(1)
        tensor, _ = planted_tensor((16, 16, 16), rank=4, factor_density=0.3, rng=rng)
        result = dbtf(tensor, rank=4, seed=2, n_partitions=4)
        errors = result.errors_per_iteration
        assert all(a >= b for a, b in zip(errors, errors[1:]))

    def test_factor_shapes(self):
        rng = np.random.default_rng(2)
        tensor = random_tensor((8, 10, 12), density=0.05, rng=rng)
        result = dbtf(tensor, rank=3, seed=0, n_partitions=2, max_iterations=2)
        a, b, c = result.factors
        assert a.shape == (8, 3)
        assert b.shape == (10, 3)
        assert c.shape == (12, 3)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        tensor = random_tensor((10, 10, 10), density=0.1, rng=rng)
        first = dbtf(tensor, rank=3, seed=7, n_partitions=3)
        second = dbtf(tensor, rank=3, seed=7, n_partitions=3)
        assert first.factors == second.factors
        assert first.error == second.error

    def test_empty_tensor_zero_error(self):
        result = dbtf(SparseBoolTensor.empty((6, 6, 6)), rank=2, n_partitions=2)
        assert result.error == 0
        assert all(f.count_nonzeros() == 0 for f in result.factors)

    def test_relative_error(self):
        rng = np.random.default_rng(4)
        tensor = random_tensor((8, 8, 8), density=0.2, rng=rng)
        result = dbtf(tensor, rank=2, seed=0, n_partitions=2, max_iterations=2)
        assert result.relative_error == pytest.approx(result.error / tensor.nnz)

    def test_non_three_way_rejected(self):
        with pytest.raises(ValueError):
            dbtf(SparseBoolTensor.empty((2, 2)), rank=1)

    def test_rank_or_config_required(self):
        with pytest.raises(ValueError):
            dbtf(SparseBoolTensor.empty((2, 2, 2)))

    def test_config_and_overrides_conflict(self):
        config = DbtfConfig(rank=2)
        with pytest.raises(ValueError):
            dbtf(SparseBoolTensor.empty((2, 2, 2)), config=config, seed=3)

    def test_rank_beyond_64_multi_word_masks(self):
        # Ranks above 64 pack row masks into two words; the whole pipeline
        # (cache keys, candidate masks, column updates) must still work.
        rng = np.random.default_rng(99)
        tensor = random_tensor((8, 8, 8), density=0.3, rng=rng)
        result = dbtf(tensor, rank=70, seed=0, n_partitions=2, max_iterations=1)
        assert result.error == tensor.hamming_distance(result.reconstruct())

    def test_explicit_config(self):
        rng = np.random.default_rng(5)
        tensor = random_tensor((6, 6, 6), density=0.1, rng=rng)
        config = DbtfConfig(rank=2, max_iterations=2, n_partitions=2)
        result = dbtf(tensor, config=config)
        assert result.config is config


class TestRecovery:
    def test_exact_recovery_possible_from_planted_structure(self):
        # With enough restarts DBTF should essentially recover a clean
        # low-rank tensor (small relative error).
        rng = np.random.default_rng(6)
        tensor, _ = planted_tensor((24, 24, 24), rank=4, factor_density=0.25, rng=rng)
        result = dbtf(tensor, rank=4, seed=3, n_partitions=4, n_initial_sets=6)
        assert result.relative_error < 0.25

    def test_more_initial_sets_never_hurts_much(self):
        rng = np.random.default_rng(7)
        tensor, _ = planted_tensor((16, 16, 16), rank=3, factor_density=0.3, rng=rng)
        single = dbtf(tensor, rank=3, seed=4, n_partitions=4, n_initial_sets=1)
        multi = dbtf(tensor, rank=3, seed=4, n_partitions=4, n_initial_sets=5)
        assert multi.error <= single.error

    def test_random_initialization_runs(self):
        rng = np.random.default_rng(8)
        tensor, _ = planted_tensor((12, 12, 12), rank=2, factor_density=0.4, rng=rng)
        result = dbtf(
            tensor, rank=2, seed=5, n_partitions=2, initialization="random"
        )
        # Still a valid decomposition even if quality is poor.
        assert result.error == tensor.hamming_distance(result.reconstruct())


class TestConvergence:
    def test_converges_before_max_iterations(self):
        rng = np.random.default_rng(9)
        tensor, _ = planted_tensor((12, 12, 12), rank=2, factor_density=0.4, rng=rng)
        result = dbtf(tensor, rank=2, seed=0, n_partitions=2, max_iterations=50)
        assert result.converged
        assert result.n_iterations < 50

    def test_max_iterations_respected(self):
        rng = np.random.default_rng(10)
        tensor = random_tensor((8, 8, 8), density=0.2, rng=rng)
        result = dbtf(tensor, rank=2, seed=0, n_partitions=2, max_iterations=1)
        assert result.n_iterations == 1

    def test_loose_tolerance_stops_earlier_or_equal(self):
        rng = np.random.default_rng(11)
        tensor, _ = planted_tensor((16, 16, 16), rank=3, factor_density=0.3, rng=rng)
        strict = dbtf(tensor, rank=3, seed=1, n_partitions=2, tolerance=0.0)
        loose = dbtf(tensor, rank=3, seed=1, n_partitions=2, tolerance=0.5)
        assert loose.n_iterations <= strict.n_iterations


class TestEngineAccounting:
    def test_unfoldings_shuffled_once(self):
        rng = np.random.default_rng(12)
        tensor = random_tensor((10, 10, 10), density=0.1, rng=rng)
        runtime = SimulatedRuntime()
        dbtf(tensor, rank=2, seed=0, n_partitions=2, max_iterations=2, runtime=runtime)
        shuffle_stages = [
            stage
            for stage in runtime.ledger.by_stage
            if stage.startswith("partitionUnfolding")
        ]
        assert len(shuffle_stages) == 3  # one per mode, never repeated

    def test_shuffle_volume_is_lemma6_bound(self):
        # Exactly the sparse coordinate triples move: 3 int64 per nonzero
        # per mode (Lemma 6's O(|X|)).
        rng = np.random.default_rng(15)
        tensor = random_tensor((10, 12, 8), density=0.1, rng=rng)
        runtime = SimulatedRuntime()
        dbtf(tensor, rank=2, seed=0, n_partitions=3, max_iterations=1,
             runtime=runtime)
        shuffled = runtime.ledger.bytes_of_kind(TransferKind.SHUFFLE)
        assert shuffled == 3 * tensor.nnz * 3 * 8

    def test_report_attached(self):
        rng = np.random.default_rng(13)
        tensor = random_tensor((8, 8, 8), density=0.1, rng=rng)
        result = dbtf(tensor, rank=2, seed=0, n_partitions=2, max_iterations=1)
        assert result.report is not None
        assert result.report.simulated_time > 0
        assert result.report.shuffle_bytes > 0
        assert result.report.broadcast_bytes > 0

    def test_simulated_time_decreases_with_machines(self):
        rng = np.random.default_rng(14)
        tensor = random_tensor((16, 16, 16), density=0.1, rng=rng)
        runtime = SimulatedRuntime()
        dbtf(tensor, rank=3, seed=0, n_partitions=16, max_iterations=2, runtime=runtime)
        assert runtime.simulated_time(16) <= runtime.simulated_time(1) + 1e-9


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rank": 0},
            {"rank": 2, "max_iterations": 0},
            {"rank": 2, "n_initial_sets": 0},
            {"rank": 2, "n_partitions": 0},
            {"rank": 2, "cache_group_size": 0},
            {"rank": 2, "cache_group_size": 63},
            {"rank": 2, "tolerance": -0.1},
            {"rank": 2, "init_density": 0.0},
            {"rank": 2, "init_density": 1.5},
            {"rank": 2, "initialization": "magic"},
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ValueError):
            DbtfConfig(**kwargs)

    def test_resolved_partitions_default(self):
        cluster = ClusterConfig(n_machines=2, cores_per_machine=3)
        with SimulatedRuntime(cluster) as runtime:
            assert DbtfConfig(rank=2).resolved_partitions(runtime) == 6

    def test_resolved_partitions_explicit(self):
        config = DbtfConfig(rank=2, n_partitions=5)
        with SimulatedRuntime() as runtime:
            assert config.resolved_partitions(runtime) == 5


class TestRuntimeOverrides:
    """Cluster settings come from the runtime, never from the config."""

    MISMATCHES = [
        ("backend", {"backend": "thread"}),
        ("n_workers", {"n_workers": 3}),
        ("tracing", {"tracing": True}),
        ("memory_budget", {"memory_budget": 1 << 20}),
        ("spill_dir", {"spill_dir": "/nonexistent-spill-root"}),
    ]

    @pytest.mark.parametrize("field,override", MISMATCHES)
    def test_conflicting_override_names_the_field(self, field, override):
        tensor = random_tensor((6, 6, 6), density=0.2,
                               rng=np.random.default_rng(0))
        with SimulatedRuntime() as runtime:
            with pytest.raises(TypeError, match=field):
                dbtf(tensor, rank=2, runtime=runtime, **override)
            assert not runtime.stages  # rejected before any work ran

    def test_unset_overrides_accept_any_runtime(self):
        tensor = random_tensor((6, 6, 6), density=0.2,
                               rng=np.random.default_rng(1))
        cluster = ClusterConfig(backend="thread", n_workers=2, tracing=True,
                                memory_budget=1 << 20)
        with SimulatedRuntime(cluster) as runtime:
            result = dbtf(tensor, rank=2, seed=0, n_partitions=2,
                          max_iterations=1, runtime=runtime)
            assert runtime.storage is not None  # the budget took effect
            assert runtime.tracer.spans
        assert result.n_iterations == 1


class TestPartitionsFollowRuntime:
    """``n_partitions=None`` resolves against the runtime that runs the job."""

    CLUSTER = ClusterConfig(n_machines=2, cores_per_machine=2)

    @staticmethod
    def _task_counts(runtime):
        return {
            stage.n_tasks
            for stage in runtime.stages
            if "partitionAndPack" in stage.name or "columnErrors" in stage.name
        }

    def test_dbtf_partitions_from_supplied_runtime(self):
        tensor = random_tensor((8, 8, 8), density=0.1,
                               rng=np.random.default_rng(4))
        with SimulatedRuntime(self.CLUSTER) as runtime:
            dbtf(tensor, config=DbtfConfig(rank=2, max_iterations=1),
                 runtime=runtime)
            assert self._task_counts(runtime) == {4}
            assert any("partitionAndPack" in s.name for s in runtime.stages)

    def test_session_partitions_from_supplied_runtime(self):
        from repro import FactorizationSession

        tensor = random_tensor((8, 8, 8), density=0.1,
                               rng=np.random.default_rng(5))
        with SimulatedRuntime(self.CLUSTER) as runtime:
            with FactorizationSession(
                tensor, DbtfConfig(rank=2, max_iterations=1), runtime
            ) as session:
                session.factorize()
            assert self._task_counts(runtime) == {4}
            assert any("partitionAndPack" in s.name for s in runtime.stages)
