"""End-to-end integration tests across the whole library."""

import numpy as np
import pytest

from repro import dbtf, planted_tensor
from repro.baselines import WalkNMergeConfig, bcp_als, walk_n_merge
from repro.datasets import load_dataset
from repro.metrics import (
    coverage_stats,
    description_length,
    factor_match_score,
    reconstruction_error,
)


class TestFullPipeline:
    def test_generate_factorize_evaluate_roundtrip(self, tmp_path):
        """The full user journey: generate -> save -> load -> factorize ->
        evaluate -> persist factors -> reload -> same error."""
        from repro.tensor import load_factors, load_tensor, save_factors, save_tensor

        rng = np.random.default_rng(0)
        tensor, planted = planted_tensor((20, 20, 20), rank=3,
                                         factor_density=0.3, rng=rng)
        tensor_path = tmp_path / "data.tns"
        save_tensor(tensor, tensor_path)
        loaded = load_tensor(tensor_path)
        assert loaded == tensor

        result = dbtf(loaded, rank=3, seed=0, n_initial_sets=4, n_partitions=4)
        assert result.error == reconstruction_error(tensor, result.factors)

        save_factors(result.factors, tmp_path / "factors")
        reloaded = load_factors(tmp_path / "factors")
        assert reconstruction_error(tensor, reloaded) == result.error

        stats = coverage_stats(tensor, reloaded)
        assert 0 <= stats["precision"] <= 1
        assert 0 <= stats["recall"] <= 1
        assert description_length(tensor, reloaded) > 0
        assert 0 <= factor_match_score(reloaded, planted) <= 1

    def test_three_methods_on_same_dataset(self):
        """All three paper methods run on a Table III stand-in and produce
        valid factorizations of the same tensor."""
        tensor = load_dataset("facebook", seed=0)
        dbtf_result = dbtf(tensor, rank=6, seed=0, n_partitions=8,
                           max_iterations=3, n_initial_sets=2)
        wnm_result = walk_n_merge(
            tensor, rank=6,
            config=WalkNMergeConfig(density_threshold=0.6, seed=0),
        )
        bcp_result = bcp_als(tensor, rank=6, max_iterations=3,
                             memory_budget_bytes=2**30)
        for result in (dbtf_result, wnm_result, bcp_result):
            assert result.error == reconstruction_error(tensor, result.factors)
            assert result.error <= tensor.nnz
        # DBTF should find real structure in the blocky stand-in.
        assert dbtf_result.relative_error < 0.8

    @pytest.mark.slow
    def test_dbtf_scales_to_hundred_thousand_nonzeros(self):
        from repro.datasets import scalability_tensor

        tensor = scalability_tensor(8, 0.01, seed=0)  # ~168K nonzeros
        result = dbtf(tensor, rank=5, seed=0, n_partitions=16, max_iterations=2)
        assert result.error <= tensor.nnz
        assert result.report.simulated_time > 0

    def test_mdl_and_tucker_agree_on_structure(self):
        """Rank selection + Tucker on the same planted tensor."""
        from repro.distengine import ClusterConfig, SimulatedRuntime
        from repro.metrics import select_rank
        from repro.tucker import BooleanTuckerConfig, boolean_tucker

        rng = np.random.default_rng(1)
        tensor, _ = planted_tensor((16, 16, 16), rank=2, factor_density=0.4,
                                   rng=rng)
        selection = select_rank(tensor, ranks=(1, 2, 4))
        assert selection.best_rank == 2
        cluster = ClusterConfig(n_machines=2, cores_per_machine=2)
        with SimulatedRuntime(cluster) as runtime:
            tucker_result = boolean_tucker(
                tensor,
                config=BooleanTuckerConfig(core_shape=(2, 2, 2), n_initial_sets=4),
                runtime=runtime,
            )
        assert tucker_result.relative_error < 0.5
