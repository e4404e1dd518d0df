"""Unit and integration tests for the Boolean Tucker extension."""

import numpy as np
import pytest

from repro.bitops import BitMatrix
from repro.tensor import SparseBoolTensor, planted_tensor
from repro.tucker import (
    BooleanTuckerConfig,
    BooleanTuckerResult,
    boolean_tucker,
    dbtf_tucker,
    tucker_reconstruct,
)
from repro.tucker.decompose import _reconstruct_dense


def planted_tucker(shape, core_shape, factor_density, core_density, seed):
    rng = np.random.default_rng(seed)
    factors = tuple(
        (rng.random((dimension, rank)) < factor_density).astype(np.uint8)
        for dimension, rank in zip(shape, core_shape)
    )
    core = (rng.random(core_shape) < core_density).astype(np.uint8)
    dense = _reconstruct_dense(core, factors)
    return SparseBoolTensor.from_dense(dense), core, factors


class TestReconstruction:
    def test_reconstruct_matches_definition(self):
        rng = np.random.default_rng(0)
        core_dense = (rng.random((2, 3, 2)) < 0.5).astype(np.uint8)
        factors_dense = tuple(
            (rng.random((4, rank)) < 0.5).astype(np.uint8) for rank in (2, 3, 2)
        )
        expected = np.zeros((4, 4, 4), dtype=np.uint8)
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    for p in range(2):
                        for q in range(3):
                            for r in range(2):
                                if (core_dense[p, q, r] and factors_dense[0][i, p]
                                        and factors_dense[1][j, q]
                                        and factors_dense[2][k, r]):
                                    expected[i, j, k] = 1
        np.testing.assert_array_equal(
            _reconstruct_dense(core_dense, factors_dense), expected
        )

    def test_tucker_reconstruct_public_api(self):
        core = SparseBoolTensor.from_nonzeros((1, 1, 1), [(0, 0, 0)])
        factors = tuple(
            BitMatrix.from_dense(np.ones((3, 1), dtype=np.uint8)) for _ in range(3)
        )
        reconstructed = tucker_reconstruct(core, factors)
        assert reconstructed.nnz == 27

    def test_empty_core_gives_empty_tensor(self):
        core = SparseBoolTensor.empty((2, 2, 2))
        factors = tuple(
            BitMatrix.from_dense(np.ones((3, 2), dtype=np.uint8)) for _ in range(3)
        )
        assert tucker_reconstruct(core, factors).nnz == 0

    def test_cp_special_case(self):
        # A hyper-diagonal core makes Tucker coincide with Boolean CP.
        from repro.tensor import random_factors, tensor_from_factors

        rng = np.random.default_rng(1)
        factors = random_factors((5, 6, 7), rank=3, density=0.4, rng=rng)
        cp_tensor = tensor_from_factors(factors)
        core = SparseBoolTensor.from_nonzeros(
            (3, 3, 3), [(r, r, r) for r in range(3)]
        )
        assert tucker_reconstruct(core, factors) == cp_tensor


class TestBooleanTucker:
    def test_error_matches_reconstruction(self):
        tensor, _, _ = planted_tucker((16, 16, 16), (2, 2, 2), 0.3, 0.5, seed=2)
        result = boolean_tucker(tensor, core_shape=(2, 2, 2))
        assert result.error == tensor.hamming_distance(result.reconstruct())

    def test_recovers_planted_structure(self):
        tensor, _, _ = planted_tucker((24, 24, 24), (3, 3, 3), 0.25, 0.4, seed=0)
        config = BooleanTuckerConfig(core_shape=(3, 3, 3), n_initial_sets=6)
        result = boolean_tucker(tensor, config=config)
        assert result.relative_error < 0.35

    def test_errors_monotone(self):
        tensor, _, _ = planted_tucker((16, 16, 16), (2, 3, 2), 0.3, 0.5, seed=3)
        result = boolean_tucker(tensor, core_shape=(2, 3, 2))
        errors = result.errors_per_iteration
        assert all(a >= b for a, b in zip(errors, errors[1:]))

    def test_non_cubic_core(self):
        tensor, _, _ = planted_tucker((12, 14, 10), (2, 3, 4), 0.3, 0.4, seed=4)
        result = boolean_tucker(tensor, core_shape=(2, 3, 4))
        assert result.core.shape == (2, 3, 4)
        assert result.factors[0].shape == (12, 2)
        assert result.factors[1].shape == (14, 3)
        assert result.factors[2].shape == (10, 4)

    def test_empty_tensor(self):
        result = boolean_tucker(SparseBoolTensor.empty((6, 6, 6)), core_shape=(2, 2, 2))
        assert result.error == 0
        assert result.core.nnz == 0

    def test_more_restarts_never_worse(self):
        tensor, _, _ = planted_tucker((16, 16, 16), (3, 3, 3), 0.3, 0.4, seed=5)
        single = boolean_tucker(
            tensor, config=BooleanTuckerConfig(core_shape=(3, 3, 3), n_initial_sets=1)
        )
        multi = boolean_tucker(
            tensor, config=BooleanTuckerConfig(core_shape=(3, 3, 3), n_initial_sets=4)
        )
        assert multi.error <= single.error

    def test_deterministic_given_seed(self):
        tensor, _, _ = planted_tucker((12, 12, 12), (2, 2, 2), 0.3, 0.5, seed=6)
        first = boolean_tucker(tensor, core_shape=(2, 2, 2))
        second = boolean_tucker(tensor, core_shape=(2, 2, 2))
        assert first.error == second.error
        assert first.factors == second.factors

    def test_tucker_beats_cp_on_dense_core_structure(self):
        # A full 2x2x2 core needs rank-8 CP but only 2 columns per Tucker
        # factor; at matched factor budget Tucker should fit better.
        from repro import dbtf

        tensor, _, _ = planted_tucker((20, 20, 20), (2, 2, 2), 0.3, 1.0, seed=7)
        tucker_result = boolean_tucker(
            tensor, config=BooleanTuckerConfig(core_shape=(2, 2, 2), n_initial_sets=4)
        )
        cp_result = dbtf(tensor, rank=2, seed=0, n_partitions=4, n_initial_sets=4)
        assert tucker_result.error <= cp_result.error

    def test_non_three_way_rejected(self):
        with pytest.raises(ValueError):
            boolean_tucker(SparseBoolTensor.empty((2, 2)), core_shape=(1, 1, 1))

    def test_core_shape_or_config_required(self):
        with pytest.raises(ValueError):
            boolean_tucker(SparseBoolTensor.empty((2, 2, 2)))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"core_shape": (0, 1, 1)},
            {"core_shape": (1, 1)},
            {"core_shape": (1, 1, 1), "max_iterations": 0},
            {"core_shape": (1, 1, 1), "tolerance": -1.0},
            {"core_shape": (1, 1, 1), "n_initial_sets": 0},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            BooleanTuckerConfig(**kwargs)

    def test_result_relative_error_empty_input(self):
        result = BooleanTuckerResult(
            core=SparseBoolTensor.empty((1, 1, 1)),
            factors=tuple(BitMatrix.zeros(2, 1) for _ in range(3)),
            error=3,
            input_nnz=0,
            errors_per_iteration=(3,),
            converged=True,
        )
        assert result.relative_error == 3.0


class TestDistributedMatchesDense:
    """``dbtf_tucker`` and ``boolean_tucker`` run the same greedy updates
    from the same initialization stream, so they must agree exactly."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n_initial_sets", [1, 2])
    @pytest.mark.parametrize("core_shape", [(2, 2, 2), (3, 2, 4)])
    def test_same_decomposition(self, core_shape, n_initial_sets, seed):
        tensor, _, _ = planted_tucker((20, 18, 16), core_shape, 0.3, 0.5, seed)
        config = BooleanTuckerConfig(
            core_shape=core_shape, n_initial_sets=n_initial_sets, seed=seed
        )
        dense = boolean_tucker(tensor, config=config)
        distributed = dbtf_tucker(tensor, config=config, n_partitions=4)
        assert [f.words.tobytes() for f in distributed.factors] == [
            f.words.tobytes() for f in dense.factors
        ]
        assert np.array_equal(distributed.core.coords, dense.core.coords)
        assert distributed.errors_per_iteration == dense.errors_per_iteration
