"""Unit and integration tests for the Boolean Tucker extension."""

import hashlib

import numpy as np
import pytest

from repro.bitops import BitMatrix
from repro.distengine import ClusterConfig, SimulatedRuntime
from repro.tensor import SparseBoolTensor
from repro.tucker import (
    BooleanTuckerConfig,
    BooleanTuckerResult,
    boolean_tucker,
    tucker_reconstruct,
)
from repro.tucker.decompose import _reconstruct_dense

from .algorithm4_oracle import dense_tucker

# The solver partitions the tensor into one block per slot; four keep
# these small tensors fast (the default cluster has 128 slots).
SMALL_CLUSTER = ClusterConfig(n_machines=2, cores_per_machine=2)


@pytest.fixture
def runtime():
    with SimulatedRuntime(SMALL_CLUSTER) as runtime:
        yield runtime


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
        # The one call here on the default runtime (owned and closed).
        tensor, _, _ = planted_tucker((16, 16, 16), (2, 2, 2), 0.3, 0.5, seed=2)
        result = boolean_tucker(tensor, core_shape=(2, 2, 2))
        assert result.error == tensor.hamming_distance(result.reconstruct())

    def test_recovers_planted_structure(self, runtime):
        tensor, _, _ = planted_tucker((24, 24, 24), (3, 3, 3), 0.25, 0.4, seed=0)
        config = BooleanTuckerConfig(core_shape=(3, 3, 3), n_initial_sets=6)
        result = boolean_tucker(tensor, config=config, runtime=runtime)
        assert result.relative_error < 0.35

    def test_errors_monotone(self, runtime):
        tensor, _, _ = planted_tucker((16, 16, 16), (2, 3, 2), 0.3, 0.5, seed=3)
        result = boolean_tucker(tensor, core_shape=(2, 3, 2), runtime=runtime)
        errors = result.errors_per_iteration
        assert all(a >= b for a, b in zip(errors, errors[1:]))

    def test_non_cubic_core(self, runtime):
        tensor, _, _ = planted_tucker((12, 14, 10), (2, 3, 4), 0.3, 0.4, seed=4)
        result = boolean_tucker(tensor, core_shape=(2, 3, 4), runtime=runtime)
        assert result.core.shape == (2, 3, 4)
        assert result.factors[0].shape == (12, 2)
        assert result.factors[1].shape == (14, 3)
        assert result.factors[2].shape == (10, 4)

    def test_empty_tensor(self):
        result = boolean_tucker(SparseBoolTensor.empty((6, 6, 6)), core_shape=(2, 2, 2))
        assert result.error == 0
        assert result.core.nnz == 0

    def test_more_restarts_never_worse(self, runtime):
        tensor, _, _ = planted_tucker((16, 16, 16), (3, 3, 3), 0.3, 0.4, seed=5)
        single = boolean_tucker(
            tensor, config=BooleanTuckerConfig(core_shape=(3, 3, 3), n_initial_sets=1),
            runtime=runtime,
        )
        multi = boolean_tucker(
            tensor, config=BooleanTuckerConfig(core_shape=(3, 3, 3), n_initial_sets=4),
            runtime=runtime,
        )
        assert multi.error <= single.error

    def test_deterministic_given_seed(self, runtime):
        tensor, _, _ = planted_tucker((12, 12, 12), (2, 2, 2), 0.3, 0.5, seed=6)
        first = boolean_tucker(tensor, core_shape=(2, 2, 2), runtime=runtime)
        second = boolean_tucker(tensor, core_shape=(2, 2, 2), runtime=runtime)
        assert first.error == second.error
        assert first.factors == second.factors

    def test_tucker_beats_cp_on_dense_core_structure(self, runtime):
        # A full 2x2x2 core needs rank-8 CP but only 2 columns per Tucker
        # factor; at matched factor budget Tucker should fit better.
        from repro import dbtf

        tensor, _, _ = planted_tucker((20, 20, 20), (2, 2, 2), 0.3, 1.0, seed=7)
        tucker_result = boolean_tucker(
            tensor, config=BooleanTuckerConfig(core_shape=(2, 2, 2), n_initial_sets=4),
            runtime=runtime,
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


def _digest(factors, core_coords, errors):
    h = hashlib.sha256()
    for factor in factors:
        h.update(factor.words.tobytes())
    h.update(core_coords.tobytes())
    h.update(repr(tuple(errors)).encode())
    return h.hexdigest()[:16]


class TestDistributedMatchesDense:
    """The engine-backed solver runs the dense oracle's greedy updates from
    the same initialization stream, so the two must agree exactly; and
    every case still gives the same bits as the dense single-machine
    solver it replaced (its factor words, core coords and error trace,
    digested)."""

    DENSE_SOLVER_DIGESTS = {
        ((2, 2, 2), 1, 0): "801f1a1f356ce2c4",
        ((2, 2, 2), 1, 1): "d40c52dacc9ddc21",
        ((2, 2, 2), 1, 2): "a96c552c34be7e24",
        ((2, 2, 2), 1, 3): "be0523969a172500",
        ((2, 2, 2), 2, 0): "4ceb574bd5d5dbfc",
        ((2, 2, 2), 2, 1): "d3d016f1b210fb57",
        ((2, 2, 2), 2, 2): "a96c552c34be7e24",
        ((2, 2, 2), 2, 3): "be0523969a172500",
        ((3, 2, 4), 1, 0): "9fac31208cf08915",
        ((3, 2, 4), 1, 1): "92a78c0cbf186347",
        ((3, 2, 4), 1, 2): "60c90a31b54e3871",
        ((3, 2, 4), 1, 3): "01b2209c1439f1b0",
        ((3, 2, 4), 2, 0): "9a4a60671eeb3bd6",
        ((3, 2, 4), 2, 1): "92a78c0cbf186347",
        ((3, 2, 4), 2, 2): "60c90a31b54e3871",
        ((3, 2, 4), 2, 3): "5ff8cf9bbdc18107",
    }

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n_initial_sets", [1, 2])
    @pytest.mark.parametrize("core_shape", [(2, 2, 2), (3, 2, 4)])
    def test_same_decomposition(self, core_shape, n_initial_sets, seed,
                                runtime):
        tensor, _, _ = planted_tucker((20, 18, 16), core_shape, 0.3, 0.5, seed)
        config = BooleanTuckerConfig(
            core_shape=core_shape, n_initial_sets=n_initial_sets, seed=seed
        )
        result = boolean_tucker(tensor, config=config, runtime=runtime)
        factors, core, errors = dense_tucker(tensor, config)
        assert [f.to_dense().tobytes() for f in result.factors] == [
            factor.tobytes() for factor in factors
        ]
        assert result.core == SparseBoolTensor.from_dense(core)
        assert result.errors_per_iteration == errors
        assert _digest(
            result.factors, result.core.coords, result.errors_per_iteration
        ) == self.DENSE_SOLVER_DIGESTS[(core_shape, n_initial_sets, seed)]
