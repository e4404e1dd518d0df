"""Every engine-backed column update matches the dense Algorithm 4 oracle.

CP's ``update_factor`` and Tucker's ``update_tucker_factor`` sweep the
same columns through the row-summation caches, split into groups of V
columns, over vertically partitioned unfoldings.  None of that may change
a single bit: each call must give the factor and the error that the dense
reference (:mod:`tests.algorithm4_oracle`) computes from plain arrays.
Ranks above 15 with group sizes down to 1 make the caches split.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitops import BitMatrix
from repro.core import (
    DbtfConfig,
    prepare_partitioned_unfoldings,
    update_factor,
)
from repro.distengine import SimulatedRuntime
from repro.tensor import MODE_FACTOR_ROLES, SparseBoolTensor
from repro.tucker import update_tucker_factor
from repro.tucker.decompose import _TUCKER_MODE_ROLES

from .algorithm4_oracle import coverage_slabs, cp_slabs, update_factor_dense

sides = st.tuples(st.integers(3, 8), st.integers(3, 8), st.integers(3, 8))


def _random_tensor(shape, rng):
    dense = _random_bits(shape, rng, 0.1, 0.6)
    return dense, SparseBoolTensor.from_dense(dense)


def _random_bits(shape, rng, low, high):
    return (rng.random(shape) < rng.uniform(low, high)).astype(np.uint8)


def _mode_rdd(tensor, mode, n_partitions, runtime):
    return prepare_partitioned_unfoldings(tensor, n_partitions, runtime)[mode]


class TestCpUpdateMatchesOracle:
    @given(sides, st.integers(1, 20), st.integers(1, 15), st.integers(0, 2),
           st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_update_factor(self, shape, rank, group_size, mode, n_partitions,
                           seed):
        rng = np.random.default_rng(seed)
        dense, tensor = _random_tensor(shape, rng)
        factors = [_random_bits((side, rank), rng, 0.2, 0.7) for side in shape]
        roles = MODE_FACTOR_ROLES[mode]
        target, outer, inner = roles
        unfolded = dense.transpose(roles).reshape(shape[target], -1)
        want, want_error = update_factor_dense(
            unfolded, factors[target], cp_slabs(factors[outer], factors[inner])
        )

        config = DbtfConfig(rank=rank, cache_group_size=group_size)
        with SimulatedRuntime() as runtime:
            got, error = update_factor(
                _mode_rdd(tensor, mode, n_partitions, runtime),
                *(BitMatrix.from_dense(factors[i]) for i in roles),
                config,
                runtime,
            )
        np.testing.assert_array_equal(got.to_dense(), want)
        assert error == want_error


class TestTuckerUpdateMatchesOracle:
    @given(sides, st.tuples(st.integers(1, 16), st.integers(1, 16),
                            st.integers(1, 16)),
           st.integers(1, 15), st.integers(0, 2), st.integers(1, 4),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_update_tucker_factor(self, shape, core_shape, group_size, mode,
                                  n_partitions, seed):
        rng = np.random.default_rng(seed)
        dense, tensor = _random_tensor(shape, rng)
        factors = [
            _random_bits((side, rank), rng, 0.2, 0.7)
            for side, rank in zip(shape, core_shape)
        ]
        core = _random_bits(core_shape, rng, 0.05, 0.5)
        outer, inner, permutation = _TUCKER_MODE_ROLES[mode]
        core_perm = core.transpose(permutation)
        unfolded = dense.transpose(permutation).reshape(shape[mode], -1)
        slabs = coverage_slabs(
            core_perm, factors[permutation[1]], factors[permutation[2]]
        )
        want, want_error = update_factor_dense(
            unfolded, factors[mode], slabs.reshape(core_shape[mode], -1)
        )

        with SimulatedRuntime() as runtime:
            got, error = update_tucker_factor(
                _mode_rdd(tensor, mode, n_partitions, runtime),
                *(BitMatrix.from_dense(factors[i])
                  for i in (mode, outer, inner)),
                core_perm,
                group_size,
                runtime,
            )
        np.testing.assert_array_equal(got.to_dense(), want)
        assert error == want_error
