"""Differential correctness harness for the kernel-dispatch registry.

Every registered implementation of every kernel must produce bit-identical
packed words on the same inputs — this is the contract that lets the
dispatch tier (heuristic, autotuned, or forced) change *speed* without
ever changing *results*.  Shapes cover the degenerate cases dispatch has
to survive: 0-row/0-column operands, the exact batched-path threshold,
and >64-column multi-word rows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitops import BitMatrix
from repro.bitops import dispatch
from repro.bitops.ops import _BATCH_MIN_ROWS

#: Dimensions that historically break packed-bit kernels: empty, single,
#: word-boundary straddlers (63/64/65), the batched-matmul threshold, and
#: multi-word widths.
EDGE_DIMS = [0, 1, 7, 8, 31, _BATCH_MIN_ROWS - 1, _BATCH_MIN_ROWS,
             _BATCH_MIN_ROWS + 1, 63, 64, 65, 129]

dims = st.sampled_from(EDGE_DIMS) | st.integers(min_value=0, max_value=140)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _impl_items(kernel_name):
    entry = dispatch.kernel(kernel_name)
    return sorted(entry.impls.items())


def _assert_all_equal(kernel_name, reference, outputs):
    for name, out in outputs:
        assert out == reference, (
            f"{kernel_name} impl {name!r} diverged from the reference "
            f"on shape {reference.shape}"
        )
        assert out.words.dtype == np.uint64


class TestBooleanMatmulDifferential:
    @settings(max_examples=60, deadline=None)
    @given(m=dims, k=dims, n=dims, seed=seeds)
    def test_all_impls_bit_identical(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        left = BitMatrix.random(m, k, 0.3, rng)
        right = BitMatrix.random(k, n, 0.3, rng)
        entry = dispatch.kernel("boolean_matmul")
        reference = entry.reference.fn(left, right)
        outputs = [
            (name, spec.fn(left, right))
            for name, spec in _impl_items("boolean_matmul")
            if spec.eligible()
        ]
        _assert_all_equal("boolean_matmul", reference, outputs)

    @pytest.mark.parametrize(
        "m", [_BATCH_MIN_ROWS - 1, _BATCH_MIN_ROWS, _BATCH_MIN_ROWS + 1]
    )
    def test_at_threshold_rows(self, m):
        """The exact dispatch boundary gets explicit (non-random) coverage."""
        rng = np.random.default_rng(7)
        left = BitMatrix.random(m, 70, 0.4, rng)
        right = BitMatrix.random(70, 130, 0.4, rng)
        entry = dispatch.kernel("boolean_matmul")
        reference = entry.reference.fn(left, right)
        for name, spec in _impl_items("boolean_matmul"):
            if spec.eligible():
                assert spec.fn(left, right) == reference, name


class TestKhatriRaoDifferential:
    @settings(max_examples=40, deadline=None)
    @given(
        p=st.sampled_from([0, 1, 5, 17, 33]) | st.integers(0, 40),
        q=st.sampled_from([0, 1, 5, 17, 33]) | st.integers(0, 40),
        r=dims,
        seed=seeds,
    )
    def test_all_impls_bit_identical(self, p, q, r, seed):
        rng = np.random.default_rng(seed)
        left = BitMatrix.random(p, r, 0.4, rng)
        right = BitMatrix.random(q, r, 0.4, rng)
        entry = dispatch.kernel("khatri_rao")
        reference = entry.reference.fn(left, right)
        outputs = [
            (name, spec.fn(left, right))
            for name, spec in _impl_items("khatri_rao")
            if spec.eligible()
        ]
        _assert_all_equal("khatri_rao", reference, outputs)


class TestPointwiseDifferential:
    @settings(max_examples=40, deadline=None)
    @given(rows=dims, cols=dims, seed=seeds)
    def test_all_impls_bit_identical(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        matrix = BitMatrix.random(rows, cols, 0.4, rng)
        vector = (rng.random(cols) < 0.5).astype(np.uint8)
        entry = dispatch.kernel("pointwise_vector_matrix")
        reference = entry.reference.fn(vector, matrix)
        outputs = [
            (name, spec.fn(vector, matrix))
            for name, spec in _impl_items("pointwise_vector_matrix")
            if spec.eligible()
        ]
        _assert_all_equal("pointwise_vector_matrix", reference, outputs)


class TestXorPopcountDifferential:
    @settings(max_examples=40, deadline=None)
    @given(rows=dims, words=st.sampled_from([0, 1, 2, 3, 9]), seed=seeds)
    def test_rows_impls_identical(self, rows, words, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 1 << 64, size=(rows, words), dtype=np.uint64)
        b = rng.integers(0, 1 << 64, size=(rows, words), dtype=np.uint64)
        entry = dispatch.kernel("xor_popcount_rows")
        reference = entry.reference.fn(a, b)
        for name, spec in _impl_items("xor_popcount_rows"):
            if spec.eligible():
                out = np.asarray(spec.fn(a, b))
                assert out.shape == reference.shape, name
                assert np.array_equal(out, reference), name

    @settings(max_examples=40, deadline=None)
    @given(rows=dims, words=st.sampled_from([0, 1, 2, 3, 9]), seed=seeds)
    def test_total_impls_identical(self, rows, words, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 1 << 64, size=(rows, words), dtype=np.uint64)
        b = rng.integers(0, 1 << 64, size=(rows, words), dtype=np.uint64)
        entry = dispatch.kernel("xor_popcount")
        reference = entry.reference.fn(a, b)
        for name, spec in _impl_items("xor_popcount"):
            if spec.eligible():
                assert int(spec.fn(a, b)) == reference, name

    def test_three_dimensional_operands(self):
        """The CP hot path calls the rows kernel on (rows, blocks, words)."""
        rng = np.random.default_rng(3)
        a = rng.integers(0, 1 << 64, size=(11, 4, 3), dtype=np.uint64)
        b = rng.integers(0, 1 << 64, size=(11, 4, 3), dtype=np.uint64)
        entry = dispatch.kernel("xor_popcount_rows")
        reference = entry.reference.fn(a, b)
        assert reference.shape == (11, 4)
        for name, spec in _impl_items("xor_popcount_rows"):
            if spec.eligible():
                assert np.array_equal(np.asarray(spec.fn(a, b)), reference), name

    def test_broadcast_operands(self):
        """Broadcasting (1, W) against (N, W) must match materialized inputs."""
        rng = np.random.default_rng(4)
        a = rng.integers(0, 1 << 64, size=(1, 5), dtype=np.uint64)
        b = rng.integers(0, 1 << 64, size=(24, 5), dtype=np.uint64)
        entry = dispatch.kernel("xor_popcount_rows")
        reference = entry.reference.fn(np.broadcast_to(a, b.shape), b)
        for name, spec in _impl_items("xor_popcount_rows"):
            if spec.eligible():
                assert np.array_equal(np.asarray(spec.fn(a, b)), reference), name


class TestRegistryCompleteness:
    """The registry itself is part of the contract the harness verifies."""

    EXPECTED = {
        "boolean_matmul": {"rowloop", "batched", "bulk"},
        "khatri_rao": {"rowloop", "broadcast", "bulk"},
        "pointwise_vector_matrix": {"rowloop", "mask"},
        "xor_popcount": {"twopass", "fused"},
        "xor_popcount_rows": {"twopass", "fused"},
    }

    def test_every_kernel_registered_with_expected_impls(self):
        assert set(self.EXPECTED) <= set(dispatch.kernel_names())
        for kernel_name, expected in self.EXPECTED.items():
            registered = set(dispatch.kernel(kernel_name).impls)
            assert expected == registered, kernel_name
            assert not registered & dispatch.RETIRED_IMPLS, kernel_name

    def test_every_kernel_has_a_reference_impl(self):
        for kernel_name in self.EXPECTED:
            entry = dispatch.kernel(kernel_name)
            assert entry.reference_name is not None
            assert entry.reference.reference

    def test_batched_matmul_declares_endianness_requirement(self):
        spec = dispatch.kernel("boolean_matmul").impls["batched"]
        assert spec.needs_little_endian

    def test_little_endian_guard_forces_rowloop(self, monkeypatch):
        """The previously untested byteorder guard, now via the registry.

        Compute the batched result first (on this little-endian host), then
        monkeypatch the reported byteorder: the batched impl must become
        ineligible, the fixed-tier heuristic must fall back to the row
        loop, and the row-loop output must equal the batched one.
        """
        import sys as real_sys

        from repro.bitops import boolean_matmul
        from repro.bitops import dispatch as dispatch_module

        rng = np.random.default_rng(11)
        left = BitMatrix.random(_BATCH_MIN_ROWS + 8, 70, 0.4, rng)
        right = BitMatrix.random(70, 90, 0.4, rng)
        entry = dispatch.kernel("boolean_matmul")
        batched_expected = entry.impls["batched"].fn(left, right)

        monkeypatch.setattr(real_sys, "byteorder", "big")
        assert not entry.impls["batched"].eligible()
        dispatcher = dispatch_module.KernelDispatcher(tier="fixed")
        shape = (left.n_rows, left.n_cols, right.n_cols)
        assert dispatcher.choose("boolean_matmul", shape) == "rowloop"
        # Forcing the batched tier must also refuse the ineligible impl.
        forced = dispatch_module.KernelDispatcher(tier="batched")
        assert forced.choose("boolean_matmul", shape) == "rowloop"
        # And the public wrapper's output is unchanged.
        assert boolean_matmul(left, right) == batched_expected
