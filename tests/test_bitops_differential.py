"""Differential correctness harness for the public Boolean kernels.

Every public kernel in :mod:`repro.bitops` is pinned bit-identical to an
independent reference on the same inputs: the loop-form ``_*_rowloop``
functions for the matrix kernels, and a dense unpack-and-compare oracle
for the XOR-popcount error kernels.  ``KERNEL_TABLE`` lists the pairs.
Shapes cover the degenerate cases the kernels have to survive: 0-row/
0-column operands, the exact batched-matmul row threshold, and >64-column
multi-word rows.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitops import BitMatrix, ops, packing
from repro.bitops.ops import (
    _BATCH_MIN_ROWS,
    _boolean_matmul_batched,
    _boolean_matmul_rowloop,
    _khatri_rao_rowloop,
    _pointwise_rowloop,
    boolean_matmul,
    khatri_rao,
    pointwise_vector_matrix,
    xor_popcount,
    xor_popcount_rows,
)

#: Dimensions that historically break packed-bit kernels: empty, single,
#: word-boundary straddlers (63/64/65), the batched-matmul threshold, and
#: multi-word widths.
EDGE_DIMS = [0, 1, 7, 8, 31, _BATCH_MIN_ROWS - 1, _BATCH_MIN_ROWS,
             _BATCH_MIN_ROWS + 1, 63, 64, 65, 129]

dims = st.sampled_from(EDGE_DIMS) | st.integers(min_value=0, max_value=140)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _dense_xor_rows(a, b):
    """Oracle: differing bits per row, counted on the unpacked 0/1 arrays."""
    a_bits = packing.unpack_bits(a, packing.WORD_BITS * a.shape[-1])
    b_bits = packing.unpack_bits(b, packing.WORD_BITS * b.shape[-1])
    return (a_bits != b_bits).sum(axis=-1, dtype=np.int64)


def _dense_xor_total(a, b):
    return int(_dense_xor_rows(a, b).sum())


#: Public kernel -> independent reference it must match bit for bit.
KERNEL_TABLE = {
    "boolean_matmul": (boolean_matmul, _boolean_matmul_rowloop),
    "khatri_rao": (khatri_rao, _khatri_rao_rowloop),
    "pointwise_vector_matrix": (pointwise_vector_matrix, _pointwise_rowloop),
    "xor_popcount": (xor_popcount, _dense_xor_total),
    "xor_popcount_rows": (xor_popcount_rows, _dense_xor_rows),
}


def _assert_matches_reference(kernel_name, args):
    kernel, reference = KERNEL_TABLE[kernel_name]
    expected = reference(*args)
    actual = kernel(*args)
    assert actual == expected, (
        f"{kernel_name} diverged from its reference on shape {expected.shape}"
    )
    assert actual.words.dtype == np.uint64


class TestBooleanMatmulDifferential:
    @settings(max_examples=60, deadline=None)
    @given(m=dims, k=dims, n=dims, seed=seeds)
    def test_all_impls_bit_identical(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        left = BitMatrix.random(m, k, 0.3, rng)
        right = BitMatrix.random(k, n, 0.3, rng)
        _assert_matches_reference("boolean_matmul", (left, right))
        # The batched body is checked directly too, whatever the row count.
        assert _boolean_matmul_batched(left, right) == _boolean_matmul_rowloop(
            left, right
        )

    @pytest.mark.parametrize(
        "m", [_BATCH_MIN_ROWS - 1, _BATCH_MIN_ROWS, _BATCH_MIN_ROWS + 1]
    )
    def test_at_threshold_rows(self, m):
        """The exact row threshold gets explicit (non-random) coverage."""
        rng = np.random.default_rng(7)
        left = BitMatrix.random(m, 70, 0.4, rng)
        right = BitMatrix.random(70, 130, 0.4, rng)
        reference = _boolean_matmul_rowloop(left, right)
        assert boolean_matmul(left, right) == reference
        assert _boolean_matmul_batched(left, right) == reference


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
        _assert_matches_reference("khatri_rao", (left, right))


class TestPointwiseDifferential:
    @settings(max_examples=40, deadline=None)
    @given(rows=dims, cols=dims, seed=seeds)
    def test_all_impls_bit_identical(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        matrix = BitMatrix.random(rows, cols, 0.4, rng)
        vector = (rng.random(cols) < 0.5).astype(np.uint8)
        _assert_matches_reference("pointwise_vector_matrix", (vector, matrix))


class TestXorPopcountDifferential:
    @settings(max_examples=40, deadline=None)
    @given(rows=dims, words=st.sampled_from([0, 1, 2, 3, 9]), seed=seeds)
    def test_rows_impls_identical(self, rows, words, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 1 << 64, size=(rows, words), dtype=np.uint64)
        b = rng.integers(0, 1 << 64, size=(rows, words), dtype=np.uint64)
        out = xor_popcount_rows(a, b)
        expected = _dense_xor_rows(a, b)
        assert out.dtype == np.int64
        assert out.shape == expected.shape
        assert np.array_equal(out, expected)

    @settings(max_examples=40, deadline=None)
    @given(rows=dims, words=st.sampled_from([0, 1, 2, 3, 9]), seed=seeds)
    def test_total_impls_identical(self, rows, words, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 1 << 64, size=(rows, words), dtype=np.uint64)
        b = rng.integers(0, 1 << 64, size=(rows, words), dtype=np.uint64)
        total = xor_popcount(a, b)
        assert type(total) is int
        assert total == _dense_xor_total(a, b)

    def test_three_dimensional_operands(self):
        """The CP hot path calls the rows kernel on (rows, blocks, words)."""
        rng = np.random.default_rng(3)
        a = rng.integers(0, 1 << 64, size=(11, 4, 3), dtype=np.uint64)
        b = rng.integers(0, 1 << 64, size=(11, 4, 3), dtype=np.uint64)
        out = xor_popcount_rows(a, b)
        assert out.shape == (11, 4)
        assert np.array_equal(out, _dense_xor_rows(a, b))
        assert xor_popcount(a, b) == _dense_xor_total(a, b)

    def test_broadcast_operands(self):
        """Broadcasting (1, W) against (N, W) must match materialized inputs."""
        rng = np.random.default_rng(4)
        a = rng.integers(0, 1 << 64, size=(1, 5), dtype=np.uint64)
        b = rng.integers(0, 1 << 64, size=(24, 5), dtype=np.uint64)
        expected = _dense_xor_rows(np.broadcast_to(a, b.shape), b)
        assert np.array_equal(xor_popcount_rows(a, b), expected)


class TestKernelTable:
    """The pair table itself is part of the contract the harness verifies."""

    def test_table_covers_every_public_kernel(self):
        public = set(ops.__all__) - {"or_accumulate_table"}
        assert set(KERNEL_TABLE) == public

    def test_every_kernel_has_an_independent_reference(self):
        for kernel_name, (kernel, reference) in KERNEL_TABLE.items():
            assert kernel is getattr(ops, kernel_name)
            assert reference is not kernel, kernel_name

    def test_row_threshold_picks_the_matmul_body(self, monkeypatch):
        """Below ``_BATCH_MIN_ROWS`` the row loop runs, from it the gather."""
        calls = []

        def spy(left, right):
            calls.append(left.n_rows)
            return _boolean_matmul_batched(left, right)

        monkeypatch.setattr(ops, "_boolean_matmul_batched", spy)
        rng = np.random.default_rng(5)
        right = BitMatrix.random(20, 30, 0.4, rng)
        for m in (_BATCH_MIN_ROWS - 1, _BATCH_MIN_ROWS):
            boolean_matmul(BitMatrix.random(m, 20, 0.4, rng), right)
        assert calls == ([_BATCH_MIN_ROWS] if sys.byteorder == "little" else [])

    def test_little_endian_guard_forces_rowloop(self, monkeypatch):
        """On a big-endian host the byte-view gather must never run.

        Compute the batched result first (on this little-endian host), then
        monkeypatch the reported byteorder: the public kernel must take the
        row loop, and its output must equal the batched one.
        """
        rng = np.random.default_rng(11)
        left = BitMatrix.random(_BATCH_MIN_ROWS + 8, 70, 0.4, rng)
        right = BitMatrix.random(70, 90, 0.4, rng)
        batched_expected = _boolean_matmul_batched(left, right)

        def refuse(left, right):
            raise AssertionError("batched gather ran on a big-endian host")

        monkeypatch.setattr(sys, "byteorder", "big")
        monkeypatch.setattr(ops, "_boolean_matmul_batched", refuse)
        assert boolean_matmul(left, right) == batched_expected
