"""Boolean linear-algebra operations on :class:`BitMatrix` operands.

These implement the operators of Section II of the paper: the Boolean matrix
product (Eq. 6), the Khatri-Rao product (Eq. 3) under Boolean semantics, and
the pointwise vector-matrix product (Eq. 4).

Every public kernel here is a thin wrapper over the dispatch tier
(:mod:`repro.bitops.dispatch`): several implementations of each kernel are
registered at the bottom of this module — the loop-form reference and
the vectorized paths — and the dispatcher picks one per call shape.  All registered implementations are
pinned bit-identical by ``tests/test_bitops_differential.py``, so dispatch
decisions change speed, never results.  The chosen implementation is
surfaced as the ``impl=`` attribute of each ``kernel_span`` and counted in
the ``kernel_dispatch_total`` metric.
"""

from __future__ import annotations

import sys

import numpy as np

from ..observability.trace import kernel_span, record_metric
from . import dispatch, packing
from .bitmatrix import BitMatrix

__all__ = [
    "boolean_matmul",
    "khatri_rao",
    "pointwise_vector_matrix",
    "xor_popcount",
    "xor_popcount_rows",
    "or_accumulate_table",
]

#: Default fixed-tier threshold: below this row count the per-row loop beats
#: amortizing the 256-entry byte tables of the batched kernel.  The autotune
#: cache's ``thresholds`` section overrides it per machine.
_BATCH_MIN_ROWS = 32


def _record_dispatch(kernel_name: str, impl_name: str) -> None:
    """Count one dispatch decision (no-op outside traced tasks)."""
    record_metric(
        "kernel_dispatch_total",
        kernel=kernel_name,
        impl=impl_name,
        tier=dispatch.get_dispatcher().tier,
    )


# ----------------------------------------------------------------------
# boolean_matmul
# ----------------------------------------------------------------------
def boolean_matmul(left: BitMatrix, right: BitMatrix) -> BitMatrix:
    """Boolean matrix product ``left ∘ right`` (Eq. 6).

    ``(left ∘ right)[i, j] = OR_k left[i, k] AND right[k, j]``.  Output row
    *i* is the OR of the rows of ``right`` selected by the nonzeros of
    ``left``'s row *i* (Lemma 1).  The dispatch tier picks one of the
    registered implementations per call shape: the per-row reference loop,
    the byte-group table gather (:func:`or_accumulate_table` per 8 inner
    columns), or a numpy-bulk reduction.
    """
    if left.n_cols != right.n_rows:
        raise ValueError(
            f"inner dimensions differ: {left.shape} ∘ {right.shape}"
        )
    shape = (left.n_rows, left.n_cols, right.n_cols)
    spec = dispatch.get_dispatcher().resolve("boolean_matmul", shape, (left, right))
    with kernel_span("boolean_matmul", m=left.n_rows, k=left.n_cols,
                     n=right.n_cols, impl=spec.name):
        _record_dispatch("boolean_matmul", spec.name)
        return spec.fn(left, right)


def _boolean_matmul_rowloop(left: BitMatrix, right: BitMatrix) -> BitMatrix:
    """Reference per-row implementation (and small-matrix fast path)."""
    out_words = np.zeros((left.n_rows, right.words.shape[1]), dtype=np.uint64)
    left_dense = left.to_dense().astype(bool)
    for i in range(left.n_rows):
        selected = np.flatnonzero(left_dense[i])
        if selected.size:
            out_words[i] = np.bitwise_or.reduce(right.words[selected], axis=0)
    return BitMatrix(left.n_rows, right.n_cols, out_words)


def _boolean_matmul_batched(left: BitMatrix, right: BitMatrix) -> BitMatrix:
    """Byte-group table gather: one 256-entry OR table per 8 inner columns.

    ``left``'s padding bits are zero (BitMatrix invariant), so a partial
    final group indexes only the low ``2**size`` table entries.  The byte
    view of uint64 words only lines up with bit positions on little-endian
    hosts, so this implementation is registered with
    ``needs_little_endian=True``.
    """
    out = np.zeros((left.n_rows, right.words.shape[1]), dtype=np.uint64)
    left_bytes = np.ascontiguousarray(left.words).view(np.uint8)
    n_groups = (left.n_cols + 7) // 8
    for group in range(n_groups):
        size = min(8, left.n_cols - 8 * group)
        table = or_accumulate_table(
            right.words[8 * group : 8 * group + size], size
        )
        out |= table[left_bytes[:, group]]
    return BitMatrix(left.n_rows, right.n_cols, out)


def _boolean_matmul_bulk(left: BitMatrix, right: BitMatrix) -> BitMatrix:
    """Numpy-bulk path: mask-select right's rows, OR-reduce over the inner axis.

    Materializes an ``(m, k, n_words)`` intermediate, so it only wins for
    small inner dimensions — exactly the regime the autotuner probes.
    """
    selected = np.where(
        left.to_dense().astype(bool)[:, :, None],
        right.words[None, :, :],
        np.uint64(0),
    )
    out_words = np.bitwise_or.reduce(selected, axis=1)
    return BitMatrix(left.n_rows, right.n_cols, out_words)


def _boolean_matmul_heuristic(shape, thresholds) -> str:
    m = shape[0]
    if sys.byteorder != "little":
        return "rowloop"
    min_rows = thresholds.get("boolean_matmul.batch_min_rows", _BATCH_MIN_ROWS)
    return "batched" if m >= min_rows else "rowloop"


def _boolean_matmul_args(shape, rng):
    m, k, n = shape
    return (BitMatrix.random(m, k, 0.3, rng), BitMatrix.random(k, n, 0.3, rng))


def _boolean_matmul_threshold_rule(winners: dict) -> dict:
    """Smallest row count where a batched-style impl beat the row loop."""
    batched_rows = sorted(
        shape[0] for shape, impl in winners.items() if impl != "rowloop"
    )
    if not batched_rows:
        return {}
    return {"boolean_matmul.batch_min_rows": batched_rows[0]}


# ----------------------------------------------------------------------
# khatri_rao
# ----------------------------------------------------------------------
def khatri_rao(left: BitMatrix, right: BitMatrix) -> BitMatrix:
    """Column-wise Kronecker product ``left ⊙ right`` (Eq. 3).

    For Boolean inputs the result is Boolean.  Column *r* of the result is
    ``left[:, r] ⊗ right[:, r]``; the row indexed by ``(p, q)`` maps to flat
    row ``p * right.n_rows + q``, matching the paper's matricization layout
    where block *p* of the unfolding corresponds to row *p* of the first
    (outer) matrix.  Operates directly on packed words — result row
    ``(p, q)`` is ``left.words[p] & right.words[q]`` — via whichever
    registered implementation the dispatch tier selects.
    """
    if left.n_cols != right.n_cols:
        raise ValueError(
            f"Khatri-Rao needs equal column counts: {left.shape} vs {right.shape}"
        )
    shape = (left.n_rows, right.n_rows, left.n_cols)
    spec = dispatch.get_dispatcher().resolve("khatri_rao", shape, (left, right))
    with kernel_span("khatri_rao", p=left.n_rows, q=right.n_rows,
                     r=left.n_cols, impl=spec.name):
        _record_dispatch("khatri_rao", spec.name)
        return spec.fn(left, right)


def _khatri_rao_rowloop(left: BitMatrix, right: BitMatrix) -> BitMatrix:
    """Reference loop over ``(p, q)`` row pairs."""
    n_words = left.words.shape[1]
    out_words = np.zeros((left.n_rows * right.n_rows, n_words), dtype=np.uint64)
    for p in range(left.n_rows):
        for q in range(right.n_rows):
            out_words[p * right.n_rows + q] = left.words[p] & right.words[q]
    return BitMatrix(left.n_rows * right.n_rows, left.n_cols, out_words)


def _khatri_rao_broadcast(left: BitMatrix, right: BitMatrix) -> BitMatrix:
    """Broadcast AND: ``(P, 1, W) & (1, Q, W) -> (P*Q, W)``.

    Padding stays zero because both operands' padding bits are zero.
    """
    words = (left.words[:, None, :] & right.words[None, :, :]).reshape(
        left.n_rows * right.n_rows, left.words.shape[1]
    )
    return BitMatrix(left.n_rows * right.n_rows, left.n_cols, words)


def _khatri_rao_bulk(left: BitMatrix, right: BitMatrix) -> BitMatrix:
    """Repeat/tile formulation of the same packed AND."""
    repeated = np.repeat(left.words, right.n_rows, axis=0)
    tiled = np.tile(right.words, (left.n_rows, 1))
    return BitMatrix(left.n_rows * right.n_rows, left.n_cols, repeated & tiled)


def _khatri_rao_args(shape, rng):
    p, q, r = shape
    return (BitMatrix.random(p, r, 0.3, rng), BitMatrix.random(q, r, 0.3, rng))


# ----------------------------------------------------------------------
# pointwise_vector_matrix
# ----------------------------------------------------------------------
def pointwise_vector_matrix(vector: np.ndarray, matrix: BitMatrix) -> BitMatrix:
    """Pointwise vector-matrix product ``v ∗ M`` (Eq. 4).

    Column *r* of the result is ``v[r] * M[:, r]`` — i.e. columns of ``M``
    are kept where the vector is 1 and zeroed where it is 0.  Dispatched
    over the registered implementations (packed-mask AND, per-row loop).
    """
    vector = np.asarray(vector).ravel()
    if vector.shape[0] != matrix.n_cols:
        raise ValueError(
            f"vector length {vector.shape[0]} != matrix columns {matrix.n_cols}"
        )
    shape = (matrix.n_rows, matrix.n_cols)
    spec = dispatch.get_dispatcher().resolve(
        "pointwise_vector_matrix", shape, (vector, matrix)
    )
    with kernel_span("pointwise_vector_matrix", rows=matrix.n_rows,
                     cols=matrix.n_cols, impl=spec.name):
        _record_dispatch("pointwise_vector_matrix", spec.name)
        return spec.fn(vector, matrix)


def _pointwise_mask(vector: np.ndarray, matrix: BitMatrix) -> BitMatrix:
    """One packed AND of every row against the packed vector."""
    mask = packing.pack_bits(vector.astype(bool))
    return BitMatrix(matrix.n_rows, matrix.n_cols, matrix.words & mask)


def _pointwise_rowloop(vector: np.ndarray, matrix: BitMatrix) -> BitMatrix:
    """Reference per-row masked copy."""
    mask = packing.pack_bits(vector.astype(bool))
    out_words = np.zeros_like(matrix.words)
    for i in range(matrix.n_rows):
        out_words[i] = matrix.words[i] & mask
    return BitMatrix(matrix.n_rows, matrix.n_cols, out_words)


def _pointwise_args(shape, rng):
    rows, cols = shape
    vector = (rng.random(cols) < 0.5).astype(np.uint8)
    return (vector, BitMatrix.random(rows, cols, 0.3, rng))


# ----------------------------------------------------------------------
# xor_popcount family
# ----------------------------------------------------------------------
def xor_popcount(a: np.ndarray, b: np.ndarray) -> int:
    """Total ``popcount(a ^ b)`` — Hamming distance of packed word arrays.

    Dispatched over the fused ``bitwise_count`` path and the two-pass
    reference.  No ``kernel_span`` is
    opened (this runs inside already-traced worker spans on the hot path);
    the dispatch decision is still counted in ``kernel_dispatch_total``.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    shape = np.broadcast_shapes(a.shape, b.shape)
    spec = dispatch.get_dispatcher().resolve("xor_popcount", shape, (a, b))
    _record_dispatch("xor_popcount", spec.name)
    return spec.fn(a, b)


def xor_popcount_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row ``popcount(a ^ b)`` (sum over the trailing word axis).

    Dispatched like :func:`xor_popcount`; returns int64 sums with the
    operands' broadcast leading shape.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    shape = np.broadcast_shapes(a.shape, b.shape)
    spec = dispatch.get_dispatcher().resolve("xor_popcount_rows", shape, (a, b))
    _record_dispatch("xor_popcount_rows", spec.name)
    return spec.fn(a, b)


def _xor_popcount_twopass(a: np.ndarray, b: np.ndarray) -> int:
    """Reference two-pass form: XOR temporary, then a separate popcount."""
    return int(np.bitwise_count(np.bitwise_xor(a, b)).sum(dtype=np.int64))


def _xor_popcount_rows_twopass(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference two-pass per-row form."""
    return np.bitwise_count(np.bitwise_xor(a, b)).sum(axis=-1, dtype=np.int64)


def _xor_args(shape, rng):
    a = rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)
    b = rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)
    return (a, b)


# ----------------------------------------------------------------------
# or_accumulate_table (not dispatched: its span attrs are golden-pinned)
# ----------------------------------------------------------------------
def or_accumulate_table(columns_packed: np.ndarray, n_columns: int) -> np.ndarray:
    """All ``2**n_columns`` Boolean sums of a set of packed rows.

    ``columns_packed`` has shape ``(n_columns, n_words)``; entry ``mask`` of
    the returned ``(2**n_columns, n_words)`` table is the OR of the rows whose
    bit is set in ``mask``.  Built by doubling — table entry ``m | 2^b`` is
    ``table[m] | columns_packed[b]`` — in ``n_columns`` vectorized steps.
    This is the cache-table construction of Section III-C.
    """
    if n_columns < 0:
        raise ValueError("n_columns must be non-negative")
    if columns_packed.shape[0] < n_columns:
        raise ValueError(
            f"need at least {n_columns} packed rows, got {columns_packed.shape[0]}"
        )
    with kernel_span("or_accumulate_table", n_columns=n_columns,
                     n_entries=1 << n_columns):
        n_words = columns_packed.shape[1]
        table = np.zeros((1 << n_columns, n_words), dtype=np.uint64)
        for bit in range(n_columns):
            half = 1 << bit
            table[half : 2 * half] = table[:half] | columns_packed[bit]
        return table


# ----------------------------------------------------------------------
# Registry population
# ----------------------------------------------------------------------
def _register_kernels() -> None:
    dispatch.register_default_threshold(
        "boolean_matmul.batch_min_rows", _BATCH_MIN_ROWS
    )

    dispatch.register_kernel(
        "boolean_matmul",
        heuristic=_boolean_matmul_heuristic,
        make_args=_boolean_matmul_args,
        autotune_grid=[(8, 16, 64), (16, 32, 128), (32, 32, 128),
                       (64, 32, 256), (256, 64, 1024)],
        threshold_rule=_boolean_matmul_threshold_rule,
    )
    dispatch.register_impl(
        "boolean_matmul", "rowloop", _boolean_matmul_rowloop, reference=True
    )
    dispatch.register_impl(
        "boolean_matmul", "batched", _boolean_matmul_batched,
        needs_little_endian=True,
    )
    dispatch.register_impl("boolean_matmul", "bulk", _boolean_matmul_bulk)

    dispatch.register_kernel(
        "khatri_rao",
        make_args=_khatri_rao_args,
        autotune_grid=[(16, 16, 32), (48, 48, 64)],
    )
    dispatch.register_impl(
        "khatri_rao", "rowloop", _khatri_rao_rowloop, reference=True
    )
    dispatch.register_impl(
        "khatri_rao", "broadcast", _khatri_rao_broadcast, default=True
    )
    dispatch.register_impl("khatri_rao", "bulk", _khatri_rao_bulk)

    dispatch.register_kernel(
        "pointwise_vector_matrix",
        make_args=_pointwise_args,
        autotune_grid=[(256, 64), (4096, 64)],
    )
    dispatch.register_impl(
        "pointwise_vector_matrix", "rowloop", _pointwise_rowloop, reference=True
    )
    dispatch.register_impl(
        "pointwise_vector_matrix", "mask", _pointwise_mask, default=True
    )

    dispatch.register_kernel(
        "xor_popcount",
        make_args=_xor_args,
        autotune_grid=[(64, 8), (512, 64)],
    )
    dispatch.register_impl(
        "xor_popcount", "twopass", _xor_popcount_twopass, reference=True
    )
    dispatch.register_impl(
        "xor_popcount", "fused", packing.xor_popcount, default=True
    )

    dispatch.register_kernel(
        "xor_popcount_rows",
        make_args=_xor_args,
        autotune_grid=[(64, 8), (512, 64)],
    )
    dispatch.register_impl(
        "xor_popcount_rows", "twopass", _xor_popcount_rows_twopass, reference=True
    )
    dispatch.register_impl(
        "xor_popcount_rows", "fused", packing.xor_popcount_rows, default=True
    )


_register_kernels()
