"""Reconstruction-error metrics (paper Sec. IV-D).

The paper measures ``|X ⊖ X̃|`` — the number of cells where the
reconstruction differs from the input.  :func:`reconstruction_error` computes
it sparsely; :func:`fast_reconstruction_error` computes the same value with
the bit-packed cache kernel and scales to much larger tensors.
"""

from __future__ import annotations

import numpy as np

from ..bitops import BitMatrix, packing
from ..bitops.packing import xor_popcount
from ..core.cache import RowSummationCache
from ..tensor import PackedUnfolding, SparseBoolTensor, tensor_from_factors, unfold

__all__ = [
    "reconstruction_error",
    "relative_reconstruction_error",
    "fast_reconstruction_error",
    "coverage_stats",
]

Factors = tuple[BitMatrix, BitMatrix, BitMatrix]


def reconstruction_error(tensor: SparseBoolTensor, factors: Factors) -> int:
    """``|X ⊕ X̃|`` via sparse reconstruction."""
    return tensor.hamming_distance(tensor_from_factors(factors))


def relative_reconstruction_error(tensor: SparseBoolTensor, factors: Factors) -> float:
    """Reconstruction error normalized by ``|X|``."""
    error = reconstruction_error(tensor, factors)
    return error / tensor.nnz if tensor.nnz else float(error)


def fast_reconstruction_error(
    tensor: SparseBoolTensor, factors: Factors, group_size: int = 16
) -> int:
    """``|X ⊕ X̃|`` without materializing the reconstruction.

    Uses the mode-1 identity ``X̃_(1)[i] = OR over blocks k of the cached
    row summation keyed by a_i: AND c_k:`` — the same structure DBTF's
    update kernel exploits — so the cost is one pass over the packed
    unfolding instead of an explicit Boolean sum of R rank-1 tensors.
    """
    a_matrix, b_matrix, c_matrix = factors
    packed = PackedUnfolding(unfold(tensor, 0))
    cache = RowSummationCache(b_matrix, group_size)
    tables = cache.full_tables
    error = 0
    for k in range(packed.block_count):
        anded = a_matrix.words & c_matrix.words[k]
        keys = cache.group_keys(anded)
        reconstructed = cache.fetch(tables, keys)  # (I, words)
        error += xor_popcount(reconstructed, packed.words[:, k, :])
    return error


def coverage_stats(tensor: SparseBoolTensor, factors: Factors) -> dict[str, float]:
    """Precision/recall-style view of a factorization.

    * ``covered_ones``: input nonzeros the reconstruction covers (recall
      numerator);
    * ``overcovered_zeros``: reconstruction nonzeros not in the input;
    * ``precision`` and ``recall`` of the reconstruction as a predictor of
      the input's nonzeros.
    """
    reconstructed = tensor_from_factors(factors)
    covered = tensor.boolean_and(reconstructed).nnz
    overcovered = reconstructed.minus(tensor).nnz
    precision = covered / reconstructed.nnz if reconstructed.nnz else 1.0
    recall = covered / tensor.nnz if tensor.nnz else 1.0
    return {
        "covered_ones": float(covered),
        "overcovered_zeros": float(overcovered),
        "precision": precision,
        "recall": recall,
    }
