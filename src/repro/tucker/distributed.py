"""Distributed Boolean Tucker factor updates on the simulated engine.

The journal extension of DBTF generalizes its distributed machinery from CP
to Tucker.  The key observation that keeps the row-summation cache usable:
in the mode-1 matricized form

    X_(1)  ≈  A ∘ [ G_(1) (C ⊗ B)ᵀ ]

the coverage of component p inside PVM block k is

    OR over (q, r) with g_pqr AND c_kr of  b_:q
      =  row p of  (S_u ∘ Bᵀ),   where  S_u[p, q] = OR_r g_pqr AND u_r

and ``u = c_k:``.  The *effective basis matrix* ``S_u ∘ Bᵀ`` therefore only
depends on the outer row's bit pattern ``u`` — there are at most
``min(K, 2**R3)`` distinct patterns — so each partition builds one
row-summation cache table per distinct pattern and the CP update kernel
carries over: key = the target row's bitmask, candidate-1 evaluated as a
delta over newly covered cells.

This module holds the engine side only; the solver loop that alternates
these factor updates with the driver-side core update is
:func:`repro.tucker.boolean_tucker`.
"""

from __future__ import annotations

import numpy as np

from ..bitops import BitMatrix, packing
from ..bitops.packing import xor_popcount_rows
from ..core.cache import RowSummationCache
from ..core.partition import PartitionData
from ..core.update import SweepStages, sweep_columns
from ..distengine import Distributed, SimulatedRuntime
from ..observability.trace import kernel_span

__all__ = ["TuckerCachedPartition", "update_tucker_factor"]


class TuckerCachedPartition:
    """A partition plus per-pattern effective-basis caches.

    Blocks are grouped by the bit pattern of their PVM's outer-factor row;
    each distinct pattern gets the effective basis ``S_u ∘ innerᵀ`` and a
    full row-summation cache over its ``R_target`` rows.
    """

    __slots__ = ("data", "entries")

    def __init__(
        self,
        data: PartitionData,
        outer: BitMatrix,
        inner: BitMatrix,
        core_perm: np.ndarray,
        group_size: int,
    ):
        self.data = data
        inner_dense = inner.to_dense().astype(np.int64)
        caches: dict[int, tuple[RowSummationCache, np.ndarray]] = {}
        # (block, cache, sliced tables, coverage rows sliced, tensor words)
        self.entries: list[tuple] = []
        build_span = kernel_span(
            "tucker.cacheBuild", n_blocks=len(data.plan.blocks)
        )
        with build_span:
            self._build(data, outer, inner, inner_dense, caches,
                        core_perm, group_size)
            build_span.set(n_patterns=len(caches))

    def _build(self, data, outer, inner, inner_dense, caches,
               core_perm, group_size) -> None:
        for block, tensor_words in zip(data.plan.blocks, data.block_words):
            pattern = outer.row_mask(block.pvm_index)
            if pattern not in caches:
                bits = np.array(
                    [(pattern >> r) & 1 for r in range(outer.n_cols)],
                    dtype=np.int64,
                )
                selector = (core_perm.astype(np.int64) @ bits) > 0  # (Rt, Ri)
                coverage_dense = ((selector.astype(np.int64) @ inner_dense.T) > 0)
                coverage = BitMatrix.from_dense(coverage_dense.astype(np.uint8))
                cache = RowSummationCache(coverage.transpose(), group_size)
                caches[pattern] = (cache, coverage.words)
            cache, coverage_words = caches[pattern]
            tables = cache.tables_for(block.start, block.stop)
            if block.is_full:
                coverage_sliced = coverage_words
            else:
                coverage_sliced = packing.slice_bits(
                    coverage_words, block.start, block.stop
                )
            self.entries.append(
                (block, cache, tables, coverage_sliced, tensor_words)
            )

    def column_errors(
        self, masks_if_zero: np.ndarray, column: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Partition-local errors for both values of ``target[:, column]``.

        Unlike CP, the cache key is the target row's mask alone — the outer
        factor's influence is baked into each block's pattern table.
        """
        with kernel_span("tucker.columnErrors", rows=masks_if_zero.shape[0],
                         column=column, n_blocks=len(self.entries)):
            return self._column_errors(masks_if_zero, column)

    def sweep_errors(
        self, masks_if_zero: np.ndarray, factors: list, column: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`column_errors` for the shared column-sweep task.

        The outer and inner factors are already baked into this
        partition's pattern tables, so ``factors`` is not read.
        """
        return self.column_errors(masks_if_zero, column)

    def _column_errors(
        self, masks_if_zero: np.ndarray, column: int
    ) -> tuple[np.ndarray, np.ndarray]:
        # A partition can hold no blocks (more partitions than unfolded
        # columns), so the row count comes from the masks, not the data.
        n_rows = masks_if_zero.shape[0]
        error_if_zero = np.zeros(n_rows, dtype=np.int64)
        delta_if_one = np.zeros(n_rows, dtype=np.int64)
        keys = None
        for block, cache, tables, coverage_sliced, tensor_words in self.entries:
            if keys is None:
                keys = cache.group_keys(masks_if_zero)
            rec_zero = cache.fetch(tables, keys)
            error_if_zero += xor_popcount_rows(rec_zero, tensor_words)
            addition = coverage_sliced[column]
            newly = addition[None, :] & ~rec_zero
            delta_if_one += packing.popcount_rows(newly)
            delta_if_one -= 2 * packing.popcount_rows(newly & tensor_words)
        return error_if_zero, error_if_zero + delta_if_one


class _BuildTuckerCacheFromHandle:
    """Stage payload: build the Tucker caches from a broadcast handle.

    The handle resolves to ``[target_words, outer_words, inner_words,
    core_perm]`` worker-side; only matrix dimensions ride in the payload.
    """

    __slots__ = ("factors", "outer_shape", "inner_shape", "group_size")

    def __init__(self, factors, outer_shape, inner_shape, group_size):
        self.factors = factors
        self.outer_shape = outer_shape
        self.inner_shape = inner_shape
        self.group_size = group_size

    def __call__(self, data) -> TuckerCachedPartition:
        _, outer_words, inner_words, core_perm = self.factors.value
        outer = BitMatrix(*self.outer_shape, outer_words)
        inner = BitMatrix(*self.inner_shape, inner_words)
        return TuckerCachedPartition(
            data, outer, inner, core_perm, self.group_size
        )


TUCKER_STAGES = SweepStages(
    "cacheTuckerSummations",
    "tuckerColumnErrors",
    "collectTuckerColumnErrors",
    "tuckerColumnUpdate",
)


def update_tucker_factor(
    data_rdd: Distributed,
    target: BitMatrix,
    outer: BitMatrix,
    inner: BitMatrix,
    core_perm: np.ndarray,
    group_size: int,
    runtime: SimulatedRuntime,
) -> tuple[BitMatrix, int]:
    """Distributed greedy column update of one Tucker factor.

    The same column sweep as the CP update
    (:func:`~repro.core.update.sweep_columns`), over per-pattern
    effective-basis caches instead of plain row-summation caches.
    """
    factors = runtime.broadcast(
        [target.words, outer.words, inner.words, core_perm],
        name="updateTuckerFactor.broadcast",
    )
    build_task = _BuildTuckerCacheFromHandle(
        factors, outer.shape, inner.shape, group_size
    )
    updated, error_after, _, _ = sweep_columns(
        data_rdd, build_task, factors, target, runtime, TUCKER_STAGES
    )
    return updated, error_after
