"""Dense reference of DBTF's Algorithm 4 (the greedy column update).

Every engine-backed factor update — CP's ``update_factor`` and Tucker's
``update_tucker_factor`` — must match :func:`update_factor_dense` bit for
bit, factors and error.  The oracle works on plain dense arrays: the
unfolded tensor ``(n_rows, cells)`` and one Boolean coverage slab per
component ``(rank, cells)``; the cell order is irrelevant as long as both
use the same one.
"""

import numpy as np

from repro.tucker.decompose import (
    _TUCKER_MODE_ROLES,
    _sampled_tucker_factors,
    _update_core,
)


def coverage_slabs(
    core: np.ndarray, second: np.ndarray, third: np.ndarray
) -> np.ndarray:
    """Per-component Tucker coverage for the mode being updated.

    For mode 1 (updating A): slab p covers the (J, K) cells
    ``OR over (q, r) of g_pqr AND b_jq AND c_kr`` — computed as two Boolean
    matrix products per component.
    """
    r1 = core.shape[0]
    slabs = np.zeros((r1, second.shape[0], third.shape[0]), dtype=bool)
    second_int = second.astype(np.int64)
    third_int = third.astype(np.int64)
    for p in range(r1):
        middle = second_int @ core[p].astype(np.int64)  # (J, R3) counts
        slabs[p] = (middle.astype(bool).astype(np.int64) @ third_int.T) > 0
    return slabs


def cp_slabs(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """CP coverage ``outer[:, r] ⊗ inner[:, r]``, flattened block-major.

    Cell ``o * n_inner + i`` is the unfolding's column for outer row ``o``
    and inner row ``i``, the column order of ``X_(n) ≈ target ∘ (outer ⊙
    inner)ᵀ``.
    """
    slabs = outer.astype(bool).T[:, :, None] & inner.astype(bool).T[:, None, :]
    return slabs.reshape(outer.shape[1], -1)


def update_factor_dense(
    unfolded: np.ndarray, factor: np.ndarray, slabs: np.ndarray
) -> tuple[np.ndarray, int]:
    """Greedy column-wise update of one factor given coverage slabs.

    ``unfolded`` is the tensor with the updated mode first, flattened to
    (n_rows, cells); ``slabs`` is (rank, cells) Boolean coverage per
    component.  Column by column, each row keeps the bit with the smaller
    error (0 on a tie); the returned error is the one after the last column.
    """
    n_rows, rank = factor.shape
    updated = factor.copy()
    error_after = 0
    for column in range(rank):
        cover_others = np.zeros_like(unfolded, dtype=bool)
        for component in range(rank):
            if component == column:
                continue
            users = updated[:, component].astype(bool)
            if users.any():
                cover_others[users] |= slabs[component]
        error_if_zero = (cover_others ^ unfolded).sum(axis=1)
        newly = slabs[column][None, :] & ~cover_others
        delta = newly.sum(axis=1) - 2 * (newly & unfolded).sum(axis=1)
        error_if_one = error_if_zero + delta
        updated[:, column] = (error_if_one < error_if_zero).astype(np.uint8)
        error_after = int(np.minimum(error_if_zero, error_if_one).sum())
    return updated, error_after


def dense_tucker(tensor, config):
    """The whole Boolean Tucker solver on dense arrays, restarts included.

    Same initialization stream, core update and convergence rule as
    :func:`repro.tucker.boolean_tucker`, with every factor update done by
    :func:`update_factor_dense`.  Returns ``(factors, core, errors)`` of
    the best restart as dense arrays and a tuple.
    """
    dense = tensor.to_dense()
    threshold = config.tolerance * max(tensor.nnz, 1)
    best = None
    for restart in range(config.n_initial_sets):
        rng = np.random.default_rng(config.seed + restart)
        factors = list(_sampled_tucker_factors(tensor, config, rng))
        core = np.zeros(config.core_shape, dtype=np.uint8)
        for r in range(min(config.core_shape)):
            core[r, r, r] = 1
        errors = []
        for _ in range(config.max_iterations):
            for mode in range(3):
                permutation = _TUCKER_MODE_ROLES[mode][2]
                slabs = coverage_slabs(
                    core.transpose(permutation),
                    factors[permutation[1]],
                    factors[permutation[2]],
                )
                unfolded = dense.transpose(permutation)
                factors[mode], _ = update_factor_dense(
                    unfolded.reshape(dense.shape[mode], -1),
                    factors[mode],
                    slabs.reshape(slabs.shape[0], -1),
                )
            core, error = _update_core(dense, core, tuple(factors))
            errors.append(error)
            if len(errors) > 1 and errors[-2] - error <= threshold:
                break
        if best is None or errors[-1] < best[2][-1]:
            best = (tuple(factors), core, tuple(errors))
    return best
