"""Boolean Tucker decomposition — the paper's natural extension.

The conference paper covers Boolean CP; its journal extension (and the
Walk'n'Merge line of work) generalizes to **Boolean Tucker**:

    x_ijk  ≈  OR over (p, q, r) of  g_pqr AND a_ip AND b_jq AND c_kr

with a binary core tensor **G** (R1 x R2 x R3) and binary factor matrices
A (I x R1), B (J x R2), C (K x R3).  CP is the special case of a
hyper-diagonal core.

The solver is the same alternating greedy scheme as DBTF's CP updates,
run on the same distributed machinery:

* each factor matrix is updated column by column on the simulated engine
  (:func:`repro.tucker.distributed.update_tucker_factor`, DBTF's
  Algorithm 4 over per-pattern effective-basis caches), against the
  partitioned unfoldings built once per run;
* the core is tiny compared to the factors, so it is updated on the driver,
  entry by entry against the coverage *count* of all other core entries —
  flipping ``g_pqr`` is an O(IJK) delta, not a full reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from ..bitops import BitMatrix
from ..core.decompose import prepare_partitioned_unfoldings
from ..core.steps import StepEvent, drive
from ..distengine import Distributed, SimulatedRuntime
from ..resilience import CheckpointConfig, CheckpointManager, config_fingerprint
from ..tensor import SparseBoolTensor
from .distributed import update_tucker_factor

__all__ = [
    "BooleanTuckerConfig",
    "BooleanTuckerResult",
    "boolean_tucker",
    "boolean_tucker_steps",
    "tucker_reconstruct",
]


@dataclass(frozen=True)
class BooleanTuckerConfig:
    """Hyper-parameters of the Boolean Tucker solver.

    ``checkpoint`` snapshots at *iteration* granularity within each
    restart (the Tucker core update is the slowest loop in the repo), with
    the snapshot step encoded as ``restart * max_iterations + iteration``
    and the best completed-restart result carried along — so a killed
    sweep resumes mid-restart, bit-identically.
    """

    core_shape: tuple[int, int, int]
    max_iterations: int = 10
    tolerance: float = 0.0
    n_initial_sets: int = 1
    seed: int = 0
    checkpoint: CheckpointConfig | None = None

    def __post_init__(self) -> None:
        if len(self.core_shape) != 3 or any(r <= 0 for r in self.core_shape):
            raise ValueError(
                f"core_shape must be three positive sizes, got {self.core_shape}"
            )
        if self.max_iterations <= 0:
            raise ValueError(
                f"max_iterations must be positive, got {self.max_iterations}"
            )
        if self.tolerance < 0:
            raise ValueError(f"tolerance must be non-negative, got {self.tolerance}")
        if self.n_initial_sets <= 0:
            raise ValueError(
                f"n_initial_sets must be positive, got {self.n_initial_sets}"
            )


@dataclass(frozen=True)
class BooleanTuckerResult:
    """Outcome of a Boolean Tucker decomposition."""

    core: SparseBoolTensor
    factors: tuple[BitMatrix, BitMatrix, BitMatrix]
    error: int
    input_nnz: int
    errors_per_iteration: tuple[int, ...]
    converged: bool

    @property
    def relative_error(self) -> float:
        return self.error / self.input_nnz if self.input_nnz else float(self.error)

    @property
    def n_iterations(self) -> int:
        return len(self.errors_per_iteration)

    def reconstruct(self) -> SparseBoolTensor:
        return tucker_reconstruct(self.core, self.factors)


def tucker_reconstruct(
    core: SparseBoolTensor, factors: tuple[BitMatrix, BitMatrix, BitMatrix]
) -> SparseBoolTensor:
    """Boolean Tucker reconstruction ``G ×₁ A ×₂ B ×₃ C``."""
    dense = _reconstruct_dense(
        core.to_dense(), tuple(factor.to_dense() for factor in factors)
    )
    return SparseBoolTensor.from_dense(dense)


def _reconstruct_dense(core: np.ndarray, factors: tuple[np.ndarray, ...]) -> np.ndarray:
    """Dense Boolean mode products; Boolean algebra is a semiring, so each
    mode product can clamp independently."""
    a, b, c = (factor.astype(np.int64) for factor in factors)
    stage = np.einsum("ip,pqr->iqr", a, core.astype(np.int64))
    stage = (stage > 0).astype(np.int64)
    stage = np.einsum("jq,iqr->ijr", b, stage)
    stage = (stage > 0).astype(np.int64)
    stage = np.einsum("kr,ijr->ijk", c, stage)
    return (stage > 0).astype(np.uint8)


def _update_core(
    dense: np.ndarray,
    core: np.ndarray,
    factors: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, int]:
    """Greedy entry-wise core update against coverage counts.

    ``counts[i, j, k]`` is the number of active core entries covering a
    cell; removing one entry's block subtracts its indicator, so each flip
    is evaluated with a local delta instead of a fresh reconstruction.
    """
    a, b, c = (factor.astype(bool) for factor in factors)
    r1, r2, r3 = core.shape
    updated = core.copy()
    # Integer coverage counts under the current core.
    counts = np.einsum(
        "pqr,ip,jq,kr->ijk",
        updated.astype(np.int64), a.astype(np.int64),
        b.astype(np.int64), c.astype(np.int64),
    )
    tensor_bool = dense.astype(bool)
    for p in range(r1):
        for q in range(r2):
            for r in range(r3):
                block = (
                    a[:, p][:, None, None]
                    & b[:, q][None, :, None]
                    & c[:, r][None, None, :]
                )
                if updated[p, q, r]:
                    counts_without = counts - block.astype(np.int64)
                else:
                    counts_without = counts
                # Cells only this entry would cover.
                exclusive = block & (counts_without == 0)
                gain = int((exclusive & tensor_bool).sum())
                cost = int((exclusive & ~tensor_bool).sum())
                keep = gain > cost
                if keep and not updated[p, q, r]:
                    updated[p, q, r] = 1
                    counts += block.astype(np.int64)
                elif not keep and updated[p, q, r]:
                    updated[p, q, r] = 0
                    counts = counts_without
    error = int(((counts > 0) ^ tensor_bool).sum())
    return updated, error


def _sampled_tucker_factors(
    tensor: SparseBoolTensor,
    config: BooleanTuckerConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seed factor columns from fibers through random nonzeros.

    The first ``min(core_shape)`` components share one anchor nonzero
    across all three modes, exactly like DBTF's CP initialization — paired
    with a hyper-diagonal initial core, each seeds a coherent rank-1 block.
    Any surplus columns (non-cubic cores) get independent anchors.
    """
    coords = tensor.coords
    factors = [
        np.zeros((tensor.shape[mode], config.core_shape[mode]), dtype=np.uint8)
        for mode in range(3)
    ]
    if tensor.nnz == 0:
        return tuple(factors)

    def fill_column(mode: int, column: int, anchor: np.ndarray) -> None:
        others = [m for m in range(3) if m != mode]
        mask = (coords[:, others[0]] == anchor[others[0]]) & (
            coords[:, others[1]] == anchor[others[1]]
        )
        factors[mode][coords[mask][:, mode], column] = 1

    shared = min(config.core_shape)
    for r in range(shared):
        anchor = coords[int(rng.integers(0, tensor.nnz))]
        for mode in range(3):
            fill_column(mode, r, anchor)
    for mode in range(3):
        for r in range(shared, config.core_shape[mode]):
            anchor = coords[int(rng.integers(0, tensor.nnz))]
            fill_column(mode, r, anchor)
    return tuple(factors)


def boolean_tucker(
    tensor: SparseBoolTensor,
    core_shape: tuple[int, int, int] | None = None,
    config: BooleanTuckerConfig | None = None,
    runtime: SimulatedRuntime | None = None,
) -> BooleanTuckerResult:
    """Boolean Tucker decomposition of a three-way binary tensor.

    Parameters
    ----------
    tensor:
        The binary input tensor.
    core_shape:
        Core sizes ``(R1, R2, R3)`` (ignored when ``config`` is given).
    config:
        Full configuration.
    runtime:
        Simulated cluster runtime the factor updates run and are metered
        on; the tensor is split into ``runtime.config.total_slots``
        partitions.  A fresh ``SimulatedRuntime()`` on ``DEFAULT_CLUSTER``
        is created, and closed afterwards, if not provided.  Results are
        invariant to the backend and the partition count.

    Returns
    -------
    BooleanTuckerResult
        Binary core, binary factors, and the error trace.
    """
    if config is None:
        if core_shape is None:
            raise ValueError("either core_shape or config must be provided")
        config = BooleanTuckerConfig(core_shape=core_shape)
    return drive(boolean_tucker_steps(tensor, config, runtime))


def boolean_tucker_steps(
    tensor: SparseBoolTensor,
    config: BooleanTuckerConfig,
    runtime: SimulatedRuntime | None = None,
) -> Generator[StepEvent, None, BooleanTuckerResult]:
    """Cooperatively-stepped Boolean Tucker: one iteration per ``next()``.

    Yields a :class:`~repro.core.steps.StepEvent` after every alternating
    iteration of every restart — the solver's checkpoint boundary, with the
    step encoded as ``restart * max_iterations + iteration`` exactly like
    the snapshot filenames — so a consumer may cancel mid-restart and a
    resumed run continues bit-identically.  Draining the generator is
    :func:`boolean_tucker`, which documents ``runtime``.
    """
    if tensor.ndim != 3:
        raise ValueError(
            f"Boolean Tucker factorizes three-way tensors, got {tensor.ndim}-way"
        )
    owns_runtime = runtime is None
    if runtime is None:
        runtime = SimulatedRuntime()

    mode_rdds: list[Distributed] = []
    try:
        manager = None
        if config.checkpoint is not None:
            manager = CheckpointManager(
                config.checkpoint,
                _tucker_fingerprint(tensor, config),
                metrics=runtime.metrics,
                tracer=runtime.tracer,
            )
        # Built once for every restart; like dbtf, a resumed run rebuilds
        # them through lineage rather than reading them from a snapshot.
        mode_rdds = prepare_partitioned_unfoldings(
            tensor, runtime.config.total_slots, runtime
        )
        dense = tensor.to_dense()
        best: BooleanTuckerResult | None = None
        start_restart = 0
        resume_state = None
        if manager is not None and config.checkpoint.resume:
            loaded = manager.load_latest()
            if loaded is not None:
                _step, state = loaded
                best = state["best"]
                start_restart = int(state["restart"])
                resume_state = state
        for restart in range(start_restart, config.n_initial_sets):
            rng = np.random.default_rng(config.seed + restart)
            save_fn = None
            if manager is not None:
                save_fn = _make_tucker_saver(manager, config, restart, best)
            candidate = yield from _solve_steps(
                tensor, dense, mode_rdds, config, runtime, restart, rng,
                save_fn=save_fn, resume=resume_state,
            )
            resume_state = None
            if best is None or candidate.error < best.error:
                best = candidate
    finally:
        # Also the cancellation path: ``generator.close()`` lands here.
        for rdd in mode_rdds:
            rdd.unpersist()
        if owns_runtime:
            runtime.close()
    return best


def _tucker_fingerprint(
    tensor: SparseBoolTensor, config: BooleanTuckerConfig
) -> str:
    """Fingerprint of everything shaping the Tucker trajectory.

    ``max_iterations`` is included (the snapshot step encoding depends on
    it) along with everything that would change the alternating updates.
    """
    return config_fingerprint(
        {
            "algorithm": "boolean_tucker",
            "core_shape": list(config.core_shape),
            "seed": config.seed,
            "n_initial_sets": config.n_initial_sets,
            "max_iterations": config.max_iterations,
            "tolerance": config.tolerance,
            "shape": list(tensor.shape),
            "nnz": tensor.nnz,
        }
    )


def _make_tucker_saver(
    manager: CheckpointManager,
    config: BooleanTuckerConfig,
    restart: int,
    best: "BooleanTuckerResult | None",
):
    """Bind one restart's snapshot writer for :func:`_solve_steps`."""

    def save(iteration, core, factors, errors, converged):
        if not (manager.should_save(iteration) or converged):
            return
        manager.save(
            restart * config.max_iterations + iteration,
            {
                "restart": restart,
                "iteration": iteration,
                "core": core.copy(),
                "factors": tuple(factor.copy() for factor in factors),
                "errors": list(errors),
                "converged": converged,
                "best": best,
            },
        )

    return save


# Per mode: (outer factor index, inner factor index, core permutation) such
# that S_u[t, i] = OR_o core_perm[t, i, o] AND u_o with u the outer row.
_TUCKER_MODE_ROLES = {
    0: (2, 1, (0, 1, 2)),  # update A: outer C (R3), inner B (R2)
    1: (2, 0, (1, 0, 2)),  # update B: outer C (R3), inner A (R1)
    2: (1, 0, (2, 0, 1)),  # update C: outer B (R2), inner A (R1)
}

# V, the number of columns one row-summation cache table covers (the
# paper's default, as ``DbtfConfig.cache_group_size``).
_CACHE_GROUP_SIZE = 15


def _solve_steps(
    tensor: SparseBoolTensor,
    dense: np.ndarray,
    mode_rdds: list[Distributed],
    config: BooleanTuckerConfig,
    runtime: SimulatedRuntime,
    restart: int,
    rng: np.random.Generator,
    save_fn=None,
    resume: "dict | None" = None,
) -> Generator[StepEvent, None, BooleanTuckerResult]:
    """One alternating-minimization run from one initialization.

    Yields a :class:`~repro.core.steps.StepEvent` after each iteration —
    after ``save_fn`` has snapshotted it — and returns the restart's result.

    ``resume`` is a checkpoint state for *this* restart: initialization is
    skipped (its rng draws already happened before the snapshot) and the
    loop continues from the saved iteration's core/factors/errors.
    """
    if resume is not None:
        core = np.array(resume["core"], dtype=np.uint8)
        factors = [
            np.array(factor, dtype=np.uint8) for factor in resume["factors"]
        ]
        errors = list(resume["errors"])
        converged = bool(resume["converged"])
        start_iteration = int(resume["iteration"]) + 1
    else:
        factors = list(_sampled_tucker_factors(tensor, config, rng))
        # Hyper-diagonal initial core: component r glues the three fiber
        # columns seeded from the same anchor (the CP special case).
        core = np.zeros(config.core_shape, dtype=np.uint8)
        for r in range(min(config.core_shape)):
            core[r, r, r] = 1
        errors = []
        converged = False
        start_iteration = 0

    threshold = config.tolerance * max(tensor.nnz, 1)
    for iteration in range(start_iteration, config.max_iterations):
        if converged:
            break
        for mode in range(3):
            outer_index, inner_index, permutation = _TUCKER_MODE_ROLES[mode]
            updated, _ = update_tucker_factor(
                mode_rdds[mode],
                BitMatrix.from_dense(factors[mode]),
                BitMatrix.from_dense(factors[outer_index]),
                BitMatrix.from_dense(factors[inner_index]),
                core.transpose(permutation),
                _CACHE_GROUP_SIZE,
                runtime,
            )
            factors[mode] = updated.to_dense()
        # Core last: with refreshed factors it can recruit off-diagonal
        # entries (the structure CP cannot express).
        core, error = _update_core(dense, core, tuple(factors))

        if errors and errors[-1] - error <= threshold:
            converged = True
        errors.append(error)
        if save_fn is not None:
            save_fn(iteration, core, factors, errors, converged)
        yield StepEvent(
            restart * config.max_iterations + iteration, error, converged
        )

    return BooleanTuckerResult(
        core=SparseBoolTensor.from_dense(core),
        factors=tuple(BitMatrix.from_dense(factor) for factor in factors),
        error=errors[-1],
        input_nnz=tensor.nnz,
        errors_per_iteration=tuple(errors),
        converged=converged,
    )
