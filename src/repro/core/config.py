"""Configuration for the DBTF decomposition."""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..distengine import BACKEND_NAMES, DEFAULT_CLUSTER, ClusterConfig
from ..resilience import CheckpointConfig

__all__ = ["DbtfConfig"]

# slice_bits-based cache keys must fit one signed 64-bit word.
_MAX_GROUP_SIZE = 62


@dataclass(frozen=True)
class DbtfConfig:
    """Hyper-parameters of DBTF (paper Algorithms 2-5).

    Attributes
    ----------
    rank:
        Number of components R.
    max_iterations:
        Maximum outer iterations T (paper default 10).
    n_initial_sets:
        Number of random factor-matrix sets L tried in the first iteration
        (paper default 1); the best-scoring set is kept.
    n_partitions:
        Vertical partitions N per unfolded tensor.  ``None`` uses the
        cluster's total slot count, matching Spark's default parallelism.
    cache_group_size:
        The threshold V limiting a single cache table to ``2**V`` row
        summations (paper default 15).  Ranks above V are split into
        ``ceil(R / V)`` groups (Lemma 2).
    tolerance:
        Relative convergence threshold: iteration stops when the error
        improves by no more than ``tolerance * |X|`` (0 means "stop when
        the error stops decreasing", the paper's criterion).
    initialization:
        ``"sample"`` (default) seeds each component from the fibers through
        a random nonzero of the tensor, so initial components overlap the
        data's support; ``"random"`` uses i.i.d. Bernoulli factors as the
        paper's text states.  Greedy Boolean updates from i.i.d. random
        factors collapse to the all-zero local optimum on sparse tensors
        (any random block covers more zeros than ones), so "sample" is what
        makes the reconstruction-error experiments reproducible — see
        DESIGN.md §5.
    init_density:
        Density of the random initial factors (only used with
        ``initialization="random"``).  ``None`` picks
        ``(density(X) / R) ** (1/3)``, which makes the expected density of
        the initial reconstruction match the data.
    seed:
        Seed for all randomness; runs are bit-for-bit reproducible.
    cluster:
        The simulated cluster the decomposition is metered against.
    backend:
        Host-side stage executor: ``"serial"``, ``"thread"``, or
        ``"process"``.  ``None`` (default) defers to ``cluster.backend``.
        Factors, error traces, and all metered costs are identical under
        every backend; only the host's wall-clock time changes.
    n_workers:
        Worker-pool size for the thread/process backends; ``None`` defers
        to ``cluster.n_workers`` (and ultimately the host's CPU count).
    tracing:
        Collect a structured span trace of the run (``stage → task →
        kernel`` plus transfer events) on the runtime's tracer; export it
        with :mod:`repro.observability`.  ``False`` (default) defers to
        ``cluster.tracing``.
    checkpoint:
        Iteration-level checkpointing
        (:class:`~repro.resilience.CheckpointConfig`): snapshot the
        decomposition state every ``every`` iterations into ``directory``
        and, with ``resume=True``, continue a killed run bit-identically
        from its newest intact snapshot.  ``None`` (default) disables
        checkpointing entirely — the iteration loop pays a single ``None``
        check.
    memory_budget:
        Byte ceiling for driver-resident partition caches (the out-of-core
        storage tier, :mod:`repro.storage`).  ``None`` (default) defers to
        ``cluster.memory_budget``; factors and errors are bit-identical
        with or without a budget, only spill I/O is added.
    spill_dir:
        Parent directory for storage-tier spill files.  ``None`` (default)
        defers to ``cluster.spill_dir``.

    ``backend``, ``n_workers``, ``tracing``, ``memory_budget`` and
    ``spill_dir`` shape the runtime a solver builds for itself; a
    caller-supplied runtime must match them (:meth:`check_runtime`).
    """

    rank: int
    max_iterations: int = 10
    n_initial_sets: int = 1
    n_partitions: int | None = None
    cache_group_size: int = 15
    tolerance: float = 0.0
    initialization: str = "sample"
    init_density: float | None = None
    seed: int = 0
    cluster: ClusterConfig = DEFAULT_CLUSTER
    backend: str | None = None
    n_workers: int | None = None
    tracing: bool = False
    checkpoint: CheckpointConfig | None = None
    memory_budget: int | None = None
    spill_dir: str | None = None

    def __post_init__(self) -> None:
        if self.rank <= 0:
            raise ValueError(f"rank must be positive, got {self.rank}")
        if self.max_iterations <= 0:
            raise ValueError(
                f"max_iterations must be positive, got {self.max_iterations}"
            )
        if self.n_initial_sets <= 0:
            raise ValueError(
                f"n_initial_sets must be positive, got {self.n_initial_sets}"
            )
        if self.n_partitions is not None and self.n_partitions <= 0:
            raise ValueError(
                f"n_partitions must be positive, got {self.n_partitions}"
            )
        if not 1 <= self.cache_group_size <= _MAX_GROUP_SIZE:
            raise ValueError(
                f"cache_group_size must be in [1, {_MAX_GROUP_SIZE}], "
                f"got {self.cache_group_size}"
            )
        if self.tolerance < 0:
            raise ValueError(f"tolerance must be non-negative, got {self.tolerance}")
        if self.initialization not in ("sample", "random"):
            raise ValueError(
                f"initialization must be 'sample' or 'random', "
                f"got {self.initialization!r}"
            )
        if self.init_density is not None and not 0.0 < self.init_density <= 1.0:
            raise ValueError(
                f"init_density must be in (0, 1], got {self.init_density}"
            )
        if self.backend is not None and self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"backend must be one of {BACKEND_NAMES}, got {self.backend!r}"
            )
        if self.n_workers is not None and self.n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {self.n_workers}")
        if self.memory_budget is not None and self.memory_budget <= 0:
            raise ValueError(
                f"memory_budget must be positive, got {self.memory_budget}"
            )

    def resolved_partitions(self) -> int:
        """The effective partition count N."""
        if self.n_partitions is not None:
            return self.n_partitions
        return self.cluster.total_slots

    def resolved_cluster(self) -> ClusterConfig:
        """``cluster`` with this config's cluster overrides applied."""
        if (
            self.backend is None
            and self.n_workers is None
            and not self.tracing
            and self.memory_budget is None
            and self.spill_dir is None
        ):
            return self.cluster
        return replace(
            self.cluster,
            backend=self.backend if self.backend is not None else self.cluster.backend,
            n_workers=(
                self.n_workers if self.n_workers is not None else self.cluster.n_workers
            ),
            tracing=self.tracing or self.cluster.tracing,
            memory_budget=(
                self.memory_budget if self.memory_budget is not None
                else self.cluster.memory_budget
            ),
            spill_dir=(
                self.spill_dir if self.spill_dir is not None
                else self.cluster.spill_dir
            ),
        )

    def check_runtime(self, runtime) -> None:
        """Raise ``ValueError`` if ``runtime`` contradicts an override.

        Only overrides that were set explicitly are checked — ``None`` and
        ``tracing=False`` defer to whatever the runtime was built with —
        so a plain runtime plus a config without overrides always passes.
        ``tracing=True`` is satisfied by any runtime that carries a tracer.
        """
        config = runtime.config
        for name, wanted, actual in (
            ("backend", self.backend, config.backend),
            ("n_workers", self.n_workers, config.n_workers),
            ("tracing", self.tracing or None, runtime.tracer is not None),
            ("memory_budget", self.memory_budget, config.memory_budget),
            ("spill_dir", self.spill_dir, config.spill_dir),
        ):
            if wanted is not None and wanted != actual:
                raise ValueError(
                    f"DbtfConfig.{name}={wanted!r} differs from the supplied "
                    f"runtime's {name}={actual!r}; build the runtime from "
                    f"config.resolved_cluster() or drop the override"
                )
