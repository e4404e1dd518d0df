"""Parallel backends over :mod:`concurrent.futures` worker pools.

Partition ``i`` of every stage belongs to worker ``i % n_workers`` — a
stable affinity — and a stage submits one :func:`run_batch` call per
worker, which runs :func:`~repro.distengine.backends.base.execute_task`
over that worker's partitions in order.  The driver puts the outcomes back
in partition order and raises the failure of the lowest failing partition,
so results and errors are deterministic regardless of which worker
finishes first.

The thread backend runs its batches on one shared thread pool.  The
process backend gives every worker slot its own single-process pool: one
FIFO queue per worker is what lets a worker keep persisted partitions
across stages (the block store of :mod:`repro.distengine.blocks`) and
guarantees that an eviction runs after every stage submitted before it.
Pools are created lazily on the first stage and reused for the rest of the
decomposition (mirroring Spark executors, which live for the whole job);
``close()`` shuts them down.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from concurrent.futures import Executor, Future, ProcessPoolExecutor, ThreadPoolExecutor

from .. import blocks
from ..blocks import BlockMiss, BlockMissingError, BlockRef, KeepBlocks
from ..faults import FaultInjector
from .base import Backend, StageResult, TaskFn, TaskOutcome, execute_task

__all__ = ["ThreadBackend", "ProcessBackend"]


class _TaskError:
    """A batch's report that one of its tasks raised ``error``."""

    __slots__ = ("error",)

    def __init__(self, error: Exception):
        self.error = error


def run_batch(
    tasks: list,
    task_fn: TaskFn,
    stage_name: str,
    injector: FaultInjector | None,
    collect_trace: bool,
    retry_policy,
    keep: KeepBlocks | None,
) -> list:
    """Run one worker's share of a stage, in partition order.

    Inputs that are :class:`~repro.distengine.blocks.BlockRef`\\ s resolve
    from this worker's block store; with ``keep`` the stage's persist
    outputs stay in the store and references go back instead.  The batch
    stops at its first failed task or missing block and reports it as a
    value, so the driver can raise the lowest failing partition's error.
    """
    outcomes: list = []
    for index, items in tasks:
        if isinstance(items, BlockRef):
            items = blocks.resolve(items)
            if isinstance(items, BlockMiss):
                outcomes.append(items)
                break
        try:
            outcome = execute_task(
                task_fn, stage_name, index, items, injector, collect_trace,
                retry_policy,
            )
        except Exception as error:  # re-raised by the driver, in order
            outcomes.append(_TaskError(error))
            break
        if keep is not None:
            outcome = TaskOutcome(
                outcome.index, keep.apply(index, outcome.result),
                outcome.duration, outcome.failures, outcome.trace,
                outcome.metric_deltas, outcome.retry_wait,
            )
        outcomes.append(outcome)
    return outcomes


class _PoolBackend(Backend):
    """Shared batch dispatch for the thread and process pools."""

    def __init__(self, n_workers: int | None = None):
        if n_workers is not None and n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {n_workers}")
        self.n_workers = n_workers
        self._executors: list[Executor] = []
        #: Fire-and-forget worker messages (block evictions), read after
        #: the next gather, which each worker's FIFO queue orders after them.
        self._notices: list[Future] = []

    def _effective_workers(self) -> int:
        return self.n_workers or os.cpu_count() or 1

    def _make_executors(self) -> list[Executor]:
        raise NotImplementedError

    def _executor_for(self, worker: int) -> Executor:
        if not self._executors:
            self._executors = self._make_executors()
        return self._executors[worker % len(self._executors)]

    def _dispatch(self, fn, indices: list[int], entries: list, *args) -> list:
        """Call ``fn(share, *args)`` once per worker that owns an entry.

        Entry ``p`` belongs to partition ``indices[p]`` and so to worker
        ``indices[p] % n_workers``; each share keeps the entries' order.
        Returns ``(positions, result)`` per worker.
        """
        n_workers = self._effective_workers()
        owned: dict[int, list[int]] = {}
        for position, index in enumerate(indices):
            owned.setdefault(index % n_workers, []).append(position)
        futures = [
            (
                positions,
                self._executor_for(worker).submit(
                    fn, [entries[p] for p in positions], *args
                ),
            )
            for worker, positions in owned.items()
        ]
        try:
            gathered = [(positions, future.result()) for positions, future in futures]
        except BaseException:
            for _, future in futures:
                future.cancel()
            raise
        notices, self._notices = self._notices, []
        for notice in notices:
            notice.result()
        return gathered

    def run_stage(
        self,
        stage_name: str,
        task_fn: TaskFn,
        indexed_partitions: Sequence[tuple[int, list]],
        fault_injector: FaultInjector | None = None,
        collect_trace: bool = False,
        retry_policy=None,
        keep: KeepBlocks | None = None,
    ) -> StageResult:
        tasks = list(indexed_partitions)
        slots: list = [None] * len(tasks)
        for positions, batch in self._dispatch(
            run_batch, [index for index, _ in tasks], tasks,
            task_fn, stage_name, fault_injector, collect_trace, retry_policy,
            keep,
        ):
            for position, outcome in zip(positions, batch):
                slots[position] = outcome
        # A batch stops at its first problem, so walking partitions in
        # order meets the lowest failing partition before any partition a
        # stopped batch skipped.
        for outcome in slots:
            if isinstance(outcome, BlockMiss):
                raise BlockMissingError(outcome.node_id)
            if isinstance(outcome, _TaskError):
                raise outcome.error
        return StageResult.from_outcomes(slots)

    def close(self) -> None:
        for executor in self._executors:
            executor.shutdown(wait=True, cancel_futures=True)
        self._executors = []
        self._notices = []

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_workers={self.n_workers})"


class ThreadBackend(_PoolBackend):
    """Tasks run concurrently on a thread pool.

    Real parallelism only where the kernels release the GIL (numpy's
    element-wise ops on large arrays do), but task payloads need not be
    picklable and nothing is copied between workers — the cheap way to
    overlap the engine's numpy-heavy stages.  The worker batches share one
    pool: threads see the driver's memory, so there is no block store.
    """

    name = "thread"

    def _make_executors(self) -> list[Executor]:
        return [
            ThreadPoolExecutor(
                max_workers=self._effective_workers(),
                thread_name_prefix="repro-stage",
            )
        ]


class ProcessBackend(_PoolBackend):
    """Tasks run on a process pool — actual multi-core parallelism.

    Task payloads, partitions, and results cross process boundaries via
    pickle, so stage functions must be module-level callables carrying
    their broadcast handles as attributes (no captured locals); see
    ``_BuildCachedPartitionFromHandle`` / ``ColumnSweepTask`` in
    :mod:`repro.core.update` for the pattern.  Each worker slot is its own
    single-process pool (a direct child of the driver) with a FIFO queue,
    and persisted partitions stay in the worker that computed them.
    """

    name = "process"

    # Workers live in other interpreters: broadcast handles must resolve
    # from spill files, and persist caches live in the workers' block
    # stores rather than in driver memory.
    shares_driver_memory = False

    def _make_executors(self) -> list[Executor]:
        return [
            ProcessPoolExecutor(max_workers=1)
            for _ in range(self._effective_workers())
        ]

    def fetch_blocks(self, partitions: list) -> list:
        """Driver read: ``partitions`` with every block reference resolved.

        Raises :class:`~repro.distengine.blocks.BlockMissingError` when a
        worker no longer holds a referenced block.
        """
        positions = [
            position for position, partition in enumerate(partitions)
            if isinstance(partition, BlockRef)
        ]
        refs = [partitions[position] for position in positions]
        resolved = list(partitions)
        for owned, values in self._dispatch(
            blocks.fetch, [ref.partition for ref in refs], refs
        ):
            for ref_position, value in zip(owned, values):
                if isinstance(value, BlockMiss):
                    raise BlockMissingError(value.node_id)
                resolved[positions[ref_position]] = value
        return resolved

    def evict_blocks(self, token: str, node_ids) -> None:
        """Drop one runtime's blocks of the given plan nodes in every worker."""
        self._notify_workers(blocks.evict, token, tuple(node_ids))

    def release_runtime(self, token: str, content_ids) -> None:
        """Drop all of one runtime's blocks and broadcast values in every worker."""
        self._notify_workers(blocks.release_runtime, token, tuple(content_ids))

    def _notify_workers(self, fn, *args) -> None:
        """Queue ``fn(*args)`` on every started worker without waiting."""
        self._notices.extend(
            executor.submit(fn, *args) for executor in self._executors
        )
