"""Sequential in-driver execution — the engine's historical behavior."""

from __future__ import annotations

from collections.abc import Sequence

from ..faults import FaultInjector
from .base import Backend, StageResult, TaskFn, execute_task

__all__ = ["SerialBackend"]


class SerialBackend(Backend):
    """Runs every task inline on the driver, one partition after another.

    This is byte-for-byte the engine's original execution order, kept as
    the default: it needs no worker pool, imposes no picklability
    requirement on task payloads, and is the fastest choice for the small
    tensors the test suite exercises.
    """

    name = "serial"

    def __init__(self, n_workers: int | None = None):
        if n_workers is not None and n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {n_workers}")

    def run_stage(
        self,
        stage_name: str,
        task_fn: TaskFn,
        indexed_partitions: Sequence[tuple[int, list]],
        fault_injector: FaultInjector | None = None,
        collect_trace: bool = False,
        retry_policy=None,
        keep=None,
    ) -> StageResult:
        outcomes = [
            execute_task(
                task_fn, stage_name, index, items, fault_injector,
                collect_trace, retry_policy,
            )
            for index, items in indexed_partitions
        ]
        return StageResult.from_outcomes(outcomes)
