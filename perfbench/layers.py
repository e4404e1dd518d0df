"""Per-layer spans for the traced benchmark run, recorded from outside.

The benchmark never edits the program: it wraps the public functions each
layer exposes (module functions where their callers look them up, class
methods on the class) with timing spans, and reads the program's own tracer
for the in-task kernel spans.  A span's self time is its duration minus the
time its children cover, so the self times of a span tree add up to the
root's duration exactly; :func:`layer_table` sums them per layer.
"""

from __future__ import annotations

import os
import pickle
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: The layers of the per-layer table, named after the ``repro`` modules.
LAYERS = (
    "tensor", "core", "bitops", "distengine", "incremental", "storage",
    "resilience", "observability",
)
UNATTRIBUTED = "unattributed"

#: In-task kernel spans of the program's tracer, by the name they carry.
COLUMN_KERNEL = "cp.columnErrors"
CACHE_BUILD = "cache.build"


@dataclass
class Span:
    """One timed call: ``parent`` is the id of the span open around it."""

    span_id: int
    parent: "int | None"
    name: str
    layer: str
    duration: float


class Recorder:
    """Collects spans in memory, nesting them by the call stack.

    The driver calls into the program from one thread, so the open spans
    form a stack and each new span's parent is the top of it.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        #: Sums over the traced run that are not spans (bytes, counts).
        self.totals: dict[str, float] = {}

    def add(self, name: str, layer: str, duration: float,
            parent: "int | None" = None) -> int:
        """Record a finished span under ``parent`` (default: the open span)."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        span_id = len(self.spans)
        self.spans.append(Span(span_id, parent, name, layer, duration))
        return span_id

    @contextmanager
    def span(self, name: str, layer: str):
        """Time the body as one span; yields the span id."""
        span_id = self.add(name, layer, 0.0)
        self._stack.append(span_id)
        started = time.perf_counter()
        try:
            yield span_id
        finally:
            self.spans[span_id].duration = time.perf_counter() - started
            self._stack.pop()

    def count(self, key: str, amount: float) -> None:
        self.totals[key] = self.totals.get(key, 0.0) + amount

    def wrap(self, fn, name: str, layer: str):
        """``fn`` with every call recorded as a span."""
        recorder = self

        def wrapped(*args, **kwargs):
            with recorder.span(name, layer):
                return fn(*args, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped


def self_times(spans: "list[Span]") -> dict[int, float]:
    """Each span's duration minus the summed durations of its children."""
    result = {span.span_id: span.duration for span in spans}
    for span in spans:
        if span.parent is not None:
            result[span.parent] -= span.duration
    return result


def layer_table(spans: "list[Span]", root: int) -> dict[str, float]:
    """Self time per layer over the tree under ``root``.

    The root's own self time — wall time no recorded call covers — is the
    ``unattributed`` row, so the rows add up to the root's duration.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    selfs = self_times(spans)
    rows = {layer: 0.0 for layer in LAYERS}
    rows[UNATTRIBUTED] = selfs[root]
    pending = list(children.get(root, ()))
    while pending:
        span = pending.pop()
        rows[span.layer] = rows.get(span.layer, 0.0) + selfs[span.span_id]
        pending.extend(children.get(span.span_id, ()))
    return rows


def split_in_task(
    stage_self: float, task_seconds: dict[str, float], workers: int
) -> dict[str, float]:
    """The driver wall of one stage spent waiting on each in-task category.

    Tasks of a stage run on ``workers`` executors at once, so the driver
    waits ``sum(task_seconds) / workers`` for them; that share of the
    stage's own time (``stage_self``, never more) is split across the
    categories in proportion to their task time.  The rest of the stage's
    time is dispatch: submitting, pickling and gathering.
    """
    total = sum(task_seconds.values())
    if total <= 0.0 or stage_self <= 0.0:
        return {name: 0.0 for name in task_seconds}
    waited = min(stage_self, total / workers)
    return {name: waited * seconds / total for name, seconds in task_seconds.items()}


def task_breakdown(records) -> dict[str, float]:
    """Task seconds of one stage by category, from the tracer's span records.

    ``records`` are the program tracer's spans grafted during the stage:
    task spans and the kernel spans nested in them.  Kernel self time goes
    to the column kernel, the cache build or ``bitops``; the task time no
    kernel covers (rebuilding the row masks, gathering inputs) to ``task``.
    """
    seconds = {"column_kernel": 0.0, "cache_build": 0.0, "bitops": 0.0, "task": 0.0}
    kinds = {record.span_id: record.kind for record in records}
    child_time: dict[int, float] = {}
    for record in records:
        if record.parent_id in kinds:
            child_time[record.parent_id] = (
                child_time.get(record.parent_id, 0.0) + record.duration
            )
    for record in records:
        own = record.duration - child_time.get(record.span_id, 0.0)
        if record.kind == "task":
            seconds["task"] += own
        elif record.name == COLUMN_KERNEL:
            seconds["column_kernel"] += own
        elif record.name == CACHE_BUILD:
            seconds["cache_build"] += own
        else:
            seconds["bitops"] += own
    return seconds


#: Layer of each in-task category: the task code and the column kernel
#: live in ``repro.core``; other kernel spans are ``repro.bitops`` kernels.
IN_TASK_LAYER = {
    "column_kernel": "core", "cache_build": "core", "task": "core",
    "bitops": "bitops",
}


def pickled_bytes(task_fn, stage_name, indexed_partitions, results) -> int:
    """Bytes a process pool pickles for one stage: calls out, results back.

    Each task ships the task function with its partition (as the arguments
    of the backend's ``execute_task``) and ships its result list back.
    """
    total = 0
    for index, items in indexed_partitions:
        total += len(pickle.dumps(
            (task_fn, stage_name, index, items), pickle.HIGHEST_PROTOCOL
        ))
    for result in results:
        total += len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
    return total


def _timed_save(recorder: Recorder, save):
    """``CheckpointManager.save`` timed, counting the bytes written."""

    def timed_save(self, step, state):
        with recorder.span("resilience.checkpoint", "resilience"):
            path = save(self, step, state)
        recorder.count("checkpoint_bytes", os.path.getsize(path))
        return path

    return timed_save


def _timed_run_stage(recorder: Recorder, run_stage, workers: int, measure_ipc: bool):
    """``SimulatedRuntime.run_stage`` timed and split into in-task layers."""

    def timed_run_stage(self, stage_name, task_fn, indexed_partitions):
        indexed_partitions = list(indexed_partitions)
        first_record = len(self.tracer.spans)
        measuring = 0.0
        with recorder.span("distengine.run_stage", "distengine") as stage_id:
            results = run_stage(self, stage_name, task_fn, indexed_partitions)
            if measure_ipc:
                with recorder.span(
                    "observability.ipc_measure", "observability"
                ) as measure_id:
                    recorder.count("ipc_bytes", pickled_bytes(
                        task_fn, stage_name, indexed_partitions, results
                    ))
                measuring = recorder.spans[measure_id].duration
        stage = recorder.spans[stage_id]
        stage_self = stage.duration - sum(
            span.duration for span in recorder.spans[stage_id + 1:]
            if span.parent == stage_id
        )
        breakdown = task_breakdown(self.tracer.spans[first_record:])
        # The benchmark's own pickling is not part of the stage.
        recorder.count("stage_wall_s", stage.duration - measuring)
        recorder.count("task_cpu_s", sum(breakdown.values()))
        if "columnErrors" in stage_name:
            recorder.count("column_stages", 1)
            recorder.count("column_task_self_s", breakdown["task"])
        recorder.count("column_kernel_s", breakdown["column_kernel"])
        recorder.count("cache_build_s", breakdown["cache_build"])
        recorder.count("bitops_kernel_s", breakdown["bitops"])
        for category, seconds in split_in_task(stage_self, breakdown, workers).items():
            recorder.add(f"task.{category}", IN_TASK_LAYER[category], seconds,
                         parent=stage_id)
        return results

    return timed_run_stage


@contextmanager
def instrument(recorder: Recorder, workers: int, measure_ipc: bool):
    """Wrap each layer's public calls with spans for the duration of a block.

    The runtimes used inside the block must trace
    (``ClusterConfig(tracing=True)``): the in-task kernel spans come from
    their tracer.  ``workers`` is how many tasks the backend runs at once;
    with ``measure_ipc`` every stage also pickles what a process pool would
    ship, timed as its own ``observability`` span.
    """
    from repro import incremental as session_module
    from repro.core import decompose
    from repro.core.incremental import PartitionedUnfoldings
    from repro.distengine import Distributed, SimulatedRuntime
    from repro.observability import Tracer
    from repro.resilience import CheckpointManager
    from repro.storage import PartitionSpillStore
    from repro.tensor import SparseBoolTensor

    # Module functions are patched where their callers look them up.
    wrapped = (
        (decompose, "prepare_partitioned_unfoldings", "core.prepare", "core"),
        (decompose, "update_factor", "core.update_factor", "core"),
        (session_module, "dirty_columns_for_delta", "incremental.dirty", "incremental"),
        (session_module, "baseline_error_after_delta", "incremental.dirty",
         "incremental"),
        (PartitionedUnfoldings, "patch", "incremental.patch", "incremental"),
        (SparseBoolTensor, "apply_delta", "tensor.apply_delta", "tensor"),
        (SimulatedRuntime, "broadcast", "distengine.broadcast", "distengine"),
        (SimulatedRuntime, "report", "distengine.report", "distengine"),
        (Distributed, "collect", "distengine.collect", "distengine"),
        (PartitionSpillStore, "admit", "storage.admit", "storage"),
        (PartitionSpillStore, "fetch", "storage.fetch", "storage"),
        (Tracer, "graft", "observability.graft", "observability"),
    )
    prepare = PartitionedUnfoldings.__dict__["prepare"].__func__
    replacements = [
        (owner, attribute, recorder.wrap(getattr(owner, attribute), name, layer))
        for owner, attribute, name, layer in wrapped
    ] + [
        (PartitionedUnfoldings, "prepare",
         classmethod(recorder.wrap(prepare, "core.prepare", "core"))),
        (CheckpointManager, "save", _timed_save(recorder, CheckpointManager.save)),
        (SimulatedRuntime, "run_stage", _timed_run_stage(
            recorder, SimulatedRuntime.run_stage, workers, measure_ipc
        )),
    ]
    originals = [
        (owner, attribute, owner.__dict__[attribute])
        for owner, attribute, _ in replacements
    ]
    try:
        for owner, attribute, replacement in replacements:
            setattr(owner, attribute, replacement)
        yield recorder
    finally:
        for owner, attribute, original in originals:
            setattr(owner, attribute, original)
