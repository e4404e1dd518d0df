from collections import namedtuple

import numpy as np
import pytest

import layers

Record = namedtuple("Record", "span_id parent_id name kind duration")


def _tree():
    spans = [
        layers.Span(0, None, "op", layers.UNATTRIBUTED, 10.0),
        layers.Span(1, 0, "tensor.load_tensor", "tensor", 2.0),
        layers.Span(2, 0, "core.dbtf", "core", 7.5),
        layers.Span(3, 2, "distengine.run_stage", "distengine", 5.0),
        layers.Span(4, 3, "task.column_kernel", "core", 3.0),
        layers.Span(5, 3, "task.bitops", "bitops", 1.0),
    ]
    return spans


def test_self_time_subtracts_children():
    selfs = layers.self_times(_tree())
    assert selfs == {0: 0.5, 1: 2.0, 2: 2.5, 3: 1.0, 4: 3.0, 5: 1.0}


def test_layer_table_rows_sum_to_root_duration():
    table = layers.layer_table(_tree(), 0)
    assert table["tensor"] == 2.0
    assert table["core"] == pytest.approx(5.5)
    assert table["distengine"] == 1.0
    assert table["bitops"] == 1.0
    assert table[layers.UNATTRIBUTED] == 0.5
    assert sum(table.values()) == pytest.approx(10.0)
    assert set(layers.LAYERS) <= set(table)


def test_layer_table_ignores_spans_outside_the_root():
    spans = _tree() + [layers.Span(6, None, "op", layers.UNATTRIBUTED, 4.0),
                       layers.Span(7, 6, "tensor.load_tensor", "tensor", 4.0)]
    assert layers.layer_table(spans, 0)["tensor"] == 2.0


def test_split_in_task_divides_by_workers_and_caps_at_stage_time():
    seconds = {"column_kernel": 3.0, "task": 1.0}
    assert layers.split_in_task(10.0, seconds, 1) == {"column_kernel": 3.0, "task": 1.0}
    assert layers.split_in_task(10.0, seconds, 2) == {"column_kernel": 1.5, "task": 0.5}
    capped = layers.split_in_task(2.0, seconds, 1)
    assert capped == {"column_kernel": 1.5, "task": 0.5}
    assert layers.split_in_task(0.0, seconds, 1) == {"column_kernel": 0.0, "task": 0.0}


def test_task_breakdown_uses_kernel_self_times():
    records = [
        Record(10, 1, "stage", "task", 5.0),
        Record(11, 10, "cp.columnErrors", "kernel", 3.0),
        Record(12, 11, "khatri_rao", "kernel", 0.5),
        Record(13, 10, "cache.build", "kernel", 1.0),
    ]
    assert layers.task_breakdown(records) == {
        "column_kernel": 2.5, "cache_build": 1.0, "bitops": 0.5, "task": 1.0,
    }


def test_recorder_nests_spans_by_call_stack():
    recorder = layers.Recorder()
    with recorder.span("op", layers.UNATTRIBUTED) as root:
        with recorder.span("a", "core") as a:
            recorder.add("synthetic", "bitops", 0.0)
        recorder.wrap(lambda: None, "b", "tensor")()
    parents = {s.name: s.parent for s in recorder.spans}
    assert parents == {"op": None, "a": root, "synthetic": a, "b": root}


def test_instrumented_factorization_table_covers_its_wall_time():
    from repro import dbtf, planted_tensor
    from repro.core import decompose
    from repro.distengine import ClusterConfig, SimulatedRuntime

    tensor, _ = planted_tensor((24, 24, 24), 3, 0.2, np.random.default_rng(0))
    original = decompose.update_factor
    recorder = layers.Recorder()
    with layers.instrument(recorder, workers=1, measure_ipc=True):
        with SimulatedRuntime(ClusterConfig(tracing=True)) as runtime:
            with recorder.span("op", layers.UNATTRIBUTED) as root:
                with recorder.span("core.dbtf", "core"):
                    dbtf(tensor, rank=3, max_iterations=2, runtime=runtime)
    assert decompose.update_factor is original
    table = layers.layer_table(recorder.spans, root)
    wall = recorder.spans[root].duration
    assert sum(table.values()) == pytest.approx(wall)
    assert table[layers.UNATTRIBUTED] < 0.05 * wall
    assert table["distengine"] > 0 and table["core"] > 0
    assert recorder.totals["column_stages"] == 3 * 3 * 2
    assert recorder.totals["ipc_bytes"] > 0
