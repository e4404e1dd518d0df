"""The bucketed shuffle plane of ``combine_by_key`` against a driver oracle.

The central contract: the worker-side bucketing must produce exactly the
result partitions and SHUFFLE ledger charges of a short pure-Python driver
oracle — pre-combine each source partition, route every ``(key,
combiner)`` pair by ``stable_hash(key) % n_target`` in (source partition,
insertion) order, merge per bucket, and size each pair with
``estimate_bytes`` — for every partition shape (empty partitions,
growing/shrinking ``n_partitions``, keys duplicated across every source),
on the serial, thread, and process backends, with and without a memory
budget.  A hypothesis property pins the equivalence over randomized keyed
datasets.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distengine import (
    ClusterConfig,
    SimulatedRuntime,
    TransferKind,
    estimate_bytes,
    stable_hash,
)

BACKENDS = ["serial", "thread", "process"]


def _copy(value):
    return value.copy() if hasattr(value, "copy") else value


def _add(left, right):
    return left + right


def _normalize(partitions):
    """Partition structure with ndarray values made comparable."""
    return [
        [
            (key, value.tolist() if isinstance(value, np.ndarray) else value)
            for key, value in partition
        ]
        for partition in partitions
    ]


def _combine(
    data,
    n_source,
    n_target=None,
    backend="serial",
    memory_budget=None,
):
    """One combine_by_key run; returns (partitions, shuffle bytes, runtime facts)."""
    runtime = SimulatedRuntime(
        ClusterConfig(
            n_machines=2, cores_per_machine=2, backend=backend, n_workers=2,
            memory_budget=memory_budget,
        )
    )
    try:
        rdd = runtime.parallelize(data, n_partitions=n_source, name="kv")
        out = rdd.combine_by_key(_copy, _add, _add, n_partitions=n_target)
        partitions = out.glom()
        shuffle_bytes = runtime.ledger.bytes_of_kind(TransferKind.SHUFFLE)
        counters = runtime.metrics.counters()
        return _normalize(partitions), shuffle_bytes, counters
    finally:
        runtime.close()


def _driver_oracle(data, n_source, n_target=None):
    """(partitions, shuffle bytes) of a driver that routes every pair itself.

    Sources are split like ``parallelize`` (contiguous, near-equal); each
    pre-combines its pairs, then every ``(key, combiner)`` is routed in
    (source partition, insertion) order and merged into its bucket.
    """
    n_target = n_target or n_source
    base, extra = divmod(len(data), n_source)
    buckets = [{} for _ in range(n_target)]
    shuffle_bytes = 0
    cursor = 0
    for index in range(n_source):
        size = base + (1 if index < extra else 0)
        combiners = {}
        for key, value in data[cursor:cursor + size]:
            combiners[key] = (
                _add(combiners[key], value) if key in combiners
                else _copy(value)
            )
        cursor += size
        for key, combiner in combiners.items():
            shuffle_bytes += estimate_bytes(key) + estimate_bytes(combiner)
            bucket = buckets[stable_hash(key) % n_target]
            bucket[key] = (
                _add(bucket[key], combiner) if key in bucket else combiner
            )
    return _normalize([list(b.items()) for b in buckets]), shuffle_bytes


def _assert_matches_oracle(data, n_source, n_target=None, **kwargs):
    got, got_bytes, counters = _combine(data, n_source, n_target, **kwargs)
    expected, expected_bytes = _driver_oracle(data, n_source, n_target)
    assert got == expected
    assert got_bytes == expected_bytes
    return got, counters


def _array_data(n_items, n_keys=7):
    return [
        (i % n_keys, np.arange(4, dtype=np.int64) + i) for i in range(n_items)
    ]


class TestWorkerVsDriverEquivalence:
    def test_partitions_and_bytes_identical(self):
        _assert_matches_oracle(_array_data(120), 6)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_invariant(self, backend):
        _assert_matches_oracle(_array_data(80), 4, backend=backend)

    def test_integer_values(self):
        _assert_matches_oracle([(i % 5, i) for i in range(200)], 8)

    def test_routing_timer_recorded_on_both_paths(self):
        # In-memory buckets only, and buckets spliced from spilled runs (a
        # spilling map task pre-combines in smaller splits, so only the
        # merged partitions — not the shuffle bytes — match the oracle).
        data = _array_data(40)
        expected, _ = _driver_oracle(data, 4)
        for memory_budget in (None, 500):
            got, _, counters = _combine(data, 4, memory_budget=memory_budget)
            assert got == expected
            spilled = bool(counters.get("shuffle_spill_total"))
            assert spilled == (memory_budget is not None)
            routing = counters.get("shuffle_routing_seconds_total", {})
            assert routing, "routing timer missing"
            assert all(value >= 0.0 for value in routing.values())


class TestEdgeCases:
    @pytest.mark.parametrize("budgeted", [True, False])
    def test_empty_input(self, budgeted):
        partitions, shuffle_bytes, _ = _combine(
            [], 4, memory_budget=500 if budgeted else None
        )
        assert partitions == [[] for _ in range(4)]
        assert shuffle_bytes == 0

    def test_more_partitions_than_items(self):
        _assert_matches_oracle([(0, 1), (1, 2)], 8)

    def test_partition_growth(self):
        got, _ = _assert_matches_oracle(_array_data(30), 2, n_target=8)
        assert len(got) == 8

    def test_partition_shrink(self):
        got, _ = _assert_matches_oracle(_array_data(30), 8, n_target=2)
        assert len(got) == 2

    def test_single_target_partition(self):
        got, _ = _assert_matches_oracle(_array_data(30), 4, n_target=1)
        assert len(got) == 1

    def test_duplicate_keys_across_all_sources(self):
        # Every source partition holds every key, so every reduce bucket
        # merges combiners from every map output — the order-sensitivity
        # worst case for the segment splice.
        n_source = 6
        data = []
        for source in range(n_source):
            for key in range(10):
                data.append((key, np.full(3, source + 1, dtype=np.int64)))
        _assert_matches_oracle(data, n_source)

    def test_none_values_and_string_keys(self):
        data = [(f"k{i % 3}", i) for i in range(20)] + [("k0", 0)]
        data += [(None, i) for i in range(4)]
        _assert_matches_oracle(data, 3)


class TestBudgetedWorkerShuffle:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_spill_results_identical(self, backend):
        data = _array_data(200)
        base, _, _ = _combine(data, 8)
        spilled, _, counters = _combine(
            data, 8, backend=backend, memory_budget=2000
        )
        assert spilled == base
        spills = counters.get("shuffle_spill_total", {})
        assert sum(spills.values()) > 0, "tiny budget must force spill runs"

    def test_spill_counts_backend_invariant(self):
        data = _array_data(200)
        totals = []
        for backend in BACKENDS:
            _, _, counters = _combine(
                data, 8, backend=backend, memory_budget=2000
            )
            totals.append(sum(counters.get("shuffle_spill_total", {}).values()))
        assert totals[0] > 0
        assert totals == [totals[0]] * len(BACKENDS)

    def test_spill_bytes_metered(self):
        data = _array_data(200)
        runtime = SimulatedRuntime(
            ClusterConfig(memory_budget=2000)
        )
        try:
            rdd = runtime.parallelize(data, n_partitions=8, name="kv")
            rdd.combine_by_key(_copy, _add, _add).glom()
            by_stage = dict(runtime.ledger.by_stage)
            spill_stages = [s for s in by_stage if s.endswith(".spill")]
            fetch_stages = [s for s in by_stage if s.endswith(".fetch")]
            assert spill_stages and fetch_stages
            assert runtime.ledger.bytes_of_kind(TransferKind.SPILL) > 0
        finally:
            runtime.close()

    def test_no_spill_without_budget(self):
        data = _array_data(60)
        _, _, counters = _combine(data, 4)
        assert not counters.get("shuffle_spill_total", {})


@settings(max_examples=25, deadline=None)
@given(
    items=st.lists(
        st.tuples(st.integers(-50, 50), st.integers(-1000, 1000)),
        max_size=120,
    ),
    n_source=st.integers(1, 6),
    n_target=st.integers(1, 6),
)
def test_worker_routing_matches_driver_routing(items, n_source, n_target):
    """Property: identical buckets and ledger totals to the driver oracle."""
    _assert_matches_oracle(items, n_source, n_target=n_target)
