"""Worker-resident partitions: batched dispatch and the worker block store.

Pool backends send one batch per worker per stage, with partition ``i`` on
worker ``i % n_workers``.  On the process backend, persist caches stay in
the worker that computed them and the driver keeps block references.
These tests pin the mechanism (call counts, references, wire size), its
lifetime (eviction on lease close), its recovery (lost blocks recomputed
from lineage) and that none of it changes a result.
"""

import pickle
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core import DbtfConfig, dbtf
from repro.core.decompose import dbtf_steps
from repro.distengine import (
    ClusterConfig,
    FaultInjector,
    RuntimeFactory,
    SimulatedRuntime,
    TaskFailedError,
    make_backend,
)
from repro.distengine import blocks, broadcast
from repro.distengine.blocks import BlockRef
from repro.tensor import planted_tensor

N_WORKERS = 2


def _probe(index, items):
    """``(broadcast values, blocks)`` held by the worker running this task."""
    return [(broadcast._store_size(), len(blocks._BLOCKS))]


def _clear_blocks(index, items):
    """Empty the block store of the worker running this task."""
    blocks.clear_store()
    return []


def _double(index, items):
    return [2 * item for item in items]


@dataclass(frozen=True)
class _FailPartitions(FaultInjector):
    """Every attempt of the ``failing`` partitions fails."""

    failing: frozenset = frozenset()

    def should_fail(self, stage, partition, attempt):
        return partition in self.failing


def _cluster(backend, **overrides):
    return ClusterConfig(
        n_machines=2, cores_per_machine=2, backend=backend,
        n_workers=N_WORKERS, **overrides,
    )


def _tensor(seed=1, dim=40, rank=3):
    tensor, _ = planted_tensor(
        (dim, dim, dim), rank=rank, factor_density=0.3, additive_noise=0.05,
        rng=np.random.default_rng(seed),
    )
    return tensor


def _fingerprint(result):
    return (
        tuple(factor.words.tobytes() for factor in result.factors),
        result.errors_per_iteration,
        result.error,
    )


def _serial(tensor, **overrides):
    with SimulatedRuntime(_cluster("serial")) as runtime:
        return _fingerprint(dbtf(tensor, runtime=runtime, **overrides))


def _worker_stores(backend):
    """Each worker's ``(broadcast values, blocks)``, probed by one stage."""
    results, _, _ = backend.run_stage(
        "probe", _probe, [(worker, []) for worker in range(N_WORKERS)]
    )
    return [sizes for (sizes,) in results]


class TestBatchedDispatch:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("n_partitions", [1, 2, 7])
    def test_one_call_per_worker_per_stage(self, monkeypatch, backend,
                                           n_partitions):
        calls = []
        for pool in (ThreadPoolExecutor, ProcessPoolExecutor):
            original = pool.submit

            def spy(self, fn, *args, _original=original, **kwargs):
                calls.append(fn)
                return _original(self, fn, *args, **kwargs)

            monkeypatch.setattr(pool, "submit", spy)
        with make_backend(backend, n_workers=N_WORKERS) as executor:
            for stage in ("a", "b"):
                calls.clear()
                results, _, _ = executor.run_stage(
                    stage, _double, [(i, [i]) for i in range(n_partitions)]
                )
                assert results == [[2 * i] for i in range(n_partitions)]
                assert len(calls) == min(N_WORKERS, n_partitions)

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_lowest_failing_partition_is_raised(self, backend):
        # Partition 3 runs on worker 1 and partition 4 on worker 0: a
        # gather in worker order would surface partition 4's failure.
        injector = _FailPartitions(max_retries=1, failing=frozenset({3, 4}))
        with make_backend(backend, n_workers=N_WORKERS) as executor:
            with pytest.raises(TaskFailedError) as failure:
                executor.run_stage(
                    "s", _double, [(i, [i]) for i in range(6)], injector
                )
        assert failure.value.partition == 3
        assert failure.value.stage == "s"


class TestBlockStore:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_sweep_ships_references_not_partitions(self, backend):
        tensor = _tensor()
        stages = []
        runtime = SimulatedRuntime(_cluster(backend))
        run_stage = runtime.run_stage

        def recording(stage_name, task_fn, indexed_partitions):
            indexed_partitions = list(indexed_partitions)
            stages.append((stage_name, task_fn, indexed_partitions))
            return run_stage(stage_name, task_fn, indexed_partitions)

        runtime.run_stage = recording
        try:
            result = dbtf(tensor, rank=3, max_iterations=2, seed=0,
                          runtime=runtime)
        finally:
            runtime.close()
        assert _fingerprint(result) == _serial(
            tensor, rank=3, max_iterations=2, seed=0
        )
        # The first stage of every sweep builds the cache; the column
        # stages after it read the persisted cacheRowSummations node.
        first = next(i for i, (name, _, _) in enumerate(stages)
                     if "cacheRowSummations" in name)
        name, task_fn, indexed = stages[first + 1]
        assert name == "columnErrors"
        inputs = [items for _, items in indexed]
        if backend == "process":
            assert all(isinstance(items, BlockRef) for items in inputs)
            for index, items in indexed:
                wire = pickle.dumps((task_fn, name, index, items),
                                    pickle.HIGHEST_PROTOCOL)
                assert len(wire) <= 2048
        else:
            assert all(isinstance(items, list) and items for items in inputs)

    def test_lease_close_drops_worker_state(self):
        with RuntimeFactory(_cluster("process")) as factory:
            for seed in range(3):
                with factory.lease() as runtime:
                    dbtf(_tensor(seed), rank=3, max_iterations=2, seed=0,
                         runtime=runtime)
                    # dbtf unpersisted its caches; the broadcast values
                    # its tasks resolved live as long as the runtime.
                    assert all(n_values for n_values, _
                               in _worker_stores(factory.backend))
                assert _worker_stores(factory.backend) == [(0, 0)] * N_WORKERS

    def test_interleaved_leases_match_serial(self):
        tensors = [_tensor(seed=4), _tensor(seed=5, dim=36)]
        config = DbtfConfig(rank=3, max_iterations=3, seed=0)
        with RuntimeFactory(_cluster("process")) as factory:
            leases = [factory.lease() for _ in tensors]
            steps = [
                dbtf_steps(tensor, config, lease.runtime)
                for tensor, lease in zip(tensors, leases)
            ]
            results = [None, None]
            while any(result is None for result in results):
                for job, generator in enumerate(steps):
                    if results[job] is not None:
                        continue
                    try:
                        next(generator)
                    except StopIteration as done:
                        results[job] = done.value
            for lease in leases:
                lease.close()
        for tensor, result in zip(tensors, results):
            assert _fingerprint(result) == _serial(
                tensor, rank=3, max_iterations=3, seed=0
            )


class TestLostBlocks:
    def test_sweep_recomputes_lost_blocks(self):
        tensor = _tensor(seed=2)
        runtime = SimulatedRuntime(_cluster("process"))
        run_stage = runtime.run_stage
        column_stages = []

        def clearing(stage_name, task_fn, indexed_partitions):
            results = run_stage(stage_name, task_fn, indexed_partitions)
            if stage_name.endswith("columnErrors"):
                column_stages.append(stage_name)
                if len(column_stages) == 4:
                    # Worker 0 loses its store in the middle of the
                    # second mode's sweep.
                    runtime.backend.run_stage(
                        "clear", _clear_blocks, [(0, [])]
                    )
            return results

        runtime.run_stage = clearing
        try:
            result = dbtf(tensor, rank=3, max_iterations=3, seed=0,
                          runtime=runtime)
            recomputed = runtime.metrics.value("blocks_recomputed_total")
        finally:
            runtime.close()
        assert _fingerprint(result) == _serial(
            tensor, rank=3, max_iterations=3, seed=0
        )
        assert recomputed > 0

    def test_driver_read_recomputes_lost_blocks(self):
        with SimulatedRuntime(_cluster("process")) as runtime:
            rdd = runtime.parallelize(list(range(10)), n_partitions=4)
            doubled = rdd.map_partitions_with_index(_double).persist()
            assert doubled.count() == 10
            runtime.backend.run_stage(
                "clear", _clear_blocks, [(w, []) for w in range(N_WORKERS)]
            )
            assert doubled.collect() == [2 * i for i in range(10)]
            assert runtime.metrics.value("blocks_recomputed_total") == 4
