"""Acceptance gate for the worker-side bucketed shuffle plane.

Four contracts, asserted before BENCH_shuffle.json is written:

* **Routing cost** — at 8 source and 8 target partitions the driver
  routes whole buckets, never pairs: the combine emits exactly 8
  ``shuffle`` bucket events whose ``segments`` sum to at most 8 x 8
  (one in-memory segment per source per bucket).
* **Byte parity** — the SHUFFLE ledger charge and the per-bucket byte
  split equal a per-pair oracle (a ``stable_hash`` placement and an
  ``estimate_bytes`` size for every pre-combined (key, combiner) pair).
* **Spill under pressure** — with the memory budget set to half the
  probed combine working set (so working set >= 2x budget), map tasks
  must spill runs (``shuffle_spill_total > 0``) and the merged results
  must stay bit-identical.
* **End-to-end bit-identity** — DBTF factors and error traces are
  identical across serial/thread/process, with and without a budget.

Usage::

    python benchmarks/bench_shuffle.py            # full workload
    python benchmarks/bench_shuffle.py --smoke    # CI-sized quick run
"""

from __future__ import annotations

import argparse

import numpy as np

from _emit import emit, entry

from repro.core import dbtf
from repro.distengine import (
    ClusterConfig,
    SimulatedRuntime,
    TransferKind,
    estimate_bytes,
    stable_hash,
)
from repro.observability import SpanKind
from repro.storage import format_size
from repro.tensor import planted_tensor

#: Probe budget large enough that nothing ever spills.
UNLIMITED = 1 << 50


def _copy(value):
    return value.copy()


def _add(left, right):
    return left + right


def _keyed_data(n_pairs: int):
    """Many distinct keys with ndarray combiners: the per-pair worst case."""
    n_keys = max(1, n_pairs // 4)
    return [
        (i % n_keys, np.arange(8, dtype=np.int64) + i) for i in range(n_pairs)
    ]


def _oracle_bucket_bytes(data, n_partitions):
    """Per-bucket bytes of routing every pre-combined pair on the driver."""
    bucket_bytes = [0] * n_partitions
    base, extra = divmod(len(data), n_partitions)
    cursor = 0
    for index in range(n_partitions):
        size = base + (1 if index < extra else 0)
        combiners = {}
        for key, value in data[cursor:cursor + size]:
            combiners[key] = (
                _add(combiners[key], value) if key in combiners
                else _copy(value)
            )
        cursor += size
        for key, combiner in combiners.items():
            bucket_bytes[stable_hash(key) % n_partitions] += (
                estimate_bytes(key) + estimate_bytes(combiner)
            )
    return bucket_bytes


def _combine_run(
    data,
    n_partitions: int,
    backend: str = "serial",
    memory_budget: "int | None" = None,
    tracing: bool = False,
):
    """One combine_by_key pass; returns routing/byte/spill facts."""
    runtime = SimulatedRuntime(
        ClusterConfig(
            n_machines=2, cores_per_machine=4, backend=backend, n_workers=2,
            memory_budget=memory_budget, tracing=tracing,
        )
    )
    try:
        rdd = runtime.parallelize(data, n_partitions=n_partitions, name="kv")
        import time

        started = time.perf_counter()
        partitions = rdd.combine_by_key(_copy, _add, _add).glom()
        wall_s = time.perf_counter() - started
        counters = runtime.metrics.counters()
        return {
            "wall_s": wall_s,
            "simulated_s": runtime.simulated_time(),
            "fingerprint": tuple(
                tuple((key, value.tobytes()) for key, value in partition)
                for partition in partitions
            ),
            "routing_s": runtime.metrics.value(
                "shuffle_routing_seconds_total", stage="kv.combineByKey"
            ),
            "shuffle_bytes": runtime.ledger.bytes_of_kind(
                TransferKind.SHUFFLE
            ),
            "spill_bytes": runtime.ledger.bytes_of_kind(TransferKind.SPILL),
            "spill_runs": int(
                sum(counters.get("shuffle_spill_total", {}).values())
            ),
            "bucket_split": _bucket_split(runtime),
            "bucket_events": [
                (span.attrs["bucket"], span.attrs["bytes"],
                 span.attrs["segments"])
                for span in (runtime.tracer.spans if tracing else ())
                if span.kind == SpanKind.SHUFFLE
            ],
        }
    finally:
        runtime.close()


def _bucket_split(runtime):
    """Per-bucket byte totals from the shuffle_bucket_bytes histogram."""
    for name, labels, kind, snapshot in runtime.metrics.collect():
        if name == "shuffle_bucket_bytes" and kind == "histogram":
            return (snapshot["count"], snapshot["sum"], snapshot["min"],
                    snapshot["max"], tuple(snapshot["buckets"].values()))
    return None


def _best_routing(data, n_partitions, repeats):
    """The traced run with the least routing time of ``repeats`` runs."""
    runs = [
        _combine_run(data, n_partitions, tracing=True)
        for _ in range(repeats)
    ]
    return min(runs, key=lambda run: run["routing_s"])


def _dbtf_fingerprint(tensor, rank, iterations, partitions, backend,
                      memory_budget):
    runtime = SimulatedRuntime(
        ClusterConfig(
            n_machines=2, cores_per_machine=2, backend=backend, n_workers=2,
            memory_budget=memory_budget,
        )
    )
    try:
        import time

        started = time.perf_counter()
        result = dbtf(
            tensor, rank=rank, seed=0, max_iterations=iterations,
            n_partitions=partitions, runtime=runtime,
        )
        wall_s = time.perf_counter() - started
        fingerprint = (
            tuple(factor.words.tobytes() for factor in result.factors),
            result.errors_per_iteration,
        )
        return wall_s, result.report.simulated_time, fingerprint
    finally:
        runtime.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=40_000,
                        help="keyed pairs in the routing workload")
    parser.add_argument("--partitions", type=int, default=8,
                        help="source and target partition count (default 8)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N for the routing measurement")
    parser.add_argument("--dim", type=int, default=24,
                        help="cube side of the DBTF bit-identity check")
    parser.add_argument("--rank", type=int, default=4)
    parser.add_argument("--iterations", type=int, default=2)
    parser.add_argument("--backends", nargs="+",
                        default=["serial", "thread", "process"],
                        choices=["serial", "thread", "process"])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized quick run")
    args = parser.parse_args(argv)
    if args.smoke:
        args.pairs, args.repeats = 8_000, 2
        args.dim, args.rank = 16, 2

    data = _keyed_data(args.pairs)
    print(f"routing workload : {args.pairs} pairs, "
          f"{max(1, args.pairs // 4)} keys, {args.partitions} partitions")

    failures: list[str] = []

    # -- routing cost: whole buckets, never pairs ------------------------
    worker = _best_routing(data, args.partitions, args.repeats)
    events = worker["bucket_events"]
    segments = sum(n_segments for _, _, n_segments in events)
    max_segments = args.partitions * args.partitions
    print(f"driver routing   : {len(events)} bucket events, {segments} "
          f"segments (<= {max_segments}), "
          f"{worker['routing_s'] * 1e3:.2f} ms")
    if [bucket for bucket, _, _ in events] != list(range(args.partitions)):
        failures.append(
            f"expected one event per bucket 0..{args.partitions - 1}, got "
            f"{[bucket for bucket, _, _ in events]}"
        )
    if segments > max_segments:
        failures.append(
            f"routing touched {segments} segments > {max_segments} "
            f"(sources x buckets)"
        )

    # -- byte parity: ledger charge and per-bucket split -----------------
    oracle = _oracle_bucket_bytes(data, args.partitions)
    if worker["shuffle_bytes"] != sum(oracle):
        failures.append(
            f"SHUFFLE ledger parity broken: {worker['shuffle_bytes']} "
            f"!= per-pair oracle {sum(oracle)}"
        )
    if [n_bytes for _, n_bytes, _ in events] != oracle:
        failures.append("per-bucket byte split differs from the oracle")
    print(f"byte parity      : {worker['shuffle_bytes']} shuffle bytes, "
          f"per-bucket split equal to the per-pair oracle")

    # -- spill under pressure: budget = probed working set / 2 -----------
    probe = _combine_run(data, args.partitions, memory_budget=UNLIMITED)
    if probe["spill_runs"]:
        failures.append("probe budget must never spill")
    working_set = probe["shuffle_bytes"]
    budget_bytes = max(working_set // 2, 1)
    print(f"combine working set {format_size(working_set)}, budget "
          f"{format_size(budget_bytes)} "
          f"(pressure {working_set / budget_bytes:.1f}x)")
    spilled = {
        backend: _combine_run(
            data, args.partitions, backend=backend,
            memory_budget=budget_bytes,
        )
        for backend in args.backends
    }
    for backend, stats in spilled.items():
        if stats["spill_runs"] <= 0:
            failures.append(f"{backend}: no spill runs under 2x pressure")
        if stats["fingerprint"] != worker["fingerprint"]:
            failures.append(f"{backend}: budgeted combine results differ")
        print(f"spill [{backend:<8}]: {stats['spill_runs']} runs, "
              f"{format_size(stats['spill_bytes'])} spill I/O, "
              f"bit-identical "
              f"{stats['fingerprint'] == worker['fingerprint']}")

    # -- DBTF end-to-end bit-identity across backends and budgets --------
    tensor, _ = planted_tensor(
        (args.dim,) * 3, rank=args.rank, factor_density=0.2,
        rng=np.random.default_rng(7),
    )
    dbtf_entries = []
    reference = None
    for memory_budget in (None, 1 << 20):
        for backend in args.backends:
            wall_s, simulated_s, fingerprint = _dbtf_fingerprint(
                tensor, args.rank, args.iterations, 3, backend, memory_budget,
            )
            if reference is None:
                reference = fingerprint
            elif fingerprint != reference:
                failures.append(
                    f"dbtf results differ: backend={backend} "
                    f"budget={memory_budget}"
                )
            dbtf_entries.append(
                entry(
                    "shuffle_dbtf_identity",
                    {"backend": backend,
                     "budgeted": memory_budget is not None,
                     "dim": args.dim, "rank": args.rank},
                    wall_s, simulated_s,
                )
            )
    print(f"dbtf identity    : {len(dbtf_entries)} runs "
          f"({'all identical' if reference is not None and not failures else 'CHECK FAILURES'})")

    entries = [
        entry("shuffle_routing_worker",
              {"pairs": args.pairs, "partitions": args.partitions,
               "routing_s": worker["routing_s"],
               "bucket_events": len(events), "segments": segments,
               "max_segments": max_segments,
               "shuffle_bytes": int(worker["shuffle_bytes"])},
              worker["wall_s"], worker["simulated_s"]),
    ]
    for backend, stats in spilled.items():
        entries.append(
            entry(f"shuffle_spill_{backend}",
                  {"pairs": args.pairs, "partitions": args.partitions,
                   "budget_bytes": int(budget_bytes),
                   "spill_runs": stats["spill_runs"],
                   "spill_bytes": int(stats["spill_bytes"])},
                  stats["wall_s"], stats["simulated_s"])
        )
    entries.extend(dbtf_entries)
    emit("BENCH_shuffle.json", entries)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"routing {segments} segments for {len(events)} buckets, bytes "
          f"equal to the oracle, spill active under pressure, dbtf "
          f"bit-identical everywhere")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
