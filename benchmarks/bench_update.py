"""Factor-update comms gate: per-column bytes of the broadcast-handle sweep.

The broadcast-handle plane's claim (DESIGN.md §11): each column task ships
a broadcast handle plus the packed column deltas chosen so far, so the
per-column traffic of the factor-update sweep is O(n_rows/8) rather than
the O(n_rows·words + outer + inner) of embedding the factor arrays.  At
rank 8, dim 128 that is at most 976 bytes per column: the column tasks'
payloads plus the ``columnUpdate`` broadcast.  This benchmark measures it
on a fixed-seed planted tensor, asserts the absolute ceiling, times the
batched vs row-loop ``boolean_matmul`` kernel, and writes
``BENCH_update.json``::

    python benchmarks/bench_update.py [--smoke]

Run it after any change to the broadcast plane, payload byte accounting,
or the column-sweep task shapes.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.bitops import BitMatrix
from repro.bitops.ops import _boolean_matmul_batched, _boolean_matmul_rowloop
from repro.core import dbtf
from repro.distengine import ClusterConfig, SimulatedRuntime, estimate_bytes
from repro.tensor import planted_tensor

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parent))
from _emit import best_wall_time, emit, entry  # noqa: E402

N_MACHINES = 4
#: Per-column byte ceiling at the rank-8, dim-128 contract point.
MAX_PER_COLUMN_BYTES = 976
CONTRACT_POINT = {"dim": 128, "rank": 8}


def _meter_column_payloads(runtime) -> dict:
    """Count the column node's payload in every column-evaluating stage.

    The first column stage of each update also carries the fused cache
    build; only the chain's last function — the column task — is the
    sweep's traffic, so it is sized on its own.
    """
    meter = {"bytes": 0}
    run_plan = runtime.run_plan

    def metered(stage, indexed_partitions):
        indexed_partitions = list(indexed_partitions)
        if stage.name.endswith("columnErrors"):
            meter["bytes"] += (
                estimate_bytes(stage.nodes[-1].fn) * len(indexed_partitions)
            )
        return run_plan(stage, indexed_partitions)

    runtime.run_plan = metered
    return meter


def _run(tensor, rank, max_iterations, n_partitions):
    """One decomposition; returns (per-column bytes, simulated time)."""
    with SimulatedRuntime(
        ClusterConfig(n_machines=N_MACHINES, cores_per_machine=2)
    ) as runtime:
        meter = _meter_column_payloads(runtime)
        result = dbtf(tensor, rank=rank, max_iterations=max_iterations,
                      n_partitions=n_partitions, seed=0, runtime=runtime)
        # Driver->worker bytes of the column sweep: the column task
        # payloads plus the columnUpdate broadcasts, averaged per column
        # stage (rank columns x 3 modes x iterations).
        sweep_bytes = meter["bytes"] + runtime.ledger.by_stage.get(
            "columnUpdate", 0
        )
        n_columns = rank * 3 * len(result.errors_per_iteration)
        return sweep_bytes / n_columns, runtime.simulated_time(N_MACHINES)


def measure(dim: int, rank: int, n_partitions: int, iterations: int,
            repeats: int):
    """Per-column bytes on one planted tensor, plus the matmul kernels."""
    tensor, _ = planted_tensor(
        (dim, dim, dim), rank=rank, factor_density=0.1,
        rng=np.random.default_rng(7),
    )
    params = {"dim": dim, "rank": rank, "n_partitions": n_partitions,
              "iterations": iterations}
    wall, (per_column, simulated) = best_wall_time(
        lambda: _run(tensor, rank, iterations, n_partitions), repeats=repeats,
    )
    if {"dim": dim, "rank": rank} == CONTRACT_POINT and (
        per_column > MAX_PER_COLUMN_BYTES
    ):
        raise AssertionError(
            f"{per_column:.0f} B per column exceeds the "
            f"{MAX_PER_COLUMN_BYTES} B ceiling at rank {rank}, dim {dim}"
        )
    records = [
        entry("update_handles", {**params, "per_column_bytes": per_column},
              wall_s=wall, simulated_s=simulated)
    ]

    # The batched kernel the rewired sweep leans on, vs its loop baseline.
    rng = np.random.default_rng(3)
    left = BitMatrix.random(256, 64, 0.2, rng)
    right = BitMatrix.random(64, 1024, 0.2, rng)
    loop_wall, loop_product = best_wall_time(
        lambda: _boolean_matmul_rowloop(left, right), repeats=max(repeats, 3)
    )
    batched_wall, batched_product = best_wall_time(
        lambda: _boolean_matmul_batched(left, right), repeats=max(repeats, 3)
    )
    if batched_product != loop_product:
        raise AssertionError("batched boolean_matmul diverged from row loop")
    kernel_params = {"shape": [256, 64, 1024]}
    records.append(entry("boolean_matmul_rowloop", kernel_params,
                         wall_s=loop_wall))
    records.append(entry("boolean_matmul_batched", kernel_params,
                         wall_s=batched_wall))
    summary = {
        "per_column": per_column,
        "matmul_speedup": loop_wall / batched_wall,
    }
    return records, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=128)
    parser.add_argument("--rank", type=int, default=8)
    parser.add_argument("--partitions", type=int, default=4)
    parser.add_argument("--iterations", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized quick run (same rank-8/dim-128 "
                             "contract point, fewer iterations/repeats)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.iterations = 1
        args.repeats = 1

    records, summary = measure(args.dim, args.rank, args.partitions,
                               args.iterations, args.repeats)
    emit("BENCH_update.json", records)
    print(
        f"per-column bytes: {summary['per_column']:.0f} "
        f"(ceiling {MAX_PER_COLUMN_BYTES} at rank 8, dim 128); "
        f"boolean_matmul batched {summary['matmul_speedup']:.1f}x"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
