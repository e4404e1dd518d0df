"""Stage-fusion gate: dispatched stages per DBTF iteration and wall time.

The plan layer's claim (DESIGN.md §10): each maximal chain of narrow
transformations runs as one dispatch, so a DBTF iteration costs exactly
one stage per factor column — ``3 * rank`` stages, 6 at rank 2.  The cache
build fuses into the first column stage of each mode and the collects add
none.  This benchmark derives the *per-iteration* stage count from the
difference between a 2-iteration and a 1-iteration run (subtracting the
shared setup), asserts that absolute count, and writes
``BENCH_plan.json``::

    python benchmarks/bench_plan.py [--smoke]

Run it after any change to the planner, the runtime dispatch path, or
the decomposition's lineage shape.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core import dbtf
from repro.distengine import ClusterConfig, SimulatedRuntime
from repro.tensor import planted_tensor

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parent))
from _emit import best_wall_time, emit, entry  # noqa: E402

N_MACHINES = 4


def _run(tensor, rank, max_iterations, n_partitions):
    """One decomposition; returns (n_stages, simulated_s)."""
    with SimulatedRuntime(
        ClusterConfig(n_machines=N_MACHINES, cores_per_machine=2)
    ) as runtime:
        result = dbtf(tensor, rank=rank, max_iterations=max_iterations,
                      n_partitions=n_partitions, seed=0, runtime=runtime)
        return result.report.n_stages, runtime.simulated_time(N_MACHINES)


def measure(dim: int, rank: int, n_partitions: int, iterations: int = 2):
    """Stage counts and timings of one planted tensor.

    Returns ``(records, summary)``: the ``_emit`` entry and a dict with
    the per-iteration stage count.
    """
    tensor, _ = planted_tensor(
        (dim, dim, dim), rank=rank, factor_density=0.3,
        rng=np.random.default_rng(7),
    )
    params = {"dim": dim, "rank": rank, "n_partitions": n_partitions,
              "iterations": iterations}
    wall, (n_stages, simulated) = best_wall_time(
        lambda: _run(tensor, rank, iterations, n_partitions), repeats=2,
    )
    short_stages, _ = _run(tensor, rank, 1, n_partitions)
    per_iteration = n_stages - short_stages
    expected = 3 * rank
    if per_iteration != expected:
        raise AssertionError(
            f"{per_iteration} stages per iteration at rank {rank}; one "
            f"fused stage per factor column means exactly {expected}"
        )
    records = [
        entry("dbtf_fused", {**params, "stages_dispatched": n_stages,
                             "stages_per_iteration": per_iteration},
              wall_s=wall, simulated_s=simulated)
    ]
    return records, {"stages_per_iteration": per_iteration}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=24)
    parser.add_argument("--rank", type=int, default=2)
    parser.add_argument("--partitions", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized quick run")
    args = parser.parse_args(argv)
    if args.smoke:
        args.dim = 12

    records, summary = measure(args.dim, args.rank, args.partitions)
    emit("BENCH_plan.json", records)
    print(f"stages/iteration: {summary['stages_per_iteration']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
