"""Out-of-core workflow: stream .mtx slices in, factorize under a budget.

Real datasets often ship as one MatrixMarket file per relation or per time
window (the RESCAL layout), and may not fit comfortably in driver RAM.
This example walks the storage tier end to end on a small on-disk dataset
(``examples/data/contacts_day*.mtx`` — a synthetic contact network over
three days):

1. ingest the per-day slices into one entity x entity x day tensor with
   `repro.datasets.from_slice_files` (entries stream through
   `repro.storage.StreamingTensorBuilder`, so the raw files are never
   materialized as one coordinate list),
2. flush a packed unfolding through `repro.storage.MmapUnfoldingStore`
   and show it is served from a read-only memory map,
3. factorize twice — unbudgeted, then under a deliberately tiny
   `memory_budget` that forces cache spilling — and verify the factors
   and error trace are bit-identical while resident bytes stay bounded.

Run:  python examples/streaming_ingest.py
"""

import pathlib

import numpy as np

from repro.core import DbtfConfig, dbtf
from repro.datasets import from_matrix_market, from_slice_files
from repro.distengine import ClusterConfig, SimulatedRuntime
from repro.storage import MmapUnfoldingStore, StreamingTensorBuilder, format_size
from repro.tensor import PackedUnfolding, unfold

DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"
BUDGET_BYTES = 4096


def main() -> None:
    slice_paths = sorted(DATA_DIR.glob("contacts_day*.mtx"))

    # 1. One .mtx file is a matrix; a sorted list of them is a tensor.
    day0 = from_matrix_market(slice_paths[0])
    print(f"single slice {slice_paths[0].name}: {day0}")
    tensor = from_slice_files(slice_paths)
    print(f"stacked {len(slice_paths)} slices -> {tensor}\n")

    # 2. The largest driver-side object is the packed unfolding; flushing
    # it through the mmap store trades resident RAM for on-demand paging.
    builder = StreamingTensorBuilder(tensor.shape).add_batch(tensor.coords)
    with MmapUnfoldingStore() as store:
        packed = builder.packed_unfolding(0, store=store)
        in_memory = PackedUnfolding(unfold(tensor, 0))
        assert np.array_equal(np.asarray(packed.words), in_memory.words)
        print(f"mode-0 unfolding: {format_size(in_memory.nbytes)} packed, "
              f"served from {store.directory}")

        # 3. Factorize with and without a memory budget.  The budget only
        # changes *where* plan caches live (RAM vs spill files), never the
        # arithmetic, so results must match bit for bit.
        plain = dbtf(tensor, rank=2, seed=0, max_iterations=5,
                     n_partitions=2)
        runtime = SimulatedRuntime(
            ClusterConfig(n_machines=2, cores_per_machine=2,
                          memory_budget=BUDGET_BYTES)
        )
        try:
            config = DbtfConfig(rank=2, seed=0, max_iterations=5,
                                n_partitions=2)
            budgeted = dbtf(tensor, config=config, runtime=runtime)
            budget = runtime.storage.budget
            print(f"\nunbudgeted : relative error "
                  f"{plain.relative_error:.3f}, spill 0 B")
            print(f"budget {format_size(BUDGET_BYTES)}: relative error "
                  f"{budgeted.relative_error:.3f}, "
                  f"spill {format_size(budgeted.report.spill_bytes)} "
                  f"({budget.spill_events} spills, "
                  f"{budget.load_events} loads)")
            print(f"peak tracked resident: "
                  f"{format_size(budget.peak_resident)} "
                  f"<= budget {format_size(BUDGET_BYTES)}")
            identical = (
                budgeted.errors_per_iteration == plain.errors_per_iteration
                and all(
                    np.array_equal(a.words, b.words)
                    for a, b in zip(budgeted.factors, plain.factors)
                )
            )
            print(f"bit-identical to the unbudgeted run: {identical}")
            assert identical
            assert budget.peak_resident <= BUDGET_BYTES
        finally:
            runtime.close()


if __name__ == "__main__":
    main()
