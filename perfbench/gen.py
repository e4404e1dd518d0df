"""Seeded input generator for the DBTF benchmark.

Writes planted Boolean tensors (and, for stream workloads, delta files plus
a digest of the tensor the stream must end at) in the program's own text
formats.  The
generator is the benchmark's own code, not the library's ``planted_tensor``,
so a change to the library's random-number use cannot change the inputs a
benchmark seed produces.

Run as a script it writes one workload's files::

    python3 perfbench/gen.py --shape 256 --rank 10 --density 0.1 \
        --seed 3 --instances 4 --deltas 0 --out .bench_work/inputs
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os

import numpy as np

ADDITIVE_NOISE = 0.1
DESTRUCTIVE_NOISE = 0.1
DELTA_FRACTION = 0.002


def instance_rng(seed: int, instance: int, rank: int) -> np.random.Generator:
    """The generator of one instance; workloads of equal rank share instances."""
    return np.random.default_rng([seed, instance, rank])


def planted_cells(
    shape: tuple[int, int, int], rank: int, density: float, rng: np.random.Generator
) -> np.ndarray:
    """Sorted row-major flat indices of a planted tensor with noise.

    Factor entries are i.i.d. Bernoulli(``density``); the clean tensor is the
    Boolean sum of the ``rank`` rank-one blocks.  Destructive noise deletes
    ``DESTRUCTIVE_NOISE`` of the clean ones and additive noise sets as many
    distinct zero cells, both as shares of the clean nonzero count.
    """
    factors = [rng.random((size, rank)) < density for size in shape]
    _, n_j, n_k = shape
    blocks = []
    for r in range(rank):
        i, j, k = (np.flatnonzero(f[:, r]) for f in factors)
        blocks.append(
            ((i[:, None, None] * n_j + j[None, :, None]) * n_k + k[None, None, :])
            .reshape(-1)
        )
    clean = np.unique(np.concatenate(blocks)) if blocks else np.zeros(0, np.int64)
    n_noise = int(round(DESTRUCTIVE_NOISE * clean.size))
    kept = np.delete(clean, rng.choice(clean.size, n_noise, replace=False))
    n_add = int(round(ADDITIVE_NOISE * clean.size))
    added = _absent_cells(clean, n_add, int(np.prod(shape)), rng)
    return np.union1d(kept, added)


def _absent_cells(
    present: np.ndarray, count: int, n_cells: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` distinct cells drawn uniformly from those not in ``present``."""
    candidates = np.zeros(0, dtype=np.int64)
    while candidates.size < count:
        draw = np.unique(rng.integers(0, n_cells, size=2 * count + 16))
        candidates = np.union1d(candidates, draw[~np.isin(draw, present)])
    return rng.choice(candidates, count, replace=False)


def stream_deltas(
    cells: np.ndarray, n_deltas: int, n_cells: int, rng: np.random.Generator
) -> "tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]":
    """``n_deltas`` (added, removed) flat-index sets and the final cells.

    Each delta flips ``DELTA_FRACTION`` of the current nonzeros: half are
    removals of present cells, half additions of absent ones.
    """
    occupied = np.zeros(n_cells, dtype=bool)
    occupied[cells] = True
    deltas = []
    for _ in range(n_deltas):
        present = np.flatnonzero(occupied)
        half = max(1, int(round(DELTA_FRACTION * present.size / 2)))
        removed = np.sort(rng.choice(present, half, replace=False))
        added = np.sort(_absent_cells(present, half, n_cells, rng))
        deltas.append((added, removed))
        occupied[removed] = False
        occupied[added] = True
    return deltas, np.flatnonzero(occupied)


def cells_digest(cells: np.ndarray) -> str:
    """Digest of a sorted flat-index set, to compare tensors without files."""
    return hashlib.sha256(np.asarray(cells, dtype=np.int64).tobytes()).hexdigest()


def write_tensor(path: str, shape: tuple[int, ...], cells: np.ndarray) -> None:
    """The ``# shape`` coordinate-list format of ``repro.tensor.io``."""
    coords = np.stack(np.unravel_index(cells, shape), axis=1)
    with open(path, "w", encoding="ascii") as handle:
        handle.write("# shape " + " ".join(str(s) for s in shape) + "\n")
        np.savetxt(handle, coords, fmt="%d")


def write_delta(
    path: str, shape: tuple[int, ...], added: np.ndarray, removed: np.ndarray
) -> None:
    """The delta text format of ``repro.tensor.delta``."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write("# delta " + " ".join(str(s) for s in shape) + "\n")
        for sign, cells in (("+", added), ("-", removed)):
            for row in np.stack(np.unravel_index(cells, shape), axis=1):
                handle.write(sign + " " + " ".join(str(int(c)) for c in row) + "\n")


def generate(
    out: str, shape: tuple[int, int, int], rank: int, density: float,
    seed: int, instances: int, deltas: int,
) -> dict:
    """Write every instance of one workload under ``out``; returns the manifest."""
    os.makedirs(out, exist_ok=True)
    n_cells = int(np.prod(shape))
    manifest = {"shape": list(shape), "instances": []}
    for index in range(instances):
        rng = instance_rng(seed, index, rank)
        cells = planted_cells(shape, rank, density, rng)
        entry = {"tensor": os.path.join(out, f"x{index}.tns"), "nnz": int(cells.size)}
        write_tensor(entry["tensor"], shape, cells)
        if deltas:
            stream, final = stream_deltas(cells, deltas, n_cells, rng)
            entry["deltas"] = []
            for step, (added, removed) in enumerate(stream, start=1):
                path = os.path.join(out, f"x{index}.d{step:02d}.delta")
                write_delta(path, shape, added, removed)
                entry["deltas"].append(path)
            entry["final_digest"] = cells_digest(final)
        manifest["instances"].append(entry)
    return manifest


def main(argv: "list[str] | None" = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", type=int, required=True)
    parser.add_argument("--rank", type=int, required=True)
    parser.add_argument("--density", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--instances", type=int, required=True)
    parser.add_argument("--deltas", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    manifest = generate(
        args.out, (args.shape,) * 3, args.rank, args.density, args.seed,
        args.instances, args.deltas,
    )
    print(json.dumps(manifest))


if __name__ == "__main__":
    main()
