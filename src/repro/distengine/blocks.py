"""Worker-resident partition blocks: persist caches that stay in the workers.

DBTF's premise (paper Sec. III) is that Spark executors keep cached RDD
partitions local across iterations, so after partitioning only factor
matrices move.  On backends whose workers do not share the driver's memory
(process pools, ``Backend.shares_driver_memory = False``) this module is
that executor-local cache:

* when a stage fills a persist cache — a fused tap or a persisted terminal
  node — each worker keeps its partition's output in a process-local
  store under ``(runtime token, plan node id, partition)`` and returns a
  small :class:`BlockRef` instead of the data (:class:`KeepBlocks`);
* the driver's ``node.cached`` holds one reference per partition, and a
  later stage ships the reference, which the worker resolves from its
  store (partition ``i`` always runs on the same worker, so the block is
  there);
* a block the worker no longer holds resolves to a typed :class:`BlockMiss`,
  which the driver turns into :class:`BlockMissingError` and answers by
  re-materializing the node from lineage.

Each reference carries the block's ``estimate_bytes`` measured in the
worker, so ``estimate_bytes`` of a list of references equals that of the
partitions themselves and the storage tier charges the same bytes on every
backend.  The store keys ride in the backend's batch envelope, never in
the metered task payload, so the TASK ledger is unchanged.
"""

from __future__ import annotations

from . import broadcast
from .shuffle import estimate_bytes

__all__ = [
    "BlockRef",
    "BlockMiss",
    "BlockMissingError",
    "KeepBlocks",
    "resolve",
    "fetch",
    "evict",
    "release_runtime",
    "clear_store",
]

#: Process-local block store: ``(token, node_id, partition) -> partition``.
_BLOCKS: dict[tuple, list] = {}


class BlockRef:
    """Driver-side stand-in for one partition kept in a worker.

    ``nbytes`` is ``estimate_bytes`` of the partition, measured where it
    lives; :func:`~repro.distengine.shuffle.estimate_bytes` reads it, so a
    cache of references is charged exactly like the partitions.
    """

    __slots__ = ("key", "nbytes")

    def __init__(self, key: tuple, nbytes: int):
        self.key = key
        self.nbytes = nbytes

    @property
    def node_id(self) -> int:
        return self.key[1]

    @property
    def partition(self) -> int:
        return self.key[2]

    def __repr__(self) -> str:
        return (
            f"BlockRef(node={self.node_id}, partition={self.partition}, "
            f"{self.nbytes} bytes)"
        )


class BlockMiss:
    """A task's report that its input block is not in the worker's store."""

    __slots__ = ("node_id",)

    def __init__(self, node_id: int):
        self.node_id = node_id


class BlockMissingError(LookupError):
    """A worker-resident block of plan node ``node_id`` is gone.

    Raised driver-side (never a bare ``KeyError``): the plan layer drops
    the node's cache and re-materializes it once from lineage.
    """

    def __init__(self, node_id: int):
        super().__init__(node_id)
        self.node_id = node_id

    def __str__(self) -> str:
        return f"worker-resident blocks of plan node #{self.node_id} are missing"


class KeepBlocks:
    """Batch-envelope instruction: keep a stage's persist outputs in the worker.

    ``tap_ids`` are the node ids of the fused chain's taps, in tap order;
    ``final_id`` is the terminal node's id when it is persisted.  ``fused``
    says the result has :class:`~repro.distengine.plan.FusedChainTask`'s
    ``[(final, captured)]`` shape; otherwise the whole result is the
    terminal's partition.
    """

    __slots__ = ("token", "tap_ids", "final_id", "fused")

    def __init__(self, token: str, tap_ids: tuple, final_id, fused: bool):
        self.token = token
        self.tap_ids = tap_ids
        self.final_id = final_id
        self.fused = fused

    def apply(self, index: int, result: list):
        """Store the persist outputs of partition ``index``; refs replace them."""
        if not self.fused:
            return self._put(self.final_id, index, result)
        ((final, captured),) = result
        captured = [
            (position, self._put(node_id, index, output))
            for (position, output), node_id in zip(captured, self.tap_ids)
        ]
        if self.final_id is not None:
            final = self._put(self.final_id, index, final)
        return [(final, captured)]

    def _put(self, node_id: int, index: int, partition: list) -> BlockRef:
        key = (self.token, node_id, index)
        _BLOCKS[key] = partition
        return BlockRef(key, estimate_bytes(partition))


def resolve(ref: BlockRef) -> "list | BlockMiss":
    """The partition behind ``ref`` in this worker, or a typed miss."""
    partition = _BLOCKS.get(ref.key)
    if partition is None:
        return BlockMiss(ref.node_id)
    return partition


def fetch(refs: list) -> list:
    """Worker side of a driver read: the partitions behind ``refs``."""
    return [resolve(ref) for ref in refs]


def evict(token: str, node_ids) -> None:
    """Drop the blocks of the given plan nodes of one runtime."""
    node_ids = set(node_ids)
    for key in [key for key in _BLOCKS if key[0] == token and key[1] in node_ids]:
        del _BLOCKS[key]


def release_runtime(token: str, content_ids) -> None:
    """Drop every block of one runtime and the broadcast values it shipped.

    Dropping a content id another live runtime also broadcast is safe:
    that runtime's handles reload the value from their own spill file.
    """
    for key in [key for key in _BLOCKS if key[0] == token]:
        del _BLOCKS[key]
    for content_id in content_ids:
        broadcast._STORE.pop(content_id, None)


def clear_store() -> None:
    """Drop every block in this process (a worker losing its state)."""
    _BLOCKS.clear()
