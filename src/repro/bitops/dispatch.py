"""Kernel-dispatch tier: registry, shape-classes, autotuner, persistent cache.

Every Boolean kernel in :mod:`repro.bitops` (the Boolean matrix product,
the Khatri-Rao product, the pointwise vector-matrix product, and the
``xor_popcount`` family) has a per-row reference loop plus the vectorized
paths that win some shape class.  This module decides, per call shape,
which one runs:

* **Registry.**  :func:`register_kernel` / :func:`register_impl` record
  each implementation with its eligibility constraints (e.g. the byte-view
  table gather needs a little-endian host).  The registry is what the
  differential correctness harness (``tests/test_bitops_differential.py``)
  iterates over, so every implementation pair is pinned bit-identical —
  dispatch can change *speed*, never *results*.

* **Tiers.**  The dispatcher runs in one of three modes, selected via
  :func:`configure`, ``ClusterConfig(kernel_tier=...)``, the CLI
  ``--kernel-tier`` flag, or the ``REPRO_KERNEL_TIER`` environment
  variable:

  - ``"fixed"`` (default): per-kernel heuristics with *configurable*
    thresholds — the autotune cache's ``thresholds`` section replaces the
    previously hard-coded ``_BATCH_MIN_ROWS`` constant (which survives
    only as the default when no cache is present);
  - ``"auto"``: per-(kernel, shape-class) winners measured once per
    machine and persisted to the cache; an unseen shape-class is measured
    on first call (every eligible implementation is timed on the live
    operands) and the winner is recorded;
  - ``"reference"``: always the reference (loop-form) implementation;
  - any registered implementation name (``"rowloop"``, ``"batched"``,
    ``"bulk"``, ...): force that implementation where the kernel
    registers it (and it is eligible), heuristics elsewhere.  A name in
    :data:`RETIRED_IMPLS` is accepted the same way and, since no kernel
    registers it any more, means the fixed tier everywhere.

* **Shape classes.**  Calls are bucketed by the bit length of each
  dimension (``0, 1, 2, 3-4, 5-8, ...``), so one measurement covers a
  whole band of nearby shapes and the cache stays small.

* **Persistent cache.**  :class:`AutotuneCache` stores winners and derived
  thresholds as JSON under a configurable path (``REPRO_AUTOTUNE_CACHE``
  or :func:`configure`).  Writes reuse the atomic temp-file +
  ``os.replace`` pattern of :mod:`repro.resilience.checkpoint`, so
  concurrent writers can race but never torn-write.  A missing, corrupt,
  stale-version, or other-machine cache silently falls back to defaults —
  the cache is an accelerator, never a correctness dependency.  A cached
  winner naming a retired implementation resolves to the fixed-tier
  choice.

Dispatch decisions are observable: the kernel wrappers in
:mod:`repro.bitops.ops` attach the winning implementation as the
``impl=`` attribute of their ``kernel_span`` and increment the
``kernel_dispatch_total{kernel, impl, tier}`` counter inside traced tasks.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

import numpy as np

__all__ = [
    "TIER_FIXED",
    "TIER_AUTO",
    "TIER_REFERENCE",
    "TIERS",
    "RETIRED_IMPLS",
    "ENV_TIER",
    "ENV_CACHE",
    "ImplSpec",
    "Kernel",
    "AutotuneCache",
    "KernelDispatcher",
    "machine_fingerprint",
    "shape_class",
    "register_kernel",
    "register_impl",
    "register_default_threshold",
    "kernel",
    "kernel_names",
    "get_dispatcher",
    "configure",
    "reset_dispatcher",
]

TIER_FIXED = "fixed"
TIER_AUTO = "auto"
TIER_REFERENCE = "reference"
TIERS = (TIER_FIXED, TIER_AUTO, TIER_REFERENCE)

#: Implementations deleted because they won no shape class.  Forced tiers
#: and autotune-cache entries written before the deletion may still name
#: them; both resolve to the fixed-tier choice instead of failing.
RETIRED_IMPLS = frozenset({"bytelut", "dense", "numba"})

ENV_TIER = "REPRO_KERNEL_TIER"
ENV_CACHE = "REPRO_AUTOTUNE_CACHE"

#: Default file name when the configured cache path is a directory.
CACHE_FILENAME = "kernels.json"

_AUTOTUNE_REPEATS = 3


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ImplSpec:
    """One registered implementation of one kernel."""

    kernel: str
    name: str
    fn: Callable
    #: The byte-view implementations only line bits up on little-endian
    #: hosts; eligibility is re-checked at every resolve so tests can
    #: monkeypatch ``sys.byteorder``.
    needs_little_endian: bool = False
    #: The loop-form reference the differential harness pins everything
    #: against; also the fallback when nothing else is eligible.
    reference: bool = False

    def eligible(self) -> bool:
        """Whether this implementation may run on this host right now."""
        return not (self.needs_little_endian and sys.byteorder != "little")


class Kernel:
    """A dispatchable kernel: named implementations plus dispatch policy."""

    def __init__(
        self,
        name: str,
        heuristic: "Callable[[tuple, Mapping[str, int]], str] | None" = None,
        make_args: "Callable[[tuple, np.random.Generator], tuple] | None" = None,
        autotune_grid: Iterable[tuple] = (),
        threshold_rule: "Callable[[dict], dict] | None" = None,
    ):
        self.name = name
        #: ``heuristic(shape, thresholds) -> impl name`` for the fixed
        #: tier; ``None`` means "always the default implementation".
        self.heuristic = heuristic
        #: Builds representative operands for one grid shape (autotuning).
        self.make_args = make_args
        self.autotune_grid = tuple(autotune_grid)
        #: Derives fixed-tier thresholds from ``{shape: winner}`` results.
        self.threshold_rule = threshold_rule
        self.impls: dict[str, ImplSpec] = {}
        self.reference_name: str | None = None
        self.default_name: str | None = None

    @property
    def reference(self) -> ImplSpec:
        if self.reference_name is None:
            raise LookupError(f"kernel {self.name!r} has no reference impl")
        return self.impls[self.reference_name]

    def eligible_impls(self) -> list[ImplSpec]:
        """Implementations allowed on this host, registration order."""
        return [spec for spec in self.impls.values() if spec.eligible()]


_REGISTRY: dict[str, Kernel] = {}
_DEFAULT_THRESHOLDS: dict[str, int] = {}
_LOCK = threading.RLock()


def register_kernel(
    name: str,
    heuristic: "Callable[[tuple, Mapping[str, int]], str] | None" = None,
    make_args: "Callable[[tuple, np.random.Generator], tuple] | None" = None,
    autotune_grid: Iterable[tuple] = (),
    threshold_rule: "Callable[[dict], dict] | None" = None,
) -> Kernel:
    """Create (or re-create) a kernel entry in the global registry."""
    entry = Kernel(name, heuristic, make_args, autotune_grid, threshold_rule)
    with _LOCK:
        _REGISTRY[name] = entry
    return entry


def register_impl(
    kernel_name: str,
    impl_name: str,
    fn: Callable,
    *,
    needs_little_endian: bool = False,
    reference: bool = False,
    default: bool = False,
) -> ImplSpec:
    """Attach one implementation to a registered kernel."""
    spec = ImplSpec(kernel_name, impl_name, fn, needs_little_endian, reference)
    with _LOCK:
        entry = _REGISTRY[kernel_name]
        entry.impls[impl_name] = spec
        if reference:
            entry.reference_name = impl_name
        if default:
            entry.default_name = impl_name
    return spec


def register_default_threshold(name: str, value: int) -> None:
    """Record a fixed-tier threshold default (cache values override it)."""
    with _LOCK:
        _DEFAULT_THRESHOLDS[name] = int(value)


def kernel(name: str) -> Kernel:
    """Look up one registered kernel (raises ``KeyError`` when unknown)."""
    return _REGISTRY[name]


def kernel_names() -> list[str]:
    """All registered kernel names, registration order."""
    return list(_REGISTRY)


def _impl_names() -> set[str]:
    names: set[str] = set()
    for entry in _REGISTRY.values():
        names.update(entry.impls)
    return names


# ----------------------------------------------------------------------
# Shape classes & machine identity
# ----------------------------------------------------------------------
def shape_class(shape: Iterable[int]) -> str:
    """Bucket a call shape by per-dimension bit length (``33 -> 6``).

    Nearby shapes share a class, so one autotune measurement covers the
    band ``(2**(b-1), 2**b]`` of each dimension.
    """
    return ":".join(str(int(dim).bit_length()) for dim in shape)


def machine_fingerprint() -> str:
    """Identity of the measuring host; cached winners never cross hosts.

    Deliberately coarse (architecture + interpreter + numpy + CPU count):
    enough that a cache file copied to different hardware is ignored
    rather than trusted.
    """
    import platform

    return "|".join(
        (
            platform.machine() or "unknown",
            platform.python_implementation(),
            ".".join(platform.python_version_tuple()[:2]),
            np.__version__,
            str(os.cpu_count() or 0),
        )
    )


# ----------------------------------------------------------------------
# Persistent autotune cache
# ----------------------------------------------------------------------
class AutotuneCache:
    """Atomic JSON persistence for autotune winners and thresholds.

    File schema (``version`` 1)::

        {"version": 1, "machine": "<fingerprint>",
         "entries": {"<kernel>/<shape-class>": {"impl": str,
                                                "timings": {name: sec}}},
         "thresholds": {"<kernel>.<knob>": int}}

    Loading never raises: a missing, unparsable, stale-version, or
    other-machine file yields an empty cache (defaults win).  Saving
    re-reads the file and merges before the atomic replace, so concurrent
    writers lose at most their race, never the file's integrity.
    """

    VERSION = 1

    def __init__(self, path: "str | os.PathLike"):
        raw = str(path)
        if raw.endswith(".json"):
            self.path = raw
        else:
            self.path = os.path.join(raw, CACHE_FILENAME)
        self._lock = threading.Lock()
        self.entries: dict[str, dict[str, Any]] = {}
        self.thresholds: dict[str, int] = {}
        self._load_into_self()

    # -- reading -------------------------------------------------------
    def _read_document(self) -> dict[str, Any]:
        """Best-effort read of the on-disk document; empty on any defect."""
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            return {}
        if not isinstance(document, dict):
            return {}
        if document.get("version") != self.VERSION:
            return {}
        if document.get("machine") != machine_fingerprint():
            return {}
        entries = document.get("entries")
        thresholds = document.get("thresholds")
        return {
            "entries": entries if isinstance(entries, dict) else {},
            "thresholds": thresholds if isinstance(thresholds, dict) else {},
        }

    def _load_into_self(self) -> None:
        document = self._read_document()
        self.entries = dict(document.get("entries", {}))
        self.thresholds = {
            key: int(value)
            for key, value in document.get("thresholds", {}).items()
            if isinstance(value, (int, float))
        }

    def winner(self, key: str) -> "str | None":
        """The cached winning implementation for one dispatch key."""
        entry = self.entries.get(key)
        if isinstance(entry, dict):
            impl = entry.get("impl")
            if isinstance(impl, str):
                return impl
        return None

    # -- writing -------------------------------------------------------
    def record(self, key: str, impl: str, timings: Mapping[str, float]) -> None:
        with self._lock:
            self.entries[key] = {
                "impl": impl,
                "timings": {name: float(sec) for name, sec in timings.items()},
            }

    def update_thresholds(self, thresholds: Mapping[str, int]) -> None:
        with self._lock:
            for name, value in thresholds.items():
                self.thresholds[name] = int(value)

    def save(self) -> str:
        """Merge with the on-disk state and atomically replace the file."""
        with self._lock:
            on_disk = self._read_document()
            entries = dict(on_disk.get("entries", {}))
            entries.update(self.entries)
            thresholds = dict(on_disk.get("thresholds", {}))
            thresholds.update(self.thresholds)
            document = {
                "version": self.VERSION,
                "machine": machine_fingerprint(),
                "entries": entries,
                "thresholds": thresholds,
            }
            directory = os.path.dirname(self.path) or "."
            os.makedirs(directory, exist_ok=True)
            # Atomic temp + rename (the checkpoint.py pattern): a crash or
            # a concurrent writer can never leave a half-written cache.
            fd, temp_path = tempfile.mkstemp(
                dir=directory, prefix=".autotune-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(document, handle, indent=1, sort_keys=True)
                    handle.write("\n")
                os.replace(temp_path, self.path)
            except BaseException:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise
        return self.path


# ----------------------------------------------------------------------
# Dispatcher
# ----------------------------------------------------------------------
class KernelDispatcher:
    """Resolves ``(kernel, call shape) -> implementation`` under one tier."""

    def __init__(
        self,
        tier: str = TIER_FIXED,
        cache_path: "str | os.PathLike | None" = None,
        autotune_repeats: int = _AUTOTUNE_REPEATS,
    ):
        if tier not in TIERS and tier not in _impl_names() | RETIRED_IMPLS:
            raise ValueError(
                f"unknown kernel tier {tier!r}; expected one of {TIERS} "
                f"or an implementation name {sorted(_impl_names())}"
            )
        if autotune_repeats < 1:
            raise ValueError(f"autotune_repeats must be >= 1, got {autotune_repeats}")
        self.tier = tier
        self.autotune_repeats = autotune_repeats
        self.cache = AutotuneCache(cache_path) if cache_path is not None else None
        self._lock = threading.RLock()

    # -- thresholds ----------------------------------------------------
    def thresholds(self) -> dict[str, int]:
        """Fixed-tier thresholds: registered defaults overlaid by cache."""
        merged = dict(_DEFAULT_THRESHOLDS)
        if self.cache is not None:
            merged.update(self.cache.thresholds)
        return merged

    # -- resolution ----------------------------------------------------
    def resolve(
        self, kernel_name: str, shape: tuple, args: "tuple | None" = None
    ) -> ImplSpec:
        """The implementation to run for one call.

        ``shape`` is the kernel's dispatch shape (a tuple of ints);
        ``args`` are the live operands, used only by the auto tier to
        measure an unseen shape-class.
        """
        entry = _REGISTRY[kernel_name]
        tier = self.tier
        if tier not in TIERS:
            forced = entry.impls.get(tier)
            if forced is not None and forced.eligible():
                return forced
            tier = TIER_FIXED
        if tier == TIER_REFERENCE:
            return entry.reference
        if tier == TIER_AUTO:
            key = f"{kernel_name}/{shape_class(shape)}"
            winner = self.cache.winner(key) if self.cache is not None else None
            if winner is not None:
                spec = entry.impls.get(winner)
                if spec is not None and spec.eligible():
                    return spec
                if winner in RETIRED_IMPLS:
                    return self._fixed(entry, shape)
            if args is not None:
                return self._autotune_call(entry, key, args)
        return self._fixed(entry, shape)

    def choose(self, kernel_name: str, shape: tuple) -> str:
        """Implementation *name* for a shape (no measuring, no running)."""
        return self.resolve(kernel_name, shape).name

    def _fixed(self, entry: Kernel, shape: tuple) -> ImplSpec:
        name = None
        if entry.heuristic is not None:
            name = entry.heuristic(tuple(shape), self.thresholds())
        elif entry.default_name is not None:
            name = entry.default_name
        spec = entry.impls.get(name) if name is not None else None
        if spec is None or not spec.eligible():
            return entry.reference
        return spec

    # -- measurement ---------------------------------------------------
    def _measure(
        self, entry: Kernel, args: tuple, repeats: "int | None" = None
    ) -> tuple[ImplSpec, dict[str, float]]:
        """Time every eligible implementation on ``args``; pick the best.

        Ties break on implementation name so the winner is deterministic
        even when two paths measure identically.
        """
        repeats = repeats if repeats is not None else self.autotune_repeats
        timings: dict[str, float] = {}
        for spec in entry.eligible_impls():
            best = float("inf")
            for _ in range(repeats):
                started = time.perf_counter()
                spec.fn(*args)
                best = min(best, time.perf_counter() - started)
            timings[spec.name] = best
        if not timings:
            return entry.reference, {}
        winner = min(timings, key=lambda name: (timings[name], name))
        return entry.impls[winner], timings

    def _autotune_call(self, entry: Kernel, key: str, args: tuple) -> ImplSpec:
        with self._lock:
            # Another thread may have measured this class while we waited.
            if self.cache is not None:
                cached = self.cache.winner(key)
                if cached is not None:
                    spec = entry.impls.get(cached)
                    if spec is not None and spec.eligible():
                        return spec
            spec, timings = self._measure(entry, args)
            if self.cache is not None and timings:
                self.cache.record(key, spec.name, timings)
                self.cache.save()
            return spec

    def autotune(
        self,
        grid: "Mapping[str, Iterable[tuple]] | None" = None,
        repeats: "int | None" = None,
        seed: int = 0,
    ) -> dict[str, dict[tuple, str]]:
        """Measure every kernel over a shape grid and persist the winners.

        ``grid`` maps kernel names to shape tuples; kernels absent from it
        fall back to their registered ``autotune_grid``.  Kernels with a
        :attr:`Kernel.threshold_rule` also contribute derived fixed-tier
        thresholds (this is what retires the hard-coded batch-size
        constants).  Returns ``{kernel: {shape: winner}}``.
        """
        results: dict[str, dict[tuple, str]] = {}
        for entry in _REGISTRY.values():
            shapes = None
            if grid is not None and entry.name in grid:
                shapes = tuple(grid[entry.name])
            elif entry.autotune_grid:
                shapes = entry.autotune_grid
            if not shapes or entry.make_args is None:
                continue
            winners: dict[tuple, str] = {}
            for shape in shapes:
                rng = np.random.default_rng(seed)
                args = entry.make_args(tuple(shape), rng)
                spec, timings = self._measure(entry, args, repeats)
                if self.cache is not None and timings:
                    self.cache.record(
                        f"{entry.name}/{shape_class(shape)}", spec.name, timings
                    )
                winners[tuple(shape)] = spec.name
            if entry.threshold_rule is not None and self.cache is not None:
                self.cache.update_thresholds(entry.threshold_rule(winners))
            results[entry.name] = winners
        if self.cache is not None:
            self.cache.save()
        return results


# ----------------------------------------------------------------------
# Process-global dispatcher
# ----------------------------------------------------------------------
_DISPATCHER: "KernelDispatcher | None" = None


def get_dispatcher() -> KernelDispatcher:
    """The process-wide dispatcher, built from the environment on demand.

    ``REPRO_KERNEL_TIER`` selects the tier and ``REPRO_AUTOTUNE_CACHE``
    the cache path, so spawned worker processes reconstruct the driver's
    dispatch configuration without any explicit hand-off.
    """
    global _DISPATCHER
    if _DISPATCHER is None:
        with _LOCK:
            if _DISPATCHER is None:
                _DISPATCHER = KernelDispatcher(
                    tier=os.environ.get(ENV_TIER, TIER_FIXED),
                    cache_path=os.environ.get(ENV_CACHE) or None,
                )
    return _DISPATCHER


def configure(
    tier: "str | None" = None,
    cache_path: "str | os.PathLike | None" = None,
    autotune_repeats: "int | None" = None,
) -> KernelDispatcher:
    """(Re)build the process-wide dispatcher and export it to workers.

    ``None`` keeps the current (or environment-provided) value for that
    setting.  The chosen tier and cache path are also written to the
    process environment so process-pool workers — forked or spawned —
    dispatch identically to the driver.
    """
    global _DISPATCHER
    with _LOCK:
        current = _DISPATCHER
        resolved_tier = (
            tier
            if tier is not None
            else (current.tier if current else os.environ.get(ENV_TIER, TIER_FIXED))
        )
        resolved_cache = (
            str(cache_path)
            if cache_path is not None
            else (
                current.cache.path
                if current is not None and current.cache is not None
                else os.environ.get(ENV_CACHE) or None
            )
        )
        resolved_repeats = (
            autotune_repeats
            if autotune_repeats is not None
            else (current.autotune_repeats if current else _AUTOTUNE_REPEATS)
        )
        dispatcher = KernelDispatcher(
            tier=resolved_tier,
            cache_path=resolved_cache,
            autotune_repeats=resolved_repeats,
        )
        os.environ[ENV_TIER] = resolved_tier
        if resolved_cache is not None:
            os.environ[ENV_CACHE] = str(dispatcher.cache.path)
        else:
            os.environ.pop(ENV_CACHE, None)
        _DISPATCHER = dispatcher
    return dispatcher


def reset_dispatcher(clear_env: bool = False) -> None:
    """Drop the process-wide dispatcher (tests); optionally scrub the env."""
    global _DISPATCHER
    with _LOCK:
        _DISPATCHER = None
        if clear_env:
            os.environ.pop(ENV_TIER, None)
            os.environ.pop(ENV_CACHE, None)
