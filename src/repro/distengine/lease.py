"""Job-scoped runtime leases over one shared worker pool.

A long-lived service runs many decomposition jobs concurrently, but a
:class:`~repro.distengine.runtime.SimulatedRuntime` carries per-run
measurement state — the shuffle ledger, stage reports, persist caches,
broadcast store, metrics registry, trace buffers.  Sharing one runtime
across jobs would bleed one tenant's bytes and counters into another's;
giving every job its own worker pool would pay pool startup per job and
oversubscribe the host.

:class:`RuntimeFactory` splits the two lifetimes: it owns exactly one
stage-executor backend (the expensive, shared part) and hands out
:class:`RuntimeLease`\\ s, each wrapping a *fresh* ``SimulatedRuntime`` that
executes through the shared backend but owns every piece of measurement
state privately.  Closing a lease releases the job's state — persist
caches evicted, broadcast spill files removed, and the job's blocks and
broadcast values dropped from the workers — while the pool stays warm for
the next job.  Closing the factory tears down the pool (and any lease
leaked by a crashed job, so spill directories can never outlive the
service).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .backends import make_backend
from .cluster import DEFAULT_CLUSTER, ClusterConfig
from .runtime import SimulatedRuntime

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..observability import MetricsRegistry, Tracer
    from ..resilience import RetryPolicy
    from .backends import Backend
    from .faults import FaultInjector

__all__ = ["RuntimeFactory", "RuntimeLease"]


class RuntimeLease:
    """One job's private runtime view over a shared backend.

    Usable as a context manager; :meth:`close` releases the runtime's
    job-scoped state (persist caches, broadcast spill files, counters)
    without touching the shared worker pool.  Closing twice is a no-op.
    """

    def __init__(self, factory: "RuntimeFactory", runtime: SimulatedRuntime):
        self._factory = factory
        self.runtime = runtime
        self.closed = False

    def __enter__(self) -> SimulatedRuntime:
        return self.runtime

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        # The runtime was built with owns_backend=False, so this evicts
        # caches and removes spill files but leaves the pool running.
        self.runtime.close()
        self._factory._release(self)

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"RuntimeLease({state}, backend={type(self.runtime.backend).__name__})"


class RuntimeFactory:
    """Owns one shared backend; leases isolated runtimes to jobs.

    Every lease's runtime gets its own ledger, stage reports, metrics
    registry, tracer, plan state, and broadcast store — only the worker
    pool is shared, which is exactly the state whose startup cost and host
    footprint must be paid once per service, not once per job.
    """

    def __init__(self, config: ClusterConfig = DEFAULT_CLUSTER):
        self.config = config
        self.backend: "Backend" = make_backend(config.backend, config.n_workers)
        self._open: list[RuntimeLease] = []
        self.closed = False

    def lease(
        self,
        config: "ClusterConfig | None" = None,
        fault_injector: "FaultInjector | None" = None,
        tracer: "Tracer | None" = None,
        metrics: "MetricsRegistry | None" = None,
        retry_policy: "RetryPolicy | None" = None,
    ) -> RuntimeLease:
        """A fresh isolated runtime executing through the shared pool.

        ``config`` may override the cluster *model* per job (machine count,
        fusion mode, tracing) but never the backend — the worker pool is
        the factory's.  A job-scoped config naming a different backend is a
        caller bug and refused loudly rather than silently ignored.
        """
        if self.closed:
            raise RuntimeError("RuntimeFactory is closed")
        job_config = config if config is not None else self.config
        if job_config.backend != self.config.backend:
            raise ValueError(
                f"lease config names backend {job_config.backend!r} but the "
                f"shared pool is {self.config.backend!r}; per-job configs "
                f"may not switch backends"
            )
        runtime = SimulatedRuntime(
            job_config,
            fault_injector=fault_injector,
            backend=self.backend,
            tracer=tracer,
            metrics=metrics,
            retry_policy=retry_policy,
            owns_backend=False,
        )
        lease = RuntimeLease(self, runtime)
        self._open.append(lease)
        return lease

    def _release(self, lease: RuntimeLease) -> None:
        if lease in self._open:
            self._open.remove(lease)

    @property
    def open_leases(self) -> int:
        """Number of leases handed out and not yet closed (leak audit)."""
        return len(self._open)

    def close(self) -> None:
        """Close any leaked leases, then shut down the shared pool."""
        if self.closed:
            return
        for lease in list(self._open):
            lease.close()
        self.closed = True
        self.backend.close()

    def __enter__(self) -> "RuntimeFactory":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"RuntimeFactory(backend={self.config.backend!r}, "
            f"open_leases={self.open_leases}, closed={self.closed})"
        )
