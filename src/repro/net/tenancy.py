"""Multi-index tenancy: named serving stacks behind one front-end.

One server process can serve many indexes — a staging index next to a
production one, per-dataset indexes, A/B versions.  A :class:`Tenant`
bundles everything one named index needs to serve and mutate:

- the :class:`~repro.core.online.MutableIndex` (the write side),
- a per-tenant :class:`~repro.serve.cache.ResultCache` and
  :class:`~repro.serve.batcher.Batcher` (the read side), optionally
  fanning batches across a :class:`~repro.serve.mp.ServingPool`,
- a per-tenant :class:`~repro.pvm.machine.Machine` whose metrics
  registry carries the ``serve.*`` stats (per-tenant registries keep the
  fixed ``serve.`` namespace collision-free across tenants).

Mutations and swaps are *serialized per tenant* by construction: the
server runs them on its event loop, and :meth:`Tenant.mutate` flushes
the batcher against the old version before rebinding — a request
admitted under version ``v`` is answered by version ``v``, never a torn
read (the same contract as :meth:`~repro.serve.batcher.Batcher.
swap_index`, which this calls).  A tenant holds only the version it
serves: a caller that wants to pin an older one keeps the
:class:`~repro.serve.index.ServingIndex` that
:meth:`~repro.core.online.MutableIndex.snapshot` returned (snapshots are
copy-on-write, so they stay valid).

The module is deliberately HTTP-free — errors are ``KeyError`` /
``ValueError`` and the server layer maps them to statuses — so tenants
are usable directly from tests and the load generator's self-serve mode.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.online import CommitInfo, MutableIndex
from ..obs.metrics import Metrics
from ..pvm.machine import Machine
from ..serve.batcher import Batcher
from ..serve.cache import ResultCache
from ..serve.mp import ServingPool
from .config import NetConfig

__all__ = ["Tenant", "TenantManager", "DEFAULT_TENANT"]

#: The tenant served when a request names none.
DEFAULT_TENANT = "default"


class Tenant:
    """One named index with its full serving stack.

    Parameters
    ----------
    name:
        The tenant's name (the ``index`` field of request payloads).
    index:
        The mutable index this tenant serves and mutates.
    config:
        The front-end config supplying batching/cache/pool knobs.
    machine:
        The tenant's machine; a fresh one by default.  Its metrics
        registry receives the tenant's ``serve.*`` stats.
    """

    def __init__(
        self,
        name: str,
        index: MutableIndex,
        *,
        config: Optional[NetConfig] = None,
        machine: Optional[Machine] = None,
    ) -> None:
        cfg = config if config is not None else NetConfig()
        self.name = name
        self.index = index
        self.machine = machine if machine is not None else Machine()
        snapshot = index.snapshot()
        self.cache = ResultCache(cfg.cache_size) if cfg.cache_size > 0 else None
        pool = (
            ServingPool(snapshot, cfg.serve_workers, machine=self.machine)
            if cfg.serve_workers is not None
            else None
        )
        # max_wait_ms stays None: the server's flusher owns the window
        # (fixed or adaptive) and calls flush() itself
        self.batcher = Batcher(
            snapshot,
            kind="knn",
            k=index.k,
            max_batch=cfg.max_batch,
            max_wait_ms=None,
            cache=self.cache,
            machine=self.machine,
            pool=pool,
        )
        self._closed = False

    # -- read path ---------------------------------------------------------

    @property
    def version(self) -> int:
        """The index version currently being served."""
        return self.batcher.index.version

    @property
    def d(self) -> int:
        return self.batcher.index.d

    @property
    def k(self) -> int:
        return self.batcher.k

    def execute_direct(
        self, kind: str, queries: np.ndarray, k: Optional[int]
    ) -> List[Any]:
        """Answer a batch outside the micro-batcher, as per-request values.

        The bypass path for requests the shared batcher cannot carry —
        a ``k`` override or a ``covering`` kind — still served by the
        tenant's executor (the pool when one exists), against the same
        snapshot the batcher is bound to.  Per-row answers are
        batch-independent, so this is bit-identical to what a dedicated
        batcher with these parameters would return.
        """
        index = self.batcher.index
        kk = index.resolve_k(k) if kind == "knn" else index.k
        response = self.batcher.executor(kind, queries, kk)
        return index.split_response(kind, response, queries.shape[0])

    # -- write path --------------------------------------------------------

    def mutate(
        self,
        inserts: Optional[np.ndarray] = None,
        deletes: Optional[Sequence[int]] = None,
        *,
        commit: bool = False,
    ) -> Tuple[Optional[CommitInfo], int]:
        """Buffer mutations and optionally commit + hot-swap serving.

        Returns ``(commit_info, flushed)`` where ``commit_info`` is
        ``None`` without ``commit=True`` and ``flushed`` counts the
        pending requests answered by the *old* version before the swap.
        On commit the batcher swaps to the new snapshot — zero downtime,
        and the version-keyed cache makes stale hits impossible.

        One call is all-or-nothing: when any step raises ``ValueError``
        (a bad id, a commit that would leave ``n <= k``), the index's
        pending buffers are restored to their state before the call, so
        a rejected request never leaks into a later commit.
        """
        if self._closed:
            raise RuntimeError(f"tenant {self.name!r} is closed")
        index = self.index
        pending = (list(index._pending_inserts), set(index._pending_deletes))
        try:
            if inserts is not None and len(inserts):
                index.insert(inserts)
            if deletes is not None and len(deletes):
                index.delete(deletes)
            info = index.commit() if commit else None
        except ValueError:
            index._pending_inserts, index._pending_deletes = pending
            raise
        if info is None or info.noop:
            return info, 0
        return info, self.batcher.swap_index(index.snapshot())

    # -- lifecycle ---------------------------------------------------------

    def close(self, *, flush: bool = True) -> None:
        """Shut the tenant's serving stack down (pool included)."""
        if self._closed:
            return
        self._closed = True
        self.batcher.close(flush=flush)

    def describe(self) -> Dict[str, Any]:
        """JSON-ready tenant summary (the ``/healthz`` payload rows)."""
        ins, dels = self.index.pending
        return {
            "name": self.name,
            "n": int(self.index.n),
            "d": int(self.d),
            "k": int(self.k),
            "version": int(self.version),
            "pending_mutations": int(ins + dels),
            "queue_depth": int(self.batcher.pending),
        }


class TenantManager:
    """The named-tenant map the server routes requests through."""

    def __init__(self, *, config: Optional[NetConfig] = None) -> None:
        self.config = config if config is not None else NetConfig()
        self._tenants: "Dict[str, Tenant]" = {}

    def __len__(self) -> int:
        return len(self._tenants)

    def __contains__(self, name: str) -> bool:
        return name in self._tenants

    def names(self) -> List[str]:
        return sorted(self._tenants)

    def add(
        self,
        name: str,
        index: MutableIndex,
        *,
        machine: Optional[Machine] = None,
    ) -> Tenant:
        """Create and register a tenant serving ``index`` under ``name``."""
        if name in self._tenants:
            raise ValueError(f"tenant {name!r} already exists")
        if not name or "/" in name:
            raise ValueError(f"invalid tenant name {name!r}")
        tenant = Tenant(name, index, config=self.config, machine=machine)
        self._tenants[name] = tenant
        return tenant

    def get(self, name: Optional[str] = None) -> Tenant:
        """The tenant for ``name`` (default tenant when ``None``).

        Raises ``KeyError`` for unknown names — the server maps it to
        HTTP 404.
        """
        key = name if name is not None else DEFAULT_TENANT
        try:
            return self._tenants[key]
        except KeyError:
            raise KeyError(
                f"unknown index {key!r} (have {self.names()})"
            ) from None

    def tenants(self) -> Iterable[Tenant]:
        return self._tenants.values()

    def collect_metrics(self, server_metrics: Optional[Metrics] = None) -> Metrics:
        """One merged registry for ``/metrics``.

        The server's ``net.*`` entries merge in as-is; the default
        tenant's ``serve.*`` entries stay unprefixed (the single-tenant
        exposition matches ``repro.api.serve``'s exactly) and every other
        tenant's keys gain a ``tenant.<name>.`` prefix, keeping the fixed
        ``serve.`` namespace collision-free across tenants.
        """
        merged = Metrics()
        if server_metrics is not None:
            merged.merge(server_metrics)
        for name in self.names():
            tenant = self._tenants[name]
            src = tenant.machine.metrics
            prefix = "" if name == DEFAULT_TENANT else f"tenant.{name}."
            for key, value in src.counters.items():
                merged.inc(prefix + key, value)
            for key, value in src.gauges.items():
                merged.set_gauge(prefix + key, value)
            for key, values in src.series.items():
                merged.samples(prefix + key).extend(values)
            for key, hist in src.histograms.items():
                merged.histogram(prefix + key, hist.bounds).merge(hist)
        return merged

    def close_all(self, *, flush: bool = True) -> None:
        """Close every tenant (flushing by default); idempotent."""
        for tenant in self._tenants.values():
            tenant.close(flush=flush)
