"""LRU result cache for the serving layer.

Serving workloads repeat themselves: the same hot query points arrive
again and again, and the answers — exact k-NN lists or covering-ball
sets over a *frozen* index version — never change.  :class:`ResultCache`
stores per-point responses keyed on the query point's bytes (plus the
request kind, ``k``, and the serving index's commit version), evicting
least-recently-used entries past ``capacity``.  The version component
makes hot swaps safe: after :meth:`~repro.serve.batcher.Batcher.
swap_index` the old version's entries can no longer match and simply
age out.

Keys are exact: two points share an entry only when their float64
representations are bit-equal, so a cache hit returns the exact arrays
a fresh execution would — serving stays bit-identical whatever the
cache state.

The :class:`~repro.serve.batcher.Batcher` counts every lookup once, as
its ``serve.cache_hits`` / ``serve.cache_misses`` metrics.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional

import numpy as np

__all__ = ["ResultCache"]


class ResultCache:
    """Bounded LRU map from (kind, k, query point) to a stored response.

    Parameters
    ----------
    capacity:
        Maximum number of entries; ``0`` disables storage (every lookup
        misses, which keeps the calling code uniform).
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[bytes, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def make_key(
        self, kind: str, k: Optional[int], point: np.ndarray, version: int = 0
    ) -> bytes:
        """The cache key for one request: kind + k + index version +
        point bytes.

        ``version`` is the serving index's
        :attr:`~repro.serve.index.ServingIndex.version`.  Baking it into
        the key means entries computed against one committed index
        version can never answer a query after a hot swap — stale
        answers age out of the LRU instead of being served.
        """
        p = np.ascontiguousarray(point, dtype=np.float64)
        return f"{kind}:{k}:v{version}:".encode() + p.tobytes()

    def get(self, key: bytes) -> Any:
        """The stored response for ``key`` (marking it recently used), or
        ``None`` on a miss."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: bytes, value: Any) -> None:
        """Store ``value`` (treated as immutable) under ``key``, evicting
        the least-recently-used entry when past capacity."""
        if self.capacity == 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()

    def evict_stale(self, version: int) -> int:
        """Drop entries keyed to any index version other than ``version``;
        returns how many were evicted.

        Called by :meth:`~repro.serve.batcher.Batcher.swap_index` after a
        hot swap: version-keyed entries for older versions can never
        match again, so evicting them immediately keeps the cache's
        footprint bounded by *live* entries across arbitrarily many
        swaps instead of letting dead keys squat in the LRU.
        """
        tag = f"v{int(version)}".encode()
        stale = [key for key in self._entries if key.split(b":", 3)[2] != tag]
        for key in stale:
            del self._entries[key]
        return len(stale)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultCache(size={len(self)}/{self.capacity})"
