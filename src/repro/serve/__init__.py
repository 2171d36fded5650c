"""Query serving: the online side of build-once/query-many.

PRs 1–4 built the offline pipeline — construction engines, the
multiprocess backend, tracing, regression gates.  This subpackage serves
queries *after* construction, the Section-3 promise (O(k + log n) per
query) turned into a throughput story:

- :class:`~repro.serve.index.ServingIndex` — the frozen artifact:
  partition tree + k-neighborhood system + (lazily) the Section-3
  neighborhood query structure, answering ``knn`` and ``covering``
  batches bit-identically to the per-point paths; picklable
  (``save``/``load``) and shm-snapshotable for worker pools;
- :class:`~repro.serve.cache.ResultCache` — LRU result cache keyed on
  the exact query-point bytes;
- :class:`~repro.serve.batcher.Batcher` — the micro-batching request
  queue: collect up to ``max_batch`` (or ``max_wait_ms``), execute via
  the vectorized batch descent, fulfill per-request
  :class:`~repro.serve.batcher.Ticket` objects;
- :class:`~repro.serve.mp.ServingPool` — multiprocess serving over the
  :mod:`repro.parallel` pool + shared-memory arena.

Online updates hot-swap a serving stack to each new
:meth:`~repro.core.online.MutableIndex.snapshot` with zero downtime
(``Batcher.swap_index`` / ``ServingPool.swap``).

Entry points: :func:`repro.api.serve` builds the whole stack in one
call, and the ``repro serve`` CLI subcommand drives it over workload
files with latency/QPS reporting.  See ``docs/serving.md`` and
``docs/online_index.md``.
"""

from .batcher import Batcher, ServeStats, Ticket
from .cache import ResultCache
from .index import KINDS, ServingIndex
from .mp import ServingPool

__all__ = [
    "Batcher",
    "KINDS",
    "ResultCache",
    "ServeStats",
    "ServingIndex",
    "ServingPool",
    "Ticket",
]
