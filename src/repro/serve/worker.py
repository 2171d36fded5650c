"""Worker-process side of multiprocess serving.

Three kernels, dispatched through the same :class:`~repro.parallel.pool.
WorkerPool` protocol the frontier engine uses (registered in
:data:`repro.parallel.kernels.KERNELS` as ``serve_init`` /
``serve_shard`` / ``serve_stats``):

- :func:`serve_init` (broadcast once per pool) receives the master's
  :meth:`~repro.serve.index.ServingIndex.shm_snapshot` payload, attaches
  the shared arrays (points, flat tree, neighbor lists) zero-copy and
  reconstructs a worker-local :class:`~repro.serve.index.ServingIndex`
  over the views;
- :func:`serve_shard` answers one contiguous row range of a batch whose
  query array also travels by shared memory, folding its execute wall
  time into a worker-local latency histogram;
- :func:`serve_stats` (broadcast) returns that histogram *and resets
  it*, so the master can merge per-worker distributions into its own
  registry (``serve.pool_shard_ms``) without ever double-counting.

Ownership follows :mod:`repro.parallel.shm`: the master creates and
destroys every segment; workers only attach, and keep the handles alive
in module state for the lifetime of the run.  Per-row answers are
independent of batch composition (see :mod:`repro.serve.index`), so a
sharded execution concatenated in shard order is bit-identical to the
serial one for every worker count.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from ..core.neighborhood import KNeighborhoodSystem
from ..kernels.layout import FlatTree
from ..obs.metrics import Histogram
from ..parallel.shm import attach
from .index import ServingIndex

__all__ = ["serve_init", "serve_shard", "serve_stats"]

_INDEX: Optional[ServingIndex] = None
_HANDLES: List[Any] = []  # keep attached SharedMemory objects alive
_SHARD_MS = Histogram()  # per-shard execute wall, collected via serve_stats


def serve_init(payload: Dict[str, Any]) -> bool:
    """Install this worker's serving index from a master shm snapshot.

    Re-broadcast on every :meth:`~repro.serve.mp.ServingPool.swap`: the
    previous index's handles are closed before the new ones attach, so a
    long-lived worker never accumulates segments across versions.
    """
    global _INDEX
    _INDEX = None  # drop views into the old segments before closing them
    for shm in _HANDLES:
        shm.close()
    _HANDLES.clear()

    def view(spec):
        shm, arr = attach(spec)
        _HANDLES.append(shm)
        return arr

    points = view(payload["points_spec"])
    system = None
    if payload["system_specs"] is not None:
        idx_spec, sq_spec = payload["system_specs"]
        system = KNeighborhoodSystem(
            points, payload["system_k"], view(idx_spec), view(sq_spec)
        )
    layout = FlatTree(
        **{name: view(spec) for name, spec in payload["layout_specs"].items()}
    )
    _INDEX = ServingIndex(
        points,
        layout,
        payload["k"],
        system=system,
        structure=payload["structure"],
        structure_seed=payload["structure_seed"],
        version=payload["index_version"],
    )
    return True


def serve_shard(payload: Dict[str, Any]) -> Any:
    """Answer rows ``[lo, hi)`` of the shared query array.

    Returns the shard's :data:`~repro.serve.index.BatchResponse`;
    covering row indices are shard-local (the master offsets by ``lo``).
    The query segment is attached per call and closed before returning —
    the master destroys it as soon as the batch completes.
    """
    if _INDEX is None:
        raise RuntimeError("serve_shard before serve_init")
    shm, queries = attach(payload["queries_spec"])
    try:
        shard = queries[payload["lo"] : payload["hi"]].copy()
    finally:
        del queries
        shm.close()
    t0 = time.perf_counter()
    result = _INDEX.execute(payload["kind"], shard, payload["k"])
    _SHARD_MS.observe((time.perf_counter() - t0) * 1e3)
    return result


def serve_stats(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Return this worker's shard-latency histogram and reset it.

    Return-and-reset makes collection idempotent from the master's side:
    every observation is handed over exactly once, so merging the
    returned histograms into the master registry — however often the
    master asks — never double-counts a shard.
    """
    global _SHARD_MS
    out = _SHARD_MS.to_dict()
    _SHARD_MS = Histogram(_SHARD_MS.bounds)
    return out
