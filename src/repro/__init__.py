"""repro — Separator based parallel divide and conquer in computational geometry.

A production-grade reproduction of Frieze, Miller & Teng (SPAA 1992): the
O(log n)-depth, n-processor randomized algorithm for the k-nearest-neighbor
graph of n points in R^d, built on Miller–Teng–Thurston–Vavasis sphere
separators and executed on a simulated Blelloch scan-vector machine with a
(depth, work) cost ledger.

Public surface (see README for a tour):

- :mod:`repro.pvm` — the machine model (cost algebra, primitives, Brent
  scheduling);
- :mod:`repro.geometry` — points, spheres, ball systems, stereographic and
  conformal maps, Radon/centerpoints;
- :mod:`repro.separators` — the MTTV sphere separator, its unit-time retry
  loop, hyperplane baselines, quality measures;
- :mod:`repro.core` — the paper's algorithms: the neighborhood query
  structure (Sec. 3), the O(log^2 n) simple divide and conquer (Sec. 5),
  the O(log n) fast algorithm with punting (Sec. 6), the punting-lemma
  process simulators (Sec. 4);
- :mod:`repro.baselines` — brute force, kd-tree and grid all-kNN;
- :mod:`repro.workloads` — synthetic and adversarial point generators;
- :mod:`repro.analysis` — recurrences, probability bounds, scaling fits;
- :mod:`repro.kernels` — the numpy hot-path kernels, as plain functions,
  plus the contiguous :class:`~repro.kernels.FlatTree`, the array form of
  a partition tree that queries descend and march;
- :mod:`repro.obs` — tracing spans, metrics registry, trace exports;
- :mod:`repro.parallel` — the multiprocess frontier backend: shared-memory
  buffers, subtree planning, the worker pool (``engine="frontier-mp"``);
- :mod:`repro.serve` — the online side: the frozen
  :class:`~repro.serve.index.ServingIndex`, micro-batching
  :class:`~repro.serve.batcher.Batcher`, LRU result cache, the
  multiprocess serving pool (built in one call by
  :func:`repro.api.serve`), hot-swapped to each new index version;
- :mod:`repro.net` — the network front-end over the serving stack: a
  stdlib asyncio HTTP/1.1 JSON server with admission control,
  load-adaptive micro-batch windows, multi-index tenancy, graceful
  SIGTERM drain and an open-loop load generator (``docs/networking.md``;
  entry points :func:`repro.api.net_serve` and ``repro net``);
- :mod:`repro.api` — the stable facade: :func:`~repro.api.all_knn`,
  :func:`~repro.api.build_index` (returning the versioned, mutable
  :class:`~repro.api.Index` handle), :func:`~repro.api.run_traced`,
  :func:`~repro.api.serve`, :func:`~repro.api.net_serve` — all but
  ``serve``/``net_serve`` (which share names with subpackages)
  re-exported here at the package root.

Since 1.6.0 indices are *online*: ``build_index`` returns an
:class:`~repro.api.Index` whose ``insert``/``delete``/``commit`` absorb
point mutations into the existing partition tree, bit-identically to a
from-scratch build (``docs/online_index.md``).
"""

from . import (
    analysis,
    api,
    baselines,
    core,
    geometry,
    kernels,
    net,
    obs,
    parallel,
    pvm,
    separators,
    serve,
    util,
    workloads,
)
from .api import (
    DTYPES,
    ENGINES,
    METHODS,
    Batcher,
    CommitInfo,
    Index,
    KNNResult,
    ServingIndex,
    all_knn,
    build_index,
    knn_query,
    run_traced,
)

__version__ = "1.21.0"

__all__ = [
    "analysis",
    "api",
    "baselines",
    "core",
    "geometry",
    "kernels",
    "net",
    "obs",
    "parallel",
    "pvm",
    "separators",
    "serve",
    "util",
    "workloads",
    "Batcher",
    "CommitInfo",
    "Index",
    "KNNResult",
    "ServingIndex",
    "all_knn",
    "build_index",
    "knn_query",
    "run_traced",
    "METHODS",
    "ENGINES",
    "DTYPES",
    "__version__",
]

