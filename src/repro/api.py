"""Stable top-level facade: the repository's algorithms behind one door.

The subpackages expose every building block of the reproduction; this
module exposes the three things most users actually want, with consistent
names and signatures that the ``scripts/check_api_stability.py`` lint
pins against ``docs/api_surface.txt``:

- :func:`all_knn` — the exact all-k-nearest-neighbors problem, by any
  method (``"fast"`` = Section 6 sphere-separator DnC, ``"simple"`` =
  Section 5 hyperplane DnC, ``"query"`` = build the fast partition tree
  then re-answer every point with :func:`~repro.core.query_points.knn_query`'s
  flat descent and march, ``"brute"`` = the all-pairs baseline),
  returning a uniform :class:`KNNResult`;
- :func:`build_index` — build once, query *and mutate* forever: a
  versioned :class:`Index` handle over
  :class:`~repro.core.online.MutableIndex` whose :meth:`Index.query`
  answers exact k-NN for *new* points, and whose
  :meth:`Index.insert` / :meth:`Index.delete` / :meth:`Index.commit`
  absorb point mutations into the existing partition tree (bit-identical
  to a from-scratch build — see ``docs/online_index.md``);
- :func:`run_traced` — :func:`all_knn` under the observability layer,
  returning ``(result, tracer)`` with the run's span tree;
- :func:`serve` — build once, *serve* forever: a micro-batching
  :class:`~repro.serve.batcher.Batcher` over a frozen
  :class:`~repro.serve.index.ServingIndex`, with optional LRU result
  caching and a multiprocess serving pool (see ``docs/serving.md``);
  :meth:`~repro.serve.batcher.Batcher.swap_index` hot-swaps it to a new
  :meth:`Index.snapshot` with zero downtime;
- :func:`net_serve` — the serving stack behind a socket: builds mutable
  indexes for one or more tenants and returns an unstarted
  :class:`~repro.net.server.NetServer` (asyncio HTTP front-end with
  admission control, adaptive batching and graceful drain — see
  ``docs/networking.md``).

:func:`all_knn`, :func:`~repro.core.query_points.knn_query` and
:func:`serve` remain thin wrappers over the same machinery the
:class:`Index` handle drives.

Everything here is re-exported from the package root, so the quickstart
is simply::

    import repro
    result = repro.all_knn(points, k=2, method="fast")
    index = repro.build_index(points, k=2)
    idx, sq = index.query(new_points)
    index.insert(more_points); index.delete([3]); index.commit()
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .baselines import brute_force_knn
from .core import (
    DTYPES,
    ENGINES,
    CommitInfo,
    FastDnCConfig,
    KNNResult,
    MutableIndex,
    SimpleDnCConfig,
    KNeighborhoodSystem,
    NeighborhoodQueryStructure,
    PartitionNode,
    knn_query,
    parallel_nearest_neighborhood,
    simple_parallel_dnc,
)
from .core.config import resolve_config
from .core.query_points import check_queries, knn_query_flat
from .geometry.points import as_points
from .obs import Tracer
from .pvm import Cost, Machine
from .serve import Batcher, ResultCache, ServingIndex, ServingPool

__all__ = [
    "KNNResult",
    "Index",
    "CommitInfo",
    "ServingIndex",
    "Batcher",
    "all_knn",
    "build_index",
    "knn_query",
    "net_serve",
    "run_traced",
    "serve",
    "METHODS",
    "ENGINES",
    "DTYPES",
]

METHODS = ("fast", "simple", "query", "brute")

ConfigLike = Union[FastDnCConfig, SimpleDnCConfig, None]


class Index:
    """The first-class index handle: versioned, queryable, *mutable*.

    Produced by :func:`build_index`.  Wraps a
    :class:`~repro.core.online.MutableIndex`: the partition tree and
    exact k-neighborhood system over the current point set, plus an
    update loop — :meth:`insert` / :meth:`delete` buffer mutations,
    :meth:`commit` absorbs them into the tree (rebuilding only touched
    subtrees, punting to a full rebuild past the churn threshold) and
    bumps :attr:`version`.  Every committed state is bit-identical to a
    from-scratch build of the same point set (see
    ``docs/online_index.md``), so queries between commits are exact by
    construction.

    ``query`` answers exact k-nearest data points for arbitrary query
    rows by descending the partition tree and marching the candidate
    balls (Lemma 6.3 reachability), exactly as
    :func:`repro.core.query_points.knn_query` does.  :meth:`snapshot`
    freezes the current version as an immutable
    :class:`~repro.serve.index.ServingIndex` for the serving layer
    (hot-swappable via :meth:`~repro.serve.batcher.Batcher.swap_index`).
    """

    def __init__(self, mutable: MutableIndex) -> None:
        self.mutable = mutable
        self._structure: Optional[NeighborhoodQueryStructure] = None
        self._structure_version: Optional[int] = None

    # -- identity ----------------------------------------------------------

    @property
    def points(self) -> np.ndarray:
        """(n, d) points of the current committed version."""
        return self.mutable.points

    @property
    def tree(self) -> PartitionNode:
        """The current version's partition tree."""
        return self.mutable.tree

    @property
    def k(self) -> int:
        return self.mutable.k

    @property
    def machine(self) -> Machine:
        """The ledger of the *latest* build/commit (fresh per commit)."""
        return self.mutable.machine

    @property
    def system(self) -> KNeighborhoodSystem:
        """The exact k-neighborhood system of the current version."""
        return self.mutable.system

    @property
    def version(self) -> int:
        """Monotone commit counter: 0 after build, +1 per :meth:`commit`."""
        return self.mutable.version

    @property
    def pending(self) -> int:
        """Buffered mutations (inserts + deletes) not yet committed."""
        ins, dels = self.mutable.pending
        return ins + dels

    @property
    def cost(self) -> Cost:
        """(depth, work) ledger of the latest build/commit."""
        return self.mutable.cost

    # -- queries -----------------------------------------------------------

    def query(self, queries: np.ndarray, k: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Exact k nearest data points per query row.

        Parameters
        ----------
        queries:
            (q, d) query points (need not be data points).
        k:
            Neighbors per query; defaults to the ``k`` the index was
            built with.

        Returns
        -------
        (indices, sq_dists):
            Each (q, k), sorted ascending by (distance, index).
        """
        kk = self.k if k is None else k
        # the data array was validated on its way into the index (build
        # and insert); only the query rows need checking
        qs = check_queries(queries, self.points, kk)
        return knn_query_flat(self.mutable.layout, self.points, qs, kk)

    def covering(self, point: np.ndarray) -> np.ndarray:
        """Data-point ids whose k-NN ball strictly contains ``point``.

        Lazily builds the Section 3 neighborhood query structure over the
        current version's k-NN ball system; a :meth:`commit` invalidates
        the cached structure (point ids and balls may have changed).
        """
        if self._structure is None or self._structure_version != self.version:
            self._structure = NeighborhoodQueryStructure(
                self.system.to_ball_system(), machine=None
            )
            self._structure_version = self.version
        return self._structure.query(point)

    # -- mutation ----------------------------------------------------------

    def insert(self, points: np.ndarray) -> int:
        """Buffer new points for the next :meth:`commit`; returns how
        many inserts are now pending."""
        return self.mutable.insert(points)

    def delete(self, ids: Sequence[int]) -> int:
        """Buffer deletions (ids of the current version) for the next
        :meth:`commit`; returns how many deletes are now pending."""
        return self.mutable.delete(ids)

    def discard_pending(self) -> None:
        """Drop every buffered mutation without committing."""
        self.mutable.discard_pending()

    def commit(self) -> CommitInfo:
        """Apply buffered mutations and bump :attr:`version`.

        Absorbs the batch into the existing tree when the churn fraction
        is at most the index's ``churn_threshold`` (rebuilding only
        subtrees whose content changed), else punts to a full rebuild —
        either way the committed state is bit-identical to a from-scratch
        build of the new point set.  Returns the commit's
        :class:`~repro.core.online.CommitInfo` (a no-op commit returns
        with ``noop=True`` and does not bump the version).
        """
        return self.mutable.commit()

    def snapshot(self, *, with_structure: bool = False) -> ServingIndex:
        """Freeze the current version as an immutable serving snapshot.

        The returned :class:`~repro.serve.index.ServingIndex` carries
        :attr:`version`, shares (copy-on-write) the current arrays, and
        is unaffected by later mutations — hot-swap serving stacks to it
        with zero downtime (:meth:`~repro.serve.batcher.Batcher.swap_index`),
        and keep it for as long as that version should stay queryable.
        """
        return self.mutable.snapshot(with_structure=with_structure)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        n, d = self.points.shape
        return (
            f"Index(n={n}, d={d}, k={self.k}, version={self.version}, "
            f"pending={self.pending})"
        )


def all_knn(
    points: np.ndarray,
    k: int = 1,
    *,
    method: str = "fast",
    config: ConfigLike = None,
    machine: Optional[Machine] = None,
    seed: object = None,
    engine: Optional[str] = None,
    workers: Optional[int] = None,
    dtype: Optional[str] = None,
) -> KNNResult:
    """Exact all-k-nearest-neighbors of ``points``, as a :class:`KNNResult`.

    Parameters
    ----------
    points:
        (n, d) input points.
    k:
        Neighbors per point, ``1 <= k < n``.
    method:
        ``"fast"`` (Section 6 sphere-separator DnC, the O(log n)
        headline), ``"simple"`` (Section 5 hyperplane DnC, O(log^2 n)),
        ``"query"`` (build the fast partition tree, then re-answer every
        point with :func:`~repro.core.query_points.knn_query`'s flat
        descent and march), or ``"brute"`` (all-pairs baseline).
    config:
        Method config (:class:`~repro.core.fast_dnc.FastDnCConfig` for
        ``fast``/``query``, :class:`~repro.core.simple_dnc.SimpleDnCConfig`
        for ``simple``); defaults are the paper's parameters.
    machine:
        Cost ledger to charge; a fresh unit-scan machine by default.
    seed:
        RNG seed; ``None`` falls back to ``config.seed``.
    engine:
        Execution engine for the DnC methods: ``"recursive"``
        (node-at-a-time), ``"frontier"`` (level-synchronous batched) or
        ``"frontier-mp"`` (frontier batches on worker processes) — same
        output and ledger, different wall-clock; see ``docs/engines.md``.
        ``None`` keeps ``config.engine``; ignored by ``"brute"``.
    workers:
        Worker-process count for ``"frontier-mp"`` (``None`` = one per
        CPU); ignored by the serial engines.
    dtype:
        Point storage dtype, ``"float64"`` or ``"float32"``; distance
        arithmetic always runs in float64 on the stored values.  ``None``
        keeps ``config.dtype``.

    Returns
    -------
    KNNResult
        With exact neighbor lists (validated against brute force in the
        test suite), the cost ledger, and method stats.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    pts = as_points(points, min_points=1, dtype=None)
    if machine is None:
        machine = Machine()
    if config is None and method != "brute":
        config = SimpleDnCConfig() if method == "simple" else FastDnCConfig()
    config = resolve_config(config, engine, workers, dtype)
    if method == "simple":
        return simple_parallel_dnc(pts, k, machine=machine, seed=seed, config=config)
    if method == "brute":
        # brute has no config object: apply the dtype knob here
        if dtype == "float32":
            pts = np.ascontiguousarray(pts, dtype=np.float32)
        system = brute_force_knn(pts, k, machine=machine)
        return KNNResult(system=system, machine=machine, method=method, k=k)
    res = parallel_nearest_neighborhood(pts, k, machine=machine, seed=seed, config=config)
    if method == "fast":
        return res
    # method == "query": re-answer every point through the flat-tree
    # query path, k + 1 neighbors each, and drop each row's self-match
    qpts = res.system.points  # the build's storage dtype, not the input's
    n = qpts.shape[0]
    with machine.span("api.requery", n=n, k=k):
        idx, sq = knn_query(res._layout(), qpts, qpts, min(k + 1, n))
    # a stable sort moves each row's self-match (made padding) last: a
    # row whose list misses itself (duplicates) keeps its first k
    self_match = idx == np.arange(n)[:, None]
    order = np.argsort(self_match, axis=1, kind="stable")[:, :k]
    system = KNeighborhoodSystem(
        qpts,
        k,
        np.take_along_axis(np.where(self_match, -1, idx), order, axis=1),
        np.take_along_axis(np.where(self_match, np.inf, sq), order, axis=1),
    )
    return replace(res, system=system, method=method)


def build_index(
    points: np.ndarray,
    k: int = 1,
    *,
    config: Optional[FastDnCConfig] = None,
    machine: Optional[Machine] = None,
    seed: object = None,
    churn_threshold: float = 0.05,
) -> Index:
    """Build a versioned, mutable exact k-NN index over ``points``.

    Runs the fast algorithm once (charging ``machine``) and returns an
    :class:`Index` handle: :meth:`Index.query` serves exact k-NN for new
    points, :meth:`Index.insert` / :meth:`Index.delete` /
    :meth:`Index.commit` absorb mutations into the existing tree, and
    :meth:`Index.snapshot` freezes any version for the serving layer.

    The build always runs the online profile on the serial frontier
    level loop — its per-node records are what later commits reuse, and
    a commit absorbs as the same loop over the changed spine — so it
    takes no ``engine``/``workers``; the *answers* are engine-independent
    anyway (exact k-NN is unique up to the canonical (distance, index)
    order).

    ``churn_threshold`` is the mutation fraction above which a commit
    punts to a full rebuild (see ``docs/online_index.md``).  The online
    absorb machinery is float64-only, so a ``config`` with
    ``dtype="float32"`` is rejected (``all_knn`` and
    ``ServingIndex.build`` accept it).

    .. versionchanged:: 1.6.0
       Returns :class:`Index` (mutable, versioned) instead of the
       query-only handle; the query/covering surface is unchanged.
    """
    cfg = config if config is not None else FastDnCConfig()
    if cfg.dtype == "float32":
        # the online index's absorb machinery (content hashing, mixed
        # insert vstacks) is float64-only
        raise ValueError(
            "build_index supports dtype='float64' only; use all_knn or "
            "ServingIndex.build for float32 storage"
        )
    pts = as_points(points, min_points=1, dtype=None)
    mutable = MutableIndex(
        pts,
        k,
        seed=seed if seed is not None else cfg.seed,
        config=cfg,
        churn_threshold=churn_threshold,
        machine=machine,
    )
    return Index(mutable)


def run_traced(
    points: np.ndarray,
    k: int = 1,
    *,
    method: str = "fast",
    config: ConfigLike = None,
    machine: Optional[Machine] = None,
    seed: object = None,
    engine: Optional[str] = None,
    workers: Optional[int] = None,
    dtype: Optional[str] = None,
    events_out: Optional[str] = None,
    metrics_out: Optional[str] = None,
) -> Tuple[KNNResult, Tracer]:
    """:func:`all_knn` under tracing; returns ``(result, tracer)``.

    A fresh :class:`~repro.obs.spans.Tracer` is attached to the machine
    (replacing any existing one), the whole run is wrapped in a root
    ``"run"`` span, and the tracer is verified against the ledger: the
    root span's (depth, work) equals ``result.cost`` exactly, as does the
    per-level exclusive-work decomposition.  ``engine``/``workers``
    select the execution engine as in :func:`all_knn` (the frontier
    engines emit per-level ``frontier.level`` spans instead of per-node
    spans; ``frontier-mp`` additionally emits one ``parallel.subtree``
    span per shipped subtree with the worker's own span tree grafted
    underneath).

    Telemetry sinks: ``events_out`` writes the run's JSONL event log and
    ``metrics_out`` the Prometheus exposition of its metrics registry
    (see :mod:`repro.obs.export`); ``None`` writes nothing.
    """
    if machine is None:
        machine = Machine()
    pre = machine.total
    tracer = machine.enable_tracing()
    with machine.span("run", method=method, n=int(np.asarray(points).shape[0]), k=k):
        result = all_knn(
            points, k, method=method, config=config, machine=machine, seed=seed,
            engine=engine, workers=workers, dtype=dtype,
        )
    if pre.depth == 0 and pre.work == 0:
        # fresh ledger: the root span must reproduce it exactly
        tracer.check_against(machine.total)
    if events_out is not None:
        from .obs.export import write_events_jsonl

        write_events_jsonl(events_out, tracer)
    if metrics_out is not None:
        with open(metrics_out, "w") as fh:
            fh.write(machine.metrics.to_prometheus())
    return result, tracer


def serve(
    points: np.ndarray,
    k: int = 1,
    *,
    kind: str = "knn",
    config: Optional[FastDnCConfig] = None,
    machine: Optional[Machine] = None,
    seed: object = None,
    engine: Optional[str] = None,
    workers: Optional[int] = None,
    dtype: Optional[str] = None,
    serve_workers: Optional[int] = None,
    max_batch: int = 256,
    max_wait_ms: Optional[float] = None,
    cache_size: int = 1024,
) -> Batcher:
    """Build a serving stack over ``points``: index → cache → batcher.

    Runs the offline build once (the fast algorithm, via
    ``engine``/``workers``/``dtype`` exactly as in :func:`all_knn`),
    freezes it as a :class:`~repro.serve.index.ServingIndex`, and returns a
    :class:`~repro.serve.batcher.Batcher` accepting single-point requests
    of the given ``kind``:

    - ``"knn"``: exact k nearest data points per query;
    - ``"covering"``: data points whose k-NN ball contains the query
      (the Section-3 structure, built eagerly for this kind).

    ``serve_workers`` (when given) fans batches across a
    :class:`~repro.serve.mp.ServingPool` of worker processes serving from
    one shared-memory snapshot; the batcher owns the pool and shuts it
    down on ``close()``.  ``cache_size=0`` disables the LRU result
    cache, which keys on the exact point bytes.  Every knob changes only
    wall-clock, never an answer — serving is bit-identical to the
    per-point query paths.  ``machine`` receives ``serve.*`` metrics and
    (when traced) ``serve.batch`` spans.
    """
    index = ServingIndex.build(
        points,
        k,
        config=config,
        machine=machine,
        seed=seed,
        engine=engine,
        workers=workers,
        dtype=dtype,
        with_structure=(kind == "covering"),
    )
    cache = ResultCache(cache_size) if cache_size > 0 else None
    pool = (
        ServingPool(index, serve_workers, machine=machine)
        if serve_workers is not None
        else None
    )
    return Batcher(
        index,
        kind=kind,
        k=k,
        max_batch=max_batch,
        max_wait_ms=max_wait_ms,
        cache=cache,
        machine=machine,
        pool=pool,
    )


def net_serve(
    points: np.ndarray,
    k: int = 1,
    *,
    net: Optional["object"] = None,
    tenants: Optional[dict] = None,
    config: Optional[FastDnCConfig] = None,
    machine: Optional[Machine] = None,
    seed: object = None,
    churn_threshold: float = 0.05,
):
    """Build the full network serving stack; returns an unstarted server.

    Builds a mutable index over ``points`` (exactly as
    :func:`build_index`) for the ``"default"`` tenant — plus one index
    per entry of ``tenants`` (``{name: points}``, same ``k`` and build
    knobs) — and wires them behind a
    :class:`~repro.net.server.NetServer`: admission control,
    load-adaptive micro-batch windows, per-tenant caches, graceful drain.
    Every front-end knob lives on ``net`` (a
    :class:`~repro.net.config.NetConfig`; defaults when ``None``).

    The server is returned *unstarted* so the caller picks the loop:

    - ``asyncio.run`` / an existing loop: ``await server.start()`` then
      ``await server.serve_forever()`` (wire SIGTERM via
      :func:`repro.net.install_signal_handlers`);
    - a background thread (tests, benchmarks):
      ``repro.net.ServerThread(server).start()``.

    ``machine`` charges the default tenant's build and carries its
    ``serve.*`` metrics; ``/metrics`` merges it with the server's
    ``net.*`` registry and every other tenant's (prefixed) stats.  See
    ``docs/networking.md``.
    """
    from .net import NetConfig, NetServer, TenantManager

    net_cfg = net if net is not None else NetConfig()
    if not isinstance(net_cfg, NetConfig):
        raise TypeError(f"net must be a NetConfig, got {type(net_cfg).__name__}")
    manager = TenantManager(config=net_cfg)
    datasets = {"default": points}
    for name, pts in (tenants or {}).items():
        if name in datasets:
            raise ValueError(f"duplicate tenant name {name!r}")
        datasets[name] = pts
    for name, pts in datasets.items():
        tenant_machine = machine if name == "default" else None
        index = build_index(
            pts,
            k,
            config=config,
            machine=tenant_machine,
            seed=seed,
            churn_threshold=churn_threshold,
        )
        manager.add(name, index.mutable, machine=tenant_machine)
    return NetServer(manager, config=net_cfg)
