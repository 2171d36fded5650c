"""The frozen, query-only artifact of the serving layer.

A :class:`ServingIndex` wraps what the offline algorithms build — the
Section-6 partition tree in its flat array form
(:class:`~repro.kernels.FlatTree`), the k-neighborhood system, and
(lazily) the Section-3
:class:`~repro.core.query.NeighborhoodQueryStructure` — into a single
object that only *answers*:

- ``kind="knn"``: exact k nearest data points per query row, through
  :func:`~repro.core.query_points.knn_query`'s flat descent and march;
- ``kind="covering"``: the data points whose k-NN ball contains each
  query row, through the vectorized
  :meth:`~repro.core.query.NeighborhoodQueryStructure.query_many` descent.

Both paths return canonical arrays (rows sorted by (distance, index) /
leaf storage order), so answers are bit-identical to the per-point
``NeighborhoodQueryStructure.query`` and single-row ``knn_query`` calls
whatever the batch composition — the property the batching and caching
layers above rely on.

A built index is *frozen*: it holds no machine, no RNG state that
queries consume, and no pointer tree — only arrays (points, flat tree,
neighbor lists) plus the optional covering structure, so a retained
version costs a few MB and no replay records.  :meth:`ServingIndex.save`
/ :meth:`ServingIndex.load` write it to disk (format 2: the arrays), and
:meth:`ServingIndex.shm_snapshot` exports every array as a
shared-memory segment so a pool of worker processes can serve from one
copy without rebuilding (see :mod:`repro.serve.mp`).
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.config import resolve_config
from ..core.fast_dnc import FastDnCConfig, parallel_nearest_neighborhood
from ..core.neighborhood import KNeighborhoodSystem
from ..core.partition_tree import PartitionNode
from ..core.query import NeighborhoodQueryStructure, QueryConfig
from ..core.query_points import knn_query_flat
from ..geometry.points import as_points
from ..kernels.layout import FlatTree
from ..parallel.shm import SharedArray
from ..pvm.machine import Machine

__all__ = ["KINDS", "ServingIndex", "KnnResponse", "CoveringResponse"]

#: Request kinds a serving index can execute.
KINDS = ("knn", "covering")

#: Batched k-NN answer: ``(indices, sq_dists)``, each ``(m, k)``.
KnnResponse = Tuple[np.ndarray, np.ndarray]

#: Batched covering answer: parallel ``(rows, ball_ids)`` pair arrays.
CoveringResponse = Tuple[np.ndarray, np.ndarray]

BatchResponse = Union[KnnResponse, CoveringResponse]

_SNAPSHOT_VERSION = 2


class ServingIndex:
    """Built artifacts bundled for query serving (see module docstring).

    Parameters
    ----------
    points:
        (n, d) data points the tree's leaf indices refer to.
    tree:
        The :class:`~repro.kernels.FlatTree` of the partition tree built
        over ``points``, or that tree itself (flattened here; the index
        keeps no reference to it).
    k:
        Default neighbors per query (requests may override).
    system:
        The offline k-neighborhood result over ``points``; required for
        ``kind="covering"`` (its balls are what the Section-3 structure
        indexes).
    structure:
        A pre-built neighborhood query structure; built lazily from
        ``system`` on first covering request when omitted.
    structure_seed:
        Seed for the lazy structure build (ignored when ``structure`` is
        given).
    version:
        The index version this snapshot freezes (0 for a plain offline
        build).  :meth:`repro.core.online.MutableIndex.snapshot` stamps
        its commit version here; the serving layer keys result caches on
        it so entries from one version can never answer for another, and
        :meth:`~repro.serve.mp.ServingPool.swap` carries it to workers.
    """

    def __init__(
        self,
        points: np.ndarray,
        tree: Union[FlatTree, PartitionNode],
        k: int,
        system: Optional[KNeighborhoodSystem] = None,
        structure: Optional[NeighborhoodQueryStructure] = None,
        structure_seed: Optional[int] = 0,
        version: int = 0,
    ) -> None:
        self.points = as_points(points, min_points=1, dtype=None)
        self.layout = tree if isinstance(tree, FlatTree) else FlatTree.from_tree(tree)
        self.k = int(k)
        self.system = system
        self._structure = structure
        self._structure_seed = structure_seed
        self.version = int(version)

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        points: np.ndarray,
        k: int = 1,
        *,
        config: Optional[FastDnCConfig] = None,
        machine: Optional[Machine] = None,
        seed: object = None,
        engine: Optional[str] = None,
        workers: Optional[int] = None,
        dtype: Optional[str] = None,
        with_structure: bool = False,
        structure_seed: Optional[int] = 0,
    ) -> "ServingIndex":
        """Run the offline fast algorithm once and freeze it for serving.

        ``engine``/``workers``/``dtype`` select the build engine and
        point-storage dtype exactly as in :func:`repro.api.all_knn`; the
        build charges ``machine`` (fresh ledger by default) but the
        returned index holds no machine.
        ``with_structure`` eagerly builds the Section-3 structure so the
        first covering request (or an mp snapshot) pays nothing.
        """
        pts = as_points(points, min_points=1, dtype=None)
        if machine is None:
            machine = Machine()
        config = resolve_config(
            config if config is not None else FastDnCConfig(), engine, workers, dtype
        )
        res = parallel_nearest_neighborhood(pts, k, machine=machine, seed=seed, config=config)
        # store the run's own points (the dtype the tree was built over),
        # not the caller's array — with dtype="float32" they differ
        index = cls(
            res.system.points, res._layout(), k, system=res.system,
            structure_seed=structure_seed,
        )
        if with_structure:
            index.structure  # noqa: B018 - builds and caches
        return index

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def structure(self) -> NeighborhoodQueryStructure:
        """The Section-3 structure over the index's k-NN balls (lazy)."""
        if self._structure is None:
            if self.system is None:
                raise ValueError(
                    "covering queries need the k-neighborhood system; "
                    "build the index with a system (ServingIndex.build does)"
                )
            self._structure = NeighborhoodQueryStructure(
                self.system.to_ball_system(),
                machine=None,
                seed=self._structure_seed,
                config=QueryConfig(),
            )
        return self._structure

    # -- execution ---------------------------------------------------------

    def resolve_k(self, k: Optional[int]) -> int:
        kk = self.k if k is None else int(k)
        if kk < 1:
            raise ValueError(f"k must be >= 1, got {kk}")
        return kk

    def execute(
        self, kind: str, queries: np.ndarray, k: Optional[int] = None
    ) -> BatchResponse:
        """Answer one batch of query points.

        ``kind="knn"`` returns ``(indices, sq_dists)`` of shape (m, k),
        rows sorted by (distance, index) and padded with (-1, inf) when
        ``k`` exceeds the data size.  ``kind="covering"`` returns the
        ``(rows, ball_ids)`` containment pairs of ``query_many``.
        """
        if kind not in KINDS:
            raise ValueError(f"unknown request kind {kind!r}; choose from {KINDS}")
        qs = as_points(queries, dtype=None)
        if qs.shape[1] != self.d:
            raise ValueError(
                f"dimension mismatch: index is {self.d}-D, queries are {qs.shape[1]}-D"
            )
        if kind == "covering":
            if qs.shape[0] == 0:
                return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
            rows, ids = self.structure.query_many(qs)
            # canonical order: query_many groups pairs by leaf; stable-sort
            # by row so the same pairs always serialize the same way (and
            # sharded executions concatenate to the exact serial arrays)
            order = np.argsort(rows, kind="stable")
            return rows[order], ids[order]
        kk = self.resolve_k(k)
        if qs.shape[0] == 0:
            return (
                np.empty((0, kk), dtype=np.int64),
                np.empty((0, kk), dtype=np.float64),
            )
        # k may exceed n: answer with every data point, pad the rest —
        # the query itself requires k <= n.
        eff = min(kk, self.n)
        idx, sq = knn_query_flat(self.layout, self.points, qs, eff)
        if eff < kk:
            idx = np.pad(idx, ((0, 0), (0, kk - eff)), constant_values=-1)
            sq = np.pad(sq, ((0, 0), (0, kk - eff)), constant_values=np.inf)
        return idx, sq

    @staticmethod
    def split_response(kind: str, response: BatchResponse, m: int) -> List[Any]:
        """Slice a batch response into ``m`` per-request responses.

        knn rows become ``(indices_row, sq_dists_row)``; covering rows
        become the row's ball-id array (leaf storage order, exactly what
        the per-point ``query`` returns).
        """
        if kind == "knn":
            idx, sq = response
            return [(idx[i], sq[i]) for i in range(m)]
        rows, ids = response
        return [ids[rows == i] for i in range(m)]

    # -- snapshots ---------------------------------------------------------

    def _state(self) -> Dict[str, Any]:
        return {
            "version": _SNAPSHOT_VERSION,
            "k": self.k,
            "points": self.points,
            "layout": self.layout.arrays(),
            "system": self.system,
            "structure": self._structure,
            "structure_seed": self._structure_seed,
            "index_version": self.version,
        }

    @classmethod
    def _from_state(cls, state: Dict[str, Any]) -> "ServingIndex":
        version = state.get("version")
        if version != _SNAPSHOT_VERSION:
            raise ValueError(f"unsupported serving snapshot version {version!r}")
        return cls(
            state["points"],
            FlatTree(**state["layout"]),
            state["k"],
            system=state["system"],
            structure=state["structure"],
            structure_seed=state["structure_seed"],
            version=state["index_version"],
        )

    def save(self, path: str) -> None:
        """Write the frozen index: its arrays and the optional structure."""
        with open(path, "wb") as fh:
            pickle.dump(self._state(), fh, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def load(cls, path: str) -> "ServingIndex":
        """Reload an index saved by :meth:`save` (format 2)."""
        with open(path, "rb") as fh:
            state = pickle.load(fh)
        return cls._from_state(state)

    def shm_snapshot(self) -> Tuple[Dict[str, Any], List[SharedArray]]:
        """Export the index for worker processes: every array as shared
        memory, only specs and scalars pickled.

        Returns ``(payload, arenas)``: ``payload`` is picklable and
        travels to every worker (see :func:`repro.serve.worker.serve_init`);
        ``arenas`` are the master-owned segments to :meth:`~repro.parallel.
        shm.SharedArray.destroy` when serving ends.  The structure (if
        built) rides along pickled — its ragged leaf arrays don't fit one
        segment, and shipping it beats rebuilding per worker.
        """
        arenas = [SharedArray.create_from(self.points)]
        layout_specs = {}
        for name, arr in self.layout.arrays().items():
            arenas.append(SharedArray.create_from(arr))
            layout_specs[name] = arenas[-1].spec
        meta: Dict[str, Any] = {
            "version": _SNAPSHOT_VERSION,
            "k": self.k,
            "points_spec": arenas[0].spec,
            "layout_specs": layout_specs,
            "structure": self._structure,
            "structure_seed": self._structure_seed,
            "system_specs": None,
            "system_k": None,
            "index_version": self.version,
        }
        if self.system is not None:
            nbr_idx = SharedArray.create_from(self.system.neighbor_indices)
            nbr_sq = SharedArray.create_from(self.system.neighbor_sq_dists)
            arenas += [nbr_idx, nbr_sq]
            meta["system_specs"] = (nbr_idx.spec, nbr_sq.spec)
            meta["system_k"] = self.system.k
        return meta, arenas
