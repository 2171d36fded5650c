"""k-nearest-neighbor graphs (Definition 1.1 of the paper).

The graph has an edge ``(p_i, p_j)`` whenever either point is among the
other's k nearest.  Given the k-neighborhood system (which every algorithm
in :mod:`repro.core` produces), building the edge set is the cheap last
step the paper dispatches in one sentence: symmetrise the directed lists,
deduplicate, done — O(log n) depth with scans, O(nk) work.

:class:`KNNResult` is what every all-kNN run returns: the system, the
machine holding the run's ledger and, for the divide and conquer, the
partition tree and stats, with the graph one :meth:`~KNNResult.edges`
call away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..pvm.cost import Cost
from ..pvm.machine import Machine
from .columns import TreeColumns
from .neighborhood import KNeighborhoodSystem
from .partition_tree import PartitionNode

__all__ = ["KNNResult", "knn_graph_edges", "adjacency_lists", "to_networkx", "max_degree"]


def knn_graph_edges(system: KNeighborhoodSystem, machine: Optional[Machine] = None) -> np.ndarray:
    """Undirected edge set as a sorted, deduplicated (m, 2) int array.

    Each row ``(i, j)`` has ``i < j``.  Padded (-1) neighbor slots are
    ignored.  When a :class:`~repro.pvm.machine.Machine` is supplied the
    symmetrisation is charged as one elementwise pass plus a constant
    number of scans over the nk directed arcs (sort-by-scan radix over
    fixed-width keys).
    """
    n, k = len(system), system.k
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    dst = system.neighbor_indices.reshape(-1)
    keep = dst >= 0
    src, dst = src[keep], dst[keep]
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    if lo.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if machine is not None:
        # run the real scan-vector program: encode arcs as integers, sort
        # with the split radix sort (O(log n) one-bit passes), deduplicate
        # by comparing sorted neighbors (one elementwise pass + pack)
        from ..pvm.primitives import pack
        from ..pvm.sorting import split_radix_sort

        machine.charge(machine.ewise_cost(int(src.shape[0]), 2.0))  # min/max encode
        keys = lo * n + hi
        bits = max(1, int(keys.max()).bit_length())
        sorted_keys, _ = split_radix_sort(machine, keys, bits=bits)
        first = np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
        machine.charge(machine.ewise_cost(int(sorted_keys.shape[0])))
        uniq = pack(machine, sorted_keys, first)
        machine.charge(machine.ewise_cost(int(uniq.shape[0]), 2.0))  # decode
        return np.stack([uniq // n, uniq % n], axis=1)
    edges = np.unique(np.stack([lo, hi], axis=1), axis=0)
    return edges


def adjacency_lists(system: KNeighborhoodSystem) -> list[np.ndarray]:
    """Per-vertex sorted neighbor arrays of the undirected graph."""
    edges = knn_graph_edges(system)
    n = len(system)
    deg = np.zeros(n, dtype=np.int64)
    np.add.at(deg, edges[:, 0], 1)
    np.add.at(deg, edges[:, 1], 1)
    out: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        out[a].append(int(b))
        out[b].append(int(a))
    return [np.array(sorted(v), dtype=np.int64) for v in out]


def max_degree(system: KNeighborhoodSystem) -> int:
    """Maximum degree of the undirected graph (bounded by tau_d * k + k)."""
    edges = knn_graph_edges(system)
    if edges.shape[0] == 0:
        return 0
    n = len(system)
    deg = np.zeros(n, dtype=np.int64)
    np.add.at(deg, edges[:, 0], 1)
    np.add.at(deg, edges[:, 1], 1)
    return int(deg.max())


def to_networkx(system: KNeighborhoodSystem):
    """Export as a ``networkx.Graph`` with point coordinates as node attrs.

    Imported lazily; networkx is an optional (test/benchmark) dependency.
    """
    import networkx as nx

    g = nx.Graph()
    for i, p in enumerate(system.points):
        g.add_node(i, pos=tuple(p))
    g.add_edges_from(map(tuple, knn_graph_edges(system)))
    return g


class _TreeField:
    """``KNNResult.tree``.  A frontier engine hands the result its
    :class:`~repro.core.columns.TreeColumns`; the
    :class:`~repro.core.partition_tree.PartitionNode` view is built from
    them on first read.  The recursive engines hand over their pointer
    tree itself."""

    def __get__(self, result, owner=None):
        if result is None:
            return None  # the field's default
        state = result.__dict__
        if state.get("_tree") is None and state.get("_columns") is not None:
            state["_tree"] = state["_columns"].tree()
        return state.get("_tree")

    def __set__(self, result, tree) -> None:
        columns = tree if isinstance(tree, TreeColumns) else None
        result.__dict__["_columns"] = columns
        result.__dict__["_tree"] = None if columns is not None else tree


@dataclass
class KNNResult:
    """Uniform output bundle of an all-kNN run, whatever the method.

    ``indices``/``sq_dists`` are the (n, k) neighbor arrays;
    ``system`` is the full :class:`~repro.core.neighborhood.KNeighborhoodSystem`;
    ``machine`` holds the (depth, work) ledger of the run; ``tree`` is the
    partition tree when the method builds one (``None`` for ``"brute"``),
    built on first read from the frontier engines' columns;
    ``stats`` is the per-algorithm stats view (``None`` for ``"brute"``).
    """

    system: KNeighborhoodSystem
    machine: Machine
    method: str
    tree: Optional[PartitionNode] = _TreeField()  # type: ignore[assignment]
    stats: Optional[object] = None
    k: int = 1

    def _layout(self):
        """The run's tree in the form the query paths take without a
        pointer view: the :class:`~repro.kernels.FlatTree` of the
        engine's columns, else the pointer tree."""
        columns = self.__dict__.get("_columns")
        return columns.flat if columns is not None else self.tree

    @property
    def indices(self) -> np.ndarray:
        """(n, k) neighbor indices, sorted by distance then index."""
        return self.system.neighbor_indices

    @property
    def sq_dists(self) -> np.ndarray:
        """(n, k) squared neighbor distances."""
        return self.system.neighbor_sq_dists

    @property
    def cost(self) -> Cost:
        """The run's aggregate (depth, work) cost ledger."""
        return self.machine.total

    def edges(self) -> np.ndarray:
        """The k-NN graph as a deduplicated undirected (E, 2) edge list."""
        return knn_graph_edges(self.system)
