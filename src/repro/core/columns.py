"""A solved partition tree as preorder columns.

The frontier engines and the online index keep a solved tree as one row
per node, in preorder (:class:`TreeColumns`): the served
:class:`~repro.kernels.FlatTree`, ``end`` (the preorder index past the
node's subtree, so a subtree is the node range ``[i, end[i])`` and its
leaves' ids one range of ``flat.leaf_ids``), a fast correction's
``iota``/``punted`` (``iota`` is -1 where none is recorded) and the
node's own ``divide``/``base``/``correct`` costs (NaN where it has no
such event).  Every node's ids ascend (a stable split of ``arange(n)``),
so they are the sorted union of its leaves' ids, and
:meth:`TreeColumns.tree` builds the
:class:`~repro.core.partition_tree.PartitionNode` view on demand.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from ..geometry.spheres import Hyperplane, Sphere
from ..kernels.layout import FlatTree
from ..pvm.cost import Cost
from .partition_tree import PartitionNode

__all__ = ["PHASES", "TreeColumns", "fold_phase"]

#: The phases of a node's own events, in ``events``' second axis.
PHASES = ("divide", "base", "correct")


class TreeColumns:
    """One solved (sub)tree, one row per node in preorder (see module)."""

    __slots__ = ("flat", "end", "iota", "punted", "events", "first_leaf", "point_lo", "size")

    def __init__(
        self,
        flat: FlatTree,
        end: np.ndarray,
        iota: np.ndarray,
        punted: np.ndarray,
        events: np.ndarray,
    ) -> None:
        self.flat = flat
        self.end = end
        self.iota = iota
        self.punted = punted
        self.events = events
        is_leaf = flat.leaf_ord >= 0
        #: each node's first leaf ordinal and first leaf id's offset
        self.first_leaf = np.cumsum(is_leaf) - is_leaf
        self.point_lo = flat.leaf_offsets[self.first_leaf]
        #: points under each node (a subtree's last node is a leaf)
        self.size = flat.leaf_offsets[self.first_leaf[end - 1] + 1] - self.point_lo

    @property
    def n_nodes(self) -> int:
        return int(self.end.shape[0])

    def leaf_block(self, i: int) -> np.ndarray:
        """Node ``i``'s ids in leaf order (a view of ``flat.leaf_ids``)."""
        lo = int(self.point_lo[i])
        return self.flat.leaf_ids[lo : lo + int(self.size[i])]

    def node_ids(self, i: int) -> np.ndarray:
        """Node ``i``'s ids, ascending: the sorted union of its leaves'."""
        return np.sort(self.leaf_block(i))

    def separator(self, i: int):
        """Node ``i``'s separator, bit for bit the one it was built with
        (``None`` at a leaf)."""
        flat = self.flat
        if flat.leaf_ord[i] >= 0:
            return None
        row, value = flat.centers[i].copy(), flat.radii[i]
        at = int(np.searchsorted(flat.planes, i))
        if at < flat.planes.shape[0] and flat.planes[at] == i:
            # the stored normal is already unit: bypass the constructor's
            # renormalisation, which could move its last bits (its offset
            # is the float64 scalar the constructor's division leaves)
            plane = object.__new__(Hyperplane)
            object.__setattr__(plane, "normal", row)
            object.__setattr__(plane, "offset", value)
            return plane
        return Sphere(row, float(value))

    def tree(self) -> PartitionNode:
        """The :class:`PartitionNode` view of the whole tree: every node's
        ids, separator and (fast method) ``iota``/``punted`` meta."""
        flat = self.flat
        nodes: List[PartitionNode] = [None] * self.n_nodes  # type: ignore[list-item]
        for i in range(self.n_nodes - 1, -1, -1):
            ids = self.node_ids(i)
            if flat.leaf_ord[i] >= 0:
                nodes[i] = PartitionNode(indices=ids)
                continue
            meta = {}
            if self.iota[i] >= 0:
                meta = {"iota": int(self.iota[i]), "punted": bool(self.punted[i])}
            nodes[i] = PartitionNode(
                indices=ids, separator=self.separator(i),
                left=nodes[i + 1], right=nodes[int(flat.right[i])], meta=meta,
            )
        return nodes[0]

    def phase_events(self) -> Iterator[Tuple[str, np.ndarray]]:
        """Each phase's ``(depth, work)`` rows, in the order the recursive
        engine closes those sections: a node's ``divide`` before its
        subtree (preorder), ``base`` at the leaves left to right,
        ``correct`` after its subtree (postorder).  Phases without an
        event are skipped."""
        post = self.postorder()
        for p, name in enumerate(PHASES):
            rows = self.events[post, p] if name == "correct" else self.events[:, p]
            rows = rows[~np.isnan(rows[:, 0])]
            if rows.shape[0]:
                yield name, rows

    def postorder(self) -> np.ndarray:
        """Node indices in postorder: a subtree closes at its end, nested
        subtrees sharing an end deepest (highest index) first."""
        return np.lexsort((-np.arange(self.n_nodes), self.end))

    def __iter__(self) -> Iterator[Tuple[str, Cost]]:
        """The tree's ``(phase, cost)`` events in depth-first order: a
        node's ``divide``, its left and right subtrees' events, its
        ``correct``; a leaf's ``divide`` (when its search failed), then
        its ``base``."""
        closing: List[int] = []
        for i in range(self.n_nodes):
            while closing and self.end[closing[-1]] <= i:
                yield self._event(closing.pop(), 2)
            for p in (0, 1):
                if not np.isnan(self.events[i, p, 0]):
                    yield self._event(i, p)
            if self.flat.leaf_ord[i] < 0:
                closing.append(i)
        while closing:
            yield self._event(closing.pop(), 2)

    def _event(self, i: int, p: int) -> Tuple[str, Cost]:
        depth, work = self.events[i, p].tolist()
        return PHASES[p], Cost(depth, work)

    def __reduce__(self):
        """Pickle what a master cannot derive (the trip from a
        ``frontier-mp`` worker): int32 ends, leaf sizes and (below 2^31)
        leaf ids, the internal nodes' rows, and only existing events."""
        flat = self.flat
        internal = flat.leaf_ord < 0
        leaf_ids = flat.leaf_ids
        if leaf_ids.shape[0] and leaf_ids.max() < 2**31:
            leaf_ids = leaf_ids.astype(np.int32)
        has = ~np.isnan(self.events[:, :, 0])
        return _unpack, (
            self.end.astype(np.int32),
            np.diff(flat.leaf_offsets).astype(np.int32),
            leaf_ids,
            flat.centers[internal],
            flat.radii[internal],
            flat.planes,
            self.iota[internal].astype(np.int32),
            self.punted[internal],
            np.packbits(has[:, 0]),
            self.events[has],
        )


def _unpack(end, leaf_sizes, leaf_ids, centers, radii, planes, iota, punted, has_divide, rows):
    """Rebuild :class:`TreeColumns` from :meth:`TreeColumns.__reduce__`."""
    n = end.shape[0]
    end = end.astype(np.int64)
    idx = np.arange(n, dtype=np.int64)
    is_leaf = end == idx + 1
    internal = ~is_leaf
    right = np.full(n, -1, dtype=np.int64)
    right[internal] = end[idx[internal] + 1]
    offsets = np.zeros(leaf_sizes.shape[0] + 1, dtype=np.int64)
    np.cumsum(leaf_sizes, out=offsets[1:])
    flat = FlatTree(
        centers=_spread(internal, centers, 0.0, np.float64),
        radii=_spread(internal, radii, 0.0, np.float64),
        left=np.where(is_leaf, -1, idx + 1), right=right,
        leaf_ord=np.where(is_leaf, np.cumsum(is_leaf) - 1, -1),
        leaf_ids=leaf_ids.astype(np.int64), leaf_offsets=offsets, planes=planes,
    )
    has = np.stack([np.unpackbits(has_divide, count=n).astype(bool), is_leaf, internal], axis=1)
    return TreeColumns(
        flat, end, _spread(internal, iota, -1, np.int64), _spread(internal, punted, False, bool),
        _spread(has, rows, np.nan, np.float64),
    )


def _spread(mask, values, fill, dtype) -> np.ndarray:
    """``values`` at the ``mask`` rows, ``fill`` elsewhere."""
    out = np.full(mask.shape + values.shape[1:], fill, dtype=dtype)
    out[mask] = values
    return out


def fold_phase(acc: Tuple[float, float], rows: np.ndarray) -> Tuple[float, float]:
    """``acc`` plus every ``(depth, work)`` row in order: the float
    additions a running total makes one event at a time (a cumulative sum
    adds left to right)."""
    depth, work = np.cumsum(np.vstack(([acc], rows)), axis=0)[-1].tolist()
    return depth, work
