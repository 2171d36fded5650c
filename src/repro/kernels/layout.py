"""Contiguous, child-major flat layout of a partition tree.

A query only needs, per partition-tree node, the separator and the two
children — and, at the leaves, the member ids.  :class:`FlatTree` packs
those into preorder numpy arrays with the leaf id lists concatenated
child-major (left to right).  The frontier engines and the online index
write it straight from their level loop, as part of a solved tree's
:class:`~repro.core.columns.TreeColumns`; :meth:`FlatTree.from_tree`
flattens a recursive engine's
:class:`~repro.core.partition_tree.PartitionNode` tree.  It is the whole
structure a served index version holds:

- :meth:`FlatTree.descend` / :meth:`FlatTree.leaf_groups` route query
  points to their leaves through the ``descend_spheres`` kernel;
- :meth:`FlatTree.march` is Section 6.2's march (Lemma 6.3): balls
  move down the tree one level per step, lockstep over every
  (ball, node) instance, and leaf containment is one flat pair test.
  One call runs any number of marches side by side, each from its own
  start node under its own active cap: a query batch is one march from
  the root, a frontier correction level is one march per (node, side).

Every tree flattens.  A hyperplane separator (the rare MTTV great-circle
pull-back, and every cut of the simple method) keeps its unit normal and
offset in the node's center/radius slots and is listed in
:attr:`FlatTree.planes`; it is classified per node with the BLAS gemv
kernels on the ascending row group the pointer walk hands it, while
sphere nodes take the row-local arithmetic of ``sphere_side`` /
``classify_balls_sphere``.  Either way every row sees exactly the
arithmetic the pointer walk applies to it, so the leaf each query
reaches and every containment pair the march reports are bit-identical
to :meth:`~repro.core.partition_tree.PartitionNode.leaf_of_point` and
:func:`~repro.core.correction.march_balls`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .. import kernels
from ..geometry.spheres import Sphere
from ..core.partition_tree import PartitionNode

__all__ = ["FlatTree", "FlatMarchResult"]

#: Most (ball, point) pairs one containment pass materializes.
MARCH_PAIR_CHUNK = 1 << 16


@dataclass
class FlatMarchResult:
    """Outcome of :meth:`FlatTree.march`.

    ``ball_rows[i]``/``point_ids[i]`` is one containment pair of a march
    that succeeded; a march over its cap reports none.  ``succeeded`` is
    per march, and so are the counts
    :class:`~repro.core.correction.MarchResult` keeps: ``level_active``
    (the march's (ball, node) instances at each step), ``label_tests``,
    ``leaf_tests`` and ``pairs``.  The counts are tallied from the
    march's step records on first read, so a caller that needs only the
    pairs (a query) never pays for them.
    """

    ball_rows: np.ndarray
    point_ids: np.ndarray
    succeeded: np.ndarray
    march_of: np.ndarray
    step_rows: List[np.ndarray]
    inner_rows: List[np.ndarray]
    leaf_rows: np.ndarray
    leaf_sizes: np.ndarray

    def _per_march(self, rows: np.ndarray, weights=None) -> np.ndarray:
        n_marches = self.succeeded.shape[0]
        counts = np.bincount(self.march_of[rows], weights, minlength=n_marches)
        return counts.astype(np.int64, copy=False)

    @cached_property
    def level_active(self) -> List[List[int]]:
        # a march has instances from step 0 through its last step, so its
        # entries are its column of the per-step counts up to the first 0
        per_step = [self._per_march(rows) for rows in self.step_rows]
        cols = np.array(per_step, dtype=np.int64).reshape(
            len(per_step), self.succeeded.shape[0]
        ).T
        depth = np.count_nonzero(cols, axis=1).tolist()
        return [col[:dd] for col, dd in zip(cols.tolist(), depth)]

    @cached_property
    def label_tests(self) -> np.ndarray:
        return self._per_march(np.concatenate(self.inner_rows))

    @cached_property
    def leaf_tests(self) -> np.ndarray:
        return self._per_march(self.leaf_rows, self.leaf_sizes)

    @cached_property
    def pairs(self) -> np.ndarray:
        return self._per_march(self.ball_rows)


@dataclass(frozen=True)
class FlatTree:
    """Preorder array form of a partition tree.

    ``left``/``right`` hold preorder node indices (-1 at leaves).
    ``centers``/``radii`` hold a sphere node's center and radius; at a
    hyperplane node (its preorder index is in ``planes``, ascending)
    they hold the unit normal and the offset; at leaves they are zero.
    ``leaf_ord`` maps a leaf node to its left-to-right ordinal (-1 at
    internal nodes); leaf ``j`` owns
    ``leaf_ids[leaf_offsets[j]:leaf_offsets[j + 1]]``.
    """

    centers: np.ndarray
    radii: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_ord: np.ndarray
    leaf_ids: np.ndarray
    leaf_offsets: np.ndarray
    planes: np.ndarray

    @property
    def n_nodes(self) -> int:
        return int(self.left.shape[0])

    @property
    def n_leaves(self) -> int:
        return int(self.leaf_offsets.shape[0] - 1)

    def arrays(self) -> Dict[str, np.ndarray]:
        """The fields by name (no copies) — what snapshots ship."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_tree(tree: PartitionNode) -> "FlatTree":
        """Flatten a pointer tree (the recursive engines'); hyperplane
        nodes are listed in ``planes``.  The frontier engines and the
        online index write their columns directly
        (:class:`~repro.core.columns.TreeColumns`)."""
        centers: List[Optional[np.ndarray]] = []
        radii: List[float] = []
        left: List[int] = []
        right: List[int] = []
        leaf_ord: List[int] = []
        planes: List[int] = []
        leaf_blocks: List[np.ndarray] = []
        dim = None
        # iterative preorder with parent back-patching (deep-tree safe)
        stack: List[Tuple[PartitionNode, int, int]] = [(tree, -1, 0)]
        while stack:
            node, parent, slot = stack.pop()
            my = len(left)
            if parent >= 0:
                if slot == 0:
                    left[parent] = my
                else:
                    right[parent] = my
            if node.is_leaf:
                centers.append(None)
                radii.append(0.0)
                left.append(-1)
                right.append(-1)
                leaf_ord.append(len(leaf_blocks))
                leaf_blocks.append(np.asarray(node.indices, dtype=np.int64))
                continue
            sep = node.separator
            if isinstance(sep, Sphere):
                centers.append(sep.center)
                radii.append(sep.radius)
            else:  # Hyperplane
                centers.append(sep.normal)  # type: ignore[union-attr]
                radii.append(sep.offset)  # type: ignore[union-attr]
                planes.append(my)
            if dim is None:
                dim = centers[-1].shape[0]  # type: ignore[union-attr]
            left.append(-2)  # patched by the children
            right.append(-2)
            leaf_ord.append(-1)
            # push right first so the left child is visited (and numbered)
            # next: preorder, leaves emerge left to right
            stack.append((node.right, my, 1))  # type: ignore[arg-type]
            stack.append((node.left, my, 0))  # type: ignore[arg-type]
        if dim is None:  # single-leaf tree: no separators to read d from
            dim = 1
        n = len(left)
        centers_arr = np.zeros((n, dim), dtype=np.float64)
        for i, c in enumerate(centers):
            if c is not None:
                centers_arr[i] = c
        lengths = [b.shape[0] for b in leaf_blocks]
        offsets = np.zeros(len(leaf_blocks) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return FlatTree(
            centers=centers_arr,
            radii=np.asarray(radii, dtype=np.float64),
            left=np.asarray(left, dtype=np.int64),
            right=np.asarray(right, dtype=np.int64),
            leaf_ord=np.asarray(leaf_ord, dtype=np.int64),
            leaf_ids=(
                np.concatenate(leaf_blocks)
                if leaf_blocks
                else np.zeros(0, dtype=np.int64)
            ),
            leaf_offsets=offsets,
            planes=np.asarray(planes, dtype=np.int64),
        )

    def _plane_mask(self) -> Optional[np.ndarray]:
        """Per-node hyperplane flags, or ``None`` for sphere-only trees."""
        if not self.planes.shape[0]:
            return None
        mask = np.zeros(self.n_nodes, dtype=bool)
        mask[self.planes] = True
        return mask

    # -- descent -------------------------------------------------------------

    def descend(self, pts: np.ndarray) -> np.ndarray:
        """Leaf ordinal per row of ``pts``, via the ``descend_spheres`` kernel."""
        return kernels.descend_spheres(
            pts, self.centers, self.radii, self.left, self.right, self.leaf_ord,
            self._plane_mask(),
        )

    def leaf_groups(self, pts: np.ndarray) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(member_ids, rows)`` per leaf that received rows.

        Leaves arrive left to right with ``rows`` ascending (a stable
        sort on the descent's leaf ordinals preserves both), and every
        row lands where
        :meth:`~repro.core.partition_tree.PartitionNode.leaf_of_point`
        would take it.
        """
        ordinals = self.descend(pts)
        if not ordinals.shape[0]:
            return
        order = np.argsort(ordinals, kind="stable")
        sorted_ord = ordinals[order]
        bounds = np.flatnonzero(
            np.concatenate(([True], sorted_ord[1:] != sorted_ord[:-1]))
        )
        bounds = np.append(bounds, sorted_ord.shape[0])
        for b in range(bounds.shape[0] - 1):
            lo, hi = int(bounds[b]), int(bounds[b + 1])
            leaf = int(sorted_ord[lo])
            ids = self.leaf_ids[self.leaf_offsets[leaf] : self.leaf_offsets[leaf + 1]]
            yield ids, order[lo:hi]

    # -- the march -----------------------------------------------------------

    def march(
        self,
        points: np.ndarray,
        centers: np.ndarray,
        radii: np.ndarray,
        starts: Optional[np.ndarray] = None,
        march_of: Optional[np.ndarray] = None,
        caps: Optional[np.ndarray] = None,
    ) -> FlatMarchResult:
        """Every strict containment pair of balls ``B(centers[r], radii[r])``.

        ``points`` is the data array the leaf ids refer to.  Ball ``r``
        belongs to march ``march_of[r]`` and starts at preorder node
        ``starts[r]``; march ``j`` may hold at most ``caps[j]`` active
        (ball, node) instances per step.  The default is one march from
        the root with no cap.  One step per tree level moves every active
        instance into each child its ball can meet (both when it
        straddles the separator, Lemma 6.3's reachability), and the
        instances that reached leaves are tested against their leaf
        members in one flat pass.  An infinite radius reaches every leaf
        and contains every point.

        Each march counts exactly as
        :func:`~repro.core.correction.march_balls` does on the subtree
        under its start node: a march over its cap at some step stops
        there, with that step's count as its last ``level_active`` entry,
        and its pairs are dropped.  Pairs come in a different order.
        When the marches start at distinct nodes and list each march's
        balls in the order ``march_balls`` would get them, a hyperplane
        node's classification sees the same row block too.
        """
        nb = centers.shape[0]
        if march_of is None:
            march_of = np.zeros(nb, dtype=np.int64)
        n_marches = 1 if caps is None else caps.shape[0]
        failed = np.zeros(n_marches, dtype=bool)
        any_failed = False
        node = np.zeros(nb, dtype=np.int64) if starts is None else starts
        row = np.arange(nb, dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        step_rows: List[np.ndarray] = []
        inner_rows: List[np.ndarray] = [empty]
        leaf_nodes: List[np.ndarray] = [empty]
        leaf_rows: List[np.ndarray] = [empty]
        plane_mask = self._plane_mask()
        while row.shape[0]:
            step_rows.append(row)
            if caps is not None:
                over = np.bincount(march_of[row], minlength=n_marches) > caps
                if over.any():
                    failed |= over
                    any_failed = True
                    keep = ~over[march_of[row]]
                    node, row = node[keep], row[keep]
            child = self.left[node]
            at_leaf = child < 0
            if at_leaf.any():
                leaf_nodes.append(node[at_leaf])
                leaf_rows.append(row[at_leaf])
                inner = ~at_leaf
                node, row, child = node[inner], row[inner], child[inner]
            inner_rows.append(row)
            if not row.shape[0]:
                break
            to_left, to_right = self._sides(centers, radii, node, row, plane_mask)
            node = np.concatenate((child[to_left], self.right[node[to_right]]))
            row = np.concatenate((row[to_left], row[to_right]))
        leaf_row = np.concatenate(leaf_rows)
        ords = self.leaf_ord[np.concatenate(leaf_nodes)]
        first = self.leaf_offsets[ords]
        sizes = self.leaf_offsets[ords + 1] - first
        ok = ~failed[march_of[leaf_row]] if any_failed else slice(None)
        ball_rows, point_ids = self._contained(
            points, centers, radii, leaf_row[ok], first[ok], sizes[ok]
        )
        return FlatMarchResult(
            ball_rows=ball_rows,
            point_ids=point_ids,
            succeeded=~failed,
            march_of=march_of,
            step_rows=step_rows,
            inner_rows=inner_rows,
            leaf_rows=leaf_row,
            leaf_sizes=sizes,
        )

    def _sides(
        self,
        centers: np.ndarray,
        radii: np.ndarray,
        node: np.ndarray,
        row: np.ndarray,
        plane_mask: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Which children each (ball, internal node) instance enters.

        A ball enters the left child unless it lies strictly outside
        the separator, and the right child unless strictly inside: the
        ``ball_reach`` masks of the row-local sphere offset, the rule
        ``classify_balls_sphere`` applies (an infinite radius enters
        both).
        """
        to_left, to_right = kernels.ball_reach(
            kernels.sphere_offset(centers[row] - self.centers[node], self.radii[node]),
            radii[row],
        )
        if plane_mask is None:
            return to_left, to_right
        # a node's instances sit in ascending row order (rows start in
        # order at their start nodes, and every step filters
        # order-preservingly), so a stable sort by node hands each
        # hyperplane the row group — and hence the gemv — the pointer
        # walk gives it
        pl = np.flatnonzero(plane_mask[node])
        pl = pl[np.argsort(node[pl], kind="stable")]
        for group in np.split(pl, np.flatnonzero(np.diff(node[pl])) + 1):
            if not group.shape[0]:
                continue
            nd, rows = node[group[0]], row[group]
            cls = kernels.classify_balls_hyperplane(
                centers[rows], radii[rows], self.centers[nd], self.radii[nd]
            )
            to_left[group] = cls <= 0
            to_right[group] = cls >= 0
        return to_left, to_right

    def _contained(
        self,
        points: np.ndarray,
        centers: np.ndarray,
        radii: np.ndarray,
        leaf_rows: np.ndarray,
        starts: np.ndarray,
        counts: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Strict containment over every (ball, leaf member) pair.

        Ball ``leaf_rows[i]`` reached a leaf holding
        ``leaf_ids[starts[i]:starts[i] + counts[i]]``.  Diff-based and
        row-local like the leaf test of
        :func:`~repro.core.correction.march_balls` (upcast before
        subtracting, so float32 storage compares in float64), in passes
        of at most :data:`MARCH_PAIR_CHUNK` pairs.
        """
        ends = np.cumsum(counts)
        # the ball side of each pair, once per (ball, leaf) instance
        ball_centers = centers[leaf_rows].astype(np.float64, copy=False)
        ball_radii = radii[leaf_rows]
        ball_sq_radii = np.square(ball_radii)
        infinite = np.isinf(ball_radii)
        any_infinite = infinite.any()
        out_rows: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
        out_ids: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
        lo = 0
        while lo < counts.shape[0]:
            done = int(ends[lo - 1]) if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, done + MARCH_PAIR_CHUNK, "right")))
            cnt = counts[lo:hi]
            total = int(ends[hi - 1]) - done
            first = np.repeat(starts[lo:hi] - (ends[lo:hi] - cnt - done), cnt)
            ids = self.leaf_ids[first + np.arange(total, dtype=np.int64)]
            rows = np.repeat(leaf_rows[lo:hi], cnt)
            diff = np.repeat(ball_centers[lo:hi], cnt, axis=0)
            diff -= points[ids].astype(np.float64, copy=False)
            sq = np.einsum("md,md->m", diff, diff)
            inside = sq < np.repeat(ball_sq_radii[lo:hi], cnt)
            if any_infinite:
                inside |= np.repeat(infinite[lo:hi], cnt)
            out_rows.append(rows[inside])
            out_ids.append(ids[inside])
            lo = hi
        return np.concatenate(out_rows), np.concatenate(out_ids)
