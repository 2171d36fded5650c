"""Partition trees of spheres produced by the divide and conquer.

The fast algorithm (Section 6) does not only *use* separators to divide —
it keeps them: the recursion's tree of spheres is exactly the structure
the Fast Correction marches straddling balls down (Lemma 6.3).  A
:class:`PartitionNode` therefore records the separator, the global indices
of the points it governs, and its children; leaves hold the indices
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

import numpy as np

from ..geometry.spheres import Hyperplane, Sphere

__all__ = ["PartitionNode"]

SeparatorLike = Union[Sphere, Hyperplane]


def _as_float(points: np.ndarray) -> np.ndarray:
    """Float view of query points, preserving float32 storage.

    Descent arithmetic upcasts float32 coordinates elementwise inside the
    side-test kernels, so keeping the array in its stored dtype avoids a
    full silent upcast copy per query batch without changing a single
    classified side.
    """
    pts = np.asarray(points)
    if pts.dtype not in (np.float32, np.float64):
        pts = pts.astype(np.float64)
    return pts


@dataclass
class PartitionNode:
    """One node of the divide-and-conquer partition tree.

    ``indices`` are global point ids (into the original array) of every
    point in this node's subproblem.  Internal nodes have a ``separator``
    and exactly two children (interior = left, exterior = right); leaves
    have neither.
    """

    indices: np.ndarray
    separator: Optional[SeparatorLike] = None
    left: Optional["PartitionNode"] = None
    right: Optional["PartitionNode"] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=np.int64)
        internal = self.separator is not None
        if internal != (self.left is not None and self.right is not None):
            raise ValueError("internal nodes need a separator and two children; leaves neither")

    @property
    def is_leaf(self) -> bool:
        return self.separator is None

    @property
    def size(self) -> int:
        return int(self.indices.shape[0])

    def height(self) -> int:
        """Length (in edges) of the longest root-leaf path.

        Iterative (explicit stack): degenerate workloads can produce trees
        far deeper than Python's recursion limit.
        """
        best = 0
        stack = [(self, 0)]
        while stack:
            node, depth = stack.pop()
            if node.is_leaf:
                best = max(best, depth)
            else:
                stack.append((node.left, depth + 1))  # type: ignore[arg-type]
                stack.append((node.right, depth + 1))  # type: ignore[arg-type]
        return best

    def leaves(self) -> Iterator["PartitionNode"]:
        """All leaves, left to right (iterative, deep-tree safe)."""
        stack = [self]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node
            else:
                stack.append(node.right)  # type: ignore[arg-type]
                stack.append(node.left)  # type: ignore[arg-type]

    def nodes(self) -> Iterator["PartitionNode"]:
        """All nodes, preorder (iterative, deep-tree safe)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.append(node.right)  # type: ignore[arg-type]
                stack.append(node.left)  # type: ignore[arg-type]

    def leaf_of_point(self, point: np.ndarray) -> "PartitionNode":
        """Descend by point-in-sphere tests to the leaf owning ``point``.

        On-separator points descend left (interior), matching the paper's
        query convention.
        """
        node = self
        p = _as_float(point)[None, :]
        while not node.is_leaf:
            side = node.separator.side_of_points(p)[0]  # type: ignore[union-attr]
            node = node.left if side < 0 else node.right  # type: ignore[assignment]
        return node

    def check_partition(self) -> bool:
        """Invariant: children's indices partition the parent's (as sets)."""
        for node in self.nodes():
            if node.is_leaf:
                continue
            combined = np.sort(
                np.concatenate([node.left.indices, node.right.indices])  # type: ignore[union-attr]
            )
            if combined.shape != node.indices.shape or not np.array_equal(
                combined, np.sort(node.indices)
            ):
                return False
        return True
