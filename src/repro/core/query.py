"""The neighborhood query structure (Section 3 of the paper).

Given a k-ply neighborhood system ``B``, build a binary tree of sphere
separators so that queries "which balls contain point p?" run in
O(k + log n): each internal node stores a separator S, the left subtree
indexes ``B_I(S) ∪ B_O(S)`` (balls meeting S or its interior), the right
subtree ``B_E(S) ∪ B_O(S)``; leaves hold at most ``m0`` balls which a query
checks exhaustively.  Straddling balls are *duplicated* into both children —
the whole point of using sphere separators is that only ``O(m^mu)`` balls
straddle, so total space stays O(n) (Lemma 3.1).

Both constructions of the paper are provided through one code path:

- the sequential random O(n log n) build, and
- Parallel Neighborhood Querying (Section 3.3): identical tree, but the
  two recursive builds compose as parallel branches on the machine ledger,
  so the measured depth is the paper's O(log n) claim (Theorem 3.1).

Termination is guaranteed Las-Vegas-style: a node retries separators until
one both delta-splits the centers and cuts at most its iota budget *and*
strictly shrinks both children; after ``max_attempts`` failures the node
becomes an (oversized) fallback leaf — correctness never depends on luck,
only the O(log n) height does, exactly as in the paper's "random time"
convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from ..geometry.balls import BallSystem
from ..geometry.points import as_points
from ..geometry.spheres import Hyperplane, Sphere
from ..obs.metrics import MetricsView
from ..pvm.cost import Cost
from ..pvm.machine import Machine
from ..separators.quality import default_delta, is_good_point_split
from ..separators.unit_time import UnitTimeSeparator
from .config import CommonConfig

__all__ = ["QueryConfig", "QueryStats", "QueryNode", "NeighborhoodQueryStructure"]

SeparatorLike = Union[Sphere, Hyperplane]


@dataclass(frozen=True)
class QueryConfig(CommonConfig):
    """Tuning knobs of the search-structure build.

    ``base_case_size`` is the leaf capacity of
    Lemma 3.1 (any constant large enough that ``m^mu <= (1-delta)/2 * m``
    for ``m > base_case_size`` works; 32 is comfortable for d <= 4).
    ``mu`` defaults to the separator theorem's exponent ``(d-1)/d`` plus
    slack; ``iota_factor`` is the constant in the iota budget
    ``iota_factor * m^mu``.  ``base_case_size``, ``seed``, ``mu`` and
    ``iota_budget`` come from :class:`~repro.core.config.CommonConfig`.
    """

    base_case_size: int = 32
    epsilon: float = 0.05
    mu_slack: float = 0.10
    iota_factor: float = 3.0
    max_attempts: int = 24
    sample_size: Optional[int] = None


class QueryStats(MetricsView):
    """Build/shape statistics used by experiment E3.

    A thin view over a :class:`~repro.obs.metrics.Metrics` registry (keys
    namespaced ``query.*``); each structure owns a private registry so
    multiple builds on one machine do not clobber each other.  Attribute
    surface unchanged: ``n_balls``, ``height``, ``leaves``,
    ``stored_balls``, ``attempts``, ``fallback_leaves``, ``duplications``.
    """

    _NS = "query"
    _COUNTER_FIELDS = (
        "n_balls",
        "height",
        "leaves",
        "stored_balls",
        "attempts",
        "fallback_leaves",
        "duplications",
    )

    @property
    def space_ratio(self) -> float:
        """Stored balls per input ball — Lemma 3.1 says O(1)."""
        return self.stored_balls / self.n_balls if self.n_balls else 0.0


@dataclass
class QueryNode:
    """Internal: separator + two children.  Leaf: ball ids (into the system)."""

    ball_ids: np.ndarray
    separator: Optional[SeparatorLike] = None
    left: Optional["QueryNode"] = None
    right: Optional["QueryNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.separator is None

    def height(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(self.left.height(), self.right.height())  # type: ignore[union-attr]


class NeighborhoodQueryStructure:
    """Separator-based search structure over a ball system.

    Parameters
    ----------
    balls:
        The neighborhood system to index.
    machine:
        Optional cost ledger.  When given, recursive child builds compose
        as parallel branches (the Section 3.3 parallel construction) and
        queries charge descent costs.
    seed:
        RNG or seed for the separator draws.
    config:
        :class:`QueryConfig`; defaults reproduce the paper's parameters.
    """

    def __init__(
        self,
        balls: BallSystem,
        machine: Optional[Machine] = None,
        seed: object = None,
        config: QueryConfig = QueryConfig(),
    ) -> None:
        self.balls = balls
        self.config = config
        self.machine = machine
        self.stats = QueryStats(n_balls=len(balls))
        self._rng = config.rng(seed)
        ids = np.arange(len(balls), dtype=np.int64)
        if machine is not None:
            with machine.span("query.build", n_balls=len(balls)):
                self.root = self._build(ids)
        else:
            self.root = self._build(ids)
        self.stats.height = self.root.height()
        for leaf in self._leaves(self.root):
            self.stats.leaves += 1
            self.stats.stored_balls += int(leaf.ball_ids.shape[0])

    # -- construction ------------------------------------------------------

    def _charge(self, cost: Cost) -> None:
        if self.machine is not None:
            self.machine.charge(cost)

    def _build(self, ids: np.ndarray) -> QueryNode:
        m = ids.shape[0]
        cfg = self.config
        if m <= cfg.base_case_size:
            return QueryNode(ball_ids=ids)
        centers = self.balls.centers[ids]
        radii = self.balls.radii[ids]
        d = centers.shape[1]
        delta = default_delta(d, cfg.epsilon)
        sep = self._find_separator(centers, radii, ids, delta)
        if sep is None:
            self.stats.fallback_leaves += 1
            return QueryNode(ball_ids=ids)
        separator, left_ids, right_ids, cut = sep
        self.stats.duplications += cut
        machine = self.machine
        if machine is None:
            left = self._build(left_ids)
            right = self._build(right_ids)
        else:
            results: List[Optional[QueryNode]] = [None, None]
            with machine.parallel() as par:
                with par.branch():
                    results[0] = self._build(left_ids)
                with par.branch():
                    results[1] = self._build(right_ids)
            left, right = results  # type: ignore[assignment]
        return QueryNode(ball_ids=ids, separator=separator, left=left, right=right)

    def _find_separator(
        self, centers: np.ndarray, radii: np.ndarray, ids: np.ndarray, delta: float
    ) -> Optional[Tuple[SeparatorLike, np.ndarray, np.ndarray, int]]:
        """Retry unit-time draws until split + iota budget + progress hold."""
        m = ids.shape[0]
        d = centers.shape[1]
        cfg = self.config
        budget = cfg.iota_budget(m, d)
        machine = self.machine or _NULL_MACHINE
        try:
            unit = UnitTimeSeparator(centers, seed=self._rng, sample_size=cfg.sample_size)
        except ValueError:
            return None
        for attempt in range(1, cfg.max_attempts + 1):
            self.stats.attempts += 1
            try:
                candidate = unit.attempt(machine)
            except RuntimeError:
                continue
            if not is_good_point_split(candidate, centers, delta):
                continue
            cls = candidate.classify_balls(centers, radii)
            machine.charge(machine.ewise_cost(m, 2.0))
            cut = int(np.count_nonzero(cls == 0))
            if cut > budget:
                continue
            left_ids = ids[cls <= 0]
            right_ids = ids[cls >= 0]
            machine.charge(machine.scan_cost(m).then(machine.permute_cost(m)))
            if left_ids.shape[0] >= m or right_ids.shape[0] >= m:
                continue
            if left_ids.shape[0] == 0 or right_ids.shape[0] == 0:
                continue
            return candidate, left_ids, right_ids, cut
        return None

    @staticmethod
    def _leaves(node: QueryNode):
        if node.is_leaf:
            yield node
        else:
            yield from NeighborhoodQueryStructure._leaves(node.left)  # type: ignore[arg-type]
            yield from NeighborhoodQueryStructure._leaves(node.right)  # type: ignore[arg-type]

    # -- queries -------------------------------------------------------------

    def query(self, point: np.ndarray, *, closed: bool = False) -> np.ndarray:
        """Ball ids whose interior (or closure) contains ``point``.

        Descends by point-vs-sphere tests (on-sphere goes left), then
        checks the leaf's balls exhaustively; O(height + leaf size).
        """
        p = np.asarray(point, dtype=np.float64)
        node = self.root
        steps = 0
        while not node.is_leaf:
            side = node.separator.side_of_points(p[None, :])[0]  # type: ignore[union-attr]
            node = node.left if side < 0 else node.right  # type: ignore[assignment]
            steps += 1
        ids = node.ball_ids
        self._charge(Cost(float(steps + max(1, ids.shape[0])), float(steps + ids.shape[0])))
        centers = self.balls.centers[ids]
        radii = self.balls.radii[ids]
        diff = centers - p[None, :]
        sq = np.einsum("ij,ij->i", diff, diff)
        r2 = np.square(radii)
        mask = sq <= r2 if closed else sq < r2
        mask |= np.isinf(radii)
        return ids[mask]

    def query_many(self, points: np.ndarray, *, closed: bool = False) -> Tuple[np.ndarray, np.ndarray]:
        """All containment pairs for a batch of query points.

        Returns ``(point_rows, ball_ids)`` — parallel arrays with one entry
        per (query point, covering ball) pair.  The descent is vectorized
        level by level; the machine (if any) is charged depth
        O(height + max leaf size) and work O(#points * height + leaf
        tests), matching the parallel-correction usage of Section 5.
        """
        pts = as_points(points)
        rows = np.arange(pts.shape[0], dtype=np.int64)
        out_rows: List[np.ndarray] = []
        out_balls: List[np.ndarray] = []
        machine = self.machine
        if machine is not None and machine.tracer is not None:
            with machine.span("query.probe", n_points=int(pts.shape[0])):
                return self._query_many_impl(pts, rows, out_rows, out_balls, closed)
        return self._query_many_impl(pts, rows, out_rows, out_balls, closed)

    def _query_many_impl(
        self,
        pts: np.ndarray,
        rows: np.ndarray,
        out_rows: List[np.ndarray],
        out_balls: List[np.ndarray],
        closed: bool,
    ) -> Tuple[np.ndarray, np.ndarray]:
        machine = self.machine

        def descend(node: QueryNode, prows: np.ndarray) -> None:
            if prows.shape[0] == 0:
                return
            if node.is_leaf:
                ids = node.ball_ids
                if ids.shape[0] == 0:
                    return
                if machine is not None:
                    machine.charge(
                        Cost(float(ids.shape[0]), float(ids.shape[0] * prows.shape[0]))
                    )
                centers = self.balls.centers[ids]
                r2 = np.square(self.balls.radii[ids])
                qq = pts[prows]
                # diff-based kernel (robust near ball boundaries)
                diff = qq[:, None, :] - centers[None, :, :]
                sq = np.einsum("qbd,qbd->qb", diff, diff)
                mask = sq <= r2[None, :] if closed else sq < r2[None, :]
                mask |= np.isinf(self.balls.radii[ids])[None, :]
                pi, bi = np.nonzero(mask)
                out_rows.append(prows[pi])
                out_balls.append(ids[bi])
                return
            if machine is not None:
                machine.charge(machine.ewise_cost(prows.shape[0], 2.0))
                machine.charge(machine.scan_cost(prows.shape[0]).then(machine.permute_cost(prows.shape[0])))
            side = node.separator.side_of_points(pts[prows])  # type: ignore[union-attr]
            left_rows = prows[side < 0]
            right_rows = prows[side >= 0]
            if machine is None:
                descend(node.left, left_rows)  # type: ignore[arg-type]
                descend(node.right, right_rows)  # type: ignore[arg-type]
            else:
                with machine.parallel() as par:
                    with par.branch():
                        descend(node.left, left_rows)  # type: ignore[arg-type]
                    with par.branch():
                        descend(node.right, right_rows)  # type: ignore[arg-type]

        descend(self.root, rows)
        if not out_rows:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        return np.concatenate(out_rows), np.concatenate(out_balls)


class _NullMachine(Machine):
    """Cost sink used when no ledger was supplied (charges are discarded)."""

    def charge(self, cost: Cost) -> None:  # noqa: D102 - trivial override
        pass

    def bump(self, counter: str, by: int = 1) -> None:  # noqa: D102
        pass


_NULL_MACHINE = _NullMachine()
