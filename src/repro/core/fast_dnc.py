"""Parallel Nearest Neighborhood — the O(log n) algorithm (Section 6).

The headline contribution: compute the k-neighborhood system (and hence the
k-NN graph) of n points in R^d in randomized O(log n) depth with n
processors on the scan-vector model.

Structure, following the paper's pseudo-code verbatim:

1. base case: small subproblems solved by testing all pairs ("in m time
   using m processors");
2. otherwise, repeat the Unit Time Sphere Separator Algorithm until a
   sphere delta-splits the points;
3. recurse on interior and exterior *in parallel*;
4. **Correction**: if the straddler count ``iota`` is at most ``m^mu``,
   run Fast Correction (march straddlers down the opposite partition tree
   in O(1) depth, Lemma 6.3); otherwise *punt* — rebuild via the
   neighborhood query structure in O(log m) depth.  By the Punting Lemma
   (4.1) the punts cost only a constant factor overall.

The implementation is exact (Las-Vegas): randomness moves cost between the
fast path and the punt path but the returned neighbor lists always equal
the brute-force answer (up to distance ties).  Every probabilistic event
the analysis tracks — separator retries, iota sizes, marching level
actives, punts — is recorded in :class:`FastDnCStats` for experiments
E5/E7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from ..geometry.balls import BallSystem
from ..geometry.points import as_points
from ..geometry.spheres import Hyperplane, Sphere
from ..obs.metrics import MetricsView
from ..pvm.cost import Cost
from ..pvm.machine import Machine
from ..separators.quality import default_delta
from ..separators.unit_time import SeparatorFailure, find_good_separator
from ..util.recursion import estimated_tree_levels, recursion_guard
from ..util.rng import path_rng, seed_sequence_root
from .config import CommonConfig
from .correction import apply_candidate_pairs_batch, march_balls, query_correction_pairs
from .knn_graph import KNNResult
from .neighborhood import (
    KNeighborhoodSystem,
    base_case_cost,
    brute_force_neighbors,
    selection_cost,
    selection_depth,
)
from .partition_tree import PartitionNode
from .query import QueryConfig

__all__ = ["FastDnCConfig", "FastDnCStats", "parallel_nearest_neighborhood"]

SeparatorLike = Union[Sphere, Hyperplane]


@dataclass(frozen=True)
class FastDnCConfig(CommonConfig):
    """Parameters of the fast algorithm.

    ``mu`` (via ``mu_slack``) is the straddler-budget exponent of the
    separator theorem, ``(d-1)/d + slack``; a node whose straddler count
    exceeds ``iota_factor * m^mu`` punts immediately.  The marching cap is
    ``active_factor * m^active_exponent`` with ``active_exponent =
    mu + active_slack`` (Lemma 6.2's ``m^(1-eta)``).  ``base_case_size``
    and ``base_factor`` set the brute-force
    base-case threshold ``max(base_case_size, base_factor * (k+1))`` —
    large enough that no recursive subproblem ever has fewer than k+1
    points on both sides of a split.  ``fc_depth`` is the constant depth
    charged for a successful Fast Correction (the paper's constant number
    of label-and-scan phases).  ``base_case_size``, ``seed``, ``mu``,
    ``iota_budget`` and ``base_size`` come from
    :class:`~repro.core.config.CommonConfig`.
    """

    base_factor: int = 4
    epsilon: float = 0.05
    mu_slack: float = 0.10
    iota_factor: float = 3.0
    active_factor: float = 4.0
    active_slack: float = 0.05
    max_attempts: int = 48
    sample_size: Optional[int] = None
    fc_depth: float = 4.0
    query: QueryConfig = field(default_factory=lambda: QueryConfig())

    def active_cap(self, m: int, d: int, k: int = 1) -> float:
        expo = min(0.99, self.mu(d) + self.active_slack)
        return max(8.0, self.active_factor * k ** (1.0 / d) * m**expo)


class FastDnCStats(MetricsView):
    """Event counts and probabilistic traces of one run.

    A thin view over a :class:`~repro.obs.metrics.Metrics` registry (keys
    namespaced ``fast.*``); the historical attribute surface — ``nodes``,
    ``base_cases``, ``separator_attempts``, ``punts_iota``,
    ``punts_marching``, ``punts_separator``, ``straddler_fraction``,
    ``marching_level_active``, ``corrections_fast``, ``corrections_none``
    — is unchanged.
    """

    _NS = "fast"
    _COUNTER_FIELDS = (
        "nodes",
        "base_cases",
        "separator_attempts",
        "punts_iota",
        "punts_marching",
        "punts_separator",
        "corrections_fast",
        "corrections_none",
    )
    _SERIES_FIELDS = ("straddler_fraction", "marching_level_active")

    @property
    def punts(self) -> int:
        """Total punt events (iota + marching + separator failures)."""
        return self.punts_iota + self.punts_marching + self.punts_separator


def parallel_nearest_neighborhood(
    points: np.ndarray,
    k: int = 1,
    *,
    machine: Optional[Machine] = None,
    seed: object = None,
    config: FastDnCConfig = FastDnCConfig(),
) -> KNNResult:
    """Compute the exact k-neighborhood system by sphere-separator DnC.

    Parameters
    ----------
    points:
        (n, d) input points, n >= 1.
    k:
        Neighbors per point (fixed small k is the paper's regime; any
        ``1 <= k < n`` works, with the predicted extra ``O(log log k)``
        depth factor charged on corrections).
    machine:
        Cost ledger; a fresh unit-scan :class:`Machine` by default.
    seed:
        RNG or seed (cost-only randomness; the output is deterministic
        up to distance ties).  ``None`` falls back to ``config.seed``.
    config:
        :class:`FastDnCConfig`.

    Returns
    -------
    KNNResult
        With exact ``system`` (validated against brute force in the test
        suite), the partition ``tree``, and ``stats``; ``method="fast"``.
    """
    pts = as_points(points, min_points=1, dtype=config.np_dtype())
    n, d = pts.shape
    if not 1 <= k < max(2, n):
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
    if machine is None:
        machine = Machine()
    root_ss = seed_sequence_root(seed if seed is not None else config.seed)
    stats = FastDnCStats(metrics=machine.metrics)
    nbr_idx = np.full((n, k), -1, dtype=np.int64)
    nbr_sq = np.full((n, k), np.inf)
    base = config.base_size(k)
    if config.engine == "frontier":
        from .frontier import _FastFrontier as engine
    elif config.engine == "frontier-mp":
        from ..parallel.engine import _ParallelFastFrontier as engine
    else:
        engine = _Runner
    tree = engine(pts, k, machine, root_ss, config, stats, nbr_idx, nbr_sq, base).run()
    system = KNeighborhoodSystem(pts, k, nbr_idx, nbr_sq)
    return KNNResult(system=system, machine=machine, method="fast", tree=tree, stats=stats, k=k)


class _Runner:
    """Recursion state shared across the divide and conquer.

    Randomness is *per node*: each partition-tree node derives its own
    generator from the run's seed root and the node's 0/1 path
    (:func:`~repro.util.rng.path_rng`), so the stream a node consumes does
    not depend on traversal order.  The frontier engine
    (:mod:`repro.core.frontier`) derives the same streams, which is what
    makes the two engines produce identical runs from identical seeds.
    """

    def __init__(
        self,
        points: np.ndarray,
        k: int,
        machine: Machine,
        root_ss: np.random.SeedSequence,
        config: FastDnCConfig,
        stats: FastDnCStats,
        nbr_idx: np.ndarray,
        nbr_sq: np.ndarray,
        base: int,
    ) -> None:
        self.points = points
        self.k = k
        self.machine = machine
        self.root_ss = root_ss
        self.config = config
        self.stats = stats
        self.nbr_idx = nbr_idx
        self.nbr_sq = nbr_sq
        self.base = base
        self.dim = points.shape[1]

    def run(self) -> PartitionNode:
        """Solve the whole input; returns the partition tree's root."""
        n = self.points.shape[0]
        levels = estimated_tree_levels(n, self.base, default_delta(self.dim, self.config.epsilon))
        with recursion_guard(levels):
            return self.solve(np.arange(n, dtype=np.int64))

    # -- base case -----------------------------------------------------------

    def brute_force(self, ids: np.ndarray) -> None:
        """All-pairs k nearest within the subset; paper's deterministic base,
        charged :func:`~repro.core.neighborhood.base_case_cost`."""
        m = ids.shape[0]
        self.stats.base_cases += 1
        self.machine.metrics.observe("fast.base_case_sizes", m)
        with self.machine.section("base"):
            self.machine.charge(base_case_cost(m))
        brute_force_neighbors(self.points, ids, self.k, self.nbr_idx, self.nbr_sq)

    # -- recursion -------------------------------------------------------------

    def solve(self, ids: np.ndarray, level: int = 0, path: Tuple[int, ...] = ()) -> PartitionNode:
        with self.machine.span("fast.node", level=level, m=int(ids.shape[0])) as span:
            return self._solve(ids, level, path, span)

    def _solve(self, ids: np.ndarray, level: int, path: Tuple[int, ...], span) -> PartitionNode:
        m = ids.shape[0]
        self.stats.nodes += 1
        if m <= self.base:
            self.brute_force(ids)
            return PartitionNode(indices=ids)
        rng = path_rng(self.root_ss, path)
        sub = self.points[ids]
        try:
            with self.machine.section("divide"):
                separator, attempts = find_good_separator(
                    sub,
                    self.machine,
                    seed=rng,
                    epsilon=self.config.epsilon,
                    max_attempts=self.config.max_attempts,
                    sample_size=self.config.sample_size,
                )
            self.stats.separator_attempts += attempts
            if span is not None:
                span.attrs["separator_attempts"] = attempts
        except SeparatorFailure:
            # pathological multiset (e.g. almost all points identical):
            # solve this subproblem exhaustively — correctness first.
            self.stats.punts_separator += 1
            if span is not None:
                span.attrs["punted"] = True
            self.brute_force(ids)
            return PartitionNode(indices=ids)
        side = separator.side_of_points(sub)
        self.machine.charge(self.machine.ewise_cost(m, 2.0))
        self.machine.charge(self.machine.scan_cost(m).then(self.machine.permute_cost(m)))
        in_ids = ids[side < 0]
        ex_ids = ids[side > 0]
        children: List[Optional[PartitionNode]] = [None, None]
        with self.machine.parallel() as par:
            with par.branch():
                children[0] = self.solve(in_ids, level + 1, path + (0,))
            with par.branch():
                children[1] = self.solve(ex_ids, level + 1, path + (1,))
        node = PartitionNode(
            indices=ids, separator=separator, left=children[0], right=children[1]
        )
        with self.machine.section("correct"):
            self.correct(node, in_ids, ex_ids, rng)
        if span is not None:
            span.attrs["iota"] = node.meta.get("iota", 0)
            span.attrs["punted"] = node.meta.get("punted", False)
        return node

    # -- correction --------------------------------------------------------------

    def correct(
        self,
        node: PartitionNode,
        in_ids: np.ndarray,
        ex_ids: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """Fix straddling balls of both sides (Correction of Section 6.1)."""
        sep = node.separator
        assert sep is not None
        m = node.size
        d = self.dim
        radii_in = np.sqrt(self.nbr_sq[in_ids, -1])
        radii_ex = np.sqrt(self.nbr_sq[ex_ids, -1])
        cls_in = sep.classify_balls(self.points[in_ids], radii_in)
        cls_ex = sep.classify_balls(self.points[ex_ids], radii_ex)
        self.machine.charge(self.machine.ewise_cost(m, 2.0))
        self.machine.charge(self.machine.scan_cost(m))
        straddle_in = in_ids[cls_in == 0]
        straddle_ex = ex_ids[cls_ex == 0]
        iota = straddle_in.shape[0] + straddle_ex.shape[0]
        self.stats.straddler_fraction.append((m, iota))
        node.meta["iota"] = iota
        node.meta["punted"] = False
        if iota == 0:
            self.stats.corrections_none += 1
            return
        if iota >= self.config.iota_budget(m, d, self.k):
            self.stats.punts_iota += 1
            node.meta["punted"] = True
            self._query_correct(straddle_in, ex_ids, rng)
            self._query_correct(straddle_ex, in_ids, rng)
            return
        ok_a = self._fast_correct(node, straddle_in, node.right, m, rng)
        ok_b = self._fast_correct(node, straddle_ex, node.left, m, rng)
        if ok_a and ok_b:
            self.stats.corrections_fast += 1
        else:
            node.meta["punted"] = True

    def _fast_correct(
        self,
        node: PartitionNode,
        straddlers: np.ndarray,
        opposite_tree: Optional[PartitionNode],
        m: int,
        rng: np.random.Generator,
    ) -> bool:
        """Fast Correction of Section 6.2; returns False when it punted."""
        if straddlers.shape[0] == 0 or opposite_tree is None:
            return True
        centers = self.points[straddlers]
        radii = np.sqrt(self.nbr_sq[straddlers, -1])
        cap = self.config.active_cap(m, self.dim, self.k)
        with self.machine.span(
            "correct.march", m=int(m), straddlers=int(straddlers.shape[0])
        ) as span:
            result = march_balls(
                opposite_tree, self.points, centers, radii, active_cap=cap
            )
            self.stats.marching_level_active.append((m, list(result.level_active)))
            if span is not None:
                span.attrs["succeeded"] = result.succeeded
            if not result.succeeded:
                self.stats.punts_marching += 1
                opposite_ids = opposite_tree.indices
                self._query_correct(straddlers, opposite_ids, rng)
                return False
            # constant-depth charge for the label-and-scan phases (Lemma 6.3),
            # plus the k-selection step (O(log log k) for k > 1, Section 6.2)
            work = float(result.label_tests + result.leaf_tests + result.pairs * (self.k + 1))
            self.machine.charge(
                Cost(self.config.fc_depth + selection_depth(self.k), max(work, 1.0))
            )
            apply_candidate_pairs_batch(
                self.points,
                self.nbr_idx,
                self.nbr_sq,
                straddlers[result.ball_rows],
                result.point_ids,
                self.k,
            )
        return True

    def _query_correct(
        self, straddlers: np.ndarray, opposite_ids: np.ndarray, rng: np.random.Generator
    ) -> None:
        """Punt path: query-structure correction (Parallel Neighborhood
        Querying of Section 3.3), O(log m) depth."""
        if straddlers.shape[0] == 0 or opposite_ids.shape[0] == 0:
            return
        self.machine.metrics.inc("fast.punt_corrections")
        with self.machine.span(
            "correct.punt",
            straddlers=int(straddlers.shape[0]),
            opposite=int(opposite_ids.shape[0]),
        ):
            radii = np.sqrt(self.nbr_sq[straddlers, -1])
            system = BallSystem(self.points[straddlers], radii)
            ball_rows, point_ids = query_correction_pairs(
                system,
                self.points[opposite_ids],
                opposite_ids,
                self.machine,
                rng,
                self.config.query,
            )
            self.machine.charge(selection_cost(self.k, point_ids.shape[0]))
            apply_candidate_pairs_batch(
                self.points,
                self.nbr_idx,
                self.nbr_sq,
                straddlers[ball_rows],
                point_ids,
                self.k,
            )
