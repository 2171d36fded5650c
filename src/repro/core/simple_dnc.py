"""Simple Parallel Divide-and-Conquer — the O(log^2 n) algorithm (Section 5).

The stepping-stone algorithm (and, with its hyperplane cuts, a faithful
stand-in for the Bentley / Cole–Goodrich baseline the paper compares
against): split the points in half with a median hyperplane, recurse in
parallel, then correct every ball that intersects the cut by building a
neighborhood query structure over the straddlers and querying the opposite
side's points — an O(log m)-depth correction at *every* level, which is
where the second log factor comes from (Lemma 5.1).

The correction is exact for the same reason as in the fast algorithm
(Lemma 6.1 does not care whether the separator is a sphere or a plane);
the difference is purely cost: a hyperplane can be crossed by Omega(n)
k-NN balls (experiment E8), so there is no fast marching path to take.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..geometry.balls import BallSystem
from ..geometry.points import as_points
from ..obs.metrics import MetricsView
from ..pvm.machine import Machine
from ..separators.hyperplane import find_median_hyperplane
from ..util.recursion import estimated_tree_levels, recursion_guard
from ..util.rng import path_rng, seed_sequence_root
from .config import CommonConfig
from .correction import apply_candidate_pairs_batch, query_correction_pairs
from .knn_graph import KNNResult
from .neighborhood import (
    KNeighborhoodSystem,
    base_case_cost,
    brute_force_neighbors,
    selection_cost,
)
from .partition_tree import PartitionNode
from .query import QueryConfig

# Depth-bound ratio for the recursion guard: median cuts are balanced in
# general position, but tie-pushing under heavy duplication can leave most
# of a segment on one side; 0.9 covers that regime with a still-log bound.
_GUARD_SPLIT_RATIO = 0.9

__all__ = ["SimpleDnCConfig", "SimpleDnCStats", "simple_parallel_dnc"]


@dataclass(frozen=True)
class SimpleDnCConfig(CommonConfig):
    """Parameters of the simple algorithm (see :class:`FastDnCConfig` for
    the shared meanings of ``base_case_size``/``base_factor``;
    ``base_case_size``, ``seed`` and ``base_size`` come from
    :class:`~repro.core.config.CommonConfig`)."""

    base_factor: int = 4
    rotate_axes: bool = True
    query: QueryConfig = field(default_factory=lambda: QueryConfig())


class SimpleDnCStats(MetricsView):
    """Event counts of one run.

    A thin view over a :class:`~repro.obs.metrics.Metrics` registry (keys
    namespaced ``simple.*``); the attribute surface — ``nodes``,
    ``base_cases``, ``degenerate_cuts``, ``straddler_fraction`` — is
    unchanged.
    """

    _NS = "simple"
    _COUNTER_FIELDS = ("nodes", "base_cases", "degenerate_cuts")
    _SERIES_FIELDS = ("straddler_fraction",)


def simple_parallel_dnc(
    points: np.ndarray,
    k: int = 1,
    *,
    machine: Optional[Machine] = None,
    seed: object = None,
    config: SimpleDnCConfig = SimpleDnCConfig(),
) -> KNNResult:
    """Exact k-neighborhood system via hyperplane divide and conquer.

    Same contract as
    :func:`~repro.core.fast_dnc.parallel_nearest_neighborhood` (the
    :class:`~repro.core.knn_graph.KNNResult` has ``method="simple"``);
    only the measured cost profile differs (depth Theta(log^2 n),
    experiment E4).
    """
    pts = as_points(points, min_points=1, dtype=config.np_dtype())
    n, d = pts.shape
    if not 1 <= k < max(2, n):
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
    if machine is None:
        machine = Machine()
    root_ss = seed_sequence_root(seed if seed is not None else config.seed)
    stats = SimpleDnCStats(metrics=machine.metrics)
    nbr_idx = np.full((n, k), -1, dtype=np.int64)
    nbr_sq = np.full((n, k), np.inf)
    base = config.base_size(k)

    def brute(ids: np.ndarray) -> None:
        m = ids.shape[0]
        stats.base_cases += 1
        machine.metrics.observe("simple.base_case_sizes", m)
        with machine.section("base"):
            machine.charge(base_case_cost(m))
        brute_force_neighbors(pts, ids, k, nbr_idx, nbr_sq)

    def correct(
        node: PartitionNode,
        in_ids: np.ndarray,
        ex_ids: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        sep = node.separator
        assert sep is not None
        m = node.size
        for straddle_side, opposite in ((in_ids, ex_ids), (ex_ids, in_ids)):
            if straddle_side.shape[0] == 0 or opposite.shape[0] == 0:
                continue
            radii = np.sqrt(nbr_sq[straddle_side, -1])
            cls = sep.classify_balls(pts[straddle_side], radii)
            machine.charge(machine.ewise_cost(straddle_side.shape[0], 2.0))
            straddlers = straddle_side[cls == 0]
            stats.straddler_fraction.append((m, int(straddlers.shape[0])))
            if straddlers.shape[0] == 0:
                continue
            system = BallSystem(pts[straddlers], np.sqrt(nbr_sq[straddlers, -1]))
            ball_rows, point_ids = query_correction_pairs(
                system, pts[opposite], opposite, machine, rng, config.query
            )
            machine.charge(selection_cost(k, point_ids.shape[0]))
            apply_candidate_pairs_batch(
                pts, nbr_idx, nbr_sq, straddlers[ball_rows], point_ids, k
            )

    def solve(ids: np.ndarray, depth_level: int, path: tuple) -> PartitionNode:
        with machine.span("simple.node", level=depth_level, m=int(ids.shape[0])):
            return _solve(ids, depth_level, path)

    def _solve(ids: np.ndarray, depth_level: int, path: tuple) -> PartitionNode:
        m = ids.shape[0]
        stats.nodes += 1
        if m <= base:
            brute(ids)
            return PartitionNode(indices=ids)
        axis = depth_level % d if config.rotate_axes else None
        try:
            with machine.section("divide"):
                plane, _ = find_median_hyperplane(pts[ids], machine, axis=axis)
        except ValueError:
            try:
                with machine.section("divide"):
                    plane, _ = find_median_hyperplane(pts[ids], machine, axis=None)
            except ValueError:
                stats.degenerate_cuts += 1
                brute(ids)
                return PartitionNode(indices=ids)
        side = plane.side_of_points(pts[ids])
        machine.charge(machine.ewise_cost(m, 2.0))
        machine.charge(machine.scan_cost(m).then(machine.permute_cost(m)))
        in_ids = ids[side < 0]
        ex_ids = ids[side > 0]
        if in_ids.shape[0] == 0 or ex_ids.shape[0] == 0:
            stats.degenerate_cuts += 1
            brute(ids)
            return PartitionNode(indices=ids)
        children: List[Optional[PartitionNode]] = [None, None]
        with machine.parallel() as par:
            with par.branch():
                children[0] = solve(in_ids, depth_level + 1, path + (0,))
            with par.branch():
                children[1] = solve(ex_ids, depth_level + 1, path + (1,))
        node = PartitionNode(indices=ids, separator=plane, left=children[0], right=children[1])
        with machine.section("correct"):
            correct(node, in_ids, ex_ids, path_rng(root_ss, path))
        return node

    if config.engine in ("frontier", "frontier-mp"):
        if config.engine == "frontier":
            from .frontier import _SimpleFrontier as engine
        else:
            from ..parallel.engine import _ParallelSimpleFrontier as engine

        tree = engine(pts, k, machine, root_ss, config, stats, nbr_idx, nbr_sq, base).run()
    else:
        with recursion_guard(estimated_tree_levels(n, base, _GUARD_SPLIT_RATIO)):
            tree = solve(np.arange(n, dtype=np.int64), 0, ())
    system = KNeighborhoodSystem(pts, k, nbr_idx, nbr_sq)
    return KNNResult(system=system, machine=machine, method="simple", tree=tree, stats=stats, k=k)
