"""Frontier engine: level-synchronous batched execution of the recursion.

The recursive engines execute the divide and conquer node-at-a-time, so
wall-clock cost is O(#nodes) Python interpreter overhead even though the
cost ledger reports O(log n) depth.  This module restructures the
*executed* shape to match the *accounted* shape: each level of the
partition tree is one **frontier** — a segmented vector of point ids plus
segment offsets — and the whole frontier advances with batched numpy
passes:

- separator search runs in lockstep rounds across every active segment:
  each segment's sampler is one row of a
  :class:`~repro.separators.batch.SamplerStack` built by
  :func:`~repro.separators.batch.prepare_samplers` (one gather and one
  stacked LAPACK SVD per iterated-Radon round, one centering pass), each
  round draws every searching segment's candidate with one
  :meth:`~repro.separators.batch.SamplerStack.draw`, and candidate
  evaluation is batched via
  :func:`~repro.separators.batch.batched_side_of_points`;
- the divide step is one :func:`~repro.pvm.primitives.segmented_split`
  over the concatenated ids of the level;
- base cases record their stats and cost as the frontier reaches them,
  and each level's leaves are brute-forced together after its divide:
  one :func:`repro.kernels.block_topk` call per leaf size (and chunk) via
  :func:`~repro.core.neighborhood.brute_force_leaves`;
- once every level is built, the levels are numbered into preorder
  with a few vectorised passes per level and written as the tree's
  :class:`~repro.core.columns.TreeColumns` (:meth:`_FrontierBase._assemble`):
  its :class:`~repro.kernels.layout.FlatTree`, subtree ends, correction
  outcomes and per-node section events; no
  :class:`~repro.core.partition_tree.PartitionNode` is made.  Correction
  then runs level-by-level bottom-up: ball classification is one pass
  per level, every Fast Correction of a level is one lockstep
  :meth:`~repro.kernels.layout.FlatTree.march` over those columns (one
  march per (node, side), each under the node's active cap), and a
  level's candidate merges are one flush.

Equivalence contract
--------------------
A frontier run is *indistinguishable* from a recursive run with the same
seed: identical neighbor arrays, identical partition tree, and an
identical (depth, work) ledger and per-phase sections.  Three mechanisms
make this exact:

1. **Per-node RNG** — both engines derive each node's generator from the
   seed root and the node's 0/1 path (:func:`~repro.util.rng.path_rng`),
   so streams don't depend on traversal order.
2. **Bit-stable batching** — every batched numpy pass is bitwise equal to
   its per-node counterpart (row-local sphere tests; stacked LAPACK SVDs;
   stacked ``matmul`` norms and rotations, which make the per-node BLAS
   calls; leaf-local base-case blocks; integer segmented splits).
   Hyperplane candidates, whose BLAS product is not batch-stable, are
   evaluated per segment.
3. **Analytic per-node cost folds** — the frontier never charges the
   machine while executing; it replays each node's charge sequence as a
   local Cost fold (punt-path costs are captured on a sub-machine seeded
   with the fold so far, keeping float association identical to the
   recursive engine's untraced frames), composes the folds bottom-up with
   the same ``pre . (left || right) . post`` algebra, and charges the
   root's total once.

Observability differs by design: instead of one span per node, the
frontier emits one ``frontier.level`` span per level and phase (``build``
then ``correct``) with segment-count and straddler attributes.  Phase
totals come from the same cost fold: as :meth:`_FrontierBase._compose_costs`
composes a node's cost it writes the node's own ``divide``, ``base`` and
``correct`` events into its row, and each phase folds into
``machine.sections`` once, in the order the recursive engine closes those
sections (``divide`` in preorder, ``base`` left to right, ``correct`` in
postorder), so every phase total has the recursive engine's float
association.  See ``docs/engines.md``.

The online index (:mod:`repro.core.online`) runs the same level loop
through a subclass of :class:`_FastFrontier`: a segment can be a
*block*, a subtree solved elsewhere whose rows :meth:`_FrontierBase._assemble`
copies in (a replayed subtree of the previous version; a ``frontier-mp``
worker's subtree, likewise), and per-segment hooks give it
its own sampler rows (:meth:`_FastFrontier._sampler_rows`), correction
generator (:meth:`_FrontierBase._rng_of`) and counter sinks
(:meth:`_FrontierBase._machine_of` / :meth:`_FrontierBase._stats_of`);
:meth:`_FastFrontier._divide_from_hints` lets it divide some segments
without a search (their children preset, which
:meth:`_FrontierBase._split_segments` keeps),
:meth:`_FastFrontier._tried` shows it each attempt's candidate and
interior count, :meth:`_FastFrontier._classify_level` (which returns
each node's straddlers) lets it classify fewer balls, and
:meth:`_FastFrontier._level_corrected` sees each corrected and composed
level.  On the offline engines the hooks do nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .. import kernels
from ..geometry.balls import BallSystem
from ..geometry.spheres import Sphere
from ..kernels.layout import FlatMarchResult, FlatTree
from ..pvm.cost import Cost, ZERO
from ..pvm.machine import Machine
from ..separators.batch import batched_side_of_points, prepare_samplers, split_is_good
from ..separators.hyperplane import _SELECTION_ROUNDS, median_hyperplane
from ..separators.quality import default_delta
from ..separators.unit_time import _ATTEMPT_SERIAL_COST
from ..util.rng import path_rng
from .columns import TreeColumns, fold_phase
from .correction import apply_candidate_pairs_batch, query_correction_pairs
from .neighborhood import base_case_cost, brute_force_leaves, selection_cost, selection_depth

# Mirrors the ``refresh_every`` default of
# :func:`repro.separators.unit_time.find_good_separator`.
_REFRESH_EVERY = 16


@dataclass
class _Seg:
    """One frontier segment = one partition-tree node in flight.

    ``ids`` is a view into the level's flat id vector; ``pre_cost`` folds
    the node's divide/base charges in recursion order, ``divide_cost`` is
    the part of them the node adds to the ``divide`` phase and
    ``post_cost`` its correction charges.  :meth:`_FrontierBase._compose_costs`
    sets ``total_cost``, the composed subtree cost.  ``m`` is the node's
    size: its ``ids`` are let go once its level is built (a leaf's once
    the tree's columns hold them), and the correction reads a node's ids
    from its leaves' range of the columns.  ``pre`` is the node's preorder
    index there, ``iota``/``punted`` its fast correction's outcome, and
    ``block`` a ``(columns, node)`` pair when the subtree under the
    segment was solved elsewhere: it is built and corrected no further,
    and its rows are copied in.
    """

    ids: np.ndarray
    level: int
    path: Tuple[int, ...]
    rng: Optional[np.random.Generator] = None
    separator: object = None
    side: Optional[np.ndarray] = None
    attempts: int = 0
    is_leaf: bool = False
    pre_cost: Cost = ZERO
    divide_cost: Cost = ZERO
    post_cost: Cost = ZERO
    total_cost: Cost = ZERO
    left: Optional["_Seg"] = None
    right: Optional["_Seg"] = None
    pre: int = -1
    block: Optional[Tuple[TreeColumns, int]] = None
    iota: int = -1
    punted: bool = False
    m: int = field(init=False)

    def __post_init__(self) -> None:
        self.m = self.ids.shape[0]


class _FrontierBase:
    """Shared frontier machinery: level loop, tree columns, cost algebra."""

    _NS = ""

    def __init__(
        self, points, k, machine, root_ss, config, stats, nbr_idx, nbr_sq, base
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
        self.select_depth = selection_depth(k)

    # -- level loop ------------------------------------------------------

    def run(self) -> TreeColumns:
        """Solve the whole input; same contract (and, seed-for-seed, the
        same output and ledger) as the recursive engine's run.  Returns
        the solved tree's columns."""
        n = self.points.shape[0]
        root = _Seg(ids=np.arange(n, dtype=np.int64), level=0, path=())
        self.solve_subtree(root)
        self._charge_root(root)
        return self.cols

    def _charge_root(self, root: _Seg) -> None:
        """Fold the solved tree's section events into the machine's phase
        totals and make the one root charge."""
        self._fold_sections(self.cols)
        with self.machine.span("frontier.total"):
            self.machine.charge(root.total_cost)

    def _fold_sections(self, events: TreeColumns) -> None:
        """Add the tree's section events to ``machine.sections``, each
        phase's in the order the recursive engine closes those sections
        (:meth:`~repro.core.columns.TreeColumns.phase_events`): the float
        additions :meth:`~repro.pvm.machine.Machine.section` makes, without
        a ``Cost`` per step.  Iterating ``events`` lists them depth-first."""
        totals = {
            name: (cost.depth, cost.work) for name, cost in self.machine.sections.items()
        }
        for name, rows in events.phase_events():
            totals[name] = fold_phase(totals.get(name, (0.0, 0.0)), rows)
        for name, (depth, work) in totals.items():
            self.machine.sections[name] = Cost(depth, work)

    def _build_levels(
        self, frontier: List[_Seg], stop_at: Optional[int] = None
    ) -> Tuple[List[List[_Seg]], List[_Seg]]:
        """Advance ``frontier`` level by level until every segment has
        resolved — or, with ``stop_at``, until it holds at least that
        many segments — returning the per-level segment lists and the
        frontier left unbuilt (empty unless ``stop_at`` stopped it).  A
        level lists every child of the level above, blocks included; only
        its other segments are built."""
        levels: List[List[_Seg]] = []
        while frontier and (stop_at is None or len(frontier) < stop_at):
            levels.append(frontier)
            todo = [s for s in frontier if s.block is None]
            frontier = []
            if not todo:
                break
            with self.machine.span(
                "frontier.level",
                phase="build",
                level=todo[0].level,
                segments=len(todo),
                points=int(sum(s.ids.shape[0] for s in todo)),
            ) as span:
                frontier = self._build_level(todo, span)
        return levels, frontier

    def solve_subtree(self, seg: _Seg) -> List[List[_Seg]]:
        """Solve one subtree to completion: build all its levels, write
        its columns (``self.cols``, with ``seg`` at preorder 0), and run
        its bottom-up correction, which composes its costs — exactly the
        serial recursion restricted to ``seg``.

        No charge happens here: the composed subtree total lands in
        ``seg.total_cost`` and every node's section events in its row.
        :meth:`run` folds both into the machine; a ``frontier-mp`` worker
        ships them to the master, whose own fold takes them in.  Because
        a worker runs this serial code, every RNG draw, punt decision and
        float fold matches the serial engine's by construction.
        """
        levels, _ = self._build_levels([seg])
        self._assemble(levels)
        self._correct_levels(levels)
        return levels

    def _build_level(self, segs: List[_Seg], span) -> List[_Seg]:
        """Build one level: divide its segments, then brute-force all the
        leaves it made in stacked passes, before any correction reads a
        neighbor radius.  The level's leaf ids move to one buffer and its
        divided segments let their ids go, so the level's split buffer is
        freed once the next level is built.  Returns the next level's
        segments."""
        children = self._divide_level(segs, span)
        leaves = [s for s in segs if s.is_leaf]
        brute_force_leaves(self.points, [s.ids for s in leaves], self.k, self.nbr_idx, self.nbr_sq)
        if leaves:
            ids = np.concatenate([s.ids for s in leaves])
            lo = 0
            for seg in leaves:
                seg.ids, lo = ids[lo : lo + seg.m], lo + seg.m
        for seg in segs:
            if not seg.is_leaf:
                seg.ids = None
        return children

    def _leaf(self, seg: _Seg) -> None:
        """Resolve a segment as a base case (mirrors the recursive brute):
        stats, series and cost now, the brute force with its level's."""
        m = seg.ids.shape[0]
        seg.is_leaf = True
        self._stats_of(seg).base_cases += 1
        self._machine_of(seg).metrics.observe(f"{self._NS}.base_case_sizes", m)
        seg.pre_cost = seg.pre_cost.then(base_case_cost(m))

    def _split_segments(self, split_segs: List[_Seg]) -> List[_Seg]:
        """Divide every accepted segment at once: one fused classify+pack
        kernel pass over the level's concatenated ids and raw sides
        (interior = ``side < 0`` first keeps the recursive engine's stable
        ``ids[side < 0]`` / ``ids[side > 0]`` ordering bit-for-bit).
        Children are segments of their parent's class; a segment whose
        children are already set (the online index routes a reused
        separator's children) keeps them.  Returns the children in
        segment order."""
        cut_segs = [s for s in split_segs if s.left is None]
        if cut_segs:
            lengths = np.array([s.ids.shape[0] for s in cut_segs], dtype=np.int64)
            flat_ids = np.concatenate([s.ids for s in cut_segs])
            sides = np.concatenate([s.side for s in cut_segs])
            for seg in cut_segs:
                seg.side = None  # a view of its search round's sides: let it go
            seg_ids = np.repeat(np.arange(len(cut_segs)), lengths)
            out, false_counts = kernels.segmented_split_sides(flat_ids, sides, seg_ids)
            offsets = np.concatenate(([0], np.cumsum(lengths)))
            for j, seg in enumerate(cut_segs):
                lo, hi = int(offsets[j]), int(offsets[j + 1])
                cut = lo + int(false_counts[j])
                seg.left = type(seg)(ids=out[lo:cut], level=seg.level + 1, path=seg.path + (0,))
                seg.right = type(seg)(ids=out[cut:hi], level=seg.level + 1, path=seg.path + (1,))
        return [child for seg in split_segs for child in (seg.left, seg.right)]

    def _assemble(self, levels: List[List[_Seg]]) -> None:
        """Number the solved levels' nodes in preorder and write the
        tree's columns to ``self.cols`` (the events, correction outcomes
        of the built nodes are filled in as they are corrected).

        Level ``L + 1`` lists the children of level ``L``'s internal
        segments in order, two each, so three vectorised passes per level
        place every node: subtree node, leaf and point counts bottom-up,
        then preorder indices, leaf ordinals and leaf-id offsets top-down
        (a left child follows its parent, a right child follows the left
        subtree), then one scatter of the level's rows.  A block's rows
        are its source's subtree range, shifted.
        """
        shapes = []
        below = None
        for segs in reversed(levels):
            kind = np.array([_kind(s) for s in segs], dtype=np.int8)
            points = np.array([s.m for s in segs], dtype=np.int64)
            nodes = np.ones(len(segs), dtype=np.int64)
            leaves = np.ones(len(segs), dtype=np.int64)
            inner = np.flatnonzero(kind == _INTERNAL)
            if inner.shape[0]:
                nodes[inner] = 1 + below[0][0::2] + below[0][1::2]
                leaves[inner] = below[1][0::2] + below[1][1::2]
            for j in np.flatnonzero(kind == _BLOCK).tolist():
                cols, h = segs[j].block
                end = int(cols.end[h])
                nodes[j] = end - h
                leaves[j] = cols.first_leaf[end - 1] + 1 - cols.first_leaf[h]
            below = (nodes, leaves, points, kind, inner)
            shapes.append(below)
        shapes.reverse()
        n_nodes, n_leaves, n_points = (int(a[0]) for a in shapes[0][:3])
        width = self.dim if n_nodes > n_leaves else 1
        centers = np.zeros((n_nodes, width), dtype=np.float64)
        radii = np.zeros(n_nodes, dtype=np.float64)
        left = np.full(n_nodes, -1, dtype=np.int64)
        right = np.full(n_nodes, -1, dtype=np.int64)
        leaf_ord = np.full(n_nodes, -1, dtype=np.int64)
        plane = np.zeros(n_nodes, dtype=bool)
        end = np.empty(n_nodes, dtype=np.int64)
        leaf_ids = np.empty(n_points, dtype=np.int64)
        leaf_offsets = np.empty(n_leaves + 1, dtype=np.int64)
        leaf_offsets[-1] = n_points
        iota = np.full(n_nodes, -1, dtype=np.int64)
        punted = np.zeros(n_nodes, dtype=bool)
        events = np.full((n_nodes, 3, 2), np.nan)
        pre = leaf = pt = np.zeros(1, dtype=np.int64)
        for li, segs in enumerate(levels):
            nodes, leaves, points, kind, inner = shapes[li]
            end[pre] = pre + nodes
            lv = np.flatnonzero(kind == _LEAF)
            if lv.shape[0]:
                leaf_ord[pre[lv]] = leaf[lv]
                leaf_offsets[leaf[lv]] = pt[lv]
                ids = np.concatenate([segs[j].ids for j in lv.tolist()])
                before = np.cumsum(points[lv]) - points[lv]
                leaf_ids[np.repeat(pt[lv] - before, points[lv]) + np.arange(ids.shape[0])] = ids
            for seg, p in zip(segs, pre.tolist()):
                seg.pre, seg.ids = p, None
            if inner.shape[0]:
                at = pre[inner]
                seps = [segs[j].separator for j in inner.tolist()]
                flags = np.array([not isinstance(sep, Sphere) for sep in seps])
                centers[at] = np.stack([
                    sep.normal if flag else sep.center for sep, flag in zip(seps, flags)
                ])
                radii[at] = [sep.offset if flag else sep.radius for sep, flag in zip(seps, flags)]
                plane[at] = flags
            for j in np.flatnonzero(kind == _BLOCK).tolist():
                cols, h = segs[j].block
                src, dst = slice(h, int(cols.end[h])), slice(int(pre[j]), int(pre[j] + nodes[j]))
                shift, flat = int(pre[j]) - h, cols.flat
                for out, col, by in (
                    (left, flat.left, shift), (right, flat.right, shift),
                    (leaf_ord, flat.leaf_ord, int(leaf[j]) - int(cols.first_leaf[h])),
                ):
                    out[dst] = np.where(col[src] >= 0, col[src] + by, -1)
                if flat.centers.shape[1] == width:
                    centers[dst] = flat.centers[src]
                radii[dst] = flat.radii[src]
                planes = flat.planes[(flat.planes >= h) & (flat.planes < src.stop)]
                plane[planes + shift] = True
                end[dst] = cols.end[src] + shift
                iota[dst], punted[dst] = cols.iota[src], cols.punted[src]
                events[dst] = cols.events[src]
                lo, m = int(cols.point_lo[h]), int(points[j])
                leaf_ids[int(pt[j]) : int(pt[j]) + m] = self._block_ids(flat.leaf_ids[lo : lo + m])
                fl = int(cols.first_leaf[h])
                leaf_offsets[int(leaf[j]) : int(leaf[j] + leaves[j])] = (
                    flat.leaf_offsets[fl : fl + int(leaves[j])] - lo + int(pt[j])
                )
            if li + 1 < len(levels):
                b_nodes, b_leaves, b_points = shapes[li + 1][:3]
                nxt = np.empty((3, b_nodes.shape[0]), dtype=np.int64)
                for out, here, size, step in (
                    (nxt[0], pre, b_nodes, 1),
                    (nxt[1], leaf, b_leaves, 0),
                    (nxt[2], pt, b_points, 0),
                ):
                    out[0::2] = here[inner] + step
                    out[1::2] = out[0::2] + size[0::2]
                left[pre[inner]] = nxt[0][0::2]
                right[pre[inner]] = nxt[0][1::2]
                pre, leaf, pt = nxt
        flat = FlatTree(
            centers=centers, radii=radii, left=left, right=right, leaf_ord=leaf_ord,
            leaf_ids=leaf_ids, leaf_offsets=leaf_offsets, planes=np.flatnonzero(plane),
        )
        self.cols = TreeColumns(flat, end, iota, punted, events)

    def _block_ids(self, ids: np.ndarray) -> np.ndarray:
        """A block's leaf ids in this run's numbering (a renumbering
        commit of the online index maps them)."""
        return ids

    def _block(self, seg: _Seg) -> np.ndarray:
        """``seg``'s ids in leaf order, once the tree's columns are written."""
        return self.cols.leaf_block(seg.pre)

    def _ids(self, seg: _Seg) -> np.ndarray:
        """``seg``'s ids, ascending: its leaves' ids, sorted."""
        return np.sort(self._block(seg))

    def _correct_levels(self, levels: List[List[_Seg]]) -> None:
        """Bottom-up correction sweep: children always correct before their
        parent reads the (updated) neighbor radii, exactly as in the
        recursive post-order; same-level segments are index-disjoint.
        Each level's costs compose once it is corrected."""
        for level_segs in reversed(levels):
            internal = _internal(level_segs)
            if internal:
                with self.machine.span(
                    "frontier.level",
                    phase="correct",
                    level=internal[0].level,
                    segments=len(internal),
                ) as span:
                    straddlers = 0
                    for seg in internal:
                        straddlers += self._correct_node(seg)
                    if span is not None:
                        span.attrs["straddlers"] = int(straddlers)
            self._compose_costs(level_segs)

    def _compose_costs(self, level_segs: List[_Seg]) -> None:
        """Compose one corrected level's subtrees from their composed
        children with the recursion's algebra, ``pre . (left || right) .
        post`` per internal node, and write each node's own events to its
        row: an internal node's ``divide`` and ``correct``; a leaf's
        ``base``, and its ``divide`` when it searched and failed
        (``m > base``).  Blocks are composed already."""
        rows: List[int] = []
        phases: List[int] = []
        costs: List[Tuple[float, float]] = []
        outcomes: List[Tuple[int, int, bool]] = []
        for seg in level_segs:
            if seg.block is not None:
                continue
            if seg.is_leaf:
                seg.total_cost = seg.pre_cost
                m = seg.m
                base = base_case_cost(m)
                rows.append(seg.pre)
                phases.append(1)
                costs.append((base.depth, base.work))
                if m > self.base:
                    rows.append(seg.pre)
                    phases.append(0)
                    costs.append((seg.divide_cost.depth, seg.divide_cost.work))
                continue
            left, right = seg.left, seg.right
            branches = ZERO.beside(left.total_cost).beside(right.total_cost)
            seg.total_cost = seg.pre_cost.then(branches).then(seg.post_cost)
            rows += (seg.pre, seg.pre)
            phases += (0, 2)
            costs += ((seg.divide_cost.depth, seg.divide_cost.work),
                      (seg.post_cost.depth, seg.post_cost.work))
            if seg.iota >= 0:
                outcomes.append((seg.pre, seg.iota, seg.punted))
        if rows:
            self.cols.events[rows, phases] = costs
        if outcomes:
            at, iota, punted = zip(*outcomes)
            self.cols.iota[list(at)] = iota
            self.cols.punted[list(at)] = punted

    # -- per-segment hooks -----------------------------------------------

    def _machine_of(self, seg: _Seg) -> Machine:
        """The machine ``seg``'s own counters, series and phase totals go
        to: the run's.  The online index keeps them per segment and folds
        them in recursion order (:mod:`repro.core.online`)."""
        return self.machine

    def _stats_of(self, seg: _Seg):
        """The stats view over :meth:`_machine_of`'s registry."""
        return self.stats

    def _rng_of(self, seg: _Seg) -> np.random.Generator:
        """The node's generator: its separator samplers and its
        correction punts draw from it, as in the recursive engine."""
        if seg.rng is None:
            seg.rng = path_rng(self.root_ss, seg.path)
        return seg.rng

    # -- punt-path capture ----------------------------------------------

    def _captured_query_pairs(self, seg: _Seg, cost: Cost, system: BallSystem, opposite_ids):
        """Run the query-structure correction on a sub-machine seeded with
        the node's cost fold so far.

        Seeding keeps the float association of subsequent charges identical
        to the recursive engine, where they fold flat into the same frame.
        The sub-machine shares the segment's metrics registry, so its
        counter bumps land there directly.
        """
        sink = self._machine_of(seg)
        sub = Machine(scan=sink.scan_policy, metrics=sink.metrics)
        sub.charge(cost)
        ball_rows, point_ids = query_correction_pairs(
            system, self.points[opposite_ids], opposite_ids, sub, self._rng_of(seg),
            self.config.query,
        )
        return sub, ball_rows, point_ids

    # -- subclass hooks --------------------------------------------------

    def _divide_level(self, segs: List[_Seg], span) -> List[_Seg]:
        raise NotImplementedError

    def _correct_node(self, seg: _Seg) -> int:
        raise NotImplementedError


class _FastFrontier(_FrontierBase):
    """Frontier execution of Section 6's Parallel Nearest Neighborhood."""

    _NS = "fast"

    def _divide_level(self, segs: List[_Seg], span) -> List[_Seg]:
        active: List[_Seg] = []
        for seg in segs:
            self._stats_of(seg).nodes += 1
            if seg.ids.shape[0] <= self.base:
                self._leaf(seg)
            else:
                active.append(seg)
        if span is not None:
            span.attrs["base_segments"] = len(segs) - len(active)
        if not active:
            return []
        self._find_separators(self._divide_from_hints(active))
        split_segs = [s for s in active if s.separator is not None]
        for seg in active:
            if seg.separator is None:
                # pathological multiset: brute-force this segment, exactly
                # like the recursive SeparatorFailure handler.
                self._stats_of(seg).punts_separator += 1
                self._leaf(seg)
        if span is not None:
            span.attrs["separator_failures"] = len(active) - len(split_segs)
        if not split_segs:
            return []
        for seg in split_segs:
            m = seg.ids.shape[0]
            seg.pre_cost = (
                seg.pre_cost
                .then(self.machine.ewise_cost(m, 2.0))
                .then(self.machine.scan_cost(m).then(self.machine.permute_cost(m)))
            )
        return self._split_segments(split_segs)

    def _find_separators(self, active: List[_Seg]) -> None:
        """Lockstep replication of ``find_good_separator`` across segments.

        Every active segment is one row of a
        :class:`~repro.separators.batch.SamplerStack`, prepared in one
        stacked pass.  Round ``r`` performs attempt ``r`` of every
        still-searching segment: the per-attempt charges fold into each
        segment's divide cost in the recursive order, one stacked draw
        yields every segment's candidate, draw failures skip the refresh
        check (as the recursive ``continue`` does), candidate quality is
        evaluated in one batched pass, and every 16th attempt the failed
        segments rebuild their rows together.  Each segment consumes only
        its own generators (:meth:`_sampler_rows`), so acceptance happens
        at exactly the attempt the recursive engine would accept.
        """
        if not active:
            return
        config = self.config
        target = default_delta(self.dim, config.epsilon)
        subs = [self.points[seg.ids] for seg in active]
        sets, rngs, size = self._sampler_rows(active, subs, 1)
        samplers = prepare_samplers(sets, rngs, sample_size=size)
        divide: List[Cost] = [ZERO] * len(active)
        searching = list(range(len(active)))
        for attempt in range(1, config.max_attempts + 1):
            if not searching:
                break
            for i in searching:
                divide[i] = self._charge_attempt(active[i], divide[i])
            drew: List[int] = []
            candidates: List[object] = []
            for i, candidate in zip(searching, samplers.draw(searching)):
                if candidate is not None:
                    drew.append(i)
                    candidates.append(candidate)
                else:
                    self._machine_of(active[i]).bump("separator_draw_failures")
                    self._tried(active[i], None, 0)
            accepted = set()
            if drew:
                sides = batched_side_of_points(candidates, [subs[i] for i in drew])
                for i, candidate, side in zip(drew, candidates, sides):
                    seg = active[i]
                    interior = int(np.count_nonzero(side < 0))
                    self._tried(seg, candidate, interior)
                    if split_is_good(interior, side.shape[0], target):
                        seg.separator = candidate
                        seg.side = side
                        self._accept(seg, attempt)
                        accepted.add(i)
            searching = [i for i in searching if i not in accepted]
            if attempt % _REFRESH_EVERY == 0:
                # only segments that drew (and failed quality) this round
                # reach the recursive engine's refresh line
                refresh = [i for i in searching if i in set(drew)]
                if refresh:
                    sets, rngs, size = self._sampler_rows(
                        [active[i] for i in refresh], [subs[i] for i in refresh], attempt + 1
                    )
                    samplers.replace(refresh, prepare_samplers(sets, rngs, sample_size=size))
        for i, seg in enumerate(active):
            seg.pre_cost = seg.pre_cost.then(divide[i])
            seg.divide_cost = divide[i]

    def _charge_attempt(self, seg: _Seg, divide: Cost) -> Cost:
        """Fold one separator attempt's charges onto ``divide`` and count
        it, as the recursive ``find_good_separator`` does per attempt."""
        machine = self.machine
        m = seg.ids.shape[0]
        self._machine_of(seg).bump("separator_attempts")
        return (
            divide
            .then(machine.serial_cost(_ATTEMPT_SERIAL_COST))
            .then(machine.ewise_cost(m, 3.0))
            .then(machine.scan_cost(m))
        )

    def _accept(self, seg: _Seg, attempt: int) -> None:
        """Record that ``seg.separator`` passed at ``attempt``."""
        seg.attempts = attempt
        self._stats_of(seg).separator_attempts += attempt

    def _divide_from_hints(self, active: List[_Seg]) -> List[_Seg]:
        """The segments of ``active`` that must search for a separator.
        Here all of them; the online index gives the others their
        hint's separator and children (:mod:`repro.core.online`)."""
        return active

    def _tried(self, seg: _Seg, candidate, interior: int) -> None:
        """Called once per attempt in attempt order: the candidate drawn
        (``None`` for a draw failure) and how many of the segment's
        points fell inside it.  The online index records these."""

    def _sampler_rows(self, segs: List[_Seg], subs: List[np.ndarray], attempt: int):
        """What :func:`prepare_samplers` builds the rows of ``segs`` from
        when their search (re)starts at ``attempt``: ``(point sets,
        generators, sample size)``.  Here every node subsamples its own
        points (``subs``) with its path generator, as
        :func:`~repro.separators.unit_time.find_good_separator` does."""
        return subs, [self._rng_of(seg) for seg in segs], self.config.sample_size

    # -- correction (mirrors _Runner.correct) ----------------------------

    def _correct_levels(self, levels: List[List[_Seg]]) -> None:
        """Level-batched override: classify every segment's balls against
        its separator in one pass, march every fast correction of the
        level in one lockstep pass over the tree's columns, and defer all
        candidate-pair merges to one vectorised flush.

        Deferring within a level is bitwise-safe because same-level nodes
        hold disjoint index sets: every read a correction performs (ball
        radii, straddler lists) touches only rows its own node owns, which
        no other same-level node's merge can alter.  The flush still
        happens before the parent level runs, preserving the recursive
        post-order's child-before-parent dependency.

        :meth:`_level_corrected` sees every level once its rows are final
        for the subtrees it roots and its costs are composed.
        """
        for level_segs in reversed(levels):
            internal = _internal(level_segs)
            if internal:
                with self.machine.span(
                    "frontier.level",
                    phase="correct",
                    level=internal[0].level,
                    segments=len(internal),
                ) as span:
                    found = self._classify_level(internal)
                    self._pending_owners: List[np.ndarray] = []
                    self._pending_cands: List[np.ndarray] = []
                    straddlers, punts = self._correct_level(internal, found, self.cols.flat)
                    self._flush_level_pairs()
                    if span is not None:
                        span.attrs["straddlers"] = int(straddlers)
                        span.attrs["punts"] = punts
            self._compose_costs(level_segs)
            self._level_corrected(level_segs)

    def _level_corrected(self, level_segs: List[_Seg]) -> None:
        """Called after each level of the sweep, deepest first."""

    def _classify_level(self, internal: List[_Seg]):
        """Each internal segment's straddlers, ``(in-side ids, ex-side
        ids)``: the balls of each child that reach both sides of the
        segment's separator (:meth:`_straddlers`)."""
        return self._straddlers(
            internal, [(self._block(s.left), self._block(s.right)) for s in internal]
        )

    def _straddlers(self, internal: List[_Seg], balls):
        """The balls of ``balls[j]``, an (in-side ids, ex-side ids) pair,
        that straddle ``internal[j]``'s separator, ascending; sphere
        separators batched into a single flat pass.

        The sphere test (``|center - c| - r`` against the ball radius) is
        row-local, so the batched result is bitwise identical to per-node
        :meth:`~repro.geometry.spheres.Sphere.classify_balls` in any ball
        order; the rare hyperplane separator falls back to the per-node
        call on the ascending ids, the row order its BLAS product was
        computed in.
        """
        out = [None] * len(internal)
        sides: List[Tuple[int, np.ndarray]] = []
        for j, (seg, pair) in enumerate(zip(internal, balls)):
            sep = seg.separator
            if isinstance(sep, Sphere):
                sides.append((j, pair[0]))
                sides.append((j, pair[1]))
            else:
                out[j] = tuple(
                    ids[sep.classify_balls(self.points[ids], np.sqrt(self.nbr_sq[ids, -1])) == 0]
                    for ids in map(np.sort, pair)
                )
        if sides:
            lengths = np.array([ids.shape[0] for _, ids in sides], dtype=np.int64)
            flat_ids = np.concatenate([ids for _, ids in sides])
            centers = np.stack([internal[j].separator.center for j, _ in sides], axis=0)
            sep_radii = np.array(
                [internal[j].separator.radius for j, _ in sides], dtype=np.float64
            )
            rows = np.repeat(np.arange(len(sides)), lengths)
            ball_radii = np.sqrt(self.nbr_sq[flat_ids, -1])
            cut = kernels.classify_level_spheres(
                self.points, flat_ids, rows, centers, sep_radii, ball_radii
            ) == 0
            bounds = np.concatenate(([0], np.cumsum(lengths)))
            for pair in range(0, len(sides), 2):
                (j, ids_in), (_, ids_ex) = sides[pair], sides[pair + 1]
                out[j] = (
                    np.sort(ids_in[cut[bounds[pair] : bounds[pair + 1]]]),
                    np.sort(ids_ex[cut[bounds[pair + 1] : bounds[pair + 2]]]),
                )
        return out

    def _flush_level_pairs(self) -> None:
        if self._pending_owners:
            apply_candidate_pairs_batch(
                self.points,
                self.nbr_idx,
                self.nbr_sq,
                np.concatenate(self._pending_owners),
                np.concatenate(self._pending_cands),
                self.k,
            )
        self._pending_owners = []
        self._pending_cands = []

    def _correct_level(
        self, internal: List[_Seg], found, flat: FlatTree
    ) -> Tuple[int, int]:
        """Correct one level's nodes, given each node's (in-side, ex-side)
        straddlers; returns the level's straddler and punt counts.

        Each node first decides, from its straddlers, between no
        correction, an iota punt and Fast Correction.  Every (node, side)
        march of the level then runs as one :meth:`FlatTree.march`: the
        level's opposite subtrees are disjoint, so each tree node sees
        only its own march's balls, in the order a per-node pointer walk
        would hand them.  Last, the nodes settle in order: cost folds,
        stats, and the query-structure punt of any failed march (in-side
        before ex-side, so each node's generator is drawn in the
        recursive order).  A march starts at its opposite child's
        preorder index in ``flat``.
        """
        plans = []
        marches: List[np.ndarray] = []
        starts: List[int] = []
        caps: List[float] = []
        iotas = 0
        for seg, (straddle_in, straddle_ex) in zip(internal, found):
            m = seg.m
            iota = straddle_in.shape[0] + straddle_ex.shape[0]
            iotas += iota
            self._stats_of(seg).straddler_fraction.append((m, iota))
            seg.iota = iota
            sides = None
            if 0 < iota < self.config.iota_budget(m, self.dim, self.k):
                cap = self.config.active_cap(m, self.dim, self.k)
                sides = []
                for straddlers, opposite in (
                    (straddle_in, seg.right),
                    (straddle_ex, seg.left),
                ):
                    if straddlers.shape[0]:
                        sides.append((straddlers, opposite, len(marches)))
                        marches.append(straddlers)
                        starts.append(opposite.pre)
                        caps.append(cap)
            plans.append((seg, iota, straddle_in, straddle_ex, sides))
        marched = self._march_level(flat, marches, starts, caps) if marches else None
        punts = 0
        for seg, iota, straddle_in, straddle_ex, sides in plans:
            seg.post_cost, node_punts = self._settle_node(
                seg, iota, straddle_in, straddle_ex, sides, marched
            )
            punts += node_punts
        return iotas, punts

    def _march_level(
        self,
        flat: FlatTree,
        marches: List[np.ndarray],
        starts: List[int],
        caps: List[float],
    ) -> FlatMarchResult:
        """One lockstep march of every straddler set of a level, each from
        its opposite subtree's root; queues the pairs of the marches that
        stayed under their caps."""
        balls = np.concatenate(marches)
        sizes = [s.shape[0] for s in marches]
        marched = flat.march(
            self.points,
            self.points[balls],
            np.sqrt(self.nbr_sq[balls, -1]),
            starts=np.repeat(starts, sizes),
            march_of=np.repeat(np.arange(len(marches)), sizes),
            caps=np.asarray(caps, dtype=np.float64),
        )
        self._pending_owners.append(balls[marched.ball_rows])
        self._pending_cands.append(marched.point_ids)
        return marched

    def _settle_node(
        self, seg: _Seg, iota: int, straddle_in, straddle_ex, sides, marched
    ) -> Tuple[Cost, int]:
        """One node's correction cost, stats and punts, in recursive order;
        returns the cost and the number of punts."""
        m = seg.m
        machine = self.machine
        stats = self._stats_of(seg)
        cost = ZERO.then(machine.ewise_cost(m, 2.0)).then(machine.scan_cost(m))
        if iota == 0:
            stats.corrections_none += 1
            return cost, 0
        if sides is None:
            stats.punts_iota += 1
            seg.punted = True
            cost = self._query_correct(seg, cost, straddle_in, seg.right)
            return self._query_correct(seg, cost, straddle_ex, seg.left), 1
        punts = 0
        for straddlers, opposite, j in sides:
            stats.marching_level_active.append((m, marched.level_active[j]))
            if not marched.succeeded[j]:
                punts += 1
                stats.punts_marching += 1
                cost = self._query_correct(seg, cost, straddlers, opposite)
                continue
            work = float(
                int(marched.label_tests[j])
                + int(marched.leaf_tests[j])
                + int(marched.pairs[j]) * (self.k + 1)
            )
            cost = cost.then(Cost(self.config.fc_depth + self.select_depth, max(work, 1.0)))
        if punts:
            seg.punted = True
        else:
            stats.corrections_fast += 1
        return cost, punts

    def _query_correct(
        self, seg: _Seg, cost: Cost, straddlers: np.ndarray, opposite: _Seg
    ) -> Cost:
        if straddlers.shape[0] == 0 or opposite.m == 0:
            return cost
        opposite_ids = self._ids(opposite)
        self._machine_of(seg).metrics.inc("fast.punt_corrections")
        radii = np.sqrt(self.nbr_sq[straddlers, -1])
        system = BallSystem(self.points[straddlers], radii)
        sub, ball_rows, point_ids = self._captured_query_pairs(
            seg, cost, system, opposite_ids
        )
        sub.charge(selection_cost(self.k, point_ids.shape[0]))
        self._pending_owners.append(straddlers[ball_rows])
        self._pending_cands.append(point_ids)
        return sub.total


class _SimpleFrontier(_FrontierBase):
    """Frontier execution of Section 5's Simple Parallel DnC."""

    _NS = "simple"

    def _divide_level(self, segs: List[_Seg], span) -> List[_Seg]:
        active: List[_Seg] = []
        for seg in segs:
            self.stats.nodes += 1
            if seg.ids.shape[0] <= self.base:
                self._leaf(seg)
            else:
                active.append(seg)
        if span is not None:
            span.attrs["base_segments"] = len(segs) - len(active)
        split_segs: List[_Seg] = []
        for seg in active:
            if self._divide_segment(seg):
                split_segs.append(seg)
        if not split_segs:
            return []
        return self._split_segments(split_segs)

    def _divide_segment(self, seg: _Seg) -> bool:
        """Try a median-hyperplane cut of one segment; returns whether the
        segment split (``separator``/``side`` set) or degenerated to a
        leaf.  Shared by the serial frontier and the worker-side shard
        kernel of the ``frontier-mp`` engine."""
        machine = self.machine
        m = seg.ids.shape[0]
        sub = self.points[seg.ids]
        axis = seg.level % self.dim if self.config.rotate_axes else None
        divide = ZERO
        plane = None
        # the recursive engine retries with axis=None on failure —
        # charging and bumping per attempt even when the first attempt
        # already had axis=None
        for try_axis in (axis, None):
            attempt_cost = machine.ewise_cost(m, _SELECTION_ROUNDS).then(
                machine.scan_cost(m).scaled(_SELECTION_ROUNDS)
            )
            divide = divide.then(attempt_cost)
            machine.bump("hyperplane_cuts")
            try:
                plane = median_hyperplane(sub, axis=try_axis)
                break
            except ValueError:
                plane = None
        # the recursive engine's ``divide`` section holds the median-cut
        # attempts only: its split charges fold into the node, not the phase
        seg.divide_cost = divide
        if plane is None:
            seg.pre_cost = seg.pre_cost.then(divide)
            self.stats.degenerate_cuts += 1
            self._leaf(seg)
            return False
        side = plane.side_of_points(sub)
        seg.pre_cost = seg.pre_cost.then(
            divide
            .then(machine.ewise_cost(m, 2.0))
            .then(machine.scan_cost(m).then(machine.permute_cost(m)))
        )
        interior = int(np.count_nonzero(side < 0))
        if interior == 0 or interior == m:
            self.stats.degenerate_cuts += 1
            self._leaf(seg)
            return False
        seg.separator = plane
        seg.side = side
        return True

    def _correct_node(self, seg: _Seg) -> int:
        sep = seg.separator
        m = seg.m
        machine = self.machine
        cost = ZERO
        total_straddlers = 0
        in_ids, ex_ids = self._ids(seg.left), self._ids(seg.right)
        for straddle_side, opposite in ((in_ids, ex_ids), (ex_ids, in_ids)):
            if straddle_side.shape[0] == 0 or opposite.shape[0] == 0:
                continue
            radii = np.sqrt(self.nbr_sq[straddle_side, -1])
            cls = sep.classify_balls(self.points[straddle_side], radii)
            cost = cost.then(machine.ewise_cost(straddle_side.shape[0], 2.0))
            straddlers = straddle_side[cls == 0]
            self.stats.straddler_fraction.append((m, int(straddlers.shape[0])))
            if straddlers.shape[0] == 0:
                continue
            total_straddlers += int(straddlers.shape[0])
            system = BallSystem(
                self.points[straddlers], np.sqrt(self.nbr_sq[straddlers, -1])
            )
            sub, ball_rows, point_ids = self._captured_query_pairs(
                seg, cost, system, opposite
            )
            sub.charge(selection_cost(self.k, point_ids.shape[0]))
            apply_candidate_pairs_batch(
                self.points,
                self.nbr_idx,
                self.nbr_sq,
                straddlers[ball_rows],
                point_ids,
                self.k,
            )
            cost = sub.total
        seg.post_cost = cost
        return total_straddlers


#: What a level's segment is to :meth:`_FrontierBase._assemble`.
_BLOCK, _LEAF, _INTERNAL = 0, 1, 2


def _kind(seg: _Seg) -> int:
    if seg.block is not None:
        return _BLOCK
    return _LEAF if seg.is_leaf else _INTERNAL


def _internal(level_segs: List[_Seg]) -> List[_Seg]:
    """The segments of a level that divided here (blocks come divided)."""
    return [s for s in level_segs if not s.is_leaf and s.block is None]

