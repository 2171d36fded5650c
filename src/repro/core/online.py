"""Online index maintenance: insert/delete absorption with versioned snapshots.

The offline algorithms build once; this module keeps an index *alive* under
a stream of point insertions and deletions.  A :class:`MutableIndex` buffers
mutations and, on :meth:`MutableIndex.commit`, produces the next **version**
of the index — new point array, partition tree, and exact k-neighbor lists —
either by *absorbing* the changes into the previous version's tree (rebuild
only the subtrees whose point subsets changed, replay the rest) or, past a
configurable churn threshold, by *punting* to a full rebuild.

The contract is the same bit-identical discipline the execution engines
live by: **every committed version equals a from-scratch build of the same
point set** — byte-equal neighbor arrays, an identical partition tree, an
exactly equal (depth, work) ledger, equal counters and metrics.  Two design
choices make that possible:

1. **Content-addressed randomness.**  The online build profile derives every
   random decision from the *values* of the points involved, never from
   array positions or subset sizes.  Separator candidates are drawn from a
   rendezvous sample — the ``s`` points of the subset with the smallest
   per-point content hashes — with a generator seeded by the sample's own
   hashes, so a node whose subset is unchanged re-derives the identical
   subtree, and a node whose subset changed *slightly* usually re-derives
   the identical separator (the sample rarely moves), confining the rebuild
   to the paths the mutations actually touch.  The correction path's punt
   randomness is likewise seeded from the subset hash.

2. **Recorded nodes.**  A version keeps its tree as preorder columns
   (:class:`_Version`), so everything a replay needs — a subtree's exact
   composed :class:`~repro.pvm.cost.Cost`, its section events and its
   metric deltas (the ``machine.*`` event counters among them) — is one
   node range of them and one slice of each series.  Per sufficiently
   large node a record adds what a later commit needs to redo the node
   cheaply: its separator search (the rendezvous sample's key bound and
   each attempt's candidate and interior count), its correction's
   straddlers, and their neighbor rows before that correction (the
   node's *log*).

Both run on the frontier level loop of :mod:`repro.core.frontier`
(:class:`_OnlineFrontier`): each level's separator searches are rows of
one stacked sampler pass, its leaves are brute-forced together and its
Fast Corrections run as one lockstep march.  Absorbing a commit is the
same level loop over the new point set, starting from the previous
version's final neighbor rows, with the previous version's nodes as
hints (preorder indices into its columns).  A node whose sample the
mutations leave alone and whose every attempt keeps its outcome reuses
its hint's separator without a search.  Such a node, and one whose
search ends at its hint's separator anyway, is *anchored*: its children
are the hint's children plus or minus the mutations routed to them, and
it undoes its hint's log so the rows below it read as they did before
the hint's correction.  A child that received no mutation is resolved at
once as a block of the previous version's columns — one ``charge``
instead of thousands, and no row written.  An anchored node's correction
keeps its hint's straddler verdicts and reclassifies only the balls
whose radius can have changed.  Every other node is divided and
corrected exactly as a fresh build would.  Each node's counters, series
and phase totals fold into the run in the recursive engine's depth-first
order, the order a version's columns keep them in.

Versions are copy-on-write: each commit allocates fresh neighbor arrays
and fresh columns, copying each replayed subtree's range from the
previous version's with its leaf ids remapped monotonically (which
preserves every (distance, index) tie-break) and sharing its records,
which name points by position in the node's leaf block.  The level loop
writes each version's :class:`~repro.kernels.FlatTree`, and snapshots
hold only that and the version's arrays — never a partition-tree node or
a replay record — so they stay valid forever while a superseded version
is freed as soon as the next commit replaces it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.points import as_points
from ..geometry.spheres import Hyperplane, Sphere
from ..kernels.layout import FlatTree
from ..obs.metrics import Metrics, MetricsView
from .. import kernels
from ..pvm.cost import ZERO, Cost
from ..pvm.machine import Machine
from ..separators.batch import split_is_good
from ..separators.quality import default_delta
from ..util.rng import seed_sequence_root
from .columns import TreeColumns
from .fast_dnc import FastDnCConfig, FastDnCStats
from .frontier import _REFRESH_EVERY, _FastFrontier, _Seg
from .neighborhood import KNeighborhoodSystem
from .partition_tree import PartitionNode

__all__ = [
    "CommitInfo",
    "MutableIndex",
    "UpdateStats",
    "equivalence_report",
    "online_sample_size",
    "tree_signature",
]

#: Subtrees of at least ``max(base, _SNAPSHOT_MIN)`` points (and the
#: root) record themselves; smaller reused subtrees are rebuilt fresh
#: (bit-identical either way).  Replay granularity reaches down to the
#: brute-force leaves, which caps the recompute cost of one mutation at
#: its root-leaf path.
_SNAPSHOT_MIN = 32

#: The radius-changed balls of a replayed subtree: none.
_NO_IDS = np.empty(0, dtype=np.int64)

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def online_sample_size(d: int) -> int:
    """Default separator sample size of the online build profile.

    An eighth of the offline :func:`~repro.separators.mttv.default_sample_size`:
    the probability that a mutation displaces a node's rendezvous sample —
    and thereby redraws its separator, scrambling the subtree below — is
    ``s/m`` per mutated point, so a smaller sample is directly a higher
    subtree-reuse rate.  Split *quality* is unaffected (every candidate
    still passes :func:`~repro.separators.quality.is_good_point_split`
    against the full subset); the smaller centerpoint sample only costs
    extra retry attempts, which stay O(1) in expectation (measured ~1.04
    per node at d=2 versus ~1.02 with the offline sample).
    """
    return max(d + 3, (d + 2) ** 2)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 arrays (wrapping)."""
    with np.errstate(over="ignore"):
        x = np.uint64(x) if np.isscalar(x) else x
        x = x ^ (x >> np.uint64(30))
        x = x * _MIX_1
        x = x ^ (x >> np.uint64(27))
        x = x * _MIX_2
        x = x ^ (x >> np.uint64(31))
    return x


def _point_keys(points: np.ndarray, salt: int) -> np.ndarray:
    """Per-point 64-bit content hashes: a pure function of coordinates.

    ``-0.0`` is folded into ``+0.0`` first so value-equal points always
    share a key.  The key depends on the point's *values* only — never on
    its row index — which is what makes the online build's random choices
    survive compaction and re-numbering.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64) + 0.0
    raw = pts.view(np.uint64)
    acc = np.full(pts.shape[0], np.uint64(salt) ^ _GOLDEN, dtype=np.uint64)
    for j in range(pts.shape[1]):
        acc = _mix64(acc ^ raw[:, j])
    return _mix64(acc)


def _round_keys(keys: np.ndarray, salt: int, q: int) -> np.ndarray:
    """``keys`` re-salted for round ``q`` of a separator search (a
    refresh every ``_REFRESH_EVERY`` attempts starts the next round)."""
    round_salt = np.uint64((q * 0x9E3779B97F4A7C15 ^ salt) & 0xFFFFFFFFFFFFFFFF)
    return _mix64(keys ^ _mix64(round_salt))


def _fold_keys(keys: np.ndarray) -> int:
    """Order-sensitive fold of a key sequence into one 64-bit value."""
    if keys.shape[0] == 0:
        return 0
    ranks = np.arange(keys.shape[0], dtype=np.uint64)
    with np.errstate(over="ignore"):
        mixed = _mix64(keys ^ _mix64(ranks * _GOLDEN))
    return int(np.bitwise_xor.reduce(mixed))


@dataclass(slots=True)
class _NodeRecord:
    """What later commits need of one recorded node to redo it cheaply.

    Its subtree's composed cost, section events and metrics are rows and
    slices of its version's columns (:class:`_Version`), so a replay needs
    nothing here but the record's presence.  To redo the node's search
    when its subset changed (:meth:`_OnlineFrontier._reuse`), kept only
    when the search can be replayed: ``bound``, the largest first-round
    key of its rendezvous sample, which no other key of its subset ties,
    and ``tries``, one ``(candidate, interior count)`` per attempt with
    ``None`` for a draw failure, the last one accepted (the separator).
    To anchor a later node that divides by the same sphere
    (:meth:`_OnlineFrontier._anchor`): ``straddlers``, its correction's
    straddlers, the first ``n_in`` of them on the inner side, and
    ``log_idx``/``log_sq``, their neighbor rows before that correction.
    Straddlers and logged neighbor ids are positions into the node's leaf
    block — its ids in leaf order (int32, -1 for padding) — so a record
    stays valid when a commit renumbers the ids and is shared by every
    version that copies the node.
    """

    bound: Optional[np.uint64] = None
    tries: tuple = ()
    straddlers: Optional[np.ndarray] = None
    n_in: int = 0
    log_idx: Optional[np.ndarray] = None
    log_sq: Optional[np.ndarray] = None


@dataclass(slots=True)
class _Version:
    """One committed version's tree: its :class:`~repro.core.columns.TreeColumns`
    plus, by preorder index, what a later commit replays or redoes.

    ``cost`` holds each subtree's composed ``(depth, work)``;
    ``counters`` each counter's own value per node, so a subtree's are the
    sums over its node range; ``series`` each sample series in the
    recursive engine's order (a node's children's, then its own: a
    subtree's entries are one slice) and ``series_n`` each node's own
    entry count; ``records`` the recorded nodes' :class:`_NodeRecord`.
    """

    cols: TreeColumns
    cost: np.ndarray
    counters: Dict[str, np.ndarray]
    series: Dict[str, list]
    series_n: Dict[str, np.ndarray]
    records: List[Optional[_NodeRecord]]
    _slices: Optional[tuple] = None

    def metrics(self) -> Metrics:
        """The whole tree's counters and series."""
        metrics = Metrics()
        for name, own in self.counters.items():
            total = int(own.sum())
            if total:
                metrics.counters[name] = total
        metrics.series = self.series
        return metrics

    def subtree_series(self, h: int) -> Dict[str, list]:
        """The series entries of the subtree under node ``h``."""
        if self._slices is None:
            order = self.cols.postorder()
            rank = np.empty_like(order)
            rank[order] = np.arange(order.shape[0])
            starts = {}
            for name, own in self.series_n.items():
                starts[name] = np.concatenate(([0], np.cumsum(own[order])))
            self._slices = (rank, starts)
        rank, starts = self._slices
        last = int(rank[h])
        first = last - (int(self.cols.end[h]) - h) + 1
        return {
            name: self.series[name][int(at[first]) : int(at[last + 1])]
            for name, at in starts.items()
        }


@dataclass
class _OnlineSeg(_Seg):
    """A frontier segment with the online build's per-node state.

    ``hint`` is the preorder index of the previous version's node at the
    same place; when known, the segment's subset is the hint's
    (renumbered) less the deleted points and plus the inserted points
    among ``muts``, the positions of the commit's mutations
    (:meth:`_OnlineFrontier.build`) that fall in it.  ``bound``/``tries``
    collect its search for its record, ``kept`` holds its hint's
    straddlers (inner side, outer side) once it is anchored
    (:meth:`_OnlineFrontier._anchor`), and ``changed`` the ids of its
    subtree whose neighbor rows can differ from the hint's after its
    correction (:meth:`_OnlineFrontier._changed`).  ``log`` is its
    straddlers and their rows before its correction, and ``sink`` holds
    the node's own counters and series."""

    hint: Optional[int] = None
    muts: Optional[np.ndarray] = None
    bound: Optional[np.uint64] = None
    tries: Optional[list] = None
    kept: Optional[Tuple[np.ndarray, np.ndarray]] = None
    changed: Optional[np.ndarray] = None
    log: Optional[tuple] = None
    sink: Optional["_Sink"] = None


class _Sink:
    """One node's own counters and series: the part of a
    :class:`~repro.pvm.machine.Machine` the frontier's counter hooks and
    punt corrections write to (a node's costs fold analytically)."""

    __slots__ = ("metrics", "stats", "scan_policy")

    bump = Machine.bump

    def __init__(self, scan: str) -> None:
        self.metrics = Metrics()
        self.stats = FastDnCStats(metrics=self.metrics)
        self.scan_policy = scan


class _OnlineFrontier(_FastFrontier):
    """The online build profile on the frontier level loop.

    It runs :class:`~repro.core.frontier._FastFrontier`'s levels (stacked
    separator rounds, stacked leaf brute force, one lockstep march per
    correction level) and differs in three ways:

    - randomness is content-addressed (see the module docstring): a
      node's sampler rows come from its rendezvous sample, each with a
      generator seeded by the sample's hash fold, and its correction
      punts draw from a generator seeded by its subset's hash fold, made
      only when the node punts;
    - with a previous version (absorb), a node redoes its hint's divide
      from the hint's record when the search would end the same way
      (:meth:`_reuse`), patches its hint's straddlers instead of
      classifying every ball (:meth:`_classify_level`), and a child that
      received no mutation replays its hint's subtree: it is resolved
      when its parent divides, as a block whose rows are the previous
      version's subtree range;
    - each node's own counters and series go to its :class:`_Sink`, and
      once the tree is solved they become the version's columns
      (:meth:`_version`): the series in the recursive engine's
      depth-first order, with each replayed subtree's as one slice of
      the previous version's.  The root and the nodes of at least
      ``max(base, _SNAPSHOT_MIN)`` points record themselves
      (:meth:`_level_corrected`).
    """

    def __init__(
        self, points, k, machine, root_ss, config, stats, nbr_idx, nbr_sq, base,
        *, keys: np.ndarray, salt: int, prev: Optional[_Version] = None,
        idmap: Optional[np.ndarray] = None, deleted: Optional[np.ndarray] = None,
        deleted_keys: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__(points, k, machine, root_ss, config, stats, nbr_idx, nbr_sq, base)
        self.keys = keys
        self.salt = int(salt)
        self.prev = prev
        self.idmap = idmap
        #: the coordinates and keys of the points the commit deletes
        self.deleted = deleted
        self.deleted_keys = deleted_keys
        self.target = default_delta(self.dim, config.epsilon)
        #: every point's key re-salted for refresh round ``q``, made on first use
        self._salted_keys: Dict[int, np.ndarray] = {}
        self.snapshot_min = max(base, _SNAPSHOT_MIN)
        self.sample_size = (
            config.sample_size if config.sample_size is not None else online_sample_size(self.dim)
        )
        #: an absorb's marks of the ids in some corrected node's changed
        #: ids (:meth:`_changed`)
        self._dirty: Optional[np.ndarray] = None
        self._built: List[_OnlineSeg] = []
        self._replayed: List[_OnlineSeg] = []
        self.reused_subtrees = 0
        self.reused_points = 0
        self.separators_reused = 0
        self.separators_searched = 0
        self.balls_reclassified = 0

    def build(self) -> _Version:
        """Build the version, absorbing into the previous one when given;
        returns its columns."""
        n = self.points.shape[0]
        prev = self.prev
        root = _OnlineSeg(
            ids=np.arange(n, dtype=np.int64), level=0, path=(),
            hint=None if prev is None else 0,
        )
        if prev is not None:
            # the commit's mutations: the inserted points (ids from
            # first_insert on), then the deleted ones
            self.first_insert = int(prev.cols.size[0]) - self.deleted.shape[0]
            self.n_inserted = n - self.first_insert
            self.mut_pts = np.concatenate([self.points[self.first_insert:], self.deleted])
            keys = np.concatenate([self.keys[self.first_insert:], self.deleted_keys])
            self.mut_keys = _round_keys(keys, self.salt, 0)
            root.muts = np.arange(self.mut_pts.shape[0], dtype=np.int64)
            self._dirty = np.zeros(n, dtype=bool)
            self._hint_pos = self._hint_positions()
        self.solve_subtree(root)
        version = self._version()
        self.machine.metrics.merge(version.metrics())
        self._charge_root(root)
        return version

    def _hint_positions(self) -> np.ndarray:
        """Each survivor's position in the previous version's leaf order
        (-1 for an insert): a hint's ids are one range of it."""
        prev_n = int(self.prev.cols.size[0])
        at = np.empty(prev_n, dtype=np.int64)
        at[self.prev.cols.flat.leaf_ids] = np.arange(prev_n, dtype=np.int64)
        pos = np.full(self.points.shape[0], -1, dtype=np.int64)
        pos[: self.first_insert] = at if self.idmap is None else at[self.idmap >= 0]
        return pos

    def _assemble(self, levels) -> None:
        # the build is over: its hint positions and salted keys are spent
        self._hint_pos = None
        self._salted_keys.clear()
        super()._assemble(levels)
        n = self.points.shape[0]
        #: each id's position in the leaf order, for the records' logs
        self._leaf_pos = np.empty(n, dtype=np.int64)
        self._leaf_pos[self.cols.flat.leaf_ids] = np.arange(n, dtype=np.int64)
        self._records: List[Optional[_NodeRecord]] = [None] * self.cols.n_nodes

    def _block_ids(self, ids: np.ndarray) -> np.ndarray:
        return ids if self.idmap is None else self.idmap[ids]

    # -- hints, reuse and replays ------------------------------------------

    def _divide_from_hints(self, active):
        search = [seg for seg in active if not self._reuse(seg)]
        self.separators_searched += len(search)
        return search

    def _record_of(self, seg: _OnlineSeg) -> Optional[_NodeRecord]:
        return None if seg.hint is None else self.prev.records[seg.hint]

    def _reuse(self, seg: _OnlineSeg) -> bool:
        """Give ``seg`` its hint's divide when a search would end there.

        That holds when the commit leaves the node's rendezvous sample
        alone — no mutation routed here has a round-0 key at or below the
        record's ``bound`` — so the candidate sequence is the hint's, and
        every attempt keeps its outcome: its interior count, moved by the
        mutations that fall inside the candidate, passes or fails the
        split test as before.  The attempts' charges and counters are
        then folded as the search would fold them, the children are the
        hint's children plus or minus the mutations on their side, and
        the hint's log is undone (:meth:`_undo`).
        """
        rec = self._record_of(seg)
        m = seg.ids.shape[0]
        if rec is None or rec.bound is None or m <= self.sample_size:
            return False
        muts = seg.muts
        if (self.mut_keys[muts] <= rec.bound).any():
            return False
        pts = self.mut_pts[muts]
        n_ins = int(np.searchsorted(muts, self.n_inserted))  # inserts come first
        tries = []
        last = len(rec.tries) - 1
        for attempt, (candidate, interior) in enumerate(rec.tries):
            if candidate is not None:
                inside = kernels.sphere_side(pts, candidate.center, candidate.radius) < 0
                interior += int(np.count_nonzero(inside[:n_ins]))
                interior -= int(np.count_nonzero(inside[n_ins:]))
                if split_is_good(interior, m, self.target) != (attempt == last):
                    return False
            tries.append((candidate, interior))
        divide = ZERO
        for candidate, _ in tries:
            divide = self._charge_attempt(seg, divide)
            if candidate is None:
                self._machine_of(seg).bump("separator_draw_failures")
        seg.pre_cost = seg.pre_cost.then(divide)
        seg.divide_cost = divide
        seg.separator = tries[-1][0]
        self._accept(seg, len(tries))
        seg.bound, seg.tries = rec.bound, tries
        # the last candidate is the separator: route the mutations by it
        routed = (muts[inside], muts[~inside])
        self._hint_children(seg, routed[0])
        self._anchor(seg, rec, routed)
        self.separators_reused += 1
        return True

    def _hint_children(self, seg: _OnlineSeg, inner_muts: np.ndarray) -> None:
        """Split ``seg``'s ids as its hint's children split theirs: the
        inner child takes the survivors of the hint's inner child (one
        range of the previous leaf order) and the inserts among
        ``inner_muts``, the outer child the rest, both ascending."""
        cols, h = self.prev.cols, seg.hint + 1
        lo = int(cols.point_lo[h])
        pos = self._hint_pos[seg.ids]
        inside = (pos >= lo) & (pos < lo + int(cols.size[h]))
        inserts = inner_muts[: int(np.searchsorted(inner_muts, self.n_inserted))]
        inside[np.searchsorted(seg.ids, inserts + self.first_insert)] = True
        seg.left = _OnlineSeg(ids=seg.ids[inside], level=seg.level + 1, path=seg.path + (0,))
        seg.right = _OnlineSeg(ids=seg.ids[~inside], level=seg.level + 1, path=seg.path + (1,))

    def _anchor(self, seg: _OnlineSeg, rec: _NodeRecord, routed) -> None:
        """``seg`` divides by its hint's separator: its children take the
        hint's children as hints, with the mutations ``routed`` to their
        side, and the hint's log is undone (:meth:`_undo`)."""
        hints = (seg.hint + 1, int(self.prev.cols.flat.right[seg.hint]))
        for child, child_hint, child_muts in zip((seg.left, seg.right), hints, routed):
            child.hint, child.muts = child_hint, child_muts
        self._undo(seg, rec)

    def _undo(self, seg: _OnlineSeg, rec: _NodeRecord) -> None:
        """Put back the neighbor rows ``seg``'s hint had before its own
        correction, and keep the hint's straddlers in the new ids.

        Only a correction's straddlers have their rows changed by it, and
        the hint logged theirs.  The absorb starts from the previous
        version's final rows and undoes each anchored node's hint top-down
        as the node divides, so once a level is divided every row below it
        reads as it did before the hints' corrections: a replayed
        subtree's rows are its hint's, and a row that still names a
        deleted point is rewritten by a deeper undo or a rebuilt leaf.
        """
        ids = self.prev.cols.leaf_block(seg.hint)
        old = ids[rec.straddlers]
        nbrs = ids[rec.log_idx]
        if self.idmap is not None:
            old, nbrs = self.idmap[old], self.idmap[nbrs]
        nbrs[rec.log_idx < 0] = -1
        alive = old >= 0
        self.nbr_idx[old[alive]] = nbrs[alive]
        self.nbr_sq[old[alive]] = rec.log_sq[alive]
        n_in = rec.n_in
        seg.kept = (old[:n_in][alive[:n_in]], old[n_in:][alive[n_in:]])

    def _same_sphere(self, sep, h: int) -> bool:
        """Whether ``sep`` is the previous version's node ``h``'s sphere,
        bit for bit."""
        flat = self.prev.cols.flat
        return (
            isinstance(sep, Sphere)
            and sep.radius == float(flat.radii[h])
            and sep.center.tobytes() == flat.centers[h].tobytes()
        )

    def _divide_level(self, segs, span):
        """Divide as the frontier does.  A node whose search ended at its
        hint's sphere (a tied sample boundary keeps a search from being
        replayed, not from repeating) is anchored like a reusing one; the
        children that received no mutation replay their hint's subtree
        and are built no further.  A one-point leaf's row is emptied:
        brute force writes none, and an absorb starts from the previous
        version's rows."""
        children = super()._divide_level(segs, span)
        for seg in segs:
            rec = self._record_of(seg)
            if (
                seg.kept is None
                and seg.left is not None
                and rec is not None
                and rec.straddlers is not None
                and self._same_sphere(seg.separator, seg.hint)
            ):
                sep = seg.separator
                inside = kernels.sphere_side(self.mut_pts[seg.muts], sep.center, sep.radius) < 0
                self._anchor(seg, rec, (seg.muts[inside], seg.muts[~inside]))
        for child in children:
            if child.hint is not None and not child.muts.shape[0]:
                self._replay(child)
        for seg in segs:
            seg.hint = seg.muts = None
            if seg.is_leaf and seg.ids.shape[0] == 1:
                self.nbr_idx[seg.ids] = -1
                self.nbr_sq[seg.ids] = np.inf
        return children

    def _replay(self, seg: _OnlineSeg) -> None:
        """Resolve ``seg``, whose subset is its hint's, as a block of the
        previous version's subtree when the hint recorded itself; its rows
        are already in place (:meth:`_undo`).

        Validity rests on the online build being a pure function of subset
        values: equal subsets rebuild to the identical subtree, so
        replaying the subtree *is* the fresh build.
        """
        if self._record_of(seg) is None:
            return
        seg.block = (self.prev.cols, seg.hint)
        seg.total_cost = Cost(*self.prev.cost[seg.hint].tolist())
        seg.changed = _NO_IDS
        self._replayed.append(seg)
        self.reused_subtrees += 1
        self.reused_points += seg.m

    # -- content-addressed randomness --------------------------------------

    def _sampler_rows(self, segs, subs, attempt):
        """Each node's rendezvous sample and its generator.

        The sample is the ``s`` subset points with the smallest salted
        content hashes, re-salted every ``_REFRESH_EVERY`` attempts, and
        the generator is seeded by the sample's hash fold.  A mutation
        elsewhere in the subset leaves the sample — hence the candidate
        sequence and the accepted separator — unchanged; only one that
        displaces a sample member (probability ``s/m`` per mutated point)
        redraws it.  The samples are the rows' whole centerpoint samples,
        so the returned sample size (the largest) subsamples none again.
        A first-round sample sets the node's ``bound`` when no key outside
        it ties its largest.
        """
        q = (attempt - 1) // _REFRESH_EVERY
        salted = self._salted_keys.get(q)
        if salted is None:
            salted = self._salted_keys[q] = _round_keys(self.keys, self.salt, q)
        size = self.sample_size
        samples, rngs = [], []
        for seg, sub in zip(segs, subs):
            akeys = salted[seg.ids]
            seg.bound = None
            if size < sub.shape[0]:
                sel = np.argpartition(akeys, size - 1)[:size]
                sel.sort()
                sample, sample_keys = sub[sel], akeys[sel]
                bound = sample_keys.max()
                if q == 0 and np.count_nonzero(akeys <= bound) == size:
                    seg.bound = bound
                fold = _fold_keys(sample_keys)
            else:
                sample, fold = sub, _fold_keys(akeys)
            samples.append(sample)
            rngs.append(np.random.default_rng(
                np.random.SeedSequence(entropy=(self.salt, attempt - 1, fold))
            ))
        return samples, rngs, max(sample.shape[0] for sample in samples)

    def _tried(self, seg, candidate, interior):
        if seg.tries is None:
            seg.tries = []
        seg.tries.append((candidate, interior))

    def _rng_of(self, seg):
        """The correction punt generator, seeded by the subset's content."""
        if seg.rng is None:
            node_key = _fold_keys(self.keys[self._ids(seg)])
            seg.rng = np.random.default_rng(
                np.random.SeedSequence(entropy=(self.salt, node_key, 0xC0DE))
            )
        return seg.rng

    # -- straddlers, per-node events and records ----------------------------

    def _classify_level(self, internal):
        """Each node's straddlers; an anchored node keeps its hint's
        verdicts and reclassifies only the balls of its children whose
        radius can have changed (:meth:`_changed`).

        A ball's radius is its neighbor row's last distance, and a row
        changes only at a rebuilt leaf or at a correction that has the
        ball as a straddler.  So outside its children's changed ids every
        ball has its hint-time radius and its hint's verdict.  The node's
        own changed ids add its hint's straddlers to its children's (its
        own lie in those two sets).  Each recorded node logs its
        straddlers' rows here, before its level's flush changes them, as
        positions in its leaf block.
        """
        balls = [
            (self._changed(seg.left), self._changed(seg.right))
            if seg.kept is not None
            else (self._block(seg.left), self._block(seg.right))
            for seg in internal
        ]
        found = self._straddlers(internal, balls)
        dirty = self._dirty
        for j, seg in enumerate(internal):
            (r_in, r_ex), (s_in, s_ex) = balls[j], found[j]
            self.balls_reclassified += r_in.shape[0] + r_ex.shape[0]
            if seg.kept is not None:
                (old_in, old_ex), seg.kept = seg.kept, None
                old_in, old_ex = old_in[~dirty[old_in]], old_ex[~dirty[old_ex]]
                s_in = np.sort(np.concatenate([old_in, s_in]))
                s_ex = np.sort(np.concatenate([old_ex, s_ex]))
                found[j] = (s_in, s_ex)
                dirty[old_in] = True
                dirty[old_ex] = True
                seg.changed = np.concatenate([r_in, r_ex, old_in, old_ex])
            if self._recorded(seg) and isinstance(seg.separator, Sphere):
                straddlers = np.concatenate([s_in, s_ex])
                rows = self.nbr_idx[straddlers]
                lo = int(self.cols.point_lo[seg.pre])
                log_idx = (self._leaf_pos[rows] - lo).astype(np.int32)
                log_idx[rows < 0] = -1
                seg.log = (
                    (self._leaf_pos[straddlers] - lo).astype(np.int32),
                    s_in.shape[0], log_idx, self.nbr_sq[straddlers],
                )
        return found

    def _changed(self, seg: _OnlineSeg) -> np.ndarray:
        """The ids of ``seg``'s subtree whose neighbor rows can differ
        from its hint's after its correction, marked in ``_dirty``: none
        for a replay, all for a rebuilt subtree, and for an anchored node
        what :meth:`_classify_level` set.  Each is a superset of its
        children's, so a subtree's marks are its root's set."""
        if seg.changed is None:
            seg.changed = self._block(seg)
            self._dirty[seg.changed] = True
        return seg.changed

    def _recorded(self, seg) -> bool:
        """Whether ``seg`` records itself: the root, which every commit
        recomputes, and every node of at least ``snapshot_min`` points."""
        return seg.level == 0 or seg.m >= self.snapshot_min

    @staticmethod
    def _replayable(seg) -> bool:
        """Whether a later commit can replay ``seg``'s search: a strict
        first-round sample and sphere candidates only, whose sides are
        row-local (a hyperplane's BLAS product is not)."""
        return seg.bound is not None and all(
            candidate is None or isinstance(candidate, Sphere) for candidate, _ in seg.tries
        )

    def _machine_of(self, seg):
        if seg.sink is None:
            seg.sink = _Sink(self.machine.scan_policy)
        return seg.sink

    def _stats_of(self, seg):
        return self._machine_of(seg).stats

    def _level_corrected(self, level_segs) -> None:
        """Keep each built node of the level for :meth:`_version`, and
        record the root and the nodes of at least ``snapshot_min``
        points.  A node with a log keeps its search for a later commit
        to replay."""
        for seg in level_segs:
            if seg.block is not None:
                continue
            self._built.append(seg)
            if seg.left is not None:
                seg.left.changed = seg.right.changed = None
            if self._recorded(seg):
                rec = self._records[seg.pre] = _NodeRecord()
                if seg.log is not None:
                    rec.straddlers, rec.n_in, rec.log_idx, rec.log_sq = seg.log
                    seg.log = None
                    if self._replayable(seg):
                        rec.bound, rec.tries = seg.bound, tuple(seg.tries)

    def _version(self) -> _Version:
        """The solved tree's per-node columns: the built nodes' own cost,
        counters, series and records, and each replayed subtree's rows
        copied from the previous version.  A node's series entries follow
        its children's (the order the recursive engine writes its stats),
        so the version's series are the pieces in postorder: a built
        node's own entries, a replayed subtree's slice."""
        cols, built, prev = self.cols, self._built, self.prev
        n_nodes = cols.n_nodes
        rank = np.empty(n_nodes, dtype=np.int64)
        rank[cols.postorder()] = np.arange(n_nodes)
        cost = np.empty((n_nodes, 2), dtype=np.float64)
        cost[[seg.pre for seg in built]] = [
            (seg.total_cost.depth, seg.total_cost.work) for seg in built
        ]
        counters: Dict[str, np.ndarray] = {}
        series_n: Dict[str, np.ndarray] = {}

        def column(store: Dict[str, np.ndarray], name: str) -> np.ndarray:
            if name not in store:
                store[name] = np.zeros(n_nodes, dtype=np.int64)
            return store[name]

        pieces = []
        for seg in built:
            metrics = seg.sink.metrics
            for name, value in metrics.counters.items():
                column(counters, name)[seg.pre] = value
            for name, entries in metrics.series.items():
                column(series_n, name)[seg.pre] = len(entries)
            pieces.append((int(rank[seg.pre]), metrics.series))
        records = self._records
        for seg in self._replayed:
            i, h = seg.pre, seg.block[1]
            dst, src = slice(i, i + int(prev.cols.end[h]) - h), slice(h, int(prev.cols.end[h]))
            cost[dst] = prev.cost[src]
            records[dst] = prev.records[src]
            for mine, theirs in ((counters, prev.counters), (series_n, prev.series_n)):
                for name, col in theirs.items():
                    column(mine, name)[dst] = col[src]
            pieces.append((int(rank[i]), prev.subtree_series(h)))
        pieces.sort(key=lambda piece: piece[0])
        series: Dict[str, list] = {}
        for _, part in pieces:
            for name, entries in part.items():
                series.setdefault(name, []).extend(entries)
        self._built = self._replayed = []
        return _Version(cols, cost, counters, series, series_n, records)


# -- equality helpers -------------------------------------------------------


def _separator_signature(sep) -> tuple:
    if sep is None:
        return ("leaf",)
    if isinstance(sep, Sphere):
        return ("sphere", sep.center.tobytes(), sep.radius)
    if isinstance(sep, Hyperplane):
        return ("hyperplane", sep.normal.tobytes(), sep.offset)
    return (type(sep).__name__, repr(sep))  # pragma: no cover - future kinds


def tree_signature(node: Optional[PartitionNode]) -> list:
    """Exact structural signature of a partition tree, preorder.

    Two trees with equal signatures have identical node subsets (ids and
    order), identical separators (bit-equal geometry) and identical shape
    — the equality the online index's commit guarantee is stated in.
    """
    if node is None:
        return []
    return [
        (n.indices.tobytes(), _separator_signature(n.separator)) for n in node.nodes()
    ]


def _layout_bytes(flat: FlatTree) -> list:
    """A flat tree's arrays, exactly: equal for two trees exactly when
    their :func:`tree_signature` is (a node's ids are its leaves')."""
    return [(a.dtype.str, a.shape, a.tobytes()) for a in flat.arrays().values()]


def equivalence_report(built: "MutableIndex", reference: "MutableIndex") -> List[str]:
    """Differences between a committed index and a from-scratch reference.

    Empty list = bit-identical: neighbor arrays, partition tree, (depth,
    work) ledger, section events (each phase's depth and work), machine
    counters, and the full metrics registry.  Used by the property tests
    and the ``repro update --check`` gate.
    """
    problems: List[str] = []
    a, b = built, reference
    if not np.array_equal(a.neighbor_indices, b.neighbor_indices):
        problems.append("neighbor indices differ")
    if not np.array_equal(a.neighbor_sq_dists, b.neighbor_sq_dists):
        problems.append("neighbor squared distances differ")
    if _layout_bytes(a.layout) != _layout_bytes(b.layout):
        problems.append("partition trees differ")
    ca, cb = a.machine.total, b.machine.total
    if ca.depth != cb.depth or ca.work != cb.work:
        problems.append(f"ledger differs: {(ca.depth, ca.work)} vs {(cb.depth, cb.work)}")
    sa, sb = a.machine.sections, b.machine.sections
    for name in sorted(set(sa) | set(sb)):
        pa, pb = sa.get(name), sb.get(name)
        if pa is None or pb is None or pa.depth != pb.depth or pa.work != pb.work:
            problems.append(f"section {name!r} differs: {pa} vs {pb}")
    if a.machine.counters != b.machine.counters:
        problems.append("machine counters differ")
    ma, mb = a.machine.metrics, b.machine.metrics
    if ma.counters != mb.counters:
        problems.append("metric counters differ")
    if ma.gauges != mb.gauges:
        problems.append("metric gauges differ")
    if {k: v for k, v in ma.series.items() if v} != {k: v for k, v in mb.series.items() if v}:
        problems.append("metric series differ")
    return problems


# -- the mutable index ------------------------------------------------------


class UpdateStats(MetricsView):
    """Mutation metrics, namespaced ``update.*`` in a *persistent* registry.

    Lives on the :class:`MutableIndex` (not on the per-version build
    machine, whose registry must stay bit-comparable to a fresh build's).
    Counters: ``commits``, ``absorbed``, ``punts``, ``inserted``,
    ``deleted``, ``reused_subtrees``, ``reused_points``, and what the
    commits' recomputed nodes did: ``separators_reused`` (a node took
    its hint's separator from the record), ``separators_searched`` (it
    ran the search) and ``balls_reclassified`` (balls its correction
    classified against its separator).  Gauges:
    ``version``, ``churn``, ``touched_leaves``.  Series: ``commits``
    holds one ``(version, inserted, deleted, churn, punted)`` tuple per
    commit.
    """

    _NS = "update"
    _COUNTER_FIELDS = (
        "commits",
        "absorbed",
        "punts",
        "inserted",
        "deleted",
        "reused_subtrees",
        "reused_points",
        "separators_reused",
        "separators_searched",
        "balls_reclassified",
    )
    _GAUGE_FIELDS = ("version", "churn", "touched_leaves")
    _SERIES_FIELDS = ("commits_log",)


@dataclass(frozen=True)
class CommitInfo:
    """Summary of one :meth:`MutableIndex.commit`."""

    version: int
    n: int
    inserted: int
    deleted: int
    churn: float
    punted: bool
    noop: bool = False
    reused_subtrees: int = 0
    reused_points: int = 0
    touched_leaves: int = 0
    wall_s: float = 0.0

    @property
    def absorbed(self) -> bool:
        """True when the commit went through the absorb fast path."""
        return not self.punted and not self.noop

    @property
    def reused_fraction(self) -> float:
        """Fraction of points served from replayed subtrees."""
        return self.reused_points / self.n if self.n else 0.0


class MutableIndex:
    """An exact k-NN index that absorbs inserts and deletes.

    Parameters
    ----------
    points:
        (n, d) initial points (copied; the index never aliases caller
        arrays).
    k:
        Neighbors per point, ``1 <= k < n``.
    seed:
        Determinism root.  Two indexes with the same points, ``k``, seed
        and config are bit-identical — including after any sequence of
        committed mutations, which is the absorb-equivalence guarantee.
    config:
        :class:`~repro.core.fast_dnc.FastDnCConfig`; the online build
        always runs its own profile on the serial frontier level loop
        (the ``engine`` and ``workers`` fields do not change the build —
        see ``docs/online_index.md``).
    churn_threshold:
        Commits whose churn fraction ``(inserts + deletes) / n`` exceeds
        this punt to a full rebuild (the absorb machinery stops paying for
        itself well below 1.0; see the benchmark table).
    machine:
        Optional ledger for the *initial* build; every commit gets a fresh
        one (so ``index.machine.total`` always equals the from-scratch
        cost of the current version).
    trace_commits:
        Attach a tracer to each commit's fresh machine, so the
        ``update.absorb`` / ``update.rebuild`` spans (and the build spans
        under them) are recorded on :attr:`machine` ``.tracer`` after
        every commit.  Tracing is passive — the ledger, and therefore the
        equivalence guarantee, is unchanged.
    """

    def __init__(
        self,
        points: np.ndarray,
        k: int = 1,
        *,
        seed: object = 0,
        config: Optional[FastDnCConfig] = None,
        churn_threshold: float = 0.05,
        machine: Optional[Machine] = None,
        trace_commits: bool = False,
    ) -> None:
        pts = np.array(as_points(points, min_points=1), dtype=np.float64, copy=True)
        n = pts.shape[0]
        if not 1 <= k < max(2, n):
            raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
        if not 0.0 <= churn_threshold <= 1.0:
            raise ValueError(f"churn_threshold must be in [0, 1], got {churn_threshold}")
        self.k = int(k)
        self.config = config if config is not None else FastDnCConfig()
        self.churn_threshold = float(churn_threshold)
        self._base = self.config.base_size(self.k)
        self._seed = seed
        self.trace_commits = bool(trace_commits)
        root_ss = seed_sequence_root(seed)
        self._root_ss = root_ss
        self._salt = int(root_ss.generate_state(1, np.uint64)[0])
        self.version = 0
        self.update_metrics = Metrics()
        self.update_stats = UpdateStats(metrics=self.update_metrics)
        self._pending_inserts: List[np.ndarray] = []
        self._pending_deletes: set = set()
        self.points = pts
        self.machine = machine if machine is not None else Machine()
        self.stats: FastDnCStats
        self.layout: FlatTree
        self.nbr_idx: np.ndarray
        self.nbr_sq: np.ndarray
        #: every point's content key (:func:`_point_keys`), carried across commits
        self.keys = _point_keys(pts, self._salt)
        self._run(pts, self.keys, self.machine)
        self.update_stats.version = 0

    # -- views -------------------------------------------------------------

    @property
    def n(self) -> int:
        return int(self.points.shape[0])

    @property
    def d(self) -> int:
        return int(self.points.shape[1])

    @property
    def tree(self) -> PartitionNode:
        """The current version's partition tree: a
        :class:`~repro.core.partition_tree.PartitionNode` view built from
        its columns on first read."""
        if self._tree is None:
            self._tree = self._version.cols.tree()
        return self._tree

    @property
    def neighbor_indices(self) -> np.ndarray:
        return self.nbr_idx

    @property
    def neighbor_sq_dists(self) -> np.ndarray:
        return self.nbr_sq

    @property
    def system(self) -> KNeighborhoodSystem:
        """The current version's exact k-neighborhood system."""
        return KNeighborhoodSystem(self.points, self.k, self.nbr_idx, self.nbr_sq)

    @property
    def cost(self) -> Cost:
        """The (depth, work) ledger of building the *current* version —
        equal, by the commit guarantee, to a from-scratch build's."""
        return self.machine.total

    @property
    def pending(self) -> Tuple[int, int]:
        """Buffered ``(inserts, deletes)`` awaiting :meth:`commit`."""
        return (
            sum(int(a.shape[0]) for a in self._pending_inserts),
            len(self._pending_deletes),
        )

    def fresh_like(self, points: Optional[np.ndarray] = None) -> "MutableIndex":
        """A from-scratch index with this one's parameters (the reference
        the commit guarantee is stated against)."""
        return MutableIndex(
            self.points if points is None else points,
            self.k,
            seed=self._seed,
            config=self.config,
            churn_threshold=self.churn_threshold,
        )

    # -- mutation intake ---------------------------------------------------

    def insert(self, points: np.ndarray) -> int:
        """Buffer rows for insertion; returns how many are now pending.

        Inserted points receive ids *at commit time*: survivors of the
        commit keep their relative order and new points are appended after
        them (monotone renumbering — the property that keeps (distance,
        index) tie-breaks stable under compaction).
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[None, :]
        pts = as_points(pts, min_points=1)
        if pts.shape[1] != self.d:
            raise ValueError(
                f"dimension mismatch: index is {self.d}-D, inserts are {pts.shape[1]}-D"
            )
        self._pending_inserts.append(pts.copy())
        return self.pending[0]

    def delete(self, ids: Sequence[int]) -> int:
        """Buffer committed point ids for deletion; returns pending count.

        Ids refer to the *current committed version*.  Unknown, duplicate
        or already-pending ids raise — silent double deletes hide bugs in
        mutation streams.
        """
        arr = np.atleast_1d(np.asarray(ids, dtype=np.int64))
        if arr.size == 0:
            return len(self._pending_deletes)
        if arr.min() < 0 or arr.max() >= self.n:
            raise ValueError(f"delete ids must be in [0, {self.n}), got {arr.min()}..{arr.max()}")
        if np.unique(arr).shape[0] != arr.shape[0]:
            raise ValueError("duplicate ids in one delete call")
        clashes = self._pending_deletes.intersection(arr.tolist())
        if clashes:
            raise ValueError(f"ids already pending deletion: {sorted(clashes)[:8]}")
        self._pending_deletes.update(int(i) for i in arr)
        return len(self._pending_deletes)

    def discard_pending(self) -> None:
        """Drop every buffered mutation without committing."""
        self._pending_inserts.clear()
        self._pending_deletes.clear()

    # -- commit ------------------------------------------------------------

    def commit(self) -> CommitInfo:
        """Apply buffered mutations as the next version; returns its summary.

        The committed state is bit-identical to a from-scratch build of
        the resulting point set (see :func:`equivalence_report`).  Below
        ``churn_threshold`` the changes are absorbed — only subtrees whose
        subsets changed are recomputed, the rest replay their records;
        above it the commit punts to a full rebuild.  Either way previous
        versions' arrays and trees are never touched (copy-on-write).
        """
        n_ins, n_del = self.pending
        if n_ins == 0 and n_del == 0:
            return CommitInfo(
                version=self.version, n=self.n, inserted=0, deleted=0,
                churn=0.0, punted=False, noop=True,
            )
        t0 = time.perf_counter()
        old_n = self.n
        deletes = np.array(sorted(self._pending_deletes), dtype=np.int64)
        inserts = (
            np.concatenate(self._pending_inserts, axis=0)
            if self._pending_inserts
            else np.empty((0, self.d), dtype=np.float64)
        )
        survivors = np.ones(old_n, dtype=bool)
        survivors[deletes] = False
        new_points = np.concatenate([self.points[survivors], inserts], axis=0)
        # a key is a function of a point's values alone: survivors keep theirs
        new_keys = np.concatenate([self.keys[survivors], _point_keys(inserts, self._salt)])
        new_n = new_points.shape[0]
        if new_n < 1:
            raise ValueError("commit would delete every point")
        if not self.k < max(2, new_n):
            raise ValueError(
                f"commit would leave n={new_n} <= k={self.k}; delete fewer points"
            )
        churn = (n_ins + n_del) / old_n
        touched = self._touched_leaves(inserts, deletes)
        deleted = self.points[deletes]
        idmap: Optional[np.ndarray] = None
        if n_del:
            idmap = np.full(old_n, -1, dtype=np.int64)
            idmap[survivors] = np.arange(new_n - n_ins, dtype=np.int64)
        punt = churn > self.churn_threshold
        machine = Machine()
        if self.trace_commits:
            machine.enable_tracing()
        if punt:
            with machine.span("update.rebuild", version=self.version + 1, n=new_n,
                              inserted=n_ins, deleted=n_del, churn=churn):
                runner = self._run(new_points, new_keys, machine)
        else:
            with machine.span("update.absorb", version=self.version + 1, n=new_n,
                              inserted=n_ins, deleted=n_del, churn=churn):
                runner = self._run(
                    new_points, new_keys, machine, self._version, idmap, deleted,
                    self.keys[deletes],
                )
        self.machine = machine
        self.version += 1
        self._pending_inserts.clear()
        self._pending_deletes.clear()
        info = CommitInfo(
            version=self.version,
            n=new_n,
            inserted=n_ins,
            deleted=n_del,
            churn=churn,
            punted=punt,
            reused_subtrees=runner.reused_subtrees,
            reused_points=runner.reused_points,
            touched_leaves=touched,
            wall_s=time.perf_counter() - t0,
        )
        self._note_commit(info, runner)
        return info

    def snapshot(self, *, with_structure: bool = False):
        """Freeze the current version as a :class:`~repro.serve.index.ServingIndex`.

        The snapshot shares this index's arrays copy-on-write: later
        commits allocate fresh arrays and never mutate these, so the
        snapshot stays valid (and bit-stable) forever.  It holds the
        version's :class:`~repro.kernels.FlatTree`, written by its level
        loop, and no partition-tree node.  Its ``version`` field is
        this index's current version — the serving layer keys result
        caches on it so stale entries cannot survive a swap.
        """
        from ..serve.index import ServingIndex

        index = ServingIndex(
            self.points, self.layout, self.k, system=self.system, version=self.version
        )
        if with_structure:
            index.structure  # noqa: B018 - builds and caches
        return index

    # -- internals ---------------------------------------------------------

    def _run(
        self,
        points: np.ndarray,
        keys: np.ndarray,
        machine: Machine,
        prev: Optional[_Version] = None,
        idmap: Optional[np.ndarray] = None,
        deleted: Optional[np.ndarray] = None,
        deleted_keys: Optional[np.ndarray] = None,
    ) -> _OnlineFrontier:
        """Build ``points`` (with content ``keys``) as the next version:
        from scratch, or with ``prev`` (the current version) as an absorb
        of the inserts appended to ``points`` and the ``deleted`` rows,
        ``idmap`` renumbering the survivors (``None``: nothing deleted)."""
        n = points.shape[0]
        self.stats = FastDnCStats(metrics=machine.metrics)
        if prev is None:
            nbr_idx = np.full((n, self.k), -1, dtype=np.int64)
            nbr_sq = np.full((n, self.k), np.inf)
        else:
            nbr_idx, nbr_sq = self._carried_rows(n, idmap)
        runner = _OnlineFrontier(
            points,
            self.k,
            machine,
            self._root_ss,
            self.config,
            self.stats,
            nbr_idx,
            nbr_sq,
            self._base,
            keys=keys,
            salt=self._salt,
            prev=prev,
            idmap=idmap,
            deleted=deleted,
            deleted_keys=deleted_keys,
        )
        self._version = runner.build()
        self._tree: Optional[PartitionNode] = None
        self.points = points
        self.keys = keys
        self.layout = self._version.cols.flat
        self.nbr_idx = runner.nbr_idx
        self.nbr_sq = runner.nbr_sq
        return runner

    def _carried_rows(
        self, n: int, idmap: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The current version's final neighbor rows in the next
        version's ids, with empty rows for the inserted points: where an
        absorb starts.  Fresh arrays, so the current version's stay
        intact for its snapshots."""
        idx, sq = self.nbr_idx, self.nbr_sq
        if idmap is not None:
            alive = idmap >= 0
            idx = idx[alive]
            idx = np.where(idx >= 0, idmap[idx], -1)
            sq = sq[alive]
        n_ins = n - idx.shape[0]
        return (
            np.concatenate([idx, np.full((n_ins, self.k), -1, dtype=np.int64)]),
            np.concatenate([sq, np.full((n_ins, self.k), np.inf)]),
        )

    def _touched_leaves(self, inserts: np.ndarray, deletes: np.ndarray) -> int:
        """How many of the current version's leaves the mutations touch.

        Inserted and deleted points are descended through the version's
        flat tree (a committed point's leaf is exactly where descent
        routes it).  Observability only — the absorb level loop finds the
        affected paths itself — but it is the cheap locality estimate the
        churn guidance in ``docs/online_index.md`` is written in terms of.
        """
        ords = [
            self.layout.descend(pts)
            for pts in (inserts, self.points[deletes])
            if pts.shape[0]
        ]
        return int(np.unique(np.concatenate(ords)).shape[0]) if ords else 0

    def _note_commit(self, info: CommitInfo, runner: _OnlineFrontier) -> None:
        s = self.update_stats
        s.separators_reused += runner.separators_reused
        s.separators_searched += runner.separators_searched
        s.balls_reclassified += runner.balls_reclassified
        s.commits += 1
        if info.punted:
            s.punts += 1
        else:
            s.absorbed += 1
        s.inserted += info.inserted
        s.deleted += info.deleted
        s.reused_subtrees += info.reused_subtrees
        s.reused_points += info.reused_points
        s.version = info.version
        s.churn = info.churn
        s.touched_leaves = info.touched_leaves
        s.commits_log.append(
            (info.version, info.inserted, info.deleted, info.churn, info.punted)
        )
