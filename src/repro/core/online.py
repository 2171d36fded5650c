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

2. **Recorded subtrees.**  The recording build captures, per sufficiently
   large node, everything a replay needs: the subtree's post-subtree
   neighbor rows, its exact composed :class:`~repro.pvm.cost.Cost` (via
   :meth:`~repro.pvm.machine.Machine.measure`), its section events and
   its metric deltas (the ``machine.*`` event counters among them).
   Absorbing a commit replays reused subtrees from the
   record — one ``charge`` instead of thousands — and re-runs the paper's
   straddler-correction machinery (:meth:`_Runner.correct`) at every
   recomputed ancestor, exactly as a fresh build would.

Versions are copy-on-write: each commit allocates fresh neighbor arrays and
fresh nodes along the recomputed spine, *sharing* unchanged subtrees with
the previous version (insert-only commits share node objects outright;
commits with deletions clone reused subtrees with monotonically remapped
ids, which preserves every (distance, index) tie-break).  Each version is
flattened once into a :class:`~repro.kernels.FlatTree`, and snapshots
hold only that and the version's arrays — never the pointer tree or its
replay records — so they stay valid forever while a superseded tree is
freed as soon as the next commit replaces it.
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
from ..pvm.cost import Cost, ZERO
from ..pvm.machine import Machine
from ..separators.mttv import MTTVSeparatorSampler
from ..separators.quality import default_delta, is_good_point_split
from ..separators.unit_time import _ATTEMPT_SERIAL_COST, SeparatorFailure
from ..util.recursion import estimated_tree_levels, recursion_guard
from ..util.rng import seed_sequence_root
from .fast_dnc import FastDnCConfig, FastDnCStats, _Runner
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

#: Key under which a node's replay record lives in ``PartitionNode.meta``.
_REC_KEY = "online_record"

#: Subtrees of at least ``max(base, _SNAPSHOT_MIN)`` points record a replay
#: snapshot; smaller reused subtrees are rebuilt fresh (bit-identical
#: either way).  Replay granularity reaches down to the brute-force
#: leaves, which caps the recompute cost of one mutation at its root-leaf
#: path; records store one neighbor-row copy per recorded tree level.
_SNAPSHOT_MIN = 32

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


def _fold_keys(keys: np.ndarray) -> int:
    """Order-sensitive fold of a key sequence into one 64-bit value."""
    if keys.shape[0] == 0:
        return 0
    ranks = np.arange(keys.shape[0], dtype=np.uint64)
    with np.errstate(over="ignore"):
        mixed = _mix64(keys ^ _mix64(ranks * _GOLDEN))
    return int(np.bitwise_xor.reduce(mixed))


def _remap_rows(rows: np.ndarray, idmap: np.ndarray) -> np.ndarray:
    """Remap neighbor-id rows through ``idmap``, preserving ``-1`` padding."""
    out = rows.copy()
    real = rows >= 0
    out[real] = idmap[rows[real]]
    return out


class _NodeRecord:
    """Everything needed to replay one recorded subtree bit-identically."""

    __slots__ = (
        "cost",
        "section_events",
        "metric_counters",
        "metric_gauges",
        "metric_series",
        "nbr_idx",
        "nbr_sq",
    )

    def __init__(
        self,
        cost: Cost,
        section_events: List[tuple],
        metric_counters: Dict[str, float],
        metric_gauges: Dict[str, float],
        metric_series: Dict[str, list],
        nbr_idx: np.ndarray,
        nbr_sq: np.ndarray,
    ) -> None:
        self.cost = cost
        self.section_events = section_events
        self.metric_counters = metric_counters
        self.metric_gauges = metric_gauges
        self.metric_series = metric_series
        self.nbr_idx = nbr_idx
        self.nbr_sq = nbr_sq

    def remapped(self, idmap: np.ndarray) -> "_NodeRecord":
        """A copy with neighbor ids pushed through ``idmap`` (COW clones)."""
        return _NodeRecord(
            self.cost,
            self.section_events,
            self.metric_counters,
            self.metric_gauges,
            self.metric_series,
            _remap_rows(self.nbr_idx, idmap),
            self.nbr_sq,
        )


class _OnlineRunner(_Runner):
    """The recording/absorbing variant of the recursive fast-DnC runner.

    Differs from :class:`~repro.core.fast_dnc._Runner` in exactly two ways:

    - randomness is content-addressed (see module docstring) instead of
      path-addressed, so the build is a pure function of the point values
      (plus the index salt) and unchanged subsets rebuild identically;
    - nodes of at least ``max(base, _SNAPSHOT_MIN)`` points record a
      replay :class:`_NodeRecord`, and ``solve`` accepts a *hint* node from the
      previous version — when the hint's (remapped) subset equals the new
      one, the whole subtree is reused and its record replayed.

    Base cases, straddler correction, marching and the punt paths are
    inherited unchanged — the paper's machinery is untouched.
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
        *,
        keys: np.ndarray,
        salt: int,
        idmap: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__(points, k, machine, root_ss, config, stats, nbr_idx, nbr_sq, base)
        self.keys = keys
        self.salt = int(salt)
        self.snapshot_min = max(base, _SNAPSHOT_MIN)
        self.idmap = idmap
        self.reused_subtrees = 0
        self.reused_points = 0
        if machine.section_log is None:
            machine.section_log = []

    # -- recording ---------------------------------------------------------

    def _pre_state(self) -> tuple:
        mx = self.machine
        met = mx.metrics
        return (
            len(mx.section_log),  # type: ignore[arg-type]
            dict(met.counters),
            dict(met.gauges),
            {k: len(v) for k, v in met.series.items()},
        )

    def _attach_record(self, node: PartitionNode, ids: np.ndarray, pre: tuple, cost: Cost) -> None:
        log0, mc0, g0, sl0 = pre
        mx = self.machine
        met = mx.metrics
        events = list(mx.section_log[log0:])  # type: ignore[index]
        mcounters = {
            k: v - mc0.get(k, 0) for k, v in met.counters.items() if v != mc0.get(k, 0)
        }
        gauges = {k: v for k, v in met.gauges.items() if k not in g0 or g0[k] != v}
        series: Dict[str, list] = {}
        for k, v in met.series.items():
            start = sl0.get(k, 0)
            if len(v) > start:
                series[k] = list(v[start:])
        node.meta[_REC_KEY] = _NodeRecord(
            cost,
            events,
            mcounters,
            gauges,
            series,
            self.nbr_idx[ids].copy(),
            self.nbr_sq[ids].copy(),
        )

    def _replay(self, rec: _NodeRecord, ids: np.ndarray) -> None:
        """Re-apply a recorded subtree: the ledger, sections, counters,
        metrics and neighbor rows end up exactly as a fresh build's."""
        mx = self.machine
        mx.charge(rec.cost)
        for name, c in rec.section_events:
            mx.sections[name] = mx.sections.get(name, ZERO).then(c)
            if mx.section_log is not None:
                mx.section_log.append((name, c))
        met = mx.metrics
        for name, v in rec.metric_counters.items():
            met.inc(name, v)
        for name, v in rec.metric_gauges.items():
            met.set_gauge(name, v)
        for name, vals in rec.metric_series.items():
            met.samples(name).extend(vals)
        self.nbr_idx[ids] = rec.nbr_idx
        self.nbr_sq[ids] = rec.nbr_sq
        self.reused_subtrees += 1
        self.reused_points += int(ids.shape[0])

    def _try_reuse(self, ids: np.ndarray, hint: PartitionNode) -> Optional[PartitionNode]:
        """Reuse ``hint``'s subtree when its (remapped) subset equals ``ids``.

        Validity rests on the online build being a pure function of subset
        values: equal subsets — however they were produced — rebuild to the
        identical subtree, so replaying the record *is* the fresh build.
        """
        rec: Optional[_NodeRecord] = hint.meta.get(_REC_KEY)
        if rec is None or hint.indices.shape[0] != ids.shape[0]:
            return None
        mapped = hint.indices if self.idmap is None else self.idmap[hint.indices]
        if not np.array_equal(mapped, ids):
            return None
        node = hint if self.idmap is None else _clone_remap(hint, self.idmap)
        self._replay(node.meta[_REC_KEY], ids)
        return node

    # -- recursion ---------------------------------------------------------

    def solve(  # type: ignore[override]
        self,
        ids: np.ndarray,
        level: int = 0,
        path: Tuple[int, ...] = (),
        hint: Optional[PartitionNode] = None,
    ) -> PartitionNode:
        m = int(ids.shape[0])
        if hint is not None:
            reused = self._try_reuse(ids, hint)
            if reused is not None:
                return reused
        if m < self.snapshot_min:
            with self.machine.span("fast.node", level=level, m=m) as span:
                return self._solve_online(ids, level, path, span, hint)
        pre = self._pre_state()
        with self.machine.measure() as region_cost:
            with self.machine.span("fast.node", level=level, m=m) as span:
                node = self._solve_online(ids, level, path, span, hint)
        self._attach_record(node, ids, pre, region_cost())
        return node

    def _solve_online(
        self,
        ids: np.ndarray,
        level: int,
        path: Tuple[int, ...],
        span,
        hint: Optional[PartitionNode],
    ) -> PartitionNode:
        m = ids.shape[0]
        self.stats.nodes += 1
        if m <= self.base:
            self.brute_force(ids)
            return PartitionNode(indices=ids)
        sub = self.points[ids]
        keys = self.keys[ids]
        node_key = _fold_keys(keys)
        try:
            with self.machine.section("divide"):
                separator, attempts = self._find_stable_separator(sub, keys)
            self.stats.separator_attempts += attempts
            if span is not None:
                span.attrs["separator_attempts"] = attempts
        except SeparatorFailure:
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
        hint_left = hint.left if hint is not None else None
        hint_right = hint.right if hint is not None else None
        children: List[Optional[PartitionNode]] = [None, None]
        with self.machine.parallel() as par:
            with par.branch():
                children[0] = self.solve(in_ids, level + 1, path + (0,), hint_left)
            with par.branch():
                children[1] = self.solve(ex_ids, level + 1, path + (1,), hint_right)
        node = PartitionNode(
            indices=ids, separator=separator, left=children[0], right=children[1]
        )
        with self.machine.section("correct"):
            self.correct(node, in_ids, ex_ids, self._correct_rng(node_key))
        if span is not None:
            span.attrs["iota"] = node.meta.get("iota", 0)
            span.attrs["punted"] = node.meta.get("punted", False)
        return node

    # -- content-addressed randomness --------------------------------------

    def _correct_rng(self, node_key: int) -> np.random.Generator:
        """Generator for the correction punt path, seeded by subset content."""
        return np.random.default_rng(
            np.random.SeedSequence(entropy=(self.salt, node_key, 0xC0DE))
        )

    def _find_stable_separator(
        self, sub: np.ndarray, keys: np.ndarray
    ) -> Tuple[object, int]:
        """The unit-time retry loop with value-stable candidate derivation.

        Candidates are drawn from a sampler over the node's *rendezvous
        sample* — the ``s`` subset points with the smallest salted content
        hashes — seeded by the sample's own hash fold.  A mutation
        elsewhere in the subset leaves the sample, hence the entire
        candidate sequence and the accepted separator, unchanged; only
        a mutation that displaces a sample member (probability ``s/m``
        per mutated point) redraws it.  One sample serves every attempt
        (the retry loop re-draws circles, as in
        :class:`~repro.separators.unit_time.UnitTimeSeparator`), refreshed
        with a re-salted sample every ``refresh_every`` failures; keeping
        the sample fixed across attempts minimises the membership surface
        that mutations can perturb.  Cost accounting per attempt is
        identical to :meth:`UnitTimeSeparator.attempt`.
        """
        m, d = sub.shape
        target = default_delta(d, self.config.epsilon)
        size = (
            self.config.sample_size
            if self.config.sample_size is not None
            else online_sample_size(d)
        )
        refresh_every = 16
        machine = self.machine
        sampler: Optional[MTTVSeparatorSampler] = None
        with machine.span("separator.search", n=int(m), d=d) as span:
            for attempt in range(1, self.config.max_attempts + 1):
                if sampler is None:
                    round_salt = np.uint64(
                        (((attempt - 1) // refresh_every) * 0x9E3779B97F4A7C15 ^ self.salt)
                        & 0xFFFFFFFFFFFFFFFF
                    )
                    akeys = _mix64(keys ^ _mix64(round_salt))
                    if size < m:
                        sel = np.argpartition(akeys, size - 1)[:size]
                        sel.sort()
                        sample = sub[sel]
                        sample_fold = _fold_keys(akeys[sel])
                    else:
                        sample = sub
                        sample_fold = _fold_keys(akeys)
                    rng = np.random.default_rng(
                        np.random.SeedSequence(
                            entropy=(self.salt, attempt - 1, sample_fold)
                        )
                    )
                    sampler = MTTVSeparatorSampler(
                        sample, seed=rng, sample_size=None, centerpoint="radon"
                    )
                machine.charge(machine.serial_cost(_ATTEMPT_SERIAL_COST))
                machine.charge(machine.ewise_cost(m, 3.0))
                machine.charge(machine.scan_cost(m))
                machine.bump("separator_attempts")
                try:
                    candidate = sampler.draw()
                except RuntimeError:
                    machine.bump("separator_draw_failures")
                    continue
                if is_good_point_split(candidate, sub, target):
                    if span is not None:
                        span.attrs["attempts"] = attempt
                    return candidate, attempt
                if attempt % refresh_every == 0:
                    sampler = None
            if span is not None:
                span.attrs["attempts"] = self.config.max_attempts
                span.attrs["failed"] = True
        raise SeparatorFailure(
            f"no {target:.3f}-splitting separator in {self.config.max_attempts} "
            f"stable attempts (n={m}, d={d})"
        )


def _clone_remap(node: PartitionNode, idmap: np.ndarray) -> PartitionNode:
    """Deep-copy a reused subtree with ids pushed through ``idmap``.

    Separator objects are shared (they hold geometry, no ids); records are
    copied with remapped neighbor rows.  The original subtree — part of the
    previous version — is left untouched, which is what keeps old snapshots
    valid (copy-on-write).  Iterative, deep-tree safe.
    """

    def shallow(n: PartitionNode) -> PartitionNode:
        clone = PartitionNode.__new__(PartitionNode)
        clone.indices = idmap[n.indices]
        clone.separator = n.separator
        clone.left = None
        clone.right = None
        clone.meta = dict(n.meta)
        rec = clone.meta.get(_REC_KEY)
        if rec is not None:
            clone.meta[_REC_KEY] = rec.remapped(idmap)
        return clone

    root = shallow(node)
    stack = [(node, root)]
    while stack:
        src, dst = stack.pop()
        if src.is_leaf:
            continue
        dst.left = shallow(src.left)  # type: ignore[arg-type]
        dst.right = shallow(src.right)  # type: ignore[arg-type]
        stack.append((src.left, dst.left))  # type: ignore[arg-type]
        stack.append((src.right, dst.right))  # type: ignore[arg-type]
    return root


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


def equivalence_report(built: "MutableIndex", reference: "MutableIndex") -> List[str]:
    """Differences between a committed index and a from-scratch reference.

    Empty list = bit-identical: neighbor arrays, partition tree, (depth,
    work) ledger, machine counters, and the full metrics registry.  Used by
    the property tests and the ``repro update --check`` gate.
    """
    problems: List[str] = []
    a, b = built, reference
    if not np.array_equal(a.neighbor_indices, b.neighbor_indices):
        problems.append("neighbor indices differ")
    if not np.array_equal(a.neighbor_sq_dists, b.neighbor_sq_dists):
        problems.append("neighbor squared distances differ")
    if tree_signature(a.tree) != tree_signature(b.tree):
        problems.append("partition trees differ")
    ca, cb = a.machine.total, b.machine.total
    if ca.depth != cb.depth or ca.work != cb.work:
        problems.append(f"ledger differs: {(ca.depth, ca.work)} vs {(cb.depth, cb.work)}")
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
    ``deleted``, ``reused_subtrees``, ``reused_points``.  Gauges:
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
        always executes the recursive profile (the ``engine`` and
        ``workers`` fields do not change the build — see
        ``docs/online_index.md``).
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
        self.tree: PartitionNode
        self.layout: FlatTree
        self.nbr_idx: np.ndarray
        self.nbr_sq: np.ndarray
        self._build_full(pts, self.machine)
        self.update_stats.version = 0

    # -- views -------------------------------------------------------------

    @property
    def n(self) -> int:
        return int(self.points.shape[0])

    @property
    def d(self) -> int:
        return int(self.points.shape[1])

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
        new_n = new_points.shape[0]
        if new_n < 1:
            raise ValueError("commit would delete every point")
        if not self.k < max(2, new_n):
            raise ValueError(
                f"commit would leave n={new_n} <= k={self.k}; delete fewer points"
            )
        churn = (n_ins + n_del) / old_n
        touched = self._touched_leaves(inserts, deletes)
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
                runner = self._build_full(new_points, machine)
        else:
            with machine.span("update.absorb", version=self.version + 1, n=new_n,
                              inserted=n_ins, deleted=n_del, churn=churn):
                runner = self._absorb(new_points, machine, self.tree, idmap)
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
        self._note_commit(info)
        return info

    def snapshot(self, *, with_structure: bool = False):
        """Freeze the current version as a :class:`~repro.serve.index.ServingIndex`.

        The snapshot shares this index's arrays copy-on-write: later
        commits allocate fresh arrays and never mutate these, so the
        snapshot stays valid (and bit-stable) forever.  It holds the
        version's :class:`~repro.kernels.FlatTree`, flattened once per
        version, and no partition-tree node.  Its ``version`` field is
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

    def _make_runner(
        self,
        points: np.ndarray,
        machine: Machine,
        nbr_idx: np.ndarray,
        nbr_sq: np.ndarray,
        idmap: Optional[np.ndarray],
    ) -> _OnlineRunner:
        stats = FastDnCStats(metrics=machine.metrics)
        keys = _point_keys(points, self._salt)
        runner = _OnlineRunner(
            points,
            self.k,
            machine,
            self._root_ss,
            self.config,
            stats,
            nbr_idx,
            nbr_sq,
            self._base,
            keys=keys,
            salt=self._salt,
            idmap=idmap,
        )
        self.stats = stats
        return runner

    def _run(
        self, points: np.ndarray, machine: Machine, hint: Optional[PartitionNode],
        idmap: Optional[np.ndarray],
    ) -> _OnlineRunner:
        n = points.shape[0]
        nbr_idx = np.full((n, self.k), -1, dtype=np.int64)
        nbr_sq = np.full((n, self.k), np.inf)
        runner = self._make_runner(points, machine, nbr_idx, nbr_sq, idmap)
        levels = estimated_tree_levels(
            n, self._base, default_delta(points.shape[1], self.config.epsilon)
        )
        ids = np.arange(n, dtype=np.int64)
        with recursion_guard(levels):
            tree = runner.solve(ids, 0, (), hint)
        self.points = points
        self.tree = tree
        self.layout = FlatTree.from_tree(tree)
        self.nbr_idx = nbr_idx
        self.nbr_sq = nbr_sq
        return runner

    def _build_full(self, points: np.ndarray, machine: Machine) -> _OnlineRunner:
        return self._run(points, machine, hint=None, idmap=None)

    def _absorb(
        self,
        points: np.ndarray,
        machine: Machine,
        old_tree: PartitionNode,
        idmap: Optional[np.ndarray],
    ) -> _OnlineRunner:
        return self._run(points, machine, hint=old_tree, idmap=idmap)

    def _touched_leaves(self, inserts: np.ndarray, deletes: np.ndarray) -> int:
        """How many of the current version's leaves the mutations touch.

        Inserted and deleted points are descended through the version's
        flat tree (a committed point's leaf is exactly where descent
        routes it).  Observability only — the absorb recursion finds the
        affected paths itself — but it is the cheap locality estimate the
        churn guidance in ``docs/online_index.md`` is written in terms of.
        """
        ords = [
            self.layout.descend(pts)
            for pts in (inserts, self.points[deletes])
            if pts.shape[0]
        ]
        return int(np.unique(np.concatenate(ords)).shape[0]) if ords else 0

    def _note_commit(self, info: CommitInfo) -> None:
        s = self.update_stats
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
