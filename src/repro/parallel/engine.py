"""The ``frontier-mp`` engine: coarse-grained subtree solves on OS workers.

:class:`_ParallelFastFrontier` / :class:`_ParallelSimpleFrontier` subclass
the serial frontier engines and restructure execution into two phases:

phase 1 — cut and ship (workers, order-free)
    The master runs the *serial* frontier recursion only until the
    frontier holds :func:`~repro.parallel.plan.subtree_target` segments
    (``~3×`` the worker count).  Each of those segments — a whole
    subtree — is shipped **once** to a worker planned by
    :func:`~repro.parallel.plan.plan_subtree_assignment`, which solves it
    to completion locally against the resident shared-memory arena via
    the serial :meth:`~repro.core.frontier._FrontierBase.solve_subtree`
    entry point.  There are no per-level round trips and no per-level
    pickling: master↔worker traffic is one task descriptor down and one
    solved-subtree summary up, per subtree.

phase 2 — splice and fold (master)
    The master takes each solved subtree in as one block, the way the
    online index takes in a replayed subtree: the worker's
    :class:`~repro.core.columns.TreeColumns` (leaf ids and per-node
    columns, no per-level ids) are copied into the tree's columns at the
    cut segment's preorder place, and its composed total joins the cost
    fold.  The master then corrects only the straddler/boundary set — the
    internal nodes *above* the cut, whose corrections read the workers'
    leaf radii out of shared memory — and its cost fold composes the tree
    above the cut around the blocks, so the tree's events fold into the
    phase totals once and the root is charged once.

The bit-identity contract (same neighbors, tree, (depth, work) ledger
and sections as ``engine="frontier"`` — and hence as ``"recursive"`` —
for any worker count) holds by construction: workers execute the
*unmodified* serial code on whole subtrees (per-node
:func:`~repro.util.rng.path_rng` streams, serial punt decisions, serial
float folds), subtrees own disjoint index sets so concurrent solves never
race, and the master composes the same per-node costs and events with
the same fold as the serial engine (see ``docs/parallel.md``).  Event
counters merge additively and are therefore exact; metric *series*
arrive in subtree order, equal to the serial engine's as multisets (the
same guarantee the frontier engine gives relative to the recursive one).

If the frontier exhausts before reaching the target (tiny inputs, or
pathological early punts), nothing is dispatched and the master simply
finishes the serial solve — bit-identical by triviality, with
``parallel.subtrees == 0`` recording the fallback.

Observability: in addition to the serial engine's per-level spans for
the master's own levels, every subtree task emits a ``parallel.subtree``
span (worker id, subtree index, point count, wall milliseconds) whose
wall-clock bounds are the task's real dispatch window, and — when
tracing is on — the worker's own span tree (a ``worker.subtree`` root
with the worker-local ``frontier.level`` spans inside) is grafted
underneath it by :mod:`repro.obs.stitch`, giving the Chrome export one
timeline lane per worker process.  The run reports ``parallel.workers``,
``parallel.tasks``, ``parallel.subtrees``, ``parallel.cut_level``,
``parallel.busy_seconds`` (sum and per-worker
``parallel.busy_seconds.<i>`` gauges), ``parallel.dispatch_span_seconds``
and ``parallel.utilization`` (busy time over the span of dispatched
work, not pool lifetime), plus the overhead breakdown —
``parallel.copyin_seconds`` (shm arena population),
``parallel.dispatch_seconds`` / ``parallel.dispatch_bytes`` (pickle+send
down), ``parallel.collect_seconds`` / ``parallel.result_bytes``
(receive+unpickle up) — through the metrics registry, so fan-out
overhead is attributable rather than guessed.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

import numpy as np

from ..core.frontier import _FastFrontier, _Seg, _SimpleFrontier
from ..obs.stitch import graft_worker_trace
from .plan import plan_subtree_assignment, subtree_target, subtree_weight
from .pool import TaskResult, WorkerPool, resolve_workers
from .shm import SharedArray


class _ParallelFrontierMixin:
    """Master-side orchestration shared by the fast and simple engines."""

    def run(self):
        workers = resolve_workers(self.config.workers)
        self._arena: List[SharedArray] = []
        caller_idx, caller_sq = self.nbr_idx, self.nbr_sq
        t0 = time.perf_counter()
        points_sa = SharedArray.create_from(self.points)
        idx_sa = SharedArray.create_from(self.nbr_idx)
        sq_sa = SharedArray.create_from(self.nbr_sq)
        self._copyin_seconds = time.perf_counter() - t0
        self._arena += [points_sa, idx_sa, sq_sa]
        # The master works against the shared views for the whole run:
        # its own leaves and corrections must see (and extend) the same
        # neighbor state the workers write.
        self.nbr_idx = idx_sa.array
        self.nbr_sq = sq_sa.array
        self._cut: List[_Seg] = []
        self._pool = WorkerPool(workers)
        try:
            self._pool.broadcast("init_run", {
                "method": self._NS,
                "k": self.k,
                "base": self.base,
                "config": self.config,
                "root_ss": self.root_ss,
                "scan": self.machine.scan_policy,
                "points_spec": points_sa.spec,
                "nbr_idx_spec": idx_sa.spec,
                "nbr_sq_spec": sq_sa.spec,
                "trace": self.machine.tracer is not None,
            })
            cols = self._run_two_phase(workers)
            caller_idx[...] = idx_sa.array
            caller_sq[...] = sq_sa.array
        finally:
            self.nbr_idx = caller_idx
            self.nbr_sq = caller_sq
            self._pool.close()
            for sa in self._arena:
                sa.destroy()
        self._emit_parallel_metrics(workers)
        return cols

    def _run_two_phase(self, workers: int):
        n = self.points.shape[0]
        root = _Seg(ids=np.arange(n, dtype=np.int64), level=0, path=())
        levels, cut = self._build_levels([root], stop_at=subtree_target(workers))
        self._cut = cut
        if cut:
            # with a target of 1 the root itself is the one shipped subtree
            self._solve_subtrees(cut)
            levels.append(cut)
        self._assemble(levels)
        self._correct_levels(levels)
        self._charge_root(root)
        return self.cols

    # -- phase 1: cut and ship -------------------------------------------

    def _solve_subtrees(self, cut: List[_Seg]) -> None:
        """Ship every cut segment to its planned worker, then take each
        solved subtree in as a block: its columns and composed total."""
        pool = self._pool
        t0 = time.perf_counter()
        buf = SharedArray.create_from(np.concatenate([s.ids for s in cut]))
        self._copyin_seconds += time.perf_counter() - t0
        self._arena.append(buf)
        weights = [subtree_weight(int(s.ids.shape[0]), self.base) for s in cut]
        assignment = plan_subtree_assignment(weights, pool.workers)
        payloads: List[Dict[str, Any]] = []
        offset = 0
        for i, seg in enumerate(cut):
            m = int(seg.ids.shape[0])
            payloads.append({
                "ids_spec": buf.spec,
                "offset": offset,
                "length": m,
                "path": seg.path,
                "level": seg.level,
                "index": i,
            })
            offset += m
        tasks = pool.run_assigned("solve_subtree", payloads, assignment)
        # Merge order is the cut order (run_assigned returns payload
        # order), so counter merges and series extension are
        # deterministic for a fixed plan.
        for i, (seg, task) in enumerate(zip(cut, tasks)):
            res = task.result
            self.machine.metrics.merge(res["metrics"])
            self._subtree_span(seg, i, task)
            seg.block = (res["tree"], 0)
            seg.total_cost = res["total"]

    # -- observability ---------------------------------------------------

    def _subtree_span(self, seg: _Seg, index: int, task: TaskResult) -> None:
        with self.machine.span(
            "parallel.subtree",
            worker=task.worker,
            subtree=index,
            level=seg.level,
            points=int(seg.ids.shape[0]),
            wall_ms=task.elapsed * 1000.0,
        ) as handle:
            pass
        if handle is None:
            return
        # Rewrite the span's wall bounds to the task's real dispatch
        # window (the span itself opened at collection time, after the
        # work was already done), then graft the worker's own span tree
        # underneath.  Both are pure-observability edits: the subtree
        # span's zero Cost and the ledger are untouched.
        tracer = self.machine.tracer
        handle.wall_start = task.submitted - tracer.epoch
        handle.wall_end = task.completed - tracer.epoch
        trace = task.result.get("trace")
        if trace is not None:
            graft_worker_trace(
                handle, trace, master_epoch=tracer.epoch, worker=task.worker
            )

    def _emit_parallel_metrics(self, workers: int) -> None:
        pool = self._pool
        busy = float(sum(pool.busy_seconds))
        window = pool.dispatch_window()
        span_seconds = (window[1] - window[0]) if window is not None else 0.0
        metrics = self.machine.metrics
        metrics.set_gauge("parallel.workers", workers)
        metrics.inc("parallel.tasks", pool.tasks_done)
        metrics.inc("parallel.busy_seconds", busy)
        for w, worker_busy in enumerate(pool.busy_seconds):
            metrics.set_gauge(f"parallel.busy_seconds.{w}", float(worker_busy))
        metrics.set_gauge("parallel.dispatch_span_seconds", span_seconds)
        metrics.set_gauge(
            "parallel.utilization",
            min(1.0, busy / max(workers * span_seconds, 1e-12)),
        )
        metrics.set_gauge("parallel.subtrees", float(len(self._cut)))
        metrics.set_gauge(
            "parallel.cut_level",
            float(self._cut[0].level) if self._cut else -1.0,
        )
        metrics.set_gauge("parallel.copyin_seconds", self._copyin_seconds)
        metrics.set_gauge("parallel.dispatch_seconds", pool.dispatch_seconds)
        metrics.set_gauge("parallel.collect_seconds", pool.collect_seconds)
        metrics.inc("parallel.dispatch_bytes", pool.dispatch_bytes)
        metrics.inc("parallel.result_bytes", pool.result_bytes)


class _ParallelFastFrontier(_ParallelFrontierMixin, _FastFrontier):
    """Multiprocess execution of the Section 6 fast algorithm."""


class _ParallelSimpleFrontier(_ParallelFrontierMixin, _SimpleFrontier):
    """Multiprocess execution of the Section 5 simple algorithm."""
