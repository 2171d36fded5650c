"""Worker-side kernels of the multiprocess frontier engine.

Each worker process holds one :class:`RunState` per engine run (installed
by :func:`init_run`) and then solves whole subtrees against it.  The
kernels do **not** reimplement the algorithms: :func:`solve_subtree`
instantiates the very same :class:`~repro.core.frontier._FastFrontier` /
:class:`~repro.core.frontier._SimpleFrontier` classes — over shared-memory
views of the run's arrays, with a private
:class:`~repro.pvm.machine.Machine` and metrics registry — and runs the
serial :meth:`~repro.core.frontier._FrontierBase.solve_subtree` entry
point on one frontier segment.  Because the worker executes the
*unmodified* serial code on the whole subtree (every RNG draw comes from
the segment's own :func:`~repro.util.rng.path_rng` stream, every punt
decision and float fold happens in the serial order), the subtree's
neighbor rows, tree columns and per-node costs are bitwise identical
to the same subtree's slice of a serial whole-tree run — worker count
can never change a result.

Neighbor rows are written directly into the shared ``nbr_idx``/``nbr_sq``
arrays.  Subtrees own disjoint index sets and every correction a subtree
performs reads and writes only rows its own nodes own, so concurrent
subtree solves never race (see ``docs/parallel.md`` for the containment
argument).

The task result ships everything the master needs to take the solved
subtree in as one block: its :class:`~repro.core.columns.TreeColumns`
(the leaves' ids and one row per node: separator, subtree end,
correction outcome and section events; pickled compactly, see
:meth:`~repro.core.columns.TreeColumns.__reduce__`), the composed
subtree total, and the task-local metrics registry (which holds the
event counters as ``machine.*``).

Tracing: when the master's machine has a tracer attached, ``init_run``
ships ``trace=True`` and the subtree solve runs under a task-local
:class:`~repro.obs.spans.Tracer` — one ``worker.subtree`` root span
containing the worker-local ``frontier.level`` build/correct spans.  The
serialized span tree (plus the worker's pid/tid and tracer epoch)
travels back in the task result for :mod:`repro.obs.stitch` to graft
under the master's ``parallel.subtree`` span.  Worker spans carry zero
simulated cost — ``solve_subtree`` composes costs analytically and never
charges the worker machine — so stitching can never perturb any ledger
identity.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, Optional

import numpy as np

from ..core.fast_dnc import FastDnCStats
from ..core.frontier import _FastFrontier, _Seg, _SimpleFrontier
from ..core.simple_dnc import SimpleDnCStats
from ..pvm.machine import Machine
from .shm import attach

__all__ = ["KERNELS", "init_run", "solve_subtree"]

_STATE: Optional["RunState"] = None


class RunState:
    """Per-run worker context: shared arrays and run configuration."""

    def __init__(self, payload: Dict[str, Any]) -> None:
        self.method: str = payload["method"]
        self.k: int = payload["k"]
        self.base: int = payload["base"]
        self.config = payload["config"]
        self.root_ss = payload["root_ss"]
        self.scan: str = payload["scan"]
        self.trace: bool = bool(payload.get("trace", False))
        self._attached: Dict[str, Any] = {}
        self.points = self.attach_cached(payload["points_spec"])
        self.nbr_idx = self.attach_cached(payload["nbr_idx_spec"])
        self.nbr_sq = self.attach_cached(payload["nbr_sq_spec"])

    def attach_cached(self, spec) -> np.ndarray:
        if spec.name not in self._attached:
            self._attached[spec.name] = attach(spec)
        return self._attached[spec.name][1]

    def make_engine(self):
        """A fresh engine with a task-local machine and metrics registry.

        With ``trace`` on, the machine gets a task-local tracer whose
        span tree ships back in the task result (see
        :func:`_task_result`)."""
        machine = Machine(scan=self.scan)
        if self.trace:
            machine.enable_tracing()
        if self.method == "fast":
            cls, stats = _FastFrontier, FastDnCStats(metrics=machine.metrics)
        else:
            cls, stats = _SimpleFrontier, SimpleDnCStats(metrics=machine.metrics)
        return cls(
            self.points, self.k, machine, self.root_ss, self.config,
            stats, self.nbr_idx, self.nbr_sq, self.base,
        )


def init_run(payload: Dict[str, Any]) -> bool:
    """Install the run context shipped by the master."""
    global _STATE
    _STATE = RunState(payload)
    return True


def _task_result(engine, out: Dict[str, Any]) -> Dict[str, Any]:
    out["metrics"] = engine.machine.metrics
    tracer = engine.machine.tracer
    if tracer is not None:
        out["trace"] = {
            "spans": [root.to_dict() for root in tracer.roots],
            "epoch": tracer.epoch,
            "pid": os.getpid(),
            "tid": threading.get_native_id(),
        }
    return out


def solve_subtree(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Solve one whole subtree to completion against the resident arena.

    The payload names a slice of the shared cut-frontier id buffer plus
    the segment's tree position (``path``/``level``); the kernel runs the
    serial :meth:`~repro.core.frontier._FrontierBase.solve_subtree` on it
    and returns the subtree's columns for the master to splice, with its
    composed total.
    """
    state = _STATE
    ids_buf = state.attach_cached(payload["ids_spec"])
    offset, length = payload["offset"], payload["length"]
    seg = _Seg(
        ids=ids_buf[offset : offset + length],
        level=payload["level"],
        path=tuple(payload["path"]),
    )
    engine = state.make_engine()
    with engine.machine.span(
        "worker.subtree",
        subtree=payload["index"],
        level=payload["level"],
        points=length,
    ) as wspan:
        levels = engine.solve_subtree(seg)
        if wspan is not None:
            wspan.attrs["depth"] = len(levels)
            wspan.attrs["segments"] = int(sum(len(ls) for ls in levels))
    return _task_result(engine, {"tree": engine.cols, "total": seg.total_cost})


def serve_init(payload: Dict[str, Any]) -> Any:
    """Install a serving-index snapshot (see :mod:`repro.serve.worker`)."""
    from ..serve.worker import serve_init as impl

    return impl(payload)


def serve_shard(payload: Dict[str, Any]) -> Any:
    """Answer one shard of a serving batch (see :mod:`repro.serve.worker`)."""
    from ..serve.worker import serve_shard as impl

    return impl(payload)


def serve_stats(payload: Dict[str, Any]) -> Any:
    """Return-and-reset a worker's shard-latency histogram
    (see :mod:`repro.serve.worker`)."""
    from ..serve.worker import serve_stats as impl

    return impl(payload)


KERNELS = {
    "init_run": init_run,
    "solve_subtree": solve_subtree,
    "serve_init": serve_init,
    "serve_shard": serve_shard,
    "serve_stats": serve_stats,
}
