"""repro.parallel — real multi-core execution of the frontier engine.

The paper's algorithm is an *n-processor* algorithm; the PVM ledger
simulates that machine, and the frontier engine already executes in the
level-synchronous shape the ledger accounts for.  This package closes the
last gap with a coarse-grained two-phase execution, selected as
``engine="frontier-mp"`` (with ``workers=N``) anywhere an engine is
accepted — :class:`~repro.core.config.CommonConfig`, the
:mod:`repro.api` facade, and the CLI's ``--engine/--workers``:

1. the master runs the serial frontier recursion only until the planner
   yields ``~3× workers`` balanced subtrees, then ships each subtree
   *once* to a worker that solves it to completion locally against a
   resident shared-memory arena (no per-level round trips);
2. each worker returns its subtree's nodes, total and section events;
   the master solves only the straddler/boundary correction set above
   the cut and folds the tree's events once — bit-identical neighbors,
   tree, ledger and sections for every worker count.

Layers (see ``docs/parallel.md`` for the architecture tour):

- :mod:`~repro.parallel.shm` — shared-memory array lifecycle (master
  creates/unlinks, workers attach);
- :mod:`~repro.parallel.plan` — the subtree cut target, solve-cost
  weights and the greedy LPT subtree→worker assignment;
- :mod:`~repro.parallel.pool` — the persistent worker pool and its
  metered task protocol (pipelined per-worker queues, byte/time
  accounting);
- :mod:`~repro.parallel.kernels` — the worker-side ``solve_subtree``
  kernel (the unmodified serial code, run on whole subtrees);
- :mod:`~repro.parallel.engine` — the master-side orchestrators
  guaranteeing bit-identical results to the serial engines for any
  worker count.
"""

from .plan import plan_subtree_assignment, subtree_target, subtree_weight
from .pool import WorkerError, WorkerPool, resolve_workers
from .shm import SharedArray, ShmSpec

__all__ = [
    "plan_subtree_assignment",
    "subtree_target",
    "subtree_weight",
    "WorkerError",
    "WorkerPool",
    "resolve_workers",
    "SharedArray",
    "ShmSpec",
]
