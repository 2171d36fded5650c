"""Subtree planning for the multiprocess frontier engine.

The master runs the frontier recursion only until the frontier holds
:func:`subtree_target` segments (``~3×`` the worker count by default),
then ships each of those segments — a whole subtree — *once* to a
worker that solves it to completion locally.  :func:`subtree_weight`
predicts a subtree's total solve cost and
:func:`plan_subtree_assignment` maps subtrees onto workers with a
deterministic greedy LPT (longest processing time first): subtrees
sorted by descending weight, each assigned to the least-loaded worker.
The assignment is a pure function of the weights — it decides only
*which process* solves a subtree, never what is computed, so it can
never affect the bit-identity contract of :mod:`repro.parallel.engine`.
"""

from __future__ import annotations

import math
import os
from typing import List, Sequence

__all__ = [
    "subtree_target",
    "subtree_weight",
    "plan_subtree_assignment",
]

#: Environment override for the subtree cut target (absolute segment
#: count).  Tests use it to force degenerate plans (a single giant
#: subtree, more workers than subtrees); operators can tune granularity
#: without a code change.
SUBTREE_TARGET_ENV = "REPRO_MP_SUBTREE_TARGET"

#: Default subtrees-per-worker multiplier.  2–4× gives the LPT packing
#: enough pieces to balance without shrinking subtrees into dispatch
#: overhead; 3× is the middle of that band.
SUBTREE_FACTOR = 3


def subtree_target(workers: int) -> int:
    """How many frontier segments the master grows before cutting over
    to per-subtree worker dispatch.

    Defaults to ``SUBTREE_FACTOR ×`` the worker count; the
    ``REPRO_MP_SUBTREE_TARGET`` environment variable overrides it with
    an absolute count (minimum 1).
    """
    env = os.environ.get(SUBTREE_TARGET_ENV, "").strip()
    if env:
        return max(1, int(env))
    return max(1, SUBTREE_FACTOR * max(1, int(workers)))


def subtree_weight(size: int, base: int) -> float:
    """Predicted cost of solving an ``size``-point subtree to completion.

    Roughly ``size × (levels below the cut + per-leaf brute force)``:
    each of the ``~log2(size / base)`` remaining levels does near-linear
    work over the subtree, and the base cases contribute ``size × base``
    total (each point sits in one ~``base``-sized quadratic leaf).
    """
    m = float(max(1, size))
    b = float(max(1, base))
    return m * (math.log2(max(m / b, 2.0)) + b)


def plan_subtree_assignment(weights: Sequence[float], workers: int) -> List[int]:
    """Assign each subtree to a worker: deterministic greedy LPT.

    Subtrees are visited in descending weight (ties broken by original
    index, so the plan is reproducible) and each goes to the currently
    least-loaded worker (ties broken by worker id).  Returns a list
    ``assignment[i] = worker`` of the same length as ``weights``; with
    more workers than subtrees, high-numbered workers simply receive no
    work.
    """
    workers = max(1, int(workers))
    assignment = [0] * len(weights)
    if workers == 1 or not weights:
        return assignment
    load = [0.0] * workers
    order = sorted(range(len(weights)), key=lambda i: (-float(weights[i]), i))
    for i in order:
        w = min(range(workers), key=lambda j: (load[j], j))
        assignment[i] = w
        load[w] += float(weights[i])
    return assignment
