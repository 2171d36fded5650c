"""Shared configuration surface for the algorithm config dataclasses.

Historically the three config dataclasses (:class:`FastDnCConfig`,
:class:`SimpleDnCConfig`, :class:`QueryConfig`) grew inconsistent knobs:
the brute-force/leaf threshold was called ``m0`` everywhere but meant two
different things, randomness was threaded through per-function ``seed``
arguments only, and the separator-budget helpers (``mu``,
``iota_budget``) were duplicated.  :class:`CommonConfig` unifies them:

- ``base_case_size`` is the one name for the subproblem size at or
  below which a node is solved exhaustively / becomes a leaf (the paper's
  ``m0``).
- ``seed`` is a config-level default RNG seed.  Algorithm entry points
  still accept an explicit ``seed=``; when it is omitted (``None``), the
  config's seed is used, so a config object fully determines a run.
- ``mu`` / ``iota_budget`` are defined once, with the ``k``-aware budget
  (``k^{1/d}``-scaled) that the fast algorithm needs; passing ``k=1``
  reproduces the query structure's classic budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..util.rng import as_generator

__all__ = [
    "CommonConfig",
    "EngineSpec",
    "ENGINE_REGISTRY",
    "ENGINES",
    "DTYPES",
]

#: Storage dtypes accepted by :attr:`CommonConfig.dtype`.
DTYPES = ("float64", "float32")


@dataclass(frozen=True)
class EngineSpec:
    """One entry of the engine registry.

    ``summary`` is the one-line help text surfaced by the CLI;
    ``parallel`` marks engines that execute on OS worker processes (and
    therefore honor :attr:`CommonConfig.workers`).
    """

    name: str
    summary: str
    parallel: bool = False


#: The single source of truth for execution engines.  CLI ``--engine``
#: choices, :class:`CommonConfig` validation and ``repro.ENGINES`` all
#: derive from this table, so a new engine registers in exactly one place.
ENGINE_REGISTRY = {
    "recursive": EngineSpec(
        "recursive",
        "node-at-a-time Python recursion (the reference execution)",
    ),
    "frontier": EngineSpec(
        "frontier",
        "level-synchronous batched numpy passes (same output, lower wall-clock)",
    ),
    "frontier-mp": EngineSpec(
        "frontier-mp",
        "frontier batches fanned out to OS worker processes over shared memory",
        parallel=True,
    ),
}

#: Execution engines for the divide-and-conquer runners, in registry
#: order.  All engines produce identical neighborhoods and ledgers on a
#: shared seed; they differ only in host wall-clock execution.
ENGINES = tuple(ENGINE_REGISTRY)


@dataclass(frozen=True)
class CommonConfig:
    """Mixin of the knobs every algorithm config shares.

    Parameters
    ----------
    base_case_size:
        Subproblems of at most this many points are solved exhaustively
        (divide and conquer) or become leaves (query structure).
    seed:
        Default RNG seed (or ``numpy`` Generator) used when the algorithm
        entry point is not given an explicit ``seed=``.  ``None`` means
        fresh OS entropy, as before.
    engine:
        How the divide-and-conquer recursion is executed: any name in
        :data:`ENGINE_REGISTRY` — ``"recursive"`` (node-at-a-time Python
        recursion), ``"frontier"`` (level-synchronous batched passes) or
        ``"frontier-mp"`` (frontier batches executed on OS worker
        processes over shared memory).  All engines produce identical
        results on a shared seed.
    workers:
        Worker-process count for parallel engines (``frontier-mp``).
        ``None`` means one worker per available CPU; serial engines
        ignore it.
    dtype:
        Point storage dtype: ``"float64"`` (default) or ``"float32"``
        (half the memory/bandwidth; coordinates are stored in float32
        but all distance arithmetic still runs in float64 on the
        upcast values, so results stay exact for the stored
        coordinates).
    """

    base_case_size: int = 64
    seed: object = None
    engine: str = "recursive"
    workers: Optional[int] = None
    dtype: str = "float64"

    def __post_init__(self):
        if self.engine not in ENGINE_REGISTRY:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.dtype not in DTYPES:
            raise ValueError(
                f"unknown dtype {self.dtype!r}; expected one of {DTYPES}"
            )

    # -- shared derived quantities ---------------------------------------

    def rng(self, seed: object = None) -> np.random.Generator:
        """Resolve an RNG: explicit ``seed`` wins, else the config's seed."""
        return as_generator(seed if seed is not None else self.seed)

    def mu(self, d: int) -> float:
        """Separator-theorem exponent ``(d-1)/d`` plus the config's slack."""
        slack = getattr(self, "mu_slack", 0.10)
        return min(0.98, (d - 1) / d + slack)

    def iota_budget(self, m: int, d: int, k: int = 1) -> float:
        """Straddler budget ``iota_factor * k^{1/d} * m^mu``.

        The separator theorem's bound is ``O(k^{1/d} n^{(d-1)/d})``; the
        budget must carry the ``k`` factor or large-``k`` runs punt
        spuriously.  ``k=1`` reproduces the query structure's budget.
        """
        factor = getattr(self, "iota_factor", 3.0)
        return max(4.0, factor * k ** (1.0 / d) * m ** self.mu(d))

    def base_size(self, k: int) -> int:
        """Brute-force threshold ``max(base_case_size, base_factor*(k+1))``.

        Large enough that no recursive subproblem ever has fewer than
        ``k+1`` points on both sides of a split.
        """
        factor = getattr(self, "base_factor", 1)
        return max(self.base_case_size, factor * (k + 1))

    def np_dtype(self) -> np.dtype:
        """The numpy dtype of :attr:`dtype` (point storage dtype)."""
        return np.dtype(np.float32 if self.dtype == "float32" else np.float64)
