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

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ..util.rng import as_generator

__all__ = [
    "CommonConfig",
    "ENGINES",
    "DTYPES",
    "resolve_config",
]

#: Storage dtypes accepted by :attr:`CommonConfig.dtype`.
DTYPES = ("float64", "float32")

#: Execution engines for the divide-and-conquer runners: ``"recursive"``
#: (node-at-a-time Python recursion, the reference execution),
#: ``"frontier"`` (level-synchronous batched numpy passes) and
#: ``"frontier-mp"`` (frontier subtrees solved on OS worker processes over
#: shared memory, the only one honoring :attr:`CommonConfig.workers`).
#: CLI ``--engine`` choices, :class:`CommonConfig` validation and
#: ``repro.ENGINES`` all read this tuple.  All engines produce identical
#: neighborhoods and ledgers on a shared seed; they differ only in host
#: wall-clock execution.
ENGINES = ("recursive", "frontier", "frontier-mp")


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
        :data:`ENGINES` — ``"recursive"`` (node-at-a-time Python
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
        if self.engine not in ENGINES:
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


def resolve_config(
    config: Optional[CommonConfig],
    engine: Optional[str] = None,
    workers: Optional[int] = None,
    dtype: Optional[str] = None,
) -> Optional[CommonConfig]:
    """``config`` with a call's ``engine``/``workers``/``dtype`` knobs
    applied; ``None`` keeps the config's own value.

    The knobs are validated even when there is no config to apply them
    to (the ``"brute"`` method), so a bad value fails the same way on
    every entry point (:func:`repro.api.all_knn`,
    :meth:`repro.serve.ServingIndex.build`).
    """
    if engine is not None and engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if dtype is not None and dtype not in DTYPES:
        raise ValueError(f"unknown dtype {dtype!r}; choose from {DTYPES}")
    if config is not None and engine is not None and config.engine != engine:
        config = replace(config, engine=engine)
    if config is not None and workers is not None and config.workers != workers:
        config = replace(config, workers=workers)
    if config is not None and dtype is not None and config.dtype != dtype:
        config = replace(config, dtype=dtype)
    return config
