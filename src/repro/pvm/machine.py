"""The simulated scan-vector machine.

A :class:`Machine` is the execution context for every algorithm in this
repository.  It plays two roles at once:

1. it *executes* primitive vector operations (delegating the data movement
   to numpy, which is the closest single-node analogue of a data-parallel
   vector unit), and
2. it *accounts* for what an idealised parallel vector machine would have
   paid for those operations, as a (depth, work) ledger in the algebra of
   :mod:`repro.pvm.cost`.

The accounting is structural: sequential program order adds costs, while a
``with machine.parallel() as par:`` block composes its branches with
``max``-depth / sum-work, mirroring the paper's "recursively solve the two
subproblems in parallel" steps.  Branches may be arbitrarily nested, so a
recursive divide and conquer maps one-to-one onto nested parallel blocks and
the ledger computes the *exact* critical path of the recursion tree.

SCAN policy
-----------
The paper assumes a **unit-time scan** ("Our algorithm … assumes a unit time
scan or prefix sum operation"), and notes that on a plain CRCW PRAM the
results hold with an extra ``O(log log n)``–``O(log n)`` factor.  The policy
is therefore configurable:

``"unit"``
    scan over an n-vector costs depth 1 (the Connection-Machine-style model
    used for the headline O(log n) result);
``"log"``
    scan costs depth ``ceil(log2 n)`` (a conservative EREW-style charge);
``"loglog"``
    scan costs depth ``ceil(log2 log2 n)`` (the CRCW remark in §1).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional

from ..obs.metrics import Metrics
from ..obs.spans import Span, Tracer
from .cost import Cost, ZERO

__all__ = ["Machine", "ScanPolicy", "SCAN_POLICIES"]

ScanPolicy = str

_COUNTER_PREFIX = "machine."

SCAN_POLICIES: dict[str, Callable[[int], float]] = {
    "unit": lambda n: 1.0,
    "log": lambda n: float(max(1, math.ceil(math.log2(n)))) if n > 1 else 1.0,
    "loglog": lambda n: (
        float(max(1, math.ceil(math.log2(max(2.0, math.log2(n)))))) if n > 1 else 1.0
    ),
}


class _Frame:
    """One accounting frame: accumulates sequential cost of a program region."""

    __slots__ = ("cost",)

    def __init__(self) -> None:
        self.cost: Cost = ZERO

    def charge(self, c: Cost) -> None:
        self.cost = self.cost.then(c)


class _ParallelBlock:
    """Handle yielded by :meth:`Machine.parallel`; collects branch costs."""

    def __init__(self, machine: "Machine") -> None:
        self._machine = machine
        self._branch_costs: List[Cost] = []
        self._open = True

    @contextmanager
    def branch(self) -> Iterator[None]:
        """Run a region whose cost is one parallel branch of this block."""
        if not self._open:
            raise RuntimeError("parallel block already closed")
        frame = _Frame()
        self._machine._stack.append(frame)
        try:
            yield
        finally:
            popped = self._machine._stack.pop()
            assert popped is frame
            self._branch_costs.append(frame.cost)

    def _combined(self) -> Cost:
        total = ZERO
        for c in self._branch_costs:
            total = total.beside(c)
        return total


class Machine:
    """A simulated parallel vector machine with a (depth, work) ledger.

    Parameters
    ----------
    scan:
        SCAN depth policy, one of ``"unit"`` (paper's model), ``"log"``,
        ``"loglog"``.  See module docstring.

    Examples
    --------
    >>> m = Machine()
    >>> m.charge(Cost(1, 8))          # one vector step over 8 elements
    >>> with m.parallel() as p:
    ...     with p.branch():
    ...         m.charge(Cost(3, 10))
    ...     with p.branch():
    ...         m.charge(Cost(5, 10))
    >>> m.total.depth                  # 1 + max(3, 5)
    6.0
    >>> m.total.work                   # 8 + 10 + 10
    28.0
    """

    def __init__(
        self,
        scan: ScanPolicy = "unit",
        *,
        tracer: Optional[Tracer] = None,
        metrics: Optional[Metrics] = None,
    ) -> None:
        if scan not in SCAN_POLICIES:
            raise ValueError(f"unknown scan policy {scan!r}; choose from {sorted(SCAN_POLICIES)}")
        self.scan_policy = scan
        self._scan_depth = SCAN_POLICIES[scan]
        self._root = _Frame()
        self._stack: List[_Frame] = [self._root]
        self.sections: dict[str, Cost] = {}
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else Metrics()

    # -- accounting ------------------------------------------------------

    @property
    def total(self) -> Cost:
        """Cost accumulated at the root frame so far."""
        if len(self._stack) != 1:
            raise RuntimeError("total is only meaningful outside parallel blocks")
        return self._root.cost

    def charge(self, cost: Cost) -> None:
        """Charge an explicit cost to the current program point."""
        self._stack[-1].charge(cost)

    def bump(self, counter: str, by: int = 1) -> None:
        """Increment a named event counter (separator retries, punts, ...).

        The count lives in the :attr:`metrics` registry as
        ``machine.<counter>``, so it exports uniformly with the rest of
        the run; :attr:`counters` reads it back.
        """
        self.metrics.inc(_COUNTER_PREFIX + counter, by)

    @property
    def counters(self) -> dict[str, int]:
        """The event counters of :meth:`bump`: a fresh dict of the
        registry's ``machine.*`` counters with the prefix stripped."""
        return {
            name[len(_COUNTER_PREFIX):]: value
            for name, value in self.metrics.counters.items()
            if name.startswith(_COUNTER_PREFIX)
        }

    def enable_tracing(self) -> Tracer:
        """Attach (and return) a fresh :class:`~repro.obs.spans.Tracer`.

        Subsequent :meth:`span` and :meth:`section` regions record into
        it.  Tracing is passive: the ledger is unchanged by attachment.
        """
        self.tracer = Tracer()
        return self.tracer

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Optional[Span]]:
        """Record a named region in the attached tracer.

        The region's inclusive cost is measured on its own frame (exact
        under nested :meth:`parallel` blocks) and then charged to the
        enclosing frame sequentially — accounting is identical to running
        the region inline, so tracing never changes the ledger.  With no
        tracer attached this is a no-op that yields ``None`` and records
        nothing.

        Keyword arguments become span attributes (recursion level,
        subproblem size, punt flags, ...).
        """
        tracer = self.tracer
        if tracer is None:
            yield None
            return
        frame = _Frame()
        enter = self._stack[-1].cost
        self._stack.append(frame)
        handle = tracer.start(name, attrs, enter)
        try:
            yield handle
        finally:
            popped = self._stack.pop()
            assert popped is frame
            tracer.stop(handle, frame.cost)
            self._stack[-1].charge(frame.cost)

    @contextmanager
    def parallel(self) -> Iterator[_ParallelBlock]:
        """Open a parallel block; each ``branch()`` inside runs concurrently."""
        block = _ParallelBlock(self)
        try:
            yield block
        finally:
            block._open = False
            self._stack[-1].charge(block._combined())

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        """Attribute the cost of a region to a named phase.

        Phase totals accumulate in :attr:`sections` (sequential-composed
        per phase) without changing the global accounting — the region's
        cost still flows to the enclosing frame exactly as if untagged.
        Sections may repeat (costs add) and nest (each level records its
        own region's full cost).  With a tracer attached, each section
        occurrence additionally records as a span of the same name.
        """
        frame = _Frame()
        enter = self._stack[-1].cost
        self._stack.append(frame)
        handle = self.tracer.start(name, {}, enter) if self.tracer is not None else None
        try:
            yield
        finally:
            popped = self._stack.pop()
            assert popped is frame
            if handle is not None:
                self.tracer.stop(handle, frame.cost)
            self.sections[name] = self.sections.get(name, ZERO).then(frame.cost)
            self._stack[-1].charge(frame.cost)

    # -- primitive cost schedules ---------------------------------------

    def scan_cost(self, n: int) -> Cost:
        """Cost of a (segmented) scan / prefix-sum / reduce over n elements."""
        if n <= 0:
            return ZERO
        return Cost(self._scan_depth(n), float(n))

    def ewise_cost(self, n: int, steps: float = 1.0) -> Cost:
        """Cost of ``steps`` elementwise vector operations over n elements."""
        if n <= 0:
            return ZERO
        return Cost(float(steps), float(n) * steps)

    def permute_cost(self, n: int) -> Cost:
        """Cost of a permute / pack / gather data movement over n elements."""
        if n <= 0:
            return ZERO
        return Cost(1.0, float(n))

    def serial_cost(self, steps: float) -> Cost:
        """Cost of ``steps`` inherently sequential scalar operations."""
        if steps <= 0:
            return ZERO
        return Cost(float(steps), float(steps))
