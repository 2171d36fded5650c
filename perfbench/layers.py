"""Per-layer timing measured from outside the program.

The wrappers here replace public functions of ``repro`` modules at the
names their callers look up, time every call, and put the original back
on :meth:`Patches.restore`.  Every timed call is a frame on one stack
owned by a :class:`LayerTimer`; a frame's *self time* is its wall time
minus the wall time of the frames nested inside it.  Self times of all
ops therefore add up to at most the wall time they ran in, and what no
frame covers is reported as unattributed.

Coroutines are timed step by step (:func:`wrap_coro`): only the time a
coroutine runs between two suspensions counts, never the time it waits.
Garbage-collector pauses (:func:`hook_gc`) and event-loop waits in the
selector (:func:`hook_loop_wait`) are frames too, so their time is taken
out of whatever layer they interrupted.
"""

from __future__ import annotations

import functools
import gc
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

perf = time.perf_counter

#: The kernel dispatchers in ``repro.kernels`` that callers reach as
#: ``kernels.<op>``.
KERNEL_OPS = (
    "block_topk",
    "segmented_split_sides",
    "classify_level_spheres",
    "merge_candidate_stream",
    "sphere_side",
    "descend_spheres",
)


class Op:
    """Counters of one wrapped function."""

    __slots__ = ("layer", "name", "calls", "elems", "bytes", "self_s", "incl_s", "samples")

    def __init__(self, layer: str, name: str, samples: bool) -> None:
        self.layer = layer
        self.name = name
        self.samples: Optional[List[float]] = [] if samples else None
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.elems = 0
        self.bytes = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        if self.samples is not None:
            self.samples.clear()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "layer": self.layer,
            "calls": self.calls,
            "elems": self.elems,
            "bytes": self.bytes,
            "self_s": self.self_s,
            "incl_s": self.incl_s,
            "samples": list(self.samples or ()),
        }


class LayerTimer:
    """One stack of timed frames and the :class:`Op` counters they feed.

    With ``keep_top`` set, every frame that closes on an empty stack is
    also kept as a ``(start, wall)`` interval, so the time wrapped calls
    cover inside a program span can be subtracted from that span.
    """

    def __init__(self, keep_top: bool = False) -> None:
        self.ops: Dict[str, Op] = {}
        self.stack: List[list] = []
        self.keep_top = keep_top
        self.top: List[Tuple[float, float]] = []

    def op(self, layer: str, name: str, samples: bool = False) -> Op:
        op = self.ops.get(name)
        if op is None:
            op = self.ops[name] = Op(layer, name, samples)
        return op

    def enter(self, op: Op) -> None:
        self.stack.append([op, perf(), 0.0])

    def exit(self) -> float:
        t = perf()
        op, t0, child = self.stack.pop()
        wall = t - t0
        op.self_s += wall - child
        op.incl_s += wall
        if self.stack:
            self.stack[-1][2] += wall
        elif self.keep_top:
            self.top.append((t0, wall))
        return wall

    def reset(self) -> None:
        for op in self.ops.values():
            op.reset()
        self.top.clear()

    def covered_s(self, start: float, end: float) -> float:
        """Wall time of top-level frames that started in ``[start, end)``."""
        return sum(w for t0, w in self.top if start <= t0 < end)


def self_by_layer(ops: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    """Sum of the self times of serialized ops (:meth:`Op.to_dict`) per layer."""
    out: Dict[str, float] = {}
    for op in ops.values():
        out[op["layer"]] = out.get(op["layer"], 0.0) + op["self_s"]
    return out


Measure = Callable[[Op, tuple, Any], None]


def wrap_call(timer: LayerTimer, op: Op, fn: Callable, measure: Optional[Measure] = None):
    """``fn`` timed as one frame of ``op`` per call."""

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        timer.enter(op)
        try:
            out = fn(*args, **kwargs)
        finally:
            wall = timer.exit()
        op.calls += 1
        if op.samples is not None:
            op.samples.append(wall)
        if measure is not None:
            measure(op, args, out)
        return out

    return timed


class _Steps:
    """Awaitable that drives a coroutine, timing each step as a frame."""

    __slots__ = ("timer", "op", "coro")

    def __init__(self, timer: LayerTimer, op: Op, coro) -> None:
        self.timer, self.op, self.coro = timer, op, coro

    def __await__(self):
        timer, op, coro = self.timer, self.op, self.coro
        value, exc = None, None
        while True:
            timer.enter(op)
            try:
                yielded = coro.send(value) if exc is None else coro.throw(exc)
            except StopIteration as stop:
                timer.exit()
                return stop.value
            except BaseException:
                timer.exit()
                raise
            timer.exit()
            try:
                value, exc = (yield yielded), None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as err:  # delivered into the coroutine
                value, exc = None, err


def wrap_coro(timer: LayerTimer, op: Op, fn: Callable):
    """Coroutine function ``fn`` with its running (not waiting) time timed."""

    @functools.wraps(fn)
    async def timed(*args, **kwargs):
        op.calls += 1
        return await _Steps(timer, op, fn(*args, **kwargs))

    return timed


def array_traffic(op: Op, args: tuple, out: Any) -> None:
    """Rows of the first array argument, and bytes of every array argument
    and result (computed from array sizes, not measured traffic)."""
    import numpy as np

    first = True
    for a in args:
        if isinstance(a, np.ndarray):
            if first:
                op.elems += a.shape[0] if a.ndim else 1
                first = False
            op.bytes += a.nbytes
    outs = out if isinstance(out, tuple) else (out,)
    for a in outs:
        if isinstance(a, np.ndarray):
            op.bytes += a.nbytes


_MISSING = object()


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._saved.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, value)

    def call(self, timer, owner, name, layer, op_name=None, measure=None, samples=False):
        op = timer.op(layer, op_name or name, samples)
        self.set(owner, name, wrap_call(timer, op, getattr(owner, name), measure))
        return op

    def coro(self, timer, owner, name, layer, op_name=None):
        op = timer.op(layer, op_name or name)
        self.set(owner, name, wrap_coro(timer, op, getattr(owner, name)))
        return op

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            if value is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, value)


def install_build(timer: LayerTimer, patches: Patches) -> None:
    """Kernel and separator wrappers for an in-process build."""
    import repro.core.frontier as frontier
    import repro.kernels as kernels

    for name in KERNEL_OPS:
        patches.call(timer, kernels, name, "kernels", measure=array_traffic)
    # repro.core.frontier imported these by name; wrap them where it looks
    for name in ("prepare_samplers", "batched_side_of_points"):
        patches.call(timer, frontier, name, "separators", op_name="separators")


def hook_gc(timer: LayerTimer) -> Callable[[], None]:
    """Time every collector pass as a ``python.gc`` frame; returns an
    uninstall function."""
    op = timer.op("python", "gc", samples=True)

    def callback(phase: str, info: dict) -> None:
        if phase == "start":
            timer.enter(op)
        else:
            op.samples.append(timer.exit())
            op.calls += 1

    gc.callbacks.append(callback)
    return lambda: gc.callbacks.remove(callback)


def hook_loop_wait(timer: LayerTimer, patches: Patches) -> None:
    """Time the event loop's selector waits as ``loop_wait`` (layer
    ``idle``: time the server had nothing to do)."""
    import selectors

    cls = selectors.DefaultSelector
    op = timer.op("idle", "loop_wait")
    orig = cls.select

    def select(self, timeout=None):
        timer.enter(op)
        try:
            return orig(self, timeout)
        finally:
            timer.exit()

    patches.set(cls, "select", select)
