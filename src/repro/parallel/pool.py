"""Persistent worker-process pool for the multiprocess frontier engine.

One pool serves one engine run: the master spawns ``workers`` processes
up front (``fork`` where the platform offers it, else ``spawn``), seeds
each with the run's :func:`~repro.parallel.kernels.init_run` payload, and
then drives named kernel tasks over duplex pipes.  The protocol is
deliberately tiny — one explicitly pickled frame per message, so the
master can meter dispatch and result traffic byte-for-byte:

- master sends ``pickle((kernel_name, payload))``; worker replies
  ``pickle(("ok", result, elapsed_seconds))`` or
  ``pickle(("err", traceback_text))``;
- ``(_EXIT, None)`` asks the worker to return from its loop.

Remote exceptions re-raise in the master as :class:`WorkerError` carrying
the worker's formatted traceback.  Two dispatch shapes exist:
:meth:`WorkerPool.run_tasks` (waved, one task in flight per worker —
what the serving pool uses) and :meth:`WorkerPool.run_assigned` (the
coarse engine's shape: every task is queued to its planned worker up
front and results are collected out-of-order as workers finish, so a
fast worker never waits on a slow one's pipe).

Accounting invariants the utilization metric relies on:

- ``busy_seconds[w]`` accumulates the *worker-measured* kernel seconds
  of each **completed** task exactly once, at collection time.  Failed
  tasks, exit messages and close-time flushes never touch it — an
  earlier revision also counted the final flush window when a worker
  exited mid-dispatch, double-charging the last task; utilization could
  then exceed 1.0 on a saturated pool (the tests pin ``≤ 1.0`` now).
- ``dispatch_window()`` is the ``(first_submit, last_complete)`` wall
  interval of completed :meth:`~WorkerPool.run_tasks` /
  :meth:`~WorkerPool.run_assigned` work — the honest utilization
  denominator.  Broadcasts (``init_run``, ``serve_init``, stats drains)
  neither open nor extend it, so master-side work done between a
  broadcast and the first real task stays out of the span.
- ``dispatch_bytes``/``result_bytes`` and ``dispatch_seconds``/
  ``collect_seconds`` meter the serialize+send / receive+deserialize
  halves of the protocol so the engine can attribute fan-out overhead
  instead of guessing.

A ``weakref.finalize`` terminates any still-alive children if a pool is
dropped without :meth:`WorkerPool.close` — the suite's leak test relies
on no code path orphaning a process.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import time
import traceback
import weakref
from dataclasses import dataclass
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["WorkerPool", "WorkerError", "TaskResult", "resolve_workers"]


@dataclass
class TaskResult:
    """One completed kernel task.

    ``elapsed`` is the worker-measured kernel seconds; ``submitted`` /
    ``completed`` are master-side absolute ``time.perf_counter``
    readings taken at dispatch and at collection, so the master can
    place the task on a wall-clock timeline (and compute utilization
    over the span of dispatched work rather than pool lifetime).
    """

    result: Any
    worker: int
    elapsed: float
    submitted: float
    completed: float

_EXIT = "__exit__"

_PICKLE_PROTO = pickle.HIGHEST_PROTOCOL


class WorkerError(RuntimeError):
    """A kernel raised (or a worker died) in a worker process."""


def resolve_workers(workers: Optional[int]) -> int:
    """Resolve a config ``workers`` value: ``None`` means one per CPU."""
    if workers is not None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        return int(workers)
    return os.cpu_count() or 1


def _worker_main(conn) -> None:
    """Worker loop: dispatch kernel tasks until told to exit."""
    from . import kernels

    while True:
        try:
            name, payload = pickle.loads(conn.recv_bytes())
        except (EOFError, OSError):
            break
        if name == _EXIT:
            break
        t0 = time.perf_counter()
        try:
            result = kernels.KERNELS[name](payload)
        except BaseException:
            try:
                conn.send_bytes(
                    pickle.dumps(("err", traceback.format_exc()), _PICKLE_PROTO)
                )
            except (BrokenPipeError, OSError):
                break
            continue
        try:
            conn.send_bytes(
                pickle.dumps(
                    ("ok", result, time.perf_counter() - t0), _PICKLE_PROTO
                )
            )
        except (BrokenPipeError, OSError):
            break
    conn.close()


def _terminate(procs) -> None:
    for p in procs:
        if p.is_alive():
            p.terminate()
    for p in procs:
        if p.is_alive():
            p.join(timeout=2.0)


class WorkerPool:
    """A fixed set of worker processes executing named kernels."""

    def __init__(self, workers: int, start_method: Optional[str] = None) -> None:
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        ctx = mp.get_context(start_method)
        self.workers = int(workers)
        self.start_method = start_method
        self._conns = []
        self._procs = []
        self.busy_seconds = [0.0] * self.workers
        self.tasks_done = 0
        self.dispatch_bytes = 0
        self.result_bytes = 0
        self.dispatch_seconds = 0.0
        self.collect_seconds = 0.0
        self._first_submit: Optional[float] = None
        self._last_complete: Optional[float] = None
        self._closed = False
        for _ in range(self.workers):
            parent, child = ctx.Pipe(duplex=True)
            proc = ctx.Process(target=_worker_main, args=(child,), daemon=True)
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)
        self._finalizer = weakref.finalize(self, _terminate, list(self._procs))

    # -- task protocol ---------------------------------------------------

    def _submit(self, worker: int, name: str, payload: Any, timed: bool = True) -> float:
        t0 = time.perf_counter()
        buf = pickle.dumps((name, payload), _PICKLE_PROTO)
        self._conns[worker].send_bytes(buf)
        now = time.perf_counter()
        if timed and self._first_submit is None:
            self._first_submit = t0
        self.dispatch_bytes += len(buf)
        self.dispatch_seconds += now - t0
        return t0

    def _collect(self, worker: int, name: str, timed: bool = True) -> Tuple[Any, float, float]:
        """Receive one reply from ``worker``; raises on kernel error.

        Returns ``(result, elapsed, completed)``.  Busy time is credited
        here — and only here — exactly once per *successful* task: the
        worker-measured kernel seconds.  Errors and flushes contribute
        nothing, so utilization can never be inflated by a worker that
        exits mid-dispatch.  ``timed`` replies also move the dispatch
        window's end to their ``completed`` reading.
        """
        try:
            buf = self._conns[worker].recv_bytes()
        except (EOFError, OSError) as exc:
            raise WorkerError(
                f"worker {worker} died while running {name!r}"
            ) from exc
        t0 = time.perf_counter()
        reply = pickle.loads(buf)
        self.result_bytes += len(buf)
        self.collect_seconds += time.perf_counter() - t0
        if reply[0] == "err":
            raise WorkerError(
                f"kernel {name!r} failed on worker {worker}:\n{reply[1]}"
            )
        _, result, elapsed = reply
        completed = time.perf_counter()
        if timed:
            self._last_complete = completed
        self.busy_seconds[worker] += float(elapsed)
        self.tasks_done += 1
        return result, float(elapsed), completed

    def dispatch_window(self) -> Optional[Tuple[float, float]]:
        """Absolute ``(first_submit, last_complete)`` clock readings of
        the work dispatched so far, or ``None`` before any dispatch.

        This is the denominator basis for honest utilization: a pool
        that outlives its run (or was spawned long before the first
        task) must not dilute busy time with idle pool lifetime.
        """
        if self._first_submit is None or self._last_complete is None:
            return None
        return self._first_submit, self._last_complete

    def run_tasks(self, name: str, payloads: Sequence[Any]) -> List[TaskResult]:
        """Run one kernel per payload, payload ``i`` on worker ``i % W``
        (waved so at most one task is in flight per worker), returning
        :class:`TaskResult` records in payload order."""
        out: List[TaskResult] = []
        for lo in range(0, len(payloads), self.workers):
            wave = payloads[lo : lo + self.workers]
            submits = [
                self._submit(w, name, payload) for w, payload in enumerate(wave)
            ]
            for w in range(len(wave)):
                result, elapsed, completed = self._collect(w, name)
                out.append(
                    TaskResult(
                        result=result,
                        worker=w,
                        elapsed=elapsed,
                        submitted=submits[w],
                        completed=completed,
                    )
                )
        return out

    def run_assigned(
        self, name: str, payloads: Sequence[Any], assignment: Sequence[int]
    ) -> List[TaskResult]:
        """Run ``payloads[i]`` on worker ``assignment[i]``, pipelined.

        Every task is written to its worker's pipe up front (workers
        drain their queue in order), and replies are collected
        **out-of-order** as workers finish — a worker with a light queue
        never blocks on a heavy one.  Returns results in payload order.

        If any kernel fails, the remaining outstanding replies are
        drained first (so the pool stays usable) and the first failure
        re-raises as :class:`WorkerError`.
        """
        if len(payloads) != len(assignment):
            raise ValueError(
                f"{len(payloads)} payloads vs {len(assignment)} assignments"
            )
        out: List[Optional[TaskResult]] = [None] * len(payloads)
        queues: Dict[int, List[int]] = {}
        submits: List[float] = [0.0] * len(payloads)
        for i, worker in enumerate(assignment):
            w = int(worker)
            if not 0 <= w < self.workers:
                raise ValueError(f"assignment[{i}]={w} outside pool of {self.workers}")
            queues.setdefault(w, []).append(i)
            submits[i] = self._submit(w, name, payloads[i])
        conn_to_worker = {id(self._conns[w]): w for w in queues}
        pending = {w: list(ids) for w, ids in queues.items()}
        first_error: Optional[WorkerError] = None
        while pending:
            ready = _conn_wait([self._conns[w] for w in pending])
            for conn in ready:
                w = conn_to_worker[id(conn)]
                i = pending[w].pop(0)
                if not pending[w]:
                    del pending[w]
                try:
                    result, elapsed, completed = self._collect(w, name)
                except WorkerError as exc:
                    if first_error is None:
                        first_error = exc
                    continue
                out[i] = TaskResult(
                    result=result,
                    worker=w,
                    elapsed=elapsed,
                    submitted=submits[i],
                    completed=completed,
                )
        if first_error is not None:
            raise first_error
        return out  # type: ignore[return-value]

    def broadcast(self, name: str, payload: Any) -> List[Any]:
        """Run one kernel with the same payload on every worker (outside
        the dispatch window)."""
        for w in range(self.workers):
            self._submit(w, name, payload, timed=False)
        return [self._collect(w, name, timed=False)[0] for w in range(self.workers)]

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Ask every worker to exit; escalate to terminate on timeout."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send_bytes(pickle.dumps((_EXIT, None), _PICKLE_PROTO))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
        _terminate(self._procs)
        for conn in self._conns:
            conn.close()
        self._finalizer.detach()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
