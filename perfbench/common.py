"""Shared helpers of the benchmark: paths, host facts, quantiles, memory."""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import signal
import sys
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
PR_SET_CHILD_SUBREAPER = 36


def have_program() -> bool:
    """True when the checkout beside this directory holds ``src/repro``."""
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def use_program() -> None:
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def program_env() -> Dict[str, str]:
    """Environment for a child process that runs the program from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile; 0.0 for an empty sample."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def read_cpu_times() -> List[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (jiffies per state)."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except OSError:
        return []


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of all CPU time the hypervisor stole between two readings."""
    if len(before) < 8 or len(after) < 8:
        return 0.0
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return delta[7] / total if total > 0 else 0.0


def host_facts() -> Dict[str, object]:
    """``nproc``, CPU model, Python and numpy versions of this host."""
    import numpy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def nproc() -> int:
    return os.cpu_count() or 1


def proc_peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def children_peak_rss_mb() -> float:
    """Largest peak resident set among this process's reaped children."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants, so that
    a process one of its children started and left behind becomes its
    child and :func:`stop_children` waits for it too."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> List[int]:
    """Pids whose parent is this process, zombies included."""
    me = os.getpid()
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the command name (field 2) may hold spaces; ppid is the 2nd field after it
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            kids.append(int(entry))
    return kids


def _reap_exited() -> None:
    """Collect the exit status of every child that has ended."""
    try:
        while os.waitpid(-1, os.WNOHANG)[0] > 0:
            pass
    except ChildProcessError:
        pass


def stop_children(grace_s: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    ``frontier-mp`` keeps its arrays in shared memory, which starts
    multiprocessing's resource tracker; that process lives until every
    holder of its pipe has closed it, so it is stopped here rather than
    left to outlive this one.  Forked workers hold the pipe too, so any
    still alive go first.  Every other child gets ``grace_s`` to end on
    its own and is killed after that.
    """
    if "multiprocessing" in sys.modules:
        import multiprocessing

        for proc in multiprocessing.active_children():
            proc.terminate()
            proc.join(grace_s)
            if proc.is_alive():
                proc.kill()
                proc.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()
    deadline = time.monotonic() + grace_s
    while True:
        _reap_exited()
        kids = _children()
        if not kids:
            return
        if time.monotonic() >= deadline:
            for pid in kids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            for pid in kids:
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:
                    pass
            return
        time.sleep(0.02)
