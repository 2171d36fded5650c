"""A ``frontier-mp`` worker killed mid-subtree: a clear error, nothing left.

The kernel table is patched before the pool forks, so every worker runs
a ``solve_subtree`` that SIGKILLs its own process on one subtree.  The
master must raise :class:`~repro.parallel.WorkerError`, reap every
worker process, and unlink every shared-memory segment it created.
"""

from __future__ import annotations

import multiprocessing
import os
import signal

import pytest

from repro.api import all_knn
from repro.parallel import WorkerError
from repro.parallel import kernels
from repro.workloads import uniform_cube

_SHM = "/dev/shm"


def _shm_entries():
    return set(os.listdir(_SHM)) if os.path.isdir(_SHM) else set()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched kernel reaches the workers only through fork",
)
def test_killed_worker_raises_and_leaves_nothing(monkeypatch):
    solve = kernels.KERNELS["solve_subtree"]

    def dies_on_one_subtree(payload):
        if payload["index"] == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return solve(payload)

    monkeypatch.setitem(kernels.KERNELS, "solve_subtree", dies_on_one_subtree)
    before = _shm_entries()
    with pytest.raises(WorkerError, match="died"):
        all_knn(uniform_cube(20_000, 2, seed=1), 2, engine="frontier-mp", workers=2, seed=3)
    assert multiprocessing.active_children() == []
    assert _shm_entries() - before == set()
