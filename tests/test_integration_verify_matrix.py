"""The full algorithm x workload audit matrix.

Every all-kNN implementation, on every workload family, must produce a
system that satisfies the *definition* (via :mod:`repro.core.verify`) and
match brute force.  This is the repository's broadest single safety net.
"""

from __future__ import annotations

import pytest

from repro.baselines import brute_force_knn, grid_knn, kdtree_knn
from repro.core import parallel_nearest_neighborhood, simple_parallel_dnc
from repro.core.verify import verify_system
from repro.workloads import make_workload

ALGORITHMS = {
    "fast": lambda pts, k: parallel_nearest_neighborhood(pts, k, seed=1).system,
    "simple": lambda pts, k: simple_parallel_dnc(pts, k, seed=1).system,
    "kdtree": kdtree_knn,
    "grid": grid_knn,
}

WORKLOAD_NAMES = ["uniform", "clustered", "annulus", "two_moons", "spiral"]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_audit_matrix(algo, workload):
    pts = make_workload(workload, 350, 2, seed=hash((algo, workload)) % 1000)
    k = 2
    system = ALGORITHMS[algo](pts, k)
    assert system.same_distances(brute_force_knn(pts, k)), f"{algo} on {workload}: mismatch"
    report = verify_system(system)
    assert report.ok, f"{algo} on {workload}: {report.summary()}"


@pytest.mark.parametrize("workload", ["uniform", "clustered"])
def test_audit_matrix_3d(workload):
    pts = make_workload(workload, 300, 3, seed=7)
    res = parallel_nearest_neighborhood(pts, 3, seed=2)
    assert verify_system(res.system).ok
    assert res.system.same_distances(brute_force_knn(pts, 3))
