"""The differential oracle's fingerprint and diff, on two tiny runs.

``scripts/differential.py --against REV`` runs its matrix in two trees
and diffs the fingerprints; here the same functions run in-process.
"""

from __future__ import annotations

import os
import sys

import numpy as np

import repro
from repro.core.online import MutableIndex
from repro.pvm import Machine
from repro.workloads import uniform_cube

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts"))
import differential  # noqa: E402


def _fast(seed):
    machine = Machine()
    res = repro.all_knn(uniform_cube(300, 2, 4), 2, machine=machine, seed=seed, engine="frontier")
    return differential.fingerprint(res.indices, res.sq_dists, res.tree, machine)


def _online(n_ins):
    index = MutableIndex(uniform_cube(300, 2, 5), 2, seed=3)
    index.insert(np.random.default_rng(1).random((n_ins, 2)))
    index.commit()
    return differential.fingerprint(
        index.neighbor_indices, index.neighbor_sq_dists, index.tree, index.machine
    )


def test_equal_runs_have_equal_fingerprints():
    runs = {"fast": _fast(7), "online": _online(4)}
    again = {"fast": _fast(7), "online": _online(4)}
    assert differential.diff(runs, again) == []
    fp = runs["fast"]
    assert {"neighbors", "tree", "ledger", "sections", "counters", "metric_counters",
            "gauges", "series"} <= set(fp)
    # wall-clock readings stay out, so equal runs compare equal
    assert not any("seconds" in key for key in fp["gauges"])


def test_diff_names_each_differing_field_and_missing_run():
    before = {"fast": _fast(7), "online": _online(4)}
    after = {"fast": _fast(8), "gone": _online(4)}
    lines = differential.diff(before, after)
    assert "online: only in the first tree" in lines
    assert "gone: only in the second tree" in lines
    fields = {line.split(": ")[1].split(" differs")[0] for line in lines if line[:5] == "fast:"}
    # a different seed draws other separators: another tree and ledger
    assert {"tree", "ledger"} <= fields
    assert "neighbors" not in fields  # exact k-NN is seed-independent
