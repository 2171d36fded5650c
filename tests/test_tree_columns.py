"""One tree representation: the level loop writes preorder columns.

The frontier engines and the online index keep a solved tree as
:class:`~repro.core.columns.TreeColumns` and make no
:class:`~repro.core.partition_tree.PartitionNode` until ``.tree`` is
read; the view they build then is the recursive engine's tree.  The
columns survive the trip from a ``frontier-mp`` worker, and the phase
fold over them adds each phase's events in the depth-first order.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.api import all_knn
from repro.core.columns import TreeColumns, fold_phase
from repro.core.online import MutableIndex, tree_signature
from repro.core.partition_tree import PartitionNode
from repro.workloads import uniform_cube


@pytest.fixture
def made(monkeypatch):
    """A list that grows by one per PartitionNode constructed."""
    count = []
    init = PartitionNode.__post_init__

    def counting(node):
        count.append(node)
        init(node)

    monkeypatch.setattr(PartitionNode, "__post_init__", counting)
    return count


@pytest.mark.parametrize("method", ["fast", "simple"])
@pytest.mark.parametrize("engine, workers", [("frontier", None), ("frontier-mp", 2)])
def test_engines_build_no_pointer_tree_until_read(made, method, engine, workers):
    pts = uniform_cube(1500, 2, seed=4)
    res = all_knn(pts, 2, method=method, engine=engine, workers=workers, seed=5)
    assert made == []
    reference = all_knn(pts, 2, method=method, seed=5)
    made.clear()
    tree = res.tree
    assert len(made) == sum(1 for _ in tree.nodes())
    assert res.tree is tree
    assert tree_signature(tree) == tree_signature(reference.tree)
    assert [n.meta for n in tree.nodes()] == [n.meta for n in reference.tree.nodes()]


def test_online_build_and_commit_build_no_pointer_tree(made):
    rng = np.random.default_rng(6)
    index = MutableIndex(uniform_cube(2000, 2, seed=7), k=2, seed=8)
    index.insert(rng.random((5, 2)))
    index.delete([3, 30, 300])
    assert index.commit().reused_subtrees > 0
    assert made == []
    tree = index.tree
    assert made and index.tree is tree
    assert tree_signature(tree) == tree_signature(index.fresh_like().tree)


def test_worker_columns_round_trip_exactly():
    res = all_knn(uniform_cube(1200, 3, seed=9), 2, engine="frontier", seed=1)
    cols = res._columns
    back = pickle.loads(pickle.dumps(cols))
    assert isinstance(back, TreeColumns)
    for name, a in cols.flat.arrays().items():
        b = back.flat.arrays()[name]
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    for name in ("end", "iota", "punted", "first_leaf", "point_lo", "size"):
        assert np.array_equal(getattr(cols, name), getattr(back, name)), name
    assert cols.events.tobytes() == back.events.tobytes()


def test_phase_fold_adds_events_in_depth_first_order():
    res = all_knn(uniform_cube(2500, 2, seed=2), 1, engine="frontier", seed=3)
    cols = res._columns
    sequential = {}
    for name, cost in cols:
        depth, work = sequential.get(name, (0.0, 0.0))
        sequential[name] = (depth + cost.depth, work + cost.work)
    folded = {name: fold_phase((0.0, 0.0), rows) for name, rows in cols.phase_events()}
    assert list(folded) == list(sequential) == ["divide", "base", "correct"]
    assert folded == sequential
    assert {k: (c.depth, c.work) for k, c in res.machine.sections.items()} == folded
