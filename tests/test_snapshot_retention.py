"""What a served version holds: arrays only, never the pointer tree.

A snapshot taken after a commit with deletions must reach no
:class:`~repro.core.partition_tree.PartitionNode` and no replay record,
so a caller holding several versions pins a few MB each, and the
superseded version's tree is freed as soon as the next commit replaces
it.  The serving pool ships the same arrays through shared memory.
"""

from __future__ import annotations

import gc
import pickle
import types
import weakref

import numpy as np

from repro.core.online import MutableIndex, _NodeRecord
from repro.core.partition_tree import PartitionNode
from repro.kernels.layout import FlatTree
from repro.net import NetConfig, Tenant
from repro.serve import ServingPool
from repro.workloads import uniform_cube

_OPAQUE = (
    type,
    types.ModuleType,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.CodeType,
)


def reachable(root):
    """Every object reachable from ``root``, not following classes,
    modules or functions (whose globals reach everything)."""
    seen = {id(root): root}
    stack = [root]
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if isinstance(ref, _OPAQUE) or id(ref) in seen:
                continue
            seen[id(ref)] = ref
            stack.append(ref)
    return seen.values()


def pinned_tree_objects(snapshot):
    return [o for o in reachable(snapshot) if isinstance(o, (PartitionNode, _NodeRecord))]


def delete_commit(index, rng, n_ins=6, n_del=6):
    index.insert(rng.random((n_ins, index.d)))
    index.delete(rng.choice(index.n, n_del, replace=False))
    return index.commit()


class TestRetainedSnapshots:
    def test_registry_pins_no_tree_and_superseded_trees_die(self):
        rng = np.random.default_rng(5)
        index = MutableIndex(uniform_cube(1500, 2, seed=6), k=2, seed=7)
        snapshots = [index.snapshot()]
        for _ in range(6):
            old_tree = weakref.ref(index.tree)
            info = delete_commit(index, rng)
            assert info.deleted and not info.punted
            snapshots.append(index.snapshot())
            gc.collect()
            assert old_tree() is None, "a superseded version's tree survived"
        assert [snap.version for snap in snapshots] == list(range(7))
        for snap in snapshots:
            assert isinstance(snap.layout, FlatTree)
            assert pinned_tree_objects(snap) == []

    def test_the_walk_finds_a_pinned_tree(self):
        # the detector itself: an object holding the tree is flagged
        index = MutableIndex(uniform_cube(300, 2, seed=8), k=1, seed=9)
        holder = types.SimpleNamespace(snap=index.snapshot(), tree=index.tree)
        assert pinned_tree_objects(holder)
        assert pinned_tree_objects(holder.snap) == []

    def test_snapshot_arrays_are_shared_not_copied(self):
        index = MutableIndex(uniform_cube(400, 2, seed=10), k=2, seed=11)
        snap = index.snapshot()
        assert snap.points is index.points
        assert snap.layout is index.layout
        assert snap.system.neighbor_indices is index.neighbor_indices


class TestTenantRetention:
    def test_delete_commit_frees_the_superseded_snapshot(self):
        rng = np.random.default_rng(18)
        index = MutableIndex(uniform_cube(1500, 2, seed=19), k=2, seed=20)
        tenant = Tenant("default", index, config=NetConfig())
        try:
            old = weakref.ref(tenant.batcher.index)
            deletes = rng.choice(index.n, 6, replace=False).tolist()
            info, _ = tenant.mutate(rng.random((6, 2)), deletes, commit=True)
            assert info.deleted and not info.punted
            gc.collect()
            assert old() is None, "the tenant kept a superseded snapshot alive"
            assert tenant.batcher.index.version == 1
            assert pinned_tree_objects(tenant.batcher.index) == []
        finally:
            tenant.close()


class TestPoolPayload:
    def test_swap_payload_carries_specs_not_trees(self):
        rng = np.random.default_rng(12)
        index = MutableIndex(uniform_cube(2000, 2, seed=13), k=2, seed=14)
        delete_commit(index, rng)
        payload, arenas = index.snapshot().shm_snapshot()
        try:
            assert "tree" not in payload
            assert set(payload["layout_specs"]) == set(index.layout.arrays())
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            assert len(blob) < 4096  # specs and scalars only
        finally:
            for arena in arenas:
                arena.destroy()

    def test_pool_swap_after_delete_commit_is_bit_identical(self):
        rng = np.random.default_rng(15)
        index = MutableIndex(uniform_cube(1200, 2, seed=16), k=2, seed=17)
        qs = rng.random((400, 2))
        with ServingPool(index.snapshot(), workers=2, min_shard=32) as pool:
            for _ in range(2):
                delete_commit(index, rng)
                snap = index.snapshot()
                pool.swap(snap)
                got = pool.execute("knn", qs)
                ref = snap.execute("knn", qs)
                np.testing.assert_array_equal(got[0], ref[0])
                np.testing.assert_array_equal(got[1], ref[1])
