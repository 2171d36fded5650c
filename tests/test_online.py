"""Online index updates: absorb-vs-rebuild equivalence and the Index facade.

The central guarantee under test: after ANY committed mutation batch, a
:class:`repro.core.online.MutableIndex` is *bit-identical* — neighbor
arrays, partition tree, (depth, work) ledger, machine counters and the
full metrics registry — to a from-scratch build of the resulting point
set with the same parameters (``equivalence_report`` returns no
mismatches).  The sweep covers churn fractions both sides of the punt
threshold, duplicate points, delete edge cases, multi-commit chains and
copy-on-write snapshot isolation.
"""

import numpy as np
import pytest

import repro
from repro.baselines import brute_force_knn
from repro.pvm.cost import Cost
from repro.core.online import (
    CommitInfo,
    MutableIndex,
    equivalence_report,
    online_sample_size,
    tree_signature,
)
from repro.workloads import uniform_cube


def _assert_equivalent(index: MutableIndex) -> None:
    mismatches = equivalence_report(index, index.fresh_like())
    assert mismatches == [], "\n".join(mismatches)


class TestAbsorbEquivalence:
    @pytest.mark.parametrize("n_ins,n_del", [(6, 0), (0, 6), (5, 5), (16, 8)])
    def test_single_commit_bit_identical(self, n_ins, n_del):
        pts = uniform_cube(400, 2, seed=1)
        index = MutableIndex(pts, k=2, seed=9, churn_threshold=0.2)
        rng = np.random.default_rng(5)
        if n_ins:
            index.insert(rng.random((n_ins, 2)))
        if n_del:
            index.delete(rng.choice(400, size=n_del, replace=False))
        info = index.commit()
        assert not info.punted and not info.noop
        assert info.version == index.version == 1
        assert index.n == 400 + n_ins - n_del
        _assert_equivalent(index)

    @pytest.mark.parametrize("churn_batch", [4, 12, 40, 120])
    def test_churn_sweep_bit_identical(self, churn_batch):
        """Both absorb (low churn) and punt (high churn) paths are exact."""
        pts = uniform_cube(300, 2, seed=2)
        index = MutableIndex(pts, k=1, seed=3, churn_threshold=0.1)
        rng = np.random.default_rng(churn_batch)
        half = churn_batch // 2
        index.insert(rng.random((churn_batch - half, 2)))
        index.delete(rng.choice(300, size=half, replace=False))
        info = index.commit()
        assert info.punted == (info.churn > 0.1)
        _assert_equivalent(index)

    def test_multi_commit_chain(self):
        pts = uniform_cube(350, 2, seed=4)
        index = MutableIndex(pts, k=2, seed=11, churn_threshold=0.5)
        rng = np.random.default_rng(17)
        for round_ in range(3):
            index.insert(rng.random((4, 2)))
            index.delete(rng.choice(index.n, size=3, replace=False))
            info = index.commit()
            assert info.version == round_ + 1
            _assert_equivalent(index)

    def test_answers_stay_exact_after_commit(self):
        pts = uniform_cube(300, 3, seed=6)
        index = MutableIndex(pts, k=3, seed=7, churn_threshold=0.5)
        rng = np.random.default_rng(23)
        index.insert(rng.random((10, 3)))
        index.delete(rng.choice(300, size=10, replace=False))
        index.commit()
        ref = brute_force_knn(index.points, 3)
        np.testing.assert_array_equal(index.neighbor_indices, ref.neighbor_indices)
        np.testing.assert_array_equal(index.neighbor_sq_dists, ref.neighbor_sq_dists)

    def test_engine_agreement_after_commit(self):
        """The committed point set's answers agree with every offline engine."""
        pts = uniform_cube(260, 2, seed=8)
        index = MutableIndex(pts, k=2, seed=13, churn_threshold=0.5)
        rng = np.random.default_rng(29)
        index.insert(rng.random((8, 2)))
        index.delete(rng.choice(260, size=8, replace=False))
        index.commit()
        for engine, workers in (("recursive", None), ("frontier", None),
                                ("frontier-mp", 2)):
            res = repro.all_knn(index.points, 2, seed=99, engine=engine,
                                workers=workers)
            np.testing.assert_array_equal(res.indices, index.neighbor_indices)
            np.testing.assert_array_equal(res.sq_dists, index.neighbor_sq_dists)


class TestDuplicatesAndEdgeCases:
    def test_duplicate_point_inserts(self):
        pts = uniform_cube(200, 2, seed=10)
        index = MutableIndex(pts, k=2, seed=5, churn_threshold=0.5)
        dup = np.vstack([pts[3], pts[3], pts[50]])  # duplicates of live points
        index.insert(dup)
        info = index.commit()
        assert not info.noop
        _assert_equivalent(index)

    def test_negative_zero_folds(self):
        pts = uniform_cube(150, 2, seed=11)
        pts[0] = (0.0, 0.5)
        index = MutableIndex(pts, k=1, seed=2, churn_threshold=0.5)
        index.insert(np.array([[-0.0, 0.5]]))  # bit-different, same point
        index.commit()
        _assert_equivalent(index)

    def test_delete_validation(self):
        pts = uniform_cube(100, 2, seed=12)
        index = MutableIndex(pts, k=1, seed=1)
        with pytest.raises(ValueError, match="delete ids"):
            index.delete([100])
        with pytest.raises(ValueError, match="delete ids"):
            index.delete([-1])
        with pytest.raises(ValueError, match="duplicate"):
            index.delete([4, 4])
        index.delete([4])
        with pytest.raises(ValueError, match="pending"):
            index.delete([4])

    def test_insert_validation(self):
        pts = uniform_cube(100, 2, seed=13)
        index = MutableIndex(pts, k=1, seed=1)
        with pytest.raises(ValueError, match="dimension"):
            index.insert(np.zeros((2, 3)))

    def test_commit_cannot_empty_index(self):
        pts = uniform_cube(50, 2, seed=14)
        index = MutableIndex(pts, k=2, seed=1, churn_threshold=1.0)
        index.delete(np.arange(49))
        with pytest.raises(ValueError, match="n=1 <= k=2"):
            index.commit()

    def test_noop_commit(self):
        pts = uniform_cube(80, 2, seed=15)
        index = MutableIndex(pts, k=1, seed=1)
        before = tree_signature(index.tree)
        info = index.commit()
        assert info.noop and info.version == 0 and index.version == 0
        assert tree_signature(index.tree) == before

    def test_discard_pending(self):
        pts = uniform_cube(80, 2, seed=16)
        index = MutableIndex(pts, k=1, seed=1)
        index.insert(np.random.default_rng(0).random((3, 2)))
        index.delete([5])
        assert index.pending == (3, 1)
        index.discard_pending()
        assert index.pending == (0, 0)
        assert index.commit().noop


class TestPuntBoundary:
    def test_exactly_at_threshold_absorbs(self):
        # churn == threshold is NOT a punt (the punt condition is strict)
        pts = uniform_cube(200, 2, seed=17)
        index = MutableIndex(pts, k=1, seed=1, churn_threshold=0.05)
        index.insert(np.random.default_rng(1).random((10, 2)))  # churn = 10/200
        info = index.commit()
        assert info.churn == pytest.approx(0.05)
        assert not info.punted
        _assert_equivalent(index)

    def test_just_above_threshold_punts(self):
        pts = uniform_cube(200, 2, seed=18)
        index = MutableIndex(pts, k=1, seed=1, churn_threshold=0.05)
        index.insert(np.random.default_rng(2).random((11, 2)))  # churn = 11/200
        info = index.commit()
        assert info.churn > 0.05
        assert info.punted
        _assert_equivalent(index)

    def test_zero_threshold_always_punts(self):
        pts = uniform_cube(150, 2, seed=19)
        index = MutableIndex(pts, k=1, seed=1, churn_threshold=0.0)
        index.insert(np.random.default_rng(3).random((1, 2)))
        assert index.commit().punted
        _assert_equivalent(index)


class TestCopyOnWrite:
    def test_snapshot_survives_later_commits(self):
        pts = uniform_cube(220, 2, seed=20)
        index = MutableIndex(pts, k=2, seed=21, churn_threshold=0.5)
        snap0 = index.snapshot()
        pts0 = snap0.points.copy()
        idx0, sq0 = snap0.execute("knn", pts[:9], 2)
        rng = np.random.default_rng(31)
        for _ in range(2):
            index.insert(rng.random((5, 2)))
            index.delete(rng.choice(index.n, size=5, replace=False))
            index.commit()
        # the old snapshot is untouched: same arrays, same answers
        np.testing.assert_array_equal(snap0.points, pts0)
        idx0b, sq0b = snap0.execute("knn", pts[:9], 2)
        np.testing.assert_array_equal(idx0, idx0b)
        np.testing.assert_array_equal(sq0, sq0b)
        assert snap0.version == 0 and index.version == 2

    def test_snapshot_carries_version(self):
        pts = uniform_cube(120, 2, seed=22)
        index = MutableIndex(pts, k=1, seed=1, churn_threshold=1.0)
        assert index.snapshot().version == 0
        index.insert(np.random.default_rng(0).random((2, 2)))
        index.commit()
        assert index.snapshot().version == 1


class TestUpdateObservability:
    def test_update_stats_accumulate(self):
        pts = uniform_cube(200, 2, seed=23)
        index = MutableIndex(pts, k=1, seed=1, churn_threshold=0.04)
        rng = np.random.default_rng(7)
        index.insert(rng.random((4, 2)))
        index.commit()  # absorb (churn 2%)
        index.insert(rng.random((30, 2)))
        index.commit()  # punt (churn ~15%)
        stats = index.update_stats
        assert stats.commits == 2
        assert stats.absorbed == 1
        assert stats.punts == 1
        assert stats.inserted == 34
        assert stats.version == 2
        assert len(index.update_metrics.samples("update.commits_log")) == 2

    def test_commit_spans_when_tracing(self):
        pts = uniform_cube(200, 2, seed=24)
        index = MutableIndex(pts, k=1, seed=1, churn_threshold=0.04,
                             trace_commits=True)
        rng = np.random.default_rng(8)
        index.insert(rng.random((4, 2)))
        index.commit()
        names = [s.name for _, s in index.machine.tracer.root.walk()]
        assert "update.absorb" in names
        index.insert(rng.random((30, 2)))
        index.commit()
        names = [s.name for _, s in index.machine.tracer.root.walk()]
        assert "update.rebuild" in names

    def test_equivalence_report_names_a_perturbed_section(self):
        index = MutableIndex(uniform_cube(300, 2, seed=35), k=2, seed=3)
        index.insert(np.random.default_rng(4).random((5, 2)))
        index.commit()
        reference = index.fresh_like()
        assert equivalence_report(index, reference) == []
        assert set(index.machine.sections) == {"base", "divide", "correct"}
        cost = index.machine.sections["correct"]
        index.machine.sections["correct"] = Cost(cost.depth, cost.work + 1.0)
        problems = equivalence_report(index, reference)
        assert len(problems) == 1 and "'correct'" in problems[0]
        index.machine.sections["correct"] = cost
        del index.machine.sections["base"]
        problems = equivalence_report(index, reference)
        assert len(problems) == 1 and "'base'" in problems[0]

    def test_sections_fold_in_depth_first_order(self, monkeypatch):
        """Phase events reach the machine in the recursive engine's order:
        a node's ``divide``, its left and right subtrees, its ``correct``
        (a leaf: ``base``, after ``divide`` when its search failed).  The
        order fixes the float association of every phase total, which an
        absorb-vs-fresh comparison cannot see (both fold alike)."""
        import repro.core.online as online

        seen = []
        fold = online._OnlineFrontier._fold_sections

        def spy(self, events):
            seen.append([name for name, _ in events])
            return fold(self, events)

        monkeypatch.setattr(online._OnlineFrontier, "_fold_sections", spy)
        index = MutableIndex(uniform_cube(600, 2, seed=36), k=2, seed=4)

        def expected(node):
            if node.is_leaf:
                return (["divide"] if node.size > index._base else []) + ["base"]
            return ["divide"] + expected(node.left) + expected(node.right) + ["correct"]

        assert seen == [expected(index.tree)]
        index.insert(np.random.default_rng(6).random((3, 2)))
        index.delete([7, 70])
        assert index.commit().reused_subtrees > 0
        assert seen[-1] == expected(index.tree)

    def test_commit_ledger_matches_fresh_build(self):
        """index.machine.total after a commit IS the from-scratch ledger."""
        pts = uniform_cube(250, 2, seed=25)
        index = MutableIndex(pts, k=2, seed=41, churn_threshold=0.5)
        index.insert(np.random.default_rng(9).random((6, 2)))
        index.commit()
        fresh = index.fresh_like()
        assert index.cost.depth == fresh.cost.depth
        assert index.cost.work == fresh.cost.work

    def test_reuse_is_effective_at_low_churn(self):
        pts = uniform_cube(4000, 2, seed=26)
        index = MutableIndex(pts, k=1, seed=51)
        index.insert(np.random.default_rng(10).random((2, 2)))
        index.delete([17, 1234])
        info = index.commit()
        assert not info.punted
        assert info.reused_fraction > 0.5, (
            f"absorb reused only {info.reused_fraction:.1%} of points"
        )


class TestOnlineProfile:
    def test_online_sample_size(self):
        assert online_sample_size(2) == 16
        assert online_sample_size(3) == 25
        assert online_sample_size(1) == 9

    def test_commit_info_fields(self):
        info = CommitInfo(version=3, n=100, inserted=2, deleted=1,
                          churn=0.03, punted=False, reused_points=80)
        assert info.absorbed
        assert info.reused_fraction == pytest.approx(0.8)


class TestIndexFacade:
    def test_build_index_returns_versioned_handle(self):
        pts = uniform_cube(150, 2, seed=27)
        index = repro.build_index(pts, 2, seed=3)
        assert isinstance(index, repro.Index)
        assert index.version == 0 and index.pending == 0
        idx, sq = index.query(pts[:4])
        assert idx.shape == (4, 2)
        index.insert(np.random.default_rng(1).random((3, 2)))
        index.delete([0])
        assert index.pending == 4
        info = index.commit()
        assert isinstance(info, CommitInfo)
        assert index.version == 1 and index.pending == 0
        assert index.snapshot().version == 1

    def test_facade_commit_is_exact(self):
        pts = uniform_cube(200, 2, seed=28)
        index = repro.build_index(pts, 2, seed=5)
        index.insert(np.random.default_rng(2).random((4, 2)))
        index.commit()
        _assert_equivalent(index.mutable)

    def test_covering_invalidated_by_commit(self):
        pts = uniform_cube(150, 2, seed=29)
        index = repro.build_index(pts, 2, seed=7)
        probe = pts[11]
        cov0 = index.covering(probe)
        index.delete([int(cov0[0])] if cov0.size else [11])
        index.commit()
        cov1 = index.covering(probe)  # rebuilt over the new version
        ref = repro.build_index(index.points, 2, seed=7).covering(probe)
        np.testing.assert_array_equal(np.sort(cov1), np.sort(ref))

    @pytest.mark.parametrize("rows", [1, 64])
    def test_query_matches_knn_query(self, rows):
        pts = uniform_cube(500, 2, seed=30)
        index = repro.build_index(pts, 2, seed=11)
        qs = uniform_cube(rows, 2, seed=31)
        idx, sq = index.query(qs)
        ref_idx, ref_sq = repro.knn_query(index.mutable.layout, index.points, qs, 2)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(sq, ref_sq)

    def test_query_rejects_bad_queries(self):
        index = repro.build_index(uniform_cube(50, 2, seed=32), 2, seed=12)
        with pytest.raises(ValueError, match="non-finite"):
            index.query(np.array([[0.5, np.nan]]))
        with pytest.raises(ValueError, match="dimension mismatch"):
            index.query(np.zeros((1, 3)))
        with pytest.raises(ValueError, match="1 <= k <= n"):
            index.query(np.zeros((1, 2)), k=51)

    def test_query_does_not_recheck_the_data(self, monkeypatch):
        import repro.core.query_points as query_points

        index = repro.build_index(uniform_cube(300, 2, seed=33), 2, seed=13)
        qs = uniform_cube(8, 2, seed=34)
        seen = []
        real = query_points.as_points

        def spy(arr, *args, **kwargs):
            seen.append(arr)
            return real(arr, *args, **kwargs)

        monkeypatch.setattr(query_points, "as_points", spy)
        index.query(qs)
        assert seen and not any(a is index.points for a in seen)
        # the public knn_query still validates the data array it is given
        repro.knn_query(index.mutable.layout, index.points, qs, 2)
        assert any(a is index.points for a in seen)
