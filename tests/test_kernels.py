"""The kernel layer itself: registry semantics, reference-op unit tests,
the FlatTree descent layout, and the micro-bench plumbing.

Cross-backend and cross-engine equivalence lives in
``test_kernels_equivalence.py``; this file pins the pieces the
equivalence matrix is built from.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.cli import main
from repro.core.fast_dnc import FastDnCConfig, parallel_nearest_neighborhood
from repro.geometry.points import kth_smallest_per_row, pairwise_sq_dists_direct
from repro.geometry.spheres import Sphere
from repro.kernels import registry
from repro.kernels.bench import bench_backends, format_table, run_kernel_bench
from repro.kernels.layout import FlatTree
from repro.kernels.reference import TABLE
from repro.pvm.machine import Machine
from repro.pvm.primitives import segmented_split
from repro.workloads import uniform_cube


@pytest.fixture(autouse=True)
def _restore_backend():
    """Every test leaves the process-global backend as it found it."""
    before = registry._ACTIVE
    yield
    registry._ACTIVE = before


class TestRegistry:
    def test_backends_enumerated(self):
        assert registry.KERNEL_BACKENDS == ("numpy", "numba")
        for name, spec in registry.KERNEL_REGISTRY.items():
            assert spec.name == name and spec.summary

    def test_resolve_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            registry.resolve_backend("cuda")

    def test_resolve_auto_without_numba_is_numpy(self, monkeypatch):
        monkeypatch.delenv(registry.KERNELS_ENV_VAR, raising=False)
        monkeypatch.setattr(registry, "_NUMBA_OK", False)
        assert registry.resolve_backend(None) == "numpy"
        assert registry.resolve_backend("auto") == "numpy"

    def test_env_var_overrides_auto(self, monkeypatch):
        monkeypatch.setenv(registry.KERNELS_ENV_VAR, "numpy")
        assert registry.resolve_backend("auto") == "numpy"

    def test_explicit_numba_without_numba_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setattr(registry, "_NUMBA_OK", False)
        monkeypatch.setattr(registry, "_WARNED_FALLBACK", False)
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert registry.resolve_backend("numba") == "numpy"
        # the warning fires once per process, not once per call
        assert registry.resolve_backend("numba") == "numpy"

    def test_use_backend_restores_previous(self):
        before = registry.active_backend()
        with registry.use_backend("numpy") as installed:
            assert installed == "numpy"
            assert registry.active_backend() == "numpy"
        assert registry.active_backend() == before

    def test_kernel_table_ops_complete(self):
        table = registry.kernel_table("numpy")
        assert set(table) == set(TABLE)

    def test_set_backend_returns_resolved_name(self):
        assert registry.set_backend("numpy") == "numpy"


class TestReferenceOps:
    """Each reference op must equal the code it was transplanted from."""

    def test_sphere_side_matches_sphere_class(self):
        rng = np.random.default_rng(0)
        pts = rng.random((200, 3))
        sphere = Sphere(center=np.full(3, 0.5), radius=0.3)
        got = TABLE["sphere_side"](pts, sphere.center, sphere.radius)
        np.testing.assert_array_equal(got, sphere.side_of_points(pts))
        assert got.dtype == np.int8

    def test_segmented_split_sides_matches_primitive(self):
        rng = np.random.default_rng(1)
        n = 500
        flat_ids = rng.permutation(n).astype(np.int64)
        seg_ids = np.sort(rng.integers(0, 7, size=n)).astype(np.int64)
        sides = np.where(rng.random(n) < 0.4, -1, 1).astype(np.int8)
        out, counts = TABLE["segmented_split_sides"](flat_ids, sides, seg_ids)
        ref_out, ref_counts = segmented_split(None, flat_ids, sides > 0, seg_ids)
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(counts, ref_counts)

    def test_block_topk_matches_direct_computation(self):
        rng = np.random.default_rng(2)
        sub = rng.random((40, 2))
        kk = 5
        idx, sq = TABLE["block_topk"](sub, kk)
        dists = pairwise_sq_dists_direct(sub, sub)
        np.fill_diagonal(dists, np.inf)
        ref_idx, ref_sq = kth_smallest_per_row(dists, kk)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(sq, ref_sq)

    def test_brute_topk_self_excluded_and_sorted(self):
        rng = np.random.default_rng(3)
        pts = rng.random((64, 2))
        idx, sq = TABLE["brute_topk"](pts, 3, 32)
        assert idx.shape == (64, 3)
        for i in range(64):
            assert i not in idx[i]
        assert np.all(np.diff(sq, axis=1) >= 0)

    def test_merge_candidate_stream_dedupes_keep_min(self):
        rows = np.array([0, 0, 0, 1], dtype=np.int64)
        idx = np.array([5, 5, 7, -1], dtype=np.int64)
        sq = np.array([2.0, 1.0, 3.0, 0.0])
        out_idx, out_sq = TABLE["merge_candidate_stream"](rows, idx, sq, 2, 2)
        np.testing.assert_array_equal(out_idx, [[5, 7], [-1, -1]])
        np.testing.assert_array_equal(out_sq, [[1.0, 3.0], [np.inf, np.inf]])

    def test_descend_spheres_single_node(self):
        pts = np.array([[0.1, 0.1], [0.9, 0.9]])
        centers = np.array([[0.5, 0.5]])
        radii = np.array([0.56569])  # inside/outside split at the diagonal
        left = np.array([-1], dtype=np.int64)
        right = np.array([-1], dtype=np.int64)
        leaf_ord = np.array([0], dtype=np.int64)
        out = TABLE["descend_spheres"](pts, centers, radii, left, right, leaf_ord)
        np.testing.assert_array_equal(out, [0, 0])


class TestFlatTree:
    def _build(self, n=800, k=2, seed=11, d=2):
        pts = uniform_cube(n, d, seed=seed)
        res = parallel_nearest_neighborhood(
            pts, k, seed=seed, config=FastDnCConfig()
        )
        return pts, res

    def test_leaf_groups_match_pointer_walk(self):
        pts, res = self._build()
        flat = FlatTree.from_tree(res.tree)
        assert flat is not None
        qs = uniform_cube(300, 2, seed=99)
        # the pointer walk, one row at a time, grouped by leaf left to right
        by_leaf = {}
        for r in range(qs.shape[0]):
            by_leaf.setdefault(id(res.tree.leaf_of_point(qs[r])), []).append(r)
        walked = [
            (leaf.indices, np.asarray(by_leaf[id(leaf)]))
            for leaf in res.tree.leaves()
            if id(leaf) in by_leaf
        ]
        grouped = list(flat.leaf_groups(qs))
        assert len(walked) == len(grouped)
        for (ids_a, rows_a), (ids_b, rows_b) in zip(walked, grouped):
            np.testing.assert_array_equal(ids_a, ids_b)
            np.testing.assert_array_equal(rows_a, rows_b)

    def test_from_tree_covers_all_leaves(self):
        _, res = self._build(n=500)
        flat = FlatTree.from_tree(res.tree)
        got = np.sort(flat.leaf_ids)
        np.testing.assert_array_equal(got, np.arange(500))

    def test_single_leaf_tree(self):
        pts = uniform_cube(20, 2, seed=0)
        res = parallel_nearest_neighborhood(
            pts, 1, seed=0, config=FastDnCConfig(base_case_size=64)
        )
        flat = FlatTree.from_tree(res.tree)
        assert flat is not None
        ids, rows = next(iter(flat.leaf_groups(pts)))
        np.testing.assert_array_equal(np.sort(ids), np.arange(20))
        np.testing.assert_array_equal(rows, np.arange(20))

    def test_hyperplane_tree_flattens(self):
        from repro.core.simple_dnc import SimpleDnCConfig, simple_parallel_dnc

        pts = uniform_cube(300, 2, seed=3)
        res = simple_parallel_dnc(pts, 1, seed=3, config=SimpleDnCConfig())
        if res.tree.is_leaf:  # pragma: no cover - degenerate workload
            pytest.skip("tree degenerated to one leaf")
        flat = FlatTree.from_tree(res.tree)
        planes = [i for i, node in enumerate(res.tree.nodes())
                  if not node.is_leaf and not isinstance(node.separator, Sphere)]
        assert planes and flat.planes.tolist() == planes
        # every row still reaches the leaf the pointer walk reaches
        leaves = list(res.tree.leaves())
        qs = uniform_cube(200, 2, seed=4)
        ords = flat.descend(qs)
        for r in range(qs.shape[0]):
            assert leaves[ords[r]] is res.tree.leaf_of_point(qs[r])


class TestBench:
    def test_bench_rows_cover_all_ops(self):
        rows = bench_backends(n=2000, d=2, k=4, repeats=1, backends=["numpy"])
        ops = {row["op"] for row in rows}
        assert "sphere_side" in ops and "merge_candidate_stream" in ops
        for row in rows:
            assert row["backend"] == "numpy"
            assert row["seconds"] >= 0 and row["ns_per_element"] >= 0

    def test_bench_observes_metrics_and_spans(self):
        machine = Machine()
        machine.enable_tracing()
        run_kernel_bench(
            n=1000, d=2, k=2, repeats=1, backends=["numpy"],
            machine=machine, include_descend=False,
        )
        series = machine.metrics.to_dict()["series"]
        assert "kernels.bench.ns_per_element" in series

    def test_format_table_has_header(self):
        rows = bench_backends(n=1000, d=2, k=2, repeats=1, backends=["numpy"])
        table = format_table(rows)
        assert "ns/elem" in table and "sphere_side" in table


class TestBenchCLI:
    def test_bench_kernels_runs(self, capsys):
        rc = main(["bench", "kernels", "-n", "2000", "--repeats", "1",
                   "--no-descend", "--backends", "numpy"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "kernel micro-bench" in out
        assert "sphere_side" in out

    def test_bench_writes_sinks(self, tmp_path, capsys):
        js = tmp_path / "rows.json"
        metrics = tmp_path / "metrics.prom"
        events = tmp_path / "events.jsonl"
        rc = main(["bench", "kernels", "-n", "1000", "--repeats", "1",
                   "--no-descend", "--backends", "numpy",
                   "--json-out", str(js), "--metrics-out", str(metrics),
                   "--events-out", str(events)])
        assert rc == 0
        import json

        rows = json.loads(js.read_text())
        assert rows and all("ns_per_element" in r for r in rows)
        assert "kernels_bench_ns_per_element" in metrics.read_text().replace(
            ".", "_"
        )
        assert events.read_text().strip()

    def test_kernels_flag_accepted_by_knn(self, capsys):
        rc = main(["knn", "-n", "300", "-k", "1", "--kernels", "numpy",
                   "--check"])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_dtype_flag_accepted_by_knn(self, capsys):
        rc = main(["knn", "-n", "300", "-k", "1", "--dtype", "float32",
                   "--check"])
        assert rc == 0
        assert "OK" in capsys.readouterr().out


class TestDispatchers:
    def test_package_dispatcher_routes_to_active_table(self):
        rng = np.random.default_rng(4)
        pts = rng.random((100, 2))
        center = np.full(2, 0.5)
        with kernels.use_backend("numpy"):
            got = kernels.sphere_side(pts, center, 0.25)
        np.testing.assert_array_equal(
            got, TABLE["sphere_side"](pts, center, 0.25)
        )

    def test_lazy_flattree_export(self):
        assert kernels.FlatTree is FlatTree
        with pytest.raises(AttributeError):
            kernels.does_not_exist
