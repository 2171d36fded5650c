"""Recursive vs frontier engine: identical runs from identical seeds.

The frontier engine (:mod:`repro.core.frontier`) re-executes the divide
and conquer level-synchronously with batched numpy passes, but its
contract is *indistinguishability*: byte-identical neighbor arrays, an
identical partition tree, an exactly equal (depth, work) ledger, equal
event counters and equal per-phase sections — on every workload,
including the punt paths.  These tests are the tier-1 guarantee of that
contract.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from conftest import assert_same_run, run_dnc
from repro.core import ENGINES
from repro.core.fast_dnc import FastDnCConfig
from repro.core.simple_dnc import SimpleDnCConfig
from repro.workloads import clustered, collinear, uniform_cube, with_duplicates


def _assert_identical_runs(method: str, points, k: int, seed: int, **cfg):
    rec = run_dnc(method, points, k, seed, engine="recursive", **cfg)
    fro = run_dnc(method, points, k, seed, engine="frontier", **cfg)
    assert_same_run(rec, fro)
    assert fro.tree.check_partition()
    return rec, fro


def _level_active_multiset(res):
    return sorted((m, tuple(a)) for m, a in res.stats.marching_level_active)


def _correction_outcomes_by_level(tree, config, d, k):
    """Level -> the correction outcomes of that level's internal nodes,
    read back from each node's ``iota``/``punted`` meta."""
    levels = {}
    stack = [(tree, 0)]
    while stack:
        node, level = stack.pop()
        if node.is_leaf:
            continue
        iota, punted = node.meta["iota"], node.meta["punted"]
        if iota == 0:
            kind = "none"
        elif not punted:
            kind = "fast"
        elif iota >= config.iota_budget(node.size, d, k):
            kind = "iota_punt"
        else:
            kind = "march_punt"
        levels.setdefault(level, set()).add(kind)
        stack += [(node.left, level + 1), (node.right, level + 1)]
    return levels


def integer_grid(n: int, d: int) -> np.ndarray:
    """The first ``n`` points of the integer lattice, row-major: every
    point has many neighbors at exactly the same distance."""
    side = int(np.ceil(n ** (1.0 / d)))
    axes = np.meshgrid(*[np.arange(side, dtype=np.float64)] * d, indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, d)[:n]


# The stacked separator arithmetic makes one BLAS call per vector, whose
# result depends on the vector length: every d from 1 to 4 is covered.
WORKLOADS = [
    ("uniform1d", lambda: uniform_cube(500, 1, seed=6)),
    ("uniform2d", lambda: uniform_cube(500, 2, seed=1)),
    ("uniform3d", lambda: uniform_cube(400, 3, seed=2)),
    ("uniform4d", lambda: uniform_cube(400, 4, seed=7)),
    ("integer_grid", lambda: integer_grid(450, 2)),
    ("duplicates", lambda: with_duplicates(uniform_cube(300, 2, seed=3), 0.5, seed=3)),
    # 3 points repeated 120 times each: searches over one repeated point
    # refresh their samplers every 16 attempts, then fail
    ("stacked_duplicates", lambda: np.concatenate(
        [np.repeat(uniform_cube(3, 2, seed=14), 120, axis=0), uniform_cube(200, 2, seed=15)]
    )),
    ("clustered", lambda: clustered(400, 2, seed=4)),
    ("collinear", lambda: collinear(260, 2, seed=5)),
]


class TestEngineEquivalence:
    @pytest.mark.parametrize("method", ["fast", "simple"])
    @pytest.mark.parametrize("name,make", WORKLOADS, ids=[w[0] for w in WORKLOADS])
    def test_identical_runs(self, method, name, make):
        _assert_identical_runs(method, make(), 2, seed=13)

    @pytest.mark.parametrize("name,make", WORKLOADS, ids=[w[0] for w in WORKLOADS])
    def test_simple_sections_match_on_every_engine(self, name, make):
        """``simple``'s phases read the same on all three engines: the
        frontier engines attribute to ``divide`` only the median-cut
        attempts, as the recursive reference's section does."""
        pts = make()
        rec = run_dnc("simple", pts, 1, 13, engine="recursive")
        for engine, workers in (("frontier", None), ("frontier-mp", 2)):
            got = run_dnc("simple", pts, 1, 13, engine=engine, workers=workers)
            assert_same_run(rec, got)

    @pytest.mark.parametrize("k", [1, 3])
    def test_identical_runs_over_k(self, k):
        _assert_identical_runs("fast", uniform_cube(400, 2, seed=7), k, seed=29)

    def test_identical_under_forced_iota_punts(self):
        rec, _ = _assert_identical_runs(
            "fast", uniform_cube(400, 2, seed=8), 1, seed=31, iota_factor=1e-9
        )
        assert rec.stats.punts_iota > 0

    def test_identical_under_forced_marching_punts(self):
        rec, _ = _assert_identical_runs(
            "fast", uniform_cube(400, 2, seed=9), 1, seed=37, active_factor=1e-9
        )
        assert rec.stats.punts_marching > 0

    def test_identical_with_mixed_correction_outcomes(self):
        """Fast corrections, failed marches and iota punts side by side
        within one level."""
        cfg = dict(iota_factor=0.8, active_factor=0.3)
        rec, fro = _assert_identical_runs(
            "fast", uniform_cube(3000, 2, seed=42), 2, seed=42, **cfg
        )
        assert _level_active_multiset(rec) == _level_active_multiset(fro)
        outcomes = _correction_outcomes_by_level(fro.tree, FastDnCConfig(**cfg), 2, 2)
        assert any(
            {"fast", "march_punt", "iota_punt"} <= kinds for kinds in outcomes.values()
        )

    def test_identical_stats_multisets(self):
        """Series observed in different orders must still agree as multisets."""
        pts = uniform_cube(500, 2, seed=10)
        rec = run_dnc("fast", pts, 2, 41, engine="recursive")
        fro = run_dnc("fast", pts, 2, 41, engine="frontier")
        assert sorted(rec.stats.straddler_fraction) == sorted(fro.stats.straddler_fraction)
        assert sorted(map(tuple, ((m, tuple(a)) for m, a in rec.stats.marching_level_active))) == \
            sorted(map(tuple, ((m, tuple(a)) for m, a in fro.stats.marching_level_active)))
        assert rec.stats.punts == fro.stats.punts

    def test_single_point_and_tiny_inputs(self):
        # n=1 keeps the (-1, inf) sentinel; all sizes agree across engines
        for n in (1, 2, 5):
            pts = uniform_cube(max(n, 2), 2, seed=n)[:n]
            rec, _ = _assert_identical_runs("fast", pts, 1, seed=3)
            if n == 1:
                assert rec.system.neighbor_indices[0, 0] == -1


class TestEngineAPI:
    def test_engines_tuple(self):
        assert ENGINES == ("recursive", "frontier", "frontier-mp")

    def test_config_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="engine"):
            FastDnCConfig(engine="warp")
        with pytest.raises(ValueError, match="engine"):
            SimpleDnCConfig(engine="")

    def test_api_engine_kwarg_equivalence(self):
        pts = uniform_cube(300, 2, seed=11)
        rec = repro.all_knn(pts, 2, method="fast", seed=43, engine="recursive")
        fro = repro.all_knn(pts, 2, method="fast", seed=43, engine="frontier")
        np.testing.assert_array_equal(rec.indices, fro.indices)
        np.testing.assert_array_equal(rec.sq_dists, fro.sq_dists)
        assert rec.cost.depth == fro.cost.depth
        assert rec.cost.work == fro.cost.work

    def test_api_engine_overrides_config(self):
        pts = uniform_cube(200, 2, seed=12)
        cfg = FastDnCConfig(engine="recursive")
        res = repro.all_knn(pts, 1, method="fast", config=cfg, seed=5, engine="frontier")
        ref = repro.all_knn(pts, 1, method="fast", seed=5, engine="frontier")
        np.testing.assert_array_equal(res.indices, ref.indices)


class TestFrontierObservability:
    def test_frontier_level_spans(self):
        pts = uniform_cube(400, 2, seed=14)
        _, tracer = repro.run_traced(pts, 1, method="fast", seed=47, engine="frontier")
        spans = [s for _, s in tracer.root.walk()]
        level_spans = [s for s in spans if s.name == "frontier.level"]
        assert level_spans, "frontier runs must emit frontier.level spans"
        phases = {s.attrs.get("phase") for s in level_spans}
        assert phases >= {"build", "correct"}
        for s in level_spans:
            assert "level" in s.attrs and "segments" in s.attrs
            assert s.attrs["segments"] >= 1
        correct = [s for s in level_spans if s.attrs.get("phase") == "correct"]
        assert all("straddlers" in s.attrs for s in correct)
        # per-node spans are a recursive-engine concept
        assert not any(s.name == "fast.node" for s in spans)

    def test_recursive_node_spans_unchanged(self):
        pts = uniform_cube(300, 2, seed=15)
        _, tracer = repro.run_traced(pts, 1, method="fast", seed=53, engine="recursive")
        spans = [s for _, s in tracer.root.walk()]
        assert any(s.name == "fast.node" for s in spans)
        assert not any(s.name == "frontier.level" for s in spans)

    def test_sections_present_in_both_engines(self):
        """Phase attribution (divide/base/correct) exists for both engines."""
        pts = uniform_cube(400, 2, seed=16)
        for engine in ENGINES:
            res = run_dnc("fast", pts, 1, 59, engine=engine)
            assert {"divide", "base", "correct"} <= set(res.machine.sections)
