"""Public API surface: exports resolve, __all__ lists are truthful, and
the ``repro.api`` facade keeps its pinned signature surface."""

from __future__ import annotations

import importlib
import importlib.util
import os

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.pvm",
    "repro.geometry",
    "repro.separators",
    "repro.core",
    "repro.baselines",
    "repro.analysis",
    "repro.workloads",
    "repro.util",
    "repro.obs",
    "repro.api",
]


class TestExports:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_all_entries_resolve(self, name):
        mod = importlib.import_module(name)
        assert hasattr(mod, "__all__"), f"{name} has no __all__"
        for symbol in mod.__all__:
            assert hasattr(mod, symbol), f"{name}.{symbol} listed but missing"

    @pytest.mark.parametrize("name", PACKAGES)
    def test_no_duplicate_all_entries(self, name):
        mod = importlib.import_module(name)
        assert len(mod.__all__) == len(set(mod.__all__))

    def test_version(self):
        assert repro.__version__

    def test_key_symbols_at_expected_paths(self):
        # the documented entry points of README's quickstart
        from repro.core import knn_graph_edges, parallel_nearest_neighborhood  # noqa: F401
        from repro.pvm import Machine, brent_time  # noqa: F401
        from repro.separators import mttv_separator  # noqa: F401
        from repro.baselines import brute_force_knn  # noqa: F401

    def test_facade_reexported_at_package_root(self):
        import repro.api as api

        for name in (
            "all_knn", "build_index", "knn_query", "run_traced",
            "KNNResult", "Index", "CommitInfo",
        ):
            assert getattr(repro, name) is getattr(api, name)

    @pytest.mark.parametrize("name", PACKAGES)
    def test_module_docstrings_present(self, name):
        mod = importlib.import_module(name)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 20


class TestDocstringCoverage:
    @pytest.mark.parametrize("name", PACKAGES[1:])
    def test_public_callables_documented(self, name):
        mod = importlib.import_module(name)
        undocumented = []
        for symbol in mod.__all__:
            obj = getattr(mod, symbol)
            if callable(obj) and not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(symbol)
        assert not undocumented, f"{name}: missing docstrings on {undocumented}"


class TestFacadeSurface:
    """The facade's call surface, pinned in code (see also the snapshot lint)."""

    def test_all_knn_signature(self):
        import inspect

        sig = inspect.signature(repro.all_knn)
        assert list(sig.parameters) == [
            "points", "k", "method", "config", "machine", "seed", "engine",
            "workers", "dtype",
        ]
        assert sig.parameters["method"].kind is inspect.Parameter.KEYWORD_ONLY
        assert sig.parameters["method"].default == "fast"
        assert sig.parameters["engine"].kind is inspect.Parameter.KEYWORD_ONLY
        assert sig.parameters["engine"].default is None
        assert sig.parameters["workers"].kind is inspect.Parameter.KEYWORD_ONLY
        assert sig.parameters["workers"].default is None
        assert sig.parameters["dtype"].kind is inspect.Parameter.KEYWORD_ONLY
        assert sig.parameters["dtype"].default is None

    def test_methods_tuple(self):
        from repro.api import METHODS

        assert METHODS == ("fast", "simple", "query", "brute")

    def test_engines_tuple(self):
        from repro.api import ENGINES

        assert ENGINES == ("recursive", "frontier", "frontier-mp")
        assert repro.ENGINES is ENGINES

    def test_unknown_engine_rejected(self):
        from repro.workloads import uniform_cube

        with pytest.raises(ValueError, match="engine"):
            repro.all_knn(uniform_cube(32, 2, 0), 1, engine="warp")

    def test_result_and_index_attributes(self):
        from repro.workloads import uniform_cube

        pts = uniform_cube(64, 2, 1)
        res = repro.all_knn(pts, 2, seed=0)
        assert res.indices.shape == (64, 2)
        assert res.sq_dists.shape == (64, 2)
        assert res.cost.work > 0
        assert res.edges().shape[1] == 2
        index = repro.build_index(pts, 2, seed=0)
        idx, sq = index.query(pts[:5])
        assert idx.shape == (5, 2) and sq.shape == (5, 2)


class TestAPIStabilityLint:
    """scripts/check_api_stability.py agrees with docs/api_surface.txt."""

    @pytest.fixture()
    def lint(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        path = os.path.join(root, "scripts", "check_api_stability.py")
        spec = importlib.util.spec_from_file_location("check_api_stability", path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod

    def test_surface_snapshot_is_current(self, lint):
        diff = lint.check()
        assert not diff, (
            "repro.api drifted from docs/api_surface.txt:\n" + "\n".join(diff)
            + "\nIf intentional: PYTHONPATH=src python scripts/check_api_stability.py --update"
        )


class TestConfigBase:
    """The algorithm configs share one base dataclass."""

    def test_configs_share_common_base(self):
        from repro.core import CommonConfig, FastDnCConfig, QueryConfig, SimpleDnCConfig

        for cls in (FastDnCConfig, SimpleDnCConfig, QueryConfig):
            assert issubclass(cls, CommonConfig)
            cfg = cls(seed=3)
            assert cfg.rng().integers(0, 10) == cls(seed=3).rng().integers(0, 10)
