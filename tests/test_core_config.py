"""CommonConfig: shared knobs, engine validation, derived helpers.

This file tests :mod:`repro.core.config` itself — the base dataclass,
the engine gate, and the derived budget helpers the algorithms share.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CommonConfig, ENGINES, FastDnCConfig, QueryConfig, SimpleDnCConfig

ALL_CONFIGS = [FastDnCConfig, SimpleDnCConfig, QueryConfig]


class TestEngineField:
    def test_engines_constant(self):
        assert ENGINES == ("recursive", "frontier", "frontier-mp")

    @pytest.mark.parametrize("cls", ALL_CONFIGS + [CommonConfig])
    def test_default_is_recursive(self, cls):
        assert cls().engine == "recursive"

    @pytest.mark.parametrize("cls", ALL_CONFIGS + [CommonConfig])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_valid_engines_accepted(self, cls, engine):
        assert cls(engine=engine).engine == engine

    @pytest.mark.parametrize("cls", ALL_CONFIGS + [CommonConfig])
    @pytest.mark.parametrize("bad", ["warp", "", "Recursive", "FRONTIER", None])
    def test_invalid_engines_rejected(self, cls, bad):
        with pytest.raises(ValueError, match="engine"):
            cls(engine=bad)

    def test_error_message_lists_choices(self):
        with pytest.raises(ValueError, match="recursive.*frontier"):
            CommonConfig(engine="batched")


class TestRemovedFields:
    @pytest.mark.parametrize("cls", ALL_CONFIGS + [CommonConfig])
    def test_m0_and_kernels_are_unknown(self, cls):
        for field in ("m0", "kernels"):
            with pytest.raises(TypeError, match=field):
                cls(**{field: 8})
        assert not hasattr(cls(), "m0")


class TestSharedHelpers:
    def test_rng_explicit_seed_wins(self):
        cfg = CommonConfig(seed=1)
        a = cfg.rng(99).integers(0, 1 << 30)
        b = np.random.default_rng(99).integers(0, 1 << 30)
        assert a == b

    def test_rng_falls_back_to_config_seed(self):
        cfg = CommonConfig(seed=5)
        assert cfg.rng().integers(0, 1 << 30) == np.random.default_rng(5).integers(0, 1 << 30)

    def test_mu_monotone_in_dimension(self):
        cfg = CommonConfig()
        mus = [cfg.mu(d) for d in (1, 2, 3, 8)]
        assert mus == sorted(mus)
        assert all(m <= 0.98 for m in mus)

    def test_iota_budget_carries_k_factor(self):
        cfg = FastDnCConfig()
        assert cfg.iota_budget(10_000, 2, k=4) == pytest.approx(
            2.0 * cfg.iota_budget(10_000, 2, k=1)
        )
        assert cfg.iota_budget(2, 2) >= 4.0  # floor

    def test_base_size_floor(self):
        cfg = CommonConfig(base_case_size=4)
        assert cfg.base_size(k=10) >= 11
        assert CommonConfig(base_case_size=64).base_size(k=1) == 64
