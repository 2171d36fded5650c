"""Multi-index tenancy: named serving stacks, mutate/swap, metric merging."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.online import MutableIndex
from repro.net import DEFAULT_TENANT, NetConfig, Tenant, TenantManager
from repro.obs.metrics import Metrics
from repro.workloads import uniform_cube


def _mutable(n=200, d=2, k=1, seed=0):
    return MutableIndex(uniform_cube(n, d, seed=seed), k, seed=seed + 1,
                        churn_threshold=0.5)


class TestTenant:
    def test_initial_state_and_describe(self):
        tenant = Tenant("default", _mutable(), config=NetConfig())
        try:
            assert tenant.version == 0 and tenant.d == 2 and tenant.k == 1
            desc = tenant.describe()
            assert desc["name"] == "default" and desc["n"] == 200
            assert desc["version"] == 0 and "versions_retained" not in desc
            assert desc["pending_mutations"] == 0
        finally:
            tenant.close()

    def test_mutate_commit_publishes_and_swaps(self):
        tenant = Tenant("default", _mutable(), config=NetConfig())
        try:
            rng = np.random.default_rng(5)
            info, flushed = tenant.mutate(rng.random((3, 2)), [0, 1],
                                          commit=True)
            assert info is not None and info.version == 1
            assert tenant.version == 1 and tenant.batcher.index.version == 1
            assert flushed == 0  # nothing was queued
        finally:
            tenant.close()

    def test_mutate_without_commit_only_buffers(self):
        tenant = Tenant("default", _mutable(), config=NetConfig())
        try:
            info, flushed = tenant.mutate(np.random.default_rng(6).random((2, 2)))
            assert info is None and flushed == 0
            assert tenant.version == 0
            assert tenant.describe()["pending_mutations"] == 2
        finally:
            tenant.close()

    def test_noop_commit_does_not_swap(self):
        tenant = Tenant("default", _mutable(), config=NetConfig())
        try:
            info, flushed = tenant.mutate(commit=True)
            assert info is not None and info.noop
            assert tenant.version == 0 and tenant.batcher.stats.swaps == 0
        finally:
            tenant.close()

    def test_swap_flushes_queued_requests_against_old_version(self):
        tenant = Tenant("default", _mutable(), config=NetConfig())
        try:
            old = tenant.batcher.index
            probes = uniform_cube(5, 2, seed=9)
            tickets = [tenant.batcher.submit(row) for row in probes]
            _, flushed = tenant.mutate(
                np.random.default_rng(7).random((2, 2)), commit=True)
            assert flushed == 5
            want_idx, want_sq = old.execute("knn", probes, 1)
            for i, t in enumerate(tickets):
                assert t.done
                np.testing.assert_array_equal(t.value[0], want_idx[i])
                np.testing.assert_array_equal(t.value[1], want_sq[i])
        finally:
            tenant.close()

    def test_execute_direct_matches_dedicated_batcher(self):
        tenant = Tenant("default", _mutable(k=2), config=NetConfig())
        try:
            probes = uniform_cube(6, 2, seed=11)
            got = tenant.execute_direct("knn", probes, 4)  # k override
            want_idx, want_sq = tenant.batcher.index.execute("knn", probes, 4)
            for i, (idx, sq) in enumerate(got):
                np.testing.assert_array_equal(idx, want_idx[i])
                np.testing.assert_array_equal(sq, want_sq[i])
        finally:
            tenant.close()

    def test_closed_tenant_rejects_mutations(self):
        tenant = Tenant("default", _mutable(), config=NetConfig())
        tenant.close()
        tenant.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            tenant.mutate(commit=True)


class TestTenantManager:
    def test_add_get_and_default(self):
        mgr = TenantManager(config=NetConfig())
        try:
            mgr.add(DEFAULT_TENANT, _mutable(seed=1))
            mgr.add("staging", _mutable(seed=2))
            assert len(mgr) == 2 and "staging" in mgr
            assert mgr.names() == ["default", "staging"]
            assert mgr.get() is mgr.get(DEFAULT_TENANT)
            assert mgr.get("staging").name == "staging"
        finally:
            mgr.close_all()

    def test_duplicate_and_invalid_names_rejected(self):
        mgr = TenantManager(config=NetConfig())
        try:
            mgr.add("a", _mutable(seed=3))
            with pytest.raises(ValueError, match="already exists"):
                mgr.add("a", _mutable(seed=4))
            with pytest.raises(ValueError, match="invalid"):
                mgr.add("", _mutable(seed=5))
            with pytest.raises(ValueError, match="invalid"):
                mgr.add("a/b", _mutable(seed=6))
        finally:
            mgr.close_all()

    def test_unknown_tenant_raises_keyerror_listing_names(self):
        mgr = TenantManager(config=NetConfig())
        try:
            mgr.add(DEFAULT_TENANT, _mutable(seed=7))
            with pytest.raises(KeyError, match="unknown index 'nope'"):
                mgr.get("nope")
        finally:
            mgr.close_all()

    def test_collect_metrics_prefixes_non_default_tenants(self):
        mgr = TenantManager(config=NetConfig())
        try:
            mgr.add(DEFAULT_TENANT, _mutable(seed=8))
            mgr.add("b", _mutable(seed=9))
            for name in (None, "b"):
                tenant = mgr.get(name)
                tenant.batcher.submit(np.array([0.5, 0.5]))
                tenant.batcher.flush()
            server_metrics = Metrics()
            server_metrics.inc("net.requests", 2)
            merged = mgr.collect_metrics(server_metrics)
            # net.* as-is, default tenant unprefixed, others prefixed
            assert merged.counters["net.requests"] == 2
            assert merged.counters["serve.served"] == 1
            assert merged.counters["tenant.b.serve.served"] == 1
        finally:
            mgr.close_all()
