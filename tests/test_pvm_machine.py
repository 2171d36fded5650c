"""Tests for the machine ledger: parallel blocks, scan policies, counters."""

from __future__ import annotations

import math

import pytest

from repro.pvm.cost import Cost
from repro.pvm.machine import SCAN_POLICIES, Machine


class TestBasicCharging:
    def test_fresh_machine_is_zero(self):
        m = Machine()
        assert m.total == Cost(0, 0)

    def test_sequential_charges_add(self):
        m = Machine()
        m.charge(Cost(1, 10))
        m.charge(Cost(2, 20))
        assert m.total == Cost(3, 30)

    def test_unknown_scan_policy_rejected(self):
        with pytest.raises(ValueError):
            Machine(scan="quantum")


class TestParallelBlocks:
    def test_two_branches_max_depth_sum_work(self):
        m = Machine()
        with m.parallel() as p:
            with p.branch():
                m.charge(Cost(3, 10))
            with p.branch():
                m.charge(Cost(5, 10))
        assert m.total == Cost(5, 20)

    def test_empty_parallel_block_is_free(self):
        m = Machine()
        with m.parallel():
            pass
        assert m.total == Cost(0, 0)

    def test_sequential_within_branch(self):
        m = Machine()
        with m.parallel() as p:
            with p.branch():
                m.charge(Cost(1, 1))
                m.charge(Cost(1, 1))
            with p.branch():
                m.charge(Cost(1, 1))
        assert m.total == Cost(2, 3)

    def test_nested_parallel(self):
        m = Machine()
        with m.parallel() as outer:
            with outer.branch():
                with m.parallel() as inner:
                    with inner.branch():
                        m.charge(Cost(4, 1))
                    with inner.branch():
                        m.charge(Cost(6, 1))
            with outer.branch():
                m.charge(Cost(5, 1))
        assert m.total == Cost(6, 3)

    def test_recursion_shape_matches_manual_computation(self):
        # a perfectly balanced recursion: depth = levels, work = n * levels
        m = Machine()

        def recurse(n: int) -> None:
            if n == 1:
                m.charge(Cost(1, 1))
                return
            m.charge(Cost(1, n))
            with m.parallel() as p:
                with p.branch():
                    recurse(n // 2)
                with p.branch():
                    recurse(n // 2)

        recurse(8)
        # levels: charge 1 depth at sizes 8, 4, 2 then leaf 1 -> depth 4
        assert m.total.depth == 4
        # work: 8 + 2*4 + 4*2 + 8*1 = 32
        assert m.total.work == 32

    def test_branch_after_close_rejected(self):
        m = Machine()
        with m.parallel() as p:
            pass
        with pytest.raises(RuntimeError):
            with p.branch():
                pass

    def test_total_inside_branch_rejected(self):
        m = Machine()
        with m.parallel() as p:
            with p.branch():
                with pytest.raises(RuntimeError):
                    _ = m.total


class TestScanPolicies:
    def test_unit_scan_depth_one(self):
        m = Machine(scan="unit")
        assert m.scan_cost(1024).depth == 1.0
        assert m.scan_cost(1024).work == 1024.0

    def test_log_scan_depth(self):
        m = Machine(scan="log")
        assert m.scan_cost(1024).depth == 10.0

    def test_loglog_scan_depth(self):
        m = Machine(scan="loglog")
        assert m.scan_cost(2**16).depth == math.ceil(math.log2(16))

    def test_scan_of_empty_vector_is_free(self):
        for policy in SCAN_POLICIES:
            assert Machine(scan=policy).scan_cost(0) == Cost(0, 0)

    def test_scan_of_single_element(self):
        for policy in SCAN_POLICIES:
            c = Machine(scan=policy).scan_cost(1)
            assert c.depth >= 1.0 and c.work == 1.0


class TestCostSchedules:
    def test_ewise_cost(self):
        m = Machine()
        assert m.ewise_cost(100, 2.0) == Cost(2, 200)

    def test_ewise_empty(self):
        assert Machine().ewise_cost(0) == Cost(0, 0)

    def test_permute_cost(self):
        assert Machine().permute_cost(64) == Cost(1, 64)

    def test_serial_cost(self):
        assert Machine().serial_cost(5) == Cost(5, 5)

    def test_serial_cost_nonpositive_free(self):
        assert Machine().serial_cost(0) == Cost(0, 0)


class TestCounters:
    def test_bump_counts(self):
        m = Machine()
        m.bump("punts")
        m.bump("punts", 2)
        assert m.counters["punts"] == 3


def _machine_slice(machine: Machine) -> dict:
    prefix = "machine."
    return {
        name[len(prefix):]: value
        for name, value in machine.metrics.counters.items()
        if name.startswith(prefix)
    }


class TestOneCounterStore:
    """``Machine.counters`` reads the metrics registry's ``machine.*``
    counters; no path keeps a second copy that could drift from it."""

    def test_direct_bumps(self):
        m = Machine()
        m.bump("punts")
        m.bump("separator_attempts", 4)
        assert m.counters == _machine_slice(m) == {
            "punts": 1, "separator_attempts": 4,
        }
        # a fresh dict: writing to it cannot fork the store
        m.counters["punts"] = 99
        assert m.counters["punts"] == 1

    def test_frontier_punt_sub_machine(self):
        from repro.core.fast_dnc import FastDnCConfig, parallel_nearest_neighborhood
        from repro.workloads import uniform_cube

        pts = uniform_cube(400, 2, seed=8)
        runs = {
            engine: parallel_nearest_neighborhood(
                pts, 1, seed=31,
                config=FastDnCConfig(engine=engine, iota_factor=1e-9),
            )
            for engine in ("recursive", "frontier")
        }
        fro = runs["frontier"]
        assert fro.machine.metrics.counter("fast.punt_corrections") > 0
        assert fro.machine.counters == _machine_slice(fro.machine)
        assert fro.machine.counters == runs["recursive"].machine.counters

    def test_frontier_mp_two_workers(self):
        from repro.core.fast_dnc import FastDnCConfig, parallel_nearest_neighborhood
        from repro.workloads import uniform_cube

        pts = uniform_cube(1200, 2, seed=22)
        serial = parallel_nearest_neighborhood(
            pts, 2, seed=22, config=FastDnCConfig(engine="frontier")
        )
        mp = parallel_nearest_neighborhood(
            pts, 2, seed=22, config=FastDnCConfig(engine="frontier-mp", workers=2)
        )
        assert mp.machine.metrics.gauge("parallel.subtrees") > 0
        assert mp.machine.counters == _machine_slice(mp.machine)
        assert mp.machine.counters == serial.machine.counters

    def test_online_replay(self):
        import numpy as np

        from repro.core.online import MutableIndex
        from repro.workloads import uniform_cube

        index = MutableIndex(uniform_cube(400, 2, seed=1), k=2, seed=9,
                             churn_threshold=0.2)
        index.insert(np.random.default_rng(5).random((6, 2)))
        info = index.commit()
        assert info.reused_subtrees > 0
        assert index.machine.counters == _machine_slice(index.machine)
        assert index.machine.counters == index.fresh_like().machine.counters


class TestSections:
    def test_costs_attributed_and_still_charged(self):
        m = Machine()
        with m.section("setup"):
            m.charge(Cost(1, 10))
        with m.section("solve"):
            m.charge(Cost(2, 20))
        assert m.sections["setup"] == Cost(1, 10)
        assert m.sections["solve"] == Cost(2, 20)
        assert m.total == Cost(3, 30)

    def test_repeated_sections_accumulate(self):
        m = Machine()
        for _ in range(3):
            with m.section("phase"):
                m.charge(Cost(1, 5))
        assert m.sections["phase"] == Cost(3, 15)

    def test_section_inside_parallel_branch(self):
        m = Machine()
        with m.parallel() as p:
            with p.branch():
                with m.section("left"):
                    m.charge(Cost(4, 1))
            with p.branch():
                m.charge(Cost(2, 1))
        assert m.sections["left"] == Cost(4, 1)
        assert m.total == Cost(4, 2)

    def test_section_survives_exceptions(self):
        m = Machine()
        with pytest.raises(RuntimeError):
            with m.section("risky"):
                m.charge(Cost(1, 1))
                raise RuntimeError("boom")
        assert m.sections["risky"] == Cost(1, 1)
        assert m.total == Cost(1, 1)
