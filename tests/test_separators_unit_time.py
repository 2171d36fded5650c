"""The Unit Time Separator Algorithm and its retry loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.pvm.machine import Machine
from repro.separators.quality import is_good_point_split, default_delta
from repro.separators.unit_time import SeparatorFailure, UnitTimeSeparator, find_good_separator
from repro.workloads import clustered, uniform_cube


class TestUnitTimeSeparator:
    def test_attempt_charges_constant_depth(self, points2d):
        m = Machine()
        unit = UnitTimeSeparator(points2d, seed=0)
        unit.attempt(m)
        d1 = m.total.depth
        unit.attempt(m)
        assert m.total.depth == pytest.approx(2 * d1)
        assert m.counters["separator_attempts"] == 2

    def test_attempt_work_linear_in_n(self):
        costs = {}
        for n in (500, 2000):
            m = Machine()
            UnitTimeSeparator(uniform_cube(n, 2, 3), seed=1).attempt(m)
            costs[n] = m.total
        assert costs[2000].work == pytest.approx(4 * costs[500].work, rel=0.1)
        assert costs[2000].depth == costs[500].depth

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            UnitTimeSeparator(np.zeros((1, 2)))

    def test_refresh_reseeds_sampler(self, points2d):
        unit = UnitTimeSeparator(points2d, seed=2)
        before = unit._sampler
        unit.refresh()
        assert unit._sampler is not before


class TestFindGoodSeparator:
    @pytest.mark.parametrize("d", [2, 3])
    def test_returns_good_split(self, d):
        pts = uniform_cube(1000, d, 5)
        m = Machine()
        sep, attempts = find_good_separator(pts, m, seed=6)
        assert attempts >= 1
        assert is_good_point_split(sep, pts, default_delta(d, 0.05))

    def test_attempts_usually_small(self):
        """Success probability is constant, so attempts are geometric."""
        attempt_counts = []
        for seed in range(20):
            pts = uniform_cube(600, 2, 100 + seed)
            m = Machine()
            _, attempts = find_good_separator(pts, m, seed=seed)
            attempt_counts.append(attempts)
        assert np.median(attempt_counts) <= 3

    def test_clustered_inputs(self):
        pts = clustered(800, 2, 8)
        m = Machine()
        sep, _ = find_good_separator(pts, m, seed=9)
        assert is_good_point_split(sep, pts, default_delta(2, 0.05))

    def test_identical_points_fail(self):
        pts = np.ones((100, 2))
        with pytest.raises(SeparatorFailure):
            find_good_separator(pts, Machine(), seed=0, max_attempts=8)

    def test_depth_proportional_to_attempts(self):
        pts = uniform_cube(500, 2, 10)
        m = Machine()
        _, attempts = find_good_separator(pts, m, seed=11)
        # each attempt charges the same constant depth
        m2 = Machine()
        UnitTimeSeparator(pts, seed=12).attempt(m2)
        per_attempt = m2.total.depth
        assert m.total.depth == pytest.approx(attempts * per_attempt)

    def test_custom_delta_respected(self):
        pts = uniform_cube(800, 2, 13)
        m = Machine()
        sep, _ = find_good_separator(pts, m, seed=14, delta=0.7)
        assert is_good_point_split(sep, pts, 0.7)

    def test_counter_bumped(self):
        pts = uniform_cube(300, 2, 15)
        m = Machine()
        find_good_separator(pts, m, seed=16)
        assert m.counters.get("separator_attempts", 0) >= 1

    def test_two_points(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        m = Machine()
        sep, _ = find_good_separator(pts, m, seed=17, delta=0.5)
        side = sep.side_of_points(pts)
        assert set(side.tolist()) == {-1, 1}
