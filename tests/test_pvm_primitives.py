"""Primitive vector operations: numpy-reference semantics + cost charges."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.pvm import primitives as P
from repro.pvm.cost import Cost
from repro.pvm.machine import Machine

float_vectors = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=200),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
int_vectors = hnp.arrays(
    dtype=np.int64,
    shape=st.integers(min_value=1, max_value=200),
    elements=st.integers(min_value=-1000, max_value=1000),
)


class TestScan:
    @given(float_vectors)
    def test_exclusive_add_scan_matches_cumsum(self, x):
        m = Machine()
        out = P.scan(m, x)
        expected = np.concatenate(([0.0], np.cumsum(x)[:-1]))
        np.testing.assert_allclose(out, expected)

    @given(float_vectors)
    def test_inclusive_add_scan_matches_cumsum(self, x):
        out = P.scan(Machine(), x, inclusive=True)
        np.testing.assert_allclose(out, np.cumsum(x))

    @given(int_vectors)
    def test_max_scan(self, x):
        out = P.scan(Machine(), x, op="max", inclusive=True)
        np.testing.assert_array_equal(out, np.maximum.accumulate(x))

    @given(int_vectors)
    def test_min_scan_exclusive_identity(self, x):
        out = P.scan(Machine(), x, op="min")
        assert out[0] == np.iinfo(np.int64).max

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            P.scan(Machine(), np.arange(4), op="xor")

    def test_scan_charges_scan_cost(self):
        m = Machine(scan="log")
        P.scan(m, np.arange(1024, dtype=float))
        assert m.total == Cost(10, 1024)


class TestSegmentedScan:
    def test_restarts_at_boundaries(self):
        x = np.array([1.0, 2, 3, 4, 5, 6])
        seg = np.array([0, 0, 1, 1, 1, 2])
        out = P.segmented_scan(Machine(), x, seg, inclusive=True)
        np.testing.assert_allclose(out, [1, 3, 3, 7, 12, 6])

    def test_exclusive_variant(self):
        x = np.array([1.0, 2, 3, 4])
        seg = np.array([0, 0, 1, 1])
        out = P.segmented_scan(Machine(), x, seg)
        np.testing.assert_allclose(out, [0, 1, 0, 3])

    def test_single_segment_equals_plain_scan(self):
        x = np.arange(10, dtype=float)
        seg = np.zeros(10, dtype=int)
        np.testing.assert_allclose(
            P.segmented_scan(Machine(), x, seg, inclusive=True), np.cumsum(x)
        )

    def test_decreasing_ids_rejected(self):
        with pytest.raises(ValueError):
            P.segmented_scan(Machine(), np.ones(3), np.array([1, 0, 0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            P.segmented_scan(Machine(), np.ones(3), np.zeros(4, dtype=int))

    @given(st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=10))
    def test_matches_per_segment_cumsum(self, seg_sizes):
        rng = np.random.default_rng(0)
        x = rng.random(sum(seg_sizes))
        seg = np.repeat(np.arange(len(seg_sizes)), seg_sizes)
        out = P.segmented_scan(Machine(), x, seg, inclusive=True)
        expected = np.concatenate(
            [np.cumsum(chunk) for chunk in np.split(x, np.cumsum(seg_sizes)[:-1])]
        )
        np.testing.assert_allclose(out, expected)


class TestReduce:
    @given(float_vectors)
    def test_add_reduce(self, x):
        assert P.reduce(Machine(), x) == pytest.approx(x.sum(), rel=1e-9, abs=1e-9)

    @given(float_vectors)
    def test_max_reduce(self, x):
        assert P.reduce(Machine(), x, op="max") == x.max()

    def test_empty_add_reduce_is_zero(self):
        assert P.reduce(Machine(), np.empty(0)) == 0

    def test_empty_max_reduce_rejected(self):
        with pytest.raises(ValueError):
            P.reduce(Machine(), np.empty(0), op="max")

    def test_segmented_reduce(self):
        x = np.array([1.0, 2, 3, 4, 5])
        seg = np.array([0, 0, 3, 3, 7])
        np.testing.assert_allclose(P.segmented_reduce(Machine(), x, seg), [3, 7, 5])


class TestPackSplit:
    @given(float_vectors)
    def test_pack_matches_boolean_indexing(self, x):
        mask = x > 0
        np.testing.assert_array_equal(P.pack(Machine(), x, mask), x[mask])

    @given(float_vectors)
    def test_split_partitions_stably(self, x):
        flags = x > 0
        lo, hi = P.split(Machine(), x, flags)
        np.testing.assert_array_equal(lo, x[~flags])
        np.testing.assert_array_equal(hi, x[flags])
        assert lo.shape[0] + hi.shape[0] == x.shape[0]

    def test_pack_charges_scan_plus_permute(self):
        m = Machine()
        P.pack(m, np.arange(100), np.arange(100) % 2 == 0)
        assert m.total == Cost(2, 200)

    def test_enumerate_mask(self):
        mask = np.array([True, False, True, True])
        np.testing.assert_array_equal(P.enumerate_mask(Machine(), mask), [0, 2, 3])


class TestDataMovement:
    @given(st.integers(min_value=1, max_value=100))
    def test_permute_scatter_inverse_of_gather(self, n):
        rng = np.random.default_rng(n)
        x = rng.random(n)
        perm = rng.permutation(n)
        sent = P.permute(Machine(), x, perm)
        back = P.gather(Machine(), sent, perm)
        np.testing.assert_array_equal(back, x)

    def test_gather_semantics(self):
        x = np.array([10.0, 20, 30])
        np.testing.assert_array_equal(P.gather(Machine(), x, np.array([2, 0, 2])), [30, 10, 30])

    def test_scatter_in_place(self):
        target = np.zeros(4)
        P.scatter(Machine(), target, np.array([1, 3]), np.array([5.0, 7.0]))
        np.testing.assert_array_equal(target, [0, 5, 0, 7])

    def test_distribute(self):
        m = Machine()
        out = P.distribute(m, 3.5, 7)
        np.testing.assert_array_equal(out, np.full(7, 3.5))
        assert m.total == Cost(1, 7)

    def test_pairwise_min_index(self):
        assert P.pairwise_min_index(Machine(), np.array([3.0, 1.0, 2.0])) == 1

    def test_pairwise_min_index_empty_rejected(self):
        with pytest.raises(ValueError):
            P.pairwise_min_index(Machine(), np.empty(0))


class TestEwise:
    def test_passes_output_through_and_charges(self):
        m = Machine()
        out = P.ewise(m, np.arange(10), steps=3.0)
        assert out.shape == (10,)
        assert m.total == Cost(3, 30)
