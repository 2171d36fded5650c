"""Commit chains drawn by hypothesis: every absorbed version is a fresh build.

An absorb reuses a node's separator when the commit leaves its
rendezvous sample alone and every attempt keeps its outcome, and falls
back to a search otherwise.  The chains here aim at both sides of that
line: re-inserted points, deletes of the root's sample members, inserts
whose salted key enters the root's sample, copies of the sample's
boundary point, and floods of the root's inner side that leave its
sample alone but fail its separator, on inputs with and without
duplicate clusters.  After
every commit the index must equal a from-scratch build bit for bit, and
over the drawn chains both paths must run.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import online
from repro.core.online import MutableIndex, equivalence_report, online_sample_size
from repro.geometry.spheres import Sphere

#: per commit: (random inserts, random deletes, re-inserts, sample
#: deletes, sample-entering inserts, boundary copies, a flood); the last
#: four are rare, so most commits leave the root's sample alone
rare = st.sampled_from([0, 0, 0, 1])
mutations = st.tuples(
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(0, 2),
    rare,
    rare,
    st.sampled_from([0, 0, 0, 0, 1, 2]),
    st.sampled_from([False] * 5 + [True]),
)


@st.composite
def chains(draw):
    n = draw(st.integers(200, 2000))
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    pts = rng.random((n, d))
    if draw(st.booleans()):  # duplicate clusters
        sources = rng.integers(0, n, size=3)
        for src in sources:
            rows = rng.integers(0, n, size=n // 20)
            pts[rows] = pts[src]
    commits = draw(st.lists(mutations, min_size=1, max_size=3))
    return pts, k, seed, commits


def _round0_keys(index: MutableIndex, pts: np.ndarray) -> np.ndarray:
    keys = online._point_keys(pts, index._salt)
    return online._round_keys(keys, index._salt, 0)


def _root_sample(index: MutableIndex) -> np.ndarray:
    """The ids of the root's first-round rendezvous sample."""
    keys = _round0_keys(index, index.points)
    size = min(online_sample_size(index.d), index.n)
    return np.argsort(keys, kind="stable")[:size]


def _flood(index: MutableIndex, rng: np.random.Generator, sample: np.ndarray):
    """Inserts inside the root's separator and deletes outside it, none of
    them in the root's sample, 0.6 and 0.4 of the index's size: the
    sample stays, but the accepted candidate now fails the split test.
    Returns ``(inserts, delete ids)``."""
    sep = index.tree.separator
    if not isinstance(sep, Sphere):
        return np.empty((0, index.d)), []
    bound = _round0_keys(index, index.points[sample]).max()
    # within the cube of half-width r/2 about the center: inside for d <= 3
    pool = sep.center + sep.radius * (rng.random((2 * index.n, index.d)) - 0.5)
    inserts = pool[_round0_keys(index, pool) > bound][: 6 * index.n // 10]
    outside = np.flatnonzero(sep.side_of_points(index.points) > 0)
    outside = np.setdiff1d(outside, sample)
    return inserts, outside[: 4 * index.n // 10].tolist()


def _apply(index: MutableIndex, rng: np.random.Generator, plan) -> None:
    n_ins, n_del, n_again, n_sample_del, n_enter, n_tie, flood = plan
    sample = _root_sample(index)
    if flood:  # alone: it already holds as many mutations as the index has points
        inserts, doomed = _flood(index, rng, sample)
        if inserts.shape[0]:
            index.insert(inserts)
        index.delete(doomed)
        return
    inserts = [rng.random((n_ins, index.d))]
    doomed = set(sample[:n_sample_del].tolist())
    n_del = min(n_del, index.n - index.k - 2)
    doomed.update(rng.choice(index.n, size=n_del, replace=False).tolist())
    if n_again:  # points the index already holds
        inserts.append(index.points[rng.integers(0, index.n, size=n_again)])
    if n_enter:  # fresh points whose key is below the sample's largest
        bound = _round0_keys(index, index.points[sample]).max()
        pool = rng.random((4096, index.d))
        entering = pool[_round0_keys(index, pool) < bound]
        inserts.append(entering[:n_enter])
    if n_tie:  # copies of the sample's boundary point
        keys = _round0_keys(index, index.points[sample])
        inserts.append(np.repeat(index.points[sample[np.argmax(keys)]][None, :], n_tie, axis=0))
    inserts = np.concatenate(inserts)
    if inserts.shape[0]:
        index.insert(inserts)
    # keep more than k points alive whatever the plan asks
    doomed = sorted(doomed)[: max(0, index.n + inserts.shape[0] - index.k - 2)]
    if doomed:
        index.delete(doomed)


def test_commit_chains_equal_fresh_builds():
    paths = {"reused": 0, "searched": 0}

    @settings(
        max_examples=100,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(chains())
    def check(chain):
        pts, k, seed, commits = chain
        index = MutableIndex(pts, k=k, seed=seed, churn_threshold=1.0)
        rng = np.random.default_rng(seed + 1)
        for plan in commits:
            _apply(index, rng, plan)
            info = index.commit()
            assert not info.punted
            problems = equivalence_report(index, index.fresh_like())
            assert problems == [], "\n".join(problems)
        paths["reused"] += index.update_stats.separators_reused
        paths["searched"] += index.update_stats.separators_searched

    check()
    assert paths["reused"] > 0, "no commit reused a separator"
    assert paths["searched"] > 0, "no commit fell back to a search"
