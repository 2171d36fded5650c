"""Cross-process trace stitching tests.

The contract under test: a traced ``frontier-mp`` run grafts every
worker's span tree under the master's ``parallel.subtree`` spans, with
per-worker pid/tid lanes in the Chrome export — while remaining
bit-identical (neighbors, tree, ledger, sections, counters, merged
metrics) to the serial ``frontier`` engine and to its own untraced run,
for any worker count.
"""

import numpy as np
import pytest

import repro
from repro.obs import Span, Tracer, graft_worker_trace, worker_spans
from repro.obs.stitch import _shift
from repro.pvm import Machine
from repro.workloads import uniform_cube


def _run(engine, workers=None, trace=True, n=500, k=2, seed=13):
    pts = uniform_cube(n, 2, seed=1)
    machine = Machine()
    if trace:
        result, tracer = repro.run_traced(
            pts, k, method="fast", machine=machine, seed=seed,
            engine=engine, workers=workers,
        )
        return result, tracer
    result = repro.all_knn(
        pts, k, method="fast", machine=machine, seed=seed,
        engine=engine, workers=workers,
    )
    return result, None


def _structure(tracer):
    """Span-tree structure modulo wall-clock and process identity:
    (tree level, name, cost, stable attrs) in pre-order.  The ``worker``
    attribute is placement, not structure — the plan decides *where* a
    subtree solves, never what is computed — so it is dropped too."""
    drop = {"pid", "tid", "wall_ms", "worker"}
    rows = []
    for root in tracer.roots:
        for level, span in root.walk():
            attrs = {k: v for k, v in span.attrs.items() if k not in drop}
            rows.append((level, span.name, span.cost.depth, span.cost.work,
                         tuple(sorted(attrs.items(), key=lambda kv: kv[0]))))
    return rows


class TestStitchedStructure:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_count_invariant_structure(self, workers, monkeypatch):
        """With the cut target pinned, workers 1/2/4 produce the same
        stitched span-tree structure except for per-task span placement,
        and identical results/ledgers.  (Without the pin the *default*
        target scales with the worker count — by design — so the master
        solves fewer levels itself at higher worker counts.)"""
        monkeypatch.setenv("REPRO_MP_SUBTREE_TARGET", "6")
        ref, ref_tracer = _run("frontier-mp", workers=1)
        got, got_tracer = _run("frontier-mp", workers=workers)
        assert np.array_equal(ref.system.neighbor_indices,
                              got.system.neighbor_indices)
        assert ref.machine.total == got.machine.total
        assert ref.machine.counters == got.machine.counters
        # with a fixed cut target the *entire* stitched structure —
        # master levels, subtree spans, grafted worker trees — is
        # worker-count invariant modulo placement
        assert _structure(ref_tracer) == _structure(got_tracer)
        assert any(
            r[1] == "parallel.subtree" for r in _structure(ref_tracer)
        )

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_serial_frontier(self, workers):
        serial, serial_tracer = _run("frontier")
        mp, mp_tracer = _run("frontier-mp", workers=workers)
        assert np.array_equal(serial.system.neighbor_indices,
                              mp.system.neighbor_indices)
        assert np.array_equal(serial.system.neighbor_sq_dists,
                              mp.system.neighbor_sq_dists)
        assert serial.machine.total == mp.machine.total
        assert serial.machine.sections == mp.machine.sections
        assert serial.machine.counters == mp.machine.counters
        # merged metrics: counters exactly (modulo the mp engine's own
        # parallel.* bookkeeping); series as multisets
        sm = serial.machine.metrics
        mm = mp.machine.metrics
        mm_counters = {k: v for k, v in mm.counters.items()
                       if not k.startswith("parallel.")}
        assert sm.counters == mm_counters
        for key, values in sm.series.items():
            assert sorted(map(repr, values)) == sorted(map(repr, mm.series[key]))

    def test_traced_equals_untraced(self):
        traced, _ = _run("frontier-mp", workers=2, trace=True)
        untraced, _ = _run("frontier-mp", workers=2, trace=False)
        assert np.array_equal(traced.system.neighbor_indices,
                              untraced.system.neighbor_indices)
        assert traced.machine.total == untraced.machine.total
        assert traced.machine.sections == untraced.machine.sections
        assert traced.machine.counters == untraced.machine.counters


class TestGraftedSpans:
    def test_worker_trees_nest_under_subtree_spans(self):
        # n must be large enough that the frontier reaches the workers=4
        # cut target (12 subtrees) before leafing out
        _, tracer = _run("frontier-mp", workers=4, n=800)
        root = tracer.root
        grafted = []
        for _, span in root.walk():
            if span.name == "parallel.subtree":
                grafted.extend(span.children)
        assert grafted, "no worker trees were grafted"
        for child in grafted:
            assert child.name == "worker.subtree"
            assert int(child.attrs["pid"]) != 0
            assert "worker" in child.attrs
            # the worker's own frontier levels ride inside its subtree span
            names = {s.name for _, s in child.walk()}
            assert "frontier.level" in names
        # worker_spans finds exactly the spans with a foreign pid
        ws = worker_spans(root)
        assert len(ws) == sum(1 for g in grafted for _ in g.walk())

    def test_worker_spans_carry_zero_cost(self):
        """The subtree kernel folds costs analytically — worker spans must
        be zero-cost so stitching can never break check_against."""
        _, tracer = _run("frontier-mp", workers=2)
        for span in worker_spans(tracer.root):
            assert span.cost.depth == 0.0 and span.cost.work == 0.0

    def test_check_against_passes_on_stitched_tree(self):
        result, tracer = _run("frontier-mp", workers=4, n=800)
        tracer.check_against(result.machine.total)  # raises on violation

    def test_grafts_within_task_window(self):
        _, tracer = _run("frontier-mp", workers=2)
        for _, span in tracer.root.walk():
            if span.name != "parallel.subtree":
                continue
            for child in span.children:
                assert child.wall_start >= span.wall_start - 1e-6
                assert child.wall_end <= span.wall_end + 1e-6

    def test_four_distinct_worker_lanes_in_chrome_trace(self):
        """Acceptance: workers=4 renders 4 distinct worker lanes."""
        _, tracer = _run("frontier-mp", workers=4, n=800)
        chrome = tracer.to_chrome_trace()
        meta = [e for e in chrome["traceEvents"] if e["ph"] == "M"]
        labels = {e["args"]["name"] for e in meta}
        assert "master" in labels
        worker_labels = {l for l in labels if l.startswith("worker-")}
        assert len(worker_labels) == 4
        worker_pids = {e["pid"] for e in meta if e["pid"] != 0}
        assert len(worker_pids) == 4
        # every X event on a worker pid matches a declared lane
        xpids = {e["pid"] for e in chrome["traceEvents"] if e["ph"] == "X"}
        assert xpids == {e["pid"] for e in meta}

    def test_chrome_trace_round_trips_pid_tid(self):
        _, tracer = _run("frontier-mp", workers=2)
        chrome = tracer.to_chrome_trace()
        by_pid = {}
        for e in chrome["traceEvents"]:
            if e["ph"] == "X":
                by_pid.setdefault(e["pid"], set()).add(e["tid"])
        span_lanes = {}
        for _, s in tracer.root.walk():
            span_lanes.setdefault(int(s.attrs.get("pid", 0)), set()).add(
                int(s.attrs.get("tid", 0))
            )
        assert by_pid == span_lanes


class TestGraftMechanics:
    def _trace_payload(self, epoch, pid=4242, tid=4243):
        from repro.pvm import Cost

        worker_tracer = Tracer(clock=iter([epoch, epoch + 0.1,
                                           epoch + 0.4]).__next__)
        handle = worker_tracer.start("worker.build", {"level": 0},
                                     Cost(0.0, 0.0))
        worker_tracer.stop(handle, Cost(0.0, 0.0))
        return {
            "spans": [r.to_dict() for r in worker_tracer.roots],
            "epoch": epoch,
            "pid": pid,
            "tid": tid,
        }

    def _shard(self, start=10.0, end=11.0):
        return Span(name="parallel.subtree", attrs={"worker": 0},
                    wall_start=start, wall_end=end)

    def test_epoch_rebasing(self):
        # worker epoch 100.2 vs master epoch 90.0: offset +10.2
        shard = self._shard(10.0, 11.0)
        roots = graft_worker_trace(
            shard, self._trace_payload(100.2), master_epoch=90.0, worker=3
        )
        (root,) = roots
        assert root.attrs["pid"] == 4242 and root.attrs["tid"] == 4243
        assert root.attrs["worker"] == 3
        assert root.wall_start == pytest.approx(10.3)  # 0.1 + 10.2
        assert root.wall_end == pytest.approx(10.6)
        assert shard.children == [root]

    def test_clamp_when_clocks_incomparable(self):
        # a worker epoch light-years away lands outside the shard window
        shard = self._shard(10.0, 11.0)
        (root,) = graft_worker_trace(
            shard, self._trace_payload(1e6), master_epoch=0.0, worker=0
        )
        assert root.wall_start == pytest.approx(shard.wall_start)
        assert root.wall_end - root.wall_start == pytest.approx(0.3)

    def test_shift_is_uniform_over_tree(self):
        child = Span(name="c", wall_start=1.0, wall_end=2.0)
        parent = Span(name="p", wall_start=0.5, wall_end=3.0,
                      children=[child])
        _shift(parent, 2.5)
        assert (parent.wall_start, parent.wall_end) == (3.0, 5.5)
        assert (child.wall_start, child.wall_end) == (3.5, 4.5)
