#!/usr/bin/env python3
"""Differential oracle: one seeded matrix of runs, fingerprinted, in two trees.

Usage::

    python scripts/differential.py --against REV      # this checkout vs REV
    python scripts/differential.py --fingerprint OUT.json

``--against`` extracts revision ``REV`` of this repository into a
temporary directory (``git archive``: the same files as a worktree, and
nothing left in ``.git`` if the run is killed), runs the matrix once
with that tree's ``src`` and once with this checkout's, each in its own
process, and prints every run whose fingerprint differs.  It exits 0
when there are no mismatches and 1 otherwise.  ``--fingerprint`` runs
the matrix in this process and writes the fingerprints as JSON; it
imports the ``repro`` that ``PYTHONPATH`` names, else this checkout's.

The matrix (:func:`matrix`):

- ``MutableIndex`` builds and commit chains: insert-only, delete-only,
  mixed (d = 1 and 3), punted (churn above the threshold), a larger
  index, duplicates, and the regression gate's punty budgets; one
  fingerprint per version;
- ``method="fast"`` on the ``recursive``, ``frontier`` and
  ``frontier-mp`` (1 and 2 workers) engines over uniform inputs in d = 1
  to 4 with k up to 8, duplicates, heavy duplicates, an integer grid,
  float32 storage and the punty budgets at k = 1 and 2;
- ``method="simple"`` on the same engines over three of those inputs.

A fingerprint (:func:`fingerprint`) holds the neighbor arrays, the
partition tree (``tree_signature`` plus each node's plain meta values),
the served :class:`~repro.kernels.FlatTree` arrays (an online version's
``layout``, an engine run's flattened tree), the (depth, work) ledger,
the phase sections, the machine counters and the metrics registry's
counters, gauges and non-empty series, all but its wall-clock keys and
its transport sizes.  An online version's fingerprint adds the
``ServingIndex.execute`` answers of its snapshot on a fixed 64-row query
batch.  Floats are compared by ``repr``, so equal means bit-equal.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Any, Callable, Dict, Iterator, List, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Metric keys that hold wall-clock readings, which differ run to run,
#: and the ``frontier-mp`` transport sizes (``parallel.*_bytes``), which
#: measure the wire format rather than the run.
_WALL_CLOCK = ("seconds", "utilization", "_ms", "_bytes")

#: Rows of the query batch each online version's snapshot answers.
_QUERIES = 64

_PUNTY = {"iota_factor": 0.8, "active_factor": 0.3}


def _digest(*parts: Any) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if hasattr(part, "tobytes") else repr(part).encode())
    return h.hexdigest()[:16]


def _timeless(mapping: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in sorted(mapping.items()) if not any(w in k for w in _WALL_CLOCK)}


def fingerprint(nbr_idx, nbr_sq, tree, machine, layout=None, answers=None) -> Dict[str, Any]:
    """One run's fingerprint: JSON-ready, equal exactly when the run's
    neighbors, tree, served arrays, ledger, sections, counters, metrics
    and (given) served answers are."""
    from repro.core.online import tree_signature
    from repro.kernels.layout import FlatTree

    meta = [
        sorted((k, repr(v)) for k, v in node.meta.items() if isinstance(v, (bool, int, float, str)))
        for node in tree.nodes()
    ]
    if layout is None:
        layout = FlatTree.from_tree(tree)
    metrics = machine.metrics
    out = {
        "neighbors": _digest(nbr_idx, nbr_sq),
        "tree": _digest(tree_signature(tree), meta),
        "layout": {
            name: _digest(a.dtype.str, a.shape, a) for name, a in sorted(layout.arrays().items())
        },
        "ledger": [repr(machine.total.depth), repr(machine.total.work)],
        "sections": {
            name: [repr(c.depth), repr(c.work)] for name, c in sorted(machine.sections.items())
        },
        "counters": dict(sorted(machine.counters.items())),
        "metric_counters": _timeless(metrics.counters),
        "gauges": {k: repr(v) for k, v in _timeless(metrics.gauges).items()},
        "series": {k: _digest(v) for k, v in _timeless(metrics.series).items() if v},
    }
    if answers is not None:
        out["answers"] = _digest(*answers)
    return out


def diff(before: Dict[str, Dict[str, Any]], after: Dict[str, Dict[str, Any]]) -> List[str]:
    """Every difference between two fingerprint sets, one line each:
    runs present on one side only, then each differing field of a run."""
    lines = [f"{key}: only in the first tree" for key in sorted(set(before) - set(after))]
    lines += [f"{key}: only in the second tree" for key in sorted(set(after) - set(before))]
    for key in sorted(set(before) & set(after)):
        a, b = before[key], after[key]
        for field in sorted(set(a) | set(b)):
            if a.get(field) != b.get(field):
                lines.append(f"{key}: {field} differs: {a.get(field)} vs {b.get(field)}")
    return lines


def _points(n: int, d: int, seed: int, duplicates: float = 0.0, grid: bool = False):
    """Uniform points, the first ``duplicates`` share of them copies of
    the first; with ``grid``, snapped to a 16-step integer lattice."""
    from repro.workloads import uniform_cube

    pts = uniform_cube(n, d, seed)
    if grid:
        pts = (pts * 16).round()
    pts[: int(duplicates * n)] = pts[0]
    return pts


def _online_chains() -> Iterator[Tuple[str, Callable[[], Iterator[Tuple[Any, ...]]]]]:
    """(name, run) per commit chain; ``run`` yields each version's
    (neighbor ids, squared distances, tree, machine, layout, answers),
    the answers those of the version's snapshot on one seeded batch."""
    import numpy as np

    from repro.core import FastDnCConfig
    from repro.core.online import MutableIndex

    chains = [
        # name, n, d, k, duplicates, config, threshold, (inserts, deletes) per commit
        ("insert_only", 3000, 2, 2, 0.0, {}, 0.05, [(6, 0), (1, 0), (12, 0)]),
        ("delete_only", 3000, 2, 2, 0.0, {}, 0.05, [(0, 6), (0, 1), (0, 12)]),
        ("mixed_d1", 2500, 1, 1, 0.0, {}, 0.05, [(5, 5), (10, 10), (1, 1)]),
        ("mixed_d3", 2500, 3, 3, 0.0, {}, 0.05, [(5, 5), (10, 10), (1, 1)]),
        ("punted", 2000, 2, 2, 0.0, {}, 0.01, [(5, 5), (40, 40), (3, 3)]),
        ("large", 20000, 2, 2, 0.0, {}, 0.05, [(10, 10), (1, 0), (0, 1), (30, 30)]),
        ("duplicates", 2000, 2, 2, 0.5, {}, 0.05, [(6, 6), (6, 6), (6, 6)]),
        ("punty", 3000, 2, 2, 0.0, _PUNTY, 0.05, [(6, 6), (6, 6), (6, 6)]),
    ]
    for name, n, d, k, dups, config, threshold, commits in chains:

        def run(n=n, d=d, k=k, dups=dups, config=config, threshold=threshold, commits=commits):
            seed = n + d + k
            index = MutableIndex(
                _points(n, d, seed, dups), k, seed=seed,
                config=FastDnCConfig(**config), churn_threshold=threshold,
            )
            rng = np.random.default_rng(seed)
            queries = np.random.default_rng(seed + 1).random((_QUERIES, d))

            def state():
                answers = index.snapshot().execute("knn", queries, k)
                return (index.neighbor_indices, index.neighbor_sq_dists, index.tree,
                        index.machine, index.layout, answers)

            yield state()
            for n_ins, n_del in commits:
                if n_ins:
                    index.insert(rng.random((n_ins, d)))
                if n_del:
                    index.delete(rng.choice(index.n, size=n_del, replace=False))
                index.commit()
                yield state()

        yield f"online/{name}", run


def _engine_runs() -> Iterator[Tuple[str, Callable[[], Tuple[Any, ...]]]]:
    from repro.api import all_knn
    from repro.core import FastDnCConfig, SimpleDnCConfig
    from repro.pvm import Machine

    inputs = [
        # name, n, d, k, duplicates, grid, config
        ("uniform_d1_k2", 2000, 1, 2, 0.0, False, {}),
        ("uniform_d2_k1", 2000, 2, 1, 0.0, False, {}),
        ("uniform_d3_k3", 2000, 3, 3, 0.0, False, {}),
        ("uniform_d4_k8", 1500, 4, 8, 0.0, False, {}),
        ("duplicates", 2000, 2, 2, 0.3, False, {}),
        ("heavy_duplicates", 1500, 2, 2, 0.75, False, {}),
        ("integer_grid", 2000, 2, 3, 0.0, True, {}),
        ("float32", 2000, 2, 2, 0.0, False, {"dtype": "float32"}),
        ("punty_k1", 3000, 2, 1, 0.0, False, _PUNTY),
        ("punty_k2", 3000, 2, 2, 0.0, False, _PUNTY),
    ]
    simple = ("uniform_d2_k1", "uniform_d3_k3", "duplicates")
    engines = [("recursive", None), ("frontier", None), ("frontier-mp", 1), ("frontier-mp", 2)]
    for name, n, d, k, dups, grid, config in inputs:
        for method in ("fast", "simple") if name in simple else ("fast",):
            for engine, workers in engines:

                def run(n=n, d=d, k=k, dups=dups, grid=grid, config=config, method=method,
                        engine=engine, workers=workers):
                    machine = Machine()
                    make = FastDnCConfig if method == "fast" else SimpleDnCConfig
                    res = all_knn(
                        _points(n, d, n + d + k, dups, grid), k, method=method,
                        machine=machine, config=make(**config), seed=n + k, engine=engine,
                        workers=workers,
                    )
                    return res.indices, res.sq_dists, res.tree, machine

                tag = engine if workers is None else f"{engine}-w{workers}"
                yield f"{method}/{name}/{tag}", run


def matrix() -> Dict[str, Dict[str, Any]]:
    """Fingerprint every run of the matrix with the ``repro`` on ``sys.path``."""
    out: Dict[str, Dict[str, Any]] = {}
    for name, run in _online_chains():
        for version, state in enumerate(run()):
            out[f"{name}/v{version}"] = fingerprint(*state)
    for name, run in _engine_runs():
        out[name] = fingerprint(*run())
    return out


def _fingerprint_tree(src: str, out: str) -> None:
    """Run the matrix against ``src`` in a fresh process."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    subprocess.run([sys.executable, os.path.abspath(__file__), "--fingerprint", out],
                   check=True, env=env)


def against(rev: str) -> int:
    """Diff this checkout's fingerprints against revision ``rev``'s."""
    work = tempfile.mkdtemp(prefix="repro-differential-")
    try:
        tree = os.path.join(work, "tree")
        os.mkdir(tree)
        archive = subprocess.run(
            ["git", "-C", REPO_ROOT, "archive", "--format=tar", rev],
            check=True, capture_output=True,
        ).stdout
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
        sides = []
        trees = ((rev, os.path.join(tree, "src")), ("this checkout", os.path.join(REPO_ROOT, "src")))
        for label, src in trees:
            out = os.path.join(work, f"{len(sides)}.json")
            _fingerprint_tree(src, out)
            with open(out) as fh:
                sides.append(json.load(fh))
            print(f"{label}: {len(sides[-1])} runs fingerprinted")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = diff(*sides)
    for line in lines:
        print(line)
    print(f"differential vs {rev}: {len(sides[1])} runs, {len(lines)} mismatches")
    return 1 if lines else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--against", metavar="REV", help="diff this checkout against REV")
    mode.add_argument("--fingerprint", metavar="OUT", help="write this tree's fingerprints")
    args = parser.parse_args(argv)
    if args.against:
        return against(args.against)
    sys.path.append(os.path.join(REPO_ROOT, "src"))  # after PYTHONPATH's tree
    with open(args.fingerprint, "w") as fh:
        json.dump(matrix(), fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
