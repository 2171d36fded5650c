"""Primitive operations of the scan-vector machine.

Each function here is a *vector primitive* in the sense of Blelloch's
parallel vector model: it takes numpy arrays, performs the operation with
vectorized numpy (the simulation), and charges the appropriate (depth, work)
to the supplied :class:`~repro.pvm.machine.Machine`.

The primitive set mirrors the one the paper leans on:

- elementwise arithmetic / comparison (depth 1, work n);
- ``scan`` — prefix sums, the paper's headline primitive (depth per the
  machine's SCAN policy, work n), plus segmented variants;
- ``reduce`` and segmented reduce (same charge as scan);
- ``pack`` — select elements under a mask (one scan + one permute), the
  workhorse of the divide step;
- ``permute``/``gather``/``scatter`` — data movement (depth 1, work n);
- ``split`` — stable two-way partition by a flag vector (Blelloch's split),
  built from scans;
- ``distribute`` — broadcast a scalar to an n-vector.

Keeping the cost charges inside these wrappers means algorithm code reads
like ordinary numpy while the ledger still reflects the idealised machine.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .machine import Machine

__all__ = [
    "ewise",
    "scan",
    "segmented_scan",
    "reduce",
    "segmented_reduce",
    "pack",
    "segmented_pack",
    "split",
    "segmented_split",
    "permute",
    "gather",
    "scatter",
    "distribute",
    "enumerate_mask",
    "pairwise_min_index",
]


def _n_of(x: np.ndarray) -> int:
    """Element count of the logical vector (first axis for 2-D point arrays)."""
    return int(x.shape[0]) if x.ndim else 1


def ewise(machine: Machine, out: np.ndarray, steps: float = 1.0) -> np.ndarray:
    """Charge an elementwise operation that already produced ``out``.

    Numpy expressions fuse many scalar ops per element; callers pass
    ``steps`` to reflect how many primitive vector instructions the
    expression corresponds to (default 1).
    """
    machine.charge(machine.ewise_cost(_n_of(np.asarray(out)), steps))
    return out


def scan(machine: Machine, x: np.ndarray, op: str = "add", inclusive: bool = False) -> np.ndarray:
    """Prefix scan of ``x``.  ``op`` is ``add``, ``max``, or ``min``.

    Exclusive by default (Blelloch's convention: position i receives the
    combination of elements 0..i-1, identity at position 0).
    """
    x = np.asarray(x)
    n = _n_of(x)
    machine.charge(machine.scan_cost(n))
    if op == "add":
        run = np.cumsum(x, axis=0)
        identity = np.zeros((), dtype=run.dtype)
    elif op == "max":
        run = np.maximum.accumulate(x, axis=0)
        identity = np.array(np.iinfo(x.dtype).min if np.issubdtype(x.dtype, np.integer) else -np.inf, dtype=x.dtype)
    elif op == "min":
        run = np.minimum.accumulate(x, axis=0)
        identity = np.array(np.iinfo(x.dtype).max if np.issubdtype(x.dtype, np.integer) else np.inf, dtype=x.dtype)
    else:
        raise ValueError(f"unsupported scan op {op!r}")
    if inclusive:
        return run
    out = np.empty_like(run)
    out[0] = identity
    out[1:] = run[:-1]
    return out


def segmented_scan(
    machine: Machine, x: np.ndarray, segment_ids: np.ndarray, inclusive: bool = False
) -> np.ndarray:
    """Additive prefix scan restarted at each segment boundary.

    ``segment_ids`` must be non-decreasing; elements with equal ids form one
    segment.  Costs one scan (segment flags ride along for free in the
    model, as in Blelloch's segmented instructions).
    """
    x = np.asarray(x)
    seg = np.asarray(segment_ids)
    if x.shape[0] != seg.shape[0]:
        raise ValueError("x and segment_ids must have equal length")
    n = _n_of(x)
    machine.charge(machine.scan_cost(n))
    if n == 0:
        return x.copy()
    if np.any(seg[1:] < seg[:-1]):
        raise ValueError("segment_ids must be non-decreasing")
    total = np.cumsum(x, axis=0)
    starts = np.flatnonzero(np.concatenate(([True], seg[1:] != seg[:-1])))
    # subtract the running total just before each segment start
    base = np.zeros_like(total)
    base_vals = np.concatenate((np.zeros((1,) + total.shape[1:], dtype=total.dtype), total[starts[1:] - 1]))
    base[starts] = base_vals
    base = np.maximum.accumulate(base, axis=0) if False else _ffill_at(base, starts)
    run = total - base
    if inclusive:
        return run
    out = np.empty_like(run)
    out[starts] = 0
    inner = np.ones(n, dtype=bool)
    inner[starts] = False
    out[inner] = run[np.flatnonzero(inner) - 1]
    return out


def _ffill_at(base: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Forward-fill segment base values to every element of the segment."""
    n = base.shape[0]
    idx = np.zeros(n, dtype=np.int64)
    idx[starts] = starts
    idx = np.maximum.accumulate(idx)
    return base[idx]


def reduce(machine: Machine, x: np.ndarray, op: str = "add"):
    """Reduce a vector to a scalar (same machine charge as a scan)."""
    x = np.asarray(x)
    machine.charge(machine.scan_cost(_n_of(x)))
    if x.size == 0:
        if op == "add":
            return x.dtype.type(0)
        raise ValueError("cannot min/max-reduce an empty vector")
    if op == "add":
        return x.sum(axis=0)
    if op == "max":
        return x.max(axis=0)
    if op == "min":
        return x.min(axis=0)
    raise ValueError(f"unsupported reduce op {op!r}")


_REDUCEAT_UFUNCS = {"add": np.add, "max": np.maximum, "min": np.minimum}


def segmented_reduce(
    machine: Machine, x: np.ndarray, segment_ids: np.ndarray, op: str = "add"
) -> np.ndarray:
    """Reduce each segment to one output (ids non-decreasing).

    ``op`` is ``add`` (default, the historical behavior), ``max``, or
    ``min`` — matching :func:`reduce`.
    """
    x = np.asarray(x)
    seg = np.asarray(segment_ids)
    if op not in _REDUCEAT_UFUNCS:
        raise ValueError(f"unsupported reduce op {op!r}")
    machine.charge(machine.scan_cost(_n_of(x)))
    if x.shape[0] == 0:
        return x.copy()
    starts = np.flatnonzero(np.concatenate(([True], seg[1:] != seg[:-1])))
    totals = _REDUCEAT_UFUNCS[op].reduceat(x, starts, axis=0)
    return totals


def pack(machine: Machine, x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Select the elements of ``x`` where ``mask`` is true, preserving order.

    Costs one scan (to compute target offsets) plus one permute — the
    canonical scan-vector implementation.
    """
    x = np.asarray(x)
    mask = np.asarray(mask, dtype=bool)
    n = _n_of(x)
    machine.charge(machine.scan_cost(n).then(machine.permute_cost(n)))
    return x[mask]


def split(machine: Machine, x: np.ndarray, flags: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Stable two-way partition: elements with flag False, then flag True.

    Returns the two halves separately (the divide step of the paper's
    recursion).  Costs one scan plus one permute, like ``pack``.
    """
    x = np.asarray(x)
    flags = np.asarray(flags, dtype=bool)
    n = _n_of(x)
    machine.charge(machine.scan_cost(n).then(machine.permute_cost(n)))
    return x[~flags], x[flags]


def _segment_layout(seg: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """(starts, lengths) of the segments of a non-decreasing id vector."""
    if np.any(seg[1:] < seg[:-1]):
        raise ValueError("segment_ids must be non-decreasing")
    starts = np.flatnonzero(np.concatenate(([True], seg[1:] != seg[:-1])))
    lengths = np.diff(np.append(starts, n))
    return starts, lengths


def segmented_split(
    machine: Optional[Machine], x: np.ndarray, flags: np.ndarray, segment_ids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Stable two-way partition *within* each segment, all segments at once.

    Returns ``(out, false_counts)``: ``out`` has each segment reordered to
    its flag-False elements followed by its flag-True elements (relative
    order preserved — Blelloch's segmented split), and ``false_counts``
    gives the per-segment False count, i.e. the boundary offset of each
    segment's True part.  This is the frontier engine's divide step: one
    call splits every node of a tree level.

    Costs one scan plus one permute on the full vector, like :func:`split`.
    ``machine`` may be ``None`` to run uncharged (the frontier engine
    accounts per node analytically so its ledger matches the recursion's).
    """
    x = np.asarray(x)
    flags = np.asarray(flags, dtype=bool)
    seg = np.asarray(segment_ids)
    n = _n_of(x)
    if flags.shape[0] != n or seg.shape[0] != n:
        raise ValueError("x, flags and segment_ids must have equal length")
    if machine is not None:
        machine.charge(machine.scan_cost(n).then(machine.permute_cost(n)))
    if n == 0:
        return x.copy(), np.zeros(0, dtype=np.int64)
    starts, lengths = _segment_layout(seg, n)
    true_ = flags.astype(np.int64)
    false_ = 1 - true_
    false_counts = np.add.reduceat(false_, starts)
    # exclusive within-segment rank among same-flag elements
    inc_t = np.cumsum(true_)
    inc_f = np.cumsum(false_)
    base_t = np.repeat(inc_t[starts] - true_[starts], lengths)
    base_f = np.repeat(inc_f[starts] - false_[starts], lengths)
    rank_t = inc_t - base_t - true_
    rank_f = inc_f - base_f - false_
    seg_start = np.repeat(starts, lengths)
    seg_false = np.repeat(false_counts, lengths)
    dest = np.where(flags, seg_start + seg_false + rank_t, seg_start + rank_f)
    out = np.empty_like(x)
    out[dest] = x
    return out, false_counts


def segmented_pack(
    machine: Optional[Machine], x: np.ndarray, mask: np.ndarray, segment_ids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Select masked elements segment-by-segment, all segments at once.

    Returns ``(packed, counts)``: the surviving elements in order (segment
    layout preserved implicitly) and the per-segment survivor count, from
    which the packed vector's new segment offsets follow by a prefix sum.
    Same charge as :func:`pack`; ``machine`` may be ``None`` (see
    :func:`segmented_split`).
    """
    x = np.asarray(x)
    mask = np.asarray(mask, dtype=bool)
    seg = np.asarray(segment_ids)
    n = _n_of(x)
    if mask.shape[0] != n or seg.shape[0] != n:
        raise ValueError("x, mask and segment_ids must have equal length")
    if machine is not None:
        machine.charge(machine.scan_cost(n).then(machine.permute_cost(n)))
    if n == 0:
        return x.copy(), np.zeros(0, dtype=np.int64)
    starts, _ = _segment_layout(seg, n)
    counts = np.add.reduceat(mask.astype(np.int64), starts)
    return x[mask], counts


def permute(machine: Machine, x: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Send ``x[i]`` to output position ``index[i]`` (index is a permutation)."""
    x = np.asarray(x)
    index = np.asarray(index)
    machine.charge(machine.permute_cost(_n_of(x)))
    out = np.empty_like(x)
    out[index] = x
    return out


def gather(machine: Machine, x: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Read ``x[index[i]]`` into output position i (a.k.a. backpermute)."""
    x = np.asarray(x)
    index = np.asarray(index)
    machine.charge(machine.permute_cost(_n_of(index)))
    return x[index]


def scatter(machine: Machine, target: np.ndarray, index: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Write ``values[i]`` to ``target[index[i]]`` in place; returns target."""
    index = np.asarray(index)
    machine.charge(machine.permute_cost(_n_of(index)))
    target[index] = values
    return target


def distribute(machine: Machine, value, n: int, dtype=None) -> np.ndarray:
    """Broadcast a scalar to an n-vector (depth 1, work n)."""
    machine.charge(machine.ewise_cost(n))
    return np.full(n, value, dtype=dtype)


def enumerate_mask(machine: Machine, mask: np.ndarray) -> np.ndarray:
    """Indices of the true positions of ``mask`` (one scan + one permute)."""
    mask = np.asarray(mask, dtype=bool)
    machine.charge(machine.scan_cost(mask.shape[0]).then(machine.permute_cost(mask.shape[0])))
    return np.flatnonzero(mask)


def pairwise_min_index(machine: Machine, values: np.ndarray) -> int:
    """Index of the minimum of a vector (a min-reduce plus one compare pass)."""
    values = np.asarray(values)
    if values.size == 0:
        raise ValueError("empty vector")
    machine.charge(machine.scan_cost(values.shape[0]).then(machine.ewise_cost(values.shape[0])))
    return int(np.argmin(values))
