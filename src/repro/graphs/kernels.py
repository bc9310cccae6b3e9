"""Optional numpy kernel layer for the columnar graph backend.

Every kernel in this module has a pure-Python twin at its call site: the
columnar backend (and the shared eligibility substrate layered on top
of it) first asks :func:`use_numpy`, and a kernel that cannot handle a particular input
shape returns ``None`` so the caller falls back to the Python twin.  That
makes numpy a strict accelerator, never a semantic dependency:

* ``REPRO_KERNELS=python`` forces the pure-Python twins even when numpy
  is importable (used by the CI matrix and the differential fuzzer).
* ``REPRO_KERNELS=numpy`` demands the numpy kernels and raises
  ``RuntimeError`` when numpy is missing — a CI job asking for the
  accelerated path must not silently run the slow one.
* unset / empty picks numpy when importable, Python otherwise.

The kernels themselves are deliberately dumb: CSR adjacency snapshots,
level-synchronous BFS frontiers, and typed column snapshots for bulk atom
evaluation.  All decline/fallback policy lives here so the call sites
stay single-branch.
"""

from __future__ import annotations

import operator
import os
from typing import Any, Optional, Sequence, Tuple

try:  # pragma: no cover - exercised via both CI matrix legs
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

np = _np  # re-export for call sites that already checked use_numpy()

_ENV = "REPRO_KERNELS"


def numpy_available() -> bool:
    """True when numpy imported successfully in this process."""
    return _np is not None


def kernel_mode() -> str:
    """Resolve the active kernel mode: ``"numpy"`` or ``"python"``.

    Reads ``REPRO_KERNELS`` on every call (cheap — one dict lookup) so
    tests and benchmarks can flip modes without re-importing anything.
    """
    raw = os.environ.get(_ENV, "").strip().lower()
    if raw in ("", "auto"):
        return "numpy" if _np is not None else "python"
    if raw == "numpy":
        if _np is None:
            raise RuntimeError(
                f"{_ENV}=numpy requested but numpy is not importable"
            )
        return "numpy"
    if raw == "python":
        return "python"
    raise ValueError(f"unknown {_ENV} value {raw!r}; use 'numpy' or 'python'")


def use_numpy() -> bool:
    """True when the numpy kernels should run for this call."""
    return kernel_mode() == "numpy"


# --------------------------------------------------------------------------
# CSR adjacency snapshots


def build_csr(rows: Sequence[Optional[dict]]) -> Tuple[Any, Any]:
    """Build ``(indptr, indices)`` over id-space adjacency ``rows``.

    ``rows[i]`` is the neighbor dict of slot ``i`` or ``None`` for a freed
    slot (freed slots get an empty range — they are never in a frontier).
    """
    counts = _np.fromiter(
        (len(d) if d else 0 for d in rows), dtype=_np.int64, count=len(rows)
    )
    indptr = _np.zeros(len(rows) + 1, dtype=_np.int64)
    _np.cumsum(counts, out=indptr[1:])
    total = int(indptr[-1])
    indices = _np.empty(total, dtype=_np.int64)
    pos = 0
    for d in rows:
        if d:
            indices[pos : pos + len(d)] = list(d)
            pos += len(d)
    return indptr, indices


def _gather_neighbors(indptr, indices, frontier):
    """All neighbors (with repeats) of the id array ``frontier``."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return indices[:0]
    # flat[k] walks each frontier row contiguously: row offsets repeated
    # per-neighbor plus a within-row ramp.
    offsets = _np.repeat(starts, counts)
    ramp = _np.arange(total, dtype=_np.int64) - _np.repeat(
        _np.cumsum(counts) - counts, counts
    )
    return indices[offsets + ramp]


def bfs_distances_csr(indptr, indices, seeds: Sequence[int]):
    """Level-synchronous BFS; returns an int64 distance array over all
    slots with ``-1`` for unreached (and for freed slots)."""
    n = len(indptr) - 1
    dist = _np.full(n, -1, dtype=_np.int64)
    frontier = _np.asarray(sorted(set(seeds)), dtype=_np.int64)
    dist[frontier] = 0
    depth = 0
    while frontier.size:
        depth += 1
        nxt = _gather_neighbors(indptr, indices, frontier)
        if nxt.size == 0:
            break
        nxt = _np.unique(nxt)
        nxt = nxt[dist[nxt] < 0]
        if nxt.size == 0:
            break
        dist[nxt] = depth
        frontier = nxt
    return dist


def reachable_csr(indptr, indices, seeds: Sequence[int]):
    """Ids reachable from ``seeds`` (seeds included), as a sorted int64
    array."""
    n = len(indptr) - 1
    seen = _np.zeros(n, dtype=bool)
    frontier = _np.asarray(sorted(set(seeds)), dtype=_np.int64)
    seen[frontier] = True
    while frontier.size:
        nxt = _gather_neighbors(indptr, indices, frontier)
        if nxt.size == 0:
            break
        nxt = _np.unique(nxt)
        nxt = nxt[~seen[nxt]]
        if nxt.size == 0:
            break
        seen[nxt] = True
        frontier = nxt
    return _np.flatnonzero(seen)


# --------------------------------------------------------------------------
# Typed column snapshots + bulk atom evaluation


class ColumnSnapshot:
    """Immutable typed view of one attr column at a fixed attr version.

    ``objects`` is the raw column as a 1-d object array, ``present`` marks
    slots whose value is not the MISSING sentinel, ``numeric`` is a
    float64 shadow (NaN where missing or non-numeric), and ``numeric_ok``
    says every *present* value round-trips exactly through float64 — the
    precondition for running ordering comparisons in the numeric shadow.
    """

    __slots__ = ("objects", "present", "numeric", "numeric_ok")

    def __init__(self, objects, present, numeric, numeric_ok: bool):
        self.objects = objects
        self.present = present
        self.numeric = numeric
        self.numeric_ok = numeric_ok


def make_column_snapshot(col: Sequence[Any], missing: Any) -> ColumnSnapshot:
    """Snapshot a MISSING-padded attr column for bulk evaluation."""
    n = len(col)
    objects = _np.empty(n, dtype=object)
    present = _np.zeros(n, dtype=bool)
    numeric = _np.full(n, _np.nan, dtype=_np.float64)
    numeric_ok = True
    for i, x in enumerate(col):
        # Element-wise assignment on purpose: bulk object-array assignment
        # from a list tries to broadcast nested sequences.
        objects[i] = x
        if x is missing:
            continue
        present[i] = True
        t = type(x)
        if t is bool:
            numeric[i] = 1.0 if x else 0.0
        elif t is int:
            try:
                fx = float(x)
            except OverflowError:
                numeric_ok = False
                continue
            if int(fx) != x:  # beyond 2^53: float64 would move the value
                numeric_ok = False
                continue
            numeric[i] = fx
        elif t is float:
            numeric[i] = x
        else:
            numeric_ok = False
    return ColumnSnapshot(objects, present, numeric, numeric_ok)


_CMP = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

# Value types whose elementwise == against an object array cannot trigger
# numpy's sequence broadcasting (tuples/lists compare per-element, which
# diverges from Python scalar equality).
_SAFE_EQ_TYPES = (str, int, float, bool, type(None))


def atom_mask(snap: ColumnSnapshot, ids, op: str, value: Any):
    """Boolean verdict mask for ``attr <op> value`` over slot ids ``ids``.

    Matches ``Atom.satisfied_by`` exactly: a missing attribute fails every
    op (including ``!=``), and a comparison that would raise ``TypeError``
    per-node fails per-node.  Returns ``None`` to decline — the caller
    runs the pure-Python twin — whenever exact equivalence is not
    guaranteed by the typed shadow (non-numeric column under an ordering
    op, exotic value types, lossy int→float conversions).
    """
    present = snap.present[ids]
    eq_op = op in ("=", "==", "!=")
    if isinstance(value, (bool, int, float)):
        lossy = False
        if type(value) is int:
            try:
                lossy = int(float(value)) != value
            except OverflowError:
                lossy = True
        if snap.numeric_ok and not lossy:
            fv = float(value)
            if eq_op:
                m = (
                    snap.numeric[ids] != fv
                    if op == "!="
                    else snap.numeric[ids] == fv
                )
            else:
                m = _CMP[op](snap.numeric[ids], fv)
            return m & present
        if not eq_op:
            return None  # ordering over a non-float64-exact column
    elif not eq_op or not isinstance(value, _SAFE_EQ_TYPES):
        return None
    # Object-space equality: elementwise Python ==/!= (same operator the
    # scalar twin applies), masked by presence.
    vals = snap.objects[ids]
    try:
        m = vals != value if op == "!=" else vals == value
    except Exception:
        return None
    if not isinstance(m, _np.ndarray):  # value defeated elementwise compare
        return None
    return m.astype(bool) & present
