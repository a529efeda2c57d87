"""Front-to-back edge ordering by plane sweep.

The paper orders edges with a Tamassia–Vitter separator tree; the only
property downstream phases use is that the result is a linear
extension of the *in-front-of* partial order:

    e_i ≺ e_j  iff some viewing ray meets e_i before e_j,

equivalently (viewer at ``x = +inf``): at some common map ``y``, the
xy-projection of ``e_i`` has strictly larger ``x``.  Because the
xy-projections of terrain edges never properly cross, the relative
x-order of two overlapping projections is constant over their common
y-range, and the relation is acyclic.

The sweep advances in ``y`` keeping the status — projections crossing
the sweep line, sorted by ``x``.  Whenever two segments become
*adjacent* in the status (insertion next to a neighbour, or removal of
the last segment between two), a precedence constraint is recorded.
Any two overlapping segments are connected through the chain of
status-adjacent pairs at any common ``y``, so the transitive closure
of recorded constraints contains the full partial order; a
topological sort then yields the front-to-back sequence.

Degenerate edges whose projection is horizontal in the map plane
(constant sweep ``y``) are inserted and immediately removed, which
records their neighbour constraints at that single ``y``; they occlude
a measure-zero sliver only, and their own visibility is decided by a
point query downstream.

Two implementations answer :func:`front_to_back_order`: this module's
Python sweep (the oracle, and the path for ``engine="python"``, for
explicit ``segments=`` lists and without the compiler) and its
literal transcription in the compiled core
(:func:`repro.envelope._ccore.order_edges`), which reads the map
lanes of the terrain's cached
:class:`~repro.terrain.edge_table.EdgeTable` and runs whenever
:data:`repro.envelope._ccore.COMPILED_DEFAULT` holds.  The compiled
answer passes the ``ordering`` guard site before it is returned: the
order must be a permutation of the edges that puts every constraint's
front edge first, else the Python sweep recomputes it and the
incident is recorded.
"""

from __future__ import annotations

import heapq
import math
from typing import Optional, Sequence

from repro.envelope import _ccore
from repro.envelope.engine import HAVE_NUMPY
from repro.errors import OrderingError
from repro.geometry.segments import MapSegment
from repro.reliability import faultinject as _fi
from repro.reliability import guard as _guard
from repro.terrain.model import Terrain

__all__ = ["front_to_back_order", "in_front_comparison", "order_constraints"]


def in_front_comparison(a: MapSegment, b: MapSegment) -> int:
    """``+1`` when ``a`` is in front of ``b`` (larger x on the common
    y-range), ``-1`` for behind, ``0`` when the projections share at
    most a point of y-range (no constraint).

    Evaluated at the midpoint of the common y-range, where the
    constant-sign property of non-crossing projections makes a single
    comparison decisive.
    """
    lo = max(a.y1, b.y1)
    hi = min(a.y2, b.y2)
    if hi <= lo:
        return 0
    ym = 0.5 * (lo + hi)
    xa = a.x_at(ym)
    xb = b.x_at(ym)
    if xa > xb:
        return 1
    if xa < xb:
        return -1
    return 0


class _StatusEntry:
    """Sort adapter: orders status entries by x at the common y-range."""

    __slots__ = ("seg",)

    def __init__(self, seg: MapSegment):
        self.seg = seg

    def __lt__(self, other: "_StatusEntry") -> bool:
        c = in_front_comparison(self.seg, other.seg)
        if c != 0:
            return c < 0  # status is sorted by ascending x (back first)
        return self.seg.source < other.seg.source


def order_constraints(
    segments: Sequence[MapSegment],
) -> list[tuple[int, int]]:
    """All (front, back) precedence constraints from the sweep.

    Each pair ``(f, b)`` asserts edge ``f`` must be processed before
    edge ``b``.  Constraint count is ``O(n)`` — at most two per
    insertion and one per removal.
    """
    events: list[tuple[float, int, int]] = []
    # Event kinds at equal y: removals (0) before insert/remove pairs
    # of degenerate horizontals (1) before insertions (2); this keeps
    # point-contact pairs unconstrained.
    for idx, seg in enumerate(segments):
        if seg.is_horizontal:
            events.append((seg.y1, 1, idx))
        else:
            events.append((seg.y1, 2, idx))
            events.append((seg.y2, 0, idx))
    events.sort()

    status: list[_StatusEntry] = []
    constraints: list[tuple[int, int]] = []

    def locate(entry: _StatusEntry) -> int:
        lo, hi = 0, len(status)
        while lo < hi:
            mid = (lo + hi) // 2
            if status[mid] < entry:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def record_neighbours(pos: int, idx: int) -> None:
        # status[pos] == the entry for idx; left neighbour is behind
        # (smaller x), right neighbour is in front.
        if pos > 0:
            constraints.append((idx, status[pos - 1].seg.source))
        if pos + 1 < len(status):
            constraints.append((status[pos + 1].seg.source, idx))

    def remove(idx: int, seg: MapSegment) -> None:
        entry = _StatusEntry(seg)
        pos = locate(entry)
        # The comparator can place equal-at-midpoint entries either
        # side; scan the small neighbourhood for the exact source.
        scan = pos
        while scan < len(status) and status[scan].seg.source != idx:
            scan += 1
        if scan == len(status):
            scan = pos - 1
            while scan >= 0 and status[scan].seg.source != idx:
                scan -= 1
        if scan < 0:  # pragma: no cover - defensive
            raise OrderingError(f"segment {idx} missing from sweep status")
        status.pop(scan)
        if 0 < scan < len(status):
            # Newly adjacent pair (left=behind, right=front).
            constraints.append(
                (status[scan].seg.source, status[scan - 1].seg.source)
            )

    for _y, _kind, idx in events:
        seg = segments[idx]
        if _kind == 2:
            entry = _StatusEntry(seg)
            pos = locate(entry)
            status.insert(pos, entry)
            record_neighbours(pos, idx)
        elif _kind == 0:
            remove(idx, seg)
        else:  # degenerate horizontal: insert + record + remove
            entry = _StatusEntry(seg)
            pos = locate(entry)
            status.insert(pos, entry)
            record_neighbours(pos, idx)
            status.pop(pos)

    return constraints


def _toposort(n: int, constraints, sign: int) -> list[int]:
    """Kahn's sort: among simultaneously-ready edges the smallest
    ``sign * index`` goes first."""
    succ: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    seen: set[tuple[int, int]] = set()
    for front, back in constraints:
        if front == back or (front, back) in seen:
            continue
        seen.add((front, back))
        succ[front].append(back)
        indeg[back] += 1
    heap = [sign * i for i in range(n) if indeg[i] == 0]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        i = sign * heapq.heappop(heap)
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, sign * j)
    return order


def _python_order(segs: Sequence[MapSegment], sign: int) -> list[int]:
    return _toposort(len(segs), order_constraints(segs), sign)


def _check_order(n: int, cons, order) -> None:
    """The ``ordering`` guard's pre-commit check: ``order`` is a
    permutation of ``range(n)`` that puts the front edge of every
    constraint first (vectorized).  A short order is a cycle, not a
    kernel fault: the caller raises :class:`OrderingError`."""
    import numpy as np

    if len(order) < n:
        return
    if len(order) > n or (n and (order.min() < 0 or order.max() >= n)):
        _guard.violation("ordering", "order holds an out-of-range edge")
    pos = np.full(n, -1, dtype=np.int64)
    pos[order] = np.arange(n, dtype=np.int64)
    if n and pos.min() < 0:
        _guard.violation("ordering", "order is not a permutation of the edges")
    if len(cons) and not bool((pos[cons[:, 0]] < pos[cons[:, 1]]).all()):
        _guard.violation("ordering", "order breaks an in-front-of constraint")


def _compiled_order(terrain: Terrain, sign: int) -> list[int]:
    """The compiled sweep and sort over the terrain's map lanes,
    behind the ``ordering`` guard; the Python sweep is the retry."""
    table = terrain.edge_table
    n = len(table)
    if not table.map_finite():
        raise _non_finite(n)
    lanes = table.map_lanes
    _cons, order = _guard.guarded_call(
        "ordering",
        lambda: _ccore.order_edges(lanes, sign),
        lambda: (None, _python_order(terrain.map_segments(), sign)),
        check=lambda res: _check_order(n, *res),
        corrupt=lambda res: (res[0], _fi.corrupt_order("ordering", *res)),
    )
    return order if isinstance(order, list) else order.tolist()


def _non_finite(n: int) -> OrderingError:
    return OrderingError(
        f"non-finite map coordinate among {n} edges: cannot order"
        " a terrain with NaN or infinite vertices"
    )


def front_to_back_order(
    terrain: Terrain,
    *,
    segments: Sequence[MapSegment] | None = None,
    tie_break: str = "min",
    engine: Optional[str] = None,
) -> list[int]:
    """Front-to-back edge processing order for ``terrain``.

    Returns edge indices such that no later edge ever occludes an
    earlier one.  Deterministic: among simultaneously-ready edges the
    smallest index goes first (``tie_break="min"``) or the largest
    (``tie_break="max"``) — two different valid linear extensions,
    which the test-suite uses to check that the visibility map is
    order-independent.  The compiled core orders the terrain's own
    edges when it is the default; explicit ``segments`` and
    ``engine="python"`` take the Python sweep (the same order either
    way).  Raises :class:`OrderingError` if a map coordinate is not
    finite or the constraint graph has a cycle (impossible for valid
    terrains; indicates corrupt input).
    """
    if tie_break not in ("min", "max"):
        raise OrderingError(f"unknown tie_break {tie_break!r}")
    sign = 1 if tie_break == "min" else -1
    if (
        segments is None
        and engine != "python"
        and _ccore.COMPILED_DEFAULT
        and HAVE_NUMPY
    ):
        n = terrain.n_edges
        order = _compiled_order(terrain, sign)
    else:
        segs = list(segments) if segments is not None else terrain.map_segments()
        n = len(segs)
        if segments is None and HAVE_NUMPY:
            finite = terrain.edge_table.map_finite()
        else:
            finite = all(math.isfinite(v) for s in segs for v in s[:4])
        if not finite:
            raise _non_finite(n)
        order = _python_order(segs, sign)
    if len(order) != n:
        raise OrderingError(
            "in-front-of constraint graph has a cycle"
            f" ({n - len(order)} edges unordered) — input is not a"
            " valid terrain projection"
        )
    return order
