"""Struct-of-arrays projections of a terrain's edges.

Every stage of the pipeline reads the same per-edge numbers: the
front-to-back sweep reads the map (xy) projections, the profile
stages read the image (zy) projections and the point queries read
both.  :class:`EdgeTable` holds them once per :class:`~repro.terrain.
model.Terrain` instance as float64 lanes built by numpy from the
vertex and face arrays, instead of one Python tuple per edge per
stage.

The lanes equal the per-edge projections float for float:
:meth:`MapSegment.make <repro.geometry.segments.MapSegment.make>` and
:meth:`ImageSegment.make <repro.geometry.segments.ImageSegment.make>`
both swap the endpoints when ``y1 > y2``, so one swap mask normalises
both projections and they share the ``y1``/``y2`` lanes:

* map segment ``e`` is ``(x1[e], y1[e], x2[e], y2[e])``;
* image segment ``e`` is ``(y1[e], z1[e], y2[e], z2[e])``.

The compiled ordering sweep and the vectorized point queries read the
lanes; :meth:`EdgeTable.map_segments` / :meth:`EdgeTable.image_segments`
build the per-edge tuple lists the other stages index, from the
table's vertex indices and swap mask.

Requires numpy; :class:`~repro.terrain.model.Terrain` falls back to
its per-edge projections without it.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from repro.geometry.segments import ImageSegment, MapSegment

__all__ = ["EdgeTable"]

#: Row of each lane in :attr:`EdgeTable.lanes`.
X1, Y1, X2, Y2, Z1, Z2 = range(6)


def _unique_edges(faces: Sequence[tuple[int, int, int]]):
    """Sorted unique undirected edges of ``faces`` (each sorted
    ascending) as two int64 arrays ``(i, j)`` with ``i < j``, in the
    order of ``sorted(set(...))`` over the ``(i, j)`` tuples."""
    if not faces:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    f = np.fromiter(
        chain.from_iterable(faces), dtype=np.int64, count=3 * len(faces)
    ).reshape(-1, 3)
    i = np.concatenate((f[:, 0], f[:, 1], f[:, 0]))
    j = np.concatenate((f[:, 1], f[:, 2], f[:, 2]))
    base = int(f.max()) + 1
    keys = np.sort(i * base + j)
    # Sort + first-of-run mask rather than ``np.unique``, whose first
    # call imports ``numpy.ma`` (~35 ms of every process's first map).
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return keys // base, keys % base


class EdgeTable:
    """Normalised map and image projections of every edge.

    ``lanes`` is one C-contiguous ``(6, n)`` float64 block with rows
    ``x1, y1, x2, y2, z1, z2`` (each row a contiguous view, exposed by
    name); ``i``/``j`` are the edge's vertex indices, ``i < j``, and
    ``swap`` marks the edges whose projections start at ``j``.
    """

    __slots__ = ("i", "j", "swap", "lanes")

    def __init__(self, i, j, swap, lanes):
        self.i = i
        self.j = j
        self.swap = swap
        self.lanes = lanes

    @classmethod
    def build(cls, vertices, faces) -> "EdgeTable":
        """The table of the TIN ``(vertices, faces)``."""
        i, j = _unique_edges(faces)
        xyz = np.fromiter(
            chain.from_iterable(vertices),
            dtype=np.float64,
            count=3 * len(vertices),
        ).reshape(-1, 3)
        a = xyz[i]
        b = xyz[j]
        swap = a[:, 1] > b[:, 1]
        lo = np.where(swap[:, None], b, a)
        hi = np.where(swap[:, None], a, b)
        lanes = np.empty((6, len(i)), dtype=np.float64)
        lanes[X1] = lo[:, 0]
        lanes[Y1] = lo[:, 1]
        lanes[X2] = hi[:, 0]
        lanes[Y2] = hi[:, 1]
        lanes[Z1] = lo[:, 2]
        lanes[Z2] = hi[:, 2]
        return cls(i, j, swap, lanes)

    def __len__(self) -> int:
        return self.lanes.shape[1]

    @property
    def x1(self):
        return self.lanes[X1]

    @property
    def y1(self):
        return self.lanes[Y1]

    @property
    def x2(self):
        return self.lanes[X2]

    @property
    def y2(self):
        return self.lanes[Y2]

    @property
    def z1(self):
        return self.lanes[Z1]

    @property
    def z2(self):
        return self.lanes[Z2]

    @property
    def map_lanes(self):
        """The ``(4, n)`` map block ``x1, y1, x2, y2`` (a view)."""
        return self.lanes[:4]

    def map_finite(self) -> bool:
        """True when every map coordinate is finite."""
        return bool(np.isfinite(self.map_lanes).all())

    def edge_list(self) -> list[tuple[int, int]]:
        return list(zip(self.i.tolist(), self.j.tolist()))

    def map_segments(self, vertices) -> list[MapSegment]:
        """One :class:`MapSegment` per edge (``source`` = edge index)
        of the terrain whose vertices are ``vertices``."""
        return self._segments(MapSegment, [v[:2] for v in vertices])

    def image_segments(self, vertices) -> list[ImageSegment]:
        """One :class:`ImageSegment` per edge (``source`` = edge
        index) of the terrain whose vertices are ``vertices``."""
        return self._segments(ImageSegment, [v[1:] for v in vertices])

    def _segments(self, cls, coords):
        # The tuples take their coordinates from the vertices' own
        # float objects, not from the lanes: a list of n segments then
        # adds no 4n new floats (~4.7 MB at 129x129) to what the
        # terrain already holds.  ``tuple.__new__`` is what ``_make``
        # does, minus its length check.
        lo = np.where(self.swap, self.j, self.i).tolist()
        hi = np.where(self.swap, self.i, self.j).tolist()
        new = tuple.__new__
        return [
            new(cls, (*coords[a], *coords[b], e))
            for e, (a, b) in enumerate(zip(lo, hi))
        ]
