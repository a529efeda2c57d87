"""Terrain serialisation: JSON (lossless) and Wavefront OBJ (interop).

Loading is *hardened*: a malformed file raises
:class:`~repro.errors.TerrainError` carrying the path (and line or
field context) instead of leaking a raw ``KeyError`` / ``ValueError``
/ ``IndexError`` from the parser, and loaded terrains pass the
reliability front door (:func:`repro.reliability.validate_terrain`) —
NaN/Inf elevations and duplicate ``(x, y)`` vertices are rejected at
the boundary with a clear message rather than crashing a kernel later.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional, Union

from repro.errors import ReproError, TerrainError
from repro.geometry.primitives import Point3
from repro.reliability import validate_terrain
from repro.terrain.model import Terrain

__all__ = ["save_terrain_json", "load_terrain_json", "save_terrain_obj", "load_terrain_obj"]


def save_terrain_json(terrain: Terrain, path: Union[str, Path]) -> None:
    """Lossless JSON dump (vertices + faces)."""
    data = {
        "format": "repro-terrain",
        "version": 1,
        "vertices": [[v.x, v.y, v.z] for v in terrain.vertices],
        "faces": [list(f) for f in terrain.faces],
    }
    Path(path).write_text(json.dumps(data))


def load_terrain_json(
    path: Union[str, Path], *, nodata: Optional[float] = None
) -> Terrain:
    """Load a terrain from its JSON dump, with context on any defect.

    ``nodata`` names a sentinel elevation (e.g. ``-9999.0`` from a DEM
    export): vertices whose ``z`` equals it — or is ``null`` — are
    *rejected* with a message naming the vertex, not silently turned
    into NaN coordinates that fail deep inside a kernel.
    """
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise TerrainError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise TerrainError(
            f"{path}: not valid JSON (line {exc.lineno}, column"
            f" {exc.colno}: {exc.msg})"
        ) from exc
    if not isinstance(data, dict) or data.get("format") != "repro-terrain":
        raise TerrainError(f"{path}: not a repro terrain JSON file")
    for key in ("vertices", "faces"):
        if not isinstance(data.get(key), list):
            raise TerrainError(f"{path}: missing or non-list {key!r} field")
    verts: list[Point3] = []
    for i, v in enumerate(data["vertices"]):
        if nodata is not None and (
            (isinstance(v, (list, tuple)) and len(v) == 3 and v[2] is None)
            or (
                isinstance(v, (list, tuple))
                and len(v) == 3
                and isinstance(v[2], (int, float))
                and float(v[2]) == nodata
            )
        ):
            raise TerrainError(
                f"{path}: vertex {i} is a nodata hole"
                f" (z = {v[2]!r}); fill or crop the hole before loading"
            )
        try:
            x, y, z = v
            verts.append(Point3(float(x), float(y), float(z)))
        except (TypeError, ValueError) as exc:
            raise TerrainError(
                f"{path}: vertex {i} is not an [x, y, z] number triple:"
                f" {v!r}"
            ) from exc
    faces: list[tuple[int, int, int]] = []
    for i, f in enumerate(data["faces"]):
        try:
            a, b, c = f
            faces.append((int(a), int(b), int(c)))
        except (TypeError, ValueError) as exc:
            raise TerrainError(
                f"{path}: face {i} is not an index triple: {f!r}"
            ) from exc
    return _checked_terrain(verts, faces, path)


def _checked_terrain(verts, faces, path) -> Terrain:
    """The loaded terrain, validated.  NaN/Inf vertices surface as
    ValidationError from the front door, with the path in context,
    before the constructor would reject them as a TerrainError."""
    if not all(math.isfinite(c) for v in verts for c in v):
        validate_terrain(Terrain(verts, [], validate=False), context=str(path))
    try:
        terrain = Terrain(verts, faces, validate=True)
    except ReproError as exc:
        raise TerrainError(f"{path}: {exc}") from exc
    return validate_terrain(terrain, context=str(path))


def save_terrain_obj(terrain: Terrain, path: Union[str, Path]) -> None:
    """Wavefront OBJ export (1-based indices, triangles only)."""
    lines = ["# repro terrain"]
    for v in terrain.vertices:
        lines.append(f"v {v.x:.9g} {v.y:.9g} {v.z:.9g}")
    for a, b, c in terrain.faces:
        lines.append(f"f {a + 1} {b + 1} {c + 1}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_terrain_obj(path: Union[str, Path]) -> Terrain:
    """Minimal OBJ import: ``v`` and triangular ``f`` records only.

    Malformed records raise :class:`TerrainError` with ``path:line``
    context; the loaded terrain passes the reliability front door.
    """
    verts: list[Point3] = []
    faces: list[tuple[int, int, int]] = []
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise TerrainError(f"{path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "v":
            if len(parts) < 4:
                raise TerrainError(f"{path}:{lineno}: malformed vertex")
            try:
                verts.append(
                    Point3(float(parts[1]), float(parts[2]), float(parts[3]))
                )
            except ValueError as exc:
                raise TerrainError(
                    f"{path}:{lineno}: non-numeric vertex coordinate in"
                    f" {raw!r}"
                ) from exc
        elif parts[0] == "f":
            try:
                idx = [int(tok.split("/")[0]) - 1 for tok in parts[1:]]
            except ValueError as exc:
                raise TerrainError(
                    f"{path}:{lineno}: non-integer face index in {raw!r}"
                ) from exc
            if len(idx) != 3:
                raise TerrainError(
                    f"{path}:{lineno}: only triangular faces supported"
                )
            faces.append((idx[0], idx[1], idx[2]))
    return _checked_terrain(verts, faces, path)
