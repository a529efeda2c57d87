"""The compiled front-to-back ordering and the per-terrain edge table.

Contracts under test:

* the compiled sweep (:func:`repro.envelope._ccore.order_edges`) gives
  the Python sweep's constraint list pair for pair, and the Python
  Kahn order under both tie-breaks — on every generator at arbitrary
  azimuths, on exact lattices (horizontal map edges, equal-midpoint
  ties), on the DEM fixture and on the degenerate plateau grids;
* :class:`~repro.terrain.edge_table.EdgeTable` equals the per-edge
  ``map_segment``/``image_segment`` projections float for float, and
  the point queries that read it answer as the scalar reference;
* the ``ordering`` guard site retries a faulted compiled order on the
  Python sweep, records the incident on the run's report and keeps
  the map bit-exact;
* non-finite coordinates fail typed on every path.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.ordering.sweep as sweep_mod
from repro.envelope import _ccore
from repro.errors import KernelFault, OrderingError, TerrainError
from repro.geometry.primitives import Point3
from repro.geometry.segments import MapSegment
from repro.hsr import ParallelHSR, SequentialHSR
from repro.hsr.queries import point_visible, visible_many
from repro.ordering.sweep import (
    front_to_back_order,
    order_constraints,
)
from repro.reliability import faultinject as fi
from repro.reliability import guard
from repro.scenarios.instances import dem_terrain_for, terrain_for
from repro.terrain.generators import (
    GENERATORS,
    generate_terrain,
    grid_terrain_from_heights,
)
from repro.terrain.model import Terrain

needs_ccore = pytest.mark.skipif(
    not _ccore.HAVE_CCORE,
    reason="optional compiled core not built in this environment",
)


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    fi.clear()
    guard.reset_ambient()
    monkeypatch.setattr(guard, "GUARDED_DISPATCH", True)
    yield
    fi.clear()
    guard.reset_ambient()


def _params(kind: str, draw) -> dict:
    if kind == "fractal":
        return {"size": draw(st.sampled_from([3, 5, 9]))}
    if kind == "random":
        return {"n_points": draw(st.integers(3, 40))}
    return {"rows": draw(st.integers(2, 8)), "cols": draw(st.integers(2, 8))}


def _python_order(segs, tie_break):
    sign = 1 if tie_break == "min" else -1
    return sweep_mod._toposort(len(segs), order_constraints(segs), sign)


def _assert_parity(segs):
    """C and Python agree on the constraints and both orders of
    ``segs`` (sources = positions), including on a cycle or a
    missing-segment failure."""
    lanes = np.ascontiguousarray(
        np.array([s[:4] for s in segs], dtype=np.float64).reshape(-1, 4).T
    )
    try:
        cons_py = order_constraints(segs)
    except OrderingError:
        with pytest.raises(OrderingError):
            _ccore.order_edges(lanes, 1)
        return
    for tie_break, sign in (("min", 1), ("max", -1)):
        cons_c, order_c = _ccore.order_edges(lanes, sign)
        assert [tuple(c) for c in cons_c.tolist()] == cons_py
        assert order_c.tolist() == _python_order(segs, tie_break)


def _assert_terrain_parity(t: Terrain):
    segs = t.map_segments()
    _assert_parity(segs)
    for tie_break in ("min", "max"):
        assert front_to_back_order(
            t, tie_break=tie_break
        ) == front_to_back_order(t, tie_break=tie_break, engine="python")


@needs_ccore
class TestCompiledParity:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        kind=st.sampled_from(sorted(GENERATORS)),
        seed=st.integers(0, 2**31 - 1),
        azimuth=st.floats(-360.0, 360.0, allow_nan=False),
        data=st.data(),
    )
    def test_generators_at_any_azimuth(self, kind, seed, azimuth, data):
        t = generate_terrain(kind, seed=seed, **_params(kind, data.draw))
        _assert_terrain_parity(t.rotated(azimuth))

    @pytest.mark.parametrize("azimuth", [0.0, 45.0, 90.0, 180.0, 270.0])
    def test_exact_lattice(self, azimuth):
        # No jitter: rows of horizontal map edges, and many pairs whose
        # common y-range midpoints coincide.
        heights = np.arange(25, dtype=float).reshape(5, 5)
        t = grid_terrain_from_heights(heights, jitter_seed=None)
        assert any(s.y1 == s.y2 for s in t.map_segments())
        _assert_terrain_parity(t.rotated(azimuth))

    @pytest.mark.parametrize(
        "family", ["plateau", "constant_plateau", "lattice_plateau"]
    )
    @pytest.mark.parametrize("observer", [0.0, 90.0, 33.3])
    def test_degenerate_grids(self, family, observer):
        t = terrain_for(
            {"family": family, "size": 6, "seed": 2, "observer": observer}
        )
        _assert_terrain_parity(t)

    @pytest.mark.parametrize("observer", [0.0, 45.0])
    def test_dem_fixture(self, observer):
        t = dem_terrain_for(
            {
                "path": "data/dem_tile.asc",
                "format": "esri-ascii",
                "observer": observer,
            }
        )
        _assert_terrain_parity(t)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 4),
                st.integers(0, 4),
                st.integers(0, 4),
                st.integers(0, 4),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_small_integer_grid_segments(self, coords):
        # Tiny integer coordinates: horizontal segments, shared
        # endpoints, equal-midpoint ties and (as arbitrary segment
        # sets may cross) cycles and sweep failures, which both paths
        # must report alike.
        segs = [
            MapSegment.make((float(a), float(b)), (float(c), float(d)), i)
            for i, (a, b, c, d) in enumerate(coords)
        ]
        _assert_parity(segs)

    def test_empty_terrain(self):
        t = Terrain([Point3(0.0, 0.0, 0.0)], [], validate=False)
        assert front_to_back_order(t) == []

    def test_compiled_path_answers(self, monkeypatch):
        calls = []
        real = sweep_mod.in_front_comparison
        monkeypatch.setattr(
            sweep_mod,
            "in_front_comparison",
            lambda a, b: calls.append(1) or real(a, b),
        )
        t = generate_terrain("fractal", size=9, seed=4)
        order = front_to_back_order(t)
        assert calls == []
        front_to_back_order(t, engine="python")
        assert calls
        assert order == front_to_back_order(t, engine="python")


class TestPythonPath:
    def test_no_compiled_default_uses_python_sweep(self, monkeypatch):
        monkeypatch.setattr(_ccore, "COMPILED_DEFAULT", False)
        calls = []
        real = sweep_mod.order_constraints
        monkeypatch.setattr(
            sweep_mod,
            "order_constraints",
            lambda segs: calls.append(1) or real(segs),
        )
        t = generate_terrain("fractal", size=5, seed=1)
        order = front_to_back_order(t)
        assert calls == [1]
        assert sorted(order) == list(range(t.n_edges))

    @needs_ccore
    def test_explicit_segments_use_python_sweep(self, monkeypatch):
        calls = []
        real = sweep_mod.order_constraints
        monkeypatch.setattr(
            sweep_mod,
            "order_constraints",
            lambda segs: calls.append(1) or real(segs),
        )
        t = generate_terrain("fractal", size=5, seed=1)
        order = front_to_back_order(t, segments=t.map_segments())
        assert calls == [1]
        assert order == front_to_back_order(t)


def _terrain_of(kind: str) -> Terrain:
    if kind == "lattice":  # exact grid: rows of horizontal map edges
        heights = np.arange(16, dtype=float).reshape(4, 4)
        return grid_terrain_from_heights(heights, jitter_seed=None)
    return generate_terrain(kind, seed=3)


class TestEdgeTable:
    @pytest.mark.parametrize("kind", sorted(GENERATORS) + ["lattice"])
    @pytest.mark.parametrize("azimuth", [0.0, 71.5, 180.0])
    def test_equals_per_edge_projections(self, kind, azimuth):
        t = _terrain_of(kind).rotated(azimuth)
        n = t.n_edges
        assert t.map_segments() == [t.map_segment(e) for e in range(n)]
        assert t.image_segments() == [t.image_segment(e) for e in range(n)]
        table = t.edge_table
        assert len(table) == n
        assert t.edges == sorted(
            {(a, b) for f in t.faces for a, b in ((f[0], f[1]), (f[1], f[2]), (f[0], f[2]))}
        )
        for e in range(n):
            m, s = t.map_segment(e), t.image_segment(e)
            assert (table.x1[e], table.y1[e], table.x2[e], table.y2[e]) == m[:4]
            assert (table.y1[e], table.z1[e], table.y2[e], table.z2[e]) == s[:4]

    def test_cached_per_instance_only(self):
        t = generate_terrain("fractal", size=5, seed=2)
        assert t.edge_table is t.edge_table
        other = Terrain(t.vertices, t.faces, validate=False)
        assert other.edge_table is not t.edge_table
        assert t.rotated(10.0).edge_table is not t.edge_table

    @pytest.mark.parametrize("azimuth", [0.0, 90.0, 212.0])
    def test_visible_many_matches_scalar_reference(self, azimuth):
        t = generate_terrain("fractal", size=9, seed=5).rotated(azimuth)
        rng = random.Random(11)
        x0, y0, x1, y1 = t.xy_bounds()
        lo, hi = t.height_range()
        points = [
            (rng.uniform(x0, x1), rng.uniform(y0, y1), rng.uniform(lo, hi * 1.2))
            for _ in range(40)
        ]
        # Observers exactly at vertex ordinates hit the endpoint
        # shortcuts of x_at / z_at.
        points += [(v.x - 0.5, v.y, v.z + 0.01) for v in t.vertices[:20]]
        assert visible_many(t, points) == [point_visible(t, p) for p in points]


@needs_ccore
class TestOrderingGuard:
    def _terrain(self):
        return generate_terrain("fractal", size=9, seed=6)

    @pytest.mark.parametrize("mode", ["raise", "unsorted", "nan"])
    def test_fault_retried_bit_exact(self, mode):
        t = self._terrain()
        clean = SequentialHSR().run(Terrain(t.vertices, t.faces))
        with fi.inject("ordering", mode) as plan:
            res = SequentialHSR().run(Terrain(t.vertices, t.faces))
        assert plan.fired == 1
        assert res.reliability.sites["ordering"].count == 1
        assert res.order == clean.order
        assert res.visibility_map.segments == clean.visibility_map.segments
        assert res.stats.ops == clean.stats.ops

    def test_fault_lands_on_parallel_report(self):
        t = self._terrain()
        clean = ParallelHSR(mode="direct").run(Terrain(t.vertices, t.faces))
        with fi.inject("ordering", "unsorted"):
            res = ParallelHSR(mode="direct").run(Terrain(t.vertices, t.faces))
        assert res.reliability.sites["ordering"].count == 1
        assert res.visibility_map.segments == clean.visibility_map.segments

    def test_strict_mode_raises_kernel_fault(self, monkeypatch):
        monkeypatch.setattr(guard, "GUARDED_DISPATCH", False)
        with fi.inject("ordering", "nan"):
            with pytest.raises(KernelFault) as exc:
                front_to_back_order(self._terrain())
        assert exc.value.site == "ordering"

    def test_repeating_fault_quarantines(self):
        t = self._terrain()
        expected = front_to_back_order(t, engine="python")
        with guard.reliability_run() as report:
            with fi.inject("ordering", "raise", repeat=True) as plan:
                for _ in range(5):
                    assert front_to_back_order(t) == expected
        assert plan.fired == guard.FAULT_THRESHOLD
        assert report.sites["ordering"].quarantined

    def test_check_rejects_broken_orders(self):
        cons = np.array([[0, 1]], dtype=np.int64)
        sweep_mod._check_order(2, cons, np.array([0, 1]))
        for bad in ([1, 0], [0, 0], [0, 2]):
            with pytest.raises(guard.InvariantViolation):
                sweep_mod._check_order(2, cons, np.array(bad))


class TestNonFinite:
    def test_nan_height_rejected_at_construction(self):
        verts = [Point3(0.0, 0.0, 1.0), Point3(1.0, 0.0, math.nan), Point3(0.0, 1.0, 1.0)]
        with pytest.raises(TerrainError, match="vertex 1 has a non-finite"):
            Terrain(verts, [(0, 1, 2)])

    def test_inf_xy_rejected_at_construction(self):
        verts = [Point3(0.0, 0.0, 1.0), Point3(math.inf, 0.0, 1.0), Point3(0.0, 1.0, 1.0)]
        with pytest.raises(TerrainError, match="non-finite"):
            Terrain(verts, [(0, 1, 2)])

    @pytest.mark.parametrize("engine", [None, "python"])
    def test_nan_x_fails_ordering_on_every_path(self, engine, monkeypatch):
        t = generate_terrain("fractal", size=3, seed=0)
        verts = list(t.vertices)
        verts[4] = Point3(math.nan, verts[4].y, verts[4].z)
        bad = Terrain(verts, t.faces, validate=False)
        with pytest.raises(OrderingError, match="non-finite"):
            front_to_back_order(bad, engine=engine)
        with pytest.raises(OrderingError, match="non-finite"):
            front_to_back_order(
                bad, segments=bad.map_segments(), engine=engine
            )

    def test_nan_x_fails_without_compiled_core(self, monkeypatch):
        monkeypatch.setattr(_ccore, "COMPILED_DEFAULT", False)
        t = generate_terrain("fractal", size=3, seed=0)
        verts = list(t.vertices)
        verts[0] = Point3(verts[0].x, math.inf, verts[0].z)
        with pytest.raises(OrderingError, match="non-finite"):
            SequentialHSR().run(Terrain(verts, t.faces, validate=False))
