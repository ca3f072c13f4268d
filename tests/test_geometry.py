"""Unit tests for planar geometry (repro.geometry)."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.geometry import (
    ConvexPolygon,
    convex_hull,
    point_in_polygon,
    polygon_area,
    polygon_centroid,
    segment_midpoints,
)

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]

coords = st.floats(min_value=-100.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False)
planar_points = st.tuples(coords, coords)
unit = st.floats(min_value=0.0, max_value=1.0)
index = st.integers(min_value=0, max_value=10**6)


def loop_point_in_polygon(point, vertices, tol=1e-12):
    """Per-edge reference for :func:`point_in_polygon`."""
    verts = np.asarray(vertices, dtype=float)
    px, py = float(point[0]), float(point[1])
    n = verts.shape[0]
    for i in range(n):
        a = verts[i]
        ab = verts[(i + 1) % n] - a
        denom = float(ab @ ab)
        if denom < tol * tol:
            continue
        t = np.clip(((px - a[0]) * ab[0] + (py - a[1]) * ab[1]) / denom, 0.0, 1.0)
        proj = a + t * ab
        if np.hypot(px - proj[0], py - proj[1]) <= tol:
            return True
    if n == 2:
        return False
    inside = False
    j = n - 1
    for i in range(n):
        xi, yi = verts[i]
        xj, yj = verts[j]
        if (yi > py) != (yj > py):
            if px < xi + (py - yi) * (xj - xi) / (yj - yi):
                inside = not inside
        j = i
    return inside


def loop_distance(point, vertices):
    """Per-edge reference for :meth:`ConvexPolygon.distance` (outside)."""
    p = np.asarray(point, dtype=float)
    n = len(vertices)
    best = np.inf
    for i in range(n):
        a = vertices[i]
        ab = vertices[(i + 1) % n] - a
        denom = float(ab @ ab)
        t = 0.0 if denom == 0.0 else np.clip(float((p - a) @ ab) / denom, 0.0, 1.0)
        best = min(best, float(np.hypot(*(p - (a + t * ab)))))
    return best


def probe_points(v, free, on_edges, toward_vertices, at_vertices):
    """Free points plus points on edges, towards and at the vertices."""
    n = v.shape[0]
    centre = v.mean(axis=0)
    return np.array(
        list(free)
        + [v[i % n] + t * (v[(i + 1) % n] - v[i % n]) for i, t in on_edges]
        + [centre + t * (v[i % n] - centre) for i, t in toward_vertices]
        + [v[i % n] for i in at_vertices]
    ).reshape(-1, 2)


probes = dict(
    free=st.lists(planar_points, max_size=20),
    on_edges=st.lists(st.tuples(index, unit), max_size=10),
    toward_vertices=st.lists(st.tuples(index, unit), max_size=10),
    at_vertices=st.lists(index, max_size=5),
)


class TestConvexHull:
    def test_square_with_interior_point(self):
        hull = convex_hull(UNIT_SQUARE + [(0.5, 0.5)])
        assert hull.shape == (4, 2)

    def test_ccw_orientation(self):
        hull = convex_hull(UNIT_SQUARE)
        assert polygon_area(hull) > 0

    def test_collinear_points_dropped(self):
        hull = convex_hull([(0, 0), (0.5, 0.0), (1, 0), (1, 1), (0, 1)])
        assert hull.shape == (4, 2)

    def test_duplicates_dropped(self):
        hull = convex_hull(UNIT_SQUARE + UNIT_SQUARE)
        assert hull.shape == (4, 2)

    def test_all_collinear_returns_extremes(self):
        hull = convex_hull([(0, 0), (1, 1), (2, 2), (0.3, 0.3)])
        assert hull.shape == (2, 2)
        np.testing.assert_allclose(hull, [[0, 0], [2, 2]])

    def test_single_point(self):
        hull = convex_hull([(3.0, 4.0)])
        np.testing.assert_allclose(hull, [[3.0, 4.0]])

    def test_two_points(self):
        hull = convex_hull([(0, 0), (1, 0)])
        assert hull.shape == (2, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            convex_hull(np.empty((0, 2)))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            convex_hull([[1.0, 2.0, 3.0]])

    def test_random_cloud_contains_all_points(self, rng):
        pts = rng.normal(size=(200, 2))
        hull = convex_hull(pts)
        poly = ConvexPolygon(hull)
        for p in pts:
            assert poly.contains(p, tol=1e-9)


class TestAreaCentroid:
    def test_unit_square_area(self):
        assert polygon_area(UNIT_SQUARE) == pytest.approx(1.0)

    def test_cw_area_negative(self):
        assert polygon_area(UNIT_SQUARE[::-1]) == pytest.approx(-1.0)

    def test_triangle_area(self):
        assert polygon_area([(0, 0), (2, 0), (0, 2)]) == pytest.approx(2.0)

    def test_degenerate_area_zero(self):
        assert polygon_area([(0, 0), (1, 1)]) == 0.0

    def test_square_centroid(self):
        np.testing.assert_allclose(polygon_centroid(UNIT_SQUARE), [0.5, 0.5])

    def test_degenerate_centroid_is_mean(self):
        np.testing.assert_allclose(
            polygon_centroid([(0, 0), (2, 2)]), [1.0, 1.0]
        )


class TestPointInPolygon:
    def test_interior(self):
        assert point_in_polygon((0.5, 0.5), UNIT_SQUARE)

    def test_exterior(self):
        assert not point_in_polygon((1.5, 0.5), UNIT_SQUARE)

    def test_boundary_counts_inside(self):
        assert point_in_polygon((0.5, 0.0), UNIT_SQUARE, tol=1e-9)
        assert point_in_polygon((1.0, 1.0), UNIT_SQUARE, tol=1e-9)

    def test_nonconvex_polygon(self):
        # L-shape: point in the notch is outside.
        l_shape = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
        assert point_in_polygon((0.5, 1.5), l_shape)
        assert not point_in_polygon((1.5, 1.5), l_shape)

    def test_empty_polygon(self):
        assert not point_in_polygon((0.0, 0.0), np.empty((0, 2)))

    def test_single_vertex(self):
        assert point_in_polygon((1.0, 1.0), [(1.0, 1.0)])
        assert not point_in_polygon((1.1, 1.0), [(1.0, 1.0)])

    @given(vertices=st.lists(planar_points, min_size=2, max_size=12),
           **probes)
    def test_matches_edge_loop(self, vertices, free, on_edges,
                               toward_vertices, at_vertices):
        """Arbitrary (also non-convex, self-touching) vertex lists."""
        v = np.array(vertices)
        for p in probe_points(v, free, on_edges, toward_vertices, at_vertices):
            for tol in (1e-12, 1e-9):
                assert point_in_polygon(p, v, tol=tol) == \
                    loop_point_in_polygon(p, v, tol=tol)


class TestSegmentMidpoints:
    def test_square_midpoints(self):
        mids = segment_midpoints(UNIT_SQUARE)
        assert mids.shape == (4, 2)
        np.testing.assert_allclose(mids[0], [0.5, 0.0])
        np.testing.assert_allclose(mids[-1], [0.0, 0.5])


class TestConvexPolygon:
    def test_construction_hulls_input(self):
        poly = ConvexPolygon(UNIT_SQUARE + [(0.5, 0.5)])
        assert poly.n_vertices == 4

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            ConvexPolygon([(0, 0), (1, 1), (2, 2)])

    def test_area_and_centroid(self):
        poly = ConvexPolygon(UNIT_SQUARE)
        assert poly.area == pytest.approx(1.0)
        np.testing.assert_allclose(poly.centroid, [0.5, 0.5])

    def test_contains(self):
        poly = ConvexPolygon(UNIT_SQUARE)
        assert poly.contains((0.3, 0.7))
        assert not poly.contains((1.2, 0.5))

    def test_contains_with_tolerance(self):
        poly = ConvexPolygon(UNIT_SQUARE)
        assert poly.contains((1.0005, 0.5), tol=1e-3)
        assert not poly.contains((1.01, 0.5), tol=1e-3)

    def test_distance_inside_zero(self):
        poly = ConvexPolygon(UNIT_SQUARE)
        assert poly.distance((0.5, 0.5)) == 0.0

    def test_distance_outside(self):
        poly = ConvexPolygon(UNIT_SQUARE)
        assert poly.distance((2.0, 0.5)) == pytest.approx(1.0)
        assert poly.distance((2.0, 2.0)) == pytest.approx(np.sqrt(2.0))

    def test_outward_normals_unit_and_outward(self):
        poly = ConvexPolygon(UNIT_SQUARE)
        normals = poly.outward_normals()
        np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0)
        mids = segment_midpoints(poly.vertices)
        centroid = poly.centroid
        for mid, n in zip(mids, normals):
            assert (mid - centroid) @ n > 0

    def test_boundary_points_on_boundary(self):
        poly = ConvexPolygon(UNIT_SQUARE)
        pts, normals = poly.boundary_points(per_edge=3)
        assert pts.shape == (12, 2)
        assert normals.shape == (12, 2)
        for p in pts:
            assert poly.distance(p) == pytest.approx(0.0, abs=1e-12)

    def test_boundary_points_invalid(self):
        with pytest.raises(ValueError):
            ConvexPolygon(UNIT_SQUARE).boundary_points(per_edge=0)

    def test_signed_margin_signs(self):
        poly = ConvexPolygon(UNIT_SQUARE)
        margins = poly.signed_margin([(0.5, 0.5), (2.0, 0.5), (1.0, 0.5)])
        assert margins[0] < 0
        assert margins[1] == pytest.approx(1.0)
        assert margins[2] == pytest.approx(0.0, abs=1e-12)

    def test_expanded_with_grows(self):
        poly = ConvexPolygon(UNIT_SQUARE)
        grown = poly.expanded_with([(2.0, 0.5)])
        assert grown.area > poly.area
        assert grown.contains((1.5, 0.5))

    def test_expanded_with_interior_point_no_change(self):
        poly = ConvexPolygon(UNIT_SQUARE)
        same = poly.expanded_with([(0.5, 0.5)])
        assert same.area == pytest.approx(poly.area)

    def test_simplified_reduces_vertices(self):
        angles = np.linspace(0, 2 * np.pi, 500, endpoint=False)
        circle = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        poly = ConvexPolygon(circle)
        simple = poly.simplified(1e-3)
        assert simple.n_vertices < poly.n_vertices
        # Simplification only shrinks, and not by much.
        assert simple.area <= poly.area + 1e-12
        assert simple.area > 0.95 * poly.area

    def test_simplified_zero_tolerance_identity(self):
        poly = ConvexPolygon(UNIT_SQUARE)
        same = poly.simplified(0.0)
        assert same.n_vertices == 4

    def test_repr(self):
        assert "ConvexPolygon" in repr(ConvexPolygon(UNIT_SQUARE))

    @given(base=st.lists(planar_points, min_size=3, max_size=12), **probes)
    def test_expanded_with_matches_full_rehull(self, base, free, on_edges,
                                               toward_vertices, at_vertices):
        """Dropping interior points never changes the grown hull."""
        assume(convex_hull(base).shape[0] >= 3)
        poly = ConvexPolygon(base)
        v = poly.vertices
        pts = probe_points(v, free, on_edges, toward_vertices, at_vertices)
        expected = ConvexPolygon(np.vstack([v, pts])).vertices
        np.testing.assert_array_equal(poly.expanded_with(pts).vertices,
                                      expected)

    @given(base=st.lists(planar_points, min_size=3, max_size=12), **probes)
    def test_distance_matches_edge_loop(self, base, free, on_edges,
                                        toward_vertices, at_vertices):
        assume(convex_hull(base).shape[0] >= 3)
        poly = ConvexPolygon(base)
        v = poly.vertices
        for p in probe_points(v, free, on_edges, toward_vertices, at_vertices):
            expected = (0.0 if loop_point_in_polygon(p, v)
                        else loop_distance(p, v))
            assert poly.distance(p) == pytest.approx(expected, rel=1e-12,
                                                     abs=1e-12)
