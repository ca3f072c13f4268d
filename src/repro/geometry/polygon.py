"""Convex polygons in the plane.

All functions operate on ``(n, 2)`` float arrays of vertex coordinates.
Polygons produced by :func:`convex_hull` are in counter-clockwise (CCW)
order, which is the orientation assumed by :class:`ConvexPolygon`.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "convex_hull",
    "polygon_area",
    "polygon_centroid",
    "point_in_polygon",
    "segment_midpoints",
    "ConvexPolygon",
]


def _cross(o: Sequence[float], a: Sequence[float], b: Sequence[float]) -> float:
    """Z-component of the cross product (a - o) x (b - o)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points) -> np.ndarray:
    """Return the convex hull of a point cloud in CCW order.

    Implements Andrew's monotone-chain algorithm, O(n log n).  Collinear
    points on the hull boundary are dropped, so the result is a *strictly*
    convex vertex list.  Degenerate inputs (all points collinear) return
    the two extreme points; a single point returns itself.

    >>> convex_hull([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)])
    array([[0., 0.],
           [1., 0.],
           [1., 1.],
           [0., 1.]])
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) array, got shape {pts.shape}")
    if pts.shape[0] == 0:
        raise ValueError("cannot take the hull of an empty point set")
    # Sort lexicographically and drop exact duplicates.
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.any(np.diff(pts, axis=0) != 0.0, axis=1)
    pts = pts[keep]
    if pts.shape[0] == 1:
        return pts.copy()
    if pts.shape[0] == 2:
        return pts.copy()

    def half_hull(points_sorted):
        stack = []
        for p in points_sorted:
            while len(stack) >= 2 and _cross(stack[-2], stack[-1], p) <= 0:
                stack.pop()
            stack.append(p)
        return stack

    # Python floats: the same IEEE arithmetic as numpy scalars, at a
    # fraction of the per-operation cost.
    lower = half_hull(pts.tolist())
    upper = half_hull(pts[::-1].tolist())
    hull = np.array(lower[:-1] + upper[:-1])
    if hull.shape[0] < 3:
        # All points collinear: return the extreme pair.
        return np.array([pts[0], pts[-1]])
    return hull


def polygon_area(vertices) -> float:
    """Signed area of a polygon (positive when CCW), via the shoelace formula."""
    verts = np.asarray(vertices, dtype=float)
    if verts.shape[0] < 3:
        return 0.0
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def polygon_centroid(vertices) -> np.ndarray:
    """Centroid of a polygon; falls back to the vertex mean when degenerate."""
    verts = np.asarray(vertices, dtype=float)
    area = polygon_area(verts)
    if abs(area) < 1e-15:
        return verts.mean(axis=0)
    x, y = verts[:, 0], verts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    cx = float(np.sum((x + xn) * cross)) / (6.0 * area)
    cy = float(np.sum((y + yn) * cross)) / (6.0 * area)
    return np.array([cx, cy])


def point_in_polygon(point, vertices, tol: float = 1e-12) -> bool:
    """Ray-casting membership test; boundary points count as inside.

    Works for arbitrary simple polygons, convex or not.
    """
    verts = np.asarray(vertices, dtype=float)
    px, py = float(point[0]), float(point[1])
    n = verts.shape[0]
    if n == 0:
        return False
    if n == 1:
        return bool(np.hypot(px - verts[0, 0], py - verts[0, 1]) <= tol)
    # Boundary check: distance from each (non-degenerate) edge segment.
    ab = np.roll(verts, -1, axis=0) - verts
    denom = ab[:, 0] * ab[:, 0] + ab[:, 1] * ab[:, 1]
    edges = denom >= tol * tol
    a, ab, denom = verts[edges], ab[edges], denom[edges]
    t = np.clip(((px - a[:, 0]) * ab[:, 0] + (py - a[:, 1]) * ab[:, 1]) / denom,
                0.0, 1.0)
    proj = a + t[:, None] * ab
    if np.any(np.hypot(px - proj[:, 0], py - proj[:, 1]) <= tol):
        return True
    if n == 2:
        return False
    # Ray casting: count the edges (v[i-1], v[i]) crossed by the ray
    # from the point towards +x.
    xi, yi = verts[:, 0], verts[:, 1]
    xj, yj = np.roll(xi, 1), np.roll(yi, 1)
    straddle = (yi > py) != (yj > py)
    xi, yi, xj, yj = xi[straddle], yi[straddle], xj[straddle], yj[straddle]
    x_cross = xi + (py - yi) * (xj - xi) / (yj - yi)
    return bool(np.count_nonzero(px < x_cross) % 2)


def segment_midpoints(vertices) -> np.ndarray:
    """Midpoints of the edges of a closed polygon, shape ``(n, 2)``."""
    verts = np.asarray(vertices, dtype=float)
    return 0.5 * (verts + np.roll(verts, -1, axis=0))


class ConvexPolygon:
    """A convex region of the plane, stored as CCW hull vertices.

    This is the region container used by the Birkhoff-centre growth loop
    (Section V-C of the paper): the loop adds trajectory points with
    :meth:`expanded_with`, inspects :meth:`boundary_points` and
    :meth:`outward_normals` to look for escaping drift directions, and
    reports :meth:`contains` / :meth:`distance` for Figure 6 diagnostics.
    """

    def __init__(self, points):
        hull = convex_hull(points)
        if hull.shape[0] < 3:
            raise ValueError(
                "a ConvexPolygon needs at least 3 non-collinear points; "
                f"hull had {hull.shape[0]} vertices"
            )
        self.vertices = hull

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def area(self) -> float:
        """Area of the region (always positive: vertices are CCW)."""
        return polygon_area(self.vertices)

    @property
    def centroid(self) -> np.ndarray:
        return polygon_centroid(self.vertices)

    def contains(self, point, tol: float = 1e-9) -> bool:
        """Membership with a tolerance measured as distance to the region."""
        if point_in_polygon(point, self.vertices, tol=tol):
            return True
        return self.distance(point) <= tol

    def distance(self, point) -> float:
        """Euclidean distance from ``point`` to the region (0 if inside)."""
        if point_in_polygon(point, self.vertices):
            return 0.0
        p = np.asarray(point, dtype=float)
        a, ab = self.vertices, self.edges()
        denom = ab[:, 0] * ab[:, 0] + ab[:, 1] * ab[:, 1]
        along = (p[0] - a[:, 0]) * ab[:, 0] + (p[1] - a[:, 1]) * ab[:, 1]
        t = np.clip(np.divide(along, denom, out=np.zeros_like(along),
                              where=denom != 0.0), 0.0, 1.0)
        proj = a + t[:, None] * ab
        return float(np.min(np.hypot(p[0] - proj[:, 0], p[1] - proj[:, 1])))

    def signed_margin(self, points) -> np.ndarray:
        """Vectorised signed distance proxy to the boundary.

        For each point returns ``max_e (n_e . p - b_e)`` over the edge
        halfspaces: negative inside, and for outside points a lower bound
        on the true distance (exact when the nearest boundary point lies
        in an edge interior).  Used for fast "did the region actually
        grow" checks on large point clouds.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        normals = self.outward_normals()
        offsets = np.einsum("ij,ij->i", normals, self.vertices)
        return np.max(pts @ normals.T - offsets[None, :], axis=1)

    def edges(self) -> np.ndarray:
        """Edge vectors ``v[i+1] - v[i]``, shape ``(n, 2)``."""
        return np.roll(self.vertices, -1, axis=0) - self.vertices

    def outward_normals(self) -> np.ndarray:
        """Unit outward normals of each edge, shape ``(n, 2)``.

        Vertices are CCW, so the outward normal of edge ``(dx, dy)`` is
        ``(dy, -dx)`` normalised.
        """
        e = self.edges()
        normals = np.stack([e[:, 1], -e[:, 0]], axis=1)
        lengths = np.linalg.norm(normals, axis=1, keepdims=True)
        lengths[lengths == 0.0] = 1.0
        return normals / lengths

    def boundary_points(self, per_edge: int = 1) -> Tuple[np.ndarray, np.ndarray]:
        """Sample points on the boundary with their outward normals.

        Returns ``(points, normals)`` where each edge contributes
        ``per_edge`` equally spaced interior points (no shared vertices, so
        every sampled point has a well-defined normal).
        """
        if per_edge < 1:
            raise ValueError("per_edge must be >= 1")
        normals = self.outward_normals()
        pts, nrm = [], []
        n = self.n_vertices
        for i in range(n):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % n]
            for k in range(per_edge):
                t = (k + 1.0) / (per_edge + 1.0)
                pts.append(a + t * (b - a))
                nrm.append(normals[i])
        return np.array(pts), np.array(nrm)

    def expanded_with(self, points) -> "ConvexPolygon":
        """Return the convex hull of this region together with new points.

        Points strictly inside the region cannot be hull vertices, so
        they are dropped before re-hulling; points within round-off of
        the boundary are kept, which leaves the hull exactly as if every
        point had been passed.
        """
        extra = np.asarray(points, dtype=float)
        if extra.ndim == 1:
            extra = extra[None, :]
        scale = 1.0 + float(np.max(np.abs(self.vertices)))
        extra = extra[self.signed_margin(extra) > -1e-12 * scale]
        return ConvexPolygon(np.vstack([self.vertices, extra]))

    def simplified(self, tolerance: float, min_vertices: int = 8) -> "ConvexPolygon":
        """Drop vertices that deviate less than ``tolerance`` from their chord.

        Hulls of smooth trajectory clouds carry thousands of nearly
        collinear vertices; removing a vertex whose perpendicular
        distance to the chord of its neighbours is below ``tolerance``
        changes the region by at most ``tolerance`` locally while
        collapsing the vertex count.  The result is a subset of the
        original region (vertex removal only shrinks a convex polygon).
        """
        if tolerance <= 0:
            return ConvexPolygon(self.vertices)
        vertices = self.vertices
        changed = True
        while changed and vertices.shape[0] > min_vertices:
            changed = False
            keep = np.ones(vertices.shape[0], dtype=bool)
            n = vertices.shape[0]
            i = 0
            while i < n and np.count_nonzero(keep) > min_vertices:
                if not keep[i]:
                    i += 1
                    continue
                prev_i = (i - 1) % n
                next_i = (i + 1) % n
                while not keep[prev_i]:
                    prev_i = (prev_i - 1) % n
                while not keep[next_i]:
                    next_i = (next_i + 1) % n
                a, b, c = vertices[prev_i], vertices[i], vertices[next_i]
                chord = c - a
                norm = np.hypot(*chord)
                if norm < 1e-15:
                    deviation = float(np.hypot(*(b - a)))
                else:
                    deviation = abs(_cross(a, c, b)) / norm
                if deviation < tolerance:
                    keep[i] = False
                    changed = True
                    i += 2  # skip the neighbour to avoid cascading drops
                else:
                    i += 1
            vertices = vertices[keep]
        if vertices.shape[0] < 3:
            return ConvexPolygon(self.vertices)
        return ConvexPolygon(vertices)

    def __repr__(self) -> str:
        return f"ConvexPolygon({self.n_vertices} vertices, area={self.area:.4g})"
