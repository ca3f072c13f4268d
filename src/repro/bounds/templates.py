"""Convex template bounds in arbitrary dimension.

The remark closing Section IV-C: the Pontryagin iteration extends from
coordinate bounds to any **convex template polyhedron** — pick a set of
directions ``c_k``, compute ``h_k = max c_k . x(T)`` with one sweep per
direction, and intersect the halfspaces ``c_k . x <= h_k``.  The sweeps
run as one lane per direction of a single
:func:`~repro.bounds.pontryagin.extremal_trajectories_batch` call.  This
module provides that machinery for models of any dimension (the 2-D
vertex-enumeration convenience lives in
:func:`repro.bounds.reachable_polytope_2d`):

- :class:`TemplatePolytope` — a halfspace intersection with membership,
  support and box-projection queries;
- :func:`template_reachable_bounds` — the polytope enclosing the
  reachable set of the mean-field inclusion at a horizon;
- :func:`box_directions` / :func:`octagon_directions` — standard
  template families (axis-aligned box; box + pairwise diagonals).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.bounds.pontryagin import extremal_trajectories_batch
from repro.inclusion import DriftExtremizer

__all__ = [
    "TemplatePolytope",
    "box_directions",
    "octagon_directions",
    "template_reachable_bounds",
]


def box_directions(dim: int) -> np.ndarray:
    """The ``2 d`` axis-aligned template directions ``±e_i``."""
    if dim < 1:
        raise ValueError("dim must be positive")
    eye = np.eye(dim)
    return np.vstack([eye, -eye])


def octagon_directions(dim: int) -> np.ndarray:
    """Box directions plus all pairwise diagonals ``(±e_i ± e_j) / sqrt(2)``.

    In 2-D this is the classical octagon template (8 directions); in
    ``d`` dimensions it has ``2 d + 4 C(d, 2)`` directions and captures
    the pairwise correlations the box misses.
    """
    directions = [box_directions(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    v = np.zeros(dim)
                    v[i], v[j] = si, sj
                    directions.append((v / np.sqrt(2.0))[None, :])
    return np.vstack(directions)


@dataclass
class TemplatePolytope:
    """A polytope ``{x : directions @ x <= offsets}``.

    Attributes
    ----------
    directions:
        Template directions, shape ``(m, d)`` (need not be normalised).
    offsets:
        Support values in each direction, shape ``(m,)``.
    """

    directions: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        self.directions = np.asarray(self.directions, dtype=float)
        self.offsets = np.asarray(self.offsets, dtype=float)
        if self.directions.ndim != 2:
            raise ValueError("directions must be a (m, d) array")
        if self.offsets.shape != (self.directions.shape[0],):
            raise ValueError("one offset per direction is required")

    @property
    def dim(self) -> int:
        return self.directions.shape[1]

    @property
    def n_halfspaces(self) -> int:
        return self.directions.shape[0]

    def contains(self, x, tol: float = 1e-9) -> bool:
        """Whether ``x`` satisfies every halfspace (up to ``tol``)."""
        x = np.asarray(x, dtype=float)
        return bool(np.all(self.directions @ x <= self.offsets + tol))

    def margin(self, x) -> float:
        """Largest constraint violation (negative inside)."""
        x = np.asarray(x, dtype=float)
        return float(np.max(self.directions @ x - self.offsets))

    def support(self, direction) -> float:
        """Support value for a template direction (must match one row).

        A direction may appear on several rows — :meth:`intersect`
        stacks the halfspaces of both operands verbatim — and the
        polytope satisfies *all* of them, so the support value is the
        tightest (minimum) matching offset, not the first one found.
        """
        direction = np.asarray(direction, dtype=float)
        matches = np.all(np.isclose(self.directions, direction), axis=1)
        if not matches.any():
            raise KeyError("direction is not part of the template")
        return float(np.min(self.offsets[matches]))

    def bounding_box(self) -> Optional[tuple]:
        """The axis-aligned box implied by the ``±e_i`` rows, if present.

        Returns ``(lower, upper)`` arrays or ``None`` when the template
        does not contain the full box family.
        """
        lower = np.full(self.dim, np.nan)
        upper = np.full(self.dim, np.nan)
        for i in range(self.dim):
            e = np.zeros(self.dim)
            e[i] = 1.0
            try:
                upper[i] = self.support(e)
                lower[i] = -self.support(-e)
            except KeyError:
                return None
        return lower, upper

    def intersect(self, other: "TemplatePolytope") -> "TemplatePolytope":
        """Conjunction of two templates (stacked halfspaces)."""
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return TemplatePolytope(
            np.vstack([self.directions, other.directions]),
            np.concatenate([self.offsets, other.offsets]),
        )


def template_reachable_bounds(
    model,
    x0,
    horizon: float,
    directions=None,
    n_steps: int = 300,
    max_iter: int = 100,
    extremizer: Optional[DriftExtremizer] = None,
    batch: bool = True,
) -> TemplatePolytope:
    """Template polytope enclosing the reachable set at ``horizon``.

    One Pontryagin sweep per template direction, run as one lane per
    direction of a single :func:`extremal_trajectories_batch` call
    (``batch`` only selects the extremiser's mode).  Works in any
    dimension (used for the 4-D GPS MAP model); defaults to the octagon
    template.
    Soundness: every solution of the imprecise inclusion satisfies
    ``c_k . x(T) <= h_k`` for all ``k``, so the polytope contains the
    exact reachable set (it is *not* tight in non-template directions).
    """
    if directions is None:
        directions = octagon_directions(model.dim)
    directions = np.asarray(directions, dtype=float)
    if directions.ndim != 2 or directions.shape[1] != model.dim:
        raise ValueError(
            f"directions must be (m, {model.dim}); got {directions.shape}"
        )
    extremizer = extremizer or DriftExtremizer(model, batch=batch)
    results = extremal_trajectories_batch(
        model, x0, [(c, True, horizon, n_steps) for c in directions],
        max_iter=max_iter, extremizer=extremizer,
    )
    offsets = np.array([result.value for result in results])
    return TemplatePolytope(directions.copy(), offsets)
