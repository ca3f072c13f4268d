"""Birkhoff-centre computation for two-dimensional inclusions.

The Birkhoff centre ``B_F`` (Eq. 1 of the paper) is the closure of the
recurrent points of the inclusion — the set on which stationary measures
concentrate (Theorem 3).  Section V-C gives a constructive algorithm for
2-D systems, implemented here:

1. integrate ``x' = f(x, theta_max)`` to its stable fixed point ``x0``;
2. integrate ``x' = f(x, theta_min)`` from ``x0`` (trajectory ``x1``) and
   ``x' = f(x, theta_max)`` from ``x1``'s endpoint (trajectory ``x2``);
   the two curves delimit a region inside the Birkhoff centre;
3. *grow*: while some boundary point admits a parameter whose drift
   points outward, integrate a trajectory with that parameter from that
   point and add it to the region (convex hull).  Each round scans the
   whole boundary in one batched extremiser call and integrates all of
   its escape trajectories as the lanes of one
   :func:`~repro.ode.dopri_batch` solve (the seed trajectories of step
   2 likewise share one solve);
4. terminate when the drift points inward everywhere on the boundary —
   the region is then forward-invariant and no solution can leave it.

Step 1–2 are generalised to multi-parameter ``Theta`` by seeding with
trajectories between the fixed points of *all* corner parameters.

The returned region is a convex *outer* shell of the Birkhoff centre
built from trajectories that are themselves recurrent-set witnesses; the
paper argues (and Figure 3 shows) that for the SIR model the grown convex
region *is* the Birkhoff centre.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro import telemetry
from repro.geometry import ConvexPolygon, convex_hull
from repro.inclusion import DriftExtremizer
from repro.ode import dopri_batch, find_fixed_point, find_fixed_point_batch

__all__ = ["BirkhoffResult", "birkhoff_centre_2d", "uncertain_fixed_points"]


@dataclass
class BirkhoffResult:
    """Outcome of the Birkhoff-centre construction.

    Attributes
    ----------
    polygon:
        The grown convex region (``None`` when degenerate).
    points:
        The final polygon's vertices; for a degenerate result, the seed
        points (fixed points and seed trajectories) instead.
    corner_fixed_points:
        The equilibria of the corner parameters used as seeds.
    certified:
        Whether the final boundary scan found no outward drift above the
        drift tolerance (the forward-invariance certificate).
    converged:
        Whether the growth loop terminated because the region stopped
        expanding (spatially stable); implied by ``certified``.
    degenerate:
        ``True`` when the seeds collapse to (numerically) one point —
        e.g. a singleton ``Theta`` whose ODE has a unique attractor; the
        Birkhoff centre is then the point itself.
    rounds:
        Number of growth rounds executed.
    max_outward_drift:
        The largest outward drift component found in the final scan
        (``<= tolerance`` when certified).
    """

    polygon: Optional[ConvexPolygon]
    points: np.ndarray
    corner_fixed_points: np.ndarray
    certified: bool
    degenerate: bool
    rounds: int
    max_outward_drift: float
    converged: bool = False
    history: List[float] = field(default_factory=list)

    def contains(self, point, tol: float = 1e-7) -> bool:
        """Membership in the computed region (point proximity if degenerate)."""
        if self.degenerate or self.polygon is None:
            return bool(
                np.min(np.linalg.norm(self.points - np.asarray(point), axis=1)) <= tol
            )
        return self.polygon.contains(point, tol=tol)

    def distance(self, point) -> float:
        """Distance from a point to the region."""
        if self.degenerate or self.polygon is None:
            return float(
                np.min(np.linalg.norm(self.points - np.asarray(point), axis=1))
            )
        return self.polygon.distance(point)


def birkhoff_centre_2d(
    model,
    x0_guess=None,
    settle_time: float = 60.0,
    loop_time: float = 40.0,
    grow_time: float = 30.0,
    per_edge: int = 2,
    max_rounds: int = 120,
    tolerance: float = 1e-4,
    degenerate_diameter: float = 1e-6,
    extremizer: Optional[DriftExtremizer] = None,
    samples_per_trajectory: int = 200,
    max_escapes_per_round: int = 24,
    simplify_tolerance: float = 5e-6,
    spatial_tolerance: float = 1e-4,
) -> BirkhoffResult:
    """Run the Section V-C construction on a 2-D model.

    Parameters
    ----------
    model:
        A two-dimensional population model.
    x0_guess:
        Starting point for locating the first fixed point; defaults to
        the centre of the declared state bounds.
    settle_time:
        Integration time used to approach fixed points.
    loop_time:
        Length of the seed trajectories between corner fixed points.
    grow_time:
        Length of the escape trajectories integrated during growth.
    per_edge:
        Boundary samples per polygon edge scanned for outward drift.
    max_rounds:
        Cap on growth rounds.
    tolerance:
        Outward-drift threshold (normal component of the support
        function) below which the boundary is considered inward.
    degenerate_diameter:
        Seed clouds with a smaller diameter are reported as degenerate.
    max_escapes_per_round:
        Cap on the escape trajectories integrated per round; when more
        boundary points drift outward, the worst offenders are grown
        first (the rest get their turn next round).
    simplify_tolerance:
        Collinearity tolerance for vertex simplification between rounds;
        keeps the boundary scan linear instead of quadratic in the
        accumulated trajectory points.
    spatial_tolerance:
        Growth stopping rule: a round whose escape trajectories extend
        the region by less than this distance ends the loop with
        ``converged=True`` — the region is stable in Hausdorff distance
        even when a residual boundary drift above ``tolerance`` remains
        (the certificate flag then stays ``False``).
    """
    if model.dim != 2:
        raise ValueError("birkhoff_centre_2d requires a two-dimensional model")
    extremizer = extremizer or DriftExtremizer(model)
    if x0_guess is None:
        if model.state_lower is not None:
            x0_guess = 0.5 * (model.state_lower + model.state_upper)
        else:
            x0_guess = np.full(model.dim, 0.5)
    x0_guess = np.asarray(x0_guess, dtype=float)

    corners = model.theta_set.corners()
    with telemetry.span("steadystate.birkhoff") as sp:
        # Step 1: fixed point of each corner parameter (continuation
        # between corners keeps the solves cheap and on the same
        # attractor branch).
        fixed_points = []
        current_guess = x0_guess
        for theta in corners:
            fp = find_fixed_point(
                model.drift_fn(theta), current_guess, settle_time=settle_time
            )
            fixed_points.append(fp)
            current_guess = fp
        fixed_points = np.array(fixed_points)

        # Step 2: seed trajectories between fixed points under switched
        # corner parameters (the paper's x1 / x2 loop, generalised), all
        # (start, parameter) pairs as the lanes of one batched solve.
        n_corners = corners.shape[0]
        start, param = np.array([
            (i, j) for i in range(n_corners) for j in range(n_corners)
            if i != j or n_corners == 1
        ]).T
        seeds = dopri_batch(
            lambda t, X, th: model.drift_batch(X, th),
            fixed_points[start],
            (0.0, loop_time),
            t_eval=np.linspace(0.0, loop_time, samples_per_trajectory),
            lane_args=corners[param],
        )
        cloud = np.vstack([fixed_points, seeds.states.reshape(-1, model.dim)])

        diameter = float(
            np.max(np.linalg.norm(cloud - cloud.mean(axis=0), axis=1), initial=0.0)
        )
        if diameter <= degenerate_diameter:
            sp.set("rounds", 0)
            sp.set("escape_lanes", 0)
            sp.set("certified", True)
            return BirkhoffResult(
                polygon=None,
                points=cloud,
                corner_fixed_points=fixed_points,
                certified=True,
                degenerate=True,
                rounds=0,
                max_outward_drift=0.0,
                converged=True,
            )

        hull = convex_hull(cloud)
        if hull.shape[0] < 3:
            # Collinear seed cloud: nudge along the normal direction to
            # give the hull area; the growth loop will immediately
            # correct it.
            direction = hull[-1] - hull[0]
            normal = np.array([-direction[1], direction[0]])
            norm = np.linalg.norm(normal)
            normal = normal / norm if norm > 0 else np.array([0.0, 1.0])
            cloud = np.vstack([cloud, cloud.mean(axis=0) + 1e-8 * normal])
        polygon = ConvexPolygon(cloud)

        # Step 3: growth loop.  The outward excursion is often brief (the
        # flow curves back into the recurrent set), so the early part of
        # each escape is sampled densely or the hull gain is missed
        # entirely.
        early = min(1.0, 0.1 * grow_time)
        t_escape = np.unique(
            np.concatenate(
                [
                    np.linspace(0.0, early, samples_per_trajectory // 2),
                    np.linspace(early, grow_time, samples_per_trajectory // 2),
                ]
            )
        )
        history: List[float] = []
        certified = False
        converged = False
        max_outward = np.inf
        rounds = 0
        escape_lanes = 0
        for rounds in range(1, max_rounds + 1):
            boundary, normals = polygon.boundary_points(per_edge=per_edge)
            thetas, outward = extremizer.maximize_direction_batch(
                boundary, normals
            )
            max_outward = float(np.max(outward))
            history.append(max_outward)
            escaping = np.nonzero(outward > tolerance)[0]
            if escaping.size == 0:
                certified = True
                converged = True
                break
            # Worst offenders first; the rest get their turn next round.
            chosen = escaping[np.argsort(-outward[escaping], kind="stable")]
            chosen = chosen[:max_escapes_per_round]
            escape_lanes += chosen.size
            escapes = dopri_batch(
                lambda t, X, th: model.drift_batch(X, th),
                boundary[chosen],
                (0.0, grow_time),
                t_eval=t_escape,
                rtol=1e-8,
                atol=1e-10,
                lane_args=thetas[chosen],
            )
            escape_cloud = escapes.states.reshape(-1, model.dim)
            gain = float(np.max(polygon.signed_margin(escape_cloud)))
            if gain <= spatial_tolerance:
                converged = True
                break
            polygon = polygon.expanded_with(escape_cloud)
            polygon = polygon.simplified(simplify_tolerance)

        sp.set("rounds", rounds)
        sp.set("escape_lanes", escape_lanes)
        sp.set("certified", certified)
    return BirkhoffResult(
        polygon=polygon,
        points=polygon.vertices,
        corner_fixed_points=fixed_points,
        certified=certified,
        degenerate=False,
        rounds=rounds,
        max_outward_drift=max_outward,
        converged=converged,
        history=history,
    )


def uncertain_fixed_points(
    model,
    resolution: int = 41,
    x0_guess=None,
    settle_time: float = 60.0,
    batch: bool = True,
) -> np.ndarray:
    """Equilibria of the uncertain models over a parameter grid.

    Returns an ``(m, dim)`` array: the fixed point of
    ``x' = f(x, theta)`` for each ``theta`` on a uniform grid of
    ``Theta``.  For the SIR model this is the red steady-state curve of
    Figures 3 and 5; by Corollary 2 the stationary measures of the
    uncertain processes concentrate on these points.

    With ``batch`` enabled (the default) the whole grid settles at once
    through :func:`~repro.ode.find_fixed_point_batch` — one vectorized
    integrator loop instead of one scipy solve per ``theta``, each lane
    started from ``x0_guess`` and Newton-polished to the same tolerance.
    The scalar path (``batch=False``) keeps the legacy warm-started
    continuation along the grid; both land on the same attractor branch
    for the catalog models and are pinned against each other in the
    differential suite.
    """
    if x0_guess is None:
        if model.state_lower is not None:
            x0_guess = 0.5 * (model.state_lower + model.state_upper)
        else:
            x0_guess = np.full(model.dim, 0.5)
    guess = np.asarray(x0_guess, dtype=float)
    with telemetry.span("steadystate.fixed_points", resolution=resolution,
                        batch=batch):
        thetas = model.theta_set.grid(resolution)
        if batch:
            result = find_fixed_point_batch(
                lambda X, th: model.drift_batch(X, th),
                np.broadcast_to(guess, (thetas.shape[0], model.dim)),
                settle_time=settle_time,
                lane_args=thetas,
            )
            if not result.converged.all():
                # Mirror the scalar path's near-miss signal: lanes inside
                # the acceptance band but above tol are usable, not silent.
                n_loose = int(np.count_nonzero(~result.converged))
                warnings.warn(
                    f"{n_loose} of {len(result)} equilibria settled with "
                    f"residual above tolerance (worst |f| = "
                    f"{float(result.residuals.max()):.2e})",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return result.points
        out = np.empty((thetas.shape[0], model.dim))
        for k, theta in enumerate(thetas):
            fp = find_fixed_point(model.drift_fn(theta), guess, settle_time=settle_time)
            out[k] = fp
            guess = fp
        return out
