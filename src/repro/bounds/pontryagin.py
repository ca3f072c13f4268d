"""Reachability bounds via Pontryagin's maximum principle (Section IV-C).

The extreme value of a linear functional ``c . x(T)`` over the solutions
of the mean-field inclusion is an optimal-control problem: choose the
measurable signal ``theta(t) in Theta`` maximising ``c . x(T)`` subject to
``x' = f(x, theta)``.  Pontryagin's principle gives necessary conditions
(Eqs. 7–9 of the paper): along an optimal trajectory there is a costate
``p`` with

.. math::
    \\dot x = f(x, \\theta), \\qquad
    \\theta(t) \\in \\arg\\max_\\theta \\; p \\cdot f(x, \\theta), \\qquad
    \\dot p = -\\Big(\\frac{\\partial f}{\\partial x}\\Big)^T p,
    \\qquad p(T) = c.

(The paper states the terminal condition as ``p_i(T) = -1`` with the same
argmax; that sign convention pairs with a minimum-principle reading — we
use the standard maximum-principle convention above, and obtain minima by
negating ``c``.)

:func:`extremal_trajectory` solves these conditions with the fixed-point
(forward–backward sweep) iteration the paper describes: integrate the
state forward under the current control, the costate backward along the
stored state, re-maximise the Hamiltonian pointwise, repeat until the
control stabilises.  For the affine-in-theta models the Hamiltonian
maximiser is bang-bang, so the iteration converges in a handful of
sweeps; the convergence test combines control stability with objective
stability to tolerate chattering on the measure-zero switching set.

:func:`pontryagin_transient_bounds` evaluates the bounds over a grid of
horizons (the curves of Figures 1 and 7), warm-starting each horizon with
the previous control signal.  :func:`reachable_polytope_2d` assembles the
convex template polyhedron of the remark in Section IV-C.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.inclusion import DriftExtremizer
from repro.ode import (
    Trajectory,
    pad_grids,
    rk4_integrate,
    rk4_integrate_controlled,
    rk4_integrate_controlled_batch,
)

__all__ = [
    "PontryaginResult",
    "TransientBounds",
    "extremal_trajectory",
    "extremal_trajectories_batch",
    "pontryagin_transient_bounds",
    "switching_times",
    "reachable_polytope_2d",
]


@dataclass
class PontryaginResult:
    """An extremal trajectory produced by the forward–backward sweep.

    Attributes
    ----------
    times:
        The shared time grid, shape ``(n,)``.
    states, costates:
        State and costate along the grid, shape ``(n, d)``.
    controls:
        Piecewise-constant parameter signal, one row per grid *interval*,
        shape ``(n - 1, p)``.
    direction:
        The template direction ``c`` of the objective ``c . x(T)``.
    maximize:
        Whether the objective was maximised (else minimised).
    value:
        The achieved objective ``c . x(T)``.
    converged, iterations:
        Sweep diagnostics.
    """

    times: np.ndarray
    states: np.ndarray
    costates: np.ndarray
    controls: np.ndarray
    direction: np.ndarray
    maximize: bool
    value: float
    converged: bool
    iterations: int

    @property
    def trajectory(self) -> Trajectory:
        """The extremal state trajectory."""
        return Trajectory(self.times, self.states)

    def control_at(self, t: float) -> np.ndarray:
        """The parameter applied at time ``t`` (left-continuous lookup).

        ``controls[i]`` is in force on the grid interval
        ``(times[i], times[i + 1]]``, so querying exactly at a grid
        point returns the control that *was driving the state into it*
        — the left limit, matching the piecewise-constant-control
        convention documented here.  (Interior queries are unaffected;
        queries at or before ``times[0]`` clamp to the first interval.)
        """
        index = int(np.searchsorted(self.times, t, side="left") - 1)
        index = min(max(index, 0), self.controls.shape[0] - 1)
        return self.controls[index].copy()


def _control_index(times: np.ndarray, t: float, n_controls: int) -> int:
    index = int(np.searchsorted(times, t, side="right") - 1)
    return min(max(index, 0), n_controls - 1)


def extremal_trajectory(
    model,
    x0,
    horizon: float,
    direction,
    maximize: bool = True,
    n_steps: int = 400,
    max_iter: int = 100,
    tol: float = 1e-7,
    value_tol: float = 1e-6,
    value_patience: int = 3,
    chatter_intervals: int = 2,
    extremizer: Optional[DriftExtremizer] = None,
    initial_controls: Optional[np.ndarray] = None,
    batch: bool = True,
) -> PontryaginResult:
    """Compute the trajectory extremising ``direction . x(T)``.

    Parameters
    ----------
    model:
        Population model (drift, Jacobian, ``Theta``).
    x0:
        Initial state.
    horizon:
        Terminal time ``T > 0``.
    direction:
        Template direction ``c`` (e.g. a coordinate axis for the
        ``x_I^max`` curves of Figure 1, or an observable weight vector).
    maximize:
        Maximise when ``True``, minimise when ``False``.
    n_steps:
        RK4 grid intervals shared by state, costate and control.
    max_iter, tol, value_patience, chatter_intervals:
        Sweep termination: stop when the control signal changed on at
        most ``chatter_intervals`` grid intervals (a bang-bang switch
        boundary hopping between neighbouring cells is a discretisation
        artefact, not non-convergence), or when the objective moved by
        less than ``tol`` (relative) for ``value_patience`` consecutive
        sweeps.
    extremizer:
        Optional pre-built Hamiltonian maximiser.
    initial_controls:
        Warm-start control signal, shape ``(n_steps, p)``; defaults to
        the centre of ``Theta`` on every interval.
    batch:
        Whether the default extremiser uses the vectorized batch
        kernels; the Hamiltonian re-maximisation of step (8) always
        goes through one
        :meth:`~repro.inclusion.DriftExtremizer.maximize_direction_batch`
        call per sweep (all ``n_steps`` grid intervals at once), so
        ``batch=False`` — or a pre-built ``batch=False`` extremiser —
        reduces it to the legacy one-interval-at-a-time loop for
        differential testing.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if n_steps < 2:
        raise ValueError("n_steps must be >= 2")
    x0 = np.asarray(x0, dtype=float)
    direction = np.asarray(direction, dtype=float)
    if direction.shape != (model.dim,):
        raise ValueError(
            f"direction has shape {direction.shape}, expected ({model.dim},)"
        )
    if not np.any(direction != 0.0):
        raise ValueError("direction must be non-zero")
    extremizer = extremizer or DriftExtremizer(model, batch=batch)
    # Internally we always maximise c . x(T).
    c = direction if maximize else -direction
    grid = np.linspace(0.0, float(horizon), n_steps + 1)

    if initial_controls is None:
        controls = np.tile(model.theta_set.center(), (n_steps, 1))
    else:
        controls = np.array(initial_controls, dtype=float)
        if controls.ndim == 1:
            controls = controls[:, None]
        if controls.shape != (n_steps, model.theta_dim):
            raise ValueError(
                f"initial_controls has shape {controls.shape}, expected "
                f"({n_steps}, {model.theta_dim})"
            )

    def dynamics(t, x, u):
        return model.drift(x, u)

    best: Optional[Tuple[float, np.ndarray, np.ndarray, np.ndarray]] = None
    value_prev = None
    stable_count = 0
    converged = False
    iterations = 0
    costate_states = np.tile(c, (n_steps + 1, 1))
    # Full-replacement updates can 2-cycle around a bang-bang switch; the
    # parameter set is convex, so relaxed (blended) controls are
    # admissible and the step shrinks whenever the objective regresses.
    relaxation = 1.0

    # Hoisted live handles: one registry lookup before the sweep, plain
    # attribute ops per iteration (None when telemetry is disabled).
    iter_counter = telemetry.live_counter("pontryagin.iterations")
    relax_counter = telemetry.live_counter("pontryagin.relaxation_events")
    residual_hist = telemetry.live_histogram("pontryagin.value_residual")

    for iterations in range(1, max_iter + 1):
        if iter_counter is not None:
            iter_counter.inc()
        # (7) forward state sweep under the current control.
        x_traj = rk4_integrate_controlled(dynamics, x0, grid, controls)
        value = float(c @ x_traj.final_state)
        if best is None or value > best[0]:
            best = (value, x_traj.states.copy(), costate_states.copy(),
                    controls.copy())

        # (9) backward costate sweep along the stored state.
        def costate_field(t, p):
            x = x_traj(t)
            u = controls[_control_index(grid, t, n_steps)]
            return -model.jacobian_x(x, u).T @ p

        p_rev = rk4_integrate(costate_field, c, grid[::-1])
        costate_states = p_rev.states[::-1].copy()

        # (8) pointwise Hamiltonian maximisation -> target control signal:
        # all n_steps grid intervals in one batched call.
        target_controls, _ = extremizer.maximize_direction_batch(
            x_traj.states[:-1], costate_states[:-1]
        )

        changed = np.any(np.abs(target_controls - controls) > tol, axis=1)
        n_changed = int(np.count_nonzero(changed))
        if n_changed <= chatter_intervals:
            converged = True
            # One final forward pass under the fixed-point control.
            controls = target_controls
            x_traj = rk4_integrate_controlled(dynamics, x0, grid, controls)
            value = float(c @ x_traj.final_state)
            if value >= best[0]:
                best = (value, x_traj.states.copy(), costate_states.copy(),
                        controls.copy())
            break
        if value_prev is not None and residual_hist is not None:
            residual_hist.observe(abs(value - value_prev))
        if value_prev is not None and value < value_prev - value_tol:
            relaxation = max(0.5 * relaxation, 0.05)
            if relax_counter is not None:
                relax_counter.inc()
        if value_prev is not None and abs(value - value_prev) <= value_tol * max(
            1.0, abs(value)
        ):
            stable_count += 1
            if stable_count >= value_patience:
                converged = True
                break
        else:
            stable_count = 0
        value_prev = value
        controls = controls + relaxation * (target_controls - controls)

    value, states, costates, controls = best
    # Relaxed iterations can leave blended (interior) controls; project
    # back to the pointwise Hamiltonian maximiser — the PMP-consistent
    # bang-bang signal — and keep it when it does not lose value.
    projected, _ = extremizer.maximize_direction_batch(
        states[:-1], costates[:-1]
    )
    x_proj = rk4_integrate_controlled(dynamics, x0, grid, projected)
    value_proj = float(c @ x_proj.final_state)
    if value_proj >= value - value_tol * max(1.0, abs(value)):
        value = max(value, value_proj)
        states = x_proj.states.copy()
        controls = projected

    return PontryaginResult(
        times=grid,
        states=states,
        costates=costates,
        controls=controls,
        direction=direction.copy(),
        maximize=maximize,
        value=value if maximize else -value,
        converged=converged,
        iterations=iterations,
    )


def _costate_sweep_batch(model, T, steps, states, controls, C, w_mid,
                         idx_right):
    """Backward costate integration for a whole lane set at once.

    During one backward sweep the state trajectory and control signal
    are *frozen*, so every Jacobian the RK4 stages will request is known
    in advance: per interval ``j`` the stages evaluate
    ``J(x(T[j+1]), u)`` (the node entered backward), ``J(x_mid, u_j)``
    (the half step, twice) and ``J(x(T[j]), u_j)``.  All three stacks
    are produced by a single batched
    :meth:`~repro.population.PopulationModel.jacobian_x_batch` call
    over every lane and interval; the recursion itself is then pure
    matrix–vector arithmetic per lockstep step, mirroring the scalar
    RK4 stage expressions (lanes whose grid is exhausted freeze).
    Returns the costate stack in forward orientation, ``(L, n+1, d)``.
    """
    L, n_plus_1, d = states.shape
    n_max = n_plus_1 - 1
    lanes = np.arange(L)
    x_left = states[:, :-1]
    x_right = states[:, 1:]
    x_mid = x_left + w_mid[:, :, None] * (x_right - x_left)
    u_right = controls[lanes[:, None], idx_right]
    flat = lambda arr: arr.reshape(L * n_max, -1)  # noqa: E731
    jacs = model.jacobian_x_batch(
        np.concatenate([flat(x_right), flat(x_mid), flat(x_left)]),
        np.concatenate([flat(u_right), flat(controls), flat(controls)]),
    ).reshape(3, L, n_max, d, d)
    j_right, j_mid, j_left = jacs[0], jacs[1], jacs[2]

    p = C.copy()
    costates = np.tile(C[:, None, :], (1, n_plus_1, 1))
    for i in range(int(steps.max())):
        j = steps - 1 - i
        live = j >= 0
        jc = np.where(live, j, 0)
        dt = T[lanes, jc] - T[lanes, jc + 1]  # negative: backward in time
        dtc = dt[:, None]
        jr = j_right[lanes, jc]
        jm = j_mid[lanes, jc]
        jl = j_left[lanes, jc]
        k1 = -np.einsum("lkj,lk->lj", jr, p)
        k2 = -np.einsum("lkj,lk->lj", jm, p + 0.5 * dtc * k1)
        k3 = -np.einsum("lkj,lk->lj", jm, p + 0.5 * dtc * k2)
        k4 = -np.einsum("lkj,lk->lj", jl, p + dtc * k3)
        p_new = p + (dtc / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        p = np.where(live[:, None], p_new, p)
        costates[lanes[live], j[live]] = p[live]
    return costates


def extremal_trajectories_batch(
    model,
    x0,
    specs: Sequence,
    max_iter: int = 100,
    tol: float = 1e-7,
    value_tol: float = 1e-6,
    value_patience: int = 3,
    chatter_intervals: int = 2,
    extremizer: Optional[DriftExtremizer] = None,
    deadline_seconds: Optional[float] = None,
) -> List[PontryaginResult]:
    with telemetry.span("pontryagin.sweep", lanes=len(specs)):
        return _extremal_trajectories_batch_impl(
            model, x0, specs,
            max_iter=max_iter, tol=tol, value_tol=value_tol,
            value_patience=value_patience,
            chatter_intervals=chatter_intervals, extremizer=extremizer,
            deadline_seconds=deadline_seconds,
        )


def _extremal_trajectories_batch_impl(
    model,
    x0,
    specs: Sequence,
    max_iter: int = 100,
    tol: float = 1e-7,
    value_tol: float = 1e-6,
    value_patience: int = 3,
    chatter_intervals: int = 2,
    extremizer: Optional[DriftExtremizer] = None,
    deadline_seconds: Optional[float] = None,
) -> List[PontryaginResult]:
    """Run many forward–backward sweeps as one lane-parallel batch.

    Each spec is a ``(direction, maximize, horizon, n_steps)`` tuple
    describing one extremal-trajectory problem; all of them advance in
    lockstep through the batched RK4 kernels: per iteration the forward
    state sweep is *one* :func:`~repro.ode.rk4_integrate_controlled_batch`
    call, the backward costate sweep one :func:`_costate_sweep_batch`
    call (every stage's Jacobian from one
    :meth:`~repro.population.PopulationModel.jacobian_x_batch` call), and the
    Hamiltonian re-maximisation one extremiser call over every lane's
    every grid interval.  Per-lane convergence masks let converged lanes
    retire — they stop consuming forward/backward work — while the rest
    keep sweeping.

    Lane iteration logic (relaxation schedule, best-iterate tracking,
    chatter-tolerant convergence, bang-bang projection) mirrors
    :func:`extremal_trajectory` lane by lane from a cold start, so each
    returned :class:`PontryaginResult` matches the scalar sweep of the
    same problem to integrator round-off.

    ``deadline_seconds`` is a wall-clock budget for graceful
    degradation: when the sweep loop exceeds it, iteration stops and
    every still-active lane reports its best-so-far value with
    ``converged=False`` (the first iteration always completes, so a
    best iterate exists, and the final bang-bang projection pass still
    runs).  Deadline hits stamp
    ``resilience.pontryagin.deadline_hits``.
    """
    if not specs:
        return []
    x0 = np.asarray(x0, dtype=float)
    extremizer = extremizer or DriftExtremizer(model)
    L = len(specs)
    d, p = model.dim, model.theta_dim

    directions = np.empty((L, d))
    maximize = np.empty(L, dtype=bool)
    grids = []
    for l, (direction, is_max, horizon, n_steps) in enumerate(specs):
        direction = np.asarray(direction, dtype=float)
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if n_steps < 2:
            raise ValueError("n_steps must be >= 2")
        if direction.shape != (d,):
            raise ValueError(
                f"direction has shape {direction.shape}, expected ({d},)"
            )
        if not np.any(direction != 0.0):
            raise ValueError("direction must be non-zero")
        directions[l] = direction
        maximize[l] = bool(is_max)
        grids.append(np.linspace(0.0, float(horizon), int(n_steps) + 1))
    # Internally every lane maximises c . x(T).
    C = np.where(maximize[:, None], directions, -directions)
    T, steps = pad_grids(grids)
    n_max = T.shape[1] - 1
    lanes_all = np.arange(L)
    interval_live = np.arange(n_max)[None, :] < steps[:, None]
    # Stage geometry of the backward sweeps (fixed across iterations):
    # the mid-stage interpolation weight per interval, and the control
    # interval the node-entry stage reads (the piecewise-constant lookup
    # clips at the terminal interval, exactly as the scalar sweep does).
    span = T[:, 1:] - T[:, :-1]
    t_mid = T[:, 1:] + 0.5 * (T[:, :-1] - T[:, 1:])
    with np.errstate(invalid="ignore", divide="ignore"):
        w_mid = np.where(span != 0.0, (t_mid - T[:, :-1]) / span, 0.5)
    idx_right = np.minimum(np.arange(1, n_max + 1)[None, :],
                           (steps - 1)[:, None])

    controls = np.tile(model.theta_set.center(), (L, n_max, 1))
    x0_stack = np.broadcast_to(x0, (L, d)).copy()

    def dynamics(t, X, U):
        return model.drift_batch(X, U)

    # Per-lane sweep state (mirrors the scalar loop variable for variable).
    best_value = np.full(L, -np.inf)
    best_states = np.zeros((L, n_max + 1, d))
    best_costates = np.tile(C[:, None, :], (1, n_max + 1, 1))
    best_controls = controls.copy()
    value_prev = np.zeros(L)
    has_prev = np.zeros(L, dtype=bool)
    stable = np.zeros(L, dtype=int)
    relaxation = np.ones(L)
    converged = np.zeros(L, dtype=bool)
    iterations = np.zeros(L, dtype=int)
    costates = np.tile(C[:, None, :], (1, n_max + 1, 1))

    # Hoisted live handles (None when disabled): the lane sweep stamps
    # metrics per iteration, so the registry lookup happens once here.
    iter_counter = telemetry.live_counter("pontryagin.iterations")
    relax_counter = telemetry.live_counter("pontryagin.relaxation_events")
    residual_hist = telemetry.live_histogram("pontryagin.value_residual")
    deadline_counter = telemetry.live_counter(
        "resilience.pontryagin.deadline_hits"
    )

    sweep_start = time.perf_counter()
    active = lanes_all.copy()
    for it in range(1, max_iter + 1):
        if active.size == 0:
            break
        # Graceful degradation under a wall-clock budget: guarded by
        # ``it > 1`` so every lane completes at least one full sweep
        # (best_value starts at -inf and is only finite afterwards).
        if (deadline_seconds is not None and it > 1
                and time.perf_counter() - sweep_start > deadline_seconds):
            if deadline_counter is not None:
                deadline_counter.inc()
            break
        iterations[active] = it
        a = active
        if iter_counter is not None:
            iter_counter.inc(int(a.size))
        # (7) forward state sweep under the current controls.
        fwd = rk4_integrate_controlled_batch(
            dynamics, x0_stack[a], T[a], controls[a], lane_steps=steps[a])
        finals = fwd.final_states
        value = np.einsum("ld,ld->l", C[a], finals)
        improved = value > best_value[a]
        upd = a[improved]
        best_value[upd] = value[improved]
        best_states[upd] = fwd.states[improved]
        best_costates[upd] = costates[upd]
        best_controls[upd] = controls[upd]

        # (9) backward costate sweep along the stored states.
        costates_a = _costate_sweep_batch(
            model, T[a], steps[a], fwd.states, controls[a], C[a],
            w_mid[a], idx_right[a])
        costates[a] = costates_a

        # (8) pointwise Hamiltonian maximisation, all lanes and intervals
        # in one batched call.
        thetas_flat, _ = extremizer.maximize_direction_batch(
            fwd.states[:, :-1].reshape(-1, d),
            costates_a[:, :-1].reshape(-1, d),
        )
        target = thetas_flat.reshape(a.size, n_max, p)

        changed = (
            np.any(np.abs(target - controls[a]) > tol, axis=2)
            & interval_live[a]
        )
        n_changed = np.count_nonzero(changed, axis=1)
        fixed_point = n_changed <= chatter_intervals

        if np.any(fixed_point):
            # One final forward pass under the fixed-point controls.
            fin = a[fixed_point]
            controls[fin] = target[fixed_point]
            final_fwd = rk4_integrate_controlled_batch(
                dynamics, x0_stack[fin], T[fin], controls[fin],
                lane_steps=steps[fin])
            fin_value = np.einsum("ld,ld->l", C[fin], final_fwd.final_states)
            better = fin_value >= best_value[fin]
            upd = fin[better]
            best_value[upd] = fin_value[better]
            best_states[upd] = final_fwd.states[better]
            best_costates[upd] = costates[upd]
            best_controls[upd] = controls[upd]
            converged[fin] = True

        cont = ~fixed_point
        if np.any(cont):
            ac = a[cont]
            v = value[cont]
            regressed = has_prev[ac] & (v < value_prev[ac] - value_tol)
            relaxation[ac[regressed]] = np.maximum(
                0.5 * relaxation[ac[regressed]], 0.05
            )
            if relax_counter is not None:
                n_regressed = int(np.count_nonzero(regressed))
                if n_regressed:
                    relax_counter.inc(n_regressed)
            if residual_hist is not None:
                residual_hist.observe_many(
                    np.abs(v - value_prev[ac])[has_prev[ac]]
                )
            settled = has_prev[ac] & (
                np.abs(v - value_prev[ac])
                <= value_tol * np.maximum(1.0, np.abs(v))
            )
            stable[ac[settled]] += 1
            stable[ac[~settled]] = 0
            patience_hit = stable[ac] >= value_patience
            converged[ac[patience_hit]] = True
            value_prev[ac] = v
            has_prev[ac] = True
            step_lanes = ~patience_hit
            upd = ac[step_lanes]
            controls[upd] = controls[upd] + relaxation[upd][:, None, None] * (
                target[cont][step_lanes] - controls[upd]
            )
            active = upd
        else:
            active = a[~fixed_point]

    # Projection back to the pointwise Hamiltonian maximiser — one remax
    # plus one forward pass for every lane at once.
    values = best_value.copy()
    thetas_flat, _ = extremizer.maximize_direction_batch(
        best_states[:, :-1].reshape(-1, d),
        best_costates[:, :-1].reshape(-1, d),
    )
    projected = thetas_flat.reshape(L, n_max, p)
    proj_fwd = rk4_integrate_controlled_batch(
        dynamics, x0_stack, T, projected, lane_steps=steps)
    proj_value = np.einsum("ld,ld->l", C, proj_fwd.final_states)
    keep = proj_value >= values - value_tol * np.maximum(1.0, np.abs(values))
    final_states = np.where(keep[:, None, None], proj_fwd.states, best_states)
    final_controls = np.where(keep[:, None, None], projected, best_controls)
    values = np.where(keep, np.maximum(values, proj_value), values)

    results = []
    for l in range(L):
        stop = int(steps[l]) + 1
        results.append(
            PontryaginResult(
                times=T[l, :stop].copy(),
                states=final_states[l, :stop].copy(),
                costates=best_costates[l, :stop].copy(),
                controls=final_controls[l, : stop - 1].copy(),
                direction=directions[l].copy(),
                maximize=bool(maximize[l]),
                value=float(values[l] if maximize[l] else -values[l]),
                converged=bool(converged[l]),
                iterations=int(iterations[l]),
            )
        )
    return results


extremal_trajectories_batch.__doc__ = _extremal_trajectories_batch_impl.__doc__


@dataclass
class TransientBounds:
    """Min/max of observables at a grid of horizons (Figures 1 and 7).

    ``lower[name][k]`` and ``upper[name][k]`` bound the observable at
    ``horizons[k]`` over all solutions of the imprecise inclusion.

    ``converged`` is ``False`` when a ``deadline_seconds`` budget
    stopped the computation early: the recorded bounds are then the
    best iterates so far (still conservative directions of search, but
    not fixed points), and horizons the scalar path never reached stay
    NaN.
    """

    horizons: np.ndarray
    lower: Dict[str, np.ndarray] = field(default_factory=dict)
    upper: Dict[str, np.ndarray] = field(default_factory=dict)
    lower_results: Dict[str, List[PontryaginResult]] = field(default_factory=dict)
    upper_results: Dict[str, List[PontryaginResult]] = field(default_factory=dict)
    converged: bool = True

    @property
    def observable_names(self):
        return sorted(self.lower)

    def width(self, name: str) -> np.ndarray:
        return self.upper[name] - self.lower[name]

    def final_bounds(self, name: str) -> Tuple[float, float]:
        return float(self.lower[name][-1]), float(self.upper[name][-1])


def _resolve_directions(model, observables) -> Dict[str, np.ndarray]:
    if observables is None:
        if model.observables:
            return {k: np.asarray(v, float) for k, v in model.observables.items()}
        return {
            name: np.eye(model.dim)[i] for i, name in enumerate(model.state_names)
        }
    directions = {}
    for entry in observables:
        if isinstance(entry, str):
            if entry in model.observables:
                directions[entry] = np.asarray(model.observables[entry], float)
            elif entry in model.state_names:
                directions[entry] = np.eye(model.dim)[model.state_names.index(entry)]
            else:
                raise KeyError(f"unknown observable {entry!r}")
        else:
            name, vector = entry
            directions[str(name)] = np.asarray(vector, dtype=float)
    return directions


def _resample_controls(old_grid: np.ndarray, old_controls: np.ndarray,
                       new_grid: np.ndarray) -> np.ndarray:
    """Warm start: carry a control signal onto a new (longer) grid."""
    n_new = new_grid.shape[0] - 1
    out = np.empty((n_new, old_controls.shape[1]))
    for i in range(n_new):
        t_mid = 0.5 * (new_grid[i] + new_grid[i + 1])
        out[i] = old_controls[_control_index(old_grid, t_mid, old_controls.shape[0])]
    return out


def pontryagin_transient_bounds(
    model,
    x0,
    horizons,
    observables: Optional[Sequence] = None,
    steps_per_unit: float = 100.0,
    min_steps: int = 60,
    max_iter: int = 100,
    tol: float = 1e-7,
    extremizer: Optional[DriftExtremizer] = None,
    keep_results: bool = False,
    sides: Sequence[str] = ("lower", "upper"),
    batch: bool = True,
    lanes: Optional[bool] = None,
    deadline_seconds: Optional[float] = None,
) -> TransientBounds:
    with telemetry.span("pontryagin.bounds",
                        horizons=np.asarray(horizons).size,
                        lanes=batch if lanes is None else lanes):
        return _pontryagin_transient_bounds_impl(
            model, x0, horizons, observables=observables,
            steps_per_unit=steps_per_unit, min_steps=min_steps,
            max_iter=max_iter, tol=tol, extremizer=extremizer,
            keep_results=keep_results, sides=sides, batch=batch,
            lanes=lanes, deadline_seconds=deadline_seconds,
        )


def _pontryagin_transient_bounds_impl(
    model,
    x0,
    horizons,
    observables: Optional[Sequence] = None,
    steps_per_unit: float = 100.0,
    min_steps: int = 60,
    max_iter: int = 100,
    tol: float = 1e-7,
    extremizer: Optional[DriftExtremizer] = None,
    keep_results: bool = False,
    sides: Sequence[str] = ("lower", "upper"),
    batch: bool = True,
    lanes: Optional[bool] = None,
    deadline_seconds: Optional[float] = None,
) -> TransientBounds:
    """Exact imprecise-model bounds at each horizon, per observable.

    One Pontryagin sweep per (horizon, observable, side).  This
    regenerates the ``x^{imprecise}`` curves of Figure 1 and the
    queue-length curves of Figure 7.

    ``sides`` selects which bounds to compute (``"lower"``, ``"upper"``
    or both); robust-design loops that only consume the worst case pass
    ``sides=("upper",)`` and halve the cost.  Unselected sides are left
    as NaN in the result.

    With ``lanes`` enabled (the default, following ``batch``) *all*
    (observable, side, horizon) sweeps advance simultaneously through
    :func:`extremal_trajectories_batch`: each iteration issues one
    batched forward RK4 call, one batched costate call and one
    Hamiltonian re-maximisation for the whole lane set, and converged
    lanes retire early.  Every lane cold-starts from the centre of
    ``Theta``.  The scalar path (``lanes=False``) runs the legacy
    sequential loop, warm-starting each horizon from the previous
    horizon's optimal control; both converge to the same bang-bang
    optima (the warm start saves sweeps, not accuracy) and are pinned
    against each other in the differential suite.

    ``deadline_seconds`` bounds the wall clock: past it, the lanes path
    stops iterating and reports best-so-far values, the scalar path
    stops launching new per-horizon sweeps (at least one sweep always
    completes; unreached horizons stay NaN), and the returned
    :class:`TransientBounds` carries ``converged=False``.
    """
    horizons = np.asarray(horizons, dtype=float)
    if np.any(horizons <= 0):
        raise ValueError("all horizons must be positive (t = 0 is the initial state)")
    if np.any(np.diff(horizons) <= 0):
        raise ValueError("horizons must be strictly increasing")
    invalid_sides = set(sides) - {"lower", "upper"}
    if invalid_sides or not sides:
        raise ValueError(
            f"sides must be a non-empty subset of ('lower', 'upper'); "
            f"got {tuple(sides)}"
        )
    if lanes is None:
        lanes = batch
    directions = _resolve_directions(model, observables)
    extremizer = extremizer or DriftExtremizer(model, batch=batch)
    bounds = TransientBounds(horizons=horizons.copy())
    requested = tuple(
        is_max for is_max in (False, True)
        if ("upper" if is_max else "lower") in sides
    )
    step_counts = [
        max(min_steps, int(np.ceil(horizon * steps_per_unit)))
        for horizon in horizons
    ]
    if keep_results:
        for name in directions:
            bounds.lower_results[name] = []
            bounds.upper_results[name] = []

    if lanes:
        specs = []
        keys = []
        for name, c in directions.items():
            bounds.lower[name] = np.full(horizons.shape[0], np.nan)
            bounds.upper[name] = np.full(horizons.shape[0], np.nan)
            for is_max in requested:
                for k, horizon in enumerate(horizons):
                    specs.append((c, is_max, float(horizon), step_counts[k]))
                    keys.append((name, is_max, k))
        results = extremal_trajectories_batch(
            model, x0, specs,
            max_iter=max_iter, tol=tol, extremizer=extremizer,
            deadline_seconds=deadline_seconds,
        )
        for (name, is_max, k), result in zip(keys, results):
            target = bounds.upper if is_max else bounds.lower
            target[name][k] = result.value
            if keep_results:
                store = bounds.upper_results if is_max else bounds.lower_results
                store[name].append(result)
        if deadline_seconds is not None:
            bounds.converged = all(r.converged for r in results)
        return bounds

    sweeps_start = time.perf_counter()
    sweeps_done = 0
    deadline_counter = telemetry.live_counter(
        "resilience.pontryagin.deadline_hits"
    )
    for name, c in directions.items():
        bounds.lower[name] = np.full(horizons.shape[0], np.nan)
        bounds.upper[name] = np.full(horizons.shape[0], np.nan)
        for is_max in requested:
            warm: Optional[Tuple[np.ndarray, np.ndarray]] = None
            for k, horizon in enumerate(horizons):
                # Deadline between sweeps (a running sweep is never
                # preempted, and at least one always completes);
                # horizons never launched stay NaN.
                if (deadline_seconds is not None and sweeps_done >= 1
                        and time.perf_counter() - sweeps_start
                        > deadline_seconds):
                    if bounds.converged:
                        bounds.converged = False
                        if deadline_counter is not None:
                            deadline_counter.inc()
                    break
                n_steps = step_counts[k]
                initial = None
                if warm is not None:
                    old_grid, old_controls = warm
                    initial = _resample_controls(
                        old_grid, old_controls, np.linspace(0, horizon, n_steps + 1)
                    )
                result = extremal_trajectory(
                    model, x0, horizon, c,
                    maximize=is_max,
                    n_steps=n_steps,
                    max_iter=max_iter,
                    tol=tol,
                    extremizer=extremizer,
                    initial_controls=initial,
                )
                warm = (result.times, result.controls)
                sweeps_done += 1
                target = bounds.upper if is_max else bounds.lower
                target[name][k] = result.value
                if keep_results:
                    store = bounds.upper_results if is_max else bounds.lower_results
                    store[name].append(result)
    return bounds


pontryagin_transient_bounds.__doc__ = _pontryagin_transient_bounds_impl.__doc__


def switching_times(result: PontryaginResult, param_index: int = 0,
                    atol: float = 1e-9, min_dwell: float = 0.0) -> List[float]:
    """Times where the extremal control switches value (bang-bang knots).

    Returns the left grid times of the intervals where parameter
    coordinate ``param_index`` changes; Figure 2's commentary (switch at
    ``t ~ 2.25`` for the maximising control) is recovered this way.

    ``min_dwell`` consolidates numerical chattering: near a switching
    time the Hamiltonian's switching function is close to zero and the
    discrete control can flip back and forth across a few cells without
    affecting the objective.  Segments shorter than ``min_dwell`` are
    merged into their predecessor before switches are read off, so only
    the macroscopic bang-bang structure is reported.
    """
    signal = result.controls[:, param_index]
    times = result.times
    if min_dwell <= 0.0:
        jumps = np.nonzero(np.abs(np.diff(signal)) > atol)[0]
        return [float(times[j + 1]) for j in jumps]
    # Build (value, t_start, t_end) segments of the piecewise signal.
    segments: List[List[float]] = []
    for i, value in enumerate(signal):
        if segments and abs(value - segments[-1][0]) <= atol:
            segments[-1][2] = times[i + 1]
        else:
            segments.append([float(value), float(times[i]), float(times[i + 1])])
    # Merge short segments into their predecessor until all dwell times
    # are macroscopic (the first segment merges forward instead).
    changed = True
    while changed and len(segments) > 1:
        changed = False
        for k, seg in enumerate(segments):
            if seg[2] - seg[1] >= min_dwell:
                continue
            if k == 0:
                segments[1][1] = seg[1]
            else:
                segments[k - 1][2] = seg[2]
            del segments[k]
            changed = True
            break
    # Re-merge neighbours that ended up with equal values.
    merged: List[List[float]] = []
    for seg in segments:
        if merged and abs(seg[0] - merged[-1][0]) <= atol:
            merged[-1][2] = seg[2]
        else:
            merged.append(seg)
    return [float(seg[1]) for seg in merged[1:]]


def switching_function(result: PontryaginResult, model,
                       param_index: int = 0) -> np.ndarray:
    """The Hamiltonian switching function ``sigma_k(t) = p(t) . G(x(t))_k``.

    For an affine-in-theta model the Hamiltonian is
    ``p . g0(x) + sum_k theta_k sigma_k`` — the optimal ``theta_k`` sits
    at its upper bound where ``sigma_k > 0`` and its lower bound where
    ``sigma_k < 0``, and switches exactly at the zeros of ``sigma_k``.
    """
    if not model.is_affine:
        raise ValueError("switching functions require an affine-in-theta model")
    values = np.empty(result.times.shape[0])
    for i, (x, p) in enumerate(zip(result.states, result.costates)):
        _, big_g = model.affine_parts(x)
        values[i] = float(p @ big_g[:, param_index])
    return values


def switching_times_from_costate(result: PontryaginResult, model,
                                 param_index: int = 0) -> List[float]:
    """Switching times as zeros of the costate switching function.

    More robust than reading the discrete control signal: near a switch
    the control can chatter across grid cells or retain relaxation
    blending, while the switching function crosses zero once per genuine
    structural switch.  Zeros are located by linear interpolation
    between grid points.
    """
    sigma = switching_function(result, model, param_index=param_index)
    times = result.times
    roots: List[float] = []
    for i in range(sigma.shape[0] - 1):
        a, b = sigma[i], sigma[i + 1]
        if a == 0.0:
            continue
        if a * b < 0.0:
            t_root = times[i] + (times[i + 1] - times[i]) * a / (a - b)
            roots.append(float(t_root))
    return roots


def reachable_polytope_2d(
    model,
    x0,
    horizon: float,
    n_directions: int = 16,
    n_steps: int = 300,
    max_iter: int = 100,
    extremizer: Optional[DriftExtremizer] = None,
    batch: bool = True,
) -> np.ndarray:
    """Convex template over-approximation of the reachable set at ``T``.

    Runs one Pontryagin sweep per template direction ``c_k`` on the unit
    circle — one lane per direction of a single
    :func:`extremal_trajectories_batch` call (``batch`` only selects the
    extremiser's mode) — and intersects the halfspaces
    ``c_k . x <= h_k``: the "convex template polyhedron" refinement
    noted at the end of Section IV-C.  Returns the polygon vertices
    (CCW).  Only implemented for 2-D models.
    """
    if model.dim != 2:
        raise ValueError("template polytopes are implemented for 2-D models")
    if n_directions < 3:
        raise ValueError("need at least 3 template directions")
    extremizer = extremizer or DriftExtremizer(model, batch=batch)
    angles = np.linspace(0.0, 2.0 * np.pi, n_directions, endpoint=False)
    normals = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    results = extremal_trajectories_batch(
        model, x0, [(c, True, horizon, n_steps) for c in normals],
        max_iter=max_iter, extremizer=extremizer,
    )
    offsets = np.array([result.value for result in results])
    # Vertices of the halfspace intersection: adjacent constraint pairs.
    vertices = []
    for k in range(n_directions):
        a1, b1 = normals[k], offsets[k]
        a2, b2 = normals[(k + 1) % n_directions], offsets[(k + 1) % n_directions]
        matrix = np.array([a1, a2])
        det = np.linalg.det(matrix)
        if abs(det) < 1e-12:
            continue
        vertex = np.linalg.solve(matrix, np.array([b1, b2]))
        # Keep only vertices satisfying all constraints (non-redundant).
        if np.all(normals @ vertex <= offsets + 1e-7):
            vertices.append(vertex)
    return np.array(vertices)
