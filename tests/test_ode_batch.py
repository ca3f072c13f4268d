"""Differential suite for the batched ODE core (repro.ode.batch).

Three layers of pins:

1. **Kernel bit-identity** — the lockstep fixed-grid RK4 kernels must
   reproduce the scalar integrators *bit for bit*, lane by lane, across
   the whole model catalog (ascending and descending grids, controlled
   and uncontrolled, padded heterogeneous lane lengths).
2. **Adaptive accuracy** — ``dopri_batch`` must match scipy's
   ``solve_ivp`` (same Dormand–Prince 5(4) pair) to integration
   tolerance, including lane retirement and dense output.
3. **Consumer equality** — the rewired consumers (lane-parallel
   Pontryagin bounds, adaptive envelope sweep, batched steady-state
   fixed points, hullbox settle) must agree with their scalar paths.

CI runs this file with ``-rs`` and fails if anything here skips.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bounds import pontryagin_transient_bounds, uncertain_envelope
from repro.bounds.pontryagin import extremal_trajectories_batch, extremal_trajectory
from repro.models import (
    make_cdn_cache_model,
    make_gossip_model,
    make_gps_poisson_model,
    make_power_of_d_model,
    make_repairable_queue_model,
    make_seir_model,
    make_sir_full_model,
    make_sir_model,
)
from repro.ode import (
    FixedPointBatch,
    TrajectoryBatch,
    dopri_batch,
    find_fixed_point,
    find_fixed_point_batch,
    pad_grids,
    rk4_integrate,
    rk4_integrate_batch,
    rk4_integrate_controlled,
    rk4_integrate_controlled_batch,
    solve_ode,
)
from repro.ode.batch import _dp_stage_sum
from repro.steadystate import hull_steady_rectangle, uncertain_fixed_points

CATALOG = [
    make_sir_model,
    make_sir_full_model,
    make_seir_model,
    make_gossip_model,
    make_repairable_queue_model,
    make_cdn_cache_model,
    make_gps_poisson_model,
    make_power_of_d_model,
]


def _interior_states(model, rng, n):
    lo = model.state_lower if model.state_lower is not None else np.zeros(model.dim)
    hi = model.state_upper if model.state_upper is not None else np.ones(model.dim)
    return lo + rng.uniform(0.15, 0.85, size=(n, model.dim)) * (hi - lo)


# ----------------------------------------------------------------------
# 1. Fixed-grid kernels: bit-identical to the scalar loop
# ----------------------------------------------------------------------

class TestLockstepRK4BitIdentity:
    @pytest.mark.parametrize("factory", CATALOG)
    def test_uncontrolled_matches_scalar_per_lane(self, factory, rng):
        model = factory()
        thetas = model.theta_set.sample(rng, 4)
        x0 = _interior_states(model, rng, 4)
        grid = np.linspace(0.0, 1.5, 61)

        batch = rk4_integrate_batch(
            lambda t, X: model.drift_batch(X, thetas), x0, grid
        )
        for l in range(4):
            scalar = rk4_integrate(model.vector_field(thetas[l]), x0[l], grid)
            np.testing.assert_array_equal(batch.states[l], scalar.states)
            np.testing.assert_array_equal(batch.lane(l).times, scalar.times)

    @pytest.mark.parametrize("factory", CATALOG)
    def test_descending_grid_matches_scalar(self, factory, rng):
        model = factory()
        thetas = model.theta_set.sample(rng, 3)
        x0 = _interior_states(model, rng, 3)
        # Short span: mean-field drifts are unstable backward in time,
        # and a diverging stack would drown the comparison in overflow.
        grid = np.linspace(0.25, 0.0, 41)
        batch = rk4_integrate_batch(
            lambda t, X: model.drift_batch(X, thetas), x0, grid
        )
        for l in range(3):
            scalar = rk4_integrate(model.vector_field(thetas[l]), x0[l], grid)
            np.testing.assert_array_equal(batch.states[l], scalar.states)

    @pytest.mark.parametrize("factory", CATALOG)
    def test_controlled_matches_scalar_per_lane(self, factory, rng):
        model = factory()
        x0 = _interior_states(model, rng, 3)
        grid = np.linspace(0.0, 1.0, 41)
        # A different piecewise-constant parameter signal per lane.
        controls = np.stack([
            model.theta_set.sample(rng, 40) for _ in range(3)
        ])

        def dynamics(t, X, U):
            return model.drift_batch(X, U)

        batch = rk4_integrate_controlled_batch(dynamics, x0, grid, controls)
        for l in range(3):
            scalar = rk4_integrate_controlled(
                lambda t, y, u: model.drift(y, u), x0[l], grid, controls[l]
            )
            np.testing.assert_array_equal(batch.states[l], scalar.states)

    def test_padded_heterogeneous_grids(self, sir_model, rng):
        thetas = sir_model.theta_set.sample(rng, 3)
        grids = [np.linspace(0.0, h, n + 1)
                 for h, n in ((0.5, 30), (2.0, 80), (1.0, 50))]
        T, steps = pad_grids(grids)
        x0 = np.tile([0.7, 0.3], (3, 1))
        batch = rk4_integrate_batch(
            lambda t, X: sir_model.drift_batch(X, thetas), x0, T,
            lane_steps=steps,
        )
        for l, grid in enumerate(grids):
            scalar = rk4_integrate(sir_model.vector_field(thetas[l]),
                                   x0[l], grid)
            np.testing.assert_array_equal(batch.lane(l).states, scalar.states)
            np.testing.assert_array_equal(batch.final_states[l],
                                          scalar.final_state)
            # Padding columns freeze at the lane's own final state.
            np.testing.assert_array_equal(
                batch.states[l, len(grid):],
                np.tile(scalar.final_state, (T.shape[1] - len(grid), 1)),
            )

    def test_input_validation(self):
        f = lambda t, X: -X
        with pytest.raises(ValueError):
            rk4_integrate_batch(f, np.zeros((2, 1)), [0.0])
        with pytest.raises(ValueError):
            rk4_integrate_batch(f, np.zeros((2, 1)), [0.0, 1.0, 0.5])
        with pytest.raises(ValueError):
            rk4_integrate_batch(f, np.zeros((2, 1)), np.zeros((3, 5)))
        with pytest.raises(ValueError):
            rk4_integrate_controlled_batch(
                lambda t, X, U: -X, np.zeros((2, 1)),
                np.linspace(0, 1, 11), np.zeros((2, 5, 1)),
            )


# ----------------------------------------------------------------------
# 2. Adaptive Dormand–Prince vs scipy
# ----------------------------------------------------------------------

class TestDopriBatch:
    @pytest.mark.parametrize("factory", CATALOG)
    def test_matches_solve_ivp_within_tolerance(self, factory, rng):
        model = factory()
        thetas = model.theta_set.sample(rng, 5)
        x0 = _interior_states(model, rng, 1)[0]
        t_eval = np.linspace(0.0, 2.0, 9)
        sol = dopri_batch(
            lambda t, X, TH: model.drift_batch(X, TH),
            np.tile(x0, (5, 1)), (0.0, 2.0), t_eval=t_eval,
            rtol=1e-8, atol=1e-10, lane_args=thetas,
        )
        for l in range(5):
            ref = solve_ode(model.vector_field(thetas[l]), x0, (0.0, 2.0),
                            t_eval=t_eval, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(sol.states[l], ref.states,
                                       rtol=1e-5, atol=1e-6)

    def test_per_lane_end_times_and_retirement(self):
        f = lambda t, X: -X
        x0 = np.ones((3, 2))
        ends = np.array([1.0, 2.0, 3.0])
        sol = dopri_batch(f, x0, (0.0, ends), rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(sol.final_states[:, 0], np.exp(-ends),
                                   rtol=1e-8)
        np.testing.assert_allclose(sol.final_times, ends)
        stats = sol.stats
        # The lane ending at t = 1 must have consumed fewer steps than
        # the one running to t = 3.
        assert stats["n_accepted"][0] < stats["n_accepted"][2]

    def test_dense_output_clamps_past_lane_end(self):
        f = lambda t, X: -X
        t_eval = np.linspace(0.0, 3.0, 7)
        sol = dopri_batch(f, np.ones((2, 1)), (0.0, np.array([1.0, 3.0])),
                          t_eval=t_eval)
        # Lane 0 retired at t = 1; later samples hold its final state.
        late = t_eval > 1.0
        np.testing.assert_allclose(sol.states[0, late, 0],
                                   np.exp(-1.0), rtol=1e-8)

    def test_descending_integration(self):
        f = lambda t, X: -X
        t_eval = np.linspace(0.0, -2.0, 9)
        sol = dopri_batch(f, np.ones((1, 1)), (0.0, -2.0), t_eval=t_eval)
        np.testing.assert_allclose(sol.states[0, :, 0], np.exp(-t_eval),
                                   rtol=1e-6)

    def test_stiffness_guard_raises(self):
        # A discontinuous RHS collapses the adaptive step size; the
        # solver must fail loudly instead of spinning.
        f = lambda t, X: np.where(X > 0.5, -1e6, 1e6) * np.ones_like(X)
        with pytest.raises(RuntimeError):
            dopri_batch(f, np.full((1, 1), 0.5), (0.0, 1.0), max_steps=200)

    def test_mixed_direction_end_times_rejected(self):
        with pytest.raises(ValueError):
            dopri_batch(lambda t, X: -X, np.ones((2, 1)),
                        (0.0, np.array([1.0, -1.0])))

    def test_single_point_t_eval_keeps_shape(self):
        sol = dopri_batch(lambda t, X: -X, np.ones((3, 1)), (0.0, 2.0),
                          t_eval=np.array([1.0]))
        assert sol.states.shape == (3, 1, 1)
        np.testing.assert_allclose(sol.states[:, 0, 0], np.exp(-1.0),
                                   rtol=1e-6)
        # The recorded batch is the sampled trajectory; the integration
        # endpoints live in stats.
        np.testing.assert_allclose(sol.stats["final_states"][:, 0],
                                   np.exp(-2.0), rtol=1e-8)

    def test_zero_span_lane(self):
        sol = dopri_batch(lambda t, X: -X, np.ones((2, 1)),
                          (0.0, np.array([0.0, 1.0])),
                          t_eval=np.linspace(0.0, 1.0, 5))
        np.testing.assert_allclose(sol.states[0], 1.0)
        np.testing.assert_allclose(sol.final_states[1, 0], np.exp(-1.0),
                                   rtol=1e-8)


# ----------------------------------------------------------------------
# 3. Batched fixed points
# ----------------------------------------------------------------------

class TestFindFixedPointBatch:
    def test_matches_scalar_settles(self, sir_model):
        thetas = sir_model.theta_set.grid(7)
        guess = np.array([0.5, 0.5])
        batch = find_fixed_point_batch(
            lambda X, TH: sir_model.drift_batch(X, TH),
            np.tile(guess, (thetas.shape[0], 1)),
            settle_time=60.0, lane_args=thetas,
        )
        assert isinstance(batch, FixedPointBatch)
        assert batch.converged.all()
        for l, theta in enumerate(thetas):
            scalar = find_fixed_point(sir_model.drift_fn(theta), guess,
                                      settle_time=60.0)
            np.testing.assert_allclose(batch.points[l], scalar, atol=1e-9)
        assert np.all(batch.residuals < 1e-10)

    def test_limit_cycle_raises(self):
        def rotate(X):
            return np.stack([X[:, 1], -X[:, 0]], axis=1)

        with pytest.raises(RuntimeError, match="fixed point"):
            find_fixed_point_batch(rotate, np.array([[1.0, 0.0]]),
                                   settle_time=10.0, max_rounds=2)

    def test_polish_rejection_keeps_settled_point(self):
        # Flat plateau near 0 with the only root far away: the Newton
        # polish must not yank the lane to the far root.
        def f(X):
            return np.where(np.abs(X) < 1.0, 1e-7 * np.ones_like(X),
                            10.0 - X)

        fp = find_fixed_point_batch(f, np.zeros((1, 1)), settle_time=1.0,
                                    max_rounds=1)
        assert abs(fp.points[0, 0]) < 1.0
        assert not fp.converged[0]  # residual 1e-7 > default tol


# ----------------------------------------------------------------------
# 4. Consumer-level equality
# ----------------------------------------------------------------------

class TestConsumersMatchScalarPaths:
    def test_single_lane_matches_cold_scalar_sweep(self, sir_model, sir_x0):
        """One lane == the scalar sweep, iteration for iteration."""
        lane = extremal_trajectories_batch(
            sir_model, sir_x0, [([0.0, 1.0], True, 2.0, 150)]
        )[0]
        scalar = extremal_trajectory(sir_model, sir_x0, 2.0, [0.0, 1.0],
                                     n_steps=150)
        assert lane.iterations == scalar.iterations
        assert lane.converged == scalar.converged
        assert lane.value == pytest.approx(scalar.value, rel=1e-12, abs=1e-14)
        np.testing.assert_allclose(lane.controls, scalar.controls,
                                   rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(lane.states, scalar.states,
                                   rtol=1e-9, atol=1e-12)

    def test_pontryagin_bounds_lane_vs_scalar(self, sir_model, sir_x0):
        horizons = np.array([0.5, 1.25, 2.0])
        lanes = pontryagin_transient_bounds(
            sir_model, sir_x0, horizons, observables=["I"],
            steps_per_unit=60.0,
        )
        scalar = pontryagin_transient_bounds(
            sir_model, sir_x0, horizons, observables=["I"],
            steps_per_unit=60.0, lanes=False,
        )
        np.testing.assert_allclose(lanes.lower["I"], scalar.lower["I"],
                                   rtol=3e-4, atol=1e-8)
        np.testing.assert_allclose(lanes.upper["I"], scalar.upper["I"],
                                   rtol=3e-4, atol=1e-8)

    def test_pontryagin_lane_mode_multiobservable_sides(self, gps_poisson):
        from repro.models import gps_initial_state_poisson

        x0 = gps_initial_state_poisson()
        horizons = np.array([1.0, 2.0])
        lanes = pontryagin_transient_bounds(
            gps_poisson, x0, horizons, observables=["Q1", "Q2"],
            steps_per_unit=40.0, sides=("upper",),
        )
        scalar = pontryagin_transient_bounds(
            gps_poisson, x0, horizons, observables=["Q1", "Q2"],
            steps_per_unit=40.0, sides=("upper",), lanes=False,
        )
        for name in ("Q1", "Q2"):
            assert np.all(np.isnan(lanes.lower[name]))
            np.testing.assert_allclose(lanes.upper[name],
                                       scalar.upper[name],
                                       rtol=3e-4, atol=1e-8)

    def test_pontryagin_keep_results_in_lane_mode(self, sir_model, sir_x0):
        horizons = np.array([0.5, 1.0])
        bounds = pontryagin_transient_bounds(
            sir_model, sir_x0, horizons, observables=["I"],
            steps_per_unit=60.0, keep_results=True,
        )
        assert len(bounds.upper_results["I"]) == 2
        for k, result in enumerate(bounds.upper_results["I"]):
            assert result.times[-1] == pytest.approx(horizons[k])
            assert result.value == pytest.approx(bounds.upper["I"][k])

    @pytest.mark.parametrize("factory", [make_sir_model, make_gps_poisson_model])
    def test_envelope_adaptive_batch_vs_scipy(self, factory, rng):
        model = factory()
        x0 = _interior_states(model, rng, 1)[0]
        t_eval = np.linspace(0.0, 2.0, 7)
        batch = uncertain_envelope(model, x0, t_eval, resolution=5)
        scalar = uncertain_envelope(model, x0, t_eval, resolution=5,
                                    batch=False)
        for name in batch.observable_names:
            np.testing.assert_allclose(batch.lower[name], scalar.lower[name],
                                       rtol=1e-6, atol=1e-6)
            np.testing.assert_allclose(batch.upper[name], scalar.upper[name],
                                       rtol=1e-6, atol=1e-6)

    def test_envelope_rk4_batch_still_bit_identical(self, sir_model):
        t_eval = np.linspace(0.0, 1.5, 7)
        batch = uncertain_envelope(sir_model, [0.7, 0.3], t_eval,
                                   resolution=5, integrator="rk4")
        scalar = uncertain_envelope(sir_model, [0.7, 0.3], t_eval,
                                    resolution=5, integrator="rk4",
                                    batch=False)
        for name in batch.observable_names:
            np.testing.assert_array_equal(batch.lower[name],
                                          scalar.lower[name])
            np.testing.assert_array_equal(batch.upper[name],
                                          scalar.upper[name])

    def test_uncertain_fixed_points_batch_vs_scalar(self, sir_model):
        batch = uncertain_fixed_points(sir_model, resolution=9)
        scalar = uncertain_fixed_points(sir_model, resolution=9, batch=False)
        np.testing.assert_allclose(batch, scalar, atol=1e-8)

    def test_hullbox_settle_refines_rectangle(self):
        model = make_sir_model(theta_max=2.0)
        settled = hull_steady_rectangle(model, [0.7, 0.3], horizon=120.0)
        integrated = hull_steady_rectangle(model, [0.7, 0.3], horizon=120.0,
                                           settle=False)
        assert settled.converged and integrated.converged
        # The settled rectangle is the exact hull fixed point: its field
        # residual is at Newton level, far below the integration tail's.
        assert settled.residual < 1e-10
        np.testing.assert_allclose(settled.lower, integrated.lower, atol=1e-5)
        np.testing.assert_allclose(settled.upper, integrated.upper, atol=1e-5)
        # Soundness: the hull pair approaches its stationary rectangle
        # from the inside, so settling cannot *shrink* it beyond solver
        # noise on an already-converged integration.
        assert np.all(settled.lower <= integrated.lower + 1e-7)
        assert np.all(settled.upper >= integrated.upper - 1e-7)

    def test_hullbox_divergent_hull_unchanged_by_settle(self):
        model = make_sir_model()  # theta in [1, 10]: trivial-hull regime
        rect = hull_steady_rectangle(model, [0.7, 0.3], horizon=40.0)
        assert not rect.converged
        assert np.isinf(rect.residual)


class TestTrajectoryBatchContainer:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrajectoryBatch(np.zeros(3), np.zeros((1, 3, 2)), np.array([2]))
        with pytest.raises(ValueError):
            TrajectoryBatch(np.zeros((2, 3)), np.zeros((1, 3, 2)),
                            np.array([2]))
        with pytest.raises(ValueError):
            TrajectoryBatch(np.zeros((1, 3)), np.zeros((1, 3, 2)),
                            np.array([2, 2]))

    def test_lane_accessors(self):
        times = np.array([[0.0, 1.0, 2.0], [0.0, 0.5, 0.5]])
        states = np.arange(12, dtype=float).reshape(2, 3, 2)
        tb = TrajectoryBatch(times, states, np.array([2, 1]))
        assert len(tb) == 2 and tb.dim == 2
        np.testing.assert_array_equal(tb.final_times, [2.0, 0.5])
        np.testing.assert_array_equal(tb.final_states[1], states[1, 1])
        lane = tb.lane(1)
        assert len(lane) == 2
        np.testing.assert_array_equal(lane.states, states[1, :2])



class TestDopriStageSum:
    """``_dp_stage_sum`` is the ``dot`` that ``np.tensordot`` makes."""

    @given(k=st.integers(min_value=1, max_value=7),
           lanes=st.integers(min_value=1, max_value=64),
           dim=st.integers(min_value=1, max_value=6),
           stage_exp=st.integers(min_value=-12, max_value=12),
           coeff_exp=st.integers(min_value=-6, max_value=6),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_tensordot_bit_for_bit(self, k, lanes, dim, stage_exp,
                                           coeff_exp, seed):
        rng = np.random.default_rng(seed)
        # A leading slice of a 7-stage stack, as dopri_batch passes it.
        stack = rng.standard_normal((7, lanes, dim)) * 10.0 ** stage_exp
        coeffs = rng.standard_normal(k) * 10.0 ** coeff_exp
        stages = stack[:k]
        got = _dp_stage_sum(coeffs, stages)
        assert got.shape == (lanes, dim)
        assert np.array_equal(got, np.tensordot(coeffs, stages, axes=(0, 0)))
