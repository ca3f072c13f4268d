"""Differential tests: batched extremization == legacy scalar loop.

The batched kernels of :class:`repro.inclusion.DriftExtremizer` (and the
model-level ``affine_parts_batch`` / ``drift_batch`` they sit on) claim
*exactness*: every row of a batched call must reproduce the scalar
evaluation of that row, in both the support value and the maximising
``theta``.  This suite pins that claim across the whole model catalog,
random states and directions, and all three strategies — it is the test
the ``batch=False`` legacy path exists for, and CI fails if any of it is
skipped.
"""

import numpy as np
import pytest

from repro.bounds import (
    differential_hull_bounds,
    extremal_trajectory,
    template_reachable_bounds,
)
from repro.inclusion import DriftExtremizer, ParametricInclusion
from repro.models import (
    make_autoscaler_model,
    make_bike_station_model,
    make_cdn_cache_model,
    make_csma_model,
    make_gossip_model,
    make_gps_map_model,
    make_gps_poisson_model,
    make_power_of_d_model,
    make_repairable_queue_model,
    make_seir_model,
    make_sir_full_model,
    make_sir_model,
    make_ttl_cache_model,
)
from repro.params import DiscreteSet, Interval
from repro.population import PopulationModel, Transition

CATALOG_FACTORIES = [
    make_sir_model,
    make_sir_full_model,
    make_seir_model,
    make_gossip_model,
    make_repairable_queue_model,
    make_cdn_cache_model,
    make_bike_station_model,
    make_power_of_d_model,
    make_gps_poisson_model,
    make_gps_map_model,
    make_autoscaler_model,
    make_ttl_cache_model,
    make_csma_model,
]

STRATEGIES = ("affine", "corners", "grid")

N_POINTS = 8


def _random_batch(model, rng):
    """A batch of admissible-ish states and generic directions."""
    states = rng.uniform(0.0, 1.0, size=(N_POINTS, model.dim))
    directions = rng.normal(size=(N_POINTS, model.dim))
    return states, directions


@pytest.mark.parametrize("factory", CATALOG_FACTORIES,
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("method", STRATEGIES)
class TestBatchedEqualsScalar:
    def test_maximize_direction_values_and_argmax(self, factory, method):
        model = factory()
        rng = np.random.default_rng(20160527)
        states, directions = _random_batch(model, rng)
        batched = DriftExtremizer(model, method=method, grid_resolution=5)
        scalar = DriftExtremizer(model, method=method, grid_resolution=5,
                                 batch=False)
        thetas_b, values_b = batched.maximize_direction_batch(states, directions)
        thetas_s, values_s = scalar.maximize_direction_batch(states, directions)
        np.testing.assert_allclose(values_b, values_s, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(thetas_b, thetas_s)

    def test_scalar_api_delegates_to_batch_kernels(self, factory, method):
        model = factory()
        rng = np.random.default_rng(11)
        states, directions = _random_batch(model, rng)
        batched = DriftExtremizer(model, method=method, grid_resolution=5)
        scalar = DriftExtremizer(model, method=method, grid_resolution=5,
                                 batch=False)
        for x, p in zip(states, directions):
            theta_b, value_b = batched.maximize_direction(x, p)
            theta_s, value_s = scalar.maximize_direction(x, p)
            assert value_b == pytest.approx(value_s, rel=1e-12, abs=1e-12)
            np.testing.assert_array_equal(theta_b, theta_s)

    def test_minimize_direction_batch_matches_scalar(self, factory, method):
        model = factory()
        rng = np.random.default_rng(42)
        states, directions = _random_batch(model, rng)
        batched = DriftExtremizer(model, method=method, grid_resolution=5)
        scalar = DriftExtremizer(model, method=method, grid_resolution=5,
                                 batch=False)
        thetas_b, values_b = batched.minimize_direction_batch(
            states, directions
        )
        for r, (x, p) in enumerate(zip(states, directions)):
            theta_s, value_s = scalar.minimize_direction(x, p)
            assert values_b[r] == pytest.approx(value_s, rel=1e-12, abs=1e-12)
            np.testing.assert_array_equal(thetas_b[r], theta_s)

    def test_velocity_envelope_batch(self, factory, method):
        model = factory()
        rng = np.random.default_rng(7)
        states, _ = _random_batch(model, rng)
        batched = DriftExtremizer(model, method=method, grid_resolution=5)
        scalar = DriftExtremizer(model, method=method, grid_resolution=5,
                                 batch=False)
        lower_b, upper_b = batched.velocity_envelope_batch(states)
        for r, x in enumerate(states):
            lower_s, upper_s = scalar.velocity_envelope(x)
            np.testing.assert_allclose(lower_b[r], lower_s, rtol=1e-12,
                                       atol=1e-12)
            np.testing.assert_allclose(upper_b[r], upper_s, rtol=1e-12,
                                       atol=1e-12)

    def test_support_and_coordinate_range_batch(self, factory, method):
        model = factory()
        rng = np.random.default_rng(99)
        states, directions = _random_batch(model, rng)
        batched = DriftExtremizer(model, method=method, grid_resolution=5)
        scalar = DriftExtremizer(model, method=method, grid_resolution=5,
                                 batch=False)
        values = batched.support_batch(states, directions)
        for r, (x, p) in enumerate(zip(states, directions)):
            assert values[r] == pytest.approx(scalar.support(x, p), rel=1e-12,
                                              abs=1e-12)
        index = model.dim - 1
        lower_b, upper_b = batched.coordinate_range_batch(states, index)
        for r, x in enumerate(states):
            lower_s, upper_s = scalar.coordinate_range(x, index)
            assert lower_b[r] == pytest.approx(lower_s, rel=1e-12, abs=1e-12)
            assert upper_b[r] == pytest.approx(upper_s, rel=1e-12, abs=1e-12)


class TestModelBatchKernels:
    @pytest.mark.parametrize("factory", CATALOG_FACTORIES,
                             ids=lambda f: f.__name__)
    def test_affine_parts_batch_matches_scalar(self, factory):
        model = factory()
        rng = np.random.default_rng(3)
        states = rng.uniform(0.0, 1.0, size=(N_POINTS, model.dim))
        g0s, big_gs = model.affine_parts_batch(states)
        assert g0s.shape == (N_POINTS, model.dim)
        assert big_gs.shape == (N_POINTS, model.dim, model.theta_dim)
        for r, x in enumerate(states):
            g0, big_g = model.affine_parts(x)
            np.testing.assert_allclose(g0s[r], g0, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(big_gs[r], big_g, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("factory", CATALOG_FACTORIES,
                             ids=lambda f: f.__name__)
    def test_drift_batch_matches_scalar(self, factory):
        model = factory()
        rng = np.random.default_rng(5)
        states = rng.uniform(0.0, 1.0, size=(N_POINTS, model.dim))
        thetas = model.theta_set.sample(rng, N_POINTS)
        drifts = model.drift_batch(states, thetas)
        assert drifts.shape == (N_POINTS, model.dim)
        for r in range(N_POINTS):
            np.testing.assert_allclose(
                drifts[r], model.drift(states[r], thetas[r]),
                rtol=1e-12, atol=1e-12,
            )

    @pytest.mark.parametrize("factory", CATALOG_FACTORIES,
                             ids=lambda f: f.__name__)
    def test_jacobian_x_batch_matches_scalar(self, factory):
        model = factory()
        rng = np.random.default_rng(13)
        states = rng.uniform(0.0, 1.0, size=(N_POINTS, model.dim))
        thetas = model.theta_set.sample(rng, N_POINTS)
        jacs = model.jacobian_x_batch(states, thetas)
        assert jacs.shape == (N_POINTS, model.dim, model.dim)
        for r in range(N_POINTS):
            np.testing.assert_allclose(
                jacs[r], model.jacobian_x(states[r], thetas[r]),
                rtol=1e-12, atol=1e-12,
            )

    @pytest.mark.parametrize("factory", CATALOG_FACTORIES,
                             ids=lambda f: f.__name__)
    def test_affine_parts_batch_reconstructs_drift_batch(self, factory):
        """``g0 + G theta`` of the batched decomposition is the batched
        drift: the affine and corner strategies read the two kernels
        interchangeably."""
        model = factory()
        rng = np.random.default_rng(17)
        states = rng.uniform(0.0, 1.0, size=(N_POINTS, model.dim))
        thetas = model.theta_set.sample(rng, N_POINTS)
        g0s, big_gs = model.affine_parts_batch(states)
        np.testing.assert_allclose(
            g0s + np.einsum("ndp,np->nd", big_gs, thetas),
            model.drift_batch(states, thetas),
            rtol=1e-12, atol=1e-12,
        )

    def test_jacobian_x_batch_row_mismatch_rejected(self):
        model = make_sir_model()
        states = np.full((3, model.dim), 0.4)
        thetas = model.theta_set.sample(np.random.default_rng(0), 2)
        with pytest.raises(ValueError, match="rows"):
            model.jacobian_x_batch(states, thetas)

    def test_affine_parts_batch_without_declaration_falls_back(self):
        tr = Transition("t", [1.0], lambda x, th: x[0] * th[0])
        model = PopulationModel(
            "plain", ("x",), [tr], Interval(0.0, 2.0),
            affine_drift=lambda x: (np.zeros(1), np.array([[float(x[0])]])),
        )
        states = np.array([[0.25], [0.5], [2.0]])
        g0s, big_gs = model.affine_parts_batch(states)
        np.testing.assert_allclose(big_gs[:, 0, 0], states[:, 0])
        np.testing.assert_allclose(g0s, 0.0)

    def test_wrong_batch_declaration_rejected(self):
        tr = Transition("t", [1.0], lambda x, th: x[0] * th[0])
        model = PopulationModel(
            "broken", ("x",), [tr], Interval(0.0, 2.0),
            affine_drift=lambda x: (np.zeros(1), np.array([[float(x[0])]])),
            affine_drift_batch=lambda xs: (
                np.zeros((xs.shape[0], 1)),
                2.0 * xs[:, :, None],  # wrong by a factor of two
            ),
        )
        with pytest.raises(ValueError, match="disagrees"):
            model.affine_parts_batch(np.array([[0.5], [1.0]]))

    def test_batch_declaration_requires_scalar_form(self):
        tr = Transition("t", [1.0], lambda x, th: x[0] * th[0])
        with pytest.raises(ValueError, match="affine_drift_batch"):
            PopulationModel(
                "headless", ("x",), [tr], Interval(0.0, 2.0),
                affine_drift_batch=lambda xs: (
                    np.zeros((xs.shape[0], 1)), xs[:, :, None]
                ),
            )


@pytest.fixture(scope="module")
def kolmogorov_systems():
    """Master equations of small catalog chains (duck-typed models)."""
    from repro.ctmc import ImpreciseCTMC, KolmogorovSystem

    chains = {
        "bike": ImpreciseCTMC(make_bike_station_model().instantiate(8, [0.5])),
        "sir": ImpreciseCTMC(
            make_sir_full_model().instantiate(5, [0.6, 0.4, 0.0])),
        "power_of_d": ImpreciseCTMC(
            make_power_of_d_model(buffer_depth=3).instantiate(
                5, [0.4, 0.0, 0.0])),
    }
    return {key: KolmogorovSystem(chain) for key, chain in chains.items()}


KOLMOGOROV_KEYS = ("bike", "sir", "power_of_d")


class TestKolmogorovSystemKernels:
    """The extremizer calls the Kolmogorov adapter's own batch methods,
    exactly as it does a population model's."""

    def _distributions(self, system, seed):
        rng = np.random.default_rng(seed)
        return rng.dirichlet(np.ones(system.dim), size=N_POINTS), rng

    @pytest.mark.parametrize("key", KOLMOGOROV_KEYS)
    def test_drift_batch_matches_scalar(self, key, kolmogorov_systems):
        system = kolmogorov_systems[key]
        states, rng = self._distributions(system, 23)
        thetas = system.theta_set.sample(rng, N_POINTS)
        drifts = system.drift_batch(states, thetas)
        assert drifts.shape == (N_POINTS, system.dim)
        for r in range(N_POINTS):
            np.testing.assert_allclose(
                drifts[r], system.drift(states[r], thetas[r]),
                rtol=1e-12, atol=1e-12,
            )

    @pytest.mark.parametrize("key", KOLMOGOROV_KEYS)
    def test_affine_parts_batch_matches_scalar(self, key, kolmogorov_systems):
        system = kolmogorov_systems[key]
        states, _ = self._distributions(system, 29)
        g0s, big_gs = system.affine_parts_batch(states)
        assert big_gs.shape == (N_POINTS, system.dim, system.theta_dim)
        for r in range(N_POINTS):
            g0, big_g = system.affine_parts(states[r])
            np.testing.assert_allclose(g0s[r], g0, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(big_gs[r], big_g, rtol=1e-12,
                                       atol=1e-12)

    @pytest.mark.parametrize("key", KOLMOGOROV_KEYS)
    def test_maximize_direction_batch_matches_scalar(self, key,
                                                     kolmogorov_systems):
        system = kolmogorov_systems[key]
        states, rng = self._distributions(system, 31)
        directions = rng.normal(size=(N_POINTS, system.dim))
        batched = DriftExtremizer(system)
        scalar = DriftExtremizer(system, batch=False)
        assert batched.method == "affine"
        thetas, values = batched.maximize_direction_batch(states, directions)
        for r in range(N_POINTS):
            theta_s, value_s = scalar.maximize_direction(states[r],
                                                         directions[r])
            assert values[r] == pytest.approx(value_s, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(thetas[r], theta_s, rtol=1e-12,
                                       atol=1e-12)


class TestNonAffineAndDiscrete:
    def _quadratic_model(self):
        """Drift quadratic in theta: exercises the grid fallback."""
        tr = Transition("t", [1.0], lambda x, th: 1.0 - (th[0] - 0.3) ** 2)
        return PopulationModel("quad", ("x",), [tr], Interval(0.0, 1.0))

    @pytest.mark.parametrize("refine", [False, True])
    def test_grid_strategy_batched_equals_scalar(self, refine):
        model = self._quadratic_model()
        rng = np.random.default_rng(17)
        states = rng.uniform(0.0, 1.0, size=(6, 1))
        directions = rng.normal(size=(6, 1))
        batched = DriftExtremizer(model, method="grid", grid_resolution=4,
                                  refine=refine)
        scalar = DriftExtremizer(model, method="grid", grid_resolution=4,
                                 refine=refine, batch=False)
        thetas_b, values_b = batched.maximize_direction_batch(states, directions)
        thetas_s, values_s = scalar.maximize_direction_batch(states, directions)
        np.testing.assert_allclose(values_b, values_s, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(thetas_b, thetas_s, rtol=1e-9, atol=1e-12)

    def test_discrete_theta_set_batched(self):
        tr = Transition("t", [1.0], lambda x, th: th[0])
        model = PopulationModel(
            "d", ("x",), [tr], DiscreteSet([[1.0], [3.0], [2.0]]),
            affine_drift=lambda x: (np.zeros(1), np.ones((1, 1))),
        )
        batched = DriftExtremizer(model)
        scalar = DriftExtremizer(model, batch=False)
        states = np.zeros((4, 1))
        directions = np.array([[1.0], [-1.0], [2.0], [-0.5]])
        thetas_b, values_b = batched.maximize_direction_batch(states, directions)
        thetas_s, values_s = scalar.maximize_direction_batch(states, directions)
        np.testing.assert_array_equal(thetas_b, thetas_s)
        np.testing.assert_allclose(values_b, values_s, rtol=1e-12)
        lower_b, upper_b = batched.velocity_envelope_batch(states)
        lower_s, upper_s = scalar.velocity_envelope(states[0])
        np.testing.assert_allclose(lower_b[0], lower_s, rtol=1e-12)
        np.testing.assert_allclose(upper_b[0], upper_s, rtol=1e-12)


class TestConsumersBatchedVsScalar:
    """The rewired bound computations agree with the legacy loops."""

    def test_hull_differential(self, sir_model):
        t_eval = np.linspace(0.0, 1.5, 7)
        batched = differential_hull_bounds(sir_model, [0.7, 0.3], t_eval)
        scalar = differential_hull_bounds(sir_model, [0.7, 0.3], t_eval,
                                          batch=False)
        np.testing.assert_allclose(batched.lower, scalar.lower,
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(batched.upper, scalar.upper,
                                   rtol=1e-9, atol=1e-12)

    def test_hull_differential_interior_sampling(self, sir_narrow):
        """x_samples_per_axis > 2 exercises the generic stacked path."""
        t_eval = np.linspace(0.0, 1.0, 5)
        batched = differential_hull_bounds(sir_narrow, [0.7, 0.3], t_eval,
                                           x_samples_per_axis=3)
        scalar = differential_hull_bounds(sir_narrow, [0.7, 0.3], t_eval,
                                          x_samples_per_axis=3, batch=False)
        np.testing.assert_allclose(batched.lower, scalar.lower,
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(batched.upper, scalar.upper,
                                   rtol=1e-9, atol=1e-12)

    def test_hull_differential_four_dimensional(self, gps_map):
        from repro.models import gps_initial_state_map

        t_eval = np.linspace(0.0, 0.5, 4)
        x0 = gps_initial_state_map()
        batched = differential_hull_bounds(gps_map, x0, t_eval)
        scalar = differential_hull_bounds(gps_map, x0, t_eval, batch=False)
        np.testing.assert_allclose(batched.lower, scalar.lower,
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(batched.upper, scalar.upper,
                                   rtol=1e-9, atol=1e-12)

    def test_pontryagin_differential(self, sir_model, sir_x0):
        batched = extremal_trajectory(sir_model, sir_x0, 2.0, [0.0, 1.0],
                                      n_steps=150)
        scalar = extremal_trajectory(sir_model, sir_x0, 2.0, [0.0, 1.0],
                                     n_steps=150, batch=False)
        assert batched.value == pytest.approx(scalar.value, rel=1e-10)
        np.testing.assert_allclose(batched.controls, scalar.controls,
                                   rtol=1e-9, atol=1e-12)

    def test_template_differential(self, sir_model, sir_x0):
        batched = template_reachable_bounds(sir_model, sir_x0, 1.0,
                                            n_steps=80)
        scalar = template_reachable_bounds(sir_model, sir_x0, 1.0,
                                           n_steps=80, batch=False)
        np.testing.assert_allclose(batched.offsets, scalar.offsets,
                                   rtol=1e-9, atol=1e-12)

    def test_inclusion_membership_batched(self, sir_model, rng):
        batched = ParametricInclusion(sir_model)
        scalar = ParametricInclusion(
            sir_model, extremizer=DriftExtremizer(sir_model, batch=False)
        )
        x = np.array([0.5, 0.2])
        for theta in sir_model.theta_set.sample(rng, 5):
            v = sir_model.drift(x, theta)
            assert batched.contains_velocity(x, v)
        outside = np.array([10.0, 10.0])
        assert not batched.contains_velocity(x, outside)
        assert not scalar.contains_velocity(x, outside)

