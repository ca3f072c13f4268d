"""Statistical equivalence of the vectorized and scalar SSA engines.

The two engines consume randomness differently, so trajectories differ
path-by-path even for the same seed; what must agree is the *law* of
the ensemble.  With fixed seeds these tests are deterministic, and the
seeds are chosen so the checks sit far from their thresholds:

- ensemble mean and std paths agree within CLT-scale tolerances
  (standard errors of the corresponding estimators, with a lattice-step
  floor);
- the final-state clouds agree under a two-sample Kolmogorov–Smirnov
  test per coordinate (p > 0.01);

for the paper's SIR model (constant, hysteresis and random-jump
policies — the last two are exactly the Figure 6 environments) and the
power-of-``d``-choices load balancer (higher-dimensional state with
boundary-disabled events, stressing the per-row masking of the batched
rate evaluator).
"""

import numpy as np
import pytest
from scipy.stats import ks_2samp

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
from repro.simulation import (
    ConstantPolicy,
    HysteresisPolicy,
    RandomJumpPolicy,
    batch_simulate,
)


def run_both_engines(population, policy_factory, t_final, n_runs, seed,
                     n_samples=21):
    vec = batch_simulate(population, policy_factory, t_final, n_runs=n_runs,
                         seed=seed, n_samples=n_samples, engine="vectorized")
    sca = batch_simulate(population, policy_factory, t_final, n_runs=n_runs,
                         seed=seed, n_samples=n_samples, engine="scalar")
    return vec, sca


def assert_clt_equivalent(vec, sca, n_runs, population_size):
    """Mean/std paths agree within CLT-scale standard errors."""
    floor = 3.0 / population_size  # lattice resolution
    se_mean = np.sqrt(vec.std() ** 2 + sca.std() ** 2) / np.sqrt(n_runs)
    mean_gap = np.abs(vec.mean() - sca.mean())
    np.testing.assert_array_less(mean_gap, 6.0 * se_mean + floor)

    se_std = (vec.std() + sca.std()) / (2 * np.sqrt(2.0 * (n_runs - 1)))
    std_gap = np.abs(vec.std() - sca.std())
    np.testing.assert_array_less(std_gap, 6.0 * se_std + floor)


def assert_ks_equivalent(vec, sca, alpha=0.01):
    """Final-state clouds agree per coordinate (two-sample KS)."""
    vec_finals = vec.final_states()
    sca_finals = sca.final_states()
    for coordinate in range(vec_finals.shape[1]):
        stat = ks_2samp(vec_finals[:, coordinate], sca_finals[:, coordinate])
        assert stat.pvalue > alpha, (
            f"coordinate {coordinate}: KS D={stat.statistic:.3f}, "
            f"p={stat.pvalue:.4f}"
        )


class TestSIREquivalence:
    N_RUNS = 80

    def test_constant_policy(self, sir_model):
        population = sir_model.instantiate(200, [0.7, 0.3])
        vec, sca = run_both_engines(
            population, lambda: ConstantPolicy([5.0]), 2.0,
            n_runs=self.N_RUNS, seed=11,
        )
        assert_clt_equivalent(vec, sca, self.N_RUNS, 200)
        assert_ks_equivalent(vec, sca)

    def test_hysteresis_policy_theta1(self, sir_model):
        factory = lambda: HysteresisPolicy(  # noqa: E731
            [1.0], [10.0], coordinate=0,
            low_threshold=0.5, high_threshold=0.85,
        )
        population = sir_model.instantiate(200, [0.7, 0.3])
        vec, sca = run_both_engines(
            population, factory, 2.0, n_runs=self.N_RUNS, seed=12,
        )
        assert_clt_equivalent(vec, sca, self.N_RUNS, 200)
        assert_ks_equivalent(vec, sca)

    def test_random_jump_policy_theta2(self, sir_model):
        factory = lambda: RandomJumpPolicy(  # noqa: E731
            sir_model.theta_set, rate_fn=lambda t, x: 5.0 * x[1],
        )
        population = sir_model.instantiate(200, [0.7, 0.3])
        vec, sca = run_both_engines(
            population, factory, 2.0, n_runs=self.N_RUNS, seed=13,
        )
        assert_clt_equivalent(vec, sca, self.N_RUNS, 200)
        assert_ks_equivalent(vec, sca)
        # Both engines exercised the autonomous policy race.
        assert vec.n_policy_jumps > 0
        assert sca.n_policy_jumps > 0


class TestPowerOfDEquivalence:
    N_RUNS = 60

    @pytest.fixture
    def pod_population(self):
        model = make_power_of_d_model(buffer_depth=5)
        x0 = np.zeros(5)
        x0[0] = 0.5
        return model, model.instantiate(150, x0)

    def test_constant_policy(self, pod_population):
        model, population = pod_population
        vec, sca = run_both_engines(
            population, lambda: ConstantPolicy([0.9]), 1.5,
            n_runs=self.N_RUNS, seed=21,
        )
        assert_clt_equivalent(vec, sca, self.N_RUNS, 150)
        assert_ks_equivalent(vec, sca)

    def test_batched_rates_match_scalar_rates(self, pod_population):
        """The batched rate evaluator agrees with the scalar one row-by-row
        on random lattice states (exact, not statistical)."""
        model, population = pod_population
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 151, size=(32, 5))
        # Enforce the tail-coordinate monotonicity x_1 >= x_2 >= ... of
        # reachable states.
        counts = np.sort(counts, axis=1)[:, ::-1]
        thetas = model.theta_set.sample(rng, 32)
        batched = population.aggregate_rates_batch(counts, thetas)
        for r in range(32):
            np.testing.assert_allclose(
                batched[r],
                population.aggregate_rates(counts[r], thetas[r]),
                rtol=1e-12, atol=1e-12,
            )


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


class TestCatalogBatchedRates:
    """The vectorized engine's rate kernels agree with the scalar ones
    row by row on every catalog model (exact, not statistical)."""

    N = 40
    ROWS = 16

    @pytest.mark.parametrize("factory", CATALOG_FACTORIES,
                             ids=lambda f: f.__name__)
    def test_transition_rates_batch_matches_scalar(self, factory):
        model = factory()
        rng = np.random.default_rng(7)
        x = rng.uniform(0.05, 0.95, size=(self.ROWS, model.dim))
        thetas = model.theta_set.sample(rng, self.ROWS)
        batched = model.transition_rates_batch(x, thetas)
        assert batched.shape == (self.ROWS, len(model.transitions))
        for r in range(self.ROWS):
            np.testing.assert_allclose(
                batched[r], model.transition_rates(x[r], thetas[r]),
                rtol=1e-12, atol=1e-12,
            )

    @pytest.mark.parametrize("factory", CATALOG_FACTORIES,
                             ids=lambda f: f.__name__)
    def test_aggregate_rates_batch_matches_scalar(self, factory):
        """Includes lattice-boundary rows, where the batched event mask
        must disable exactly the events the scalar loop disables."""
        model = factory()
        rng = np.random.default_rng(9)
        population = model.instantiate(self.N, np.full(model.dim, 0.5))
        counts = rng.integers(0, self.N + 1, size=(self.ROWS, model.dim))
        counts[0] = 0
        counts[1] = self.N
        thetas = model.theta_set.sample(rng, self.ROWS)
        batched = population.aggregate_rates_batch(counts, thetas)
        assert batched.shape == (self.ROWS, len(model.transitions))
        for r in range(self.ROWS):
            np.testing.assert_allclose(
                batched[r], population.aggregate_rates(counts[r], thetas[r]),
                rtol=1e-12, atol=1e-12,
            )


class TestBatchedRateFallback:
    def test_reduction_rate_functions_fall_back_not_pool(self):
        """A rate written as a reduction (np.sum over the state) returns
        a 0-d value on the coordinate-major batch; it must route through
        the per-row fallback, never be broadcast batch-pooled."""
        from repro.params import Interval
        from repro.population import PopulationModel, Transition

        model = PopulationModel(
            "reduction_rate",
            state_names=("a", "b"),
            transitions=[
                Transition("sum_rate", change=[1.0, 0.0],
                           rate=lambda x, th: 0.3 * np.sum(x)),
                # Partial reduction: right (n,) shape, row-pooled
                # values — only the first-call cross-check catches it.
                Transition("mixed_rate", change=[0.0, 1.0],
                           rate=lambda x, th: x[0] * np.sum(x)),
                Transition("drain", change=[-1.0, 0.0],
                           rate=lambda x, th: x[0]),
            ],
            theta_set=Interval(0.0, 1.0),
        )
        x = np.array([[0.2, 0.1], [0.4, 0.3], [0.6, 0.1]])
        thetas = np.full((3, 1), 0.5)
        batched = model.transition_rates_batch(x, thetas)
        expected = np.stack([model.transition_rates(x[r], thetas[r])
                             for r in range(3)])
        np.testing.assert_allclose(batched, expected, rtol=1e-12)

    def test_mean_pooling_rate_not_blessed_on_identical_rows(self):
        """np.mean over the coordinate-major batch equals the correct
        value when all rows are identical (the engine's first step), so
        validation must defer until rows are distinct — never cache a
        verdict from the degenerate batch."""
        from repro.params import Interval
        from repro.population import PopulationModel, Transition

        model = PopulationModel(
            "mean_pool", ("a", "b"),
            transitions=[
                Transition("pooled", change=[1.0, 0.0],
                           rate=lambda x, th: th[0] * np.mean(x)),
            ],
            theta_set=Interval(0.0, 1.0),
        )
        identical = np.tile([0.2, 0.1], (4, 1))
        thetas = np.full((4, 1), 0.5)
        model.transition_rates_batch(identical, thetas)
        assert model._batch_rate_ok.get(0) is None  # verdict deferred

        distinct = np.array([[0.2, 0.1], [0.4, 0.05], [0.05, 0.05],
                             [0.3, 0.2]])
        batched = model.transition_rates_batch(distinct, thetas)
        expected = np.stack([model.transition_rates(distinct[r], thetas[r])
                             for r in range(4)])
        np.testing.assert_allclose(batched, expected[:, :], rtol=1e-12)
        assert model._batch_rate_ok.get(0) is False  # pooling detected

    def test_reduction_jump_rate_falls_back(self, sir_model):
        """Same hole for RandomJumpPolicy rate functions."""
        factory = lambda: RandomJumpPolicy(  # noqa: E731
            sir_model.theta_set, rate_fn=lambda t, x: 4.0 * np.sum(x),
        )
        population = sir_model.instantiate(100, [0.7, 0.3])
        vec, sca = run_both_engines(population, factory, 1.0, n_runs=40,
                                    seed=31, n_samples=11)
        # With the pooled-broadcast bug the vectorized jump rate is
        # ~n_runs times too large; jump counts expose that immediately.
        assert vec.n_policy_jumps < 5 * max(sca.n_policy_jumps, 1)


class TestShardedSweep:
    def test_serial_and_pooled_shards_agree(self):
        """Shard results are a function of (seed, grid) only — the
        process count must not change them."""
        from repro.engine import sweep_constant_ensembles

        grid = make_sir_model().theta_set.grid(3)
        kwargs = dict(
            x0=[0.7, 0.3], population_size=150, thetas=grid,
            t_final=1.0, n_runs=4, seed=42, n_samples=11,
        )
        serial = sweep_constant_ensembles(make_sir_model, **kwargs)
        pooled = sweep_constant_ensembles(make_sir_model, processes=2,
                                          **kwargs)
        assert len(serial) == len(pooled) == grid.shape[0]
        for a, b in zip(serial, pooled):
            np.testing.assert_array_equal(a.states, b.states)
        # Different grid points use independent streams.
        assert not np.array_equal(serial[0].states, serial[1].states)

    def test_shard_streams_pinned_to_seedsequence_spawn(self):
        """Shard ``i`` consumes exactly the ``i``-th spawn of
        ``SeedSequence(seed)`` — the contract that makes sweeps
        reproducible for a fixed seed regardless of worker count."""
        from repro.engine import simulate_ensemble, sweep_constant_ensembles
        from repro.simulation import ConstantPolicy

        grid = np.array([[2.0], [8.0]])
        seed = 99
        sweep = sweep_constant_ensembles(
            make_sir_model, x0=[0.7, 0.3], population_size=120,
            thetas=grid, t_final=0.8, n_runs=3, seed=seed, n_samples=9,
        )
        spawned = np.random.SeedSequence(seed).spawn(grid.shape[0])
        model = make_sir_model()
        for i, theta in enumerate(grid):
            direct = simulate_ensemble(
                model.instantiate(120, [0.7, 0.3]),
                lambda: ConstantPolicy(theta), 0.8, n_runs=3,
                rng=np.random.default_rng(spawned[i]), n_samples=9,
            )
            np.testing.assert_array_equal(sweep[i].states, direct.states)

    def test_seed_accepts_a_seedsequence(self):
        from repro.engine import sweep_constant_ensembles

        kwargs = dict(
            x0=[0.7, 0.3], population_size=80, thetas=[3.0],
            t_final=0.5, n_runs=2, n_samples=6,
        )
        a = sweep_constant_ensembles(make_sir_model, seed=7, **kwargs)
        b = sweep_constant_ensembles(
            make_sir_model, seed=np.random.SeedSequence(7), **kwargs
        )
        np.testing.assert_array_equal(a[0].states, b[0].states)

    def test_scalar_sequence_means_one_shard_per_scalar(self):
        """thetas=[2, 5, 8] is three scalar grid points, not one 3-D one."""
        from repro.engine import sweep_constant_ensembles

        results = sweep_constant_ensembles(
            make_sir_model, x0=[0.7, 0.3], population_size=100,
            thetas=[2.0, 5.0, 8.0], t_final=0.5, n_runs=2, seed=1,
            n_samples=6,
        )
        assert len(results) == 3

    def test_empty_grid_rejected(self):
        from repro.engine import sweep_constant_ensembles

        with pytest.raises(ValueError, match="grid point"):
            sweep_constant_ensembles(
                make_sir_model, x0=[0.7, 0.3], population_size=50,
                thetas=np.empty((0, 1)), t_final=1.0, n_runs=2,
            )


class TestEngineDeterminism:
    def test_same_seed_same_ensemble(self, sir_model):
        population = sir_model.instantiate(100, [0.7, 0.3])
        a = batch_simulate(population, lambda: ConstantPolicy([5.0]), 1.0,
                           n_runs=10, seed=5, n_samples=11)
        b = batch_simulate(population, lambda: ConstantPolicy([5.0]), 1.0,
                           n_runs=10, seed=5, n_samples=11)
        np.testing.assert_array_equal(a.states, b.states)

    def test_different_seeds_differ(self, sir_model):
        population = sir_model.instantiate(100, [0.7, 0.3])
        a = batch_simulate(population, lambda: ConstantPolicy([5.0]), 1.0,
                           n_runs=10, seed=5, n_samples=11)
        b = batch_simulate(population, lambda: ConstantPolicy([5.0]), 1.0,
                           n_runs=10, seed=6, n_samples=11)
        assert not np.array_equal(a.states, b.states)
