"""Differential suite for the batched credal-operator kernels.

Pins the batched interval-DTMC machinery against the legacy scalar
paths with *exact* equality — the batch kernels reproduce the legacy
knapsack's sequential rounding and share its final contraction, so any
deviation at all is a bug.  The catalog-derived half of the suite also
discharges the promise in the :mod:`repro.ctmc.interval_dtmc` module
docstring: the entry-wise interval relaxation is conservative with
respect to the exact imprecise-CTMC bounds of
:func:`repro.ctmc.imprecise_reward_bounds`.

CI runs this file with a skip detector: every test here must execute.
"""

import numpy as np
import pytest

from repro.bounds.sweep import uncertain_envelope
from repro.ctmc import (
    ImpreciseCTMC,
    IntervalDTMC,
    imprecise_reward_bounds,
    uncertain_reward_envelope,
)
from repro.ctmc.interval_dtmc import random_interval_dtmc
from repro.models import (
    make_bike_station_model,
    make_power_of_d_model,
    make_sir_full_model,
)

#: (n_states, interval width, seed) triples for the random-chain half.
RANDOM_CASES = [(2, 0.05, 0), (7, 0.15, 1), (23, 0.08, 2), (60, 0.02, 3)]


def _scalar_rows(dtmc, reward, maximize):
    return np.array(
        [dtmc.extreme_row(i, reward, maximize=maximize)
         for i in range(dtmc.n_states)]
    )


@pytest.fixture(scope="module")
def catalog_chains():
    """Small finite chains derived from the catalog model families."""
    chains = {}
    bike = make_bike_station_model()
    chains["bike"] = ImpreciseCTMC(bike.instantiate(8, [0.5]))
    sir = make_sir_full_model()
    chains["sir"] = ImpreciseCTMC(sir.instantiate(5, [0.6, 0.4, 0.0]))
    pod = make_power_of_d_model(buffer_depth=3)
    chains["power_of_d"] = ImpreciseCTMC(pod.instantiate(5, [0.4, 0.0, 0.0]))
    return chains


class TestRandomChainsDifferential:
    @pytest.mark.parametrize("n,width,seed", RANDOM_CASES)
    def test_extreme_rows_bit_identical(self, n, width, seed):
        rng = np.random.default_rng(seed)
        dtmc = random_interval_dtmc(n, rng, width=width)
        for reward in (rng.normal(size=n), rng.random(n), np.zeros(n)):
            for maximize in (True, False):
                batch = dtmc.extreme_rows_batch(reward, maximize=maximize)
                legacy = _scalar_rows(dtmc, reward, maximize)
                assert np.array_equal(batch, legacy)

    @pytest.mark.parametrize("n,width,seed", RANDOM_CASES)
    def test_operator_and_iterates_bit_identical(self, n, width, seed):
        rng = np.random.default_rng(100 + seed)
        dtmc = random_interval_dtmc(n, rng, width=width)
        reward = rng.normal(size=n)
        assert np.array_equal(
            dtmc.upper_operator(reward),
            dtmc.upper_operator(reward, batch=False),
        )
        assert np.array_equal(
            dtmc.lower_operator(reward),
            dtmc.lower_operator(reward, batch=False),
        )
        # 40 iterations compound any rounding divergence into visibility.
        assert np.array_equal(
            dtmc.upper_expectation(reward, 40),
            dtmc.upper_expectation(reward, 40, batch=False),
        )
        lo_b, hi_b = dtmc.expectation_bounds(reward, 25)
        lo_s, hi_s = dtmc.expectation_bounds(reward, 25, batch=False)
        assert np.array_equal(lo_b, lo_s)
        assert np.array_equal(hi_b, hi_s)

    def test_reward_stacks_match_per_reward_legacy(self):
        rng = np.random.default_rng(7)
        dtmc = random_interval_dtmc(17, rng, width=0.1)
        stack = rng.normal(size=(6, 17))
        rows = dtmc.extreme_rows_batch(stack)
        values = dtmc.upper_operator_batch(stack)
        lo, hi = dtmc.expectation_bounds_batch(stack, 12)
        for k in range(stack.shape[0]):
            assert np.array_equal(rows[k], _scalar_rows(dtmc, stack[k], True))
            assert np.array_equal(
                values[k], dtmc.upper_operator(stack[k], batch=False)
            )
            lo_k, hi_k = dtmc.expectation_bounds(stack[k], 12, batch=False)
            assert np.array_equal(lo[k], lo_k)
            assert np.array_equal(hi[k], hi_k)

    def test_stationary_bounds_bit_identical(self):
        rng = np.random.default_rng(11)
        dtmc = random_interval_dtmc(9, rng, width=0.05)
        reward = rng.random(9)
        assert dtmc.stationary_expectation_bounds(reward) == \
            dtmc.stationary_expectation_bounds(reward, batch=False)


class TestCatalogChainsDifferential:
    @pytest.mark.parametrize("key", ["bike", "sir", "power_of_d"])
    def test_uniformized_kernels_bit_identical(self, key, catalog_chains):
        chain = catalog_chains[key]
        dtmc, rate = IntervalDTMC.from_imprecise_ctmc(chain)
        reward = chain.densities() @ np.ones(chain.states.shape[1])
        for maximize in (True, False):
            assert np.array_equal(
                dtmc.extreme_rows_batch(reward, maximize=maximize),
                _scalar_rows(dtmc, reward, maximize),
            )
        steps = max(1, int(np.ceil(1.0 * rate)))
        lo_b, hi_b = dtmc.expectation_bounds(reward, steps)
        lo_s, hi_s = dtmc.expectation_bounds(reward, steps, batch=False)
        assert np.array_equal(lo_b, lo_s)
        assert np.array_equal(hi_b, hi_s)

    @pytest.mark.parametrize("key,horizon", [
        ("bike", 2.0), ("sir", 1.0), ("power_of_d", 1.0),
    ])
    def test_interval_dtmc_encloses_exact_bounds(self, key, horizon,
                                                 catalog_chains):
        """The docstring-promised conservativeness, catalog-wide.

        The Poisson-mixed bounds enclose by construction, so the
        tolerance only absorbs the Pontryagin reference's own grid
        error; the raw step power is additionally biased by its
        O(1/rate) time discretization and gets a matching allowance.
        """
        chain = catalog_chains[key]
        reward = chain.densities()[:, 0]
        dtmc, rate = IntervalDTMC.from_imprecise_ctmc(chain)
        exact_hi = imprecise_reward_bounds(
            chain, reward, horizon, maximize=True, n_steps=200
        ).value
        exact_lo = imprecise_reward_bounds(
            chain, reward, horizon, maximize=False, n_steps=200
        ).value
        mixed_lo, mixed_hi = dtmc.uniformized_bounds(reward, horizon, rate)
        assert mixed_hi[0] >= exact_hi - 1e-6
        assert mixed_lo[0] <= exact_lo + 1e-6
        assert mixed_lo[0] <= mixed_hi[0]
        steps = int(np.ceil(horizon * rate))
        lo, hi = dtmc.expectation_bounds(reward, steps)
        discretization = 1.0 / rate
        assert hi[0] >= exact_hi - discretization
        assert lo[0] <= exact_lo + discretization

    @pytest.mark.parametrize("key", ["bike", "sir"])
    def test_uniformized_bounds_bit_identical(self, key, catalog_chains):
        chain = catalog_chains[key]
        dtmc, rate = IntervalDTMC.from_imprecise_ctmc(chain)
        reward = chain.densities()[:, 0]
        lo_b, hi_b = dtmc.uniformized_bounds(reward, 1.0, rate)
        lo_s, hi_s = dtmc.uniformized_bounds(reward, 1.0, rate, batch=False)
        assert np.array_equal(lo_b, lo_s)
        assert np.array_equal(hi_b, hi_s)

    def test_uniformized_bounds_stack_matches_single(self, catalog_chains):
        chain = catalog_chains["sir"]
        dtmc, rate = IntervalDTMC.from_imprecise_ctmc(chain)
        stack = np.stack([chain.densities()[:, 0], chain.densities()[:, 1]])
        lo, hi = dtmc.uniformized_bounds(stack, 0.8, rate)
        for j in range(stack.shape[0]):
            lo_j, hi_j = dtmc.uniformized_bounds(stack[j], 0.8, rate)
            assert np.array_equal(lo[j], lo_j)
            assert np.array_equal(hi[j], hi_j)


class TestBlockOdeSweep:
    def test_block_ode_matches_legacy_loop(self, catalog_chains):
        """One stacked solve vs one ODE per theta, at solver accuracy.

        The block system shares its adaptive step sequence across
        lanes, so agreement is at integration tolerance (the solves run
        at rtol 1e-9), not bit-for-bit.
        """
        chain = catalog_chains["bike"]
        reward = chain.densities()[:, 0]
        t_eval = np.linspace(0.0, 2.0, 6)
        _, lo_b, hi_b = uncertain_reward_envelope(
            chain, reward, t_eval, resolution=5
        )
        _, lo_s, hi_s = uncertain_reward_envelope(
            chain, reward, t_eval, resolution=5, batch=False
        )
        np.testing.assert_allclose(lo_b, lo_s, atol=1e-8, rtol=0)
        np.testing.assert_allclose(hi_b, hi_s, atol=1e-8, rtol=0)

    def test_block_ode_multi_parameter_chain(self, catalog_chains):
        chain = catalog_chains["sir"]
        reward = (chain.states[:, 1] == 0).astype(float)
        t_eval = np.linspace(0.0, 1.0, 4)
        _, lo_b, hi_b = uncertain_reward_envelope(
            chain, reward, t_eval, resolution=4
        )
        _, lo_s, hi_s = uncertain_reward_envelope(
            chain, reward, t_eval, resolution=4, batch=False
        )
        np.testing.assert_allclose(lo_b, lo_s, atol=1e-8, rtol=0)
        np.testing.assert_allclose(hi_b, hi_s, atol=1e-8, rtol=0)


class TestBatchedRk4Sweep:
    def test_rk4_batch_bit_identical_vectorized_model(self):
        from repro.models import make_sir_model

        model = make_sir_model()
        t_eval = np.linspace(0.0, 2.0, 7)
        kwargs = dict(resolution=7, integrator="rk4", rk4_steps=120)
        env_b = uncertain_envelope(model, [0.7, 0.3], t_eval, **kwargs)
        env_s = uncertain_envelope(model, [0.7, 0.3], t_eval, batch=False,
                                   **kwargs)
        for name in env_b.observable_names:
            assert np.array_equal(env_b.lower[name], env_s.lower[name])
            assert np.array_equal(env_b.upper[name], env_s.upper[name])
            assert np.array_equal(env_b.argmax_theta[name],
                                  env_s.argmax_theta[name])

    def test_rk4_batch_bit_identical_fallback_model(self):
        # Bike rates branch on scalars, so drift_batch falls back to its
        # per-row loop internally — the sweep must still be identical.
        model = make_bike_station_model()
        t_eval = np.linspace(0.0, 3.0, 5)
        kwargs = dict(resolution=3, integrator="rk4", rk4_steps=150)
        env_b = uncertain_envelope(model, [0.6], t_eval, **kwargs)
        env_s = uncertain_envelope(model, [0.6], t_eval, batch=False,
                                   **kwargs)
        assert np.array_equal(env_b.lower["occupied"], env_s.lower["occupied"])
        assert np.array_equal(env_b.upper["occupied"], env_s.upper["occupied"])

