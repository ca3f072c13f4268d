"""Vectorized multi-trajectory SSA: step a whole ensemble per iteration.

The scalar :func:`~repro.simulation.simulate` spends nearly all of its
time in per-event Python overhead — three rate-lambda calls, a handful
of tiny-array NumPy ops and an RNG draw *per event per trajectory*.  For
the paper's Figure 6 workload (``N = 10^4`` chains, ensembles of
hundreds of runs) that overhead dominates by orders of magnitude.

:func:`simulate_ensemble` removes it by simulating all ``n_runs``
trajectories simultaneously as ``(n_runs, d)`` arrays:

- **batched rates** — one call to
  :meth:`~repro.population.FinitePopulation.aggregate_rates_batch`
  evaluates every transition for every row (each rate lambda is invoked
  once per *step*, not once per row);
- **batched clocks** — the per-row exponential holding times and the
  event-selection uniforms are drawn from a single
  :class:`numpy.random.Generator` with one vectorized call each;
- **per-row policies** — a :class:`~repro.engine.lanes.PolicyLane`
  answers ``theta`` / ``jump_rate`` / ``next_switch_after`` for all rows
  at once, keeping per-row internal state (hysteresis modes, current
  random-jump parameters) as arrays.

Exactness
---------
Each row runs the *same* direct-method race as the scalar kernel, just
asynchronously in its own clock:

1. draw the row's holding time ``~ Exp(total rate)``;
2. if the draw crosses the row's next deterministic policy switch,
   advance that row to the switch and re-draw — the exponential
   distribution is memoryless, so restarting the race at the switch
   leaves the law of the trajectory unchanged (the same argument the
   scalar kernel uses);
3. otherwise pick the row's event proportionally to its rates — either
   a model transition or an autonomous policy re-draw.

Rows hit their horizons at different step counts; finished rows leave
the active set, so late finishers never pay for early ones.  The engine
is *statistically* equivalent to ``n_runs`` scalar calls but consumes
the RNG stream in a different order, so trajectories differ path-by-path
for the same seed; the equivalence tests pin the two engines together
through ensemble statistics (CLT bands on mean/std, two-sample KS on
final-state clouds).
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Union

import numpy as np

from repro import telemetry
from repro.engine.lanes import build_lane
from repro.population import FinitePopulation
from repro.simulation.batch import BatchResult, validate_ensemble_args

__all__ = ["simulate_ensemble"]


def simulate_ensemble(
    population: FinitePopulation,
    policy_factory: Callable,
    t_final: float,
    n_runs: int,
    seed: Union[int, np.random.SeedSequence] = 0,
    rng: Optional[np.random.Generator] = None,
    n_samples: int = 200,
    t_start: float = 0.0,
    max_events: int = 50_000_000,
) -> BatchResult:
    with telemetry.span("engine.ensemble", runs=n_runs) as sp:
        t0 = time.perf_counter()
        batch = _simulate_ensemble_impl(
            population, policy_factory, t_final, n_runs,
            seed=seed, rng=rng, n_samples=n_samples, t_start=t_start,
            max_events=max_events,
        )
        if telemetry.enabled():
            elapsed = time.perf_counter() - t0
            events = batch.n_events + batch.n_policy_jumps
            telemetry.inc("engine.ssa.runs", batch.states.shape[0])
            telemetry.inc("engine.ssa.events", batch.n_events)
            telemetry.inc("engine.ssa.policy_jumps", batch.n_policy_jumps)
            if elapsed > 0.0:
                telemetry.set_gauge("engine.ssa.events_per_sec",
                                    events / elapsed)
            sp.set("events", events)
    return batch


def _simulate_ensemble_impl(
    population: FinitePopulation,
    policy_factory: Callable,
    t_final: float,
    n_runs: int,
    seed: Union[int, np.random.SeedSequence] = 0,
    rng: Optional[np.random.Generator] = None,
    n_samples: int = 200,
    t_start: float = 0.0,
    max_events: int = 50_000_000,
) -> BatchResult:
    """Run ``n_runs`` independent SSA trajectories, vectorized across rows.

    Parameters
    ----------
    population:
        The instantiated finite-``N`` chain (all rows start from its
        initial state).
    policy_factory:
        Zero-argument callable producing a fresh
        :class:`~repro.simulation.ControlPolicy`; known policy classes
        are vectorized into a single lane, unknown ones fall back to one
        instance per row.
    t_final:
        Simulation horizon.
    n_runs:
        Ensemble size.
    seed:
        Seed (or :class:`numpy.random.SeedSequence`) for the single
        generator driving every row; ignored when ``rng`` is given.
    rng:
        Explicit generator, for callers composing streams.
    n_samples:
        Equally spaced output samples on ``[t_start, t_final]``.
    max_events:
        Safety cap on the events of any single row.

    Returns
    -------
    A :class:`~repro.simulation.BatchResult` with ``states`` of shape
    ``(n_runs, n_samples, d)``.
    """
    n_runs = validate_ensemble_args(n_runs, t_final, t_start, n_samples)
    rng = rng if rng is not None else np.random.default_rng(seed)

    model = population.model
    dim = model.dim
    n_transitions = len(model.transitions)
    size = population.population_size
    changes = population.change_matrix

    lane = build_lane(policy_factory, n_runs)
    lane.reset(rng, population.initial_density)

    counts = np.tile(population.initial_counts, (n_runs, 1))
    t = np.full(n_runs, float(t_start))
    sample_times = np.linspace(t_start, t_final, n_samples)
    states = np.empty((n_runs, n_samples, dim))
    next_sample = np.zeros(n_runs, dtype=np.int64)
    n_events = np.zeros(n_runs, dtype=np.int64)
    n_policy_jumps = np.zeros(n_runs, dtype=np.int64)

    # Hoisted once: None when telemetry is disabled, so the loop body
    # pays a single identity check per iteration.
    chunk_hist = telemetry.live_histogram("engine.ssa.chunk_rows")

    active = np.arange(n_runs)
    while active.size:
        rows = active
        if chunk_hist is not None:
            chunk_hist.observe(rows.shape[0])
        if np.any(n_events[rows] + n_policy_jumps[rows] >= max_events):
            worst = rows[
                np.argmax(n_events[rows] + n_policy_jumps[rows])
            ]
            raise RuntimeError(
                f"SSA row {worst} exceeded max_events={max_events} before "
                f"t_final (reached t={t[worst]:.4g}); raise the cap or "
                f"shorten the horizon"
            )
        x = counts[rows] / size
        theta = model.theta_set.project_batch(lane.theta(rows, t[rows], x))
        rates = population.aggregate_rates_batch(counts[rows], theta)
        policy_rate = lane.jump_rate(rows, t[rows], x)
        total = rates.sum(axis=1) + policy_rate
        switch_at = lane.next_switch_after(rows, t[rows])

        # Per-row holding times; absorbed rows (no enabled event) get an
        # infinite draw, which routes them to their next policy switch
        # or to the horizon, exactly as the scalar kernel does.
        t_next = np.full(rows.shape[0], np.inf)
        racing = total > 0.0
        if racing.any():
            t_next[racing] = t[rows[racing]] + rng.exponential(
                1.0 / total[racing]
            )

        crosses_switch = t_next > switch_at
        finishes = ~crosses_switch & (t_next > t_final)
        fires = ~crosses_switch & ~finishes

        # Record the pre-jump state on each row's slice of the shared
        # output grid.  Only rows that actually crossed a grid point do
        # per-row work; with event resolution much finer than the grid
        # this loop is touched rarely.
        record_to = np.where(
            crosses_switch,
            np.minimum(switch_at, t_final),
            np.minimum(t_next, t_final),
        )
        new_next = np.searchsorted(sample_times, record_to, side="right")
        advanced = np.nonzero(new_next > next_sample[rows])[0]
        for i in advanced:
            g = rows[i]
            states[g, next_sample[g]:new_next[i]] = x[i]
        next_sample[rows] = np.maximum(next_sample[rows], new_next)

        if fires.any():
            firing = np.nonzero(fires)[0]
            u = rng.uniform(0.0, total[firing])
            is_policy = u < policy_rate[firing]
            jumping = firing[is_policy]
            if jumping.size:
                lane.on_jump(rows[jumping], t_next[jumping], x[jumping], rng)
                n_policy_jumps[rows[jumping]] += 1
            transitioning = firing[~is_policy]
            if transitioning.size:
                residual = u[~is_policy] - policy_rate[transitioning]
                cumulative = np.cumsum(rates[transitioning], axis=1)
                event = np.minimum(
                    (cumulative <= residual[:, None]).sum(axis=1),
                    n_transitions - 1,
                )
                counts[rows[transitioning]] += changes[event]
                n_events[rows[transitioning]] += 1
            t[rows[firing]] = t_next[firing]

        if crosses_switch.any():
            switching = np.nonzero(crosses_switch)[0]
            t[rows[switching]] = switch_at[switching]
        if finishes.any():
            t[rows[np.nonzero(finishes)[0]]] = t_final

        active = rows[t[rows] < t_final]

    return BatchResult(
        times=sample_times,
        states=states,
        population_size=size,
        n_events=int(n_events.sum()),
        n_policy_jumps=int(n_policy_jumps.sum()),
    )


simulate_ensemble.__doc__ = _simulate_ensemble_impl.__doc__
