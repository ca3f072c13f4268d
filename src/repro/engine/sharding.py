"""Multiprocessing sharding for ensemble parameter sweeps.

The vectorized engine removes the per-event Python overhead *within*
one ensemble; parameter sweeps (one ensemble per ``theta`` grid point,
the uncertain-scenario workload of Definition 2) are embarrassingly
parallel *across* ensembles.  :func:`sweep_constant_ensembles` shards a
sweep one-grid-point-per-task over a :mod:`multiprocessing` pool.

Because population models carry closures (rate lambdas) they do not
pickle; each shard therefore rebuilds its model in the worker from a
*module-level factory* (``make_sir_model`` et al.) plus keyword
arguments, which is also what keeps the sharding compatible with spawn
start methods.  Shard seeds are spawned from one
:class:`numpy.random.SeedSequence`, so streams are independent and the
sweep is reproducible for a fixed ``seed`` regardless of process count.
"""

from __future__ import annotations

import multiprocessing
import operator
import pickle
import time
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from repro import telemetry
from repro.engine.vectorized import simulate_ensemble
from repro.simulation.batch import BatchResult

__all__ = ["map_shards", "sweep_constant_ensembles"]


class _TimedCall:
    """Picklable wrapper returning ``(seconds, fn(payload))``.

    The telemetry registry is process-local, so counters a worker bumps
    never reach the parent; wall time measured *inside* the worker and
    shipped back with the result is the one per-shard signal that
    survives the pool boundary.  ``fn`` must be a module-level callable
    (which :func:`map_shards` already requires for pool use).
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable) -> None:
        self.fn = fn

    def __call__(self, payload):
        start = time.perf_counter()
        result = self.fn(payload)
        return time.perf_counter() - start, result


def _pool_map(fn: Callable, payloads: Sequence, processes: int,
              initializer: Optional[Callable], initargs: tuple) -> List:
    """Legacy ``Pool.map`` with the two environmental guards.

    Pool *creation* failure (sandboxed env without semaphores or
    ``/dev/shm``) degrades to the serial path — warn once, stamp
    ``engine.shard.pool_unavailable`` — instead of crashing the sweep.
    Teardown goes through ``terminate`` in a ``finally`` so a
    ``KeyboardInterrupt`` mid-``map`` kills the workers immediately
    rather than leaking them (``close``/``join`` would wait out
    whatever the interrupt was trying to stop).
    """
    try:
        pool = multiprocessing.Pool(
            processes=min(processes, len(payloads)),
            initializer=initializer, initargs=initargs,
        )
    except (OSError, ImportError) as exc:
        from repro.resilience.execution import warn_pool_unavailable

        warn_pool_unavailable(exc)
        if initializer is not None:
            initializer(*initargs)
        return [fn(p) for p in payloads]
    try:
        return pool.map(fn, payloads)
    finally:
        pool.terminate()
        pool.join()


def map_shards(fn: Callable, payloads: Sequence,
               processes: Optional[int] = None,
               initializer: Optional[Callable] = None,
               initargs: tuple = (),
               policy=None) -> List:
    """Map ``fn`` over picklable payloads, optionally across a process pool.

    The shared fan-out primitive of the engine layer: results come back
    in input order, and ``processes`` of ``None`` / ``1`` (or a single
    payload) short-circuits to an in-process loop with zero pool
    overhead.  Both the ensemble parameter sweep below and the scenario
    runner (:func:`repro.scenarios.run_scenario`) shard through here, so
    worker-count invariance is tested once for all of them: ``fn`` must
    be deterministic per payload (any randomness derived from a seed
    carried *inside* the payload).

    ``initializer`` / ``initargs`` follow the :class:`multiprocessing.Pool`
    contract: shard-invariant context (a model factory, a frozen sweep
    configuration) is pickled **once per worker** instead of once per
    payload, which is what keeps per-shard payloads small on wide
    sweeps.  The serial path calls the initializer once in-process, so
    ``fn`` sees the same worker-context protocol either way.

    With telemetry enabled, per-shard wall time and pickled payload
    size land on the registry as the ``engine.shard.seconds`` /
    ``engine.shard.payload_bytes`` histograms, and the one-time worker
    context size on the ``engine.shard.shared_bytes`` histogram.

    ``policy`` (a :class:`repro.resilience.RetryPolicy`) switches to
    the fault-tolerant executor — bounded retries with deterministic
    backoff, per-shard timeouts, worker-death recovery, and (under
    ``on_error="partial"``) typed :class:`~repro.resilience.ShardFailure`
    records in the failed slots instead of an aborted sweep.  With no
    policy the legacy path below runs unchanged (bit-identical results,
    no executor machinery).
    """
    payloads = list(payloads)
    if policy is not None:
        from repro.resilience.execution import map_shards_robust

        return map_shards_robust(fn, payloads, processes, policy,
                                 initializer=initializer,
                                 initargs=initargs)
    serial = processes is None or processes <= 1 or len(payloads) <= 1
    if not telemetry.enabled():
        if serial:
            if initializer is not None:
                initializer(*initargs)
            return [fn(p) for p in payloads]
        return _pool_map(fn, payloads, processes, initializer, initargs)

    with telemetry.span("engine.map_shards", shards=len(payloads),
                        processes=1 if serial else processes):
        payload_hist = telemetry.live_histogram("engine.shard.payload_bytes")
        shared_hist = telemetry.live_histogram("engine.shard.shared_bytes")
        unpicklable = telemetry.live_counter(
            "engine.shard.unpicklable_payloads"
        )
        if initializer is not None and shared_hist is not None:
            try:
                shared_hist.observe(len(pickle.dumps(initargs)))
            except Exception:
                if unpicklable is not None:
                    unpicklable.inc()
        for p in payloads:
            try:
                size = len(pickle.dumps(p))
            except Exception:
                # The serial path never required picklable payloads;
                # observability must not start requiring it either — the
                # skip is stamped on a counter and size metering stops.
                if unpicklable is not None:
                    unpicklable.inc()
                break
            if payload_hist is not None:
                payload_hist.observe(size)
        timed = _TimedCall(fn)
        if serial:
            if initializer is not None:
                initializer(*initargs)
            pairs = [timed(p) for p in payloads]
        else:
            pairs = _pool_map(timed, payloads, processes,
                              initializer, initargs)
        telemetry.inc("engine.shard.calls", len(pairs))
        telemetry.observe_many("engine.shard.seconds",
                               [seconds for seconds, _ in pairs])
        return [result for _, result in pairs]


#: Per-worker sweep context installed by :func:`_init_sweep_worker`:
#: ``(population, sweep_config)``.  Module-global by necessity —
#: a pool worker has no other channel from the initializer to the task
#: function — and rebuilt wholesale by the next sweep's initializer.
_SWEEP_CONTEXT = None


def _init_sweep_worker(shared) -> None:
    """Build the shard-invariant sweep state once per worker process.

    ``shared`` carries the model factory and every shard-invariant
    sweep argument.  The factory runs *here*, so each worker constructs
    (and each pool pickles) the model exactly once, no matter how many
    ``theta`` grid points it processes; per-shard payloads shrink to
    ``(theta, seed_seq)``.
    """
    global _SWEEP_CONTEXT
    (model_factory, model_kwargs, x0, population_size, t_final, n_runs,
     n_samples, t_start, max_events) = shared
    model = model_factory(**model_kwargs)
    population = model.instantiate(population_size, x0)
    _SWEEP_CONTEXT = (population, shared)


def _run_shard(payload) -> BatchResult:
    theta, seed_seq = payload
    from repro.simulation.policies import ConstantPolicy

    population, shared = _SWEEP_CONTEXT
    _, _, _, _, t_final, n_runs, n_samples, t_start, max_events = shared
    return simulate_ensemble(
        population,
        lambda: ConstantPolicy(theta),
        t_final,
        n_runs=n_runs,
        rng=np.random.default_rng(seed_seq),
        n_samples=n_samples,
        t_start=t_start,
        max_events=max_events,
    )


def sweep_constant_ensembles(
    model_factory: Callable,
    x0,
    population_size: int,
    thetas,
    t_final: float,
    n_runs: int,
    seed: Union[int, np.random.SeedSequence] = 0,
    n_samples: int = 200,
    t_start: float = 0.0,
    max_events: int = 50_000_000,
    processes: Optional[int] = None,
    model_kwargs: Optional[dict] = None,
    policy=None,
) -> List[BatchResult]:
    """Run one vectorized ensemble per ``theta`` grid point.

    Parameters
    ----------
    model_factory:
        Module-level model constructor (e.g. ``make_sir_model``); called
        as ``model_factory(**model_kwargs)`` inside each worker.
    x0, population_size:
        Initial density and chain size shared by all shards.
    thetas:
        Grid of frozen parameters, shape ``(n_points, p)`` — typically
        ``model.theta_set.grid(resolution)``.  A 1-D sequence is
        interpreted as ``n_points`` *scalar* grid points (shape
        ``(n_points, 1)``); multi-dimensional parameter sets must pass
        the 2-D form.
    t_final, n_runs, n_samples, t_start, max_events:
        Forwarded to :func:`~repro.engine.simulate_ensemble` per shard.
    seed:
        Root seed (or a pre-built :class:`numpy.random.SeedSequence`);
        shard ``i`` draws from the ``i``-th spawn of the root sequence,
        so for a fixed seed the per-shard streams — and therefore the
        results — are identical regardless of ``processes``.
    processes:
        ``None`` or ``1`` runs the shards serially in-process (no pool
        overhead — the right choice on single-core boxes and inside
        tests); larger values fan the shards out over a pool.
    policy:
        Optional :class:`repro.resilience.RetryPolicy`; the sweep then
        inherits :func:`map_shards`' fault-tolerant semantics, and with
        ``on_error="partial"`` failed grid points come back as
        :class:`~repro.resilience.ShardFailure` records in their slots.

    Returns
    -------
    One :class:`~repro.simulation.BatchResult` per grid point, in input
    order.
    """
    theta_grid = np.asarray(thetas, dtype=float)
    if theta_grid.ndim == 1:
        # A flat sequence is a list of scalar grid points, one shard
        # each — not a single multi-dimensional point.
        theta_grid = theta_grid[:, None]
    if theta_grid.ndim != 2:
        raise ValueError(
            f"thetas must be (n_points, p) or a 1-D sequence of scalars, "
            f"got shape {theta_grid.shape}"
        )
    if theta_grid.shape[0] == 0:
        raise ValueError("thetas must contain at least one grid point")
    if not callable(model_factory):
        raise TypeError("model_factory must be callable")
    n_runs = operator.index(n_runs)  # reject silent float truncation
    root = (seed if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed))
    seed_seqs = root.spawn(theta_grid.shape[0])
    shared = (model_factory, dict(model_kwargs or {}),
              np.asarray(x0, dtype=float), int(population_size),
              float(t_final), n_runs, int(n_samples), float(t_start),
              int(max_events))
    payloads = [
        (theta_grid[i], seed_seqs[i]) for i in range(theta_grid.shape[0])
    ]
    return map_shards(_run_shard, payloads, processes,
                      initializer=_init_sweep_worker, initargs=(shared,),
                      policy=policy)
