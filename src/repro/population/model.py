"""The :class:`PopulationModel` definition object.

A population model is the *specification* of an imprecise population
process: a list of transition classes plus the parameter domain ``Theta``.
From it everything else in the library is derived — the imprecise drift
(Definition 3), the mean-field differential inclusion (Theorem 1), the
finite-``N`` CTMCs used for simulation (Definition 4), and the analytic
structure (affine decomposition, Jacobians) exploited by the bound
computations of Section IV.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.params import ParameterSet, Singleton
from repro.population.calculus import numeric_jacobian, validated_batch_eval
from repro.population.transitions import Transition

__all__ = ["PopulationModel"]


class PopulationModel:
    """An imprecise population process specified by transition classes.

    Parameters
    ----------
    name:
        Model identifier used in reports.
    state_names:
        Names of the normalised state coordinates, e.g. ``("S", "I")``.
    transitions:
        The event classes; each must have ``change`` of length
        ``len(state_names)``.
    theta_set:
        The parameter domain ``Theta``.  A :class:`~repro.params.Singleton`
        makes the model a *precise* population process.
    affine_drift:
        Optional callable ``x -> (g0, G)`` with ``g0`` of shape ``(d,)``
        and ``G`` of shape ``(d, p)`` such that
        ``drift(x, theta) = g0 + G @ theta`` for every ``theta``.  All
        three paper models are affine in ``theta``; declaring the
        decomposition unlocks closed-form extremisation (bang-bang
        Hamiltonian maximisers, corner-based hulls).
    affine_drift_batch:
        Optional *batched* form of ``affine_drift``: a callable
        ``X -> (g0s, Gs)`` mapping a row-major state stack ``(n, d)``
        to ``g0s`` of shape ``(n, d)`` and ``Gs`` of shape
        ``(n, d, p)``.  Declaring it lets
        :meth:`affine_parts_batch` — the hot path of every batched
        bound computation (differential hull RHS, Pontryagin
        Hamiltonian re-maximisation) — evaluate whole candidate stacks
        in a handful of NumPy calls instead of one Python call per row.
        The first batched call is spot-checked against the scalar
        decomposition; without the declaration ``affine_parts_batch``
        falls back to a per-row loop (correct, not fast).
    drift_jacobian:
        Optional analytic Jacobian ``(x, theta) -> (d, d)`` of the drift
        in ``x``; finite differences are used when absent.
    drift_jacobian_batch:
        Optional *batched* form of ``drift_jacobian``: a callable
        ``(X, Theta) -> (n, d, d)`` mapping row-major state and
        parameter stacks to the stack of Jacobians.  Declaring it lets
        :meth:`jacobian_x_batch` — the inner loop of the batched
        Pontryagin costate sweep — evaluate whole lane stacks in a few
        NumPy calls; the first batched call is spot-checked against the
        scalar Jacobian, and without the declaration the method falls
        back to a per-row loop (correct, not fast).
    state_bounds:
        Optional ``(lower, upper)`` vectors bounding the admissible
        normalised state space (e.g. ``([0, 0], [1, 1])``); used by the
        differential-hull extremiser and by state clipping.
    conservations:
        Optional list of ``(weights, value)`` pairs declaring linear
        invariants ``weights @ x == value`` (e.g. ``S + I + R == 1``);
        checked by the simulator and by the test-suites.
    observables:
        Optional mapping ``name -> weights`` declaring named linear
        observables ``weights @ x`` (e.g. the per-class queue fraction of
        the GPS model, which is a rescaling of the raw state).  Observables
        are what benchmark harnesses report and what the linear-template
        Pontryagin bounds target.
    """

    def __init__(
        self,
        name: str,
        state_names: Sequence[str],
        transitions: Sequence[Transition],
        theta_set: ParameterSet,
        affine_drift: Optional[Callable] = None,
        affine_drift_batch: Optional[Callable] = None,
        drift_jacobian: Optional[Callable] = None,
        drift_jacobian_batch: Optional[Callable] = None,
        state_bounds: Optional[Tuple[Sequence[float], Sequence[float]]] = None,
        conservations: Optional[List[Tuple[Sequence[float], float]]] = None,
        observables: Optional[dict] = None,
    ):
        if not name:
            raise ValueError("model needs a non-empty name")
        if not state_names:
            raise ValueError("model needs at least one state coordinate")
        if not transitions:
            raise ValueError("model needs at least one transition class")
        self.name = str(name)
        self.state_names = tuple(str(s) for s in state_names)
        self.transitions = list(transitions)
        for tr in self.transitions:
            if tr.dim != self.dim:
                raise ValueError(
                    f"transition {tr.name!r} has dimension {tr.dim}, "
                    f"model has {self.dim} states"
                )
        if not isinstance(theta_set, ParameterSet):
            raise TypeError("theta_set must be a ParameterSet")
        self.theta_set = theta_set
        self._affine_drift = affine_drift
        self._affine_drift_batch = affine_drift_batch
        if affine_drift_batch is not None and affine_drift is None:
            raise ValueError(
                "affine_drift_batch requires the scalar affine_drift "
                "(the batched form is validated against it)"
            )
        self._affine_batch_checked = False
        self._drift_jacobian = drift_jacobian
        self._drift_jacobian_batch = drift_jacobian_batch
        if drift_jacobian_batch is not None and drift_jacobian is None:
            raise ValueError(
                "drift_jacobian_batch requires the scalar drift_jacobian "
                "(the batched form is validated against it)"
            )
        self._jacobian_batch_checked = False
        if state_bounds is not None:
            lower, upper = state_bounds
            self.state_lower = np.asarray(lower, dtype=float)
            self.state_upper = np.asarray(upper, dtype=float)
            if self.state_lower.shape != (self.dim,) or self.state_upper.shape != (self.dim,):
                raise ValueError("state_bounds must be two vectors of state dimension")
            if np.any(self.state_lower > self.state_upper):
                raise ValueError("state lower bounds exceed upper bounds")
        else:
            self.state_lower = None
            self.state_upper = None
        self.conservations = []
        for weights, value in (conservations or []):
            w = np.asarray(weights, dtype=float)
            if w.shape != (self.dim,):
                raise ValueError("conservation weights must match state dimension")
            self.conservations.append((w, float(value)))
        self.observables = {}
        for obs_name, weights in (observables or {}).items():
            w = np.asarray(weights, dtype=float)
            if w.shape != (self.dim,):
                raise ValueError(
                    f"observable {obs_name!r} weights must match state dimension"
                )
            self.observables[str(obs_name)] = w
        # Per-transition caches of whether the rate function accepts the
        # batched (coordinate-major) calling convention; populated lazily
        # by transition_rates_batch (clamped) and drift_batch (raw).
        self._batch_rate_ok: dict = {}
        self._batch_drift_ok: dict = {}
        # Set once every transition's raw batched rate is validated: the
        # drift_batch hot path then skips the validation machinery.
        self._drift_batch_fast = False

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimension of the normalised state space."""
        return len(self.state_names)

    @property
    def theta_dim(self) -> int:
        """Dimension of the parameter vector."""
        return self.theta_set.dim

    @property
    def declares_affine_drift_batch(self) -> bool:
        """Whether the model ships the batched affine-drift kernel.

        Catalog models must: the registry audit (``python -m repro
        lint``) fails on registered models without it, because every
        bounds layer silently degrades to per-row loops otherwise.
        """
        return self._affine_drift_batch is not None

    @property
    def declares_drift_jacobian_batch(self) -> bool:
        """Whether the model ships the batched Jacobian kernel (see
        :attr:`declares_affine_drift_batch` — same audit contract)."""
        return self._drift_jacobian_batch is not None

    @property
    def is_affine(self) -> bool:
        """Whether the model declares an affine-in-theta drift."""
        return self._affine_drift is not None

    @property
    def is_precise(self) -> bool:
        """Whether ``Theta`` is a singleton (a classical precise model)."""
        return isinstance(self.theta_set, Singleton)

    def state_index(self, name: str) -> int:
        """Index of a state coordinate by name."""
        return self.state_names.index(name)

    # ------------------------------------------------------------------
    # Drift (Definition 3 / Eq. 3) and derived analytic structure
    # ------------------------------------------------------------------

    def transition_rates(self, x, theta) -> np.ndarray:
        """Vector of density-scaled rates of all transitions at ``(x, theta)``."""
        x = np.asarray(x, dtype=float)
        theta = np.asarray(theta, dtype=float)
        return np.array([tr.rate_at(x, theta) for tr in self.transitions])

    def total_exit_rate(self, x, theta) -> float:
        """Sum of all density-scaled transition rates (the SSA race total)."""
        return float(np.sum(self.transition_rates(x, theta)))

    def transition_rates_batch(self, x, theta) -> np.ndarray:
        """Density-scaled rates of every transition for a batch of states.

        Parameters
        ----------
        x:
            Batch of normalised states, shape ``(n, d)``.
        theta:
            Batch of parameter vectors, shape ``(n, p)`` (one per row —
            policies can differ across ensemble members).

        Returns
        -------
        Rates of shape ``(n, n_transitions)``, clamped non-negative.

        Notes
        -----
        Rate functions are written against scalar coordinates
        (``x[0]``, ``theta[0]``, ...), so the batch is evaluated
        *coordinate-major*: the function receives ``x.T`` of shape
        ``(d, n)`` and ``theta.T`` of shape ``(p, n)``, making ``x[k]``
        the vector of coordinate ``k`` across the batch.  Purely
        coordinate-wise arithmetic rates (all the paper models)
        vectorize transparently.

        Functions that break the convention fall back to a per-row
        loop, detected per transition by
        :func:`~repro.population.calculus.validated_batch_eval`:

        - hard breaks (``float()`` casts, scalar branches, ``max``)
          raise on array input, as does a 0-d result (a constant, or a
          full reduction like ``np.sum(x)`` that pooled the batch);
        - soft breaks — reductions such as ``x[0] * np.sum(x)`` or
          ``np.mean(x)`` that return the right *shape* with row-pooled
          *values* — are caught by cross-checking the batched result
          against the scalar evaluator row-by-row.

        The cross-check only counts on a batch of *distinct* rows: on
        an all-identical batch (the engine's first step, where every
        ensemble row is the initial state) normalisation-invariant
        pooling coincides with the correct value, so validation is
        deferred until the trajectories diverge; until then the
        always-correct per-row loop is used.  The heuristic remains a
        heuristic — rate functions used with the vectorized engine
        should be written as coordinate-wise arithmetic.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        theta = np.atleast_2d(np.asarray(theta, dtype=float))
        n = x.shape[0]
        out = np.empty((n, len(self.transitions)))
        x_t, theta_t = x.T, theta.T
        can_validate = n >= 2 and (
            bool(np.any(x != x[0])) or bool(np.any(theta != theta[0]))
        )
        for e, tr in enumerate(self.transitions):
            vals, status = validated_batch_eval(
                lambda: tr.rate(x_t, theta_t),
                lambda: np.array(
                    [tr.rate_at(x[r], theta[r]) for r in range(n)]
                ),
                n,
                self._batch_rate_ok.get(e),
                can_validate,
            )
            if status is not None:
                self._batch_rate_ok[e] = status
            if np.isnan(vals).any():
                raise ValueError(
                    f"transition {tr.name!r}: rate is NaN for some batch rows"
                )
            out[:, e] = vals
        return out

    def drift(self, x, theta) -> np.ndarray:
        """The imprecise drift ``f(x, theta) = sum_e change_e * rate_e``.

        This is Equation (3) of the paper specialised to transition-class
        models.  Note the drift uses the *raw* (unclamped) rates so it is
        smooth across the state-space boundary, which the mean-field
        integrators rely on.
        """
        x = np.asarray(x, dtype=float)
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(self.dim)
        for tr in self.transitions:
            out += tr.change * float(tr.rate(x, theta))
        return out

    def drift_batch(self, x, theta) -> np.ndarray:
        """The imprecise drift for a batch of ``(state, parameter)`` rows.

        Parameters
        ----------
        x:
            Batch of normalised states, shape ``(n, d)``.
        theta:
            Batch of parameter vectors, shape ``(n, p)`` (one per row).

        Returns
        -------
        Drift vectors of shape ``(n, d)``.

        Notes
        -----
        Like :meth:`drift` — and unlike :meth:`transition_rates_batch` —
        the rates are used *raw* (unclamped), so the batched drift is
        smooth across the state-space boundary and agrees with the
        scalar drift row-by-row.  Rate functions are evaluated
        coordinate-major (see :meth:`transition_rates_batch`) with the
        same lazy per-transition validation and per-row fallback.  Once
        every transition's batched rate has validated, subsequent calls
        skip the validation machinery entirely (same calls, same
        accumulation order — the fast path is bit-identical): this is
        the innermost call of every batched RK4 stage, so the bookkeeping
        would otherwise dominate small-stack integrations.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        theta = np.atleast_2d(np.asarray(theta, dtype=float))
        n = x.shape[0]
        out = np.zeros((n, self.dim))
        x_t, theta_t = x.T, theta.T
        if self._drift_batch_fast:
            for tr in self.transitions:
                out += np.asarray(tr.rate(x_t, theta_t), dtype=float)[:, None] \
                    * tr.change[None, :]
            return out
        can_validate = n >= 2 and (
            bool(np.any(x != x[0])) or bool(np.any(theta != theta[0]))
        )
        for e, tr in enumerate(self.transitions):
            vals, status = validated_batch_eval(
                lambda: tr.rate(x_t, theta_t),
                lambda: np.array(
                    [float(tr.rate(x[r], theta[r])) for r in range(n)]
                ),
                n,
                self._batch_drift_ok.get(e),
                can_validate,
                clamp=False,
            )
            if status is not None:
                self._batch_drift_ok[e] = status
            out += vals[:, None] * tr.change[None, :]
        if len(self._batch_drift_ok) == len(self.transitions) and all(
            v is True for v in self._batch_drift_ok.values()
        ):
            self._drift_batch_fast = True
        return out

    def drift_fn(self, theta) -> Callable:
        """Freeze ``theta`` and return the autonomous drift ``x -> f(x, theta)``."""
        theta = np.asarray(theta, dtype=float)
        return lambda x: self.drift(x, theta)

    def vector_field(self, theta) -> Callable:
        """Freeze ``theta`` and return ``(t, x) -> f(x, theta)`` for integrators."""
        theta = np.asarray(theta, dtype=float)
        return lambda t, x: self.drift(x, theta)

    def affine_parts(self, x) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(g0, G)`` with ``drift(x, theta) = g0 + G @ theta``.

        Raises ``ValueError`` for models without a declared decomposition;
        callers needing genericity should branch on :attr:`is_affine`.
        """
        if self._affine_drift is None:
            raise ValueError(f"model {self.name!r} declares no affine decomposition")
        g0, big_g = self._affine_drift(np.asarray(x, dtype=float))
        g0 = np.asarray(g0, dtype=float)
        big_g = np.asarray(big_g, dtype=float)
        if g0.shape != (self.dim,):
            raise ValueError(f"affine g0 has shape {g0.shape}, expected ({self.dim},)")
        if big_g.shape != (self.dim, self.theta_dim):
            raise ValueError(
                f"affine G has shape {big_g.shape}, expected ({self.dim}, {self.theta_dim})"
            )
        return g0, big_g

    def affine_parts_batch(self, x) -> Tuple[np.ndarray, np.ndarray]:
        """Batched affine decomposition: ``(g0s, Gs)`` for a state stack.

        Parameters
        ----------
        x:
            Row-major batch of states, shape ``(n, d)``.

        Returns
        -------
        ``g0s`` of shape ``(n, d)`` and ``Gs`` of shape ``(n, d, p)``
        with ``drift(x[r], theta) = g0s[r] + Gs[r] @ theta`` for every
        row and every admissible ``theta``.

        Uses the declared ``affine_drift_batch`` when available (one
        vectorized call; its first use is spot-checked against the
        scalar decomposition, and a mismatch raises — a wrong affine
        decomposition silently corrupts every bound computed from it).
        Falls back to a per-row loop over :meth:`affine_parts`
        otherwise.
        """
        if self._affine_drift is None:
            raise ValueError(f"model {self.name!r} declares no affine decomposition")
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        n = x.shape[0]
        if self._affine_drift_batch is not None:
            if self._affine_batch_checked:
                return self._affine_drift_batch(x)
            g0s, big_gs = self._affine_drift_batch(x)
            g0s = np.asarray(g0s, dtype=float)
            big_gs = np.asarray(big_gs, dtype=float)
            if g0s.shape != (n, self.dim):
                raise ValueError(
                    f"batched affine g0 has shape {g0s.shape}, "
                    f"expected ({n}, {self.dim})"
                )
            if big_gs.shape != (n, self.dim, self.theta_dim):
                raise ValueError(
                    f"batched affine G has shape {big_gs.shape}, "
                    f"expected ({n}, {self.dim}, {self.theta_dim})"
                )
            if not self._affine_batch_checked and n:
                for r in {0, n - 1}:
                    g0, big_g = self.affine_parts(x[r])
                    if not (
                        np.allclose(g0, g0s[r], rtol=1e-9, atol=1e-12)
                        and np.allclose(big_g, big_gs[r], rtol=1e-9, atol=1e-12)
                    ):
                        raise ValueError(
                            f"model {self.name!r}: affine_drift_batch disagrees "
                            f"with affine_drift at x={x[r].tolist()}"
                        )
                self._affine_batch_checked = True
            return g0s, big_gs
        g0s = np.empty((n, self.dim))
        big_gs = np.empty((n, self.dim, self.theta_dim))
        for r in range(n):
            g0s[r], big_gs[r] = self.affine_parts(x[r])
        return g0s, big_gs

    def jacobian_x(self, x, theta) -> np.ndarray:
        """Jacobian of the drift in ``x`` (analytic when declared)."""
        x = np.asarray(x, dtype=float)
        theta = np.asarray(theta, dtype=float)
        if self._drift_jacobian is not None:
            jac = np.asarray(self._drift_jacobian(x, theta), dtype=float)
            if jac.shape != (self.dim, self.dim):
                raise ValueError(
                    f"declared Jacobian has shape {jac.shape}, "
                    f"expected ({self.dim}, {self.dim})"
                )
            return jac
        return numeric_jacobian(lambda y: self.drift(y, theta), x)

    def jacobian_x_batch(self, x, theta) -> np.ndarray:
        """Batched drift Jacobians in ``x``: shape ``(n, d, d)``.

        Parameters
        ----------
        x:
            Row-major batch of states, shape ``(n, d)``.
        theta:
            Matching batch of parameters, shape ``(n, p)`` (one per
            row — Pontryagin lanes carry different controls).

        Uses the declared ``drift_jacobian_batch`` when available (one
        vectorized call; its first use is spot-checked against the
        scalar Jacobian, and a mismatch raises — a wrong Jacobian
        silently bends every costate integrated with it).  Falls back
        to a per-row loop over :meth:`jacobian_x` otherwise.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        theta = np.asarray(theta, dtype=float)
        if theta.ndim == 1:
            theta = theta[None, :]
        n = x.shape[0]
        if theta.shape[0] != n:
            raise ValueError(
                f"theta batch has {theta.shape[0]} rows for {n} states"
            )
        if self._drift_jacobian_batch is not None:
            jacs = np.asarray(self._drift_jacobian_batch(x, theta),
                              dtype=float)
            if jacs.shape != (n, self.dim, self.dim):
                raise ValueError(
                    f"batched Jacobian has shape {jacs.shape}, "
                    f"expected ({n}, {self.dim}, {self.dim})"
                )
            if not self._jacobian_batch_checked and n:
                for r in {0, n - 1}:
                    ref = self.jacobian_x(x[r], theta[r])
                    if not np.allclose(ref, jacs[r], rtol=1e-9, atol=1e-12):
                        raise ValueError(
                            f"model {self.name!r}: drift_jacobian_batch "
                            f"disagrees with drift_jacobian at "
                            f"x={x[r].tolist()}"
                        )
                self._jacobian_batch_checked = True
            return jacs
        out = np.empty((n, self.dim, self.dim))
        for r in range(n):
            out[r] = self.jacobian_x(x[r], theta[r])
        return out

    # ------------------------------------------------------------------
    # State-space housekeeping
    # ------------------------------------------------------------------

    def clip_state(self, x) -> np.ndarray:
        """Clip a state to the declared bounds (identity when unbounded)."""
        x = np.asarray(x, dtype=float)
        if self.state_lower is None:
            return x.copy()
        return np.clip(x, self.state_lower, self.state_upper)

    def observable(self, name: str, x) -> float:
        """Evaluate a named linear observable at state ``x``."""
        if name not in self.observables:
            raise KeyError(
                f"model {self.name!r} has no observable {name!r}; "
                f"available: {sorted(self.observables)}"
            )
        return float(self.observables[name] @ np.asarray(x, dtype=float))

    def check_conservations(self, x, tol: float = 1e-9) -> bool:
        """Whether all declared linear invariants hold at ``x``."""
        x = np.asarray(x, dtype=float)
        return all(
            abs(float(w @ x) - value) <= tol for w, value in self.conservations
        )

    # ------------------------------------------------------------------
    # Finite-N instantiation
    # ------------------------------------------------------------------

    def instantiate(self, population_size: int, initial_density):
        """Build the finite-``N`` CTMC of Definition 4 at this size.

        ``initial_density`` is the normalised initial state; it is rounded
        to the nearest lattice point ``k / N``.
        """
        from repro.population.finite import FinitePopulation

        return FinitePopulation(self, population_size, initial_density)

    def __repr__(self) -> str:
        kind = "uncertain/imprecise" if not self.is_precise else "precise"
        return (
            f"PopulationModel({self.name!r}, states={list(self.state_names)}, "
            f"{len(self.transitions)} transitions, {kind})"
        )
