"""Discrete-time Markov chains with interval probabilities (Škulj [10]).

The paper's imprecise CTMCs build on Škulj's *interval DTMCs*: chains
whose row distributions are only known to lie in per-entry intervals
``lower[i, j] <= P[i, j] <= upper[i, j]``.  The object of interest is the
**upper (lower) expectation** of a reward after ``k`` steps:

.. math::
    \\overline E_k(r) = \\overline T^k r, \\qquad
    (\\overline T r)_i = \\max \\{ p \\cdot r : p \\in \\mathcal P_i \\}

where ``P_i`` is the credal set of row ``i`` (the interval polytope
intersected with the simplex).  The row maximisation is a fractional
knapsack: fill coordinates in decreasing reward order up to their upper
bounds, starting from the mandatory lower bounds.  The operator is
applied iteratively; it is monotone and contracting on reward ranges,
which is what makes the iteration a sound finite-horizon bound.

The hot path is batched: :meth:`IntervalDTMC.extreme_rows_batch` solves
all ``n`` row knapsacks for a whole stack of reward vectors in one
argsort + cumulative-subtraction pass, and the scalar operators delegate
to it.  The pre-batching per-row Python loop is kept behind
``batch=False`` as the differential-testing reference — both paths share
the final row-times-reward contraction, so the batched kernels are
bit-identical to the legacy ones (a property the test suite pins with
exact equality).

:meth:`IntervalDTMC.from_imprecise_ctmc` discretises an imprecise CTMC
through uniformization: ``P(theta) = I + Q(theta) / Lambda``, with the
per-entry interval taken over the corners of ``Theta`` (exact per entry
for affine generators).  The entry-wise relaxation forgets the coupling
between entries induced by the shared ``theta``, so the resulting bounds
are conservative with respect to the exact imprecise-CTMC bounds of
:mod:`repro.ctmc.kolmogorov` — a relationship the test-suite checks.
Caveat: the conservativeness statement is about *time* ``t``, reached
through the Poisson-weighted mixture of step bounds
(:meth:`IntervalDTMC.uniformized_bounds`); the raw ``k``-step power
carries a time-discretization bias of order ``1 / Lambda`` on top of the
relaxation and can land strictly inside the exact bounds.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro import telemetry

__all__ = ["IntervalDTMC", "random_interval_dtmc"]

#: A returned row whose total deviates from 1 by more than this is
#: renormalised.  Rows inside the constructor's 1e-9 feasibility
#: tolerance (``sum(lower)`` marginally above 1, ``sum(upper)``
#: marginally below) would otherwise leak out sub-/super-stochastic.
_ROW_SUM_TOL = 1e-12


def _knapsack_rows(lower, room, slack0, order):
    """The batched fractional-knapsack core: fill rows in reward order.

    Parameters are the per-entry lower bounds ``(n, n)``, the per-entry
    room ``upper - lower`` ``(n, n)``, the initial slack
    ``1 - sum(lower)`` per row ``(n,)`` and the fill order ``(m, n)``
    (one coordinate permutation per reward vector).  Returns the
    ``(m, n, n)`` extremising rows (unnormalised, in original column
    positions) and the ``(m, n)`` final leftover slack the caller
    checks for feasibility.

    ``np.subtract.accumulate`` reproduces the legacy scalar loop's
    sequential slack updates rounding step by rounding step.
    """
    m, n = order.shape[0], lower.shape[0]
    # Rooms permuted into each reward's fill order: (m, n, n).
    room_perm = np.swapaxes(np.take(room, order, axis=1), 0, 1)
    chain = np.concatenate(
        [np.broadcast_to(slack0[None, :, None], (m, n, 1)), room_perm],
        axis=2,
    )
    # slack_seq[..., j] is the slack left before filling the j-th
    # coordinate in order (sequential subtraction, not a cumsum —
    # same rounding as the scalar loop); the final entry is the
    # slack left after exhausting every room.
    slack_seq = np.subtract.accumulate(chain, axis=2)
    take = np.clip(slack_seq[:, :, :-1], 0.0, room_perm)
    rows_sorted = np.take_along_axis(
        np.broadcast_to(lower[None], (m, n, n)),
        order[:, None, :], axis=2,
    ) + take
    rows = np.empty_like(rows_sorted)
    np.put_along_axis(
        rows, np.broadcast_to(order[:, None, :], rows.shape),
        rows_sorted, axis=2,
    )
    return rows, slack_seq[:, :, -1]


class IntervalDTMC:
    """A finite DTMC with interval transition probabilities.

    Parameters
    ----------
    lower, upper:
        Entry-wise probability bounds, shape ``(n, n)``, with
        ``0 <= lower <= upper <= 1``, ``sum(lower[i]) <= 1`` and
        ``sum(upper[i]) >= 1`` for every row (non-empty credal sets).
    """

    def __init__(self, lower, upper):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.ndim != 2 or lower.shape[0] != lower.shape[1]:
            raise ValueError("lower must be a square matrix")
        if lower.shape != upper.shape:
            raise ValueError("lower and upper must have the same shape")
        if np.any(lower < -1e-12) or np.any(upper > 1.0 + 1e-12):
            raise ValueError("probability bounds must lie in [0, 1]")
        if np.any(lower > upper + 1e-12):
            raise ValueError("lower bounds exceed upper bounds")
        row_lo = lower.sum(axis=1)
        row_hi = upper.sum(axis=1)
        if np.any(row_lo > 1.0 + 1e-9) or np.any(row_hi < 1.0 - 1e-9):
            raise ValueError(
                "empty credal set: need sum(lower) <= 1 <= sum(upper) per row"
            )
        self.lower = np.clip(lower, 0.0, 1.0)
        # Clipping can flip a within-tolerance inversion into upper <
        # lower; enforce ordered bounds so every room is non-negative.
        self.upper = np.maximum(np.clip(upper, 0.0, 1.0), self.lower)

    @property
    def n_states(self) -> int:
        return self.lower.shape[0]

    # ------------------------------------------------------------------
    # Row credal-set optimisation (fractional knapsack)
    # ------------------------------------------------------------------

    def extreme_row(self, row: int, reward, maximize: bool = True) -> np.ndarray:
        """The row distribution extremising ``p . reward`` over the credal set.

        Start from the mandatory lower bounds and distribute the
        remaining mass ``1 - sum(lower)`` greedily to the coordinates
        with the largest (smallest) reward, capped at the upper bounds.

        This is the legacy one-row-at-a-time knapsack, kept as the
        differential-testing reference for
        :meth:`extreme_rows_batch`; the operators below use the batched
        kernel by default.
        """
        reward = np.asarray(reward, dtype=float)
        if reward.shape != (self.n_states,):
            raise ValueError(f"reward must have shape ({self.n_states},)")
        p = self.lower[row].copy()
        slack = 1.0 - float(p.sum())
        order = np.argsort(-reward if maximize else reward)
        for j in order:
            if slack <= 0.0:
                break
            room = self.upper[row, j] - p[j]
            take = min(room, slack)
            p[j] += take
            slack -= take
        if slack > 1e-9:
            raise RuntimeError("credal set inconsistency: mass left over")
        total = float(p.sum())
        if abs(total - 1.0) > _ROW_SUM_TOL:
            # Rows admitted under the constructor's 1e-9 tolerance
            # (negative slack, or upper bounds summing just below 1)
            # must still come back stochastic.
            p = p / total
        return p

    def extreme_rows_batch(self, rewards, maximize: bool = True) -> np.ndarray:
        """All ``n`` extreme rows for a stack of reward vectors at once.

        Parameters
        ----------
        rewards:
            One reward vector of shape ``(n,)`` or a stack ``(m, n)``.
        maximize:
            Extremise upward (the upper-expectation rows) or downward.

        Returns
        -------
        The extremising row distributions — shape ``(n, n)`` for a
        single reward (entry ``[i]`` is the row-``i`` distribution) or
        ``(m, n, n)`` for a stack.

        All ``m * n`` fractional knapsacks are solved in one argsort +
        cumulative-subtraction pass.  ``np.subtract.accumulate``
        reproduces the legacy loop's sequential slack updates rounding
        step by rounding step, so the rows are bit-identical to
        :meth:`extreme_row`.
        """
        rewards = np.asarray(rewards, dtype=float)
        single = rewards.ndim == 1
        rewards = np.atleast_2d(rewards)
        n = self.n_states
        if rewards.shape[1] != n:
            raise ValueError(f"rewards must have trailing dimension {n}")
        m = rewards.shape[0]
        if telemetry.enabled():
            telemetry.inc("ctmc.credal.operator_calls")
            telemetry.inc("ctmc.credal.knapsack_rows", m * n)
        order = np.argsort(-rewards if maximize else rewards, axis=1)
        room = self.upper - self.lower                       # (n, n), >= 0
        slack0 = 1.0 - self.lower.sum(axis=1)                # (n,)
        rows, leftover = _knapsack_rows(self.lower, room, slack0, order)
        if np.any(leftover > 1e-9):
            raise RuntimeError("credal set inconsistency: mass left over")
        totals = rows.sum(axis=2)
        bad = np.abs(totals - 1.0) > _ROW_SUM_TOL
        if np.any(bad):
            rows = np.where(bad[:, :, None], rows / totals[:, :, None], rows)
        return rows[0] if single else rows

    def upper_operator_batch(self, rewards) -> np.ndarray:
        """``T̄`` applied to a stack of rewards: ``(m, n) -> (m, n)``.

        Also accepts a single ``(n,)`` vector (returning ``(n,)``).  The
        value contraction is one stacked matrix–vector product, which
        NumPy evaluates slice by slice — bit-identical to the legacy
        path's single ``rows @ reward``.
        """
        rewards = np.asarray(rewards, dtype=float)
        single = rewards.ndim == 1
        stack = np.atleast_2d(rewards)
        rows = self.extreme_rows_batch(stack, maximize=True)
        values = np.matmul(rows, stack[:, :, None])[:, :, 0]
        return values[0] if single else values

    def expectation_bounds_batch(self, rewards, steps: int):
        """``(lower, upper)`` expectations of a reward stack after ``steps``.

        Iterates the upper operator on the ``2m``-lane stack
        ``[rewards, -rewards]`` — the lower iteration is the negated
        upper iteration of the negated reward — so every step is a
        single batched knapsack pass for all observables and both bound
        directions.  Shapes mirror the input: ``(m, n)`` arrays for a
        stack, ``(n,)`` vectors for a single reward.
        """
        if steps < 0:
            raise ValueError("steps must be non-negative")
        rewards = np.asarray(rewards, dtype=float)
        single = rewards.ndim == 1
        stack = np.atleast_2d(rewards)
        m = stack.shape[0]
        value = np.concatenate([stack, -stack], axis=0)
        for _ in range(steps):
            value = self.upper_operator_batch(value)
        upper = value[:m]
        lower = -value[m:]
        return (lower[0], upper[0]) if single else (lower, upper)

    def upper_operator(self, reward, batch: bool = True) -> np.ndarray:
        """One application of the upper-expectation operator ``T̄ r``."""
        reward = np.asarray(reward, dtype=float)
        if batch:
            return self.upper_operator_batch(reward)
        # Legacy per-row knapsack loop; the final contraction is the
        # same matrix-vector product the batched kernel issues.
        rows = np.array(
            [self.extreme_row(i, reward, maximize=True)
             for i in range(self.n_states)]
        )
        return rows @ reward

    def lower_operator(self, reward, batch: bool = True) -> np.ndarray:
        """One application of the lower-expectation operator."""
        return -self.upper_operator(-np.asarray(reward, dtype=float), batch)

    # ------------------------------------------------------------------
    # Finite-horizon expectations
    # ------------------------------------------------------------------

    def upper_expectation(self, reward, steps: int,
                          batch: bool = True) -> np.ndarray:
        """Upper expectation of ``reward`` after ``steps`` transitions.

        Returns the per-starting-state vector ``T̄^k r``.
        """
        if steps < 0:
            raise ValueError("steps must be non-negative")
        value = np.asarray(reward, dtype=float).copy()
        for _ in range(steps):
            value = self.upper_operator(value, batch=batch)
        return value

    def lower_expectation(self, reward, steps: int,
                          batch: bool = True) -> np.ndarray:
        """Lower expectation of ``reward`` after ``steps`` transitions."""
        return -self.upper_expectation(-np.asarray(reward, dtype=float), steps,
                                       batch=batch)

    def expectation_bounds(
        self, reward, steps: int, batch: bool = True
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(lower, upper)`` expectation vectors after ``steps`` steps."""
        if batch:
            return self.expectation_bounds_batch(
                np.asarray(reward, dtype=float), steps
            )
        return (self.lower_expectation(reward, steps, batch=False),
                self.upper_expectation(reward, steps, batch=False))

    def stationary_expectation_bounds(
        self, reward, tol: float = 1e-10, max_iter: int = 100_000,
        batch: bool = True,
    ) -> Tuple[float, float]:
        """Long-run bounds on the expected reward (Škulj's limit regime).

        Iterates the upper (lower) expectation operator until the value
        vector flattens to a constant: for a regular interval chain the
        iteration ``T̄^k r`` converges to a constant vector whose value
        is the worst-case (best-case) long-run expected reward over all
        admissible transition selections.  Raises ``RuntimeError`` when
        the iteration fails to flatten (periodic or reducible chains).
        """
        if max_iter < 1:
            raise ValueError(
                f"max_iter must be a positive iteration budget, got {max_iter}"
            )
        bounds = []
        for maximize in (False, True):
            value = np.asarray(reward, dtype=float).copy()
            converged = False
            for _ in range(max_iter):
                if maximize:
                    new_value = self.upper_operator(value, batch=batch)
                else:
                    new_value = self.lower_operator(value, batch=batch)
                spread = float(new_value.max() - new_value.min())
                delta = float(np.max(np.abs(new_value - value)))
                value = new_value
                if spread < tol and delta < tol:
                    converged = True
                    break
            if not converged:
                raise RuntimeError(
                    "stationary iteration did not flatten within "
                    f"{max_iter} steps (final spread {spread:.2e}, last "
                    f"step moved {delta:.2e}); the chain may be periodic "
                    "or reducible"
                )
            bounds.append(float(value.mean()))
        return bounds[0], bounds[1]

    def uniformized_bounds(
        self, rewards, horizon: float, rate: float,
        tail_tol: float = 1e-12, batch: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Poisson-mixed reward bounds at CTMC time ``horizon``.

        A chain uniformized at rate ``Lambda`` jumps at ``Poisson(Lambda
        t)`` times regardless of the adversarial parameter signal (the
        self-loops in ``I + Q/Lambda`` absorb the rate variation), and
        conditional on ``k`` jumps the reward lies within the ``k``-step
        interval bounds.  Mixing the step bounds with Poisson weights
        therefore *encloses* the exact imprecise-CTMC bound at time
        ``horizon`` — unlike the raw ``k``-step power
        (:meth:`expectation_bounds` at ``k = ceil(horizon * rate)``),
        whose time-discretization bias of order ``1/rate`` can poke
        inside the exact bounds.  The truncated Poisson tail is
        completed conservatively with the reward range.

        Accepts one reward vector ``(n,)`` or a stack ``(m, n)`` —
        every observable and both directions share one batched value
        iteration.  Returns the ``(lower, upper)`` per-starting-state
        vectors, shaped like the input.
        """
        rewards = np.asarray(rewards, dtype=float)
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        if rate <= 0:
            raise ValueError("uniformization rate must be positive")
        single = rewards.ndim == 1
        stack = np.atleast_2d(rewards)
        m = stack.shape[0]
        mean = rate * horizon
        # Term count: mean + wide safety band (Poisson tail bound),
        # matching the precise-chain uniformization solver.
        n_terms = int(np.ceil(mean + 10.0 * np.sqrt(mean + 1.0) + 10.0))
        value = np.concatenate([stack, -stack], axis=0)
        weight = np.exp(-mean)
        accumulated = weight
        mixed = weight * value
        for k in range(1, n_terms + 1):
            if batch:
                value = self.upper_operator_batch(value)
            else:
                value = np.stack([
                    self.upper_operator(lane, batch=False) for lane in value
                ])
            weight *= mean / k
            mixed = mixed + weight * value
            accumulated += weight
            if 1.0 - accumulated < tail_tol:
                break
        tail = max(1.0 - accumulated, 0.0)
        # Every iterate stays inside the reward's value range, so the
        # truncated tail is bounded by its extremes.
        upper = mixed[:m] + tail * stack.max(axis=1)[:, None]
        lower = -(mixed[m:] + tail * (-stack).max(axis=1)[:, None])
        return (lower[0], upper[0]) if single else (lower, upper)

    # ------------------------------------------------------------------
    # Construction from imprecise CTMCs
    # ------------------------------------------------------------------

    @classmethod
    def from_imprecise_ctmc(cls, chain, uniformization_rate: Optional[float] = None,
                            safety: float = 1.05) -> Tuple["IntervalDTMC", float]:
        """Uniformize an imprecise CTMC into an interval DTMC.

        ``P(theta) = I + Q(theta) / Lambda`` with ``Lambda`` at least the
        largest total exit rate over the corner parameters (scaled by
        ``safety``).  Entry intervals are taken over the corners of
        ``Theta``, which is exact per entry for affine generators.

        Accepts chains whose ``generator`` returns either a scipy sparse
        matrix or a dense ndarray.

        Returns ``(dtmc, Lambda)`` — one DTMC step corresponds to an
        ``Exp(Lambda)`` holding time of the CTMC, so ``k`` steps
        approximate horizon ``k / Lambda``.
        """
        corners = chain.model.theta_set.corners()
        generators = [_dense(chain.generator(theta)) for theta in corners]
        if uniformization_rate is None:
            max_exit = max(float(-q.diagonal().min()) for q in generators)
            uniformization_rate = safety * max_exit
        if uniformization_rate <= 0:
            raise ValueError("uniformization rate must be positive")
        identity = np.eye(chain.n_states)
        matrices = [identity + q / uniformization_rate for q in generators]
        stack = np.stack(matrices)
        lower = np.clip(stack.min(axis=0), 0.0, 1.0)
        upper = np.clip(stack.max(axis=0), 0.0, 1.0)
        return cls(lower, upper), float(uniformization_rate)

    def __repr__(self) -> str:
        return f"IntervalDTMC({self.n_states} states)"


def _dense(matrix) -> np.ndarray:
    """A dense float array from a sparse matrix or array-like."""
    if hasattr(matrix, "toarray"):
        return matrix.toarray()
    return np.asarray(matrix, dtype=float)


def random_interval_dtmc(n_states: int, rng: np.random.Generator,
                         width: float = 0.08) -> IntervalDTMC:
    """A random non-degenerate interval chain (tests and benchmarks).

    Each row's interval is a band of half-width up to ``width`` around a
    Dirichlet-sampled distribution, clipped to ``[0, 1]`` — the centre
    row is always admissible, so every credal set is non-empty.
    """
    center = rng.dirichlet(np.ones(n_states), size=n_states)
    lower = np.clip(center - width * rng.random((n_states, n_states)), 0.0, 1.0)
    upper = np.clip(center + width * rng.random((n_states, n_states)), 0.0, 1.0)
    return IntervalDTMC(lower, upper)
