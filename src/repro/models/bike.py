"""The single-station bike-sharing model of Sections II–III.

The station has ``N`` racks; the state is the fraction ``x`` of occupied
racks.  Customers take a bike at rate ``N * theta_a`` (when a bike is
available) and return one at rate ``N * theta_r`` (when a rack is free).
Both rates are imprecise: ``theta_a in [theta_a_min, theta_a_max]`` and
``theta_r in [theta_r_min, theta_r_max]``.

The rates carry boundary indicators (a departure needs ``x > 0``, a
return needs ``x < 1``), so the mean-field drift is discontinuous at the
two boundary points — exactly the situation covered by the differential
inclusion limit of [17] (Gast & Gaujal) that Theorem 1 generalises.  The
finite-``N`` chain is a birth–death process, which makes this model the
reference case for the exact CTMC machinery (:mod:`repro.ctmc`): the
imprecise Kolmogorov bounds can be validated against enumeration over
extreme constant parameters.

Rate lambdas must accept coordinate-major arrays as well as scalars
(``np.where`` rather than ``if``/``else``), so that
:meth:`~repro.population.PopulationModel.drift_batch` takes its
vectorized fast path.
"""

from __future__ import annotations

import numpy as np

from repro.params import Box
from repro.population import PopulationModel, Transition

__all__ = ["make_bike_station_model"]


def make_bike_station_model(
    arrival_bounds=(0.8, 1.2),
    return_bounds=(0.9, 1.1),
) -> PopulationModel:
    """Build the single-station model with imprecise traffic rates.

    State ``x in [0, 1]``: occupied fraction of the ``N`` racks.
    ``theta = (theta_a, theta_r)``: customer arrival (bike departure) and
    bike return rates, each confined to its interval.
    """
    (a_lo, a_hi) = (float(arrival_bounds[0]), float(arrival_bounds[1]))
    (r_lo, r_hi) = (float(return_bounds[0]), float(return_bounds[1]))
    theta_set = Box([("theta_a", a_lo, a_hi), ("theta_r", r_lo, r_hi)])

    departure = Transition(
        "departure",
        change=[-1.0],
        rate=lambda x, th: np.where(x[0] > 0.0, th[0], 0.0),
    )
    bike_return = Transition(
        "return",
        change=[1.0],
        rate=lambda x, th: np.where(x[0] < 1.0, th[1], 0.0),
    )

    def affine_drift(x):
        occupied = float(x[0])
        g0 = np.zeros(1)
        big_g = np.array(
            [[-1.0 if occupied > 0.0 else 0.0, 1.0 if occupied < 1.0 else 0.0]]
        )
        return g0, big_g

    def affine_drift_batch(x):
        occupied = x[:, 0]
        n = x.shape[0]
        g0 = np.zeros((n, 1))
        big_g = np.stack(
            [
                np.where(occupied > 0.0, -1.0, 0.0),
                np.where(occupied < 1.0, 1.0, 0.0),
            ],
            axis=1,
        )[:, None, :]
        return g0, big_g

    def jacobian(x, theta):
        # Piecewise constant drift: zero Jacobian away from the boundary.
        return np.zeros((1, 1))

    def jacobian_batch(x, theta):
        return np.zeros((x.shape[0], 1, 1))

    return PopulationModel(
        name="bike_station",
        state_names=("occupied",),
        transitions=[departure, bike_return],
        theta_set=theta_set,
        affine_drift=affine_drift,
        affine_drift_batch=affine_drift_batch,
        drift_jacobian=jacobian,
        drift_jacobian_batch=jacobian_batch,
        state_bounds=([0.0], [1.0]),
        observables={"occupied": [1.0]},
    )
