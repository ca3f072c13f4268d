"""Per-layer self time measured from outside the program.

:class:`LayerTracer` wraps the public entry points of each ``repro``
layer listed in :data:`LAYERS` with a timer.  A layer's *self time* is
the time inside its wrapped calls minus the time inside wrapped calls
nested in them, so the self times of all layers add up to the time of
the outermost wrapped call (``run_question``) and nothing is counted
twice.  ``scenarios.question`` is ``run_question`` itself: its self time
is the time no wrapped layer covers.

Every binding of a wrapped function is replaced: the defining module,
every ``repro`` module that re-imported it (``from repro.bounds import
pontryagin_transient_bounds``) and every class attribute holding it
(``PopulationModel.drift_batch``), so no call path bypasses the timer.
A target that no longer exists is reported in :attr:`LayerTracer.absent`
and its metrics read zero; the run does not fail.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Layer name -> ``module:qualname`` targets whose self time it owns.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "scenarios.build_model": ("repro.scenarios.spec:ScenarioSpec.build_model",),
    "scenarios.question": ("repro.scenarios.runner:run_question",),
    "bounds.pontryagin": (
        "repro.bounds.pontryagin:pontryagin_transient_bounds",
        "repro.bounds.pontryagin:extremal_trajectories_batch",
        "repro.bounds.pontryagin:extremal_trajectory",
        "repro.bounds.pontryagin:reachable_polytope_2d",
        "repro.bounds.pontryagin:switching_times",
        "repro.bounds.pontryagin:switching_times_from_costate",
    ),
    "bounds.templates": ("repro.bounds.templates:template_reachable_bounds",),
    "bounds.sweep": ("repro.bounds.sweep:uncertain_envelope",),
    "bounds.hull": ("repro.bounds.hull:differential_hull_bounds",),
    "ode.rk4_batch": (
        "repro.ode.batch:rk4_integrate_batch",
        "repro.ode.batch:rk4_integrate_controlled_batch",
    ),
    # find_fixed_point_batch integrates its lanes with dopri_batch.
    "ode.dopri_batch": (
        "repro.ode.batch:dopri_batch",
        "repro.ode.batch:find_fixed_point_batch",
    ),
    "ode.scalar": (
        "repro.ode.integrators:solve_ode",
        "repro.ode.integrators:rk4_integrate",
        "repro.ode.integrators:rk4_integrate_controlled",
        "repro.ode.integrators:find_fixed_point",
    ),
    "population.drift_batch": (
        "repro.population.model:PopulationModel.drift_batch",
    ),
    "inclusion.extremizer": tuple(
        f"repro.inclusion.extremizers:DriftExtremizer.{name}"
        for name in ("__init__", "maximize_direction", "minimize_direction",
                     "support", "maximize_direction_batch",
                     "minimize_direction_batch", "support_batch",
                     "coordinate_range", "coordinate_range_batch",
                     "velocity_envelope", "velocity_envelope_batch")
    ),
    "steadystate.birkhoff": ("repro.steadystate.birkhoff:birkhoff_centre_2d",),
    "steadystate.hullbox": ("repro.steadystate.hullbox:hull_steady_rectangle",),
    "steadystate.fixed_points": (
        "repro.steadystate.birkhoff:uncertain_fixed_points",
    ),
    "geometry.convex_hull": ("repro.geometry.polygon:convex_hull",),
    "ctmc.chain": ("repro.ctmc.enumeration:enumerate_lattice",) + tuple(
        f"repro.ctmc.chain:ImpreciseCTMC.{name}"
        for name in ("__init__", "state_row", "densities", "generator",
                     "affine_generator_parts", "transient_distribution",
                     "stationary_distribution", "expected_observable")
    ),
    "ctmc.interval_dtmc": tuple(
        f"repro.ctmc.interval_dtmc:IntervalDTMC.{name}"
        for name in ("__init__", "from_imprecise_ctmc", "extreme_row",
                     "extreme_rows_batch", "upper_operator_batch",
                     "expectation_bounds_batch", "upper_operator",
                     "lower_operator", "upper_expectation",
                     "lower_expectation", "expectation_bounds",
                     "stationary_expectation_bounds", "uniformized_bounds")
    ),
    "ctmc.kolmogorov": (
        "repro.ctmc.kolmogorov:imprecise_reward_bounds",
        "repro.ctmc.kolmogorov:uncertain_reward_envelope",
    ) + tuple(
        f"repro.ctmc.kolmogorov:KolmogorovSystem.{name}"
        for name in ("__init__", "drift", "drift_batch", "affine_parts",
                     "affine_parts_batch", "jacobian_x")
    ),
    "engine.simulate_ensemble": ("repro.engine.vectorized:simulate_ensemble",),
    "engine.map_shards": (
        "repro.engine.sharding:map_shards",
        "repro.engine.sharding:sweep_constant_ensembles",
        "repro.resilience.execution:map_shards_robust",
    ),
}


def _rows(array) -> int:
    shape = getattr(array, "shape", None)
    if shape is None:
        return 1
    return int(shape[0]) if len(shape) == 2 else 1


def _drift_rows(args, kwargs, result):
    return "population.drift_batch.rows", _rows(result)


def _template_directions(args, kwargs, result):
    return "bounds.templates.directions", int(result.directions.shape[0])


def _hull_points(args, kwargs, result):
    points = args[0] if args else kwargs["points"]
    return "geometry.convex_hull.points", len(points)


def _birkhoff_rounds(args, kwargs, result):
    return "steadystate.birkhoff.rounds", int(result.rounds)


def _chain_states(args, kwargs, result):
    return "ctmc.states", int(args[0].n_states)


#: Target -> ``tally(args, kwargs, result) -> (name, amount)`` for work
#: counts no telemetry counter records.
TALLIES: Dict[str, Callable] = {
    "repro.population.model:PopulationModel.drift_batch": _drift_rows,
    "repro.bounds.templates:template_reachable_bounds": _template_directions,
    "repro.geometry.polygon:convex_hull": _hull_points,
    "repro.steadystate.birkhoff:birkhoff_centre_2d": _birkhoff_rounds,
    "repro.ctmc.chain:ImpreciseCTMC.__init__": _chain_states,
}


def _resolve(target: str):
    """The raw attribute a target names (a function or a static/class
    method descriptor), or ``None`` when it no longer exists."""
    module_name, qualname = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = (owner.__dict__.get(attr) if isinstance(owner, type)
           else getattr(owner, attr, None))
    return raw if callable(getattr(raw, "__func__", raw)) else None


class LayerTracer:
    """Times the layers of :data:`LAYERS` by wrapping their entry points.

    Use :meth:`install` before any model is built and :meth:`uninstall`
    to put every original binding back.  Single-threaded: wrapped calls
    from several threads at once would corrupt the nesting stack.
    """

    def __init__(self, layers: Dict[str, Tuple[str, ...]] = LAYERS,
                 tallies: Dict[str, Callable] = TALLIES):
        self.layers = layers
        self.tallies_by_target = tallies
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in layers}
        self.calls: Dict[str, int] = {}
        self.tallies: Dict[str, float] = defaultdict(float)
        self.absent: List[str] = []
        self._stack: List[float] = [0.0]
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------

    def _timed(self, function, layer: str, target: str,
               tally: Optional[Callable]):
        stack, self_s, calls, tallies = (self._stack, self.self_s,
                                         self.calls, self.tallies)
        clock = time.perf_counter
        calls[target] = 0

        @functools.wraps(function)
        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stack[-1] += elapsed
                self_s[layer] += elapsed - inner
                calls[target] += 1
            if tally is not None:
                name, amount = tally(args, kwargs, result)
                tallies[name] += amount
            return result

        return timed

    def install(self) -> "LayerTracer":
        """Wrap every present target and rebind it wherever it is bound."""
        if self._undo:
            raise RuntimeError("LayerTracer is already installed")
        replacements: Dict[int, Tuple[object, object]] = {}
        for layer, targets in self.layers.items():
            for target in targets:
                raw = _resolve(target)
                if raw is None:
                    self.absent.append(target)
                    continue
                function = getattr(raw, "__func__", raw)
                timed = self._timed(function, layer, target,
                                    self.tallies_by_target.get(target))
                wrapped = (type(raw)(timed)
                           if isinstance(raw, (staticmethod, classmethod))
                           else timed)
                replacements[id(raw)] = (raw, wrapped)
        self._rebind(replacements)
        return self

    def _rebind(self, replacements):
        seen_classes = set()
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                self._swap(module, attr, value, replacements)
                if (isinstance(value, type) and id(value) not in seen_classes
                        and value.__module__.startswith("repro")):
                    seen_classes.add(id(value))
                    for cls_attr, cls_value in list(vars(value).items()):
                        self._swap(value, cls_attr, cls_value, replacements)

    def _swap(self, owner, attr, value, replacements):
        entry = replacements.get(id(value))
        if entry is not None and entry[0] is value:
            setattr(owner, attr, entry[1])
            self._undo.append((owner, attr, value))

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------

    @property
    def wrapped_calls(self) -> int:
        return sum(self.calls.values())

    def calls_of(self, *targets: str) -> int:
        return sum(self.calls.get(t, 0) for t in targets)

    def layer_calls(self, layer: str) -> int:
        return self.calls_of(*self.layers[layer])


def wrapper_cost_s(n: int = 20000) -> float:
    """Measured cost in seconds of one wrapped call over a bare call."""
    def noop():
        return None

    tracer = LayerTracer(layers={}, tallies={})
    timed = tracer._timed(noop, "calibration", "calibration", None)
    tracer.self_s["calibration"] = 0.0
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(n):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(n):
            timed()
        best = min(best, (time.perf_counter() - start - bare) / n)
    return max(best, 0.0)


def per_layer_metrics(tracer: LayerTracer,
                      counters: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.

    ``counters`` is the ``repro.telemetry`` counter snapshot of the pass.
    """
    s, c, tally = tracer.self_s, tracer.calls_of, tracer.tallies
    pontryagin = "repro.bounds.pontryagin:"
    accepted = counters.get("ode.dopri.steps_accepted", 0)
    rejected = counters.get("ode.dopri.steps_rejected", 0)
    drift_calls = tracer.layer_calls("population.drift_batch")
    ssa_events = counters.get("engine.ssa.events", 0)
    ssa_s = s["engine.simulate_ensemble"]
    return {
        "scenarios.build_model_s": s["scenarios.build_model"],
        "scenarios.question_self_s": s["scenarios.question"],
        "bounds.pontryagin.s": s["bounds.pontryagin"],
        "bounds.pontryagin.calls_batch":
            c(pontryagin + "extremal_trajectories_batch"),
        "bounds.pontryagin.calls_scalar":
            c(pontryagin + "extremal_trajectory"),
        "bounds.pontryagin.iterations": counters.get("pontryagin.iterations", 0),
        "bounds.templates.s": s["bounds.templates"],
        "bounds.templates.directions": tally["bounds.templates.directions"],
        "bounds.sweep.s": s["bounds.sweep"],
        "bounds.sweep.theta_solves": counters.get("envelope.theta_solves", 0),
        "bounds.hull.s": s["bounds.hull"],
        "bounds.hull.rhs_evals": counters.get("hull.rhs_evals", 0),
        "ode.rk4_batch.s": s["ode.rk4_batch"],
        "ode.rk4.steps": counters.get("ode.rk4.steps", 0),
        "ode.rk4.lanes": counters.get("ode.rk4.lanes", 0),
        "ode.rk4.rhs_evals": counters.get("ode.rk4.rhs_evals", 0),
        "ode.dopri_batch.s": s["ode.dopri_batch"],
        "ode.dopri.rhs_evals": counters.get("ode.dopri.rhs_evals", 0),
        "ode.dopri.reject_ratio":
            rejected / (accepted + rejected) if accepted + rejected else 0.0,
        "ode.scalar.calls": tracer.layer_calls("ode.scalar"),
        "ode.scalar.s": s["ode.scalar"],
        "population.drift_batch.calls": drift_calls,
        "population.drift_batch.rows_per_call":
            tally["population.drift_batch.rows"] / drift_calls
            if drift_calls else 0.0,
        "population.drift_batch.s": s["population.drift_batch"],
        "inclusion.extremizer.calls":
            tracer.layer_calls("inclusion.extremizer"),
        "inclusion.extremizer.s": s["inclusion.extremizer"],
        "steadystate.birkhoff.s": s["steadystate.birkhoff"],
        "steadystate.birkhoff.rounds": tally["steadystate.birkhoff.rounds"],
        "steadystate.hullbox.s": s["steadystate.hullbox"],
        "steadystate.fixed_points.s": s["steadystate.fixed_points"],
        "geometry.convex_hull.calls":
            tracer.layer_calls("geometry.convex_hull"),
        "geometry.convex_hull.points": tally["geometry.convex_hull.points"],
        "geometry.convex_hull.s": s["geometry.convex_hull"],
        "ctmc.chain.s": s["ctmc.chain"],
        "ctmc.states": tally["ctmc.states"],
        "ctmc.interval_dtmc.s": s["ctmc.interval_dtmc"],
        "ctmc.knapsack_rows": counters.get("ctmc.credal.knapsack_rows", 0),
        "ctmc.kolmogorov.s": s["ctmc.kolmogorov"],
        "engine.simulate_ensemble.s": ssa_s,
        "engine.ssa.events": ssa_events,
        "engine.ssa.events_per_s": ssa_events / ssa_s if ssa_s > 0 else 0.0,
        "engine.map_shards.self_s": s["engine.map_shards"],
        "resilience.retries": sum(v for k, v in counters.items()
                                  if k.startswith("resilience.")
                                  and k.endswith("retries")),
        "resilience.failures": sum(v for k, v in counters.items()
                                   if k.startswith("resilience.")
                                   and k.endswith("failures")),
    }
