"""Tests of the benchmark harness itself (workloads, output check, tracer).

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest
from bench_pass import answer, build_models
from checks import failed_questions, load_reference
from layers import LAYERS, LayerTracer, per_layer_metrics, wrapper_cost_s
from run import end_to_end, summarize
from speed import REFERENCE_S, Sampler
from workloads import (
    WORKLOAD_KINDS,
    question_id,
    seeded_spec,
    workload_items,
    workload_of_kind,
)

import repro.scenarios.runner as runner
from repro import scenarios
from repro.ctmc import IntervalDTMC
from repro.population.model import PopulationModel
from repro.scenarios import QUESTION_KINDS, list_scenarios
from repro.scenarios.runner import QuestionOutcome

BENCH_DIR = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def specs():
    return list_scenarios()


def _ids(items):
    return [question_id(spec, q) for spec, q in items]


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

def test_workloads_partition_the_catalog_at_seed_0(specs):
    catalog = sorted(question_id(s, q) for s in specs for q in s.questions)
    assert len(catalog) == 46
    assigned = [qid for workload in WORKLOAD_KINDS
                for qid in _ids(workload_items(workload, 0, specs))]
    assert sorted(assigned) == catalog


def test_unassigned_kind_fails_loudly(specs, monkeypatch):
    with pytest.raises(ValueError, match="no workload"):
        workload_of_kind(tuple(QUESTION_KINDS) + ("new_kind",))
    monkeypatch.setitem(WORKLOAD_KINDS, "ensemble", ())
    with pytest.raises(ValueError, match="ensemble"):
        workload_items("transient", 0, specs)


def test_kind_in_two_workloads_fails(monkeypatch):
    monkeypatch.setitem(WORKLOAD_KINDS, "ensemble", ("ensemble", "hull"))
    with pytest.raises(ValueError, match="both"):
        workload_of_kind(QUESTION_KINDS)


def test_seed_0_is_the_registered_catalog(specs):
    assert all(seeded_spec(spec, 0) is spec for spec in specs)


def test_other_seeds_redraw_only_validity_kwargs(specs):
    declared = [s for s in specs if s.validity]
    assert len(declared) == 7
    for spec in specs:
        drawn = seeded_spec(spec, 5)
        if not spec.validity:
            assert drawn is spec
            continue
        assert drawn.questions == spec.questions
        assert drawn == seeded_spec(spec, 5)
        assert drawn.kwargs != seeded_spec(spec, 6).kwargs
        for key, (low, high) in spec.validity_ranges.items():
            assert low <= drawn.kwargs[key] <= high


def test_draws_of_one_run_spread_over_the_ranges(specs):
    spec = next(s for s in specs if s.name == "sir-transient")
    low, high = spec.validity_ranges["a"]
    units = [(seeded_spec(spec, 3, draw).kwargs["a"] - low) / (high - low)
             for draw in range(4)]
    offsets = sorted((u - units[0]) % 1.0 for u in units)
    assert offsets == pytest.approx([0.0, 0.25, 0.5, 0.75])
    assert units != [(seeded_spec(spec, 4, draw).kwargs["a"] - low)
                     / (high - low) for draw in range(4)]


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------

def _reference_outcomes(items, reference):
    return {qid: QuestionOutcome(findings=dict(reference[qid]))
            for qid in _ids(items)}


def _pass_record(items, outcomes, seed, traced=False):
    reference = load_reference() if seed == 0 else None
    return {
        "traced": traced,
        "draw": 0,
        "latencies": {qid: 1.0 for qid in _ids(items)},
        "failed": failed_questions(items, outcomes, seed, reference),
        "findings": {qid: o.findings for qid, o in outcomes.items()},
        "layers": per_layer_metrics(LayerTracer(), {}),
        "wall_s": 1.0, "wall_raw_s": 1.0, "question_max_s": 1.0,
    }


def test_corrupted_finding_is_counted_in_failed_share(specs):
    items = workload_items("stationary", 0, specs)
    reference = load_reference()
    clean = _reference_outcomes(items, reference)
    assert failed_questions(items, clean, 0, reference) == {}

    corrupted = _reference_outcomes(items, reference)
    victim = _ids(items)[0]
    key = sorted(corrupted[victim].findings)[0]
    corrupted[victim].findings[key] = corrupted[victim].findings[key] * 1.01 + 1e-3
    assert list(failed_questions(items, corrupted, 0, reference)) == [victim]

    result = summarize([_pass_record(items, corrupted, 0),
                        _pass_record(items, corrupted, 0, traced=True)],
                       trace=True)
    assert result["failed"] == 2
    assert result["correct"] is False
    assert result["metrics"]["failed_share"]["value"] == pytest.approx(
        2 / (2 * len(items)))


def test_golden_pin_miss_fails_even_within_reference(specs):
    items = [(s, q) for s, q in workload_items("transient", 0, specs)
             if s.name == "sir-transient" and q.kind == "pontryagin"]
    reference = load_reference()
    outcomes = _reference_outcomes(items, reference)
    (qid,) = outcomes
    findings = outcomes[qid].findings
    findings["I_imprecise_max_final"] *= 1 + 4e-4  # inside 5e-4 of the reference
    assert failed_questions(items, outcomes, 0, reference) == {}
    spec = items[0][0].with_overrides(
        golden={"I_imprecise_max_final": (0.170538327409, 1e-5)})
    failed = failed_questions([(spec, items[0][1])], outcomes, 0, reference)
    assert "golden pin" in failed[qid][0]


def test_invariants_checked_at_every_seed(specs):
    items = workload_items("stationary", 0, specs)
    outcomes = _reference_outcomes(items, load_reference())
    assert failed_questions(items, outcomes, 3) == {}
    dtmc = next(qid for qid in outcomes if qid.endswith("dtmc_reward"))
    key = next(k for k in outcomes[dtmc].findings if k.endswith("_conservative"))
    outcomes[dtmc].findings[key] = 0.0
    steady = next(qid for qid in outcomes if qid.endswith("steadystate")
                  and "birkhoff_inside_steady_rect" in outcomes[qid].findings)
    outcomes[steady].findings["birkhoff_inside_steady_rect"] = 0.0
    assert set(failed_questions(items, outcomes, 3)) == {dtmc, steady}


def test_imprecise_bounds_must_contain_the_envelope(specs):
    spec = next(s for s in specs if s.name == "sir-transient")
    envelope, pontryagin = spec.questions
    times = np.array([0.0, 1.0, 3.0])
    env = QuestionOutcome(series={
        "I_uncertain_lower": (times, np.array([0.3, 0.2, 0.05])),
        "I_uncertain_upper": (times, np.array([0.3, 0.3, 0.10]))})
    horizons = np.array([1.0, 3.0])

    def exact(upper_final):
        return QuestionOutcome(series={
            "I_imprecise_lower": (horizons, np.array([0.1, 0.01])),
            "I_imprecise_upper": (horizons, np.array([0.4, upper_final]))})

    items = [(spec, envelope), (spec, pontryagin)]
    ids = _ids(items)
    assert failed_questions(items, {ids[0]: env, ids[1]: exact(0.2)}, 1) == {}
    failed = failed_questions(items, {ids[0]: env, ids[1]: exact(0.08)}, 1)
    assert list(failed) == [ids[1]]
    assert "t=3" in failed[ids[1]][0]


def test_raising_question_fails(specs):
    items = workload_items("ensemble", 4, specs)
    outcomes = {qid: ValueError("boom") for qid in _ids(items)}
    assert len(failed_questions(items, outcomes, 4)) == len(items)


def test_findings_differing_between_passes_fail(specs):
    items = workload_items("stationary", 0, specs)
    reference = load_reference()
    first = _pass_record(items, _reference_outcomes(items, reference), 0)
    changed = _reference_outcomes(items, reference)
    victim = _ids(items)[-1]
    key = sorted(changed[victim].findings)[-1]
    changed[victim].findings[key] = np.nextafter(changed[victim].findings[key], 2.0)
    second = _pass_record(items, changed, 0, traced=True)
    assert second["failed"] == {}
    assert summarize([first, second], trace=True)["failed"] == 2


def test_wall_sums_each_question_median_over_passes():
    passes = [{"latencies": {"a": a, "b": b}, "peak_rss_mb": 80.0,
               "setup_s": 1.0, "question_max_s": max(a, b)}
              for a, b in ((1.0, 0.1), (4.0, 0.2), (2.0, 0.3))]
    values = end_to_end(passes, passes + [dict(passes[0], setup_s=0.5)])
    assert values["wall_s"] == pytest.approx(2.0 + 0.2)
    assert values["setup_s"] == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Speed calibration
# ----------------------------------------------------------------------

def test_intervals_are_scaled_by_the_reference_work_near_them():
    sampler = Sampler()
    sampler.starts, sampler.ends = [0.0, 1.0, 1.2], [0.002, 1.004, 1.204]
    # The run at 0.0 is more than WINDOW_S before the interval.
    assert sampler.seconds(0.5, 1.5) == pytest.approx(1.0 - 0.008)
    assert sampler.at_reference(0.5, 1.5) == pytest.approx(
        (1.0 - 0.008) * REFERENCE_S / 0.004)
    assert sampler.seconds(0.0, 0.5) == pytest.approx(0.5 - 0.002)
    with pytest.raises(RuntimeError):
        sampler.at_reference(0.3, 0.6)


def test_sampler_runs_the_reference_work_while_code_runs():
    sampler = Sampler().start()
    start = time.monotonic()
    while time.monotonic() - start < 0.3:
        sum(range(1000))
    end = time.monotonic()
    sampler.stop()
    assert len(sampler.starts) >= 3
    assert 0.0 < sampler.seconds(start, end) < end - start
    assert sampler.at_reference(start, end) > 0.0


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------

def test_missing_layer_function_is_reported_absent():
    layers = dict(LAYERS)
    layers["bounds.pontryagin"] = LAYERS["bounds.pontryagin"] + (
        "repro.bounds.pontryagin:no_such_sweep",)
    layers["ode.scalar"] = ("repro.no_such_module:solve_ode",)
    tracer = LayerTracer(layers=layers)
    with tracer:
        metrics = per_layer_metrics(tracer, {})
    assert tracer.absent == ["repro.bounds.pontryagin:no_such_sweep",
                             "repro.no_such_module:solve_ode"]
    assert metrics["ode.scalar.calls"] == 0


def test_wrappers_replace_every_binding():
    import repro.bounds
    from repro.bounds import pontryagin as module

    original = module.pontryagin_transient_bounds
    drift_batch = PopulationModel.__dict__["drift_batch"]
    from_chain = IntervalDTMC.__dict__["from_imprecise_ctmc"]
    with LayerTracer() as tracer:
        assert tracer.absent == []
        wrapped = module.pontryagin_transient_bounds
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert runner.pontryagin_transient_bounds is wrapped
        assert repro.bounds.pontryagin_transient_bounds is wrapped
        assert scenarios.run_question is runner.run_question
        assert PopulationModel.__dict__["drift_batch"].__wrapped__ is drift_batch
        assert IntervalDTMC.upper_operator_batch.__wrapped__ is not None
        assert isinstance(IntervalDTMC.__dict__["from_imprecise_ctmc"],
                          classmethod)
    assert module.pontryagin_transient_bounds is original
    assert runner.pontryagin_transient_bounds is original
    assert PopulationModel.__dict__["drift_batch"] is drift_batch
    assert IntervalDTMC.__dict__["from_imprecise_ctmc"] is from_chain


def test_self_times_add_up_to_traced_wall(specs):
    items = [(s, q) for s, q in workload_items("transient", 0, specs)
             if s.name in ("sir-hull", "csma-contention")]
    untraced, _ = answer(items, build_models(items), scenarios.run_question)

    with LayerTracer() as tracer:
        models = build_models(items)
        traced, spans = answer(items, models, scenarios.run_question)
    latencies = {qid: end - start for qid, (start, end) in spans.items()}
    wall = max(end for _, end in spans.values()) - min(
        start for start, _ in spans.values())
    assert tracer.calls["repro.scenarios.runner:run_question"] == len(items)
    assert tracer.layer_calls("population.drift_batch") > 0

    layered = sum(seconds for layer, seconds in tracer.self_s.items()
                  if layer != "scenarios.build_model")
    overhead = tracer.wrapped_calls * wrapper_cost_s()
    assert layered == pytest.approx(sum(latencies.values()), abs=overhead)
    assert 0.0 <= wall - layered <= overhead + 1e-3
    for qid, outcome in traced.items():
        assert outcome.findings == untraced[qid].findings


def test_benchmark_never_imports_the_backend_seam():
    for path in BENCH_DIR.glob("*.py"):
        text = path.read_text()
        assert "repro.backend" not in text, path.name
        assert "backend=" not in text, path.name
