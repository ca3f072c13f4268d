"""The output check: which answered questions count as failed.

At seed 0 every question's findings are compared with two references:
the findings frozen in ``reference/seed0_findings.json`` (at the rtol
``ScenarioConformance.check_golden`` uses) and the spec's own ``golden``
pins (at their own rtol).  At every seed the soundness invariants the
findings carry must hold:

- every ``dtmc_*_conservative`` finding is 1;
- every ``birkhoff_inside_steady_rect`` finding is 1;
- where a spec emits both, the imprecise (Pontryagin) bounds of an
  observable contain its uncertain (constant-theta) envelope at every
  time both series share, up to the conformance harness's
  ``TEMPLATE_TOL`` discretisation allowance.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np
from workloads import question_id

from repro.testing.conformance import TEMPLATE_TOL

REFERENCE_PATH = Path(__file__).resolve().parent / "reference" / "seed0_findings.json"

#: The tolerance ``ScenarioConformance.check_golden`` applies to pins
#: without their own rtol; the frozen findings are held to it too.
GOLDEN_RTOL = 5e-4


def load_reference(path: Path = REFERENCE_PATH) -> Dict[str, Dict[str, float]]:
    with open(path) as handle:
        return json.load(handle)


def _close(actual: float, expected: float, rtol: float) -> bool:
    if math.isnan(expected) or math.isnan(actual):
        return math.isnan(expected) and math.isnan(actual)
    if math.isinf(expected) or math.isinf(actual):
        return actual == expected
    return abs(actual - expected) <= rtol * max(1.0, abs(expected))


def _reference_problems(findings, expected) -> List[str]:
    problems = []
    missing = sorted(set(expected) - set(findings))
    extra = sorted(set(findings) - set(expected))
    if missing:
        problems.append(f"findings missing against the reference: {missing}")
    if extra:
        problems.append(f"findings absent from the reference: {extra}")
    for key in sorted(set(findings) & set(expected)):
        if not _close(float(findings[key]), float(expected[key]), GOLDEN_RTOL):
            problems.append(f"{key} = {findings[key]!r} differs from the "
                            f"reference {expected[key]!r} (rtol {GOLDEN_RTOL:g})")
    return problems


def _golden_problems(spec, findings) -> List[str]:
    problems = []
    for key, pin in spec.golden_values.items():
        if key not in findings:
            continue
        expected, rtol = ((float(pin[0]), float(pin[1]))
                          if isinstance(pin, (tuple, list))
                          else (float(pin), GOLDEN_RTOL))
        if not _close(float(findings[key]), expected, rtol):
            problems.append(f"{key} = {findings[key]!r} misses the golden "
                            f"pin {expected!r} (rtol {rtol:g})")
    return problems


def _invariant_problems(findings) -> List[str]:
    problems = []
    for key, value in findings.items():
        certified = (key.endswith("_conservative") and "dtmc_" in key) or \
            key.endswith("birkhoff_inside_steady_rect")
        if certified and float(value) != 1.0:
            problems.append(f"{key} = {value!r}, expected 1")
    return problems


def _unlabelled_series(question, outcome) -> Dict[str, tuple]:
    prefix = f"{question.label}_" if question.label else ""
    return {name[len(prefix):]: data for name, data in outcome.series.items()
            if name.startswith(prefix)}


def _containment_problems(envelope_series, imprecise_series, tol) -> List[str]:
    problems = []
    for name, (times, uncertain) in envelope_series.items():
        for side, suffix in (("lower", "_uncertain_lower"),
                             ("upper", "_uncertain_upper")):
            if not name.endswith(suffix):
                continue
            observable = name[:-len(suffix)]
            exact = imprecise_series.get(f"{observable}_imprecise_{side}")
            if exact is None:
                continue
            exact_times, exact_values = (np.asarray(a, float) for a in exact)
            for t, value in zip(np.asarray(times, float),
                                np.asarray(uncertain, float)):
                hits = np.flatnonzero(np.isclose(exact_times, t,
                                                 rtol=0.0, atol=1e-9))
                if hits.size == 0:
                    continue
                bound = float(exact_values[hits[0]])
                slack = tol * max(1.0, abs(float(value)))
                inside = (bound <= value + slack if side == "lower"
                          else bound >= value - slack)
                if not inside:
                    problems.append(
                        f"imprecise {side} bound of {observable} at t={t:g} "
                        f"({bound!r}) does not contain the envelope "
                        f"({float(value)!r})")
    return problems


def failed_questions(items, outcomes, seed: int,
                     reference: Optional[Dict[str, Dict[str, float]]] = None
                     ) -> Dict[str, List[str]]:
    """Reasons each failing question fails; passing questions are absent.

    ``items`` are the workload's ``(spec, question)`` pairs and
    ``outcomes`` maps each question id to its ``QuestionOutcome``, or to
    the exception it raised.  ``reference`` is required at seed 0.
    """
    failed: Dict[str, List[str]] = {}
    by_spec: Dict[str, list] = {}
    for spec, question in items:
        qid = question_id(spec, question)
        outcome = outcomes[qid]
        if isinstance(outcome, BaseException):
            failed[qid] = [f"raised {type(outcome).__name__}: {outcome}"]
            continue
        problems = _invariant_problems(outcome.findings)
        if seed == 0:
            if qid not in reference:
                problems.append("question absent from the reference")
            else:
                problems += _reference_problems(outcome.findings,
                                                reference[qid])
            problems += _golden_problems(spec, outcome.findings)
        if problems:
            failed[qid] = problems
        by_spec.setdefault(spec.name, []).append((qid, question, outcome))

    for answered in by_spec.values():
        envelope = {}
        for _, question, outcome in answered:
            if question.kind == "envelope":
                envelope.update(_unlabelled_series(question, outcome))
        for qid, question, outcome in answered:
            if question.kind != "pontryagin" or not envelope:
                continue
            problems = _containment_problems(
                envelope, _unlabelled_series(question, outcome), TEMPLATE_TOL)
            if problems:
                failed.setdefault(qid, []).extend(problems)
    return failed
