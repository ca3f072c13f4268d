"""Pass 2: the registry contract audit.

Unlike pass 1 this *imports the package* and walks the live scenario
registry, so it can check contracts no AST can see:

- **REG001** — every registered model declares the batch-kernel pair
  (``affine_drift_batch`` + ``drift_jacobian_batch``) the bounds layers
  assume; a model without them silently drops every catalog entry that
  uses it onto the slow per-row paths.
- **REG002** — ``Question.kind`` values and the runner's backend table
  are in bijection: a kind without a backend fails at dispatch, a
  backend without a kind is dead code.
- **REG003** — every :class:`ScenarioSpec` dataclass field is explicitly
  classified as hash-included or hash-excluded
  (:data:`~repro.scenarios.spec.HASH_INCLUDED_FIELDS` /
  ``HASH_EXCLUDED_FIELDS``), and the classification is *verified
  behaviourally*: mutating an included field on a probe spec must change
  ``spec_hash()``, mutating an excluded field must not.
- **REG004** — every spec declaring ``golden`` pins also declares
  ``validity`` ranges: a pinned scenario without perturbation metadata
  freezes its numbers while exempting itself from the robustness sweep.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List

from repro.analysis.lint.framework import Finding

__all__ = ["audit_registry"]

#: Where audit findings point (there is no single source line to blame).
_REGISTRY_FILE = "src/repro/scenarios/catalog.py"
_SPEC_FILE = "src/repro/scenarios/spec.py"
_RUNNER_FILE = "src/repro/scenarios/runner.py"


def _probe_spec():
    """A minimal valid spec the REG003 field mutations start from."""
    from repro.models import make_sir_model
    from repro.scenarios.spec import Question, ScenarioSpec

    return ScenarioSpec(
        name="lint-audit-probe",
        title="registry-audit probe",
        model_factory=make_sir_model,
        x0=(0.9, 0.1),
        horizon=1.0,
        questions=(Question("envelope", options={"n_times": 3}),),
        observables=("I",),
        model_kwargs={"a": 0.1},
    )


def _field_variants() -> Dict[str, Callable]:
    """One mutation per ScenarioSpec field, applied via with_overrides.

    A dataclass field with no entry here is itself a REG003 finding:
    whoever adds the field must teach the audit how to perturb it (and
    classify it in the hash manifest) in the same change.
    """
    from repro.models import make_seir_model
    from repro.scenarios.spec import Question

    return {
        "name": lambda s: s.with_overrides(name="lint-audit-probe-2"),
        "title": lambda s: s.with_overrides(title="other title"),
        "description": lambda s: s.with_overrides(description="other text"),
        "tags": lambda s: s.with_overrides(tags=("lint",)),
        "validity": lambda s: s.with_overrides(validity={"a": (0.05, 0.3)}),
        "golden": lambda s: s.with_overrides(golden={"probe": 1.0}),
        "model_factory": lambda s: s.with_overrides(
            model_factory=make_seir_model, model_kwargs={"a": None}
        ),
        "model_kwargs": lambda s: s.with_overrides(model_kwargs={"a": 0.2}),
        "x0": lambda s: s.with_overrides(x0=(0.8, 0.2)),
        "horizon": lambda s: s.with_overrides(horizon=2.0),
        "observables": lambda s: s.with_overrides(observables=("S",)),
        "questions": lambda s: s.with_overrides(
            questions=(Question("envelope", options={"n_times": 4}),)
        ),
    }


def _audit_models(findings: List[Finding]) -> None:
    from repro.scenarios import list_scenarios

    seen = set()
    for spec in list_scenarios():
        key = (spec.factory_ref, spec.model_kwargs)
        if key in seen:
            continue
        seen.add(key)
        try:
            model = spec.build_model()
        except Exception as exc:  # repro: noqa[REP002] - a broken factory must become a finding, not a crash
            findings.append(Finding(
                file=_REGISTRY_FILE, line=1, code="REG001",
                message=f"scenario {spec.name!r}: model factory "
                        f"{spec.factory_ref} failed to build: {exc}",
            ))
            continue
        missing = [
            kernel for kernel, declared in (
                ("affine_drift_batch", model.declares_affine_drift_batch),
                ("drift_jacobian_batch", model.declares_drift_jacobian_batch),
            ) if not declared
        ]
        if missing:
            findings.append(Finding(
                file=_REGISTRY_FILE, line=1, code="REG001",
                message=f"scenario {spec.name!r}: model {model.name!r} does "
                        f"not declare {', '.join(missing)} — the bounds "
                        "layers fall back to per-row loops",
            ))


def _audit_backends(findings: List[Finding]) -> None:
    from repro.scenarios.runner import _BACKENDS
    from repro.scenarios.spec import QUESTION_KINDS

    kinds = set(QUESTION_KINDS)
    backends = set(_BACKENDS)
    for kind in sorted(kinds - backends):
        findings.append(Finding(
            file=_RUNNER_FILE, line=1, code="REG002",
            message=f"question kind {kind!r} has no run_question backend",
        ))
    for kind in sorted(backends - kinds):
        findings.append(Finding(
            file=_RUNNER_FILE, line=1, code="REG002",
            message=f"runner backend {kind!r} is not a declared "
                    "Question.kind",
        ))


def _audit_hash_manifest(findings: List[Finding]) -> None:
    from repro.scenarios.spec import (
        HASH_EXCLUDED_FIELDS,
        HASH_INCLUDED_FIELDS,
        ScenarioSpec,
    )

    fields = {f.name for f in dataclasses.fields(ScenarioSpec)}
    included = set(HASH_INCLUDED_FIELDS)
    excluded = set(HASH_EXCLUDED_FIELDS)
    for name in sorted(included & excluded):
        findings.append(Finding(
            file=_SPEC_FILE, line=1, code="REG003",
            message=f"spec field {name!r} is listed as both hash-included "
                    "and hash-excluded",
        ))
    for name in sorted(fields - included - excluded):
        findings.append(Finding(
            file=_SPEC_FILE, line=1, code="REG003",
            message=f"spec field {name!r} is not classified: add it to "
                    "HASH_INCLUDED_FIELDS or HASH_EXCLUDED_FIELDS (and a "
                    "mutation to the registry audit)",
        ))
    for name in sorted((included | excluded) - fields):
        findings.append(Finding(
            file=_SPEC_FILE, line=1, code="REG003",
            message=f"hash manifest names {name!r}, which is not a "
                    "ScenarioSpec field",
        ))

    base = _probe_spec()
    base_hash = base.spec_hash()
    variants = _field_variants()
    for name in sorted(fields):
        mutate = variants.get(name)
        if mutate is None:
            findings.append(Finding(
                file=_SPEC_FILE, line=1, code="REG003",
                message=f"registry audit has no mutation for spec field "
                        f"{name!r}: teach _field_variants() about it",
            ))
            continue
        try:
            variant_hash = mutate(base).spec_hash()
        except Exception as exc:  # repro: noqa[REP002] - a broken mutation must become a finding, not a crash
            findings.append(Finding(
                file=_SPEC_FILE, line=1, code="REG003",
                message=f"mutating spec field {name!r} failed: {exc}",
            ))
            continue
        changed = variant_hash != base_hash
        if name in included and not changed:
            findings.append(Finding(
                file=_SPEC_FILE, line=1, code="REG003",
                message=f"spec field {name!r} is declared hash-included "
                        "but mutating it leaves spec_hash() unchanged — "
                        "stale cache entries would be served",
            ))
        elif name in excluded and changed:
            findings.append(Finding(
                file=_SPEC_FILE, line=1, code="REG003",
                message=f"spec field {name!r} is declared hash-excluded "
                        "but mutating it changes spec_hash() — caches "
                        "would be invalidated by metadata edits",
            ))


def _audit_golden_validity(findings: List[Finding]) -> None:
    from repro.scenarios import list_scenarios

    for spec in list_scenarios():
        if spec.golden and not spec.validity:
            findings.append(Finding(
                file=_REGISTRY_FILE, line=1, code="REG004",
                message=f"scenario {spec.name!r} declares golden pins but "
                        "no validity ranges — pinned scenarios must also "
                        "join the perturbation sweep",
            ))


def audit_registry() -> List[Finding]:
    """Run every registry contract check; returns the findings."""
    findings: List[Finding] = []
    _audit_models(findings)
    _audit_backends(findings)
    _audit_hash_manifest(findings)
    _audit_golden_validity(findings)
    return findings
