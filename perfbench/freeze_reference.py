"""Freeze the seed-0 findings of every catalog question into the reference file.

The output check compares seed-0 findings against this file, so it must
only be regenerated from a commit whose answers are trusted; a change
that moves findings is a finding to explain, not a reason to refreeze.

    PYTHONPATH=src python3 perfbench/freeze_reference.py
"""

from __future__ import annotations

import json
import sys

from bench_pass import answer, build_models, findings_of
from checks import REFERENCE_PATH
from workloads import WORKLOAD_KINDS, workload_items


def main() -> int:
    from repro import scenarios

    reference = {}
    for workload in WORKLOAD_KINDS:
        items = workload_items(workload, 0, scenarios.list_scenarios())
        outcomes, _, _ = answer(items, build_models(items),
                                scenarios.run_question)
        for qid, outcome in outcomes.items():
            if isinstance(outcome, BaseException):
                raise outcome
            reference[qid] = findings_of(outcome)
    REFERENCE_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{len(reference)} questions written to {REFERENCE_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
