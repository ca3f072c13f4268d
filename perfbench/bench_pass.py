"""One cold pass of a workload in a fresh interpreter.

Started by ``run.py`` once per pass; prints one JSON record as its last
line of standard output.  A pass imports ``repro`` from the checkout's
``src``, generates the workload at the seed, builds one model per spec,
answers every question serially with no result cache, then runs the
output check.  An untraced pass samples the host's speed from its start
to its last question and reports its times at the reference speed
(``speed.py``) as well as raw.  With ``--trace 1`` the layer wrappers
are installed and ``repro.telemetry`` is enabled before any model is
built, and times are raw.  With ``--setup-only`` a pass stops after
set-up and reports its time only.

    python3 perfbench/bench_pass.py --workload transient --seed 0 --draw 0 \\
        --trace 0 --spawned-at <time.monotonic() of the parent at spawn>
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

from speed import Sampler
from workloads import question_id, workload_items

ROOT = Path(__file__).resolve().parent.parent


def answer(items, models, run_question):
    """Answer every question once.

    Returns outcomes and the ``time.monotonic`` start and end of each
    question.  A question that raises is recorded with its exception as
    outcome.
    """
    outcomes, spans = {}, {}
    for spec, question in items:
        qid = question_id(spec, question)
        began = time.monotonic()
        try:
            outcomes[qid] = run_question(spec, question, model=models[spec.name])
        except Exception as exc:  # a failing question is counted, not fatal
            outcomes[qid] = exc
        spans[qid] = (began, time.monotonic())
    return outcomes, spans


def build_models(items):
    models = {}
    for spec, _ in items:
        if spec.name not in models:
            models[spec.name] = spec.build_model()
    return models


def findings_of(outcome):
    if isinstance(outcome, BaseException):
        return None
    return {key: float(value) for key, value in sorted(outcome.findings.items())}


def run_pass(workload: str, seed: int, draw: int, trace: bool,
             spawned_at: float, setup_only: bool = False) -> dict:
    # An untraced pass samples the host's speed while it measures and
    # reports its times at the reference speed, and raw in ``*raw*``
    # fields (see speed.py).  A traced pass reports raw times in both.
    sampler = None if trace else Sampler().start()

    def timed(start, end):
        if sampler is None:
            return end - start, end - start
        return sampler.at_reference(start, end), sampler.seconds(start, end)

    try:
        import repro

        source = (ROOT / "src").resolve()
        if source not in Path(repro.__file__).resolve().parents:
            raise RuntimeError(f"repro was imported from {repro.__file__}, not "
                               f"from the checkout's src directory {source}")
        from repro import scenarios, telemetry

        tracer = None
        if trace:
            from layers import LayerTracer

            tracer = LayerTracer().install()
            telemetry.clear()
            telemetry.enable()
        items = workload_items(workload, seed, scenarios.list_scenarios(), draw)
        models = build_models(items)
        setup_end = time.monotonic()
        if not setup_only:
            outcomes, spans = answer(items, models, scenarios.run_question)
    finally:
        if sampler is not None:
            sampler.stop()
    setup_s, setup_raw_s = timed(spawned_at, setup_end)
    if setup_only:
        return {"setup_s": setup_s, "setup_raw_s": setup_raw_s}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies, raw_latencies = {}, {}
    for qid, span in spans.items():
        latencies[qid], raw_latencies[qid] = timed(*span)
    record = {
        "traced": bool(trace),
        "draw": draw,
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "wall_s": sum(latencies.values()),
        "wall_raw_s": sum(raw_latencies.values()),
        "peak_rss_mb": peak_rss_mb,
        "question_max_s": max(latencies.values()),
        "latencies": latencies,
        "raw_latencies": raw_latencies,
        "kinds": {},
        "seeded_kwargs": {spec.name: spec.kwargs for spec, _ in items
                          if spec.validity},
    }
    for spec, question in items:
        kinds = record["kinds"]
        kinds[question.kind] = (kinds.get(question.kind, 0.0)
                                + latencies[question_id(spec, question)])
    if tracer is not None:
        from layers import per_layer_metrics, wrapper_cost_s

        telemetry.disable()
        counters = telemetry.snapshot()["counters"]
        tracer.uninstall()
        record["layers"] = per_layer_metrics(tracer, counters)
        record["layer_self_s"] = dict(tracer.self_s)
        record["absent"] = tracer.absent
        record["wrapped_calls"] = tracer.wrapped_calls
        record["wrapper_cost_s"] = wrapper_cost_s()

    from checks import failed_questions, load_reference

    record["failed"] = failed_questions(
        items, outcomes, seed, load_reference() if seed == 0 else None)
    record["findings"] = {qid: findings_of(o) for qid, o in outcomes.items()}

    import numpy
    import scipy

    record["versions"] = {"python": platform.python_version(),
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--draw", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report its time only")
    args = parser.parse_args(argv)
    record = run_pass(args.workload, args.seed, args.draw, bool(args.trace),
                      args.spawned_at, args.setup_only)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
