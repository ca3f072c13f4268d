"""Cold-catalog benchmark of the ``repro`` toolkit.

Answers every catalog question of one workload cold: each pass is a
fresh interpreter with no result cache, answering the questions
serially.  Passes repeat while ``--seconds`` allow (at least
:data:`MIN_PASSES`); at a seed other than 0 each pass draws its own
kwargs from the seed (see ``workloads.py``).  From the root of a
checkout:

    python3 perfbench/run.py --workload transient --seed 0 --seconds 36 --trace 0

Times are seconds at a reference host speed: an untraced pass samples
the speed of the host while it measures and scales what it measures
(``speed.py``); raw seconds are printed and kept in the history too.
``--trace 0`` reports the end-to-end metrics: ``wall_s``, the time to
answer every question once (the sum of each question's median latency
over the run's passes), ``peak_rss_mb`` (median over passes), and
``setup_s`` (time from process start to first question: import,
catalog, workload generation, model building), the median of
:data:`SETUPS` set-ups, some made alone.  ``--trace 1`` runs pairs of
passes on one draw, untraced then traced (layer wrappers and
``repro.telemetry`` on), and reports the per-layer metrics (medians
over traced passes, raw seconds), ``failed_share``,
``trace.overhead_s``, ``question_p50_s`` (median of every untraced
question latency) and ``question_max_s`` (median of each untraced
pass's slowest question); the traced findings must equal the untraced
ones.  The two question latencies are printed by every run but not
gated: on ``transient`` the latencies have a gap at their median
(envelope questions near 0.1 s, Pontryagin ones near 0.2 s) that the
median jumps across from draw to draw, and the slowest question is
``sir-transient/pontryagin``, whose sweep takes 18 to 280 iterations
depending on the drawn kwargs.  Every run appends a
record with per-question latencies, per-kind totals and provenance to
``perfbench/results/history.jsonl``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from workloads import WORKLOAD_KINDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HISTORY_PATH = HERE / "results" / "history.jsonl"

#: Untraced runs make at least three passes, so one pass on a slow draw
#: or in a slow moment cannot set the median; traced runs at least one
#: untraced/traced pair.
MIN_PASSES = 3
#: An untraced run reports the median of at least SETUPS set-ups: those
#: of its passes, and, after each pass, up to SETUP_ONLY_PER_PASS set-ups
#: alone while the passes still to come cannot make up SETUPS.
SETUPS = 9
SETUP_ONLY_PER_PASS = 2
#: No pass starts when it is predicted to end later than this many
#: seconds into the run, and a pass still running at RUN_LIMIT_S is
#: killed, so a run always ends within three minutes.
HARD_LIMIT_S = 150.0
RUN_LIMIT_S = 170.0

#: The numeric libraries run single-threaded: the benchmark measures a
#: serial run, and a BLAS thread pool competing for the cores adds noise.
BLAS_THREADS = "1"

#: The metrics and their units, as ``BENCHMARK.json`` declares them.
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [metric["name"] for metric in _DECLARED["end_to_end"]]
PER_LAYER = [metric["name"] for metric in _DECLARED["per_layer"]]
UNITS = {metric["name"]: metric["unit"]
         for metric in _DECLARED["end_to_end"] + _DECLARED["per_layer"]}


def with_units(values: dict, names) -> dict:
    """``names`` with their values and declared units."""
    return {name: {"value": values[name], "unit": UNITS[name]}
            for name in names}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_one_pass(workload: str, seed: int, draw: int, traced: bool,
                 timeout: float, setup_only: bool = False) -> dict:
    """Run one pass in a fresh interpreter and return its record."""
    command = [sys.executable, str(HERE / "bench_pass.py"),
               "--workload", workload, "--seed", str(seed),
               "--draw", str(draw), "--trace", str(int(traced))]
    if setup_only:
        command.append("--setup-only")
    spawned_at = time.monotonic()
    proc = subprocess.run(command + ["--spawned-at", repr(spawned_at)],
                          cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"pass exited with code {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool):
    """Passes while ``seconds`` allow, and the set-up times of the run.

    A traced run alternates untraced and traced passes, each pair on
    one draw.  An untraced run also sets up alone after its passes when
    they are too long to make :data:`SETUPS` set-ups, so ``setup_s`` is
    a median of that many set-ups spread over the run.
    """
    start = time.monotonic()
    min_passes = 2 if trace else MIN_PASSES
    passes, durations, setups = [], [], []
    while True:
        elapsed = time.monotonic() - start
        if passes:
            predicted = elapsed + statistics.median(durations)
            if predicted > HARD_LIMIT_S:
                break
            if (len(passes) >= min_passes and predicted > seconds
                    and not (trace and len(passes) % 2)):
                break
        index = len(passes)
        traced = trace and index % 2 == 1
        draw = index // 2 if trace else index
        began = time.monotonic()
        passes.append(run_one_pass(workload, seed, draw, traced,
                                   RUN_LIMIT_S - (began - start)))
        setups.append(passes[-1])
        durations.append(time.monotonic() - began)
        if trace:
            continue
        elapsed = time.monotonic() - start
        to_come = max(MIN_PASSES - len(passes), 0,
                      int((seconds - elapsed) / statistics.median(durations)))
        for _ in range(min(SETUP_ONLY_PER_PASS,
                           SETUPS - len(setups) - to_come)):
            setups.append(run_one_pass(
                workload, seed, draw, False,
                RUN_LIMIT_S - (time.monotonic() - start), setup_only=True))
    return passes, [record for record in setups if not record.get("traced")]


def _median(values):
    return statistics.median(values) if values else 0.0


def findings_mismatches(passes) -> set:
    """``(draw, question id)`` pairs whose findings differ between passes."""
    first = {}
    mismatched = set()
    for record in passes:
        seen = first.setdefault(record["draw"], record["findings"])
        for qid in set(seen) | set(record["findings"]):
            if (json.dumps(seen.get(qid), sort_keys=True)
                    != json.dumps(record["findings"].get(qid), sort_keys=True)):
                mismatched.add((record["draw"], qid))
    return mismatched


def question_latencies(untraced) -> dict:
    """``question_p50_s`` (median of every question latency) and
    ``question_max_s`` (median of each pass's slowest) of a run's
    untraced passes."""
    return {
        "question_p50_s": _median(
            [seconds for r in untraced for seconds in r["latencies"].values()]),
        "question_max_s": _median([r["question_max_s"] for r in untraced]),
    }


def end_to_end(untraced, setups) -> dict:
    """A run's values from its untraced passes and its set-ups ``setups``.

    ``wall_s`` sums each question's median latency over the passes.  At
    a seed other than 0 each pass has its own draw, and a few questions
    take several times longer on some draws (``sir-transient/pontryagin``
    0.3 to 4 s), so the total of one pass depends on which of them its
    draw slowed; the median of each question does not.
    """
    values = question_latencies(untraced)
    values["wall_s"] = sum(_median([r["latencies"][qid] for r in untraced])
                           for qid in untraced[0]["latencies"])
    values["peak_rss_mb"] = _median([r["peak_rss_mb"] for r in untraced])
    values["setup_s"] = _median([r["setup_s"] for r in setups])
    return values


def summarize(passes, trace: bool, setups=None) -> dict:
    """The run's result object from its pass records and set-ups
    (by default those of its untraced passes)."""
    attempted = sum(len(record["latencies"]) for record in passes)
    mismatched = findings_mismatches(passes)
    failed = sum(len(set(record["failed"]) | {qid for draw, qid in mismatched
                                              if draw == record["draw"]})
                 for record in passes)
    untraced = [record for record in passes if not record["traced"]]
    if trace:
        traced = [record for record in passes if record["traced"]]
        names = list(traced[0]["layers"]) if traced else []
        values = {name: _median([r["layers"][name] for r in traced])
                  for name in names}
        values["trace.overhead_s"] = _median(
            [t["wall_raw_s"] - u["wall_raw_s"] for u, t in zip(untraced, traced)])
        values["failed_share"] = failed / attempted
        values.update(question_latencies(untraced))
        metrics = with_units(values, PER_LAYER)
    else:
        metrics = with_units(end_to_end(untraced, setups or untraced),
                             END_TO_END)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def git_sha():
    """The checkout's commit, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              env={**os.environ,
                                   "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def append_history(args, passes, setups, result) -> None:
    kinds = sorted({k for r in passes if not r["traced"] for k in r["kinds"]})
    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "versions": passes[0]["versions"],
        "seeded_kwargs": {r["draw"]: r["seeded_kwargs"] for r in passes},
        "kind_s": {k: _median([r["kinds"][k] for r in passes
                               if not r["traced"]]) for k in kinds},
        "passes": [{key: r[key] for key in r if key != "findings"}
                   for r in passes],
        "setups": [{key: r[key] for key in ("setup_s", "setup_raw_s")}
                   for r in setups],
        "result": result,
    }
    HISTORY_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(HISTORY_PATH, "a") as handle:
        handle.write(json.dumps(record) + "\n")


def report(passes, setups, result, trace: bool) -> None:
    """Print the kind table, failures and every metric with its unit."""
    untraced = [r for r in passes if not r["traced"]]
    print(f"{len(passes)} passes ({len(untraced)} untraced), "
          f"{len(setups)} set-ups")
    for kind in sorted(untraced[0]["kinds"]):
        seconds = _median([r["kinds"][kind] for r in untraced])
        print(f"  kind {kind:<12} {seconds:8.3f} s")
    for record in passes:
        for qid, reasons in sorted(record["failed"].items()):
            print(f"FAILED {qid}: {'; '.join(reasons)}", file=sys.stderr)
        for target in record.get("absent", []):
            print(f"absent layer function: {target}", file=sys.stderr)
    for draw, qid in sorted(findings_mismatches(passes)):
        print(f"FAILED {qid}: findings differ between passes on draw {draw} "
              f"(traced and untraced findings must be identical)",
              file=sys.stderr)
    values = end_to_end(untraced, setups)
    metrics = with_units(values, list(values))
    if trace:
        metrics.update(result["metrics"])
    for name, metric in metrics.items():
        print(f"  {name:<36} {metric['value']:.6g} {metric['unit']}")
    for name, records in (("wall_s", untraced), ("setup_s", setups)):
        raw = _median([r[name.replace("_s", "_raw_s")] for r in records])
        print(f"  {name:<36} {raw:.6g} s unscaled")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_KINDS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run raises SystemExit inside subprocess.run, which
    # kills and reaps the running pass instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    try:
        passes, setups = run_passes(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1
    result = summarize(passes, bool(args.trace), setups)
    append_history(args, passes, setups, result)
    report(passes, setups, result, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
