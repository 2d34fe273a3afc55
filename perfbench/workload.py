"""One workload in one process: run documents through ziphasse.cli_report.main.

Run by run.py as a child process with ``src`` on PYTHONPATH; prints one JSON
object with the workload's figures on its last line.  Each document is
timed around main() alone, in a closed loop, one document at a time.
Generating the documents, collecting garbage left by the previous document,
timing the calibration kernel and checking the output all happen outside
the timed region.

A run is a fixed number of whole rounds (see corpus.py), sized from the time
budget with the nominal length of a round, ROUND_S, so that it takes about
that long on a two-core shared machine; at least MIN_DOCS documents run.
The same seed and budget always run the same documents, so two runs, or a
parent and a change, are compared on the same work.  The documents of a
round cost nearly the same for every seed, but not for every round, so a
run that stopped when its time was up would mix rounds differently from one
run to the next.

With --trace 1 the child first runs untraced for half the budget, then
runs the same documents again under the tracer; the two passes must
produce byte-identical outputs, and their throughputs give the tracing
overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import NamedTuple

import calibrate
import checks
import corpus
from tracer import TRACED, Tracer

from ziphasse import cli_report

MIN_DOCS = 100
ROUND_S = {"census": 7.0, "high_rank": 10.0, "sweep": 2.3}
STOP_AFTER = 3  # stop early past this many times the budget, on a slow host


class Result(NamedTuple):
    doc: corpus.Doc
    code: int
    stdout: str
    wall_ns: int      # time in main() as measured
    ref_ns: float     # the same at reference speed (see calibrate.py)
    problems: list


def execute(doc: corpus.Doc) -> Result:
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(doc.text)
    before = calibrate.kernel_ns()
    raised = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter_ns()
            try:
                code = cli_report.main([doc.command, *doc.argv])
            except Exception as exc:
                code = 1  # what the interpreter exits with on a traceback
                raised = exc
            elapsed = perf_counter_ns() - start
    finally:
        sys.stdin = saved
    speed = (before + calibrate.kernel_ns()) / 2
    stdout = out.getvalue()
    problems = checks.check(doc, code, stdout)
    if raised is not None:
        problems.append("main() raised %s: %s" % (type(raised).__name__, raised))
    return Result(doc, code, stdout, elapsed,
                  elapsed * calibrate.NOMINAL_NS / speed, problems)


def run_docs(docs) -> list:
    return [execute(doc) for doc in docs]


def measure(workload: str, seed: int, budget_s: float) -> list:
    """The rounds of one run: round(budget / ROUND_S), at least MIN_DOCS."""
    rounds = max(1, round(budget_s / ROUND_S[workload]))
    results = []
    start = perf_counter()
    for r, round_docs in enumerate(corpus.rounds(workload, seed)):
        if len(results) >= MIN_DOCS and (
                r >= rounds or perf_counter() - start > STOP_AFTER * budget_s):
            break
        results += run_docs(round_docs)
    return results


def _timings(times_ns) -> dict:
    ms = [t / 1e6 for t in times_ns]
    return {"data_per_s": len(ms) / (sum(ms) / 1e3),
            "datum_ms_p50": statistics.median(ms),
            "datum_ms_p90": statistics.quantiles(ms, n=10,
                                                 method="inclusive")[8]}


def summarize(results) -> dict:
    """Counts, failures, digests and timings of one pass."""
    failed = [r for r in results if r.problems]
    pass_digest = hashlib.sha256()
    outputs = {}
    seen = set()
    shared = 0
    for r in results:
        outputs[r.doc.id] = [r.code, checks.digest(r.stdout), r.ref_ns / 1e6]
        pass_digest.update(("%s %d %s\n" % (r.doc.id, r.code,
                                            outputs[r.doc.id][1])).encode())
        if r.doc.datum is not None:
            shared += r.doc.datum in seen
            seen.add(r.doc.datum)
    return {
        "attempted": len(results),
        "failed": len(failed),
        # A report main() returned must pass its checks; a document whose
        # main() raised (exit 1) is a failure, not a wrong answer.
        "correct": all(r.code == 1 for r in failed),
        "problems": [[r.doc.id, r.code, r.problems] for r in failed],
        "digest": pass_digest.hexdigest(),
        "outputs": outputs,
        "shared_datum_ratio": shared / len(results),
        "timings": _timings([r.ref_ns for r in results]),
        "raw": _timings([r.wall_ns for r in results]),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(summary: dict) -> dict:
    t = summary["timings"]
    return {
        "data_per_s": _metric(t["data_per_s"], "1/s"),
        "datum_ms_p50": _metric(t["datum_ms_p50"], "ms"),
        "datum_ms_p90": _metric(t["datum_ms_p90"], "ms"),
        "ok_ratio": _metric(1 - summary["failed"] / summary["attempted"],
                            "ratio"),
    }


def layer_metrics(tracer: Tracer, traced: dict, untraced: dict) -> dict:
    metrics = {}
    for module, names in TRACED.items():
        for fname in names:
            name = "%s.%s" % (module, fname)
            metrics[name + ".self_s"] = _metric(tracer.self_ns[name] / 1e9, "s")
            metrics[name + ".calls"] = _metric(tracer.calls[name], "count")
    for name, value in tracer.counters.items():
        metrics[name] = _metric(value, "bits" if name.endswith(".max_bits")
                                else "count")
    metrics["workload.shared_datum_ratio"] = _metric(
        traced["shared_datum_ratio"], "ratio")
    metrics["trace.data_per_s"] = _metric(
        traced["timings"]["data_per_s"], "1/s")
    metrics["trace.untraced.data_per_s"] = _metric(
        untraced["timings"]["data_per_s"], "1/s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", type=Path,
                        help="write each output's SHA-256 digest to this file")
    args = parser.parse_args(argv)

    calibrate.pin_to_one_cpu()
    if not args.trace:
        summary = summarize(measure(args.workload, args.seed, args.seconds))
        summary["metrics"] = end_to_end_metrics(summary)
    else:
        first = measure(args.workload, args.seed, args.seconds / 2)
        untraced = summarize(first)
        with Tracer() as tracer:
            summary = summarize(run_docs(r.doc for r in first))
        summary["metrics"] = layer_metrics(tracer, summary, untraced)
        if summary["digest"] != untraced["digest"]:
            summary["correct"] = False
            summary["problems"].append(["*", None, ["tracing changed an output"]])
    summary["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.digests:
        args.digests.parent.mkdir(parents=True, exist_ok=True)
        args.digests.write_text(json.dumps(
            {"digest": summary["digest"], "outputs": summary["outputs"]},
            indent=1, sort_keys=True) + "\n")
    del summary["outputs"]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
