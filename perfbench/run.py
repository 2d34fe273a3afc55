"""Corpus benchmark of the ziphasse CLI pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census --seed 0 --seconds 30 --trace 0

--workload is census, high_rank, sweep, or all (each in turn).  With
--trace 0 it prints the end-to-end figures, with --trace 1 the per-function
self times and counters of a traced pass.  Every figure is printed with its
unit and sample count; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  Each output's SHA-256 digest
is written to .perfbench/<workload>-seed<seed>-trace<trace>.json.

Each workload runs in a child process of its own (workload.py).  The set-up
time is measured separately: SETUP_SPAWNS fresh interpreters each import
ziphasse.cli_report and report, from inside, the time since the parent
started them; the figure is their median at reference speed (calibrate.py).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from corpus import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SPAWNS = 41
CHILD_TIMEOUT_S = 170

_SETUP_CODE = ("import sys, time\n"
               "import ziphasse.cli_report\n"
               "print(time.monotonic_ns() - int(sys.argv[1]))\n")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_times(spawns: int) -> list:
    """Seconds from starting a fresh interpreter to ziphasse.cli_report imported.

    Pairs (as measured, at reference speed); the calibration kernel runs in
    this process right before and right after each spawn.
    """
    env = _env()
    times = []
    for k in range(spawns + 1):
        before = calibrate.kernel_ns()
        start = time.monotonic_ns()
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(start)],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
        speed = (before + calibrate.kernel_ns()) / 2
        if proc.returncode != 0:
            raise BenchError("importing ziphasse failed:\n" + proc.stderr)
        if k:  # the first spawn also writes the bytecode cache
            wall_s = int(proc.stdout) / 1e9
            times.append((wall_s, wall_s * calibrate.NOMINAL_NS / speed))
    return times


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    digests = OUT / ("%s-seed%d-trace%d.json" % (workload, seed, trace))
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--digests", str(digests)]
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("workload %s did not finish in %d s"
                         % (workload, CHILD_TIMEOUT_S))
    if proc.returncode != 0:
        raise BenchError("workload %s failed:\n%s" % (workload, proc.stderr))
    result = json.loads(proc.stdout.splitlines()[-1])
    if trace:
        return result
    calibrate.pin_to_one_cpu()
    spawns = setup_times(SETUP_SPAWNS)
    result["metrics"] = dict(result["metrics"], **{
        "setup_s": {"value": statistics.median(t[1] for t in spawns),
                    "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    })
    result["raw"]["setup_s"] = statistics.median(t[0] for t in spawns)
    result["samples"] = {"setup_s": len(spawns), "peak_rss_mb": 1}
    return result


def report(workload: str, result: dict) -> None:
    samples = result.get("samples", {})
    for name, metric in result["metrics"].items():
        print("%-10s %-44s %14.6g %-6s n=%d"
              % (workload, name, metric["value"], metric["unit"],
                 samples.get(name, result["attempted"])))
    for name, value in result["raw"].items():
        print("%-10s %-44s %14.6g (as measured, not at reference speed)"
              % (workload, "raw_" + name, value))
    print("%-10s attempted=%d failed=%d correct=%s digest=%s"
          % (workload, result["attempted"], result["failed"],
             result["correct"], result["digest"]))
    for doc_id, code, problems in result["problems"]:
        print("%-10s failed %s exit=%s: %s"
              % (workload, doc_id, code, "; ".join(problems)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ziphasse" / "cli_report.py").is_file():
        print("perfbench: no ziphasse sources under %s" % (SRC,),
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(workload, args.seed, args.seconds,
                                             args.trace)
            report(workload, results[workload])
    except BenchError as exc:
        print("perfbench: %s" % (exc,), file=sys.stderr)
        return 1
    if args.workload == "all":
        metrics = {"%s.%s" % (w, name): m for w, r in results.items()
                   for name, m in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
