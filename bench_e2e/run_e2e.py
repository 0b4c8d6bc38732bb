#!/usr/bin/env python3
"""Builds and runs bench_e2e, the repository benchmark (stdlib only).

    python3 bench_e2e/run_e2e.py --seed 1              # all workloads
    python3 bench_e2e/run_e2e.py --workload serve_lof --seed 3 --seconds 10
    python3 bench_e2e/run_e2e.py --trace               # per-layer metrics
    python3 bench_e2e/run_e2e.py --smoke               # tiny sizes, seconds

Run from the repository root. The library and benchmark binary are built from
source into .bench_build/ (CMake, Release) on first use; --binary PATH runs an
already built bench_e2e instead. Each workload runs in its own process; every
output is checked and the run exits nonzero if a check fails. Output lines are
`workload metric value unit n=samples`; the last line is one JSON object
{correct, attempted, failed, metrics}. With --trace the metrics are the
per-layer ones from BENCHMARK.json, including each layer's self time per op
computed from the trace. Inputs, results, traces and counters land in
e2e_out/<workload>/ next to the binary.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("pipeline_wide", "pipeline_tall", "serve_lof", "stream_grid")
# A pipeline op is nothing but its three layer calls, so their spans must
# account for (almost) all of it.
MIN_PIPELINE_COVERAGE = 0.95
RUN_TIMEOUT_S = 170


def fail(message):
    print("run_e2e: " + message, file=sys.stderr)
    sys.exit(2)


def load_definition():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at the repository root")
    with open(path) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found; run from a full checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "bench_e2e"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "bench_e2e"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path)
    return os.path.join(BUILD_DIR, "bench", "bench_e2e")


def span_union(intervals, lo, hi):
    """Length of the union of `intervals` clipped to [lo, hi]."""
    covered, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def analyze_trace(path):
    """Per-layer self time (ms per timed op) and per-op child coverage."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = {}
    children = {}
    for e in events:
        args = e["args"]
        if args["op"] == 0:
            continue  # probe spans are not part of a timed op
        spans[args["id"]] = (e["name"], e["ts"], e["ts"] + e["dur"])
        children.setdefault(args["parent"], []).append(args["id"])
    self_ms = {}  # per layer; "op" is the benchmark's glue between calls
    coverage = []
    for span_id, (name, start, end) in spans.items():
        kids = [spans[k][1:] for k in children.get(span_id, [])]
        covered = span_union(kids, start, end)
        layer = name.split(".")[0]
        self_ms[layer] = self_ms.get(layer, 0.0) + (end - start - covered) / 1e3
        if name == "op" and end > start:
            coverage.append(covered / (end - start))
    ops = max(len(coverage), 1)
    return {k: v / ops for k, v in self_ms.items()}, coverage


def run_workload(binary, definition, workload, args):
    out_dir = os.path.join(os.path.dirname(binary), "e2e_out", workload)
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(out_dir, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    if args.smoke:
        cmd.append("--smoke")
    started = time.monotonic()
    try:
        code = subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        code = "timeout"
    process_s = time.monotonic() - started
    # Exit code 1 is a failed check or operation; result.json says which.
    if code not in (0, 1) or not os.path.isfile(result_path):
        print("run_e2e: %s exited with %s" % (workload, code), file=sys.stderr)
        return {"workload": workload, "correct": False, "attempted": 1,
                "failed": 1, "metrics": {}, "samples": {}}
    with open(result_path) as f:
        result = json.load(f)

    failed_checks = [c["name"] for c in result["checks"] if not c["ok"]]
    metrics, samples = {}, {}
    if args.trace:
        defs = definition["per_layer"]
        # A layer the workload never calls emits nothing and reads 0; a
        # counter BENCHMARK.json does not name is a benchmark bug.
        values = {d["name"]: 0.0 for d in defs}
        for name, value in result["counters"].items():
            if name not in values:
                failed_checks.append("undeclared counter " + name)
            values[name] = value
        self_ms, coverage = analyze_trace(
            os.path.join(out_dir, "trace_%s.json" % workload))
        for layer, ms in self_ms.items():
            values[layer + ".self_ms"] = ms
        if workload.startswith("pipeline_"):
            low = min(coverage) if coverage else 0.0
            if low < MIN_PIPELINE_COVERAGE:
                failed_checks.append("trace.pipeline_child_coverage")
            print("%s trace.min_child_coverage %.4f ratio n=%d"
                  % (workload, low, len(coverage)))
    else:
        defs = definition["end_to_end"]
        values = {k: v["value"] for k, v in result["e2e"].items()}
        samples = {k: v["samples"] for k, v in result["e2e"].items()}
    for d in defs:
        name = d["name"]
        if name not in values:
            failed_checks.append("missing metric " + name)
            continue
        metrics[name] = {"value": values[name], "unit": d["unit"]}
    correct = not failed_checks
    for name in failed_checks:
        print("%s CHECK_FAILED %s" % (workload, name))
    return {"workload": workload, "seed": args.seed, "trace": args.trace,
            "scale": "smoke" if args.smoke else "full",
            "seconds": args.seconds, "correct": correct,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics, "samples": samples,
            "result_digest": result["result_digest"],
            "process_s": round(process_s, 3),
            "machine": result["machine"], "host": result["host"]}


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    definition = load_definition()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload (default: "
                             "run_seconds of BENCHMARK.json; 0.5 with "
                             "--smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: a fast compile-and-check run")
    parser.add_argument("--record", metavar="FILE",
                        help="append one JSON line per workload run to FILE "
                             "(a result set for bench_compare.py)")
    parser.add_argument("--binary", metavar="PATH",
                        help="an already built bench_e2e (skips the build)")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 0.5 if args.smoke else float(definition["run_seconds"])

    binary = os.path.abspath(args.binary) if args.binary else build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = [run_workload(binary, definition, w, args) for w in workloads]

    for run in runs:
        for name, m in run["metrics"].items():
            n = run["samples"].get(name)
            print("%s %s %.6g %s%s" % (run["workload"], name, m["value"],
                                       m["unit"], "" if n is None else
                                       " n=%d" % n))
        print("%s result_digest %s" % (run["workload"],
                                       run.get("result_digest", "-")))
        if "process_s" in run:
            print("%s process_s %.3f s" % (run["workload"], run["process_s"]))
    if args.record:
        with open(args.record, "a") as f:
            for run in runs:
                f.write(json.dumps(run, sort_keys=True) + "\n")

    summary = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
    }
    if len(runs) == 1:
        summary["metrics"] = runs[0]["metrics"]
    else:
        summary["metrics"] = {"%s/%s" % (r["workload"], k): v
                              for r in runs for k, v in r["metrics"].items()}
    print(json.dumps(summary))
    return 0 if summary["correct"] and summary["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
