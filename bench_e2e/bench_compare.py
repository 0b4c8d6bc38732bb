#!/usr/bin/env python3
"""Compares two bench_e2e result sets against the bounds in BENCHMARK.json.

    python3 bench_e2e/bench_compare.py PARENT.jsonl CHANGE.jsonl
    python3 bench_e2e/bench_compare.py --selftest

A result set is the JSON-lines file `run_e2e.py --record FILE` appends to,
one line per (workload, seed) run. Untraced runs only; stdlib only.

One row per (end-to-end metric, workload): each side's median and
quartiles, the median change, and a verdict:

  worse      the change's median is worse than the parent's by more than
             the metric's bound
  better     better by more than the bound
  unchanged  within the bound either way
  unresolved either side's run-to-run spread (interquartile range over
             median) exceeds the bound, so the bound cannot be judged —
             unless every change run reads better than every parent run,
             which is reported as better

The claim column applies the rule a performance change must meet on the
metric and workload it claims: at least 10 pairs (the i-th parent run with
the i-th change run; run them alternating), the change wins at least 9 in
10 pairs (ties count for neither), and the medians differ by more than the
parent's interquartile range.

Exits 1 on any worse or missing row, on an incorrect change run, or when a
workload has more failed operations than at the parent; 0 otherwise.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_CLAIM_PAIRS = 10
MIN_WIN_SHARE = 0.9


def load_runs(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                run = json.loads(line)
                if not run.get("trace"):
                    runs.append(run)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def is_better(a, b, lower_is_better):
    return a < b if lower_is_better else a > b


def compare_row(parent, change, bound, lower_is_better):
    """Verdict and claim for one (metric, workload) row."""
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    scale = abs(p_med) if p_med else 1.0
    worse_by = (c_med - p_med) / scale
    if not lower_is_better:
        worse_by = -worse_by
    spread = max((p_q3 - p_q1) / scale,
                 (c_q3 - c_q1) / (abs(c_med) if c_med else 1.0))
    all_better = all(is_better(c, p, lower_is_better)
                     for c in change for p in parent)
    if spread > bound:
        verdict = "better" if all_better else "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    elif worse_by < -bound:
        verdict = "better"
    else:
        verdict = "unchanged"

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if is_better(c, p, lower_is_better))
    claim = (len(pairs) >= MIN_CLAIM_PAIRS
             and wins >= MIN_WIN_SHARE * len(pairs)
             and is_better(c_med, p_med, lower_is_better)
             and abs(c_med - p_med) > p_q3 - p_q1)
    return {"parent": (p_med, p_q1, p_q3), "change": (c_med, c_q1, c_q3),
            "worse_by": worse_by, "spread": spread, "verdict": verdict,
            "claim": claim, "pairs": len(pairs), "wins": wins}


def compare(definition, parent_runs, change_runs):
    """Rows for every (metric, workload) plus the failure-count problems."""
    workloads = [w["name"] for w in definition["workloads"]]
    rows, problems = [], []
    for workload in workloads:
        p_runs = [r for r in parent_runs if r["workload"] == workload]
        c_runs = [r for r in change_runs if r["workload"] == workload]
        if not p_runs and not c_runs:
            continue
        if any(not r["correct"] for r in c_runs):
            problems.append("%s: a change run is incorrect" % workload)
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        if c_failed > p_failed:
            problems.append("%s: %d failed operations vs %d at the parent"
                            % (workload, c_failed, p_failed))
        for metric in definition["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name]["value"] for r in p_runs
                      if name in r["metrics"]]
            change = [r["metrics"][name]["value"] for r in c_runs
                      if name in r["metrics"]]
            row = {"workload": workload, "metric": name,
                   "unit": metric["unit"], "bound": metric["bound"]}
            if not parent or not change:
                row["verdict"] = "missing"
            else:
                row.update(compare_row(parent, change, metric["bound"],
                                       metric["better"] == "lower"))
            rows.append(row)
    return rows, problems


def print_rows(rows, problems):
    header = ("workload", "metric", "parent median [q1, q3]",
              "change median [q1, q3]", "worse by", "spread", "bound",
              "verdict", "claim")
    lines = [header]
    for r in rows:
        if r["verdict"] == "missing":
            lines.append((r["workload"], r["metric"], "-", "-", "-", "-",
                          "%.3g" % r["bound"], "missing", "-"))
            continue
        fmt = "%.5g [%.5g, %.5g] " + r["unit"]
        lines.append((
            r["workload"], r["metric"], fmt % r["parent"], fmt % r["change"],
            "%+.2f%%" % (100.0 * r["worse_by"]),
            "%.2f%%" % (100.0 * r["spread"]), "%.3g" % r["bound"],
            r["verdict"],
            "%s (%d/%d wins)" % ("yes" if r["claim"] else "no", r["wins"],
                                 r["pairs"])))
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    for line in lines:
        print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)))
    for p in problems:
        print("PROBLEM: " + p)


def selftest():
    definition = {
        "workloads": [{"name": "w"}],
        "end_to_end": [
            {"name": "same", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "slower", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "faster", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "noisy", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "noisy_faster", "unit": "ms", "better": "lower",
             "bound": 0.1},
            {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1},
        ],
    }
    wobble = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]
    bimodal = [1, 2, 1, 2, 1, 2, 1, 2, 1, 2]
    values = {
        "same": (wobble, wobble[::-1]),
        "slower": (wobble, [1.3 * v for v in wobble]),
        "faster": (wobble, [0.7 * v for v in wobble]),
        "noisy": (bimodal, wobble),
        "noisy_faster": (bimodal, [0.3 * v for v in wobble]),
        "qps": (wobble, [0.8 * v for v in wobble]),
    }

    def runs(side, count):
        return [{"workload": "w", "correct": True, "failed": 0,
                 "metrics": {k: {"value": v[side][i]}
                             for k, v in values.items()}}
                for i in range(count)]

    rows, problems = compare(definition, runs(0, 10), runs(1, 10))
    got = {r["metric"]: (r["verdict"], r["claim"]) for r in rows}
    expected = {
        "same": ("unchanged", False),
        "slower": ("worse", False),
        "faster": ("better", True),
        # The parent's spread exceeds the bound; some change runs (1.02)
        # read worse than some parent runs (1), so nothing can be judged.
        "noisy": ("unresolved", False),
        # Same spread, but every change run beats every parent run.
        "noisy_faster": ("better", True),
        "qps": ("worse", False),
    }
    ok = got == expected and not problems
    # Fewer than 10 pairs never supports a claim.
    short, _ = compare(definition, runs(0, 8), runs(1, 8))
    ok = ok and not next(r for r in short if r["metric"] == "faster")["claim"]
    # A change with more failed operations is a problem.
    failing = runs(1, 10)
    failing[0]["failed"] = 1
    _, problems = compare(definition, runs(0, 10), failing)
    ok = ok and len(problems) == 1
    print("selftest %s: %s" % ("passed" if ok else "FAILED", got))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.parent or not args.change:
        parser.error("PARENT and CHANGE result sets are required")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        definition = json.load(f)
    rows, problems = compare(definition, load_runs(args.parent),
                             load_runs(args.change))
    print_rows(rows, problems)
    bad = problems or any(r["verdict"] in ("worse", "missing") for r in rows)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
