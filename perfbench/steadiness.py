#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steadiness.py --set A
    python3 perfbench/steadiness.py --set B

Runs every workload ten times (workloads interleaved, so each workload's
runs are spread over the whole recording), each run with its own seed (set A
seeds 1-10, set B seeds 11-20), and records per workload and metric the ten
values, their median and quartiles (statistics.quantiles(values, n=4)) and
the spread: (q3 - q1) / median. Each set is stored under its own name in
the record (default perfbench/steadiness.json); once both sets exist the
record also holds, per metric, how far set B's median moved from set A's,
as a share of set A's, next to the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
FIRST_SEED = {"A": 1, "B": 1 + RUNS}


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    return json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--set", choices=sorted(FIRST_SEED), default="A")
    parser.add_argument("--out", default=os.path.join(HERE, "steadiness.json"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    first_seed = FIRST_SEED[args.set]

    values = {w: {} for w in workloads}
    started = time.time()
    for i in range(RUNS):
        seed = first_seed + i
        for w in workloads:
            result = run_once(w, seed, bench["run_seconds"])
            if not result["correct"]:
                raise SystemExit("incorrect result: %s seed %d" % (w, seed))
            for name, metric in result["metrics"].items():
                values[w].setdefault(name, []).append(metric["value"])
            print("set %s run %d/%d %s done (%.0f s)" %
                  (args.set, i + 1, RUNS, w, time.time() - started),
                  file=sys.stderr)

    record = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            record = json.load(f)
    record["run_seconds"] = bench["run_seconds"]
    record["bounds"] = bounds
    record.setdefault("sets", {})[args.set] = {
        "seeds": [first_seed, first_seed + RUNS - 1],
        "workloads": {w: {name: summarize(v) for name, v in m.items()}
                      for w, m in values.items()},
    }
    if len(record["sets"]) == 2:
        first = record["sets"]["A"]["workloads"]
        second = record["sets"]["B"]["workloads"]
        shifts = {}
        for w in first:
            for name, stats in first[w].items():
                if w in second and name in second[w] and stats["median"]:
                    shifts.setdefault(w, {})[name] = (
                        (second[w][name]["median"] - stats["median"]) /
                        stats["median"])
        record["median_shift"] = {"sets": ["A", "B"], "shift": shifts}
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")

    for w in workloads:
        for name, stats in record["sets"][args.set]["workloads"][w].items():
            flag = "" if stats["spread"] < bounds.get(name, 1) / 3 else "  <-- wide"
            print("%-15s %-18s median %-14.6g spread %.4f (bound %s)%s" %
                  (w, name, stats["median"], stats["spread"],
                   bounds.get(name), flag))


if __name__ == "__main__":
    main()
