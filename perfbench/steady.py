#!/usr/bin/env python3
"""Steadiness check for the benchmark: how much do its end-to-end metrics
move between runs of the same code, and do two sets of runs agree?

    python3 perfbench/steady.py run --runs 10 --out a.json [--workloads replay,chaos]
    python3 perfbench/steady.py run --runs 10 --seed0 101 --out b.json
    python3 perfbench/steady.py compare a.json b.json

`run` runs each workload N times, each with its own seed, and prints each
metric's median and its interquartile spread (Q3 - Q1 over the median,
quartiles as statistics.quantiles(values, n=4) gives them) next to the
metric's bound in BENCHMARK.json. `compare` checks two such sets: every
second median within the bound of the first in the metric's worse
direction, and the same share of failed operations. These are the rules
the bounds in BENCHMARK.json were set by. Both exit non-zero on a miss.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_set(a):
    s = spec()
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in s["workloads"]]
    seconds = a.seconds or s["run_seconds"]
    runs = {}
    for w in workloads:
        runs[w] = []
        for k in range(a.runs):
            seed = a.seed0 + k
            p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                               cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            lines = p.stdout.decode().strip().splitlines()
            try:
                res = json.loads(lines[-1])
            except (IndexError, ValueError):
                res = None
            if p.returncode != 0 or not res or not res.get("correct"):
                print("%s seed %d: run failed (exit %d)" % (w, seed, p.returncode))
                print("\n".join(lines[-20:]))
                sys.exit(1)
            runs[w].append(dict(res, seed=seed))
            print("%-8s seed %-4d %s" % (w, seed, " ".join(
                "%s=%.6g" % (m, v["value"]) for m, v in res["metrics"].items())), flush=True)
    if a.out:
        with open(a.out, "w") as f:
            json.dump(runs, f, indent=1)
    return report(s, runs)


def report(s, runs):
    ok = True
    print("\n%-8s %-18s %12s %9s %7s  %s" % ("workload", "metric", "median", "spread", "bound", ""))
    for w, rs in runs.items():
        for m in s["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in rs]
            sp = spread(vals)
            if m["name"] == "setup_s":
                verdict = "(set-up: spread not gated)"
            elif sp <= m["bound"] / 3:
                verdict = "steady"
            elif sp <= m["bound"]:
                verdict = "within bound, above a third of it"
            else:
                verdict = "TOO WIDE"
                ok = False
            print("%-8s %-18s %12.6g %8.1f%% %6.0f%%  %s" % (
                w, m["name"], statistics.median(vals), 100 * sp, 100 * m["bound"], verdict))
        att = sum(r["attempted"] for r in rs)
        fail = sum(r["failed"] for r in rs)
        print("%-8s failed %d of %d operations" % (w, fail, att))
    return 0 if ok else 1


def compare(a):
    s = spec()
    with open(a.first) as f:
        first = json.load(f)
    with open(a.second) as f:
        second = json.load(f)
    ok = True
    print("%-8s %-18s %12s %12s %9s %7s" % ("workload", "metric", "median 1", "median 2",
                                           "worse by", "bound"))
    for w in first:
        if w not in second:
            continue
        for m in s["end_to_end"]:
            m1 = statistics.median(r["metrics"][m["name"]]["value"] for r in first[w])
            m2 = statistics.median(r["metrics"][m["name"]]["value"] for r in second[w])
            worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
            bad = worse > m["bound"]
            ok = ok and not bad
            print("%-8s %-18s %12.6g %12.6g %8.1f%% %6.0f%% %s" % (
                w, m["name"], m1, m2, 100 * worse, 100 * m["bound"], "WORSE" if bad else ""))
        share = [sum(r["failed"] for r in x[w]) / sum(r["attempted"] for r in x[w])
                 for x in (first, second)]
        if share[0] != share[1]:
            ok = False
            print("%-8s failed share differs: %r vs %r" % (w, share[0], share[1]))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run each workload N times and report spreads")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--workloads", help="comma-separated (default: all)")
    r.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    r.add_argument("--seed0", type=int, default=1, help="first seed; run k uses seed0 + k")
    r.add_argument("--out", help="write the runs as JSON, for compare")
    c = sub.add_parser("compare", help="compare two sets written by run --out")
    c.add_argument("first")
    c.add_argument("second")
    a = ap.parse_args()
    sys.exit(run_set(a) if a.cmd == "run" else compare(a))


if __name__ == "__main__":
    main()
