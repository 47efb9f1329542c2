#!/usr/bin/env python3
"""Steadiness and compare tools for the perfbench benchmark (stdlib only).

Run from the repository root.

  python3 cmd/perfbench/stats.py steady [--runs 10] [--out runs.jsonl]

runs every workload of BENCHMARK.json --runs times, untraced, for its
run_seconds, with seeds 1 to --runs, one run at a time, appends every
result to --out, and prints for every metric the
median, the quartiles, the quartile spread as a share of the median
(the figure each end-to-end bound in BENCHMARK.json must cover), and the
min-max spread.

  python3 cmd/perfbench/stats.py summary runs.jsonl

prints the same table for runs already recorded.

  python3 cmd/perfbench/stats.py compare before.jsonl after.jsonl

prints, per workload and end-to-end metric, each side's median and
quartiles, the share of pairs the after side won (pairs matched by seed,
ties count for neither), and flags only differences outside the metric's
bound: REGRESSION when the after median is worse by more than the bound,
GAIN when it is better by more than the before side's quartile spread
and the after side won at least nine tenths of the pairs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


def load_bench():
    with open(BENCH) as f:
        return json.load(f)


def quartiles(values):
    """Median and quartiles the way statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def read_runs(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                runs.append(json.loads(line))
    return runs


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("%s seed %d exited %d" % (workload, seed, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")), {})
    return {"workload": workload, "seed": seed,
            "host": host, "result": json.loads(lines[-1])}


def group(runs):
    by = {}
    for r in runs:
        by.setdefault(r["workload"], []).append(r)
    return by


def summary(runs, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload, rs in sorted(group(runs).items()):
        res = [r["result"] for r in rs]
        shares = sorted({r["failed"] / r["attempted"] for r in res})
        steal = [r["host"].get("steal_pct", 0) for r in rs]
        print("%s: %d runs, correct %s, failed share %s, steal %% %.1f-%.1f" % (
            workload, len(rs), all(r["correct"] for r in res),
            ", ".join("%.6g" % s for s in shares), min(steal), max(steal)))
        print("  %-32s %12s %12s %12s %8s %8s %8s" % (
            "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound"))
        names = sorted(res[0]["metrics"])
        for name in names:
            vals = [r["metrics"][name]["value"] for r in res]
            q1, med, q3 = quartiles(vals)
            iqr = (q3 - q1) / med if med else float("nan")
            rng = (max(vals) - min(vals)) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "  OVER" if iqr > bound else ("  over 1/3" if iqr > bound / 3 else "")
            print("  %-32s %12.6g %12.6g %12.6g %8.3f %8.3f %8s%s" % (
                name, med, q1, q3, iqr, rng, "" if bound is None else bound, flag))


def compare(before, after, bench):
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    a_by, b_by = group(before), group(after)
    for workload in sorted(set(a_by) & set(b_by)):
        a = {r["seed"]: r["result"] for r in a_by[workload]}
        b = {r["seed"]: r["result"] for r in b_by[workload]}
        seeds = sorted(set(a) & set(b))
        print("%s: %d before, %d after, %d pairs" % (workload, len(a), len(b), len(seeds)))
        print("  %-16s %24s %24s %7s  %s" % ("metric", "before q1/med/q3", "after q1/med/q3", "won", "verdict"))
        for name, m in metrics.items():
            av = [r["metrics"][name]["value"] for r in a.values() if name in r["metrics"]]
            bv = [r["metrics"][name]["value"] for r in b.values() if name in r["metrics"]]
            if not av or not bv:
                continue
            aq1, amed, aq3 = quartiles(av)
            bq1, bmed, bq3 = quartiles(bv)
            lower = m["better"] == "lower"
            wins = 0
            for s in seeds:
                x, y = a[s]["metrics"][name]["value"], b[s]["metrics"][name]["value"]
                if (y < x) if lower else (y > x):
                    wins += 1
            won = wins / len(seeds) if seeds else float("nan")
            worse = (bmed - amed) / amed if lower else (amed - bmed) / amed
            verdict = ""
            if worse > m["bound"]:
                verdict = "REGRESSION (%.1f%% worse, bound %.0f%%)" % (100 * worse, 100 * m["bound"])
            elif -worse > (aq3 - aq1) / amed and won >= 0.9:
                verdict = "GAIN (%.1f%% better)" % (-100 * worse)
            print("  %-16s %24s %24s %6.0f%%  %s" % (
                name, "%.4g/%.4g/%.4g" % (aq1, amed, aq3), "%.4g/%.4g/%.4g" % (bq1, bmed, bq3),
                100 * won, verdict))


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    st = sub.add_parser("steady")
    st.add_argument("--runs", type=int, default=10)
    st.add_argument("--out", default="")
    sm = sub.add_parser("summary")
    sm.add_argument("runs")
    cp = sub.add_parser("compare")
    cp.add_argument("before")
    cp.add_argument("after")
    args = p.parse_args()
    bench = load_bench()

    if args.cmd == "summary":
        summary(read_runs(args.runs), bench)
    elif args.cmd == "compare":
        compare(read_runs(args.before), read_runs(args.after), bench)
    else:
        runs = []
        for w in (w["name"] for w in bench["workloads"]):
            for seed in range(1, args.runs + 1):
                r = run_once(bench, w, seed)
                runs.append(r)
                if args.out:
                    with open(args.out, "a") as f:
                        f.write(json.dumps(r) + "\n")
                print("%s seed %d: correct %s" % (w, r["seed"], r["result"]["correct"]), file=sys.stderr)
        summary(runs, bench)


if __name__ == "__main__":
    main()
