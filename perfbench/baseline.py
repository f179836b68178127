#!/usr/bin/env python3
"""Runs the benchmark on several seeds per workload and summarizes it.

Usage (from the root of the repository):

    python3 perfbench/baseline.py [--out perfbench/BASELINE.json]

For every workload in BENCHMARK.json it makes ten untraced runs, seeds 1
to 10, and reports, per end-to-end metric, the median, the quartiles (Python's
statistics.quantiles(n=4)), the sample count, and the spread: the
interquartile distance as a share of the median, next to the metric's
bound from BENCHMARK.json. It then makes one traced run (seed 1) and
records its per-layer metrics. The summary header carries host_cpus, the
seeds, the run length and the git revision; the known defects the runs
print (sweep failures, system vs bare CompiledSim rate) are kept verbatim.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = list(range(1, 11))


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    notes = [l[2:] for l in lines[:-1]
             if l.startswith("# ") and l[2:].startswith(f"{workload}:")]
    return result, notes


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "spread": (q3 - q1) / med if med else 0.0,
    }


def git_revision():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {
        "host_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "git_revision": git_revision(),
        "run_seconds": bench["run_seconds"],
        "seeds": SEEDS,
        "runs": len(SEEDS),
        "workloads": {},
    }
    steady = True
    for w in [w["name"] for w in bench["workloads"]]:
        per_metric, attempted, failed, notes = {}, 0, 0, []
        for seed in SEEDS:
            result, n = run_once(w, seed, bench["run_seconds"], 0)
            notes = notes or n
            attempted += result["attempted"]
            failed += result["failed"]
            if not result["correct"]:
                steady = False
                print(f"{w} seed {seed}: correct=false", file=sys.stderr)
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
        rows = {}
        for name, values in per_metric.items():
            s = summarize(values)
            s["bound"] = bounds.get(name)
            rows[name] = s
            flag = ""
            if name != "setup_s" and s["bound"] is not None and s["spread"] > s["bound"] / 3:
                flag = "  <-- spread above a third of the bound"
                steady = False
            print(f"{w:<9} {name:<18} median {s['median']:<14.6g} "
                  f"spread {s['spread']:.4f} bound {s['bound']}{flag}  "
                  f"[{' '.join(f'{v:.4g}' for v in values)}]")
        traced, _ = run_once(w, SEEDS[0], bench["run_seconds"], 1)
        summary["workloads"][w] = {
            "attempted": attempted,
            "failed": failed,
            "known_defects_as_measured": notes,
            "end_to_end": rows,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
