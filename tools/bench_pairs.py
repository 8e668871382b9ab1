#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, and their summary.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seed S --pairs N \\
        [--out BENCH_label.json]

PARENT and CHANGE are two checkouts.  Each pair runs

    python3 bench/run.py --workload W --seed S --seconds RUN_SECONDS --trace 0

at BENCHMARK.json's ``run_seconds``, once in each, the parent first in even
pairs and the change first in odd ones, with PYTHONDONTWRITEBYTECODE=1, so
that every run compiles the package as a fresh checkout does.  For each
end-to-end metric of BENCHMARK.json the summary gives each side's median and
quartiles, the pairs the change won (ties count for neither side), the
change's median against the parent's in percent, and whether the two medians
differ by more than the parent's interquartile range; every run follows.
The summary is printed, or with --out stored as
``workloads["W_seedS"]`` of that JSON file, which is created if need be.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

_BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
SECONDS = _BENCHMARK["run_seconds"]
METRICS = tuple(m["name"] for m in _BENCHMARK["end_to_end"])  # all lower-is-better


def run_once(checkout, workload, seed):
    """One benchmark run in ``checkout``: its info line merged with its metrics."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, check=True)
    info, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    run = {m: round(result["metrics"][m]["value"], 4) for m in METRICS}
    run.update(setup_runs_s=[round(x, 4) for x in info["setup_runs_s"]],
               correct=result["correct"], failed=result["failed"], fail_frac=info["fail_frac"],
               reference_checked=info["reference_checked"])
    return run


def _quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarise(runs):
    """The summary of ``runs``, dicts with "pair", "side" ("parent" or
    "change") and each metric, for complete pairs only."""
    sides = {}
    for run in runs:
        sides.setdefault(run["pair"], {})[run["side"]] = run
    pairs = [p for _, p in sorted(sides.items()) if len(p) == 2]
    out = {"pairs": len(pairs), "all_correct": all(r["correct"] for r in runs),
           "fail_frac": max(r["fail_frac"] for r in runs)}
    for m in METRICS:
        parent = [p["parent"][m] for p in pairs]
        change = [p["change"][m] for p in pairs]
        qp, qc = _quartiles(parent), _quartiles(change)
        out[m] = {
            "parent": {k: round(v, 4) for k, v in qp.items()},
            "change": {k: round(v, 4) for k, v in qc.items()},
            "change_wins": sum(c < p for p, c in zip(parent, change)),
            "median_change_pct": round(100.0 * (qc["median"] / qp["median"] - 1.0), 1),
            "median_gap_exceeds_parent_iqr": abs(qc["median"] - qp["median"]) > qp["q3"] - qp["q1"],
        }
    out["runs"] = runs
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    runs = []
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(getattr(args, side), args.workload, args.seed)
            runs.append({"seed": args.seed, "pair": pair, "side": side, "first": order[0], **run})
            print(json.dumps(runs[-1]), file=sys.stderr, flush=True)
    summary = {"command": f"python3 bench/run.py --workload {args.workload} --seed {args.seed} "
                          f"--seconds {SECONDS} --trace 0",
               **summarise(runs)}
    if args.out is None:
        print(json.dumps(summary, indent=1))
        return 0
    doc = {"workloads": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc.setdefault("workloads", {})[f"{args.workload}_seed{args.seed}"] = summary
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
