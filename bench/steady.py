"""Steadiness evidence: run every workload of BENCHMARK.json over seeds
1-10, in two sets, and hold every end-to-end metric to its bound.

    python3 bench/steady.py --traced-seeds 1 --out bench/steadiness.json

For each set, workload and metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median.
A metric passes when every spread is within its bound and the second
set's median is worse than the first by at most the bound; it meets the
target when every spread is also under a third of the bound.  The exit
code is 0 when every metric passes.  ``--traced-seeds`` adds traced runs
and reports the tracing overhead as traced wall_s minus untraced wall_s on
the same seed.  Runs are sequential: each one owns both CPUs while it
measures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
SETS = 2


def run_once(spec, workload, seed, seconds, trace):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])
    return result, info


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--traced-seeds", type=int, nargs="*", default=[])
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    if not set(args.traced_seeds) <= set(SEEDS):
        ap.error(f"traced seeds must be among the untraced ones, {SEEDS.start}-{SEEDS.stop - 1}")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    report = {"run_seconds": seconds, "seeds": list(SEEDS), "sets": [], "failures": [],
              "verdict": {}}
    walls = {}
    for set_no in range(SETS):
        per_wl = {}
        for wl in names:
            vals = {m: [] for m in bounds}
            for seed in SEEDS:
                result, info = run_once(spec, wl, seed, seconds, 0)
                for m in bounds:
                    vals[m].append(result["metrics"][m]["value"])
                walls[(wl, seed)] = result["metrics"]["wall_s"]["value"]
                if result["failed"]:
                    report["failures"].append({"set": set_no, "workload": wl, "seed": seed,
                                               "failures": info["failures"]})
                print(f"set {set_no} {wl} seed {seed}: "
                      + ", ".join(f"{m}={v[-1]:.4g}" for m, v in vals.items())
                      + f" attempted={result['attempted']} failed={result['failed']}",
                      file=sys.stderr, flush=True)
            per_wl[wl] = {m: summarize(v) for m, v in vals.items()}
        report["sets"].append(per_wl)

    ok = not report["failures"]
    for wl in names:
        for m, bound in bounds.items():
            first = report["sets"][0][wl][m]
            spreads = [s[wl][m]["spread"] for s in report["sets"]]
            drift = max(s[wl][m]["median"] / first["median"] - 1.0 for s in report["sets"])
            passes = all(sp <= bound for sp in spreads) and drift <= bound
            target = all(sp < bound / 3.0 for sp in spreads)
            ok &= passes
            report["verdict"][f"{wl}/{m}"] = {
                "bound": bound, "spreads": spreads, "worst_drift": drift,
                "passes": passes, "under_third_of_bound": target,
            }
            print(f"{wl:21s} {m:12s} bound {bound:.2f} spreads "
                  + " ".join(f"{sp:.4f}" for sp in spreads)
                  + f" drift {drift:+.4f} {'pass' if passes else 'FAIL'}"
                  + ("" if target else " (spread above a third of the bound)"))

    if args.traced_seeds:
        report["tracing_overhead_s"] = {}
        for wl in names:
            for seed in args.traced_seeds:
                result, info = run_once(spec, wl, seed, seconds, 1)
                traced = result["metrics"]["trace.wall_s"]["value"]
                untraced = walls[(wl, seed)]
                report["tracing_overhead_s"][f"{wl}/{seed}"] = {
                    "traced_wall_s": traced, "untraced_wall_s": untraced,
                    "overhead_s": traced - untraced, "trace_file": info["trace_file"],
                }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
