#!/usr/bin/env python3
"""A ledger of every bench check value, and the comparison of two ledgers.

    python3 tools/ledger.py record --workload W --seed S --out PATH
    python3 tools/ledger.py compare A B

``record`` builds the batch of ``bench/run.py --workload W --seed S`` at
BENCHMARK.json's ``run_seconds`` from the checkout the tool sits in (the
library from its ``src/``, BLAS threads capped at min(CPUs, 2) before numpy
loads, as ``bench/run.py`` does) and runs its items in order.  For each item
it writes each check's label, value, route and gate (``tol``, ``floor`` and
``ref_tol``), or the type and message of the exception the item raised.

``compare`` pairs the items of two ledgers by id and their checks by
position, and prints, per check label, how many values (each check's value
and route) kept every bit, and the largest absolute and relative move of
the rest; then every item that raises on one side only, raises differently
on the two sides, or is in one ledger only, and every check whose label or
gate differs.  It exits 0 only when every value kept its bits and
nothing else differs.
"""

import argparse
import importlib.util
import json
import math
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
GATE = ("tol", "floor", "ref_tol")  # bench.workloads.Check's bounds


def _bench_run():
    """bench/run.py as a module.  Importing it caps the BLAS threads, so
    this must come before anything loads numpy."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def record(workload: str, seed: int) -> dict:
    """The ledger of one batch, as ``bench/run.py`` builds and runs it."""
    run = _bench_run()
    sys.path.insert(0, str(ROOT / "src"))
    _, items = run.setup(workload, seed, SECONDS)
    entries = []
    for item in items:
        try:
            checks = item.run()
        except Exception as exc:  # recorded, as the bench counts it failed
            entries.append({"id": item.id, "raised": {"type": type(exc).__name__, "message": str(exc)}})
            continue
        entries.append({"id": item.id, "checks": [
            {"label": c.label, "value": _pair(c.value), "route": _pair(c.route),
             **{key: getattr(c, key) for key in GATE}}
            for c in checks]})
    return {"workload": workload, "seed": seed, "items": entries}


def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _bits(pair) -> bytes:
    return struct.pack("<2d", *pair)


def _gate(check) -> str:
    return ", ".join(f"{key} {check[key]}" for key in GATE)


def _move(a, b):
    """(absolute, relative) distance of the complex values a to b."""
    za, zb = complex(*a), complex(*b)
    diff = abs(zb - za)
    if math.isnan(diff):  # a NaN on either side is the largest move there is
        return math.inf, math.inf
    scale = max(abs(za), abs(zb))
    return diff, (diff / scale if scale else math.inf)


def compare(a: dict, b: dict) -> dict:
    """Per check label {"values", "kept", "max_abs", "max_rel"}, and the
    items and checks that differ in anything but their values."""
    labels, notes = {}, []
    right = {e["id"]: e for e in b["items"]}
    left_ids = {e["id"] for e in a["items"]}
    notes += [f"{i}: only in B" for i in right if i not in left_ids]
    for entry in a["items"]:
        other = right.get(entry["id"])
        if other is None:
            notes.append(f"{entry['id']}: only in A")
            continue
        if "raised" in entry or "raised" in other:
            if "raised" not in entry or "raised" not in other:
                side, exc = ("A", entry["raised"]) if "raised" in entry else ("B", other["raised"])
                notes.append(f"{entry['id']}: raises on {side} only ({exc['type']}: {exc['message']})")
            elif entry["raised"] != other["raised"]:
                notes.append(f"{entry['id']}: raises {entry['raised']} on A, {other['raised']} on B")
            continue
        if len(entry["checks"]) != len(other["checks"]):
            notes.append(f"{entry['id']}: {len(entry['checks'])} checks on A, {len(other['checks'])} on B")
        for x, y in zip(entry["checks"], other["checks"]):
            if x["label"] != y["label"] or any(x[key] != y[key] for key in GATE):
                notes.append(f"{entry['id']}: check {x['label']} ({_gate(x)}) on A is "
                             f"{y['label']} ({_gate(y)}) on B")
                continue
            stat = labels.setdefault(x["label"], {"values": 0, "kept": 0, "max_abs": 0.0, "max_rel": 0.0})
            for key in ("value", "route"):
                stat["values"] += 1
                if _bits(x[key]) == _bits(y[key]):
                    stat["kept"] += 1
                    continue
                diff, rel = _move(x[key], y[key])
                stat["max_abs"] = max(stat["max_abs"], diff)
                stat["max_rel"] = max(stat["max_rel"], rel)
    identical = not notes and all(s["kept"] == s["values"] for s in labels.values())
    return {"labels": labels, "notes": notes, "identical": identical}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run one bench batch and write its ledger")
    rec.add_argument("--workload", required=True)
    rec.add_argument("--seed", type=int, default=0)
    rec.add_argument("--out", required=True)
    cmp_ = sub.add_parser("compare", help="compare two ledgers bit for bit")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    args = ap.parse_args(argv)

    if args.command == "record":
        ledger = record(args.workload, args.seed)
        with open(args.out, "w") as fh:
            json.dump(ledger, fh, indent=1)
            fh.write("\n")
        checks = sum(len(e.get("checks", ())) for e in ledger["items"])
        raised = sum("raised" in e for e in ledger["items"])
        print(f"{len(ledger['items'])} items, {checks} checks, {raised} raised -> {args.out}")
        return 0

    ledgers = []
    for path in (args.a, args.b):
        with open(path) as fh:
            ledgers.append(json.load(fh))
    out = compare(*ledgers)
    for label, s in sorted(out["labels"].items()):
        print(f"{label}: {s['kept']}/{s['values']} kept their bits, "
              f"max abs move {s['max_abs']:.3g}, max rel move {s['max_rel']:.3g}")
    for note in out["notes"]:
        print(note)
    values = sum(s["values"] for s in out["labels"].values())
    kept = sum(s["kept"] for s in out["labels"].values())
    verdict = "identical" if out["identical"] else "DIFFERENT"
    print(f"{verdict}: {kept}/{values} values kept their bits, {len(out['notes'])} other differences")
    return 0 if out["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
