"""rsmoments benchmark: one seeded workload, cross-checked, one JSON result.

    python3 bench/run.py --workload first-moment-oracle --seed 3 --seconds 40 --trace 0

Run from the repository root.  The library is imported from ``src/``; no
install step is needed.  Every item is checked against its independent
route (and, on seed 0, against ``bench/reference/<workload>.json``); the last stdout
line is ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from wrapped library calls.  The line before it carries the
environment, fail fraction, median and tail item times and failing items;
the traced run also writes its spans to ``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys

NPROC = min(os.cpu_count() or 1, 2)
# BLAS reads these once, when numpy loads: set them before anything imports it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 0
# set-ups per run: one before the batch, then one each time another sixth of
# --seconds of batch time has passed, so that together they sample the
# host's speed over the whole run
SETUPS = 6
LIB_MODULES = ("specfun", "arith", "eisenstein", "lseries", "kernels", "moments", "shifted")

sys.path.insert(0, HERE)
import spans  # noqa: E402
import workloads  # noqa: E402


def _library_modules():
    return [m for m in sys.modules if m == "rsmoments" or m.startswith("rsmoments.")]


def fresh_library():
    """Import rsmoments from scratch: module bodies re-run, every cache empty."""
    for name in _library_modules():
        del sys.modules[name]
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"rsmoments.{m}") for m in LIB_MODULES}
    )


def setup(workload, seed, seconds, tracer=None):
    """Import, newform construction and input generation, as a CLI run pays them.

    With a tracer, the library calls of the build are traced as item "setup".
    """
    t0 = time.perf_counter()
    lib = fresh_library()
    if tracer is None:
        items = workloads.build(lib, workload, seed, seconds)
    else:
        tracer.install()
        items = tracer.run_item("setup", lambda: workloads.build(lib, workload, seed, seconds))
    return time.perf_counter() - t0, items


def judge(item, checks, reference):
    """Misses of one item: route checks, then the committed reference (if any)."""
    misses = []
    for chk in checks:
        rel = chk.miss()
        if rel is not None:
            misses.append(f"{chk.label}: route rel {rel:.3g} > {chk.tol:g}")
        if reference is not None:
            ref = reference.get(item.id, {}).get(chk.label)
            if ref is not None:
                tol = chk.tol if chk.ref_tol is None else chk.ref_tol
                rel = workloads.Check(chk.label, chk.value, complex(*ref), tol, chk.floor).miss()
                if rel is not None:
                    misses.append(f"{chk.label}: reference rel {rel:.3g} > {tol:g}")
    return misses


def run_batch(items, reference, tracer=None, pause=None):
    """Run every item; returns (wall seconds, per-item seconds, failures, values).

    ``pause(elapsed)`` runs after each item, outside the wall time.
    """
    times, failures, values = [], [], {}
    paused = 0.0
    t_start = time.perf_counter()
    for item in items:
        t0 = time.perf_counter()
        try:
            checks = tracer.run_item(item.id, item.run) if tracer else item.run()
            misses = judge(item, checks, reference)
            values[item.id] = {c.label: [complex(c.value).real, complex(c.value).imag] for c in checks}
        except Exception as exc:  # an item that raises is a failed item
            misses = [f"raised {type(exc).__name__}: {exc}"]
            traceback.print_exc(file=sys.stderr)
        times.append(time.perf_counter() - t0)
        print(f"{item.id} {item.kind} {times[-1]:.3f}s {'FAIL ' + '; '.join(misses) if misses else 'ok'}",
              file=sys.stderr, flush=True)
        if misses:
            failures.append({"id": item.id, "kind": item.kind, "params": item.params, "misses": misses})
        if pause is not None:
            p0 = time.perf_counter()
            pause(p0 - t_start - paused)
            paused += time.perf_counter() - p0
    return time.perf_counter() - t_start - paused, times, failures, values


def tail(times):
    """The highest percentile with at least ten items beyond it, or None."""
    n = len(times)
    if n < 11:
        return None
    q = math.floor(100.0 * (n - 10) / n)  # at least 10 of n items lie above
    ordered = sorted(times)
    return {"percentile": q, "value_s": ordered[math.ceil(q / 100.0 * n) - 1], "items": n}


def git_commit():
    """HEAD of the checkout, or None when the checkout is no git work tree.

    The ceiling stops git from looking for a repository above the checkout.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed):
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "threads": NPROC,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "commit": git_commit(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's values as the seed-0 reference")
    args = ap.parse_args(argv)
    if args.write_reference and args.seed != DEFAULT_SEED:
        ap.error(f"--write-reference stores the reference of seed {DEFAULT_SEED} only")

    if not os.path.isfile(os.path.join(SRC, "rsmoments", "__init__.py")):
        print(f"error: no library source at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401  (interpreter start-up, outside the set-up timing)
    import scipy.special  # noqa: F401

    # the traced run traces the set-up whose items it runs, so delta_newform
    # and the other library calls of the build are measured too
    tracer = spans.Tracer() if args.trace else None
    dt, items = setup(args.workload, args.seed, args.seconds, tracer)
    setups = [dt]

    def extra_setup(elapsed=math.inf):
        """One more set-up, timed alone, once every SETUPS-th of the batch.

        The batch's own library modules go back in place afterwards, so its
        caches and the tracer's patches are untouched.
        """
        if len(setups) >= SETUPS or elapsed < len(setups) * args.seconds / SETUPS:
            return
        batch_lib = {m: sys.modules[m] for m in _library_modules()}
        setups.append(setup(args.workload, args.seed, args.seconds)[0])
        for m in _library_modules():
            del sys.modules[m]
        sys.modules.update(batch_lib)

    ref_path = os.path.join(HERE, "reference", f"{args.workload}.json")
    reference = None
    if args.seed == DEFAULT_SEED and not args.write_reference and os.path.exists(ref_path):
        with open(ref_path) as fh:
            reference = json.load(fh)

    try:
        wall, times, failures, values = run_batch(items, reference, tracer, extra_setup)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.write_reference:
        if failures:
            print(f"error: {len(failures)} items failed; reference not written", file=sys.stderr)
        else:
            with open(ref_path, "w") as fh:
                json.dump(values, fh, indent=1, sort_keys=True)
                fh.write("\n")

    attempted, failed = len(items), len(failures)
    while len(setups) < SETUPS:  # those the batch ended before
        extra_setup()

    info = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "fail_frac": failed / attempted,
        "item_p50_s": statistics.median(times),
        "item_tail_s": tail(times),
        "setup_runs_s": setups,
        "reference_checked": reference is not None,
        "failures": failures,
    }
    if tracer:
        metrics = {name: {"value": v, "unit": spans.unit(name)}
                   for name, v in tracer.metrics(tracer.setup_s() + wall).items()}
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"info": info, "metrics": metrics, **tracer.dump()}, fh)
        info["trace_file"] = os.path.relpath(path, ROOT)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
