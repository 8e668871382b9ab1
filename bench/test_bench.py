"""Self-test of the benchmark's correctness gate.

    python3 -m pytest bench/test_bench.py -q

A perturbed value, a raising item, a value that drifted from the
committed reference and an integrate_line error that both sides of a
conjugation check share must each count as a failed item.  The traced
run's metric names must be the ones BENCHMARK.json lists.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Check, Item  # noqa: E402


def _item(checks):
    return Item("x-0", "stub", {}, lambda: checks)


def test_route_miss_fails_the_item():
    ok = Check("v", 1.0 + 1e-10, 1.0, 1e-9)
    bad = Check("v", 1.0 + 1e-8, 1.0, 1e-9)
    assert run.judge(_item([ok]), [ok], None) == []
    assert run.judge(_item([bad]), [bad], None)


def test_vanishing_route_is_absolute():
    assert Check("tau", 5e-6, 0.0, 1.0, floor=1e-5).miss() is None
    assert Check("tau", 2e-5, 0.0, 1.0, floor=1e-5).miss() is not None


def test_non_finite_value_fails():
    assert Check("v", complex("nan"), 1.0, 1e-9).miss() is not None


def test_reference_drift_fails_the_item():
    chk = Check("v", 2.0, 2.0, 1e-9)
    ref = {"x-0": {"v": [2.0 * (1 + 1e-6), 0.0]}}
    misses = run.judge(_item([chk]), [chk], ref)
    assert misses and "reference" in misses[0]


def test_raising_item_counts_as_failed():
    def boom():
        raise ZeroDivisionError("deliberate")

    items = [Item("x-0", "stub", {}, boom), _item([Check("v", 1.0, 1.0, 1e-9)])]
    wall, times, failures, _ = run.run_batch(items, None)
    assert len(times) == 2 and wall > 0
    assert [f["id"] for f in failures] == ["x-0"]


def test_perturbed_library_value_counts_as_failed():
    lib = run.fresh_library()
    items = workloads.build(lib, "continuous-main-term", seed=0, seconds=2.0)
    item = next(i for i in items if i.kind == "generic-composite")
    _, _, failures, _ = run.run_batch([item], None)
    assert failures == []

    clean = item.run

    def perturbed():
        checks = clean()
        for c in checks:
            c.value *= 1.0 + 100.0 * c.tol
        return checks

    item.run = perturbed
    _, _, failures, _ = run.run_batch([item], None)
    assert len(failures) == 1 and "route" in failures[0]["misses"][0]


def test_shared_integrate_line_error_counts_as_failed():
    # an error both sides of the t -> -t conjugation share leaves those
    # checks blind; the closed-form bump integral must still catch it
    lib = run.fresh_library()
    items = workloads.build(lib, "first-moment-oracle", seed=1, seconds=2.0)
    item = next(i for i in items if i.kind == "first-moment")
    clean = lib.specfun.integrate_line

    def skewed(*args, **kwargs):
        v = clean(*args, **kwargs)
        return type(v)(v.value * (1.0 + 1e-6), v.error)

    lib.specfun.integrate_line = skewed
    _, _, failures, _ = run.run_batch([item], None)
    assert len(failures) == 1
    assert [m.split(":")[0] for m in failures[0]["misses"]] == ["bumps"]


def test_reference_is_written_for_the_default_seed_only():
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "first-moment-oracle", "--seed", "3", "--write-reference"])
    assert exc.value.code == 2


def test_tail_percentile_leaves_ten_items_above():
    assert run.tail([1.0] * 10) is None
    for n in (11, 20, 57, 300):
        times = [float(i) for i in range(n)]
        t = run.tail(times)
        assert sum(x > t["value_s"] for x in times) >= 10
        assert t["items"] == n


def test_per_layer_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = spans.metric_names()
    assert [m["name"] for m in spec["per_layer"]] == names
    assert [m["unit"] for m in spec["per_layer"]] == [spans.unit(n) for n in names]
    assert list(spans.Tracer().metrics(1.0)) == names
