"""tools/bench_pairs.py's summary on hand-made runs; no benchmark is run."""

import importlib.util
from pathlib import Path


_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _runs(parent_setup, change_setup, wall=1.0):
    runs = []
    for pair, (p, c) in enumerate(zip(parent_setup, change_setup)):
        for side, setup in (("parent", p), ("change", c)):
            runs.append({"pair": pair, "side": side, "setup_s": setup, "wall_s": wall,
                         "peak_rss_mb": 65.0, "correct": True, "fail_frac": 0.0})
    return runs


def test_gap_beyond_the_parents_spread():
    # parent sorted 0.10, 0.11, 0.12, 0.12, 0.13: median 0.12, quartiles
    # 0.11 and 0.12; the change's median 0.08 is 0.04 away
    out = bench_pairs.summarise(_runs([0.12, 0.10, 0.13, 0.11, 0.12],
                                      [0.08, 0.09, 0.07, 0.085, 0.08]))
    assert out["pairs"] == 5 and out["all_correct"] and out["fail_frac"] == 0.0
    setup = out["setup_s"]
    assert setup["parent"] == {"median": 0.12, "q1": 0.11, "q3": 0.12}
    assert setup["change"]["median"] == 0.08
    assert setup["change_wins"] == 5
    assert setup["median_change_pct"] == -33.3
    assert setup["median_gap_exceeds_parent_iqr"] is True
    # equal runs are ties, which count for neither side
    assert out["wall_s"]["change_wins"] == 0 and out["wall_s"]["median_change_pct"] == 0.0
    assert out["wall_s"]["median_gap_exceeds_parent_iqr"] is False
    assert out["peak_rss_mb"]["change_wins"] == 0
    assert len(out["runs"]) == 10


def test_gap_inside_the_parents_spread_is_not_a_gain():
    # the change wins every pair, by 0.1 against a parent spread of 2
    out = bench_pairs.summarise(_runs([1.0, 2.0, 3.0, 4.0, 5.0], [0.9, 1.9, 2.9, 3.9, 4.9]))
    setup = out["setup_s"]
    assert setup["change_wins"] == 5
    assert setup["parent"]["q3"] - setup["parent"]["q1"] == 2.0
    assert setup["median_gap_exceeds_parent_iqr"] is False


def test_incomplete_pair_and_failed_run_are_reported():
    runs = _runs([0.2, 0.2, 0.2], [0.1, 0.1, 0.1])
    runs[-1].update(correct=False, fail_frac=0.25)
    out = bench_pairs.summarise(runs[:-1] + [runs[-1]] + [dict(runs[0], pair=3)])
    assert out["pairs"] == 3
    assert out["all_correct"] is False and out["fail_frac"] == 0.25
