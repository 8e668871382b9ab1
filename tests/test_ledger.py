"""tools/ledger.py's comparison on hand-made ledgers; no benchmark is run."""

import copy
import importlib.util
import json
import math
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "ledger", Path(__file__).resolve().parents[1] / "tools" / "ledger.py")
ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger)


def _ledger():
    check = {"label": "L+", "value": [0.25, -1.5], "route": [0.25, -1.5000000001],
             "tol": 1e-8, "floor": 0.0, "ref_tol": None}
    return {"workload": "first-moment-oracle", "seed": 0, "items": [
        {"id": "fm-0-0", "checks": [check, dict(check, label="tau", value=[3.0, 0.0], route=[3.0, 0.0])]},
        {"id": "fm-0-1", "checks": [dict(check, value=[-0.0, 2.0])]},
        {"id": "or-0-0", "raised": {"type": "PoleError", "message": "zeta pole at s = 1"}},
    ]}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_identical_ledgers_pass(tmp_path, capsys):
    a, b = _ledger(), _ledger()
    out = ledger.compare(a, b)
    assert out["identical"] and out["notes"] == []
    assert out["labels"]["L+"] == {"values": 4, "kept": 4, "max_abs": 0.0, "max_rel": 0.0}
    assert out["labels"]["tau"]["kept"] == 2
    assert ledger.main(["compare", _write(tmp_path, "a.json", a), _write(tmp_path, "b.json", b)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "identical: 6/6 values kept their bits, 0 other differences"


def test_a_moved_value_and_a_one_sided_raise_fail(tmp_path, capsys):
    a, b = _ledger(), _ledger()
    b["items"][0]["checks"][0]["value"] = [0.25 + 2.0**-54, -1.5]  # one ulp of 0.25
    b["items"][1]["checks"][0]["value"] = [0.0, 2.0]  # -0.0 to +0.0: equal, but not the same bits
    b["items"][2] = {"id": "or-0-0", "checks": []}
    out = ledger.compare(a, b)
    assert not out["identical"]
    stat = out["labels"]["L+"]
    assert stat["values"] == 4 and stat["kept"] == 2
    assert stat["max_abs"] == 2.0**-54
    assert math.isclose(stat["max_rel"], 2.0**-54 / abs(complex(0.25 + 2.0**-54, -1.5)))
    assert out["labels"]["tau"]["kept"] == 2
    assert out["notes"] == ["or-0-0: raises on A only (PoleError: zeta pole at s = 1)"]
    assert ledger.main(["compare", _write(tmp_path, "a.json", a), _write(tmp_path, "b.json", b)]) == 1
    printed = capsys.readouterr().out
    assert "L+: 2/4 kept their bits" in printed
    assert printed.splitlines()[-1] == "DIFFERENT: 4/6 values kept their bits, 1 other differences"


def test_missing_items_changed_gates_and_nan_are_differences():
    a = _ledger()
    a["items"].insert(2, {"id": "fm-0-2", "checks": [dict(a["items"][1]["checks"][0])]})
    b = copy.deepcopy(a)
    b["items"][0]["checks"][1]["tol"] = 1e-6
    b["items"][0]["checks"][0]["floor"] = 1e-5
    b["items"][2]["checks"][0]["ref_tol"] = 4e-8
    b["items"][1]["checks"][0]["route"] = [math.nan, 2.0]
    b["items"].pop()
    b["items"].append({"id": "or-0-1", "raised": {"type": "DomainError", "message": "box"}})
    out = ledger.compare(a, b)
    assert not out["identical"]
    assert out["labels"]["L+"]["max_abs"] == math.inf
    assert sorted(out["notes"]) == [
        "fm-0-0: check L+ (tol 1e-08, floor 0.0, ref_tol None) on A is L+ (tol 1e-08, floor 1e-05, ref_tol None) on B",
        "fm-0-0: check tau (tol 1e-08, floor 0.0, ref_tol None) on A is tau (tol 1e-06, floor 0.0, ref_tol None) on B",
        "fm-0-2: check L+ (tol 1e-08, floor 0.0, ref_tol None) on A is L+ (tol 1e-08, floor 0.0, ref_tol 4e-08) on B",
        "or-0-0: only in A",
        "or-0-1: only in B",
    ]
