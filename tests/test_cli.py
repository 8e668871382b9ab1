import itertools
import json
import math

import pytest

from rsmoments import cli, verify


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCusps:
    def test_count_n12(self, capsys):
        code, out, _ = run_cli(["cusps", "--N", "12"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",")[0] == "N"
        # sum over a | 12 of phi(gcd(a, 12/a)) = 1+1+1+2+1+1... computed
        from rsmoments import arith

        expect = sum(
            arith.euler_phi(math.gcd(a, 12 // a)) for a in arith.divisors(12)
        )
        assert len(lines) - 1 == expect

    def test_json_format(self, capsys):
        code, out, _ = run_cli(["--format", "json", "cusps", "--N", "4"], capsys)
        assert code == 0
        data = json.loads(out)
        assert len(data) == 3
        assert {d["a"] for d in data} == {1, 2, 4}


class TestH0Command:
    def test_peak_ratio_column(self, capsys):
        code, out, _ = run_cli(
            ["h0", "--T", "300", "--alpha", "0.5", "--k", "12", "--x", "0"], capsys
        )
        assert code == 0
        header, row = out.strip().splitlines()
        idx = header.split(",").index("ratio_to_peak_scale")
        ratio = float(row.split(",")[idx])
        assert 0.9 < ratio < 1.1


class TestTauCommand:
    def test_formula_with_oracle(self, capsys):
        code, out, _ = run_cli(
            ["tau", "--N", "2", "--a", "2", "--s-re", "1.4", "--n", "1", "2",
             "--oracle", "--max-height", "400"],
            capsys,
        )
        assert code == 0
        header, *rows = out.strip().splitlines()
        idx = header.split(",").index("rel_diff")
        assert all(float(r.split(",")[idx]) < 1e-3 for r in rows)

    def test_oracle_with_no_row_below_max_height(self, capsys):
        # Gamma_0(12)'s rows at a = 12 start at ct = 12: only the identity coset is left
        code, out, _ = run_cli(
            ["tau", "--N", "12", "--a", "12", "--s-re", "1.4", "--n", "1",
             "--oracle", "--max-height", "10"],
            capsys,
        )
        assert code == 0
        header, row = out.strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert abs(complex(float(cols["oracle_re"]), float(cols["oracle_im"]))) < 1e-14


    def test_vanishing_coefficient_reports_absolute_difference(self, capsys):
        # tau vanishes identically at Gamma_0(12)'s cusp a = 12: the column is
        # |oracle - tau|, as criterion 3 judges it, not roundoff over 1e-300
        code, out, _ = run_cli(
            ["tau", "--N", "12", "--a", "12", "--s-re", "1.4", "--n", "1", "--oracle"],
            capsys,
        )
        assert code == 0
        header, row = out.strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["tau_re"]) == float(cols["tau_im"]) == 0.0
        oracle = complex(float(cols["oracle_re"]), float(cols["oracle_im"]))
        assert float(cols["rel_diff"]) == abs(oracle) < 1e-10


class TestDeterminism:
    def test_bit_identical_output(self, capsys, tmp_path):
        args = ["breakdown", "--T", "40", "--alpha", "0.5", "--t", "0.7",
                "--s-im", "0.9", "--horizon", "4000"]
        code1, out1, _ = run_cli(args, capsys)
        code2, out2, _ = run_cli(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_verify_stdout_has_no_wall_clock(self, capsys, monkeypatch):
        # each run sees a clock that advances by a different step per reading
        outs = []
        for step in (0.01, 7.3):
            clock = itertools.count(0.0, step)
            monkeypatch.setattr(verify.time, "time", lambda clock=clock: next(clock))
            code, out, _ = run_cli(["verify", "--suite", "identities"], capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


class TestErrors:
    def test_bad_input_machine_readable(self, capsys):
        code, _, err = run_cli(["tau", "--N", "4", "--a", "3"], capsys)
        assert code == 2
        payload = json.loads(err)
        assert "error" in payload and "message" in payload

    def test_cusp_data_with_other_newform_g_rejected(self, capsys, tmp_path):
        # each ingested expansion stands for both f and g, so a different g
        # would be computed with f's cusp data
        form = tmp_path / "g.txt"
        form.write_text("4 12 2\n1 1\n2 -24\n")
        cusp = tmp_path / "cusp.txt"
        cusp.write_text("4 2 1 3\n1 1.0 0.0\n2 -0.5 0.25\n3 0.125 0.0\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["main-term", "--T", "40", "--alpha", "0.5", "--N", "4",
                      "--newform-g", str(form), "--cusp-data", str(cusp)])
        assert exc.value.code == 2
        assert "--cusp-data" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "command",
        [["main-term", "--T", "40", "--alpha", "0.5"], ["breakdown", "--T", "40", "--alpha", "0.5"],
         ["continuous", "--T", "11", "--alpha", "0.5"], ["z-series"], ["moment-table"]],
    )
    def test_horizon_below_one_rejected(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main(command + ["--horizon", "0"])
        assert exc.value.code == 2
        assert "--horizon" in capsys.readouterr().err


class TestZSeriesCommand:
    def test_smoke(self, capsys):
        code, out, _ = run_cli(
            ["z-series", "--M-outer", "200", "--M-inner", "400", "--horizon", "1000"],
            capsys,
        )
        assert code == 0
        header, row = out.strip().splitlines()
        idx = header.split(",").index("double_sum_rel_diff")
        assert float(row.split(",")[idx]) < 1e-10


class TestMomentTableCommand:
    def test_ratio_normalised_by_alpha(self, capsys):
        # the leading term scales as H0(0) ~ 2 pi^{-3/2} T^{1+alpha}, so the
        # ratio to the leading coefficient barely moves with alpha
        ratios = []
        for alpha in ("0.5", "0.6"):
            code, out, _ = run_cli(["moment-table", "--T-grid", "200", "--alpha", alpha], capsys)
            assert code == 0
            header, row = out.strip().splitlines()
            idx = header.split(",").index("ratio_over_leading_coeff")
            ratios.append(float(row.split(",")[idx]))
        assert abs(ratios[1] / ratios[0] - 1.0) < 0.05


class TestVerifyCommand:
    def test_identities_suite_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "identities"], capsys)
        assert code == 0
        assert "[PASS]" in out and "[FAIL]" not in out
