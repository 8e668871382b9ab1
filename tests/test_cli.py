import itertools
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

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


def fresh_cli(args, **env) -> str:
    """stdout of the CLI run in a fresh process, which reads no memo of this
    one, with ``env`` added to the environment; its line ends are kept."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "rsmoments.cli", *args],
        env=dict(os.environ, PYTHONPATH=path, **env), capture_output=True, timeout=300, check=True,
    )
    return done.stdout.decode()


class TestDeterminism:
    def test_bit_identical_output(self, tmp_path):
        # two fresh processes, so the second run cannot read the first one's
        # memos; the second writes its table to a file, which must hold the
        # bytes the first printed
        args = ["breakdown", "--T", "40", "--alpha", "0.5", "--t", "0.7",
                "--s-im", "0.9", "--horizon", "4000"]
        out = fresh_cli(args)
        path = tmp_path / "breakdown.csv"
        assert fresh_cli(["--output", str(path)] + args) == ""
        assert out and path.read_bytes() == out.encode()

    def test_afe_output_does_not_depend_on_the_blas_thread_count(self):
        # two fresh processes, so neither reads the other's memos.  An AFE
        # whose weights came from a BLAS product printed S_inf_re
        # 49.881996776066671 on one OpenBLAS thread and 49.881996776066707
        # on two
        args = ["continuous", "--T", "12", "--alpha", "0.5", "--t", "0.4"]
        outs = [fresh_cli(args, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2")]
        assert outs[0] and outs[0] == outs[1]

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


class TestOutputFile:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_file_equals_stdout(self, capsys, tmp_path, fmt):
        args = ["--format", fmt, "cusps", "--N", "12"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        path = tmp_path / f"cusps.{fmt}"
        assert run_cli(["--output", str(path)] + args, capsys) == (0, "", "")
        assert path.read_bytes() == out.encode()

    def test_verify_writes_its_checks(self, capsys, tmp_path):
        path = tmp_path / "verify.json"
        code, out, _ = run_cli(["--output", str(path), "verify", "--suite", "shifted"], capsys)
        assert code == 0
        assert out.splitlines()[-1] == "1/1 checks passed"
        (check,) = json.loads(path.read_text())
        assert check["name"] == "shifted-series-rearrangement" and check["passed"] is True
        assert sorted(check["measured"]) == ["M3_rel", "Z_rel"]
        # the measured values, in full, of the check that stdout reports
        line = next(x for x in out.splitlines() if check["name"] in x)
        for key, value in check["measured"].items():
            assert 0.0 <= float(value) < 1e-9
            assert f"{key}={float(value):.4g}" in line


class TestErrors:
    def test_bad_input_machine_readable(self, capsys):
        code, _, err = run_cli(["tau", "--N", "4", "--a", "3"], capsys)
        assert code == 2
        payload = json.loads(err)
        assert "error" in payload and "message" in payload

    @pytest.mark.parametrize(
        "command",
        [["tau", "--N", "4", "--a", "0"], ["tau", "--N", "0", "--a", "1"],
         ["tau", "--N", "-4", "--a", "2"], ["cusps", "--N", "0"]],
    )
    def test_bad_cusp_label_refused(self, capsys, command):
        # these escaped as a ZeroDivisionError and as bare ValueErrors
        code, out, err = run_cli(command, capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "DomainError"

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

    @pytest.mark.parametrize("ppu", ["-1", "0", "nan", "inf"])
    def test_points_per_unit_refused(self, capsys, ppu):
        code, out, err = run_cli(["continuous", "--T", "11", "--alpha", "0.5", "--t", "0.5",
                                  "--points-per-unit", ppu], capsys)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "DomainError",
                                   "message": "points_per_unit must be positive and finite"}

    def test_horizon_past_the_limit_rejected(self, capsys):
        from rsmoments import lseries

        limit = lseries.DELTA_HORIZON
        code, out, err = run_cli(["main-term", "--T", "40", "--alpha", "0.5", "--which", "feq_plus",
                                  "--horizon", str(limit + 1)], capsys)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "DomainError",
                                   "message": f"delta_newform needs 1 <= m_max <= {limit}"}
        with pytest.raises(SystemExit):
            cli.main(["main-term", "--help"])
        assert f"1 to {limit}" in capsys.readouterr().out


class TestMainTermCommand:
    @pytest.mark.parametrize("which, sign", [("feq_minus", -1), ("feq_plus", 1)])
    def test_display_writes_its_point(self, capsys, which, sign):
        # a display's s is 1/2 - it (*_minus) or 1/2 + it (*_plus)
        code, out, _ = run_cli(["main-term", "--T", "40", "--alpha", "0.5", "--t", "0.7",
                                "--which", which, "--horizon", "4000"], capsys)
        assert code == 0
        header, row = out.strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["s_re"]) == 0.5 and float(cols["s_im"]) == sign * 0.7

    @pytest.mark.parametrize("which", ["fneq_minus", "fneq_plus"])
    def test_fneq_display_refuses_one_form(self, capsys, which):
        # with --newform-g unset, g is f: the f != g displays refuse by name
        code, out, err = run_cli(["main-term", "--T", "40", "--alpha", "0.5", "--t", "0.7",
                                  "--which", which, "--horizon", "4000"], capsys)
        assert code == 2 and out == ""
        failure = json.loads(err)
        assert failure["error"] == "DomainError"
        assert failure["message"] == f"{which} is the f != g display; f and g are the same form"

    def test_generic_writes_main_term(self, capsys):
        # the generic branch writes moments.main_term of the named context,
        # digit for digit
        from rsmoments import lseries, moments
        from rsmoments.kernels import KernelContext, TestFunctionParams

        code, out, _ = run_cli(["main-term", "--which", "generic", "--s-im", "0.3", "--T", "40",
                                "--alpha", "0.5", "--t", "0.7"], capsys)
        assert code == 0
        header, row = out.strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        f = lseries.delta_newform(20000)
        kernel = KernelContext(TestFunctionParams(T=40.0, alpha=0.5, R=1.0), t=0.7, k=12)
        want = moments.main_term(moments.MomentContext(t=0.7, f=f, g=f, N=1, kernel=kernel, s=0.5 + 0.3j))
        assert float(cols["s_re"]) == 0.5 and float(cols["s_im"]) == 0.3
        assert (cols["M_re"], cols["M_im"]) == (f"{want.real:.17g}", f"{want.imag:.17g}")

    def test_generic_needs_s_im(self, capsys):
        # its old default s = 1/2 - it' is the f = g pole
        with pytest.raises(SystemExit) as exc:
            cli.main(["main-term", "--T", "40", "--alpha", "0.5", "--t", "0.7"])
        assert exc.value.code == 2
        assert "--s-im" in capsys.readouterr().err


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

    @pytest.mark.parametrize("M_outer, M_inner", [("0", "10"), ("10", "0"), ("-5", "10")])
    def test_empty_truncation_refused(self, capsys, M_outer, M_inner):
        code, out, err = run_cli(
            ["z-series", "--M-outer", M_outer, "--M-inner", M_inner, "--horizon", "100"], capsys
        )
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "DomainError",
                                   "message": "M_outer and M_inner must be >= 1"}


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


def _readme_cli_commands() -> list:
    """The argument lists of the rsmoments lines in README.md's CLI block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = (shlex.split(line, comments=True) for line in block.splitlines())
    return [argv[1:] for argv in lines if argv and argv[0] == "rsmoments"]


class TestReadme:
    def test_cli_examples_run(self, capsys):
        # the README names only options the CLI has, with values it accepts
        commands = _readme_cli_commands()
        assert len(commands) >= 9
        for argv in commands:
            if argv == ["verify", "--suite", "all"]:
                continue  # tests/test_acceptance.py runs the whole suite
            code, _, err = run_cli(argv, capsys)
            assert code == 0, (argv, err)


class TestFormLevel:
    @pytest.mark.parametrize("command", ["main-term", "breakdown", "continuous", "z-series", "moment-table"])
    def test_form_commands_take_no_level_option(self, capsys, command):
        # the level is the form's own: a --N beside a form could disagree with it
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        assert "--N" not in capsys.readouterr().out

    def test_bare_form_name_read_from_data_dir(self, capsys, tmp_path, monkeypatch):
        # a --newform name that is neither absolute nor in the working
        # directory is looked up in RSMOMENTS_DATA_DIR
        data, work = tmp_path / "data", tmp_path / "work"
        data.mkdir()
        work.mkdir()
        a = (1, -24, 252, -1472, 4830, -6048, -16744, 84480)
        (data / "delta8.txt").write_text("1 12 8\n" + "".join(f"{n} {v}\n" for n, v in enumerate(a, 1)))
        monkeypatch.chdir(work)
        args = ["z-series", "--M-outer", "2", "--M-inner", "4", "--horizon", "100", "--newform"]
        code, by_path, _ = run_cli(args + [str(data / "delta8.txt")], capsys)
        assert code == 0
        monkeypatch.setenv("RSMOMENTS_DATA_DIR", str(data))
        code, by_name, _ = run_cli(args + ["delta8.txt"], capsys)
        assert code == 0 and by_name == by_path
        monkeypatch.delenv("RSMOMENTS_DATA_DIR")
        code, out, err = run_cli(args + ["delta8.txt"], capsys)
        assert code == 2 and out == "" and json.loads(err)["error"] == "FileNotFoundError"

    def test_second_form_of_another_level_refused(self, capsys, tmp_path):
        # Delta's first coefficients under a level-2 header
        path = tmp_path / "level2.txt"
        a = (1, -24, 252, -1472, 4830)
        path.write_text("2 12 5\n" + "".join(f"{n} {v}\n" for n, v in enumerate(a, 1)))
        code, out, err = run_cli(["z-series", "--newform-g", str(path), "--M-outer", "2",
                                  "--M-inner", "4", "--horizon", "100"], capsys)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "InvariantViolation",
                                   "message": "--newform has level 1 and --newform-g level 2"}
