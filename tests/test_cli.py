import json
import subprocess
import sys

import pytest

from padichyper.cli import main


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "padichyper", *args],
        capture_output=True,
        text=True,
    )
    return proc


class TestGammaCommand:
    def test_value(self, capsys):
        assert main(["gamma", "1/2", "--p", "5", "--K", "2"]) == 0
        out = capsys.readouterr().out
        assert "= 18" in out

    def test_p_divisible_denominator_is_usage_error(self, capsys):
        assert main(["gamma", "1/5", "--p", "5", "--K", "2"]) == 2

    def test_zero_denominator_is_usage_error(self, capsys):
        assert main(["gamma", "--p", "7", "--", "1/0"]) == 2
        assert "1/0" in capsys.readouterr().err

    def test_bad_p_or_K_is_usage_error(self, capsys):
        assert main(["gamma", "1/2", "--p", "9"]) == 2
        assert main(["gamma", "1/2", "--p", "5", "--K", "0"]) == 2
        err = capsys.readouterr().err
        assert "CompositeP" in err and "precision exponent" in err

    def test_large_p_satisfies_reflection(self, capsys):
        # 101^5 > 2^32; Gamma(1/3) Gamma(2/3) = 1 because 1/3 = 34 mod 101 is even
        values = []
        for x in ("1/3", "2/3"):
            assert main(["gamma", "--p", "101", "--", x]) == 0
            line = capsys.readouterr().out.splitlines()[0]
            assert line.startswith(f"Gamma_101({x}) mod 101^")
            K = int(line.split(" = ")[0].rsplit("^", 1)[1])
            values.append(int(line.split(" = ")[1]))
        assert values[0] * values[1] % 101**K == 1


class TestGGCommand:
    def test_known_value_recovers_trace(self, capsys):
        # -27/4 at (a,b) = (1,1) over F_7; q*value*phi(b) is the trace 3
        assert main(["gg", "--p", "7", "--params", "1/4,3/4;1/3,2/3", "--t", "5"]) == 0
        out = capsys.readouterr().out
        assert "q * value = 0:3," in out

    def test_bad_params(self):
        assert main(["gg", "--p", "7", "--params", "1/4;1/3,2/3", "--t", "5"]) == 2

    def test_zero_denominator_in_params_exits_2(self, capsys):
        assert main(["gg", "--p", "7", "--params", "1/0;1/2", "--t", "5"]) == 2
        assert "1/0;1/2" in capsys.readouterr().err


class TestCountCommand:
    def test_weierstrass(self, capsys):
        assert main(["count", "weier", "--p", "7", "--a", "1", "--b", "1"]) == 0
        assert "trace=3" in capsys.readouterr().out

    def test_hessian(self, capsys):
        assert main(["count", "hessian", "--p", "11", "--d", "2"]) == 0
        assert "affine=17" in capsys.readouterr().out

    def test_missing_curve_flags_are_named(self, capsys):
        assert main(["count", "weier", "--p", "7", "--a", "1"]) == 2
        assert capsys.readouterr().err.strip() == "count weier needs --b"
        assert main(["count", "weier", "--p", "7"]) == 2
        assert capsys.readouterr().err.strip() == "count weier needs --a and --b"
        assert main(["count", "hessian", "--p", "11"]) == 2
        assert capsys.readouterr().err.strip() == "count hessian needs --d"

    def test_extension_coefficients(self, capsys):
        assert main(["count", "weier", "--p", "5", "--r", "2", "--a", "1,1", "--b", "2,0"]) == 0
        assert "projective=" in capsys.readouterr().out


class TestVerifyCommand:
    def test_all_pass_exit_zero(self, capsys):
        code = main(["verify", "mt1", "--pmin", "11", "--pmax", "13", "--r", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_json_format(self, capsys):
        code = main(
            ["verify", "lemma5", "--pmin", "7", "--pmax", "11", "--r", "1,2", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["failed"] == 0
        assert {rec["theorem"] for rec in doc["records"]} == {"LEMMA5"}

    def test_csv_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(
            ["verify", "ortho", "--pmin", "7", "--pmax", "7", "--r", "1", "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("theorem,p,r,K,")

    def test_empty_prime_range_exits_2(self, capsys):
        assert main(["verify", "mt1", "--pmin", "24", "--pmax", "28"]) == 2

    @pytest.mark.parametrize(
        "theorem,pmin,skipped",
        [
            ("mt1", "7", 6),  # every d at p = 7 fails one of MT1's gates
            ("hessian", "5", 4),  # p = 5 needs --allow-p5
        ],
    )
    def test_sweep_that_checks_nothing_exits_2(self, capsys, theorem, pmin, skipped):
        code = main(["verify", theorem, "--pmin", pmin, "--pmax", pmin, "--r", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert f"total=0 passed=0 failed=0 skipped={skipped}" in captured.out
        assert "no identity was checked" in captured.err

    def test_bad_r_list_exits_2(self):
        assert main(["verify", "mt1", "--r", "one"]) == 2

    def test_allow_p5_flag(self, capsys):
        code = main(
            ["verify", "hessian", "--pmin", "5", "--pmax", "5", "--r", "1", "--allow-p5", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["total"] > 0 and doc["summary"]["failed"] == 0

    @pytest.mark.parametrize("theorem", ["mc", "bs1", "hessian"])
    def test_negative_sample_exits_2(self, capsys, theorem):
        for flag, value, message in (("--sample", "-1", "sample must be >= 0"), ("--K", "0", "K must be >= 1")):
            code = main(["verify", theorem, "--pmin", "11", "--pmax", "13", "--r", "1", flag, value])
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err

    def test_qmax_flag_reaches_above_the_default(self, capsys):
        # q = 53^2 = 2809 is above the default qmax of 2500
        args = ["verify", "mt1", "--pmin", "53", "--pmax", "53", "--r", "2", "--sample", "5"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "total=0 passed=0 failed=0 skipped=0" in captured.out
        assert "no identity was checked" in captured.err
        assert main(args + ["--qmax", "2809"]) == 0
        assert "total=5 passed=5 failed=0 skipped=0" in capsys.readouterr().out

    @pytest.mark.parametrize("qmax", ["0", "100001"])
    def test_qmax_out_of_range_exits_2(self, capsys, qmax):
        code = main(["verify", "mt1", "--pmin", "53", "--pmax", "53", "--r", "2", "--qmax", qmax])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"qmax must be in [1, 100000], got {qmax}" in captured.err

    def test_sample_flag(self, capsys):
        code = main(
            ["verify", "eq29", "--pmin", "13", "--pmax", "13", "--r", "1", "--sample", "3", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["records"]) == 3


class TestSubprocessEntry:
    def test_module_invocation(self):
        proc = run_cli("gamma", "0", "--p", "7", "--K", "3")
        assert proc.returncode == 0
        assert "= 1" in proc.stdout

    def test_unknown_subcommand_exits_2(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2

    def test_console_script_help(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        assert "verify" in proc.stdout
