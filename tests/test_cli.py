"""Command-line interface: exit codes, CSV bytes, SVG output, env config."""

import contextlib
import io
import math
from fractions import Fraction

import pytest

from fractalcalc import cli, mittag_leffler
from fractalcalc.exprgrammar import parse_expression


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class TestBasicCommands:
    def test_staircase_csv(self):
        code, out, err = run_cli(["staircase", "--grid", "0", "1", "5"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 6
        assert lines[3] == "0.5,0.5"

    def test_ml_point(self):
        # oracle: E_{1/2,1/2}(0) = 1/Gamma(1/2)
        code, out, _ = run_cli(["ml", "--eta", "0.5", "--nu", "0.5", "--grid", "0", "0", "1"])
        assert code == 0
        assert out.splitlines()[1] == "0.0,0.5641895835477563"

    def test_ml_grid_is_one_array_call_with_the_point_bits(self):
        code, out, _ = run_cli(["ml", "--eta", "1.3333333333333333", "--nu", "0.8333333333333334",
                                "--grid", "-10", "3", "27"])
        assert code == 0
        for line in out.splitlines()[1:]:
            z, value = (float(v) for v in line.split(","))
            assert value == mittag_leffler(4 / 3, 5 / 6, z)

    def test_ml_that_cannot_be_trusted_exits_1(self):
        # E_{1/2,1/2}(-10) is 2.78e-3; the series' terms reach 1e43
        code, out, err = run_cli(["ml", "--eta", "0.5", "--nu", "0.5", "--grid", "-10", "-10", "1"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_identity_derivative_power_rule(self):
        # classical D^(1/2) x^2 = Gamma(3)/Gamma(2.5) x^(3/2)
        code, out, _ = run_cli(
            ["rl-der", "--alpha-mode", "identity", "--beta", "0.5", "--f", "x^2",
             "--grid", "1", "1", "1"]
        )
        assert code == 0
        value = float(out.splitlines()[1].split(",")[1])
        assert value == pytest.approx(math.gamma(3.0) / math.gamma(2.5), rel=1e-6)

    def test_beta_table_consistency(self):
        code, out, _ = run_cli(["beta", "--beta", "0.5", "--eta", "1.5"])
        assert code == 0
        for line in out.splitlines()[1:]:
            _, quad, closed = line.split(",")
            assert float(quad) == pytest.approx(float(closed), rel=1e-9)

    def test_solve_reports_to_stderr(self):
        code, out, err = run_cli(["solve", "--example", "1", "--grid", "0.2", "0.8", "4"])
        assert code == 0
        assert out.splitlines()[0] == "x,solution,residual"
        assert len(out.splitlines()) == 5
        assert "max residual" in err

    def test_csv_uses_lf_and_repr(self, tmp_path):
        target = tmp_path / "out.csv"
        code, _, _ = run_cli(["staircase", "--grid", "0", "1", "5", "--output", str(target)])
        assert code == 0
        data = target.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")
        assert b"0.33333333333333326" in data  # repr of S(0.25) as a float


class TestExitCodes:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_expression(self):
        code, _, err = run_cli(["rl-der", "--f", "x^)2", "--grid", "1", "1", "1"])
        assert code == 2
        assert err.strip()

    def test_domain_failure(self):
        code, _, err = run_cli(["laplace", "--f", "x", "--grid", "-1", "-1", "1"])
        assert code == 1
        assert err.strip()

    @pytest.mark.parametrize("command", ["rl-der", "caputo"])
    def test_derivative_order_above_two(self, command):
        code, out, err = run_cli([command, "--beta", "2.5", "--f", "S(x)^3", "--grid", "0.5", "1", "2"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["rl-der", "caputo"])
    @pytest.mark.parametrize("expr", ["x^2", "exp(-S(x)) * (1 + x^2)", "S(x) + x"])
    def test_derivative_of_f_smooth_in_x_is_refused(self, command, expr):
        code, out, err = run_cli([command, "--f", expr, "--grid", "0.7", "0.9", "3"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "outside S(...)" in err

    @pytest.mark.parametrize("command", ["rl-der", "caputo"])
    @pytest.mark.parametrize("expr", ["S(x^2)", "S(S(x))", "exp(-S(2 * x))", "S(x) * S(x + 0)"])
    def test_staircase_of_anything_but_x_is_refused(self, command, expr):
        # S of anything but x jumps at every dyadic u, like an f smooth in x,
        # and no error bound of the product rule covers such an integrand
        code, out, err = run_cli([command, "--f", expr, "--grid", "0.7", "0.9", "3"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "argument other than x" in err

    @pytest.mark.parametrize("command", ["rl-der", "caputo"])
    def test_derivative_of_f_in_s_or_on_identity_is_accepted(self, command):
        assert run_cli([command, "--f", "exp(-S(x))", "--grid", "0.7", "0.9", "3"])[0] == 0
        assert run_cli([command, "--f", "S(x)^0.5", "--grid", "0.7", "0.9", "3"])[0] == 0
        assert run_cli([command, "--f", "S(0.5) * S(x)", "--grid", "0.7", "0.9", "3"])[0] == 0
        identity = ["--alpha-mode", "identity", "--f", "x^2", "--grid", "0.7", "0.9", "3"]
        assert run_cli([command] + identity)[0] == 0

    def test_gamma_pole(self):
        code, _, _ = run_cli(["gamma", "--grid", "0", "0", "1"])
        assert code == 1

    @pytest.mark.parametrize("count", ["nan", "inf", "2.7", "0", "-3"])
    def test_bad_grid_count_is_a_usage_error(self, count):
        code, out, err = run_cli(["staircase", "--grid", "0", "1", count])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestFigures:
    def test_svg_output(self, tmp_path):
        code, out, _ = run_cli(["figures", "--format", "svg", "--output", str(tmp_path)])
        assert code == 0
        svgs = sorted(tmp_path.glob("*.svg"))
        assert len(svgs) == 7
        head = svgs[0].read_text()
        assert head.startswith("<svg")

    def test_csv_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(["figures", "--output", str(a)])[0] == 0
        assert run_cli(["figures", "--output", str(b)])[0] == 0
        files_a = sorted(p.name for p in a.glob("*.csv"))
        files_b = sorted(p.name for p in b.glob("*.csv"))
        assert files_a == files_b and files_a
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestConfig:
    def test_tolerance_env_fallback(self, monkeypatch):
        parser = cli.build_parser()
        monkeypatch.setenv("FRACTAL_CALC_TOL", "0.125")
        config = cli.config_from_args(parser.parse_args(["verify"]))
        assert config.tol == 0.125
        monkeypatch.delenv("FRACTAL_CALC_TOL")
        config = cli.config_from_args(parser.parse_args(["verify"]))
        assert config.tol is None

    def test_explicit_tolerance_wins(self, monkeypatch):
        parser = cli.build_parser()
        monkeypatch.setenv("FRACTAL_CALC_TOL", "0.125")
        config = cli.config_from_args(parser.parse_args(["verify", "--tol", "0.5"]))
        assert config.tol == 0.5

    def test_kernel_and_alpha_flags(self):
        parser = cli.build_parser()
        config = cli.config_from_args(parser.parse_args(["rl-int", "--alpha-mode", "identity"]))
        assert config.alpha_mode == "identity"
        with pytest.raises(SystemExit) as exc:
            run_cli(["rl-int", "--kernel", "shifted"])
        assert exc.value.code == 2


class TestGrammar:
    def test_bare_staircase_argument_is_passed_unchanged(self):
        seen = []

        class Recording:
            def eval(self, v):
                seen.append(v)
                return 0.5

        x = Fraction(2, 9)
        assert parse_expression("S(x)^2")(x, Recording()) == 0.25
        assert parse_expression("S((x))")(x, Recording()) == 0.5
        assert seen[0] is x and seen[1] is x
        parse_expression("S(x + 0) + x")(x, Recording())
        assert type(seen[2]) is float

    @pytest.mark.parametrize(
        "text, outside",
        [("S(x)^2", False), ("exp(-S(x))", False), ("S(S(x))", False), ("2", False),
         ("x", True), ("S(x) * x", True), ("exp(x)", True), ("S(x^2) + -x", True)],
    )
    def test_tracks_x_outside_the_staircase(self, text, outside):
        assert parse_expression(text).x_outside_staircase is outside

    @pytest.mark.parametrize(
        "text, inside",
        [("S(x)^2", False), ("S((x))", False), ("exp(-S(x))", False), ("S(1) + x", False),
         ("x", False), ("S(x^2)", True), ("S(S(x))", True), ("S(x + 0)", True), ("x * S(2 * x)", True)],
    )
    def test_tracks_x_in_a_staircase_expression(self, text, inside):
        assert parse_expression(text).x_in_staircase_expression is inside
