"""Command-line interface: exit codes, CSV bytes, SVG output, env config."""

import contextlib
import hashlib
import io
import math
import shlex
import warnings
from fractions import Fraction

import pytest

from fractalcalc import DomainError, StaircaseFn, cli, mittag_leffler
from fractalcalc.exprgrammar import ExprError, parse_expression
from fractalcalc.verify import check_examples


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

    def test_ml_at_a_large_eta(self):
        # E_{20,1}(1) = 1 + 1/Gamma(21) + ...; its series needs terms past Gamma(171)
        code, out, _ = run_cli(["ml", "--eta", "20", "--grid", "0", "1", "2"])
        assert code == 0
        assert out.splitlines()[1:] == ["0.0,1.0", "1.0,1.0"]

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

    def test_gamma_columns(self):
        # value is Gamma(S(x)) on the staircase and Gamma(x), value2, on the identity
        sf = StaircaseFn()
        rows = [line.split(",") for line in run_cli(["gamma"])[1].splitlines()[1:]]
        assert len(rows) == 157
        for x, value, value2 in rows:
            assert float(value) == math.gamma(sf.eval(float(x)))
            assert float(value2) == math.gamma(float(x))
        code, out, _ = run_cli(["gamma", "--alpha-mode", "identity"])
        assert code == 0
        for line in out.splitlines()[1:]:
            _, value, value2 = line.split(",")
            assert value == value2

    def test_beta_table_consistency(self):
        code, out, _ = run_cli(["beta", "--beta", "0.5", "--eta", "1.5"])
        assert code == 0
        for line in out.splitlines()[1:]:
            _, quad, closed = line.split(",")
            assert float(quad) == pytest.approx(float(closed), rel=1e-9)

    @pytest.mark.parametrize("command", ["rl-int", "rl-der"])
    def test_operator_grid_takes_one_quantile_batch(self, monkeypatch, command):
        # the default ten-point grid samples every point's mesh in one
        # conjugated integrand call, so one batch of quantiles
        batches = []
        quantiles_exact = StaircaseFn.quantiles_exact

        def counted(self, u):
            batches.append(len(u))
            return quantiles_exact(self, u)

        monkeypatch.setattr(StaircaseFn, "quantiles_exact", counted)
        code, out, _ = run_cli([command])
        assert code == 0 and len(out.splitlines()) == 11
        assert len(batches) == 1 and batches[0] > 10 * 32

    def test_solve_reports_to_stderr(self):
        code, out, err = run_cli(["solve", "--example", "1", "--grid", "0.2", "0.8", "4"])
        assert code == 0
        assert out.splitlines()[0] == "x,solution,residual"
        assert len(out.splitlines()) == 5
        assert "max residual" in err

    # SHA-256 of stdout and then stderr, recorded before the variant audit
    # moved out of the solve, with the residual column cut from the CSV: its
    # trailing digits follow numpy's SIMD kernels (example 4's 5.865e-8 reads
    # 6.072e-8 with the AVX-512 kernels off), and TestRecordedReports in
    # test_solutions pins the residuals
    @pytest.mark.parametrize(
        "argv, digest",
        [(["solve", "--example", "1"], "a0be4ceecfcc216f8ec447e8e9e09670b16448f3c7da161a737fe89b553f5c64"),
         (["solve", "--example", "2"], "0431a5c357b075401437292d4061654ae7721767a8fbad944ee7f3b9e64d273f"),
         (["solve", "--example", "3"], "6c4f9fd5ef2f8e0d4e944ce1e8f3311a1e1e31705e7ea66f1144f98a8443029b"),
         (["solve", "--example", "4"], "0f6acfc0214286af898fbb19c3757e9ea3b7034f28dff78b5d92d75b03bc4880"),
         (["solve", "--example", "4", "--lam", "-40"],
          "de5bc6e21ae1a7f85e1e7cf1b6de6f8f7e5dea24ae704ae22388bd5f154c0e80")],
        ids=["1", "2", "3", "4", "4-lam-40"],
    )
    def test_solve_prints_its_pinned_variant_audit(self, argv, digest):
        code, out, err = run_cli(argv)
        kept = "".join(line.rsplit(",", 1)[0] + "\n" for line in out.splitlines())
        assert code == 0 and hashlib.sha256((kept + err).encode()).hexdigest() == digest

    def test_verify_prints_its_pinned_variant_audit(self):
        assert check_examples().details == (
            "example 1: residual 5.714e-08, variant deviation 1.967e+00, variant residual inf",
            "example 2: residual 1.083e-07, variant deviation 0.000e+00, variant residual 1.083e-07",
            "example 3: residual 2.387e-06, variant deviation 5.437e+00, variant residual 2.000e+00",
            "example 4: residual 1.879e-06, variant deviation 2.077e+00, variant residual 1.287e+01",
            "example 4 basis: coeff 2 * S^(10/3) * E_(4/3,13/3), coeff 1 * S^(1/3) * E_(4/3,4/3), "
            "coeff 0 * S^(-1/6) * E_(4/3,5/6)",
            "gap plateau spread: 0.000e+00",
        )

    def test_csv_uses_lf_and_repr(self, tmp_path):
        target = tmp_path / "out.csv"
        code, _, _ = run_cli(["staircase", "--grid", "0", "1", "5", "--output", str(target)])
        assert code == 0
        data = target.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")
        assert b"0.33333333333333326" in data  # repr of S(0.25) as a float

    def test_laplace_of_the_staircase_converges_at_a_large_sigma(self):
        # L{S}(sigma) -> 1/sigma^2 as sigma grows; S(x) = x near 0
        code, out, _ = run_cli(["laplace", "--f", "S(x)", "--grid", "10", "10", "1"])
        assert code == 0
        assert abs(float(out.splitlines()[1].split(",")[1]) - 0.01) <= 1e-13

    def test_depth_reaches_a_grid_command(self):
        argv = ["--depth", "80", "--f", "S(x)^2", "rl-int", "--grid", "0.2", "0.9", "3"]
        code, out, _ = run_cli(argv)
        assert code == 0 and len(out.splitlines()) == 4

    def test_verify_passes_every_check(self):
        code, out, _ = run_cli(["verify"])
        assert code == 0
        # nine checks plus the overall line
        assert sum(line.startswith("PASS ") for line in out.splitlines()) == 10


_DERIVATIVES = ("rl-der", "caputo")
_DIVIDES_BY_ZERO = "float division by zero"

# Each refusal: its arguments, its exit code, and a substring of its one error
# line; a substring from "error: " to "\n" pins the whole line.
_REFUSALS = {
    "bad-expression": ("rl-der --f x^)2 --grid 1 1 1", 2, ""),
    "domain": ("laplace --f x --grid -1 -1 1", 1, ""),
    **{f"{c}-order-above-two": (f"{c} --beta 2.5 --f S(x)^3 --grid 0.5 1 2", 1, "") for c in _DERIVATIVES},
    **{f"{c}-order-{b}": (f"{c} --beta {b} --grid 0.5 1 2", 1, "")
       for c, b in [("rl-int", "inf"), ("rl-der", "inf"), ("caputo", "inf"), ("rl-int", "1e-300")]},
    "beta-inf": ("beta --beta inf --grid 1 2 2", 1, "positive finite arguments"),
    "beta-1e-320": ("beta --beta 1e-320 --grid 1 1 1", 1, "overflows"),
    "ml-eta-inf": ("ml --eta inf --grid 0 1 2", 1, "eta=inf"),
    "ml-past-the-float-range": ("ml --eta 0.5 --nu 165 --grid 50 50 1", 1,
                                "error: series did not settle in 18 terms for z=50.0\n"),
    **{f"{c}-{e}": (f"{c} --f '{e}' --grid 0.7 0.9 3", 2, "outside S(...)")
       for e in ("x^2", "exp(-S(x)) * (1 + x^2)", "S(x) + x") for c in _DERIVATIVES},
    # S of anything but x jumps at every dyadic u, like an f smooth in x,
    # and no error bound of the product rule covers such an integrand
    **{f"{c}-{e}": (f"{c} --f '{e}' --grid 0.7 0.9 3", 2, "argument other than x")
       for e in ("S(x^2)", "S(S(x))", "exp(-S(2 * x))", "S(x) * S(x + 0)") for c in _DERIVATIVES},
    # 1/S(x) blows up like 1/u at the terminal, which no integrable power fits
    "no-terminal-power": ("rl-int --f 1/S(x) --grid 0.1 1 2", 1, ""),
    # S(x) - 2 is negative, and Python's power of it is a complex number
    **{f"{c}-negative-base": (f"{c} --f (S(x)-2)^0.5 --grid 0.5 1 2", 1, "") for c in ("rl-int", "laplace")},
    "descending-grid": ("solve --example 4 --grid 0.9 0.1 3", 1, "error: grid must be strictly ascending\n"),
    # the quadrature raises when the integrand divides by zero on the mesh past the terminal
    **{f"{c}-non-finite-integrand": (f"{c} --f 1/(S(x)-0.5) --grid 0.6 1 2", 1,
                                     f"error: integrand raised on the mesh past the terminal: {_DIVIDES_BY_ZERO}\n")
       for c in ("caputo", "rl-int")},
    # 1/S(x) divides by zero at the Caputo head, before the mesh
    "raising-at-the-terminal": ("caputo --f 1/S(x) --grid 0 1 3", 1,
                                f"error: integrand raised at the terminal: {_DIVIDES_BY_ZERO}\n"),
    "solution-before-terminal": ("solve --example 1 --grid -0.5 0.5 2", 1,
                                 "error: evaluation point precedes the left terminal\n"),
    # a tol that is not positive is named as such, not as a tail bound past it
    **{f"{c}-tol-{t}": (f"{c} --tol {t}", 1, f"error: tol must be positive, got {float(t)!r}\n")
       for c, t in [("laplace", "-1"), ("laplace", "nan"), ("ml", "0")]},
    "tail-past-truncation": ("laplace --f sin(pi*S(x)/40)^2*exp(0.99*S(x)) --grid 1 1 1", 1,
                             "error: tail bound 4.374e-03 at truncation u=40.0 exceeds tol=1e-09\n"),
    # 990 links passed the walk and overflowed Python's stack in evaluation,
    # 1,200 overflowed it in the walk, 6,000 in Python's parser
    **{f"nesting-{n}-{link}": (f"rl-int --f={link * n}S(x) --grid 0.5 1 2", 2, "")
       for n in (990, 1200, 6000) for link in ("-", "+", "2^")},
    "gamma-pole": ("gamma --grid 0 0 1", 1, ""),
    **{f"grid-count-{n}": (f"staircase --grid 0 1 {n}", 2, "") for n in ("nan", "inf", "2.7", "0", "-3")},
    # np.linspace would spread a nan over the grid, with a warning
    "grid-inf-stop": ("staircase --grid 0 inf 3", 2, ""),
    "grid-overflowing-span": ("staircase --grid -1e308 1e308 3", 2, ""),
    "grid-inf-point": ("laplace --grid inf inf 1", 2, ""),
    "grid-nan-start": ("staircase --grid nan 1 3", 2, ""),
}


class TestExitCodes:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, plain",
        [
            (["ml", "--grid", "-1e1", "0", "2"], ["ml", "--grid", "-10", "0", "2"]),
            (["solve", "--example", "4", "--lam", "-4e1"], ["solve", "--example", "4", "--lam", "-40"]),
        ],
        ids=["grid", "lam"],
    )
    def test_a_negative_number_with_an_exponent_is_a_value(self, argv, plain):
        code, out, err = run_cli(argv)
        assert code == 0
        assert (out, err) == run_cli(plain)[1:]

    def test_an_unknown_dash_option_still_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["ml", "-x"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", _DERIVATIVES)
    def test_derivative_of_f_in_s_or_on_identity_is_accepted(self, command):
        assert run_cli([command, "--f", "exp(-S(x))", "--grid", "0.7", "0.9", "3"])[0] == 0
        assert run_cli([command, "--f", "S(x)^0.5", "--grid", "0.7", "0.9", "3"])[0] == 0
        assert run_cli([command, "--f", "S(0.5) * S(x)", "--grid", "0.7", "0.9", "3"])[0] == 0
        identity = ["--alpha-mode", "identity", "--f", "x^2", "--grid", "0.7", "0.9", "3"]
        assert run_cli([command] + identity)[0] == 0

    @pytest.mark.parametrize("args, code, message", _REFUSALS.values(), ids=_REFUSALS.keys())
    def test_a_refusal_prints_one_error_line(self, args, code, message):
        # pytest holds back warnings, which outside it are more stderr lines
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, out, err = run_cli(shlex.split(args))
        assert (got, out) == (code, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_output_in_a_missing_directory_exits_1(self, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(["staircase", "--grid", "0", "1", "3", "--output", str(target)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(target) in err

    def test_figures_into_a_file_exits_1(self, tmp_path):
        target = tmp_path / "README.md"
        target.write_text("kept\n")
        code, out, err = run_cli(["figures", "--output", str(target)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert target.read_text() == "kept\n"

    @pytest.mark.parametrize("depth", ["-1", "21"])
    def test_figures_at_a_depth_outside_0_to_20_writes_nothing(self, tmp_path, depth):
        target = tmp_path / "figs"
        code, out, err = run_cli(["figures", "--depth", depth, "--output", str(target)])
        assert (code, out) == (1, "")
        assert err == f"error: prefractal depth must be an integer in [0, 20], got {depth}\n"
        assert not target.exists()


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


class TestSvgOutput:
    @pytest.mark.parametrize(
        "argv", [["rl-int"], ["solve", "--example", "3"]], ids=["rl-int", "solve"]
    )
    def test_a_command_prints_one_svg_document(self, argv):
        code, out, _ = run_cli(argv + ["--format", "svg"])
        assert code == 0
        assert out.startswith("<svg") and out.endswith("</svg>\n")
        assert out.count("<svg") == 1

    def test_a_one_point_series_is_a_circle(self):
        code, out, _ = run_cli(["staircase", "--format", "svg", "--grid", "0.5", "0.5", "1"])
        assert code == 0
        assert out.count("<circle") == 1 and "<polyline" not in out

    def test_a_one_point_series_far_from_zero_is_a_circle(self):
        # the float spacing at 1e16 is 2, so a widening of 0.5 would round away
        code, out, _ = run_cli(["staircase", "--format", "svg", "--grid", "1e16", "1e16", "1"])
        assert code == 0
        assert out.count("<svg") == 1 and out.count("<circle") == 1


class TestConfig:
    def test_tolerance_env_fallback(self, monkeypatch):
        argv = ["ml", "--grid", "-5", "-5", "1"]
        monkeypatch.setenv("FRACTAL_CALC_TOL", "0.125")
        loose = run_cli(argv)[1].splitlines()[1]
        assert loose == f"-5.0,{mittag_leffler(1.0, 1.0, -5.0, tol=0.125)!r}"
        monkeypatch.delenv("FRACTAL_CALC_TOL")
        assert run_cli(argv)[1].splitlines()[1] == f"-5.0,{mittag_leffler(1.0, 1.0, -5.0)!r}"
        assert run_cli(argv)[1].splitlines()[1] != loose

    def test_explicit_tolerance_wins(self, monkeypatch):
        argv = ["ml", "--grid", "-5", "-5", "1"]
        want = run_cli(argv + ["--tol", "0.5"])[1]
        monkeypatch.setenv("FRACTAL_CALC_TOL", "0.125")
        assert run_cli(argv + ["--tol", "0.5"])[1] == want

    def test_bad_tolerance_env_is_a_usage_error(self, monkeypatch):
        monkeypatch.setenv("FRACTAL_CALC_TOL", "loose")
        code, out, err = run_cli(["ml", "--grid", "0", "1", "2"])
        assert code == 2 and out == ""
        assert err == "error: bad FRACTAL_CALC_TOL value 'loose'\n"

    def test_kernel_and_alpha_flags(self):
        code, out, _ = run_cli(["rl-int", "--alpha-mode", "identity", "--grid", "1", "1", "1"])
        assert code == 0
        # classical I^(1/2) x^2 = Gamma(3)/Gamma(3.5) x^(5/2)
        value = float(out.splitlines()[1].split(",")[1])
        assert value == pytest.approx(math.gamma(3.0) / math.gamma(3.5), rel=1e-6)
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

    @pytest.mark.parametrize(
        "text, x, want",
        [("-x^2", 3.0, -9.0), ("exp(-x^2)", 1.0, math.exp(-1.0)), ("-2^2", 0.0, -4.0),
         ("2^-1", 0.0, 0.5), ("2^3^2", 0.0, 512.0), ("-S(x)^2", Fraction(1, 3), -0.25)],
    )
    def test_power_binds_tighter_than_a_unary_sign(self, text, x, want):
        assert parse_expression(text)(x, StaircaseFn()) == want

    def test_cli_reads_a_signed_power_as_the_negated_power(self):
        grid = ["--grid", "0.5", "1", "2"]
        code, out, _ = run_cli(["rl-int", "--f", "exp(-S(x)^2)"] + grid)
        assert code == 0
        assert out == run_cli(["rl-int", "--f", "exp(-(S(x)^2))"] + grid)[1]

    @pytest.mark.parametrize(
        "text",
        ["x**2", "0x10", "1j", "1_0", "True", "x.real", "S(x, 2)", "(x)(2)", "lambda: 1", "",
         " ", "(exp)(x)", "exp()", "exp(*x)", "S", "x # 2", "x if x else 2", "x // 2", "\uff58"],
    )
    def test_rejects_what_the_grammar_lacks(self, text):
        with pytest.raises(ExprError):
            parse_expression(text)

    @pytest.mark.parametrize("link", ["-", "+"])
    def test_sign_chain_150_deep_evaluates(self, link):
        sf = StaircaseFn()
        x = sf.quantile_exact(Fraction(1, 4))
        assert parse_expression(link * 150 + "S(x)")(x, sf) == 0.25
        assert parse_expression(link * 151 + "S(x)")(x, sf) == (-0.25 if link == "-" else 0.25)

    def test_power_chain_150_deep_evaluates(self):
        # a tower of 2s leaves the float range by its sixth link; the chain
        # is evaluated, link by link, up to that arithmetic failure
        sf = StaircaseFn()
        assert parse_expression("2^" * 4 + "S(x)")(1.0, sf) == 65536.0
        with pytest.raises(OverflowError):
            parse_expression("2^" * 150 + "S(x)")(1.0, sf)

    def test_complex_power_is_a_domain_error(self):
        expr = parse_expression("(x - 2)^0.5")
        with pytest.raises(DomainError, match="negative base"):
            expr(0.5, StaircaseFn())
        assert parse_expression("(x - 2)^2")(0.5, StaircaseFn()) == 2.25
