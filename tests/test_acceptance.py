"""End-to-end acceptance gate.

Each test runs one verification check at its stated tolerance and prints a
single PASS/FAIL line with the measured value, mirroring the `verify` CLI.
Run with `pytest -s` to see the lines interleaved; plain runs capture them.
The last test checks the values the README's quick tour prints.
"""

import math
import sys
from fractions import Fraction

import pytest

from fractalcalc import (
    CantorSpec,
    StaircaseFn,
    cli,
    f_alpha_derivative,
    f_alpha_integral,
    gamma_fractal,
    mittag_leffler,
    solve_example,
    transform_power,
)
from fractalcalc.verify import (
    check_beta_identities,
    check_classical_degeneration,
    check_compositions,
    check_determinism,
    check_examples,
    check_laplace_rules,
    check_ml_special_cases,
    check_power_rules,
    check_staircase_exactness,
)


def report(result):
    line = (
        f"{'PASS' if result.passed else 'FAIL'} {result.name}: "
        f"measured {result.measured:.3e} (tolerance {result.tolerance:.3e})"
    )
    print(line, file=sys.stderr)
    assert result.passed, line


def test_staircase_exact_values_and_identities():
    # fixed points within 2^-50 plus symmetry and self-similarity on 1000
    # random rationals
    report(check_staircase_exactness())


def test_beta_quadrature_and_symmetry():
    report(check_beta_identities())


def test_mittag_leffler_special_cases():
    report(check_ml_special_cases())


def test_power_rules_integral_and_derivative():
    report(check_power_rules())


def test_composition_identities():
    report(check_compositions())


def test_laplace_power_images_and_integral_rule():
    report(check_laplace_rules())


def test_classical_degeneration_matches_grunwald_letnikov():
    report(check_classical_degeneration())


def test_example_solutions_and_structure():
    report(check_examples())


def test_figure_determinism(tmp_path):
    report(check_determinism())
    # same property end to end through the CLI entry point
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["figures", "--output", str(a)]) == 0
    assert cli.main(["figures", "--output", str(b)]) == 0
    names = sorted(p.name for p in a.glob("*.csv"))
    assert names and names == sorted(p.name for p in b.glob("*.csv"))
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    print("PASS figure-determinism-cli: byte-identical CSV output", file=sys.stderr)


def test_readme_quick_tour_values():
    # the values the README's quick tour prints beside each call
    sf = StaircaseFn(CantorSpec())
    assert sf.eval_exact(Fraction(1, 4)) == Fraction(1501199875790165, 2**52)
    assert Fraction(1, 3) - sf.eval_exact(Fraction(1, 4)) < Fraction(1, 2**53)
    assert sf.eval(0.25) == 0.33333333333333326
    assert sf.quantile_exact(Fraction(1, 2)) == Fraction(2, 3)
    got = f_alpha_derivative(lambda x: float(sf.eval_exact(x)) ** 2, sf, Fraction(2, 3))
    assert got == pytest.approx(1.0, abs=1e-9)
    assert f_alpha_integral(lambda x: float(x) ** 2, sf, 0, 1) == pytest.approx(0.375, abs=1e-15)
    assert f_alpha_integral(lambda x: sf.eval(x) ** 0.5, sf, 0, 1) == pytest.approx(2 / 3, abs=1e-15)
    assert gamma_fractal(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert gamma_fractal(Fraction(1, 3), sf) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert mittag_leffler(0.5, 0.5, 0.7) == pytest.approx(2.48128105534, abs=1e-11)
    (term,) = transform_power(Fraction(1, 2)).terms
    assert term.coeff == pytest.approx(math.gamma(1.5), rel=1e-15)
    assert (term.p, term.q) == (Fraction(-3, 2), 0)
    assert solve_example(1, sf).max_residual == pytest.approx(6e-8, rel=0.1)
