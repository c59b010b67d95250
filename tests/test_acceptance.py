"""End-to-end acceptance gate.

Each test runs one verification check at its stated tolerance and prints a
single PASS/FAIL line with the measured value, mirroring the `verify` CLI.
Run with `pytest -s` to see the lines interleaved; plain runs capture them.
"""

import sys

from fractalcalc import cli
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
