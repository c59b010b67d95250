"""Verification suite: nine checks, each printing pass/fail with the
measured value against its tolerance.

The checks cover staircase exactness, the Beta identities, Mittag-Leffler
special cases, the power rules, the four composition identities, the
transform rules, classical degeneration against an independent
Grunwald-Letnikov implementation, the four worked example problems, and
byte-level determinism of the figure datasets.
"""

from __future__ import annotations

import random
import time

from dataclasses import dataclass, field
from fractions import Fraction

from . import classical
from .laplace import laplace_numeric, transform_power, transform_rl_integral
from .nonlocal_ops import (
    OperatorKind,
    OperatorSpec,
    Side,
    caputo_derivative,
    composition_residual,
    evaluate_u,
    power_rule_derivative,
    power_rule_integral,
    rl_derivative,
    rl_integral,
)
from .special import (
    beta_fractal_quadrature,
    gamma_classical,
    ml_special_case_residuals,
)
from .staircase import CantorSpec, IdentityMap, StaircaseFn
from .solutions import gap_plateau_spread, solve_example, variant_audit

_SEED = 20260814


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    details: tuple[str, ...] = field(default_factory=tuple)


def _result(name, measured, tolerance, details=()):
    return CheckResult(name, measured <= tolerance, measured, tolerance, tuple(details))


def check_staircase_exactness() -> CheckResult:
    sf = StaircaseFn(CantorSpec())
    fixed = {
        Fraction(0): Fraction(0),
        Fraction(1, 4): Fraction(1, 3),
        Fraction(1, 3): Fraction(1, 2),
        Fraction(1, 2): Fraction(1, 2),
        Fraction(2, 3): Fraction(1, 2),
        Fraction(1): Fraction(1),
    }
    worst = 0.0
    for x, want in fixed.items():
        worst = max(worst, abs(float(sf.eval_exact(x) - want)))
    rng = random.Random(_SEED)
    for _ in range(1000):
        den = rng.randint(2, 10**9)
        x = Fraction(rng.randint(0, den), den)
        sym = abs(float(sf.eval_exact(x) + sf.eval_exact(1 - x) - 1))
        ss = abs(float(sf.eval_exact(x / 3) - sf.eval_exact(x) / 2))
        worst = max(worst, sym, ss)
    return _result("staircase-exactness", worst, 2.0**-50)


def check_beta_identities() -> CheckResult:
    worst = 0.0
    grid = (0.5, 1.0, 1.5, 2.0)
    for r in grid:
        for w in grid:
            q = beta_fractal_quadrature(r, w)
            ref = gamma_classical(r) * gamma_classical(w) / gamma_classical(r + w)
            worst = max(worst, abs(q - ref) / ref)
            worst = max(worst, abs(q - beta_fractal_quadrature(w, r)))
    return _result("beta-identities", worst, 1e-14)


def check_ml_special_cases() -> CheckResult:
    zs = [3.0 * k / 63 for k in range(-63, 64)]
    residuals = ml_special_case_residuals(zs)
    worst = max(residuals.values())
    details = tuple(f"{k}: {v:.3e}" for k, v in residuals.items())
    return _result("ml-special-cases", worst, 5e-10, details)


def check_power_rules() -> CheckResult:
    sf = StaircaseFn(CantorSpec())
    us = [Fraction(9 + 4 * i, 45) for i in range(10)]
    xs = [float(sf.quantile_exact(u)) for u in us]
    worst = 0.0
    for beta in (0.3, 0.5):
        int_spec = OperatorSpec(OperatorKind.RL_INTEGRAL, beta, terminal=0.0)
        der_spec = OperatorSpec(OperatorKind.RL_DERIVATIVE, beta, terminal=0.0)
        for eta in (0.0, 0.5, 1.0, 2.0):
            def f(x, _eta=eta):
                return sf.eval(x) ** _eta

            for x in xs:
                closed = power_rule_integral(beta, eta, sf, 0.0, x)
                got = rl_integral(int_spec, f, sf, x)
                worst = max(worst, abs(got - closed) / abs(closed))
                closed = power_rule_derivative(beta, eta, sf, 0.0, x)
                got = rl_derivative(der_spec, f, sf, x)
                worst = max(worst, abs(got - closed) / abs(closed))
    return _result("power-rules", worst, 2e-5)


def check_compositions() -> CheckResult:
    sf = StaircaseFn(CantorSpec())

    def f(x):
        return sf.eval(x) ** 2

    # Below order 1 a Caputo kind composes on the RL kind's own remainder,
    # with the same bits, so the Caputo kinds run above order 1.
    details = []
    worst = 0.0
    for name, kind, beta in (("rl", OperatorKind.RL_DERIVATIVE, 0.5), ("caputo", OperatorKind.CAPUTO, 1.5)):
        for side, terminal, end in ((Side.LEFT, 0.0, 1.0), (Side.RIGHT, 1.0, 0.0)):
            res = composition_residual(OperatorSpec(kind, beta, terminal, side), f, sf, end)
            details.append(f"{name}_{side.value}, order {beta}: {res:.3e}")
            worst = max(worst, res)
    return _result("composition-identities", worst, 6e-6, details)


def check_laplace_rules() -> CheckResult:
    sf = StaircaseFn(CantorSpec())
    worst = 0.0
    for beta in (0.0, 0.5, 1.0, 2.0):
        def f(x, _b=beta):
            return sf.eval(x) ** _b

        for sigma in (1.0, 2.0, 5.0):
            got = laplace_numeric(f, sf, sigma)
            want = transform_power(beta).value(sigma)
            worst = max(worst, abs(got - want) / want)
    power_worst = worst

    # I^(1/2) S, the integral of g(u) = u taken in u at each transform node
    spec = OperatorSpec(OperatorKind.RL_INTEGRAL, 0.5, terminal=0.0)
    integral_worst = 0.0
    for sigma in (1.0, 2.0):
        got = laplace_numeric(
            lambda x: evaluate_u(spec, lambda v: v, sf, sf.eval(x)), sf, sigma
        )
        want = transform_rl_integral(transform_power(1), 0.5).value(sigma)
        integral_worst = max(integral_worst, abs(got - want) / want)
    details = (f"power rule: {power_worst:.3e}", f"integral rule: {integral_worst:.3e}")
    return _result("laplace-rules", max(power_worst, integral_worst), 1e-13, details)


def check_classical_degeneration() -> CheckResult:
    ident = IdentityMap()
    xs = (0.3, 0.55, 0.8, 1.0)
    worst = 0.0
    for beta in (0.3, 0.5, 0.8):
        int_spec = OperatorSpec(OperatorKind.RL_INTEGRAL, beta, terminal=0.0)
        der_spec = OperatorSpec(OperatorKind.RL_DERIVATIVE, beta, terminal=0.0)
        cap_spec = OperatorSpec(OperatorKind.CAPUTO, beta, terminal=0.0)
        for k in (0, 1, 2):
            def f(x, _k=k):
                return float(x) ** _k

            for x in xs:
                pairs = (
                    (rl_integral(int_spec, f, ident, x),
                     classical.rl_integral_classical(f, 0.0, x, beta)),
                    (rl_derivative(der_spec, f, ident, x),
                     classical.rl_derivative_classical(f, 0.0, x, beta)),
                    (caputo_derivative(cap_spec, f, ident, x),
                     classical.caputo_classical(f, 0.0, x, beta)),
                )
                for got, ref in pairs:
                    worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    return _result("classical-degeneration", worst, 3e-7)


def check_examples() -> CheckResult:
    sf = StaircaseFn(CantorSpec())
    details = []
    worst = 0.0
    structure_ok = True
    plateau_worst = 0.0
    for example_id in (1, 2, 3, 4):
        report = solve_example(example_id, sf=sf)
        worst = max(worst, report.max_residual)
        plateau_worst = max(plateau_worst, abs(gap_plateau_spread(report)))
        deviation, variant_residual, _ = variant_audit(report)
        details.append(
            f"example {example_id}: residual {report.max_residual:.3e}, "
            f"variant deviation {deviation:.3e}, variant residual {variant_residual:.3e}"
        )
        if example_id == 4:
            triples = sorted(
                (t.ml_eta, t.ml_nu, t.power) for t in report.derived_terms
            )
            want = sorted(
                [
                    (Fraction(4, 3), Fraction(4, 3), Fraction(1, 3)),
                    (Fraction(4, 3), Fraction(5, 6), Fraction(-1, 6)),
                    (Fraction(4, 3), Fraction(13, 3), Fraction(10, 3)),
                ]
            )
            structure_ok = triples == want
            details.append(
                "example 4 basis: "
                + ", ".join(
                    f"coeff {t.coeff:g} * S^({t.power}) * E_({t.ml_eta},{t.ml_nu})"
                    for t in report.derived_terms
                )
            )
    details.append(f"gap plateau spread: {plateau_worst:.3e}")
    if not structure_ok:
        details.append("example 4 does not carry the expected three-term basis")
    passed = worst <= 5e-5 and structure_ok and plateau_worst <= 1e-12
    return CheckResult("example-problems", passed, worst, 5e-5, tuple(details))


def check_determinism() -> CheckResult:
    from .figures import build_figures

    runs = [[f for fig in build_figures() for f in fig.csv_files] for _ in range(2)]
    same = runs[0] == runs[1]
    return CheckResult(
        "figure-determinism",
        same,
        0.0 if same else 1.0,
        0.0,
        (f"{len(runs[0])} csv datasets compared byte for byte",),
    )


_CHECKS = (
    check_staircase_exactness,
    check_beta_identities,
    check_ml_special_cases,
    check_power_rules,
    check_compositions,
    check_laplace_rules,
    check_classical_degeneration,
    check_examples,
    check_determinism,
)


def run_all() -> bool:
    """Run every check; print one line per check; True when all pass."""
    all_pass = True
    t0 = time.time()
    for check in _CHECKS:
        t = time.time()
        result = check()
        elapsed = time.time() - t
        status = "PASS" if result.passed else "FAIL"
        print(
            f"{status} {result.name}: measured {result.measured:.3e} "
            f"(tolerance {result.tolerance:.3e}) [{elapsed:.1f}s]"
        )
        for line in result.details:
            print(f"     {line}")
        all_pass = all_pass and result.passed
    print(f"{'PASS' if all_pass else 'FAIL'} overall [{time.time() - t0:.1f}s]")
    return all_pass
