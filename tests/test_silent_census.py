"""Census of the known silent wrong answers.

Every public routine either returns a value within the gate of its kind of
an independent truth, or raises a package exception. Each row below states
that contract for one case where the routine today returns a wrong number
and says nothing, so each is a strict xfail naming the ROADMAP item that
should mend it: the row turns red the day it starts to pass, and the mend
removes its mark. `raises=AssertionError` keeps a crash from counting as the
known miss, so a row that wants an exception fails through a plain assert.
The unmarked rows are mended cases, kept so that they stay mended.

The truths never come from the code under test: the closed power rules,
closed integrals, an 80-digit `mpmath` series, a bracket of the quantile on
dyadic cells, and the F-derivative 0 of a function differentiable in x.
"""

import contextlib
import io
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from fractalcalc import (
    ConvergenceError,
    DomainError,
    IdentityMap,
    LaplaceTerm,
    OperatorKind,
    OperatorSpec,
    PoleError,
    Side,
    TailBoundError,
    beta_fractal,
    beta_fractal_quadrature,
    caputo_derivative,
    cli,
    f_alpha_derivative,
    f_alpha_integral,
    mittag_leffler,
    power_rule_derivative,
    power_rule_integral,
    rl_derivative,
    rl_integral,
    solve_example,
    transform_power,
    transform_rl_integral,
)

_REFUSALS = (DomainError, PoleError, ConvergenceError, TailBoundError)
# the power-rules gate of `verify`, relative
_OPERATOR_GATE = 2e-5
# the ml-special-cases gate of `verify`, relative past |E| = 1
_ML_GATE = 5e-10
# the level agreement of tanh-sinh, relative past 1
_INTEGRAL_GATE = 1e-12
# relative, a hundred times the beta-identities gate of `verify`
_BETA_GATE = 1e-12


def _census(item):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP item {item}")


def _right_or_refused(call, truth, bound):
    try:
        got = call()
    except _REFUSALS:
        return
    assert abs(got - truth) <= bound, f"returned {got!r}, truth {truth!r}"


def _refused(call):
    try:
        got = call()
    except _REFUSALS:
        return
    assert False, f"returned {got!r} where no value exists"


@_census(2)
@pytest.mark.parametrize("p, beta", [(1.2, 1.5), (1.2, 1.3), (1.05, 1.5), (1.5, 1.5)])
def test_caputo_of_a_power_above_order_one(sf, p, beta):
    # for 1 < p < 2 the Taylor head of S^p at 0 vanishes, so Caputo is RL
    spec = OperatorSpec(OperatorKind.CAPUTO, beta, 0.0)
    x = sf.quantile_exact(Fraction(1, 2))
    truth = power_rule_derivative(beta, p, sf, 0.0, x)
    call = lambda: caputo_derivative(spec, lambda t: sf.eval(t) ** p, sf, x)
    _right_or_refused(call, truth, _OPERATOR_GATE * abs(truth))


@_census(2)
def test_caputo_above_order_one_of_a_power_with_no_slope(sf):
    # S^0.7 has no first derivative at the terminal, so no order 1.5 Caputo derivative
    spec = OperatorSpec(OperatorKind.CAPUTO, 1.5, 0.0)
    x = sf.quantile_exact(Fraction(1, 2))
    _refused(lambda: caputo_derivative(spec, lambda t: sf.eval(t) ** 0.7, sf, x))


def _integral_right_or_refused(f, sf, b, truth):
    call = lambda: f_alpha_integral(f, sf, 0, b)
    _right_or_refused(call, truth, _INTEGRAL_GATE * max(1.0, abs(truth)))


@pytest.mark.parametrize(
    "eta, b", [(0.1, 1), (0.5, 1), (0.5, Fraction(5, 2))], ids=["0.1-to-1", "0.5-to-1", "0.5-to-2.5"]
)
def test_staircase_integral_of_a_power_of_s(sf, eta, b):
    # int_0^b S^eta dS = S(b)^(eta + 1) / (eta + 1), and S(5/2) = 2 + S(1/2) = 5/2
    truth = float(b) ** (eta + 1) / (eta + 1)
    _integral_right_or_refused(lambda x: sf.eval(x) ** eta, sf, b, truth)


def test_staircase_integral_of_exp_s(sf):
    _integral_right_or_refused(lambda x: math.exp(sf.eval(x)), sf, 3, math.expm1(3.0))


def test_staircase_integral_of_x_times_s(sf):
    # with U uniform and X = Q(U), U = sum b_k 2^-k and X = sum 2 b_k 3^-k
    # over fair bits b_k, so E[XU] = 2 (1/4) (1/2)(1) + 2 (1/4)(1/5) = 7/20
    _integral_right_or_refused(lambda x: float(x) * sf.eval(x), sf, 1, 7 / 20)


@pytest.mark.parametrize(
    "f, truth", [(lambda x: math.sqrt(float(x)), 2 / 3), (lambda x: abs(float(x) - 0.5), 1 / 4)],
    ids=["sqrt", "kink"],
)
def test_identity_integral(f, truth):
    _integral_right_or_refused(f, IdentityMap(), 1, truth)


def _ml_truth(eta, nu, z):
    with mpmath.workdps(80):
        eta, nu, z = mpmath.mpf(eta), mpmath.mpf(nu), mpmath.mpf(z)
        total, k = mpmath.mpf(0), 0
        while True:
            term = z**k * mpmath.rgamma(eta * k + nu)
            total += term
            if k > 10 and abs(term) < mpmath.mpf(10) ** -90:
                return float(total)
            k += 1


@_census(6)
@pytest.mark.parametrize(
    "eta, nu, z",
    [(1.0, 1.0, -20.0), (1.0, 1.0, -30.0), (0.5, 0.5, -6.0), (4 / 3, 4 / 3, -40.0)]
    + [(0.5, nu, -5.0) for nu in (0.5, 1.0, 4 / 3, 2.5)],
)
def test_mittag_leffler_at_negative_z(eta, nu, z):
    truth = _ml_truth(eta, nu, z)
    _right_or_refused(lambda: mittag_leffler(eta, nu, z), truth, _ML_GATE * max(1.0, abs(truth)))


@_census(15)
@pytest.mark.parametrize("eta, nu, z", [(1.0, 30.0, 50.0), (1.0, 20.0, 30.0), (0.5, 20.0, 5.0)])
def test_mittag_leffler_at_a_large_nu(eta, nu, z):
    # relative to the value: every term here lies far below 1, where the
    # ml gate times max(1, |truth|) is absolute and would pass any of them
    truth = _ml_truth(eta, nu, z)
    _right_or_refused(lambda: mittag_leffler(eta, nu, z), truth, 1e-12 * abs(truth))


@_census(11)
@pytest.mark.parametrize(
    "beta", [beta_fractal, beta_fractal_quadrature], ids=["closed", "quadrature"]
)
def test_beta_at_a_large_argument(beta):
    # B(1, s) = 1/s exactly; in closed form lgamma(s) - lgamma(1 + s) cancels
    s = 1e12
    _right_or_refused(lambda: beta(1.0, s), 1.0 / s, _BETA_GATE / s)


@_census(5)
@pytest.mark.parametrize("beta", [1.9, 1.95, 1.99])
def test_rl_derivative_near_order_two(sf, beta):
    spec = OperatorSpec(OperatorKind.RL_DERIVATIVE, beta, 0.0)
    x = sf.quantile_exact(Fraction(1, 5))
    truth = power_rule_derivative(beta, 0.25, sf, 0.0, x)
    call = lambda: rl_derivative(spec, lambda t: sf.eval(t) ** 0.25, sf, x)
    _right_or_refused(call, truth, _OPERATOR_GATE * abs(truth))


@_census(5)
@pytest.mark.parametrize(
    "beta, p, u",
    [(1.5, 0.3, Fraction(1, 50)), (1.5, 0.3, Fraction(1, 10)), (0.5, 7.0, Fraction(1, 10)),
     (3.7, 2.5, Fraction(1, 10)), (8.0, 7.0, Fraction(1, 10))],
)
def test_rl_integral_over_a_short_span(sf, beta, p, u):
    # every span under 1/8 gets the mesh's floor of 32 cells, however short it is
    spec = OperatorSpec(OperatorKind.RL_INTEGRAL, beta, 0.0)
    x = sf.quantile_exact(u)
    truth = power_rule_integral(beta, p, sf, 0.0, x)
    call = lambda: rl_integral(spec, lambda t: sf.eval(t) ** p, sf, x)
    _right_or_refused(call, truth, _OPERATOR_GATE * abs(truth))


@_census(5)
def test_right_sided_rl_integral_over_a_short_span(sf):
    # (S(b) - S)^0.3 from the right terminal b = Q(9/10), at u = 4/5: the power rule reflected
    b, x = sf.quantile_exact(Fraction(9, 10)), sf.quantile_exact(Fraction(4, 5))
    ub = sf.eval(b)
    spec = OperatorSpec(OperatorKind.RL_INTEGRAL, 1.5, b, Side.RIGHT)
    truth = power_rule_integral(1.5, 0.3, IdentityMap(), sf.eval(x), ub)
    call = lambda: rl_integral(spec, lambda t: (ub - sf.eval(t)) ** 0.3, sf, x)
    _right_or_refused(call, truth, _OPERATOR_GATE * abs(truth))


@pytest.mark.parametrize("beta", [1e-14, 1e-12])
def test_rl_integral_of_an_order_near_zero(sf, beta):
    # the kernel exponent beta - 1 keeps only the first digits of such an
    # order, so an integral order below 1e-9 is refused
    spec = lambda: OperatorSpec(OperatorKind.RL_INTEGRAL, beta, 0.0)
    x = sf.quantile_exact(Fraction(1, 2))
    truth = power_rule_integral(beta, 0.5, sf, 0.0, x)
    call = lambda: rl_integral(spec(), lambda t: sf.eval(t) ** 0.5, sf, x)
    _right_or_refused(call, truth, _OPERATOR_GATE * abs(truth))


@pytest.mark.parametrize(
    "call",
    [
        lambda sf: power_rule_integral(math.inf, 1.0, sf, 0, 0.5),
        lambda sf: power_rule_integral(0.5, math.inf, sf, 0, 0.5),
        lambda sf: power_rule_derivative(0.5, math.inf, sf, 0, 0.5),
        lambda sf: power_rule_derivative(math.inf, 1.0, sf, 0, 0.5),
        lambda sf: transform_power(math.inf),
        lambda sf: transform_rl_integral(transform_power(1), math.inf),
        lambda sf: transform_power(math.nan),
        lambda sf: LaplaceTerm(1.0, math.nan),
        lambda sf: solve_example(1, sf, grid=[]),
    ],
    ids=["integral-order-inf", "integral-power-inf", "derivative-power-inf", "derivative-order-inf",
         "transform-power-inf", "transform-integral-order-inf", "transform-power-nan", "term-power-nan",
         "solve-empty-grid"],
)
def test_an_argument_with_no_value_raises_a_domain_error(sf, call):
    # each asks for a value that does not exist: a package exception, not a
    # number, an OverflowError, a bare ValueError or numpy's empty-array error
    with pytest.raises(DomainError):
        call(sf)


@_census(3)
def test_rl_derivative_of_a_function_smooth_in_x(sf):
    # x^2 conjugated jumps at every dyadic u; past order log2(3) the finite part does not exist
    spec = OperatorSpec(OperatorKind.RL_DERIVATIVE, 1.7, 0.0)
    _refused(lambda: rl_derivative(spec, lambda t: float(t) ** 2, sf, 0.9))


@_census(12)
@pytest.mark.parametrize(
    "f, x",
    [(lambda x: float(x), Fraction(1, 3)), (lambda x: float(x), Fraction(1, 4)),
     (lambda x: float(x) ** 2, Fraction(3, 4))],
    ids=["x-at-1/3", "x-at-1/4", "x2-at-3/4"],
)
def test_f_alpha_derivative_of_a_function_smooth_in_x(sf, f, x):
    # along the set |y - x| falls like |S(y) - S(x)|^(log2(3)), so the
    # F-limit of the quotient is 0; at the gap's left end 1/3, y comes from
    # the left alone
    _right_or_refused(lambda: f_alpha_derivative(f, sf, x), 0.0, 1e-8)


def _half_integral_of_x2_bracket(u, n):
    """Bounds on (1/Gamma(1/2)) int_0^u (u - v)^(-1/2) Q(v)^2 dv.

    On the level-n dyadic cell k the quantile Q lies in [c_k, c_k + 3^-n],
    c_k the ternary number with digits twice the binary digits of k; the
    kernel is integrated exactly on each cell, so the two sums bracket it.
    """
    k = np.arange(2**n)
    c = sum(2.0 * ((k >> (n - 1 - j)) & 1) * 3.0 ** -(j + 1) for j in range(n))
    lo = k / 2**n
    keep = lo < u
    hi = np.minimum((k + 1) / 2**n, u)[keep]
    weight = 2.0 * (np.sqrt(u - lo[keep]) - np.sqrt(u - hi)) / math.sqrt(math.pi)
    c = c[keep]
    return float(weight @ (c * c)), float(weight @ (c + 3.0**-n) ** 2)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_right_or_refused(argv, truth):
    code, out, err = run_cli(argv)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return
    assert code == 0, (code, err)
    got = float(out.splitlines()[1].split(",")[1])
    assert abs(got - truth) <= _OPERATOR_GATE * abs(truth), f"printed {got!r}, truth {truth!r}"


@_census(2)
def test_cli_caputo_above_order_one(sf):
    truth = power_rule_derivative(1.5, 1.2, sf, 0.0, 0.5)
    _cli_right_or_refused(
        ["caputo", "--beta", "1.5", "--f", "S(x)^1.2", "--grid", "0.5", "0.5", "1"], truth
    )


@_census(2)
def test_cli_caputo_of_a_power_with_no_slope():
    code, out, err = run_cli(
        ["caputo", "--beta", "1.5", "--f", "S(x)^0.7", "--grid", "0.5", "0.5", "1"]
    )
    assert code == 1, f"exit {code}, printed {out!r}"
    assert err.startswith("error: ") and err.count("\n") == 1, err


@_census(3)
def test_cli_rl_integral_of_a_function_smooth_in_x(sf):
    # the level-16 bracket is 2.6e-8 wide, the gate 8.3e-6; the default order is 1/2
    lo, hi = _half_integral_of_x2_bracket(sf.eval(0.9), 16)
    assert hi - lo < 1e-7
    _cli_right_or_refused(["rl-int", "--f", "x^2", "--grid", "0.9", "0.9", "1"], (lo + hi) / 2)


@_census(5)
def test_cli_rl_integral_over_a_short_span(sf):
    # S(0.02) = 1/16, a span of the mesh's 32-cell floor
    truth = power_rule_integral(1.5, 0.3, sf, 0.0, 0.02)
    _cli_right_or_refused(
        ["rl-int", "--beta", "1.5", "--f", "S(x)^0.3", "--grid", "0.02", "0.02", "1"], truth
    )
