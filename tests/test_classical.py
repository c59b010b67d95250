"""Grunwald-Letnikov cross-check operators."""

import math

import pytest

from fractalcalc import DomainError
from fractalcalc.classical import (
    caputo_classical,
    gl_weights,
    rl_derivative_classical,
    rl_integral_classical,
)


class TestWeights:
    def test_negative_power_weights_are_the_geometric_series(self):
        # (1 - t)^(-1) = 1 + t + t^2 + ...
        w = gl_weights(-1.0, 5)
        assert w == pytest.approx([1.0, 1.0, 1.0, 1.0, 1.0])

    def test_first_power_weights_end_after_two_terms(self):
        # (1 - t)^1 = 1 - t
        w = gl_weights(1.0, 4)
        assert w == pytest.approx([1.0, -1.0, 0.0, 0.0])

    def test_half_power_weights_head(self):
        # (1 - t)^(1/2) = 1 - t/2 - t^2/8 - ...
        w = gl_weights(0.5, 3)
        assert w == pytest.approx([1.0, -0.5, -0.125])

    def test_weights_are_built_once_and_read_only(self):
        w = gl_weights(0.3, 6)
        assert gl_weights(0.3, 6) is w
        with pytest.raises(ValueError):
            w[1] = 0.0
        assert w[1] == -0.3


class TestIntegral:
    def test_power_function(self):
        # oracle: mpmath, I^0.5 of t^2 from 0 at x = 0.8:
        # Gamma(3)/Gamma(3.5) * 0.8^2.5 = 0.34449169367315252
        got = rl_integral_classical(lambda t: t * t, 0.0, 0.8, 0.5)
        assert got == pytest.approx(0.34449169367315252, rel=1e-6)

    def test_order_one_is_plain_integration(self):
        got = rl_integral_classical(lambda t: math.cos(t), 0.0, 1.2, 1.0)
        assert got == pytest.approx(math.sin(1.2), rel=1e-7)

    def test_constant(self):
        # I^beta 1 = x^beta / Gamma(beta + 1)
        got = rl_integral_classical(lambda t: 1.0, 0.0, 1.0, 0.3)
        assert got == pytest.approx(1.0 / math.gamma(1.3), rel=1e-7)

    def test_validation(self):
        with pytest.raises(DomainError):
            rl_integral_classical(lambda t: 1.0, 0.0, 1.0, -0.5)
        with pytest.raises(DomainError):
            rl_integral_classical(lambda t: 1.0, 1.0, 0.5, 0.5)


class TestDerivative:
    def test_power_function(self):
        # oracle: mpmath, D^0.5 of t^2 from 0 at x = 0.8:
        # Gamma(3)/Gamma(2.5) * 0.8^1.5 = 1.0765365427286016
        got = rl_derivative_classical(lambda t: t * t, 0.0, 0.8, 0.5)
        assert got == pytest.approx(1.0765365427286016, rel=1e-6)

    def test_constant_does_not_vanish(self):
        # RL derivative of 1 is x^(-beta) / Gamma(1 - beta)
        got = rl_derivative_classical(lambda t: 1.0, 0.0, 0.5, 0.5)
        want = 0.5**-0.5 / math.gamma(0.5)
        assert got == pytest.approx(want, rel=1e-6)

    def test_above_order_one(self):
        # oracle: mpmath, D^1.5 of t^2 from 0 at x = 0.8:
        # Gamma(3)/Gamma(1.5) * 0.8^0.5 = 2.018506017616127 for the RL form
        got = rl_derivative_classical(lambda t: t * t, 0.0, 0.8, 1.5)
        assert got == pytest.approx(2.018506017616128, rel=1e-5)


class TestCaputo:
    def test_constant_annihilated(self):
        got = caputo_classical(lambda t: 7.0, 0.0, 0.8, 0.5)
        assert got == pytest.approx(0.0, abs=1e-6)

    def test_power_function_matches_rl_when_zero_at_base(self):
        # f(a) = 0 makes Caputo and RL agree for 0 < beta < 1
        rl = rl_derivative_classical(lambda t: t * t, 0.0, 0.8, 0.5)
        cap = caputo_classical(lambda t: t * t, 0.0, 0.8, 0.5)
        assert cap == pytest.approx(rl, rel=1e-4)

    def test_above_order_one(self):
        # oracle: mpmath, C^1.5 of t^2 from 0 at x = 0.8 equals the RL value
        # because f(0) = f'(0) = 0: 2.018506017616128
        got = caputo_classical(lambda t: t * t, 0.0, 0.8, 1.5)
        assert got == pytest.approx(2.018506017616128, rel=1e-4)

    def test_constant_shift_removed(self):
        # for 0 < beta < 1 only the value at the base point is subtracted
        base = caputo_classical(lambda t: t * t, 0.0, 0.7, 0.4)
        shifted = caputo_classical(lambda t: 3.0 + t * t, 0.0, 0.7, 0.4)
        assert shifted == pytest.approx(base, rel=1e-5, abs=1e-6)

    def test_linear_part_removed_above_order_one(self):
        # for 1 < beta < 2 the linear Taylor head is subtracted as well
        base = caputo_classical(lambda t: t * t, 0.0, 0.7, 1.4)
        shifted = caputo_classical(lambda t: 3.0 - 2.0 * t + t * t, 0.0, 0.7, 1.4)
        assert shifted == pytest.approx(base, rel=1e-3, abs=1e-4)

    @pytest.mark.parametrize("beta", [0.4, 1.4])
    def test_head_on_the_node_array_keeps_the_scalar_loop_bits(self, beta):
        # reference: RL of the remainder, its Taylor head summed per node
        f, a, h = math.exp, 0.1, 1e-5
        n = math.ceil(beta)
        derivs = [f(a), (f(a + h) - f(a - h)) / (2.0 * h)][:n]

        def remainder(t):
            return f(t) - sum(derivs[j] * (t - a) ** j / math.factorial(j) for j in range(n))

        want = rl_derivative_classical(remainder, a, 0.9, beta)
        assert caputo_classical(f, a, 0.9, beta).hex() == want.hex()

    def test_orders_above_two_refused(self):
        # the head holds f(a) and f'(a) only, which order 2.5 would silently miss
        with pytest.raises(DomainError):
            caputo_classical(lambda t: t * t, 0.0, 0.8, 2.5)
