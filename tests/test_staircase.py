"""Staircase digit algorithms: exactness, properties, extensions."""

import contextlib
import copy
import math
import pickle
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalcalc import (
    CantorSpec,
    DomainError,
    IdentityMap,
    StaircaseFn,
    prefractal_intervals,
)
from fractalcalc import staircase
from fractalcalc.staircase import _pow3, _unit_digits, _unit_quantile_scaled


rationals_01 = st.fractions(min_value=0, max_value=1)


# -- reference kernels ---------------------------------------------------------
# The one-digit-per-step loops the block kernels replaced, kept unchanged as the
# oracle the block kernels must match exactly.


def _reference_staircase_scaled(num: int, den: int, depth: int) -> int:
    acc = 0
    if den & (den - 1) == 0:
        # terminating binary expansion: digit extraction is shift/mask
        k = den.bit_length() - 1
        mask = den - 1
        for i in range(depth):
            num *= 3
            d = num >> k
            num &= mask
            if d == 1:
                return (acc << (depth - i)) | (1 << (depth - i - 1))
            acc = (acc << 1) | (d >> 1)
            if not num:
                return acc << (depth - i - 1)
        return acc
    for i in range(depth):
        num *= 3
        d, num = divmod(num, den)
        if d == 1:
            return (acc << (depth - i)) | (1 << (depth - i - 1))
        acc = (acc << 1) | (d >> 1)
        if not num:
            return acc << (depth - i - 1)
    return acc


def _reference_membership(num: int, den: int, depth: int) -> bool:
    if den & (den - 1) == 0:
        k = den.bit_length() - 1
        mask = den - 1
        for _ in range(depth):
            num *= 3
            d = num >> k
            num &= mask
            if d == 1:
                return num == 0
            if not num:
                return True
        return True
    for _ in range(depth):
        num *= 3
        d, num = divmod(num, den)
        if d == 1:
            return num == 0
        if not num:
            return True
    return True


def _reference_quantile_scaled(num: int, den: int, depth: int) -> int:
    acc = 0
    for i in range(depth):
        num *= 2
        if num >= den:
            acc = acc * 3 + 2
            num -= den
        else:
            acc *= 3
        if not num:
            return acc * _pow3(depth - i - 1)
    return acc


def _ternary(trits: list[int]) -> tuple[int, int]:
    """0.t1 t2 ... tn in base 3, as (numerator, 3**n)."""
    num = 0
    for t in trits:
        num = 3 * num + t
    return num, 3 ** len(trits)


# Float inputs reach the kernels with denominators up to 2**1074 (denormal u
# from tanh-sinh); quantile outputs have denominators 3**k; the rest covers
# arbitrary rationals.
denominators = st.one_of(
    st.integers(0, 1100).map(lambda k: 2**k),
    st.integers(0, 120).map(lambda k: 3**k),
    st.tuples(st.integers(0, 80), st.integers(1, 10**6)).map(lambda km: 3 ** km[0] * km[1]),
    st.integers(1, 10**30),
)
unit_ratios = st.one_of(
    denominators.flatmap(lambda den: st.tuples(st.integers(0, den - 1), st.just(den))),
    # terminating ternary expansions: gap endpoints, points of the set, ones
    # followed by zeros
    st.lists(st.integers(0, 2), max_size=90).map(_ternary),
)
depths = st.integers(1, 80)


class TestBlockKernels:
    @given(ratio=unit_ratios, depth=depths)
    @settings(max_examples=1000, deadline=None)
    def test_match_one_digit_reference(self, ratio, depth):
        num, den = ratio
        scaled, member = _unit_digits(num, den, depth)
        assert scaled == _reference_staircase_scaled(num, den, depth)
        assert member is _reference_membership(num, den, depth)
        assert _unit_quantile_scaled((num << depth) // den, depth) == _reference_quantile_scaled(num, den, depth)

    @given(
        x=st.one_of(
            st.floats(-4.0, 4.0, allow_nan=False),
            st.fractions(min_value=-4, max_value=4, max_denominator=10**30),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_float_wrappers_round_the_exact_values(self, sf, x):
        assert sf.eval(x) == float(sf.eval_exact(x))


class TestEvalExact:
    def test_fixed_points(self, sf):
        # oracle: hand ternary expansions; 1/4 = 0.020202..._3 -> 0.010101.._2 = 1/3
        cases = {
            Fraction(0): Fraction(0),
            Fraction(1, 4): Fraction(1, 3),
            Fraction(1, 3): Fraction(1, 2),
            Fraction(1, 2): Fraction(1, 2),
            Fraction(2, 3): Fraction(1, 2),
            Fraction(1): Fraction(1),
        }
        for x, want in cases.items():
            got = sf.eval_exact(x)
            assert abs(got - want) <= Fraction(1, 2**53), (x, got)

    def test_truncation_is_one_sided(self, sf):
        # truncated transcription never exceeds the true value
        x = Fraction(1, 4)
        assert sf.eval_exact(x) <= Fraction(1, 3)

    def test_shallow_depth_error_bound(self):
        shallow = StaircaseFn(CantorSpec(digit_depth=10))
        deep = StaircaseFn(CantorSpec())
        x = Fraction(1, 7)
        assert abs(shallow.eval_exact(x) - deep.eval_exact(x)) <= Fraction(1, 2**10)

    def test_float_argument_uses_exact_binary_value(self, sf):
        assert sf.eval(0.25) == pytest.approx(1.0 / 3.0, abs=2**-52)
        assert sf.eval(1.0) == 1.0

    @given(x=rationals_01)
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, sf, x):
        assert abs(float(sf.eval_exact(x) + sf.eval_exact(1 - x) - 1)) < 2**-50

    @given(x=rationals_01)
    @settings(max_examples=200, deadline=None)
    def test_self_similarity(self, sf, x):
        assert abs(float(sf.eval_exact(x / 3) - sf.eval_exact(x) / 2)) < 2**-50

    @given(x=rationals_01, y=rationals_01)
    @settings(max_examples=200, deadline=None)
    def test_monotone(self, sf, x, y):
        if x <= y:
            assert sf.eval_exact(x) <= sf.eval_exact(y)
        else:
            assert sf.eval_exact(x) >= sf.eval_exact(y)

    def test_gap_plateau(self, sf):
        # constant at 1/2 across the central deleted third
        for x in (Fraction(2, 5), Fraction(1, 2), Fraction(3, 5)):
            assert sf.eval_exact(x) == Fraction(1, 2)


class TestQuantile:
    def test_known_preimages(self, sf):
        assert sf.quantile_exact(Fraction(1, 2)) == Fraction(2, 3)
        assert sf.quantile_exact(Fraction(1)) == 1
        assert sf.quantile_exact(Fraction(0)) == 0

    @given(u=rationals_01)
    @settings(max_examples=200, deadline=None)
    def test_right_inverse(self, sf, u):
        x = sf.quantile_exact(u)
        assert abs(float(sf.eval_exact(x) - u)) < 2**-50

    @given(u=rationals_01)
    @settings(max_examples=100, deadline=None)
    def test_quantile_lands_on_the_set(self, sf, u):
        assert sf.membership(sf.quantile_exact(u))

    def test_float_round_trip_tolerance(self, sf):
        u = 0.7
        x = float(sf.quantile_exact(u))
        assert sf.eval(x) == pytest.approx(u, abs=2**-33)


@contextlib.contextmanager
def _kernel_calls():
    """Record every call of the ternary digit walker made inside the block."""
    calls = []
    kernel = staircase._unit_digits

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    staircase._unit_digits = counted
    try:
        yield calls
    finally:
        staircase._unit_digits = kernel


def _same_bits(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _truncated(u, depth: int) -> Fraction:
    """u truncated toward zero to depth binary digits: S(quantile(u))."""
    u = Fraction(u)
    scaled = math.floor(abs(u) * 2**depth)
    return Fraction(-scaled if u < 0 else scaled, 2**depth)


class TestQuantileRoundTrip:
    """S of a quantile output is read from the quantile, not from its digits."""

    @given(
        u=st.one_of(
            st.floats(-6.0, 6.0, allow_nan=False),
            st.fractions(min_value=-6, max_value=6, max_denominator=10**30),
            st.integers(-5, 5),
        ),
        depth=depths,
    )
    @settings(max_examples=500, deadline=None)
    def test_fresh_output_matches_the_kernel(self, u, depth):
        sf = StaircaseFn(CantorSpec(depth))
        x = sf.quantile_exact(u)
        copy = Fraction(x.numerator, x.denominator)
        assert copy is not x
        with _kernel_calls() as calls:
            fast_exact, fast = sf.eval_exact(x), sf.eval(x)
        assert not calls
        with _kernel_calls() as calls:
            slow_exact, slow = sf.eval_exact(copy), sf.eval(copy)
        assert len(calls) == 2
        assert type(fast_exact) is Fraction
        assert fast_exact == slow_exact == _truncated(u, depth)
        assert _same_bits(fast, slow)
        assert _same_bits(fast, float(fast_exact))
        assert _same_bits(slow, float(slow_exact))

    def test_interleaved_quantiles(self, sf):
        a = sf.quantile_exact(Fraction(1, 3))
        b = sf.quantile_exact(0.7)
        with _kernel_calls() as calls:
            assert sf.eval_exact(a) == _truncated(Fraction(1, 3), 53)
            assert sf.eval(a) == float(_truncated(Fraction(1, 3), 53))
            assert sf.eval_exact(b) == Fraction(0.7)
        assert not calls

    def test_instances_never_share_a_value(self):
        deep, shallow = StaircaseFn(CantorSpec(60)), StaircaseFn(CantorSpec(5))
        u = Fraction(5, 7)
        x_deep = deep.quantile_exact(u)
        x_shallow = shallow.quantile_exact(u)
        with _kernel_calls() as calls:
            assert shallow.eval_exact(x_deep) == shallow.eval_exact(Fraction(x_deep))
            assert deep.eval_exact(x_shallow) == deep.eval_exact(Fraction(x_shallow))
        assert len(calls) == 4
        assert deep.eval_exact(x_deep) == _truncated(u, 60)
        assert shallow.eval_exact(x_shallow) == _truncated(u, 5)

    def test_a_quantile_of_another_depth_reads_digits(self):
        deep, shallow = StaircaseFn(CantorSpec(60)), StaircaseFn(CantorSpec(5))
        x_deep, x_shallow = deep.quantile_exact(Fraction(5, 7)), shallow.quantile_exact(Fraction(5, 7))
        with _kernel_calls() as calls:
            assert _same_bits(shallow.eval(x_deep), float(_truncated(Fraction(5, 7), 5)))
            assert _same_bits(deep.eval(x_shallow), deep.eval(Fraction(x_shallow)))
        assert len(calls) == 3

    def test_threads_sharing_one_instance(self):
        sf = StaircaseFn(CantorSpec())
        us = [Fraction(k, 97) for k in range(1, 9)]
        errors = []

        def work(u):
            try:
                for _ in range(300):
                    x = sf.quantile_exact(u)
                    if sf.eval_exact(x) != _truncated(u, 53):
                        errors.append(u)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(u,)) for u in us]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_threads_racing_on_a_first_read(self, sf):
        # threads reading the same unread batch elements each fill them with
        # the scalar call's parts, whichever writes first
        u = np.linspace(0.01, 1.9, 64)
        want = [(x.numerator, x.denominator) for x in map(sf.quantile_exact, u.tolist())]
        seen = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                batch = list(sf.quantiles_exact(u))
                work = lambda: seen.append([(x.numerator, x.denominator) for x in batch])
                threads = [threading.Thread(target=work) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) == 80 and all(parts == want for parts in seen)

    def test_slot_is_not_part_of_the_value(self, sf):
        fresh = StaircaseFn(CantorSpec())
        sf.quantile_exact(Fraction(2, 9))
        assert sf == fresh and hash(sf) == hash(fresh)
        assert repr(sf) == repr(fresh)

    @pytest.mark.parametrize("depth", [1, 53, 54, 80])
    @pytest.mark.parametrize("u", [Fraction(1, 3), -2.6, Fraction(-41, 7), 3, 0.0, 1e-300])
    def test_float_is_the_rounded_exact_value_on_both_paths(self, depth, u):
        sf = StaircaseFn(CantorSpec(depth))
        x = sf.quantile_exact(u)
        assert _same_bits(sf.eval(x), float(sf.eval_exact(x)))
        copy = Fraction(x)
        assert _same_bits(sf.eval(copy), float(sf.eval_exact(copy)))

    def test_copies_and_pickles_are_plain_fractions(self, sf):
        # the batch element is copied before anything has read its numerator
        scalar = lambda: sf.quantile_exact(Fraction(5, 7))
        batch = lambda: next(sf.quantiles_exact(np.array([5 / 7])))
        makers = (copy.copy, copy.deepcopy, lambda x: copy.deepcopy([x])[0], lambda x: pickle.loads(pickle.dumps(x)))
        for fresh, want in ((scalar, scalar()), (batch, sf.quantile_exact(5 / 7))):
            for make in makers:
                y = make(fresh())
                assert type(y) is Fraction and y == want and hash(y) == hash(want)
                assert _same_bits(sf.eval(y), sf.eval(want))
                assert sf.eval_exact(y) == sf.eval_exact(want)
            assert repr(fresh()) == repr(Fraction(want))

    @pytest.mark.parametrize(
        "read",
        [
            float,
            hash,
            repr,
            lambda x: x == Fraction(2, 3),
            lambda x: x < 0.5,
            lambda x: 0.5 < x,
            lambda x: x + 1,
            lambda x: 3 * x,
            lambda x: x / Fraction(7, 2),
            lambda x: x**2,
            lambda x: (x.numerator, x.denominator),
        ],
        ids=["float", "hash", "repr", "eq", "lt", "gt", "add", "mul", "div", "pow", "parts"],
    )
    @pytest.mark.parametrize("u", [0.37, -2.6, 0.0, 1.5, 2.0**-30])
    def test_an_unread_batch_element_is_the_scalar_fraction(self, sf, read, u):
        # each read meets a batch element that nothing has read before
        x = next(sf.quantiles_exact(np.array([u])))
        got, want = read(x), read(sf.quantile_exact(u))
        assert got == want and type(got) is type(want)

    def test_an_unread_batch_element_has_no_other_attribute(self, sf):
        x = next(sf.quantiles_exact(np.array([0.37])))
        assert hasattr(x, "missing") is False
        with pytest.raises(AttributeError):
            x.missing
        assert hasattr(x, "_numerator") and x == sf.quantile_exact(0.37)


def _oracle_parts(x) -> tuple[bool, int, int, int]:
    """x as (negative, whole, num, den) with |x| = whole + num/den, num < den."""
    num, den = Fraction(x).as_integer_ratio()
    whole, rest = divmod(abs(num), den)
    return num < 0, whole, rest, den


def _same_parts(got: Fraction, want: Fraction, cls: type = staircase._Quantile) -> bool:
    return (
        type(got) is cls
        and type(got.numerator) is int
        and type(got.denominator) is int
        and (got.numerator, got.denominator, hash(got)) == (want.numerator, want.denominator, hash(want))
    )


# every float, tiled and negative ones included, and rationals beside them
exact_arguments = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.fractions(min_value=-6, max_value=6, max_denominator=10**30),
    st.integers(-(10**20), 10**20),
)


class TestCoprimeConstruction:
    """The results built without a gcd are the Fractions the gcd would build."""

    @given(x=exact_arguments, depth=depths)
    @settings(max_examples=500, deadline=None)
    def test_eval_exact_is_the_reduced_fraction(self, x, depth):
        negative, whole, num, den = _oracle_parts(x)
        scaled = (whole << depth) + _reference_staircase_scaled(num, den, depth)
        want = Fraction(-scaled if negative else scaled, 2**depth)
        assert _same_parts(StaircaseFn(CantorSpec(depth)).eval_exact(x), want, Fraction)

    @given(u=exact_arguments, depth=depths)
    @settings(max_examples=500, deadline=None)
    def test_quantile_exact_is_the_reduced_fraction(self, u, depth):
        negative, whole, num, den = _oracle_parts(u)
        scaled = whole * 3**depth + _reference_quantile_scaled(num, den, depth)
        want = Fraction(-scaled if negative else scaled, 3**depth)
        assert _same_parts(StaircaseFn(CantorSpec(depth)).quantile_exact(u), want)


# floats of every kind the batch must split exactly: signed zeros,
# subnormals, exact dyadics, integers and values past 2**52
batch_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, 0.5, 2.0**52, 2.0**53 + 2.0]),
    st.floats(-8.0, 8.0, allow_nan=False),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**20), 2**20).map(lambda k: k / 1024),
    st.integers(-100, 100).map(float),
    st.floats(2.0**52, 1e300).flatmap(lambda v: st.sampled_from([v, -v])),
)
batch_depths = st.sampled_from([1, 10, 53, 62, 63, 80])


class TestBatchQuantile:
    """``quantiles_exact`` is the scalar loop, result for result and carried value for carried value."""

    @given(
        values=st.lists(batch_floats, max_size=40),
        depth=batch_depths,
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_the_scalar_loop(self, values, depth):
        spec = CantorSpec(depth)
        sf, scalar = StaircaseFn(spec), StaircaseFn(spec)
        count = 0
        for x, v in zip(sf.quantiles_exact(np.array(values, dtype=np.float64)), values, strict=True):
            want = scalar.quantile_exact(v)
            assert _same_parts(x, want)
            assert x._depth == want._depth == depth
            assert type(x._s) is int and x._s == want._s
            assert _same_bits(x._value, want._value)
            count += 1
        assert count == len(values)

    @given(
        values=st.lists(batch_floats, max_size=40),
        depth=batch_depths,
    )
    @settings(max_examples=300, deadline=None)
    def test_carried_value_has_the_kernel_bits(self, values, depth):
        # S of a quantile, batch or scalar, is read from it with no digit,
        # and has the bits the kernel gives for the same value
        sf = StaircaseFn(CantorSpec(depth))
        batch = list(sf.quantiles_exact(np.array(values, dtype=np.float64)))
        for x in batch + [sf.quantile_exact(v) for v in values]:
            with _kernel_calls() as calls:
                fast, fast_exact = sf.eval(x), sf.eval_exact(x)
            assert not calls
            plain = Fraction(x)
            with _kernel_calls() as calls:
                slow, slow_exact = sf.eval(plain), sf.eval_exact(plain)
            assert len(calls) == 2
            assert _same_bits(fast, slow)
            assert _same_parts(fast_exact, slow_exact, Fraction)

    @pytest.mark.parametrize("dtype", [np.int64, np.float32, np.float16])
    def test_other_dtypes_take_the_scalar_call(self, sf, dtype):
        a = np.array([0, 1, 2, -3], dtype=dtype)
        got = list(sf.quantiles_exact(a))
        want = [sf.quantile_exact(v) for v in a.tolist()]
        assert all(_same_parts(x, w) for x, w in zip(got, want, strict=True))

    @pytest.mark.parametrize("depth", [53, 80])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refused_element_raises_the_scalar_error(self, depth, bad):
        sf = StaircaseFn(CantorSpec(depth))
        a = np.array([0.25, 0.5, bad, 0.75, math.nan])
        with pytest.raises(DomainError) as scalar:
            [sf.quantile_exact(v) for v in a.tolist()]
        batch = sf.quantiles_exact(a)
        assert [next(batch), next(batch)] == [sf.quantile_exact(0.25), sf.quantile_exact(0.5)]
        with pytest.raises(DomainError) as batched:
            next(batch)
        assert type(batched.value) is type(scalar.value)
        assert str(batched.value) == str(scalar.value)

    @pytest.mark.parametrize("depth", [53, 80])
    @pytest.mark.parametrize(
        "x, mirror",
        [(1.5, lambda q: 1 + q(0.5)), (-0.25, lambda q: -q(0.25)), (-5e-324, lambda q: -q(5e-324))],
        ids=["1.5", "-0.25", "-5e-324"],
    )
    def test_element_off_the_unit_interval_is_tiled(self, depth, x, mirror):
        # past 1 and below 0 the batch takes the tiled value, as the scalar does
        sf = StaircaseFn(CantorSpec(depth))
        a = np.array([0.25, x, 0.75])
        got = list(sf.quantiles_exact(a))
        assert all(_same_parts(g, sf.quantile_exact(v)) for g, v in zip(got, a.tolist(), strict=True))
        assert got[1] == mirror(sf.quantile_exact)


class TestMembership:
    def test_known_points(self, sf):
        assert sf.membership(Fraction(0))
        assert sf.membership(Fraction(1))
        assert sf.membership(Fraction(1, 3))
        assert sf.membership(Fraction(2, 3))
        assert sf.membership(Fraction(1, 4))
        assert not sf.membership(Fraction(1, 2))
        assert not sf.membership(Fraction(2, 5))
        assert sf.membership(Fraction(3, 4))

    def test_gap_endpoint_rewrite(self, sf):
        # 1/3 = 0.1_3 = 0.0222..._3: the terminating-1 rewrite keeps it inside
        assert sf.membership(Fraction(1, 3))
        assert not sf.membership(Fraction(1, 3) + Fraction(1, 10**9))


class TestExtensions:
    def test_tiling(self, sf):
        assert sf.eval(1.5) == pytest.approx(1.5)
        assert float(sf.eval_exact(Fraction(7, 3))) == pytest.approx(2.5)
        assert sf.eval(-0.25) == pytest.approx(-1.0 / 3.0, abs=2**-52)

    def test_tiling_past_one(self, sf):
        assert sf.membership(Fraction(4, 3)) and sf.membership(Fraction(7, 3))
        assert not sf.membership(Fraction(3, 2))
        assert sf.quantile_exact(Fraction(3, 2)) == 1 + sf.quantile_exact(Fraction(1, 2))
        assert sf.eval_exact(Fraction(11, 9)) == Fraction(5, 4)

    def test_non_finite_rejected(self, sf):
        with pytest.raises(DomainError):
            sf.eval(math.inf)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
    @pytest.mark.parametrize("method", ["eval_exact", "quantile_exact", "membership"])
    def test_non_finite_rejected_by_every_entry(self, sf, method, x):
        with pytest.raises(DomainError):
            getattr(sf, method)(x)

    @pytest.mark.parametrize("x", [-0.25, Fraction(-1, 3), -1])
    @pytest.mark.parametrize("method", ["eval_exact", "quantile_exact", "membership"])
    def test_tiling_takes_negatives(self, sf, method, x):
        # a negative argument is the mirror image of its absolute value
        got, mirror = getattr(sf, method)(x), getattr(sf, method)(-x)
        if method == "membership":
            assert got is mirror is True
        else:
            assert got == -mirror and got < 0

    @given(x=st.fractions(min_value=0, max_value=5, max_denominator=10**12))
    @settings(max_examples=200, deadline=None)
    def test_tiling_is_odd(self, sf, x):
        assert sf.eval_exact(-x) == -sf.eval_exact(x)
        assert sf.quantile_exact(-x) == -sf.quantile_exact(x)
        assert sf.membership(-x) is sf.membership(x)


class TestInputTypes:
    @pytest.mark.parametrize(
        "given_x, plain_x",
        [
            (np.int64(2), 2),
            (np.int64(-3), -3),
            (np.int32(1), 1),
            (np.float64(0.25), 0.25),
            (np.float64(1.7), 1.7),
            (True, 1),
            (False, 0),
        ],
    )
    def test_numpy_and_bool_match_python_numbers(self, sf, given_x, plain_x):
        for method in (sf.eval_exact, sf.quantile_exact, IdentityMap().eval_exact):
            got = method(given_x)
            assert got == method(plain_x)
            assert type(got.numerator) is int and type(got.denominator) is int
        assert sf.membership(given_x) is sf.membership(plain_x)


    def test_subclasses_take_the_general_path(self, sf):
        class Half(Fraction):
            pass

        class Real(float):
            pass

        assert sf.eval_exact(Half(1, 4)) == sf.eval_exact(Fraction(1, 4))
        assert sf.quantile_exact(Real(0.3)) == sf.quantile_exact(0.3)
        with pytest.raises(DomainError, match="not finite"):
            sf.eval(Real("inf"))


class TestSpecValidation:
    def test_dimension_is_log2_over_log3(self, sf):
        # S(3^-k) = 2^-k = (3^-k)^alpha: the self-similarity fixes the exponent
        alpha = math.log(2.0) / math.log(3.0)
        assert 3.0**alpha == pytest.approx(2.0, rel=1e-15)
        for k in range(1, 30):
            assert sf.eval_exact(Fraction(1, 3**k)) == Fraction(1, 2**k)
            assert 2.0**-k == pytest.approx((1.0 / 3**k) ** alpha, rel=1e-13)

    def test_digit_depth_validation(self):
        with pytest.raises(DomainError):
            CantorSpec(digit_depth=0)
        with pytest.raises(DomainError):
            CantorSpec(digit_depth=2.5)


class TestIdentityMap:
    def test_degenerate_coordinate(self):
        ident = IdentityMap()
        assert ident.eval(0.37) == 0.37
        assert ident.quantile_exact(0.37) == 0.37
        assert list(ident.quantiles_exact(np.array([0.37, -2.0]))) == [0.37, -2.0]
        assert ident.membership(123.0)


class TestPrefractal:
    def test_depth_one(self):
        # first iteration removes the open middle third
        assert prefractal_intervals(1) == [
            (Fraction(0), Fraction(1, 3)),
            (Fraction(2, 3), Fraction(1)),
        ]

    def test_counts_and_lengths(self):
        for depth in (0, 1, 2, 5):
            intervals = prefractal_intervals(depth)
            assert len(intervals) == 2**depth
            assert all(b - a == Fraction(1, 3**depth) for a, b in intervals)
            assert intervals == sorted(intervals)

    def test_depth_validation(self):
        with pytest.raises(DomainError):
            prefractal_intervals(-1)
        with pytest.raises(DomainError):
            prefractal_intervals(21)
