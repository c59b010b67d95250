"""The middle-third Cantor set and its staircase function, in exact arithmetic.

The staircase (the classical devil's staircase) is evaluated by a digit
transcription: ternary digits of the argument are copied to binary digits of
the value, ``0 -> 0`` and ``2 -> 1``, stopping at the first ternary ``1``
(which is emitted as a final binary ``1``).  The quantile (a measurable right
inverse of the staircase) runs the same transcription backwards, binary to
ternary.  Floats are taken at their exact binary value; pass
:class:`fractions.Fraction` for points such as 1/3 that binary floats cannot
represent.

The kernels read digits in blocks of eight.  One walk over the ternary
digits serves both the staircase and the membership test: it returns the
scaled staircase value and whether the point lies in the prefractal.  Each
``divmod(num * 3**8, den)`` yields the next eight ternary digits as one
integer ``q < 3**8`` together with the exact remainder; a table built once
at import maps ``q`` to the position of its first ternary ``1``,
the binary digits transcribed from the ``0``/``2`` digits before it, and
whether the digits after that ``1`` are all zero.  For the quantile, one
``(num << depth) // den`` yields all ``depth`` binary digits, and a 256-entry
table maps each byte to its eight ``{0, 2}`` ternary digits.  Every step is
integer division with remainder, so the digits, and hence the results, are
exactly those of reading one digit at a time: correct to the configured digit
depth for any rational argument.

The quantile's output needs no digit reading at all.  For u = whole + num/den
the quantile is whole + sum_i 2 b_i 3**-i over the binary digits b_i of
``bits = (num << depth) // den``: it has ternary digits 0 and 2 only, up to
``depth``, and none after.  So its staircase value is exactly
``(whole * 2**depth + bits) / 2**depth``, with the sign of u -- the round trip
S(Q(u)) is u truncated to ``depth`` binary digits.  So ``quantile_exact``
returns a private ``Fraction`` subclass that carries that value: its digit
depth, the signed scaled value ``s`` and the float ``s / 2**depth``, set
once when it is built.  ``eval_exact`` and ``eval`` of a staircase of the
same digit depth read the carried value and no digit; any other argument,
equal or not, goes through the kernel, and both paths give the same bits.
No staircase instance holds state, so any quantile, not only the latest,
reads no digits, and instances share nothing.  A copy, a deep copy or an
unpickled quantile is a plain ``Fraction``.

``quantiles_exact`` takes the quantiles of a whole float64 array in one
batch, for digit depths up to 62, and builds every result before it
returns.  The signed scaled value is ``s = trunc(u * 2**depth)``: scaling by
a power of two is exact, and so is its integer part, which an int64 holds
while |u| < 2**(63 - depth).  An array with a larger element, or a
non-finite one, joins each ``s`` from the whole part of u and the ``depth``
bits of the rest as Python ints, so no finite element takes the scalar
call.  The carried floats ``s / 2**depth``, u truncated to ``depth`` binary
digits, are exact in float64.  A result carries only its staircase value;
the first read of its numerator or denominator builds both, by the scalar
call's helper, and writes them to its own slots: threads racing on it write
the same values.  Deeper digits, and other dtypes, go through the scalar
call.

No result is reduced by a gcd.  The quantile's scaled value
``whole * 3**depth + Q(bits)`` is divisible by exactly 3**t, where t is the
number of trailing zero bits of ``bits`` (``depth`` when it is 0), because
the lowest ternary digit of Q(bits) is a 2 at that place; and the scaled
staircase value is divisible by exactly 2**t for its own trailing zero
bits, capped at ``depth``.  So ``_quantile_parts`` and ``eval_exact`` know
the coprime numerator and denominator beforehand.

Outside the unit interval the staircase is extended through the
self-similar tiling ``S(x + 1) = S(x) + 1`` for ``x >= 0`` and the odd
reflection ``S(-x) = -S(x)``, which is the extension the transform and
special-function modules rely on.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat

import numpy as np

from .exceptions import DomainError

@dataclass(frozen=True)
class CantorSpec:
    """Construction parameters: the digit depth.

    ``digit_depth`` bounds both the ternary digits examined and the binary
    digits emitted, so every staircase value carries a one-sided truncation
    error below ``2**-digit_depth``.
    """

    digit_depth: int = 53

    def __post_init__(self) -> None:
        if not isinstance(self.digit_depth, int) or self.digit_depth < 1:
            raise DomainError(f"digit_depth must be a positive integer, got {self.digit_depth!r}")


@lru_cache(maxsize=None)
def _pow3(n: int) -> int:
    return 3**n


#: Digits read per kernel step.
_BLOCK = 8
_BLOCK_POW3 = 3**_BLOCK


def _trit_block_table() -> list[tuple[int, int, bool]]:
    """Entry q describes the eight ternary digits of q, most significant first.

    It is ``(first, bits, tail_zero)``: ``first`` is the position of the first
    digit 1 (8 when there is none), ``bits`` the ``first`` binary digits
    transcribed from the digits before it, and ``tail_zero`` whether every
    digit after that 1 is 0.  Built by prepending one digit at a time.
    """
    table = [(0, 0, True)]
    for _ in range(_BLOCK):
        zero = [(first + 1, bits, tail) for first, bits, tail in table]
        one = [(0, 0, rest == 0) for rest in range(len(table))]
        two = [(first + 1, (1 << first) | bits, tail) for first, bits, tail in table]
        table = zero + one + two
    return table


_TRIT_BLOCKS = _trit_block_table()

#: Byte b read as eight binary digits, written as the ternary digits 2*bit.
_BYTE_TRITS = [2 * int(f"{b:08b}", 3) for b in range(1 << _BLOCK)]

#: Deepest digit depth of the batch quantile: its bits fit an int64.
_BATCH_DEPTH = 62


def _coprime_fraction(n: int, d: int) -> Fraction:
    """The Fraction n/d for coprime n and d > 0, built without a gcd.

    ``Fraction(n, d)`` spends about a microsecond on a gcd that is known to
    be 1 here; this sets the two slots directly, as Python 3.12's
    ``Fraction._from_coprime_ints`` does.  The slots are the same on 3.10
    to 3.13.
    """
    x = object.__new__(Fraction)
    x._numerator = n
    x._denominator = d
    return x


def _filled_on_read(slot) -> property:
    """Fraction's slot ``slot``; the first read of an unset one fills both."""

    def read(x):
        try:
            return slot.__get__(x)
        except AttributeError:
            whole, bits = divmod(abs(x._s), 1 << x._depth)
            n, d = _quantile_parts(whole, bits, x._depth)
            x._numerator, x._denominator = (-n if x._s < 0 else n), d
            return slot.__get__(x)

    return property(read, slot.__set__)


class _Quantile(Fraction):
    """A quantile carrying its staircase value, set once: ``_depth``, the
    digit depth it was taken at, ``_s``, that value times ``2**_depth`` (a
    signed int), and the float ``_value = _s / 2**_depth``; the Fraction's
    slots are set at once or, in a batch, on their first read.  Fraction's
    arithmetic, a copy, a deep copy and pickling return plain Fractions (the
    last three would otherwise build this class with no value set)."""

    __slots__ = ("_depth", "_s", "_value")
    _numerator = _filled_on_read(Fraction._numerator)
    _denominator = _filled_on_read(Fraction._denominator)

    def __repr__(self) -> str:
        return f"Fraction({self._numerator}, {self._denominator})"

    def __reduce__(self):
        return (Fraction, (self._numerator, self._denominator))

    def __copy__(self, memo=None) -> Fraction:
        return _coprime_fraction(self._numerator, self._denominator)

    __deepcopy__ = __copy__


def _twos(n: int, cap: int) -> int:
    """The exponent of the largest power of 2 dividing n, at most cap."""
    n |= 1 << cap
    return (n & -n).bit_length() - 1


def _ratio(x) -> tuple[int, int]:
    """x as (numerator, denominator) Python ints, the denominator positive.

    Rationals (``int``, ``bool``, ``Fraction``, numpy integers) are taken as
    they are, anything else at the exact binary value of ``float(x)``.  Exact
    ``Fraction`` and finite ``float`` arguments, the common ones, are tested
    first by type, before the slower ``numbers.Rational`` check.
    """
    cls = type(x)
    if cls is Fraction:
        return int(x.numerator), int(x.denominator)
    if cls is float and math.isfinite(x):
        return x.as_integer_ratio()
    if isinstance(x, numbers.Rational):
        return int(x.numerator), int(x.denominator)
    f = float(x)
    if not math.isfinite(f):
        raise DomainError(f"argument is not finite: {x!r}")
    return f.as_integer_ratio()


def _parts(x) -> tuple[bool, int, int, int]:
    """x as (negative, whole, num, den) with |x| = whole + num/den, num < den."""
    num, den = _ratio(x)
    whole, num_frac = divmod(abs(num), den)
    return num < 0, whole, num_frac, den


def _unit_digits(num: int, den: int, depth: int) -> tuple[int, bool]:
    """(floor(S(num/den) * 2**depth), membership of num/den in the depth-digit
    prefractal) for 0 <= num < den.

    Transcribes ternary digits to binary ones, eight per step; the first
    ternary 1 is emitted and terminates the expansion, matching the staircase
    being constant on the removed middle-third gaps.  That 1 disqualifies the
    point unless the expansion terminates right there, in which case the
    standard rewrite ...1 = ...0222... applies and the point is a gap endpoint
    belonging to the set.  A zero remainder means every later digit is 0, so
    the rest of the value is zero bits and the point is in the set.
    """
    acc = 0
    for left in range(depth, 0, -_BLOCK):
        q, num = divmod(num * _BLOCK_POW3, den)
        first, bits, tail_zero = _TRIT_BLOCKS[q]
        n = left if left < _BLOCK else _BLOCK
        if first < n:
            return ((((acc << first) | bits) << 1) | 1) << (left - first - 1), tail_zero and not num
        acc = (acc << n) | (bits >> (first - n))
        if not num:
            return acc << (left - n), True
    return acc, True


def _unit_quantile_scaled(bits: int, depth: int) -> int:
    """quantile(num/den) * 3**depth for 0 <= num/den < 1, given
    ``bits = (num << depth) // den``, the first ``depth`` binary digits.

    Binary digits of the argument become ternary digits {0, 2} of the result,
    one byte per step.  Dyadic arguments use their terminating binary
    expansion, which selects the right endpoint of the corresponding
    staircase plateau.
    """
    acc = 0
    for byte in bits.to_bytes((depth + _BLOCK - 1) // _BLOCK, "big"):
        acc = acc * _BLOCK_POW3 + _BYTE_TRITS[byte]
    return acc


def _quantile_parts(whole: int, bits: int, depth: int) -> tuple[int, int]:
    """The coprime (numerator, denominator) of the quantile of
    whole + bits / 2**depth, found without a gcd as the module docstring says."""
    t = _twos(bits, depth)
    scale = _pow3(depth - t)
    return whole * scale + _unit_quantile_scaled(bits >> t, depth - t), scale


@dataclass(frozen=True)
class StaircaseFn:
    """The Cantor staircase together with its quantile and membership tests."""

    spec: CantorSpec = field(default_factory=CantorSpec)

    # -- staircase ---------------------------------------------------------

    def _scaled(self, x) -> int:
        """S(x) * 2**depth, an integer: a quantile's own, or by digits."""
        depth = self.spec.digit_depth
        if type(x) is _Quantile and x._depth == depth:
            return x._s
        negative, whole, num, den = _parts(x)
        scaled = (whole << depth) + _unit_digits(num, den, depth)[0]
        return -scaled if negative else scaled

    def eval_exact(self, x) -> Fraction:
        scaled, depth = self._scaled(x), self.spec.digit_depth
        t = _twos(scaled, depth)
        return _coprime_fraction(scaled >> t, 1 << (depth - t))

    def eval(self, x) -> float:
        if type(x) is _Quantile and x._depth == self.spec.digit_depth:
            return x._value
        # int true division rounds correctly, as Fraction.__float__ does
        return self._scaled(x) / (1 << self.spec.digit_depth)

    __call__ = eval

    # -- quantile ----------------------------------------------------------

    def quantile_exact(self, u) -> Fraction:
        """The quantile of u, exact; it carries its staircase value, so
        ``eval`` and ``eval_exact`` of it read no digits."""
        negative, whole, num, den = _parts(u)
        depth = self.spec.digit_depth
        bits = (num << depth) // den
        scaled, scale = _quantile_parts(whole, bits, depth)
        s = (whole << depth) + bits
        if negative:
            scaled, s = -scaled, -s
        x = object.__new__(_Quantile)
        x._numerator, x._denominator = scaled, scale
        x._depth, x._s, x._value = depth, s, s / (1 << depth)
        return x

    def quantiles_exact(self, u):
        """An iterator of ``quantile_exact(v)`` for each v of the 1-D array u, in order.

        A float64 array at digit depth up to 62 is built in one batch before
        the call returns, with the scalar call's bits; each result builds its
        numerator and denominator when first read, so ``sf.eval(x)`` alone
        never does.  An element the scalar call refuses raises the scalar
        call's error once the elements before it are consumed.  Any other
        dtype or depth goes through the scalar call.
        """
        depth, scale = self.spec.digit_depth, 2.0**-self.spec.digit_depth
        if u.dtype != np.float64 or depth > _BATCH_DEPTH:
            return map(self.quantile_exact, u.tolist())
        n = len(u)
        # s = trunc(u * 2**depth) fits an int64 (the cast truncates); a nan fails this test
        if n and abs(u).max() < 2.0 ** (63 - depth):
            bits = (u * 2.0**depth).astype(np.int64)
            # floats of the int bits: s = 0 gives +0.0, as the scalar call does for -5e-324
            ss, values = bits.tolist(), (bits * scale).tolist()
        else:  # the batch stops at the first non-finite u, which the scalar call refuses
            ok = np.isfinite(u)
            n = n if ok.all() else int(ok.argmin())
            whole = np.trunc(u[:n])
            bits = ((u[:n] - whole) * 2.0**depth).astype(np.int64)
            ss = [(int(w) << depth) + b for w, b in zip(whole.tolist(), bits.tolist())]
            values = (whole + bits * scale).tolist()
        xs = list(map(object.__new__, repeat(_Quantile, n)))
        for x, s, v in zip(xs, ss, values):
            x._depth, x._s, x._value = depth, s, v
        if n == len(u):
            return iter(xs)
        return chain(xs, map(self.quantile_exact, u[n : n + 1].tolist()))

    # -- membership --------------------------------------------------------

    def membership(self, x) -> bool:
        _, _, num, den = _parts(x)
        return _unit_digits(num, den, self.spec.digit_depth)[1]


@dataclass(frozen=True)
class IdentityMap:
    """Degenerate coordinate map S(x) = x.

    Substituting it for the staircase collapses every conjugated operator to
    its classical counterpart, which is how the alpha -> 1 limits are checked.
    """

    def eval_exact(self, x) -> Fraction:
        return Fraction(*_ratio(x))

    def eval(self, x) -> float:
        return float(x)

    __call__ = eval

    def quantile_exact(self, u) -> float:
        return float(u)

    def quantiles_exact(self, u):
        return map(float, u.tolist())

    def membership(self, x) -> bool:
        return True


def _check_prefractal_depth(depth) -> None:
    if not isinstance(depth, int) or depth < 0 or depth > 20:
        raise DomainError(f"prefractal depth must be an integer in [0, 20], got {depth!r}")


def prefractal_intervals(depth: int) -> list[tuple[Fraction, Fraction]]:
    """Closed intervals of the depth-th prefractal iterate, left to right."""
    _check_prefractal_depth(depth)
    intervals = [(Fraction(0), Fraction(1))]
    for _ in range(depth):
        nxt = []
        for a, b in intervals:
            w = (b - a) / 3
            nxt.append((a, a + w))
            nxt.append((b - w, b))
        intervals = nxt
    return intervals
