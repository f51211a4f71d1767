"""Exact arithmetic over the extended rationals (the rationals plus +infinity).

Every quantity on a decision path is an ExtRational; floats only appear in
the numerical lab.  An ExtRational holds a numerator and a denominator as
Python ints in lowest terms, with a positive denominator; denominator 0
stands for +infinity.  Arithmetic and comparison run on those ints, and an
int or Fraction operand is read through its own numerator and denominator.
Only parsing in the constructor and as_fraction() (which hash, numerator
and denominator read) build a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Union

RationalLike = Union["ExtRational", Fraction, int, str]


class ParameterRangeError(ValueError):
    """A numeric parameter is outside its documented range."""


class ExtRational:
    """A rational number or +infinity, with exact total-ordered arithmetic.

    1/inf evaluates to 0.  inf - inf and 0 * inf are undefined and raise.
    """

    __slots__ = ("_n", "_d")  # ints in lowest terms, _d > 0; _d == 0 is +inf

    def __init__(self, value: RationalLike = 0, denominator: int | None = None):
        if denominator is not None:
            value = Fraction(value, denominator)
        kind = type(value)
        if kind is ExtRational:
            self._n, self._d = value._n, value._d
        elif kind is int:
            self._n, self._d = value, 1
        elif kind is Fraction:
            self._n, self._d = value.numerator, value.denominator
        elif isinstance(value, ExtRational):
            self._n, self._d = value._n, value._d
        elif isinstance(value, str):
            s = value.strip()
            if s in ("inf", "infinity", "oo"):
                self._n, self._d = 1, 0
            else:
                value = Fraction(s)
                self._n, self._d = value.numerator, value.denominator
        elif isinstance(value, (int, Fraction)):
            self._n, self._d = value.numerator, value.denominator
        else:
            raise TypeError(f"cannot build ExtRational from {type(value).__name__}")

    @classmethod
    def infinity(cls) -> "ExtRational":
        obj = cls.__new__(cls)
        obj._n, obj._d = 1, 0
        return obj

    @property
    def is_infinite(self) -> bool:
        return self._d == 0

    @property
    def is_finite(self) -> bool:
        return self._d != 0

    def as_fraction(self) -> Fraction:
        if self._d == 0:
            raise OverflowError("infinite ExtRational has no Fraction value")
        return Fraction(self._n, self._d)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: RationalLike) -> "ExtRational":
        c, d = _pair(other)
        b = self._d
        if b == 0 or d == 0:
            return INF
        return _sum(self._n, b, c, d)

    __radd__ = __add__

    def __sub__(self, other: RationalLike) -> "ExtRational":
        c, d = _pair(other)
        return _difference(self._n, self._d, c, d)

    def __rsub__(self, other: RationalLike) -> "ExtRational":
        a, b = _pair(other)
        return _difference(a, b, self._n, self._d)

    def __mul__(self, other: RationalLike) -> "ExtRational":
        c, d = _pair(other)
        a, b = self._n, self._d
        if b == 0 or d == 0:
            if a == 0 or c == 0:
                raise ArithmeticError("0 * inf is undefined")
            if a < 0 or c < 0:
                raise ArithmeticError("negative * inf leaves the extended rationals")
            return INF
        return _reduced(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "ExtRational":
        c, d = _pair(other)
        return _quotient(self._n, self._d, c, d)

    def __rtruediv__(self, other: RationalLike) -> "ExtRational":
        a, b = _pair(other)
        return _quotient(a, b, self._n, self._d)

    def __neg__(self) -> "ExtRational":
        if self._d == 0:
            raise ArithmeticError("-inf is not representable")
        return _finite(-self._n, self._d)

    def __abs__(self) -> "ExtRational":
        if self._d == 0:
            return self
        return _finite(abs(self._n), self._d)

    # -- comparisons --------------------------------------------------------

    # lowest terms make each value's pair unique, so equality compares pairs;
    # order cross-multiplies numerators by the (positive) denominators
    def __eq__(self, other: object) -> bool:
        if type(other) is ExtRational:
            return self._n == other._n and self._d == other._d
        if not isinstance(other, (ExtRational, Fraction, int, str)):
            return NotImplemented
        c, d = _pair(other)
        return self._n == c and self._d == d

    def __lt__(self, other: RationalLike) -> bool:
        c, d = _pair(other)
        b = self._d
        if b == 0:
            return False
        return d == 0 or self._n * d < c * b

    def __le__(self, other: RationalLike) -> bool:
        c, d = _pair(other)
        if d == 0:
            return True
        b = self._d
        return b != 0 and self._n * d <= c * b

    def __gt__(self, other: RationalLike) -> bool:
        c, d = _pair(other)
        if d == 0:
            return False
        b = self._d
        return b == 0 or self._n * d > c * b

    def __ge__(self, other: RationalLike) -> bool:
        c, d = _pair(other)
        b = self._d
        if b == 0:
            return True
        return d != 0 and self._n * d >= c * b

    # a finite value equals, and so hashes as, its Fraction
    def __hash__(self) -> int:
        return hash("ext-inf") if self._d == 0 else hash(self.as_fraction())

    # -- conversion / display ------------------------------------------------

    def __float__(self) -> float:
        return float("inf") if self._d == 0 else self._n / self._d

    def __str__(self) -> str:
        n, d = self._n, self._d
        if d == 0:
            return "inf"
        return str(n) if d == 1 else f"{n}/{d}"

    def __repr__(self) -> str:
        return f"ExtRational({str(self)!r})"

    @property
    def numerator(self) -> int:
        return self.as_fraction().numerator

    @property
    def denominator(self) -> int:
        return self.as_fraction().denominator

    def is_integer(self) -> bool:
        return self._d == 1


def _finite(n: int, d: int) -> ExtRational:
    """The ExtRational n/d, for ints already in lowest terms with d > 0."""
    obj = object.__new__(ExtRational)
    obj._n = n
    obj._d = d
    return obj


def _reduced(n: int, d: int) -> ExtRational:
    """The ExtRational n/d, for ints with d > 0."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return _finite(n, d)


def _sum(a: int, b: int, c: int, d: int) -> ExtRational:
    """a/b + c/d for finite operands in lowest terms."""
    if b == d:  # shared denominator, as for two ints
        return _reduced(a + c, b)
    return _reduced(a * d + c * b, b * d)


def _difference(a: int, b: int, c: int, d: int) -> ExtRational:
    """a/b - c/d on extended-rational pairs."""
    if b == 0 and d == 0:
        raise ArithmeticError("inf - inf is undefined")
    if b == 0:
        return INF
    if d == 0:
        raise ArithmeticError("finite - inf leaves the extended rationals")
    return _sum(a, b, -c, d)


def _quotient(a: int, b: int, c: int, d: int) -> ExtRational:
    """(a/b) / (c/d) on extended-rational pairs."""
    if d == 0:
        if b == 0:
            raise ArithmeticError("inf / inf is undefined")
        return ZERO
    if c == 0:
        raise ZeroDivisionError("division by zero")
    if b == 0:
        return INF
    n, m = a * d, b * c
    if m < 0:
        n, m = -n, -m
    return _reduced(n, m)


def _pair(other: RationalLike) -> tuple[int, int]:
    """The (numerator, denominator) an operand stands for, denominator 0 for
    infinity; an int or Fraction is read as it is, anything else is parsed by
    the constructor, which refuses what it cannot read."""
    kind = type(other)
    if kind is ExtRational:
        return other._n, other._d
    if kind is int:
        return other, 1
    if kind is Fraction:
        return other.numerator, other.denominator
    other = ExtRational(other)
    return other._n, other._d


INF = ExtRational.infinity()
ZERO = ExtRational(0)


def xr(value: RationalLike, denominator: int | None = None) -> ExtRational:
    """Shorthand constructor; an ExtRational is returned as it is."""
    if denominator is None and type(value) is ExtRational:
        return value
    return ExtRational(value, denominator)


def pos_part(x: RationalLike) -> ExtRational:
    """max(0, x), exactly."""
    x = xr(x)
    return x if x._n > 0 else ZERO


def deficiency(p1: RationalLike, p2: RationalLike, d: int) -> ExtRational:
    """(d/p1 - d/2)_+ + (d/2 - d/p2)_+ with d/inf = 0, exactly.

    This is the threshold the smoothness gap s - t must clear for an
    intermediate Hilbert space to be possible.
    """
    p1, p2 = xr(p1), xr(p2)
    for p in (p1, p2):
        if p < 1:
            raise ParameterRangeError(f"integrability index {p} out of [1, inf]")
    if d < 1:
        raise ParameterRangeError(f"dimension {d} must be a positive integer")
    d_ = xr(d)
    half = d_ / 2
    return pos_part(d_ / p1 - half) + pos_part(half - d_ / p2)
