"""Exact arithmetic over the extended rationals (Fraction plus +infinity).

Every quantity on a decision path is an ExtRational; floats only appear in
the numerical lab.  The result of an operation on two ExtRationals is built
straight from the exact Fraction the operation computed, without passing it
through the coercion of the public constructor again.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union["ExtRational", Fraction, int, str]


class ParameterRangeError(ValueError):
    """A numeric parameter is outside its documented range."""


class ExtRational:
    """A rational number or +infinity, with exact total-ordered arithmetic.

    1/inf evaluates to 0.  inf - inf and 0 * inf are undefined and raise.
    """

    __slots__ = ("_value",)  # Fraction, or None for +infinity

    def __init__(self, value: RationalLike = 0, denominator: int | None = None):
        if denominator is not None:
            self._value: Fraction | None = Fraction(value, denominator)
            return
        kind = type(value)
        if kind is ExtRational:
            self._value = value._value
        elif kind is Fraction:
            self._value = value
        elif isinstance(value, ExtRational):
            self._value = value._value
        elif isinstance(value, str):
            s = value.strip()
            self._value = None if s in ("inf", "infinity", "oo") else Fraction(s)
        elif isinstance(value, (int, Fraction)):
            self._value = Fraction(value)
        else:
            raise TypeError(f"cannot build ExtRational from {type(value).__name__}")

    @classmethod
    def infinity(cls) -> "ExtRational":
        obj = cls.__new__(cls)
        obj._value = None
        return obj

    @property
    def is_infinite(self) -> bool:
        return self._value is None

    @property
    def is_finite(self) -> bool:
        return self._value is not None

    def as_fraction(self) -> Fraction:
        if self._value is None:
            raise OverflowError("infinite ExtRational has no Fraction value")
        return self._value

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: RationalLike) -> "ExtRational":
        b = _value_of(other)
        if self._value is None or b is None:
            return INF
        return _of(self._value + b)

    __radd__ = __add__

    def __sub__(self, other: RationalLike) -> "ExtRational":
        a, b = self._value, _value_of(other)
        if a is None and b is None:
            raise ArithmeticError("inf - inf is undefined")
        if a is None:
            return INF
        if b is None:
            raise ArithmeticError("finite - inf leaves the extended rationals")
        return _of(a - b)

    def __rsub__(self, other: RationalLike) -> "ExtRational":
        return _coerce(other) - self

    def __mul__(self, other: RationalLike) -> "ExtRational":
        a, b = self._value, _value_of(other)
        if a is None or b is None:
            if a == 0 or b == 0:
                raise ArithmeticError("0 * inf is undefined")
            if (a is not None and a < 0) or (b is not None and b < 0):
                raise ArithmeticError("negative * inf leaves the extended rationals")
            return INF
        return _of(a * b)

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "ExtRational":
        a, b = self._value, _value_of(other)
        if b is None:
            if a is None:
                raise ArithmeticError("inf / inf is undefined")
            return ZERO
        if b == 0:
            raise ZeroDivisionError("division by zero")
        if a is None:
            return INF
        return _of(a / b)

    def __rtruediv__(self, other: RationalLike) -> "ExtRational":
        return _coerce(other) / self

    def __neg__(self) -> "ExtRational":
        if self._value is None:
            raise ArithmeticError("-inf is not representable")
        return _of(-self._value)

    def __abs__(self) -> "ExtRational":
        if self._value is None:
            return self
        return _of(abs(self._value))

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if type(other) is ExtRational:
            return self._value == other._value
        if not isinstance(other, (ExtRational, Fraction, int, str)):
            return NotImplemented
        return self._value == _value_of(other)

    # finite values compare by cross-multiplying numerators and (positive)
    # denominators, which int and Fraction both carry; Fraction's own
    # comparison adds an abstract-base-class check on every call
    def __lt__(self, other: RationalLike) -> bool:
        a, b = self._value, _value_of(other)
        if a is None:
            return False
        return b is None or a.numerator * b.denominator < b.numerator * a.denominator

    def __le__(self, other: RationalLike) -> bool:
        a, b = self._value, _value_of(other)
        if b is None:
            return True
        return a is not None and \
            a.numerator * b.denominator <= b.numerator * a.denominator

    def __gt__(self, other: RationalLike) -> bool:
        a, b = self._value, _value_of(other)
        if b is None:
            return False
        return a is None or a.numerator * b.denominator > b.numerator * a.denominator

    def __ge__(self, other: RationalLike) -> bool:
        a, b = self._value, _value_of(other)
        if a is None:
            return True
        return b is not None and \
            a.numerator * b.denominator >= b.numerator * a.denominator

    def __hash__(self) -> int:
        return hash(self._value) if self._value is not None else hash("ext-inf")

    # -- conversion / display ------------------------------------------------

    def __float__(self) -> float:
        return float("inf") if self._value is None else float(self._value)

    def __str__(self) -> str:
        return "inf" if self._value is None else str(self._value)

    def __repr__(self) -> str:
        return f"ExtRational({str(self)!r})"

    @property
    def numerator(self) -> int:
        return self.as_fraction().numerator

    @property
    def denominator(self) -> int:
        return self.as_fraction().denominator

    def is_integer(self) -> bool:
        return self._value is not None and self._value.denominator == 1


def _of(value: Fraction) -> ExtRational:
    """The finite ExtRational holding an exact Fraction result."""
    obj = object.__new__(ExtRational)
    obj._value = value
    return obj


def _coerce(other: RationalLike) -> ExtRational:
    return other if isinstance(other, ExtRational) else ExtRational(other)


def _value_of(other: RationalLike) -> Fraction | int | None:
    """The exact value (None for infinity) an operand stands for; a plain
    int stays an int, which Fraction arithmetic and comparison take as is."""
    kind = type(other)
    if kind is ExtRational:
        return other._value
    if kind is int:
        return other
    return _coerce(other)._value


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
    return x if x > 0 else ZERO


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
