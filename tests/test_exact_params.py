"""Exact arithmetic, coherent index sets, and descriptor validation."""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import total_ordering

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from rkhs_sandwich import (CoherentSet, ExtRational, INF, coherent_closure,
                           cube, deficiency, holder, sequence_lp, slobodeckij,
                           triebel_lizorkin, xr)
from rkhs_sandwich.spaces import (DomainError, DomainSpec,
                                  IntegrabilityRangeError,
                                  SmoothnessRangeError, finite_metric)
from rkhs_sandwich.xrational import ParameterRangeError, pos_part

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=64)
# numerators and denominators up to 10**40, whose reduction runs through gcd
big_rationals = st.builds(Fraction, st.integers(-10**40, 10**40),
                          st.integers(1, 10**40))
exact = st.one_of(rationals, big_rationals, st.integers(-10**40, 10**40))


def _coercing_extrational():
    """A reference ExtRational: every operation coerces its operand and
    builds its result through __init__, and >, >= and <= come from
    total_ordering.  The fast paths of rkhs_sandwich.xrational must agree
    with it on every result and every exception."""

    @total_ordering
    class ExtRational:
        """A rational number or +infinity, with exact total-ordered arithmetic.

        1/inf evaluates to 0.  inf - inf and 0 * inf are undefined and raise.
        """

        __slots__ = ("_value",)  # Fraction, or None for +infinity

        def __init__(self, value: RationalLike = 0, denominator: int | None = None):
            if denominator is not None:
                self._value: Fraction | None = Fraction(value, denominator)
                return
            if isinstance(value, ExtRational):
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

        def _coerce(self, other: RationalLike) -> "ExtRational":
            return other if isinstance(other, ExtRational) else ExtRational(other)

        def __add__(self, other: RationalLike) -> "ExtRational":
            other = self._coerce(other)
            if self.is_infinite or other.is_infinite:
                return ExtRational.infinity()
            return ExtRational(self._value + other._value)

        __radd__ = __add__

        def __sub__(self, other: RationalLike) -> "ExtRational":
            other = self._coerce(other)
            if self.is_infinite and other.is_infinite:
                raise ArithmeticError("inf - inf is undefined")
            if self.is_infinite:
                return ExtRational.infinity()
            if other.is_infinite:
                raise ArithmeticError("finite - inf leaves the extended rationals")
            return ExtRational(self._value - other._value)

        def __rsub__(self, other: RationalLike) -> "ExtRational":
            return self._coerce(other) - self

        def __mul__(self, other: RationalLike) -> "ExtRational":
            other = self._coerce(other)
            if self.is_infinite or other.is_infinite:
                if self == 0 or other == 0:
                    raise ArithmeticError("0 * inf is undefined")
                if self < 0 or other < 0:
                    raise ArithmeticError("negative * inf leaves the extended rationals")
                return ExtRational.infinity()
            return ExtRational(self._value * other._value)

        __rmul__ = __mul__

        def __truediv__(self, other: RationalLike) -> "ExtRational":
            other = self._coerce(other)
            if other.is_infinite:
                if self.is_infinite:
                    raise ArithmeticError("inf / inf is undefined")
                return ExtRational(0)
            if other == 0:
                raise ZeroDivisionError("division by zero")
            if self.is_infinite:
                return ExtRational.infinity()
            return ExtRational(self._value / other._value)

        def __rtruediv__(self, other: RationalLike) -> "ExtRational":
            return self._coerce(other) / self

        def __neg__(self) -> "ExtRational":
            if self.is_infinite:
                raise ArithmeticError("-inf is not representable")
            return ExtRational(-self._value)

        def __abs__(self) -> "ExtRational":
            if self.is_infinite:
                return self
            return ExtRational(abs(self._value))

        # -- comparisons --------------------------------------------------------

        def __eq__(self, other: object) -> bool:
            if not isinstance(other, (ExtRational, Fraction, int, str)):
                return NotImplemented
            other = self._coerce(other)
            return self._value == other._value

        def __lt__(self, other: RationalLike) -> bool:
            other = self._coerce(other)
            if self.is_infinite:
                return False
            if other.is_infinite:
                return True
            return self._value < other._value

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
            return self.is_finite and self._value.denominator == 1

    return ExtRational


OracleExtRational = _coercing_extrational()


# an ExtRational operand, as ("xr", value); or a plain int, Fraction, str
# or float operand, which both classes must coerce, reflect or refuse alike
_wrapped = st.one_of(rationals, big_rationals, st.integers(-5, 5),
                     st.just("inf")).map(lambda v: ("xr", v))
_plain = st.one_of(st.integers(-50, 50), rationals, big_rationals,
                   st.sampled_from(["3/4", " -2 ", "0", "inf", "oo", "junk"]),
                   st.sampled_from([0.0, 1.5, -2.0]))
_BINARY = [operator.add, operator.sub, operator.mul, operator.truediv,
           operator.eq, operator.ne, operator.lt, operator.le, operator.gt,
           operator.ge]
_ARITHMETIC = [operator.add, operator.sub, operator.mul, operator.truediv]
_UNARY = [operator.neg, abs, str, repr, hash, float,
          lambda x: x.is_integer(), lambda x: x.is_finite]


def _operand(cls, v):
    return cls(v[1]) if isinstance(v, tuple) else v


def _outcome(fn, *args):
    """What fn(*args) gives: the value (an ExtRational by str and hash), or
    the type and message of what it raises."""
    try:
        r = fn(*args)
    except Exception as exc:
        return "raises", type(exc), str(exc)
    if type(r).__name__ == "ExtRational":
        return "ExtRational", str(r), hash(r)
    return "value", r


class TestExtRational:
    @given(_wrapped, st.one_of(_wrapped, _plain), st.booleans())
    def test_binary_operations_match_the_coercing_oracle(self, a, b, reflect):
        if reflect:  # b op a with a plain b exercises the reflected forms
            a, b = b, a
        for op in _BINARY:
            got = _outcome(op, _operand(ExtRational, a), _operand(ExtRational, b))
            want = _outcome(op, _operand(OracleExtRational, a),
                            _operand(OracleExtRational, b))
            assert got == want, (op, a, b)

    @given(_wrapped)
    def test_unary_operations_match_the_coercing_oracle(self, a):
        for op in _UNARY:
            assert _outcome(op, _operand(ExtRational, a)) == \
                _outcome(op, _operand(OracleExtRational, a)), (op, a)

    @given(exact)
    def test_hash_float_and_fraction_agree_with_fraction(self, x):
        f = Fraction(x)
        for r in (xr(x), xr(str(x)), xr(f.numerator, f.denominator)):
            assert r == f and f == r
            assert hash(r) == hash(f)
            assert float(r) == float(f)
            assert str(r) == str(f)
            back = r.as_fraction()
            assert type(back) is Fraction and back == f
            assert xr(back) == r

    @given(exact, exact, st.sampled_from(_ARITHMETIC))
    def test_results_match_fraction_arithmetic(self, a, b, op):
        assume(op is not operator.truediv or b != 0)
        got, want = op(xr(a), xr(b)), op(Fraction(a), Fraction(b))
        assert got == want and hash(got) == hash(want)
        assert (got.numerator, got.denominator) == \
            (want.numerator, want.denominator)

    @given(st.integers(-10**40, 10**40), st.integers(-10**40, 10**40),
           st.integers(1, 10**40))
    def test_shared_denominator_sums(self, a, b, d):
        x, y = xr(a, d), xr(b, d)
        assert x + y == Fraction(a, d) + Fraction(b, d)
        assert x - y == Fraction(a, d) - Fraction(b, d)

    @given(st.one_of(_wrapped, _plain), st.one_of(_wrapped, _plain))
    def test_parts_stay_ints_through_every_operation(self, a, b):
        # every finite result stores an int numerator over a positive int
        # denominator in lowest terms: no float, no Fraction
        x, y = _operand(ExtRational, a), _operand(ExtRational, b)
        for op in _ARITHMETIC + [lambda u, v: -u, lambda u, v: abs(u)]:
            for u, v in ((x, y), (y, x)):
                try:
                    r = op(u, v)
                except (ArithmeticError, TypeError, ValueError):
                    continue  # refusals: the oracle tests match them
                if type(r) is ExtRational and r.is_finite:
                    n, d = (getattr(r, slot) for slot in ExtRational.__slots__)
                    assert type(n) is int and type(d) is int
                    assert d > 0 and math.gcd(n, d) == 1
                    assert (n, d) == (r.numerator, r.denominator)

    def test_exact_arithmetic(self):
        assert xr(1, 3) + xr(1, 6) == xr(1, 2)
        assert xr(2, 3) * xr(3, 4) == xr(1, 2)
        assert xr(7, 5) - xr(2, 5) == 1

    def test_infinity_conventions(self):
        assert 1 / INF == 0
        assert INF + 5 == INF
        assert xr(3) < INF
        assert not INF < INF
        assert INF == INF

    def test_undefined_forms_raise(self):
        with pytest.raises(ArithmeticError):
            INF - INF
        with pytest.raises(ArithmeticError):
            xr(0) * INF

    def test_string_parsing(self):
        assert xr("3/7") == xr(3, 7)
        assert xr("inf").is_infinite

    @given(rationals, rationals)
    def test_total_order(self, a, b):
        x, y = xr(a), xr(b)
        assert (x < y) + (x == y) + (y < x) == 1


class TestPosPartAndDeficiency:
    def test_pos_part_examples(self):
        assert pos_part(3) == 3
        assert pos_part(-2) == 0
        assert pos_part(0) == 0

    @given(rationals)
    def test_pos_part_splits_abs(self, a):
        assert pos_part(a) + pos_part(-a) == abs(xr(a))

    def test_deficiency_examples(self):
        assert deficiency(1, INF, 3) == 3
        assert deficiency(2, 2, 5) == 0
        assert deficiency(4, 4, 2) == xr(1, 2)

    @given(st.integers(min_value=1, max_value=10))
    def test_deficiency_vanishes_at_two(self, d):
        assert deficiency(2, 2, d) == 0

    @given(st.fractions(min_value=Fraction(1), max_value=Fraction(2),
                        max_denominator=16).filter(lambda p: p < 2),
           st.fractions(min_value=Fraction(2), max_value=Fraction(50),
                        max_denominator=16).filter(lambda p: p > 2),
           st.integers(min_value=1, max_value=6))
    def test_deficiency_collapses_when_both_parts_active(self, p1, p2, d):
        # p1 < 2 < p2: both positive parts are strictly positive and the sum
        # telescopes to d(1/p1 - 1/p2)
        assert deficiency(p1, p2, d) == xr(d) / xr(p1) - xr(d) / xr(p2)

    def test_deficiency_range_errors(self):
        with pytest.raises(ParameterRangeError):
            deficiency(Fraction(1, 2), 2, 1)
        with pytest.raises(ParameterRangeError):
            deficiency(2, 2, 0)


small_indices = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=3)),
    min_size=1, max_size=4)


class TestCoherentSet:
    def test_closure_examples(self):
        assert set(coherent_closure([(2, 0)], 2).elements) == \
            {(0, 0), (1, 0), (2, 0)}
        assert set(coherent_closure([(1, 1)], 2).elements) == \
            {(0, 0), (1, 0), (0, 1), (1, 1)}
        assert coherent_closure([(0, 0)], 2).elements == ((0, 0),)

    def test_max_order(self):
        assert coherent_closure([(2, 1)], 2).max_order == 3

    def test_incoherent_rejected(self):
        from rkhs_sandwich.spaces import CoherenceError
        with pytest.raises(CoherenceError):
            CoherentSet(((0, 1),))
        with pytest.raises(CoherenceError):
            coherent_closure([], 2)

    @given(small_indices)
    def test_closure_idempotent(self, idx):
        once = coherent_closure(idx, 2)
        again = coherent_closure(once.elements, 2)
        assert once.elements == again.elements

    @given(small_indices, small_indices)
    def test_closure_monotone(self, a, b):
        sub = coherent_closure(a, 2)
        sup = coherent_closure(a + b, 2)
        assert set(sub.elements) <= set(sup.elements)


class TestValidation:
    def test_holder_accepted(self):
        holder(Fraction(1, 2), cube(2))

    def test_holder_range_error(self):
        with pytest.raises(SmoothnessRangeError):
            holder(2, cube(2))

    def test_tl_infinite_p_rejected(self):
        with pytest.raises(IntegrabilityRangeError):
            triebel_lizorkin(1, INF, 2, cube(1))

    def test_integer_slobodeckij_needs_p_above_one(self):
        with pytest.raises(IntegrabilityRangeError):
            slobodeckij(2, 1, cube(1))
        slobodeckij(Fraction(3, 2), 1, cube(1))  # non-integer s is fine

    def test_sequence_space_domain(self):
        assert not sequence_lp(2).domain.bounded

    @pytest.mark.parametrize("kind,table", [("sequence-index", None),
                                            ("finite-metric-set", [[0]])])
    def test_index_and_metric_domains_carry_no_dimension(self, kind, table):
        with pytest.raises(DomainError, match=f"{kind} carries no dimension"):
            DomainSpec(kind, 1, metric_table=table)

    def test_metric_table_triangle_inequality(self):
        with pytest.raises(DomainError):
            finite_metric([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        finite_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])

    def test_metric_table_triangle_boundary(self):
        # 1/3 + 2/7 = 13/21: equality holds; one step of 1/21 more breaks it
        a, b = Fraction(1, 3), Fraction(2, 7)
        finite_metric([[0, a, a + b], [a, 0, b], [a + b, b, 0]])
        c = a + b + Fraction(1, math.lcm(3, 7))
        with pytest.raises(DomainError, match="triangle inequality"):
            finite_metric([[0, a, c], [a, 0, b], [c, b, 0]])

    @given(st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(st.fractions(min_value=Fraction(1, 8), max_value=4,
                                        max_denominator=12),
                           min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
        .map(lambda upper: (n, upper))))
    def test_metric_table_triangle_matches_fraction_check(self, case):
        n, upper = case
        t = [[Fraction(0)] * n for _ in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for (i, j), x in zip(pairs, upper):
            t[i][j] = t[j][i] = x
        metric = all(t[i][j] <= t[i][k] + t[k][j]
                     for i in range(n) for j in range(n) for k in range(n))
        if metric:
            assert finite_metric(t).metric_table == tuple(map(tuple, t))
        else:
            with pytest.raises(DomainError, match="triangle inequality"):
                finite_metric(t)

    def test_metric_table_symmetry(self):
        with pytest.raises(DomainError):
            finite_metric([[0, 1], [2, 0]])
