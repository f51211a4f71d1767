"""Kernel power-series splitting, radius estimates, applicability checks."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rkhs_sandwich import (DecompositionReport, SeriesSpec, check_applicability,
                           cosine_series, radius_lower_bound, split_series)
from rkhs_sandwich.irkbs import OutOfDomainError, SeriesError


class TestSeriesSpec:
    def test_too_short(self):
        with pytest.raises(SeriesError):
            SeriesSpec((Fraction(1),))

    def test_all_zero(self):
        with pytest.raises(SeriesError):
            SeriesSpec((Fraction(0), Fraction(0)))

    def test_nonpositive_radius(self):
        with pytest.raises(SeriesError):
            SeriesSpec((Fraction(1), Fraction(1)), Fraction(0))


class TestSplit:
    def test_cosine_split_pattern(self):
        # positive part keeps 1/(4i)!, negative part keeps 1/(4i+2)!
        spec = cosine_series(12)
        plus, minus = split_series(spec)
        for i in range(12):
            if i % 4 == 0:
                assert plus[i] == Fraction(1, math.factorial(i))
                assert minus[i] == 0
            elif i % 2 == 0:
                assert minus[i] == Fraction(1, math.factorial(i))
                assert plus[i] == 0
            else:
                assert plus[i] == minus[i] == 0

    def test_all_nonnegative_series_has_zero_minus(self):
        spec = SeriesSpec((Fraction(1), Fraction(1, 2), Fraction(1, 4)))
        plus, minus = split_series(spec)
        assert plus == spec.coefficients
        assert all(c == 0 for c in minus)

    def test_pure_negative_constant(self):
        plus, minus = split_series(SeriesSpec((Fraction(-1), Fraction(0))))
        assert all(c == 0 for c in plus)
        assert minus == (Fraction(1), Fraction(0))

    @given(st.lists(st.fractions(min_value=-5, max_value=5), min_size=2,
                    max_size=8).filter(lambda cs: any(c != 0 for c in cs)))
    def test_split_reconstructs(self, coeffs):
        spec = SeriesSpec(tuple(coeffs))
        plus, minus = split_series(spec)
        assert tuple(a - b for a, b in zip(plus, minus)) == spec.coefficients
        assert all(a >= 0 for a in plus) and all(b >= 0 for b in minus)
        # the parts never overlap: at most one of them is nonzero per index
        assert all(a == 0 or b == 0 for a, b in zip(plus, minus))


class TestRadiusLowerBound:
    def test_exact_geometric_tail(self):
        est = radius_lower_bound((Fraction(1), Fraction(1, 2), Fraction(1, 4),
                                  Fraction(1, 8)))
        assert est.method == "geometric-fit"
        assert est.value == pytest.approx(2.0, rel=1e-12)

    def test_all_ones(self):
        est = radius_lower_bound((Fraction(1),) * 5)
        assert est.method == "geometric-fit"
        assert est.value == pytest.approx(1.0, rel=1e-12)

    def test_cosine_parts_are_entire(self):
        plus, minus = split_series(cosine_series(16))
        for part in (plus, minus):
            est = radius_lower_bound(part)
            assert est.is_infinite
            assert est.method == "factorial-detect"

    def test_all_zero_tag(self):
        est = radius_lower_bound((Fraction(0), Fraction(0)))
        assert est.is_infinite and est.method == "all-zero"

    def test_constant_only(self):
        est = radius_lower_bound((Fraction(-1), Fraction(0)))
        assert est.is_infinite and est.method == "factorial-detect"

    def test_too_short(self):
        with pytest.raises(SeriesError):
            radius_lower_bound((Fraction(1),))

    @pytest.mark.parametrize("coeffs", [
        # a root that underflows to 0.0, then 1/0
        (Fraction(0), Fraction(1, 10 ** 400)),
        # a geometric ratio that underflows to 0.0, then 1/0
        (Fraction(1), Fraction(1, 10 ** 200), Fraction(1, 10 ** 400),
         Fraction(1, 10 ** 600)),
        # a coefficient beyond the largest float
        (Fraction(1), Fraction(10 ** 400)),
    ])
    def test_float_range_is_refused(self, coeffs):
        with pytest.raises(SeriesError, match="leaves the float range"):
            radius_lower_bound(coeffs)
        with pytest.raises(SeriesError, match="leaves the float range"):
            check_applicability(SeriesSpec(coeffs, None))


class TestApplicability:
    def test_radius_beyond_the_float_range_is_refused(self):
        # rho^2 and the diagonal bound overflow a float
        spec = SeriesSpec((Fraction(0), Fraction(1)), Fraction(10 ** 400))
        with pytest.raises(SeriesError, match="leaves the float range"):
            check_applicability(spec)

    def test_bounded_domain_cosine(self):
        report = check_applicability(cosine_series(12))
        assert report.psi_bounded_on_domain == "yes"
        assert report.lemma_applicable == "yes-bounded-kernels"
        # sum of |coefficients| at rho = 1 is the truncated cosh(1)
        assert report.diagonal_bound == pytest.approx(math.cosh(1.0), rel=1e-8)
        assert report.reconstructed() == cosine_series(12).coefficients

    def test_whole_space_cosine_condition(self):
        spec = SeriesSpec(cosine_series(12).coefficients, None)
        report = check_applicability(spec)
        assert report.psi_bounded_on_domain == "no"
        assert report.lemma_applicable == "conditional"
        assert "cosh" in report.required_integrability
        assert report.diagonal_bound is None

    def test_whole_space_generic_condition(self):
        spec = SeriesSpec((Fraction(1), Fraction(-1), Fraction(1, 3)), None)
        report = check_applicability(spec)
        assert report.lemma_applicable == "conditional"
        assert "cosh" not in report.required_integrability

    def test_user_restricted_class(self):
        spec = SeriesSpec(cosine_series(12).coefficients, None)
        report = check_applicability(spec, measure_class="user-restricted")
        assert report.psi_bounded_on_domain == "undetermined"
        assert report.lemma_applicable == "conditional"

    def test_unknown_measure_class(self):
        with pytest.raises(SeriesError):
            check_applicability(cosine_series(12), measure_class="everything")

    def test_domain_exceeds_radius(self):
        coeffs = (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
        with pytest.raises(OutOfDomainError):
            check_applicability(SeriesSpec(coeffs, Fraction(3, 2)))

    def test_applicability_monotone_in_rho(self):
        # radius 2: rho^2 < 2 passes, rho^2 >= 2 is rejected
        coeffs = (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
        for rho in (Fraction(1, 2), Fraction(1), Fraction(7, 5)):
            report = check_applicability(SeriesSpec(coeffs, rho))
            assert report.lemma_applicable == "yes-bounded-kernels"
        for rho in (Fraction(3, 2), Fraction(2)):
            with pytest.raises(OutOfDomainError):
                check_applicability(SeriesSpec(coeffs, rho))

    def test_diagonal_bound_grows_with_rho(self):
        coeffs = (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
        b_small = check_applicability(SeriesSpec(coeffs, Fraction(1, 2)))
        b_large = check_applicability(SeriesSpec(coeffs, Fraction(1)))
        assert b_small.diagonal_bound < b_large.diagonal_bound

