"""Positive decompositions of power-series kernels and applicability checks.

A symmetric kernel Psi(x, y) = sigma(<x, y>) with sigma(t) = sum lambda_i t^i
splits as k1 - k2 where k1 collects the positive coefficients and k2 the
negatives; both are positive definite on the ball where their series
converge.  The integral space built from Psi then embeds into the RKHS of
k1 + k2 whenever both kernels are integrable against the measure class.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

Coeff = Fraction
Radius = Union[float, None]  # None encodes +infinity


class SeriesError(ValueError):
    pass


class OutOfDomainError(SeriesError):
    pass


def _float_range_refused(fn):
    """fn with float overflow, and division by a float that underflowed to
    0, raised as SeriesError: the estimates and bounds are floats, so a
    coefficient or radius far outside the float range has none."""
    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (OverflowError, ZeroDivisionError) as exc:
            raise SeriesError(f"the series leaves the float range ({exc})") from None
    return checked


@dataclass(frozen=True)
class SeriesSpec:
    """Truncated power-series activation sigma(t) = sum coefficients[i] t^i.

    domain_radius rho bounds |<x, y>| <= rho^2 for inputs in the ball of
    radius rho; rho = None means the whole space (all of R^d).
    """

    coefficients: Tuple[Fraction, ...]
    domain_radius: Optional[Fraction] = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "coefficients",
                           tuple(Fraction(c) for c in self.coefficients))
        if len(self.coefficients) < 2:
            raise SeriesError("need a truncation of length >= 2")
        if all(c == 0 for c in self.coefficients):
            raise SeriesError("coefficients must not all vanish")
        if self.domain_radius is not None and self.domain_radius <= 0:
            raise SeriesError("domain radius must be positive (None = whole space)")


def cosine_series(length: int = 12) -> SeriesSpec:
    """Truncation of cos(t): lambda_{2i} = (-1)^i / (2i)!, odd terms zero."""
    coeffs = []
    for i in range(length):
        if i % 2 == 0:
            coeffs.append(Fraction((-1) ** (i // 2), math.factorial(i)))
        else:
            coeffs.append(Fraction(0))
    return SeriesSpec(tuple(coeffs))


def split_series(spec: SeriesSpec) -> Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]:
    """Element-wise positive/negative parts; plus - minus reconstructs."""
    plus = tuple(c if c > 0 else Fraction(0) for c in spec.coefficients)
    minus = tuple(-c if c < 0 else Fraction(0) for c in spec.coefficients)
    return plus, minus


@dataclass(frozen=True)
class RadiusEstimate:
    value: Optional[float]  # None = +infinity
    method: str  # geometric-fit | factorial-detect | raw | all-zero

    @property
    def is_infinite(self) -> bool:
        return self.value is None


@_float_range_refused
def radius_lower_bound(coeffs) -> RadiusEstimate:
    """Convergence-radius estimate from a truncation.

    Cauchy-Hadamard 1/limsup |c_i|^(1/i) evaluated on the available terms;
    an exactly geometric nonzero tail is detected and reported as such, and
    super-geometric (factorial-like) decay of the root sequence is reported
    as an infinite radius.  Always a statement about the truncation only.
    """
    coeffs = [Fraction(c) for c in coeffs]
    if len(coeffs) < 2:
        raise SeriesError("need >= 2 coefficients")
    if all(c == 0 for c in coeffs):
        return RadiusEstimate(None, "all-zero")
    nz = [(i, abs(c)) for i, c in enumerate(coeffs) if i > 0 and c != 0]
    if not nz:
        # constant term only: polynomial, converges everywhere
        return RadiusEstimate(None, "factorial-detect")
    # exactly geometric: |c_i| = a * r^i on the nonzero tail (two points
    # always fit a geometric law, so demand at least three)
    if len(nz) >= 3:
        (i0, c0), (i1, c1) = nz[0], nz[-1]
        ratio_pow = c1 / c0  # = r^(i1 - i0) if geometric
        geometric = True
        for i, c in nz:
            lhs = (c / c0) ** (i1 - i0)
            rhs = ratio_pow ** (i - i0)
            if lhs != rhs:
                geometric = False
                break
        if geometric and ratio_pow > 0:
            r = float(ratio_pow) ** (1.0 / (i1 - i0))
            return RadiusEstimate(1.0 / r, "geometric-fit")
    roots = [float(c) ** (1.0 / i) for i, c in nz]
    # strictly decreasing root sequence with substantial decay: the limsup
    # tends to 0, so report an infinite radius (factorial-type tail)
    if len(roots) >= 2 and all(b < a for a, b in zip(roots, roots[1:])) \
            and roots[-1] < 0.6 * roots[0]:
        return RadiusEstimate(None, "factorial-detect")
    return RadiusEstimate(1.0 / max(roots[-3:]), "raw")


@dataclass(frozen=True)
class DecompositionReport:
    sigma_plus: Tuple[Fraction, ...]
    sigma_minus: Tuple[Fraction, ...]
    radius_plus: RadiusEstimate
    radius_minus: RadiusEstimate
    psi_bounded_on_domain: str  # yes | no | undetermined
    lemma_applicable: str  # yes-bounded-kernels | conditional | no
    required_integrability: str
    diagonal_bound: Optional[float] = None  # sum |c_i| rho^(2i) when finite

    def reconstructed(self) -> Tuple[Fraction, ...]:
        return tuple(a - b for a, b in zip(self.sigma_plus, self.sigma_minus))


def _diagonal_series(coeffs, rho: Fraction) -> float:
    return float(sum(abs(c) * rho ** (2 * i) for i, c in enumerate(coeffs)))


def _is_cosine_pattern(coeffs) -> bool:
    """|c_{2i}| = 1/(2i)! with odd terms zero, checked exactly."""
    for i, c in enumerate(coeffs):
        if i % 2 == 1:
            if c != 0:
                return False
        elif abs(c) != Fraction(1, math.factorial(i)):
            return False
    return True


@_float_range_refused
def check_applicability(spec: SeriesSpec,
                        measure_class: str = "all-finite-signed") -> DecompositionReport:
    """Can the integral space of Psi = sigma(<.,.>) be placed under an RKHS?

    Bounded domain with both split kernels converging: yes, via the sum
    kernel k1 + k2 whose diagonal is bounded, so every finite signed measure
    integrates sqrt(k1 + k2).  Whole space: the verdict is conditional on the
    instantiated integrability requirement.
    """
    if measure_class not in ("all-finite-signed", "user-restricted"):
        raise SeriesError(f"unknown measure class {measure_class!r}")
    plus, minus = split_series(spec)
    rad_plus = radius_lower_bound(plus) if any(plus) else RadiusEstimate(None, "all-zero")
    rad_minus = radius_lower_bound(minus) if any(minus) else RadiusEstimate(None, "all-zero")

    rho = spec.domain_radius
    if rho is not None:
        for rad in (rad_plus, rad_minus):
            if not rad.is_infinite and float(rho) ** 2 >= rad.value:
                raise OutOfDomainError(
                    f"rho^2 = {float(rho) ** 2} reaches the radius estimate "
                    f"{rad.value} ({rad.method})")
        bound = _diagonal_series(spec.coefficients, rho)
        return DecompositionReport(
            plus, minus, rad_plus, rad_minus,
            psi_bounded_on_domain="yes",
            lemma_applicable="yes-bounded-kernels",
            required_integrability=(
                "integral of sqrt(k1(x,x) + k2(x,x)) d|mu| <= "
                f"|mu|(X) * sqrt({bound:.6g}) < infinity for every finite "
                "signed measure"),
            diagonal_bound=bound)

    # whole space: diagonals grow without bound; the embedding needs the
    # series of absolute terms to be mu-integrable
    if measure_class == "all-finite-signed":
        if _is_cosine_pattern(spec.coefficients):
            condition = ("cosh(<., x>) in L1(mu) for mu-a.e. x "
                         "(sum |lambda_i| <., x>^i = cosh)")
        else:
            condition = "sum_i |lambda_i| <., x>^i in L1(mu) for mu-a.e. x"
        return DecompositionReport(
            plus, minus, rad_plus, rad_minus,
            psi_bounded_on_domain="no",
            lemma_applicable="conditional",
            required_integrability=condition)
    return DecompositionReport(
        plus, minus, rad_plus, rad_minus,
        psi_bounded_on_domain="undetermined",
        lemma_applicable="conditional",
        required_integrability=(
            "the restricted measure class must make sum |lambda_i| <., x>^i "
            "integrable"))

