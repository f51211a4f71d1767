"""Bump families: smooth scaled translates, Hoelder tents, indicators.

The smooth reference bump is f(x) = c * exp(-1/(1-|x|^2)) on the open unit
ball, with c = e so that f(0) = 1.  Its derivatives are represented exactly
as rational prefactors times f itself:

    d_alpha f = P_alpha(x) / w(x)^m_alpha * f(x),   w(x) = 1 - |x|^2,

where P_alpha has exact rational coefficients produced by the product/chain
rule recurrence from P_0 = 1.  This avoids nested numerical differentiation,
which is hopeless near the flat support boundary.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .spaces import DomainSpec, ball
from .packing import greedy_packing

Poly = Dict[Tuple[int, ...], Fraction]  # exponent tuple -> coefficient

# below this w = 1-|x|^2 the bump underflows anything the prefactor can
# blow up to; treat the product as exactly 0
_W_FLOOR = 0.004
# relative widening of a support box's x0-range in SignedSum, far above the
# rounding of box faces and of tent distances
_BOX_PAD = 1e-9


def _poly_mul_x(p: Poly, j: int, d: int) -> Poly:
    out: Poly = {}
    for e, c in p.items():
        e2 = e[:j] + (e[j] + 1,) + e[j + 1:]
        out[e2] = out.get(e2, Fraction(0)) + c
    return out


def _poly_diff(p: Poly, j: int) -> Poly:
    out: Poly = {}
    for e, c in p.items():
        if e[j] > 0:
            e2 = e[:j] + (e[j] - 1,) + e[j + 1:]
            out[e2] = out.get(e2, Fraction(0)) + c * e[j]
    return out


def _poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c != 0}


def _poly_scale(p: Poly, k) -> Poly:
    return {e: c * k for e, c in p.items()}


def _poly_mul_w(p: Poly, d: int) -> Poly:
    """Multiply by w = 1 - sum x_j^2."""
    out = dict(p)
    for j in range(d):
        sq = _poly_mul_x(_poly_mul_x(p, j, d), j, d)
        out = _poly_add(out, _poly_scale(sq, Fraction(-1)))
    return out


def _poly_eval(p: Poly, X: np.ndarray) -> np.ndarray:
    # X has shape (n, d)
    out = np.zeros(X.shape[0])
    for e, c in p.items():
        term = np.full(X.shape[0], float(c))
        for j, ej in enumerate(e):
            if ej:
                term = term * X[:, j] ** ej
        out += term
    return out


class SmoothBump:
    """The reference bump on the unit ball of R^d, normalized to f(0) = 1."""

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self._prefactors: Dict[Tuple[int, ...], Tuple[Poly, int]] = {
            (0,) * dimension: ({(0,) * dimension: Fraction(1)}, 0)}

    def derivative_prefactor(self, alpha: Sequence[int]) -> Tuple[Poly, int]:
        """(P_alpha, m_alpha) with d_alpha f = P_alpha / w^m_alpha * f."""
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.dimension or any(a < 0 for a in alpha):
            raise ValueError(f"bad multi-index {alpha} for dimension {self.dimension}")
        if alpha in self._prefactors:
            return self._prefactors[alpha]
        j = next(i for i, a in enumerate(alpha) if a > 0)
        below = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]
        p, m = self.derivative_prefactor(below)
        d = self.dimension
        # R = P/w^m;  d_j R = (d_j P)/w^m + 2 m x_j P / w^(m+1)
        # R * R_ej = -2 x_j P / w^(m+2)
        term1 = _poly_mul_w(_poly_mul_w(_poly_diff(p, j), d), d)
        term2 = _poly_mul_w(_poly_scale(_poly_mul_x(p, j, d), 2 * m), d)
        term3 = _poly_scale(_poly_mul_x(p, j, d), Fraction(-2))
        result = (_poly_add(_poly_add(term1, term2), term3), m + 2)
        self._prefactors[alpha] = result
        return result

    def _w(self, X: np.ndarray) -> np.ndarray:
        return 1.0 - (X * X).sum(axis=1)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        w = self._w(X)
        out = np.zeros(len(X))
        inside = w > _W_FLOOR
        out[inside] = np.exp(1.0 - 1.0 / w[inside])
        return out

    def derivative_values(self, alpha: Sequence[int], X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        p, m = self.derivative_prefactor(alpha)
        w = self._w(X)
        out = np.zeros(len(X))
        inside = w > _W_FLOOR
        if inside.any():
            Xi, wi = X[inside], w[inside]
            out[inside] = _poly_eval(p, Xi) / wi ** m * np.exp(1.0 - 1.0 / wi)
        return out


@lru_cache(maxsize=8)
def reference_bump(dimension: int) -> SmoothBump:
    return SmoothBump(dimension)


def eval_bump(x, dimension: Optional[int] = None) -> float:
    """The reference bump at a single point."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = dimension or len(x)
    return float(reference_bump(d)(x.reshape(1, d))[0])


def eval_bump_derivative(alpha: Sequence[int], x) -> float:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = len(alpha)
    return float(reference_bump(d).derivative_values(alpha, x.reshape(1, d))[0])


# -- function objects -----------------------------------------------------

class SmoothBumpMember:
    """f(delta^-1 (x - center)): one scaled translate of the reference bump."""

    def __init__(self, dimension: int, center: np.ndarray, delta: float,
                 alpha: Optional[Tuple[int, ...]] = None):
        self.dimension = dimension
        self.center = np.asarray(center, dtype=float)
        self.delta = float(delta)
        self.alpha = alpha or (0,) * dimension
        self._bump = reference_bump(dimension)

    @property
    def support_box(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.center - self.delta, self.center + self.delta

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Y = (X - self.center) / self.delta
        scale = self.delta ** (-sum(self.alpha))
        if sum(self.alpha) == 0:
            return self._bump(Y)
        return scale * self._bump.derivative_values(self.alpha, Y)

    def derivative(self, alpha: Sequence[int]) -> "SmoothBumpMember":
        total = tuple(a + b for a, b in zip(self.alpha, alpha))
        return SmoothBumpMember(self.dimension, self.center, self.delta, total)


class TentMember:
    """(delta - d^alpha(center, x))_+ : the Hoelder tent bump."""

    def __init__(self, center: np.ndarray, delta: float, alpha: float):
        self.center = np.asarray(center, dtype=float)
        self.delta = float(delta)
        self.alpha = float(alpha)

    @property
    def support_box(self) -> Tuple[np.ndarray, np.ndarray]:
        r = self.delta ** (1.0 / self.alpha)
        return self.center - r, self.center + r

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        dist = np.linalg.norm(X - self.center, axis=1)
        return np.maximum(self.delta - dist ** self.alpha, 0.0)


class IndicatorMember:
    """Indicator of an axis-aligned cell."""

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)

    @property
    def support_box(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.lo, self.hi

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        inside = np.all((X >= self.lo) & (X < self.hi), axis=1)
        return inside.astype(float)


class SignedSum:
    """sum_i eps_i f_i over family members with a fixed sign pattern.

    Every member must vanish exactly (value 0.0) outside its support_box:
    TentMember beyond radius delta^(1/alpha), SmoothBumpMember where
    w <= _W_FLOOR, IndicatorMember outside its cell.  A call evaluates the
    members once per point set into a sparse member-value matrix: its rows
    are the points sorted by x0, its columns the members in member order,
    and its entries each member's values on the rows whose x0 lies in its
    box (widened by _BOX_PAD against rounding, found by bisection), with
    exact zeros dropped.  The sum is then one mat-vec, np.bincount of the
    entries times their column's sign over the rows, scattered back to the
    points' order.  bincount adds each row's entries in member order from
    0.0, and a partial sum that starts at 0.0 is never -0.0, so a dropped
    zero would have left it unchanged: the values equal the sum over all
    members at all points bit for bit, np.signbit included.

    with_signs gives a SignedSum over the same members that shares the
    support boxes and, from then on, the matrix of the last point set any
    of the sharing sums was called on; the matrix is reused only on points
    bit-identical to that set, so the sign patterns of one Rademacher
    average evaluate the members once.  A sum that shares nothing keeps no
    matrix.
    """

    def __init__(self, members: Sequence, signs: Sequence[int]):
        self.members = list(members)
        self.signs = _checked_signs(signs, len(self.members))
        self._boxes = [m.support_box for m in self.members]
        lo0 = np.array([lo[0] for lo, _ in self._boxes], dtype=float)
        hi0 = np.array([hi[0] for _, hi in self._boxes], dtype=float)
        pad = _BOX_PAD * (np.abs(lo0) + np.abs(hi0))
        self._x0_range = (lo0 - pad, hi0 + pad)
        # [(a copy of the points, the matrix)] of the last call, one list
        # shared by the sums that with_signs makes
        self._last = None

    @property
    def support_boxes(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        return list(self._boxes)

    def with_signs(self, signs: Sequence[int]) -> "SignedSum":
        """The same members with another sign pattern, sharing this sum's
        support boxes and member-value matrix."""
        if self._last is None:
            self._last = [None]
        other = copy.copy(self)
        other.signs = _checked_signs(signs, len(self.members))
        return other

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        order, rows, counts, vals = self._matrix(X)
        weights = np.repeat(np.asarray(self.signs, dtype=float), counts)
        weights *= vals
        out = np.empty(len(X))
        out[order] = np.bincount(rows, weights, minlength=len(X))
        return out

    def _matrix(self, X: np.ndarray):
        """(order, rows, counts, vals): the sort order of X by x0, and the
        member-value matrix's entries column by column, as row indices into
        the sorted points, entries per member and values."""
        if self._last is not None:
            last = self._last[0]
            if last is not None and \
                    np.array_equal(X.view(np.uint64), last[0].view(np.uint64)):
                return last[1]  # the same points, bit for bit
            self._last[0] = None  # free the old matrix first
        order = np.argsort(X[:, 0], kind="stable")
        Xs = X[order]
        starts = np.searchsorted(Xs[:, 0], self._x0_range[0], side="left")
        stops = np.searchsorted(Xs[:, 0], self._x0_range[1], side="right")
        rows, vals = [np.empty(0, dtype=np.intp)], [np.empty(0)]
        counts = [0] * len(self.members)
        for j, (m, a, b) in enumerate(zip(self.members, starts.tolist(),
                                          stops.tolist())):
            if a < b:
                v = m(Xs[a:b])
                nz = (v != 0.0).nonzero()[0]
                rows.append(nz + a)
                vals.append(v[nz])
                counts[j] = len(nz)
        matrix = (order, np.concatenate(rows), counts, np.concatenate(vals))
        if self._last is not None:
            self._last[0] = (X.copy(), matrix)
        return matrix

    def derivative(self, alpha: Sequence[int]) -> "SignedSum":
        return SignedSum([m.derivative(alpha) for m in self.members], self.signs)


def _checked_signs(signs: Sequence[int], n: int) -> List[int]:
    signs = list(signs)
    if len(signs) != n:
        raise ValueError("one sign per member")
    if any(s not in (-1, 1) for s in signs):
        raise ValueError("signs must be +-1")
    return signs


@dataclass
class BumpFamily:
    """n disjointly supported translates of a reference bump.

    For the smooth reference, centers form a (3 delta)-packing (Euclidean);
    for tents, a (3 delta)-packing in the power metric d^alpha, so supports
    (radius delta^(1/alpha)) stay disjoint.
    """

    reference: str  # "smooth" | "hoelder-tent"
    delta: float
    centers: np.ndarray
    domain: DomainSpec
    tent_alpha: Optional[float] = None

    def __post_init__(self):
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        if not 0 < self.delta <= 0.5:
            raise ValueError("delta must lie in (0, 1/2]")
        if len(self.centers) < 2:
            return
        metric_pow = 1.0 if self.reference == "smooth" else self.tent_alpha
        from scipy.spatial import cKDTree
        # distance from each center to its nearest other center
        nearest = cKDTree(self.centers).query(self.centers, k=2)[0][:, 1]
        if float(np.min(nearest)) ** metric_pow < 3 * self.delta - 1e-12:
            raise ValueError("some centers are closer than 3*delta in the "
                             "family metric")

    @property
    def n(self) -> int:
        return len(self.centers)

    @property
    def dimension(self) -> int:
        return self.centers.shape[1]

    @property
    def members(self) -> List:
        if self.reference == "smooth":
            return [SmoothBumpMember(self.dimension, c, self.delta)
                    for c in self.centers]
        return [TentMember(c, self.delta, self.tent_alpha) for c in self.centers]

    def signed_sum(self, signs: Sequence[int]) -> SignedSum:
        return SignedSum(self.members, signs)

    def all_plus(self) -> SignedSum:
        return self.signed_sum([1] * self.n)


def smooth_family(dimension: int, delta, n: Optional[int] = None,
                  domain: Optional[DomainSpec] = None,
                  centers: Optional[np.ndarray] = None) -> BumpFamily:
    """Scaled smooth bumps with centers from a greedy 3*delta-packing of the
    ball of radius R/2 inside the domain ball of radius R (default 1)."""
    delta = Fraction(delta)
    domain = domain or ball(dimension)
    if centers is None:
        inner = ball(dimension, Fraction(domain.radius) / 2)
        packing = greedy_packing(inner, 3 * delta)
        centers = packing.centers_array()
        if n is not None:
            if n > len(centers):
                raise ValueError(f"packing provides only {len(centers)} centers")
            centers = centers[:n]
    return BumpFamily("smooth", float(delta), centers, domain)


def tent_family(domain: DomainSpec, delta, alpha,
                centers: Optional[np.ndarray] = None) -> BumpFamily:
    """Hoelder tents of height delta with centers 3*delta-separated in d^alpha."""
    delta, alpha = Fraction(delta), Fraction(alpha)
    if centers is None:
        packing = greedy_packing(domain, 3 * delta, alpha)
        centers = packing.centers_array()
    return BumpFamily("hoelder-tent", float(delta), centers, domain,
                      tent_alpha=float(alpha))


def indicator_partition(dimension: int, cells_per_axis: int,
                        domain: Optional[DomainSpec] = None) -> List[IndicatorMember]:
    """Partition of the unit cube into cells_per_axis^d congruent cells."""
    h = 1.0 / cells_per_axis
    members = []
    for idx in itertools.product(range(cells_per_axis), repeat=dimension):
        lo = np.array(idx, dtype=float) * h
        members.append(IndicatorMember(lo, lo + h))
    return members
