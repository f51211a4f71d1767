"""Bump families: smooth scaled translates, Hoelder tents, indicators.

The smooth reference bump is f(x) = c * exp(-1/(1-|x|^2)) on the open unit
ball, with c = e so that f(0) = 1.  Its derivatives are represented exactly
as rational prefactors times f itself:

    d_alpha f = P_alpha(x) / w(x)^m_alpha * f(x),   w(x) = 1 - |x|^2,

where P_alpha has exact rational coefficients produced by the product/chain
rule recurrence from P_0 = 1.  This avoids nested numerical differentiation,
which is hopeless near the flat support boundary.  P_alpha is evaluated
with each power x_j^k formed once, by multiplication (x_j^k = x_j^(k-1) x_j),
and shared by all its monomials: NumPy's pow takes a slow scalar path on a
negative base.
"""

from __future__ import annotations

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
# relative widening of a support box's ball in SignedSum's point search, far
# above the rounding of box faces and of tent distances
_BOX_PAD = 1e-9


def _multi_index(alpha: Sequence, dimension: int) -> Tuple[int, ...]:
    """alpha as a tuple of ints; it must hold exactly dimension entries,
    each a non-negative integral value."""
    alpha = tuple(alpha)
    try:
        ok = len(alpha) == dimension and all(a >= 0 and a == int(a) for a in alpha)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"bad multi-index {alpha} for dimension {dimension}")
    return tuple(int(a) for a in alpha)


def _poly_mul_x(p: Poly, j: int) -> Poly:
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
        sq = _poly_mul_x(_poly_mul_x(p, j), j)
        out = _poly_add(out, _poly_scale(sq, Fraction(-1)))
    return out


def _poly_eval(p: Poly, X: np.ndarray) -> np.ndarray:
    """P at the rows of X, shape (n, d): each monomial c x_0^e0 x_1^e1 ...
    multiplied left to right and added in p's order, with each power x_j^k
    formed once, as x_j^(k-1) x_j, and shared across the monomials."""
    top = np.max(list(p), axis=0)
    powers = []  # powers[j][k - 1] = x_j^k
    for j in range(X.shape[1]):
        col = X[:, j]
        pw = [col]
        for _ in range(1, top[j]):
            pw.append(pw[-1] * col)
        powers.append(pw)
    out = np.zeros(X.shape[0])
    for e, c in p.items():
        term = np.full(X.shape[0], float(c))
        for j, ej in enumerate(e):
            if ej:
                term *= powers[j][ej - 1]
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
        alpha = _multi_index(alpha, self.dimension)
        if alpha in self._prefactors:
            return self._prefactors[alpha]
        j = next(i for i, a in enumerate(alpha) if a > 0)
        below = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]
        p, m = self.derivative_prefactor(below)
        d = self.dimension
        # R = P/w^m;  d_j R = (d_j P)/w^m + 2 m x_j P / w^(m+1)
        # R * R_ej = -2 x_j P / w^(m+2)
        term1 = _poly_mul_w(_poly_mul_w(_poly_diff(p, j), d), d)
        term2 = _poly_mul_w(_poly_scale(_poly_mul_x(p, j), 2 * m), d)
        term3 = _poly_scale(_poly_mul_x(p, j), Fraction(-2))
        result = (_poly_add(_poly_add(term1, term2), term3), m + 2)
        self._prefactors[alpha] = result
        return result

    def _w(self, X: np.ndarray) -> np.ndarray:
        # the column squares added left to right, as np.sum adds a row of
        # fewer than 8 entries: (X * X).sum(axis=1) bit for bit
        sq = X[:, 0] * X[:, 0]
        for j in range(1, X.shape[1]):
            sq += X[:, j] * X[:, j]
        return 1.0 - sq

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


# -- function objects -----------------------------------------------------

class SmoothBumpMember:
    """f(delta^-1 (x - center)): one scaled translate of the reference bump."""

    def __init__(self, dimension: int, center: np.ndarray, delta: float,
                 alpha: Optional[Tuple[int, ...]] = None):
        self.dimension = dimension
        self.center = np.asarray(center, dtype=float)
        self.delta = float(delta)
        self.alpha = (0,) * dimension if alpha is None else _multi_index(alpha, dimension)
        self._bump = reference_bump(dimension)

    @property
    def support_box(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.center - self.delta, self.center + self.delta

    @property
    def _batch(self):
        """(key, params): SignedSum evaluates the members of one key in one
        _values call, with their params stacked row by row."""
        return (SmoothBumpMember, self.dimension, self.delta, self.alpha), \
            (self.center,)

    def _values(self, X: np.ndarray, center: np.ndarray) -> np.ndarray:
        Y = (X - center) / self.delta
        if sum(self.alpha) == 0:
            return self._bump(Y)
        scale = self.delta ** (-sum(self.alpha))
        return scale * self._bump.derivative_values(self.alpha, Y)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return self._values(np.atleast_2d(np.asarray(X, dtype=float)), self.center)

    def derivative(self, alpha: Sequence[int]) -> "SmoothBumpMember":
        alpha = _multi_index(alpha, self.dimension)
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

    @property
    def _batch(self):
        return (TentMember, self.delta, self.alpha), (self.center,)

    def _values(self, X: np.ndarray, center: np.ndarray) -> np.ndarray:
        dist = np.linalg.norm(X - center, axis=1)
        return np.maximum(self.delta - dist ** self.alpha, 0.0)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return self._values(np.atleast_2d(np.asarray(X, dtype=float)), self.center)


class IndicatorMember:
    """Indicator of an axis-aligned cell."""

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)

    @property
    def support_box(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.lo, self.hi

    @property
    def _batch(self):
        return (IndicatorMember,), (self.lo, self.hi)

    def _values(self, X: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        return np.all((X >= lo) & (X < hi), axis=1).astype(float)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return self._values(np.atleast_2d(np.asarray(X, dtype=float)), self.lo, self.hi)


class SignedSum:
    """sum_i eps_i f_i over family members with a fixed sign pattern.

    A sum is its members and its signs: nothing else is derived before a
    call, so a sum that is only read (lp_norm integrates its members one by
    one) costs nothing more.

    A call gives the sum's values at the points X.  Given an n x k matrix
    of +-1 signs, one row per member, it gives instead the points x k
    values of the k sign patterns of its columns, column j equal bit for bit
    to SignedSum(members, signs[:, j])(X): the members are evaluated once
    for all k patterns.

    Every member must vanish exactly (value 0.0) outside its support_box:
    TentMember beyond radius delta^(1/alpha), SmoothBumpMember where
    w <= _W_FLOOR, IndicatorMember outside its cell.  A call evaluates the
    members into a sparse member-value matrix: its rows are the points, its
    columns the members in member order, and its entries each member's
    values at the finite points in a ball around its support_box, found on
    a k-d tree (_candidates), with exact zeros dropped.
    The members that share a _batch key (tents of one delta and alpha;
    smooth bumps of one dimension, delta and derivative) are evaluated in
    one _values call with their params stacked per candidate, by the
    formula their own __call__ uses.  The sums are then one np.bincount of
    the entries times their column's signs over the (point, pattern) bins.
    bincount adds each bin's entries in member order from 0.0, and a
    partial sum that starts at 0.0 is never -0.0, so a dropped zero would
    have left it unchanged: the values equal the sum over all members at
    all points bit for bit, np.signbit included, except at a point with a
    NaN coordinate, where a tent is NaN and the sum reads 0.0.
    """

    def __init__(self, members: Sequence, signs: Sequence[int]):
        self.members = list(members)
        self.signs = list(signs)
        # the sum's own signs as an n x 1 sign matrix
        self._column = _checked_signs(self.signs, len(self.members), 1)[:, None]

    @property
    def support_boxes(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        return [m.support_box for m in self.members]

    def __call__(self, X: np.ndarray, signs=None) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        S = self._column if signs is None \
            else _checked_signs(signs, len(self.members), 2)
        k = S.shape[1]
        rows, cols, vals = self._matrix(X)
        out = np.bincount((rows[:, None] * k + np.arange(k)).ravel(),
                          (S[cols] * vals[:, None]).ravel(),
                          minlength=len(X) * k).reshape(len(X), k)
        # bincount gives int64 zeros when no member is nonzero at any point
        out = out.astype(float, copy=False)
        return out[:, 0] if signs is None else out

    def _matrix(self, X: np.ndarray):
        """(rows, cols, vals): the member-value matrix's nonzero entries,
        member by member, as point indices, member indices and values."""
        rows, cols = _candidates(self.support_boxes, X)
        # the members of one _batch key form a group, numbered in order of
        # first appearance
        batches = [m._batch for m in self.members]
        ids: Dict = {}
        group_of = np.array([ids.setdefault(key, len(ids)) for key, _ in batches],
                            dtype=np.intp)
        group = group_of[cols]
        by_group = np.argsort(group, kind="stable")
        bounds = np.searchsorted(group[by_group], np.arange(len(ids) + 1))
        vals = np.empty(len(rows))
        for g in range(len(ids)):
            sel = by_group[bounds[g]:bounds[g + 1]]
            if len(sel):
                js = np.flatnonzero(group_of == g)
                params = [np.array(p) for p in zip(*(batches[j][1] for j in js))]
                at = np.searchsorted(js, cols[sel])  # rows of the stacked params
                vals[sel] = self.members[js[0]]._values(
                    X[rows[sel]], *(p[at] for p in params))
        nz = (vals != 0.0).nonzero()[0]
        return rows[nz], cols[nz], vals[nz]

    def derivative(self, alpha: Sequence[int]) -> "SignedSum":
        return SignedSum([m.derivative(alpha) for m in self.members], self.signs)


def _candidates(boxes, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(rows, cols): for each box, the finite points of X within its padded
    ball, as point and box indices, box by box and in point order within a
    box (fixed-radius near-neighbour search on a k-d tree; Friedman, Bentley
    & Finkel, ACM TOMS 3, 1977).

    A box's ball is centred on its midpoint, of radius half its diagonal
    plus _BOX_PAD times its largest |lo| + |hi|, so it holds the whole box
    with room for the rounding of box faces and distances.  The tree takes
    only finite points: a point with an infinite coordinate is outside
    every box, and one with a NaN coordinate is skipped, so a SignedSum
    reads 0.0 there, where a tent reads NaN."""
    if not boxes:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    from scipy.spatial import cKDTree
    finite = np.flatnonzero(np.isfinite(X).all(axis=1))
    m = len(boxes)
    lo = np.array([b[0] for b in boxes], dtype=float).reshape(m, -1)
    hi = np.array([b[1] for b in boxes], dtype=float).reshape(m, -1)
    reach = 0.5 * np.linalg.norm(hi - lo, axis=1) \
        + _BOX_PAD * np.max(np.abs(lo) + np.abs(hi), axis=1)
    pairs = cKDTree(0.5 * (lo + hi)).sparse_distance_matrix(
        cKDTree(X[finite]), reach.max(), output_type="ndarray")
    pairs = pairs[pairs["v"] <= reach[pairs["i"]]]
    order = np.lexsort((pairs["j"], pairs["i"]))
    return finite[pairs["j"][order]], pairs["i"][order]


def _checked_signs(signs, n: int, ndim: int) -> np.ndarray:
    """signs as floats: one per member (ndim 1), or one row of them per
    member (ndim 2); every entry +-1."""
    S = np.asarray(signs)
    if S.ndim != ndim or len(S) != n:
        raise ValueError("one sign per member" if ndim == 1
                         else "one row of signs per member")
    if not np.isin(S, (-1, 1)).all():
        raise ValueError("signs must be +-1")
    return S.astype(float)


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


def smooth_family(dimension: int, delta) -> BumpFamily:
    """Scaled smooth bumps on ball(dimension), with centers from a greedy
    3*delta-packing of the ball of radius 1/2; a family on other centers is
    a BumpFamily built directly."""
    delta = Fraction(delta)
    centers = greedy_packing(ball(dimension, Fraction(1, 2)), 3 * delta).centers_array()
    return BumpFamily("smooth", float(delta), centers, ball(dimension))


def tent_family(domain: DomainSpec, delta, alpha) -> BumpFamily:
    """Hoelder tents of height delta on domain, with centers from a greedy
    3*delta-packing of it in d^alpha; a family on other centers is a
    BumpFamily built directly."""
    delta, alpha = Fraction(delta), Fraction(alpha)
    centers = greedy_packing(domain, 3 * delta, alpha).centers_array()
    return BumpFamily("hoelder-tent", float(delta), centers, domain,
                      tent_alpha=float(alpha))

