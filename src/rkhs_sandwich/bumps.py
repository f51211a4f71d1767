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
# relative widening of a support box in SignedSum's cell grid, far above the
# rounding of box faces and of tent distances
_BOX_PAD = 1e-9
# the axes SignedSum's cell grid buckets the points on (a box touches 2 or
# 3 cells on each), and its most cells per axis
_GRID_AXES = 3
_CELLS_PER_AXIS = 1 << 20


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

    @property
    def _batch(self):
        """(key, params): SignedSum evaluates the members of one key in one
        _values call, with their params stacked row by row."""
        return (SmoothBumpMember, self.dimension, self.delta, tuple(self.alpha)), \
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
    values at its candidate points, with exact zeros dropped.  The
    candidates come from a uniform cell grid on the first _GRID_AXES axes
    (fixed-radius near-neighbour search; Bentley, Stanat & Williams, Inf.
    Proc. Lett. 6, 1977) whose cell side on each axis is the widest support
    box, widened by _BOX_PAD against rounding: a box then touches 2 cells
    per axis (3 where a face rounds onto a cell edge), and the points of
    those cells are its member's candidates.  The members that share a
    _batch key (tents of one delta and alpha; smooth bumps of one
    dimension, delta and derivative) are evaluated in one _values call with
    their params stacked per candidate, by the formula their own __call__
    uses.  The sums are then one np.bincount of the entries times their
    column's signs over the (point, pattern) bins.  bincount adds each
    bin's entries in member order from 0.0, and a partial sum that starts
    at 0.0 is never -0.0, so a dropped zero would have left it unchanged:
    the values equal the sum over all members at all points bit for bit,
    np.signbit included.
    """

    def __init__(self, members: Sequence, signs: Sequence[int]):
        self.members = list(members)
        self.signs = list(signs)
        # the sum's own signs as an n x 1 sign matrix
        self._column = _checked_signs(self.signs, len(self.members), 1)[:, None]
        self._boxes = [m.support_box for m in self.members]
        self._grid = _CellGrid(self._boxes)
        # the members that share a _batch key form one group, kept as (a
        # representative, their params stacked); a member's group and its
        # row in the stacked params
        batches = [m._batch for m in self.members]
        keyed: Dict = {}
        for j, (key, _) in enumerate(batches):
            keyed.setdefault(key, []).append(j)
        self._groups = []
        self._group_of = np.empty(len(self.members), dtype=np.intp)
        self._slot = np.empty(len(self.members), dtype=np.intp)
        for g, js in enumerate(keyed.values()):
            params = [np.array(p) for p in zip(*(batches[j][1] for j in js))]
            self._groups.append((self.members[js[0]], params))
            self._group_of[js] = g
            self._slot[js] = np.arange(len(js))

    @property
    def support_boxes(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        return list(self._boxes)

    def __call__(self, X: np.ndarray, signs=None) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        S = self._column if signs is None \
            else _checked_signs(signs, len(self.members), 2)
        k = S.shape[1]
        rows, cols, vals = self._matrix(X)
        out = np.bincount((rows[:, None] * k + np.arange(k)).ravel(),
                          (S[cols] * vals[:, None]).ravel(),
                          minlength=len(X) * k).reshape(len(X), k)
        return out[:, 0] if signs is None else out

    def _matrix(self, X: np.ndarray):
        """(rows, cols, vals): the member-value matrix's nonzero entries,
        member by member, as point indices, member indices and values."""
        rows, cols = self._grid.candidates(X)
        vals = np.empty(len(rows))
        group = self._group_of[cols]
        by_group = np.argsort(group, kind="stable")
        bounds = np.searchsorted(group[by_group], np.arange(len(self._groups) + 1))
        for g, (rep, params) in enumerate(self._groups):
            sel = by_group[bounds[g]:bounds[g + 1]]
            if len(sel):
                slot = self._slot[cols[sel]]
                vals[sel] = rep._values(X[rows[sel]], *(p[slot] for p in params))
        nz = (vals != 0.0).nonzero()[0]
        return rows[nz], cols[nz], vals[nz]

    def derivative(self, alpha: Sequence[int]) -> "SignedSum":
        return SignedSum([m.derivative(alpha) for m in self.members], self.signs)


class _CellGrid:
    """A uniform grid of cells over the first _GRID_AXES axes of a list of
    boxes, each box widened by _BOX_PAD.  The cell side on each axis is the
    widest box (or 1/_CELLS_PER_AXIS of the boxes' span, if that is more,
    so that the cell keys fit in int64), so each box touches at most 2 cells
    per axis, 3 where its faces round onto cell edges."""

    def __init__(self, boxes):
        # each box's cell keys, box by box, and the box they belong to
        self.keys = np.empty(0, dtype=np.int64)
        self.owner = np.empty(0, dtype=np.intp)
        if not boxes:
            return
        m = len(boxes)
        lo = np.array([b[0] for b in boxes], dtype=float).reshape(m, -1)[:, :_GRID_AXES]
        hi = np.array([b[1] for b in boxes], dtype=float).reshape(m, -1)[:, :_GRID_AXES]
        pad = _BOX_PAD * (np.abs(lo) + np.abs(hi))
        lo, hi = lo - pad, hi + pad
        self.origin = lo.min(axis=0)
        side = np.maximum((hi - lo).max(axis=0),
                          (hi.max(axis=0) - self.origin) / _CELLS_PER_AXIS)
        self.side = np.where(side > 0.0, side, 1.0)
        # the cells of lo and hi bound those of every point in the box, as
        # (x - origin) / side is monotone in x
        first = self._cells(lo).astype(np.int64)
        last = self._cells(hi).astype(np.int64)
        self.shape = last.max(axis=0) + 1
        self.stride = np.append(np.cumprod(self.shape[:0:-1])[::-1], 1)
        reach = last - first + 1
        steps = np.array(list(itertools.product(range(int(reach.max())),
                                                repeat=lo.shape[1])))
        self.owner, step = np.nonzero(np.all(steps < reach[:, None], axis=2))
        self.keys = (first @ self.stride)[self.owner] + (steps @ self.stride)[step]

    def _cells(self, X: np.ndarray) -> np.ndarray:
        return np.floor((X[:, :len(self.side)] - self.origin) / self.side)

    def candidates(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(rows, cols): the points of X in the cells each box touches, as
        point and box indices, box by box."""
        if not len(self.keys):
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        cells = np.clip(self._cells(X), -1.0, self.shape)  # keeps the cast finite
        inside = np.all((cells >= 0.0) & (cells < self.shape), axis=1)
        keys = np.where(inside, cells.astype(np.int64) @ self.stride, -1)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        start = np.searchsorted(sorted_keys, self.keys, side="left")
        count = np.searchsorted(sorted_keys, self.keys, side="right") - start
        # box cell e's k-th point is order[start[e] + k]
        shift = np.repeat(start - (np.cumsum(count) - count), count)
        return order[np.arange(len(shift)) + shift], np.repeat(self.owner, count)


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

