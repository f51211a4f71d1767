"""Greedy and exact packing numbers in Euclidean and finite metric domains.

Candidate points live on an integer lattice (coordinates are integer
multiples of a common denominator), so the pairwise >= delta constraint in
the power metric d^alpha is an exact integer comparison even though the
elimination loop runs vectorized over floats-free int64 arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .spaces import DomainSpec


class PackingError(ValueError):
    pass


class DegenerateFitError(PackingError):
    pass


@dataclass(frozen=True)
class PackingResult:
    delta: Fraction
    alpha: Fraction
    centers: Tuple[Tuple[Fraction, ...], ...]
    count: int
    exact: bool = False  # True when produced by the brute-force oracle

    def centers_array(self) -> np.ndarray:
        return np.array([[float(c) for c in pt] for pt in self.centers], dtype=float)


def _euclidean_radius(delta: Fraction, alpha: Fraction) -> float:
    # packing radius in d^alpha corresponds to Euclidean radius delta^(1/alpha)
    return float(delta) ** (1.0 / float(alpha))


def _min_sq_lattice(delta: Fraction, alpha: Fraction, den: int) -> int:
    """Smallest integer I such that a lattice pair with squared Euclidean
    distance I/den^2 satisfies dist^alpha >= delta.  Exact."""
    far_sq = _far_predicate(delta, alpha / 2)  # dist^alpha = (dist^2)^(alpha/2)
    sq = den ** 2
    i = max(1, math.floor(float(delta) ** (2 / float(alpha)) * sq) - 2)
    while not far_sq(Fraction(i, sq)):
        i += 1
    while i > 1 and far_sq(Fraction(i - 1, sq)):
        i -= 1
    return i


def _cube_candidates(d: int, den: int) -> np.ndarray:
    axis = np.arange(1, den, dtype=np.int64)  # strictly inside the open cube
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _ball_candidates(d: int, den: int, radius: Fraction) -> np.ndarray:
    lim = math.ceil(float(radius) * den)
    axis = np.arange(-lim, lim + 1, dtype=np.int64)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    # keep the closed ball: |k|^2 <= (radius*den)^2, exact for integer k
    r2 = Fraction(radius) ** 2 * den ** 2
    keep = (pts.astype(object) ** 2).sum(axis=1) <= r2
    return pts[np.asarray(keep, dtype=bool)]


# the candidate lattice spacing is the Euclidean packing radius over this
_SPACING_DIVISOR = 4


def _grid_denominator(delta: Fraction, alpha: Fraction) -> int:
    r = _euclidean_radius(delta, alpha)
    return max(2, math.ceil(_SPACING_DIVISOR / r))


def _lattice_greedy(pts: np.ndarray, min_sq: int) -> np.ndarray:
    """Greedy insertion in lexicographic order; returns indices of centers.

    Points are sorted by (x0, x1, ...), so candidates conflicting with a
    chosen center lie in a contiguous x0-window, which keeps the elimination
    pass local.
    """
    order = np.lexsort(pts.T[::-1])  # sort by x0, then x1, ...
    pts = pts[order]
    n = len(pts)
    x0 = pts[:, 0]
    window = math.isqrt(max(0, min_sq - 1))  # kill needs sq < min_sq
    alive = np.ones(n, dtype=bool)
    chosen: List[int] = []
    i = 0
    while i < n:
        if not alive[i]:
            i += 1
            continue
        chosen.append(order[i])
        lo = np.searchsorted(x0, pts[i, 0] - window, side="left")
        hi = np.searchsorted(x0, pts[i, 0] + window, side="right")
        diff = pts[lo:hi] - pts[i]
        sq = (diff * diff).sum(axis=1)
        alive[lo:hi] &= sq >= min_sq
        i += 1
    return np.array(chosen, dtype=np.int64)


def _as_fraction_points(pts: np.ndarray, den: int) -> Tuple[Tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(int(c), den) for c in pt) for pt in pts)


def _candidates_for(domain: DomainSpec, delta: Fraction, alpha: Fraction,
                    den: Optional[int]) -> Tuple[np.ndarray, int]:
    if domain.kind == "unit-cube":
        den = den or _grid_denominator(delta, alpha)
        return _cube_candidates(domain.dimension, den), den
    if domain.kind == "euclidean-ball":
        den = den or _grid_denominator(delta, alpha)
        return _ball_candidates(domain.dimension, den, domain.radius), den
    raise PackingError(f"no candidate grid for domain kind {domain.kind!r}")


def greedy_packing(domain: DomainSpec, delta, alpha=1,
                   den: Optional[int] = None) -> PackingResult:
    """Greedy maximal delta-packing of the domain in the metric d^alpha.

    The count is a certified lower bound for P(X, d^alpha, delta).
    """
    delta, alpha = Fraction(delta), Fraction(alpha)
    if delta <= 0:
        raise PackingError("delta must be positive")
    if not (0 < alpha <= 1):
        raise PackingError("metric power alpha must lie in (0, 1]")

    if domain.kind == "finite-metric-set":
        return _finite_metric_greedy(domain, delta, alpha)
    if not domain.bounded:
        raise PackingError("packing requires a bounded or finite domain")

    pts, den = _candidates_for(domain, delta, alpha, den)
    min_sq = _min_sq_lattice(delta, alpha, den)
    chosen = _lattice_greedy(pts, min_sq)
    centers = _as_fraction_points(pts[chosen], den)
    return PackingResult(delta, alpha, centers, len(centers))


def _far_predicate(delta: Fraction, alpha: Fraction) -> Callable[[Fraction], bool]:
    """dist -> (dist^alpha >= delta), decided exactly as dist^a >= delta^b
    for alpha = a/b."""
    a, thr = alpha.numerator, delta ** alpha.denominator
    return lambda dist: dist ** a >= thr


def _finite_metric_greedy(domain: DomainSpec, delta: Fraction,
                          alpha: Fraction) -> PackingResult:
    table = domain.metric_table
    far = _far_predicate(delta, alpha)
    chosen: List[int] = []
    for i in range(len(table)):
        if all(far(table[i][j]) for j in chosen):
            chosen.append(i)
    centers = tuple((Fraction(i),) for i in chosen)
    return PackingResult(delta, alpha, centers, len(chosen))


def brute_force_packing(domain: DomainSpec, delta, alpha=1) -> PackingResult:
    """Exact maximum packing over the candidate set (<= 24 candidates)."""
    delta, alpha = Fraction(delta), Fraction(alpha)
    if domain.kind == "finite-metric-set":
        far = _far_predicate(delta, alpha)
        compat = [[far(dist) for dist in row] for row in domain.metric_table]
        n = len(compat)
        pts = None
    else:
        pts, den = _candidates_for(domain, delta, alpha, None)
        n = len(pts)
        min_sq = _min_sq_lattice(delta, alpha, den)
        diff = pts[:, None, :] - pts[None, :, :]
        sq = (diff * diff).sum(axis=2)
        compat = (sq >= min_sq).tolist()
    if n > 24:
        raise PackingError(f"brute-force mode limited to 24 candidates, got {n}")

    # maximum independent set in the conflict graph, via branch and bound
    masks = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and compat[i][j]:
                masks[i] |= 1 << j
    best: List[int] = []

    def extend(sel: List[int], allowed: int, start: int) -> None:
        nonlocal best
        if len(sel) + bin(allowed >> start).count("1") <= len(best):
            return
        for i in range(start, n):
            if allowed & (1 << i):
                extend(sel + [i], allowed & masks[i], i + 1)
        if len(sel) > len(best):
            best = sel

    extend([], (1 << n) - 1, 0)
    if pts is None:
        centers = tuple((Fraction(i),) for i in best)
    else:
        centers = _as_fraction_points(pts[np.array(best, dtype=np.int64)], den)
    return PackingResult(delta, alpha, centers, len(best), exact=True)


def exponent_fit(domain: DomainSpec, deltas: Sequence, alpha=1) -> float:
    """Least-squares slope of log(count) against log(1/delta)."""
    deltas = [Fraction(x) for x in deltas]
    if len(deltas) < 3:
        raise PackingError("exponent fit needs at least 3 deltas")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise PackingError("deltas must be strictly decreasing")
    counts = [greedy_packing(domain, dl, alpha).count for dl in deltas]
    if len(set(counts)) == 1:
        raise DegenerateFitError("identical counts; no exponent information")
    x = np.log([1.0 / float(dl) for dl in deltas])
    y = np.log(counts)
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)
