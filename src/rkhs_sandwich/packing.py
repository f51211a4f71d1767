"""Greedy and exact packing numbers in Euclidean and finite metric domains.

Candidate points live on an integer lattice (coordinates are integer
multiples of a common denominator), so the pairwise >= delta constraint in
the power metric d^alpha is an exact integer comparison.  The candidates of
a cube or ball are one boolean grid, one byte per cell, whose alive cells
are the lattice points inside the domain; a grid of more than 2^22 cells,
or a lattice whose spacing leaves the range of floats, is refused before
it is allocated.  The greedy clears a ball stencil of integer offsets,
computed once, from that grid, and the brute-force oracle reads its alive
cells.
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


@dataclass(frozen=True, eq=False)
class PackingResult:
    """The chosen centers are lattice / den, one integer row per center (a
    finite metric space's point indices, with den 1)."""

    delta: Fraction
    alpha: Fraction
    lattice: np.ndarray
    den: int
    exact: bool = False  # True when produced by the brute-force oracle

    @property
    def count(self) -> int:
        return len(self.lattice)

    @property
    def centers(self) -> Tuple[Tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(int(c), self.den) for c in pt)
                     for pt in self.lattice)

    def centers_array(self) -> np.ndarray:
        # k / den in float64 is the correctly rounded float(Fraction(k, den))
        return self.lattice / self.den


def _min_sq_lattice(delta: Fraction, alpha: Fraction, den: int) -> int:
    """Smallest integer I such that a lattice pair with squared Euclidean
    distance I/den^2 satisfies dist^alpha >= delta.  Exact: the predicate
    grows with I, so doubling brackets I in (lo, hi] and bisection closes
    the bracket, in O(log I) exact comparisons at any scale."""
    far_sq = _far_predicate(delta, alpha / 2)  # dist^alpha = (dist^2)^(alpha/2)
    sq = den ** 2
    lo, hi = 0, 1  # far_sq(0) is False, as delta > 0
    while not far_sq(Fraction(hi, sq)):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if far_sq(Fraction(mid, sq)) else (mid, hi)
    return hi


# the candidate lattice spacing is the Euclidean packing radius over this
_SPACING_DIVISOR = 4


def _grid_denominator(delta: Fraction, alpha: Fraction) -> int:
    """max(2, ceil(_SPACING_DIVISOR / r)) for the Euclidean radius
    r = delta^(1/alpha) that the packing radius delta in d^alpha
    corresponds to.  Refused with PackingError where r or
    _SPACING_DIVISOR / r is not a finite positive float."""
    try:
        inverse = _SPACING_DIVISOR / float(delta) ** (1.0 / float(alpha))
    except (OverflowError, ZeroDivisionError):  # r beyond the floats, or 0.0
        inverse = math.inf
    if not inverse < math.inf:
        raise PackingError(f"the Euclidean packing radius delta^(1/alpha) at "
                           f"delta={delta}, alpha={alpha} leaves the range of floats")
    return max(2, math.ceil(inverse))


def _lattice_greedy(alive: np.ndarray, min_sq: int) -> np.ndarray:
    """Greedy insertion in lexicographic order; returns the flat (C order)
    indices of the centers on the grid alive, and clears alive.

    The grid's C order is the lexicographic order of (x0, x1, ...).  A
    chosen center removes every cell within squared distance < min_sq at
    once, by subtracting the precomputed ball stencil {o : |o|^2 < min_sq}
    from the grid around it, so the loop runs once per chosen center: it
    finds the next cell still alive, takes it and clears its stencil.
    """
    cells = alive.shape
    flat = alive.reshape(-1)  # a view: clearing the grid clears flat
    # a conflict needs |o|^2 < min_sq, and two cells differ by less than the
    # grid's widest extent on every axis
    w = min(math.isqrt(max(0, min_sq - 1)), max(cells) - 1)
    axis = np.arange(-w, w + 1) ** 2
    sq = sum(np.ix_(*([axis] * alive.ndim)))
    keep = sq >= min_sq  # the complement of the stencil, centered at w
    chosen: List[int] = []
    cur = 0
    while cur < flat.size:
        cur += int(np.argmax(flat[cur:]))  # first alive cell at or after cur
        if not flat[cur]:
            break
        chosen.append(cur)
        grid_sl, stencil_sl = [], []
        for c, size in zip(np.unravel_index(cur, cells), cells):
            lo, hi = max(c - w, 0), min(c + w + 1, size)
            grid_sl.append(slice(lo, hi))
            stencil_sl.append(slice(lo - c + w, hi - c + w))
        alive[tuple(grid_sl)] &= keep[tuple(stencil_sl)]
    return np.array(chosen, dtype=np.int64)


# the most cells a candidate grid may have (see greedy_packing)
_MAX_GRID_CELLS = 1 << 22


def _candidate_grid(domain: DomainSpec, delta: Fraction,
                    den: int) -> Tuple[np.ndarray, int]:
    """The lattice points inside a cube or ball, at spacing 1/den, as the
    boolean grid alive and the lattice coordinate origin of its cell 0 on
    every axis: cell k is the point (k + origin) / den.

    The cube's grid is its open interior, (den - 1)^d cells all alive; the
    ball's is the box (2 ceil(radius den) + 1)^d around it, alive on the
    closed ball.  Refuses with PackingError, before allocating it, a grid
    of more than _MAX_GRID_CELLS cells."""
    if domain.kind not in ("unit-cube", "euclidean-ball"):
        raise PackingError(f"no candidate grid for domain kind {domain.kind!r}")
    d = domain.dimension
    cube = domain.kind == "unit-cube"
    r = Fraction(domain.radius)
    lim = 0 if cube else math.ceil(r * den)
    side = den - 1 if cube else 2 * lim + 1
    if side ** d > _MAX_GRID_CELLS:
        # a side past the bound can run to hundreds of digits
        raise PackingError(f"the candidate grid at delta={delta} would have " + (
            f"{side}^{d} cells, more than {_MAX_GRID_CELLS}" if side <= _MAX_GRID_CELLS
            else f"more than {_MAX_GRID_CELLS} cells on one axis"))
    if cube:
        return np.ones((side,) * d, dtype=bool), 1
    # the closed ball |k| <= p den / q for radius p/q: q^2 |k|^2 <= p^2 den^2,
    # and for the integer |k|^2 that is |k|^2 <= p^2 den^2 // q^2; the last
    # axis is compared against the bound less the others, so the sum of
    # squares is never laid out cell by cell
    sq = np.arange(-lim, lim + 1, dtype=np.int64) ** 2
    axes = np.ix_(*[sq] * d)
    bound = (r.numerator * den) ** 2 // r.denominator ** 2
    return axes[-1] <= bound - sum(axes[:-1]), -lim


def greedy_packing(domain: DomainSpec, delta, alpha=1,
                   den: Optional[int] = None) -> PackingResult:
    """Greedy maximal delta-packing of the domain in the metric d^alpha.

    The count is a certified lower bound for P(X, d^alpha, delta).  On a
    cube or ball the candidates are one boolean grid, one byte per cell; a
    grid of more than _MAX_GRID_CELLS = 2^22 cells (ball:3 at delta 1/64
    would lay 513^3) is refused with PackingError before it is allocated.
    Every grid the tests and the benchmark lay fits, up to tent-scan's
    63^3 = 250,047, the 262,143 of a holder:1/4 scan on cube:1 at delta 1/16
    and the 161^3 = 4,173,281 of ball:3 at delta 1/20.

    den, when given, replaces the lattice denominator of _grid_denominator;
    perfbench's tracer reads the argument by name.
    """
    delta, alpha = _checked_scale(delta, alpha)
    if domain.kind == "finite-metric-set":
        return _finite_metric_greedy(domain, delta, alpha)
    if not domain.bounded:
        raise PackingError("packing requires a bounded or finite domain")

    den = den or _grid_denominator(delta, alpha)
    alive, origin = _candidate_grid(domain, delta, den)
    min_sq = _min_sq_lattice(delta, alpha, den)
    cells = np.unravel_index(_lattice_greedy(alive, min_sq), alive.shape)
    return PackingResult(delta, alpha, np.stack(cells, axis=1) + origin, den)


def _checked_scale(delta, alpha) -> Tuple[Fraction, Fraction]:
    """delta and alpha as Fractions, refused unless both are finite,
    delta > 0 and 0 < alpha <= 1."""
    for name, x in (("delta", delta), ("metric power alpha", alpha)):
        if isinstance(x, float) and not math.isfinite(x):
            raise PackingError(f"{name} must be finite, got {x}")
    delta, alpha = Fraction(delta), Fraction(alpha)
    if delta <= 0:
        raise PackingError("delta must be positive")
    if not (0 < alpha <= 1):
        raise PackingError("metric power alpha must lie in (0, 1]")
    return delta, alpha


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
    return PackingResult(delta, alpha, _indices(chosen), 1)


def brute_force_packing(domain: DomainSpec, delta, alpha=1) -> PackingResult:
    """Exact maximum packing over the candidate set (<= 24 candidates,
    counted on the grid before any is paired up)."""
    delta, alpha = _checked_scale(delta, alpha)
    finite = domain.kind == "finite-metric-set"
    if finite:
        n = len(domain.metric_table)
    else:
        den = _grid_denominator(delta, alpha)
        alive, origin = _candidate_grid(domain, delta, den)
        n = int(np.count_nonzero(alive))
    if n > 24:
        raise PackingError(f"brute-force mode limited to 24 candidates, got {n}")
    if finite:
        far = _far_predicate(delta, alpha)
        compat = [[far(dist) for dist in row] for row in domain.metric_table]
    else:
        pts = np.argwhere(alive) + origin
        min_sq = _min_sq_lattice(delta, alpha, den)
        diff = pts[:, None, :] - pts[None, :, :]
        compat = ((diff * diff).sum(axis=2) >= min_sq).tolist()

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
    if finite:
        return PackingResult(delta, alpha, _indices(best), 1, exact=True)
    return PackingResult(delta, alpha, pts[np.array(best, dtype=np.int64)], den,
                         exact=True)


def _indices(chosen: List[int]) -> np.ndarray:
    """A finite metric space's chosen points as one-column lattice rows."""
    return np.array(chosen, dtype=np.int64).reshape(-1, 1)


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
