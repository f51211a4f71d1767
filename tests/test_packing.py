"""Packing numbers: greedy counts, exact separation and maximality, the
brute-force oracle and the exponent fit."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from rkhs_sandwich import (ball, brute_force_packing, cube, exponent_fit,
                           greedy_packing, packing)
from rkhs_sandwich.packing import DegenerateFitError, PackingError
from rkhs_sandwich.spaces import finite_metric


def _pairwise_ok(result):
    """Exact check of the pairwise >= delta constraint in d^alpha."""
    a, b = result.alpha.numerator, result.alpha.denominator
    thr = result.delta ** (2 * b)
    pts = result.centers
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            sq = sum((x - y) ** 2 for x, y in zip(pts[i], pts[j]))
            if sq ** a < thr:
                return False
    return True


class TestGreedy:
    def test_interval_quarter(self):
        res = greedy_packing(cube(1), Fraction(1, 4))
        assert res.count == 4
        assert _pairwise_ok(res)

    def test_brute_force_confirms_greedy(self):
        greedy = greedy_packing(cube(1), Fraction(1, 4))
        brute = brute_force_packing(cube(1), Fraction(1, 4))
        assert brute.exact
        assert greedy.count == brute.count == 4

    def test_two_point_space(self):
        dom = finite_metric([[0, 1], [1, 0]])
        assert greedy_packing(dom, Fraction(1, 2)).count == 2
        assert brute_force_packing(dom, Fraction(1, 2)).count == 2
        # d^alpha == delta exactly: the pair still counts as separated
        for delta, alpha in ((1, 1), (1, Fraction(1, 2))):
            assert greedy_packing(dom, delta, alpha).count == 2
            assert brute_force_packing(dom, delta, alpha).count == 2
        assert brute_force_packing(dom, Fraction(3, 2)).count == 1

    def test_square_grid_lower_bound(self):
        res = greedy_packing(cube(2), Fraction(1, 8))
        # an interior lattice of spacing 1/8 certifies at least 7x7 points
        assert res.count >= 49
        assert _pairwise_ok(res)

    def test_monotone_in_delta(self):
        counts = [greedy_packing(cube(2), dl).count
                  for dl in (Fraction(1, 4), Fraction(1, 8), Fraction(1, 16))]
        assert counts == sorted(counts)

    def test_power_metric_separation_is_exact(self):
        res = greedy_packing(cube(1), Fraction(1, 3), Fraction(1, 2))
        assert _pairwise_ok(res)

    def test_errors(self):
        with pytest.raises(PackingError):
            greedy_packing(cube(1), 0)
        with pytest.raises(PackingError):
            greedy_packing(cube(1), Fraction(1, 4), 2)


LINE = finite_metric([[0, 1, 2, 3, 4],
                      [1, 0, 1, 2, 3],
                      [2, 1, 0, 1, 2],
                      [3, 2, 1, 0, 1],
                      [4, 3, 2, 1, 0]])


def _lattice_sq(pts, centers, den):
    """Exact squared distances, in units of 1/den^2, from each integer
    lattice point to each center."""
    assert all((x * den).denominator == 1 for c in centers for x in c)
    cen = np.array([[int(x * den) for x in c] for c in centers], dtype=np.int64)
    return sum((pts[:, None, k] - cen[None, :, k]) ** 2 for k in range(pts.shape[1]))


@pytest.mark.parametrize("dom,delta,alpha", [
    (cube(2), Fraction(1, 4), Fraction(1)),
    (cube(1), Fraction(1, 4), Fraction(1, 2)),
    (cube(2), Fraction(1, 4), Fraction(1, 2)),
    (cube(1), Fraction(1, 9), Fraction(1, 2)),
    (cube(2), Fraction(1, 8), Fraction(2, 3)),
    (LINE, Fraction(1), Fraction(1, 2)),
    (LINE, Fraction(2), Fraction(1)),
])
def test_greedy_packing_is_separated_and_maximal(dom, delta, alpha):
    """Every pair of centers meets d^alpha >= delta exactly, and every
    candidate is a center or breaks that rule against some center."""
    res = greedy_packing(dom, delta, alpha)
    a, b = alpha.numerator, alpha.denominator
    thr = delta ** (2 * b)  # d^alpha >= delta  <=>  (d^2)^a >= delta^(2b)
    if dom.kind == "finite-metric-set":
        table = dom.metric_table
        chosen = [int(c[0]) for c in res.centers]

        def far(i, j):
            return (table[i][j] ** 2) ** a >= thr
        assert all(far(i, j) for i, j in itertools.combinations(chosen, 2))
        assert all(i in chosen or not all(far(i, j) for j in chosen)
                   for i in range(len(table)))
        return
    pts, den = packing._candidates_for(dom, delta, alpha, None)
    sq = _lattice_sq(pts, res.centers, den)
    values = np.unique(sq)
    near = np.isin(sq, values[[Fraction(int(v), den * den) ** a < thr
                               for v in values]])
    is_center = sq == 0
    assert (is_center.sum(axis=0) == 1).all()  # each center is one candidate
    # a center is near only itself; every candidate is near some center
    assert (near[is_center.any(axis=1)].sum(axis=1) == 1).all()
    assert near.any(axis=1).all()


def _candidate_loop(pts, min_sq):
    """One step per candidate in lexicographic order, eliminating within an
    x0-window: the oracle for the stencil greedy."""
    order = np.lexsort(pts.T[::-1])
    pts = pts[order]
    x0 = pts[:, 0]
    window = math.isqrt(max(0, min_sq - 1))
    alive = np.ones(len(pts), dtype=bool)
    chosen = []
    for i in range(len(pts)):
        if not alive[i]:
            continue
        chosen.append(order[i])
        lo = np.searchsorted(x0, pts[i, 0] - window, side="left")
        hi = np.searchsorted(x0, pts[i, 0] + window, side="right")
        diff = pts[lo:hi] - pts[i]
        alive[lo:hi] &= (diff * diff).sum(axis=1) >= min_sq
    return np.array(chosen, dtype=np.int64)


@pytest.mark.parametrize("dom,delta,alpha", [
    (cube(1), Fraction(1, 16), Fraction(1)),
    (cube(2), Fraction(1, 16), Fraction(1)),
    (cube(3), Fraction(1, 8), Fraction(1)),
    (ball(2), Fraction(1, 8), Fraction(1)),
    (ball(3), Fraction(1, 4), Fraction(1)),
    (ball(2, Fraction(1, 2)), Fraction(1, 8), Fraction(1)),
    (cube(1), Fraction(1, 4), Fraction(1, 3)),
    (cube(2), Fraction(1, 8), Fraction(1, 2)),
    (cube(3), Fraction(1, 3), Fraction(2, 3)),
    (ball(2), Fraction(1, 4), Fraction(3, 4)),
])
def test_stencil_greedy_matches_candidate_loop(dom, delta, alpha):
    pts, den = packing._candidates_for(dom, delta, alpha, None)
    min_sq = packing._min_sq_lattice(delta, alpha, den)
    want = _candidate_loop(pts, min_sq)
    assert np.array_equal(packing._lattice_greedy(pts, min_sq), want)
    # the indices refer to the caller's order of the candidates
    perm = np.random.default_rng(0).permutation(len(pts))
    got = packing._lattice_greedy(pts[perm], min_sq)
    assert np.array_equal(perm[got], want)


class TestCandidateGrid:
    @pytest.mark.parametrize("d,den,radius", [
        (1, 6, Fraction(1, 3)), (2, 5, Fraction(1)), (2, 7, Fraction(3, 7)),
        (3, 4, Fraction(5, 4)), (3, 9, Fraction(2, 3)),
    ])
    def test_ball_candidates_are_the_closed_ball(self, d, den, radius):
        # the integer test against Fractions, on spheres through lattice points
        lim = math.ceil(radius * den)
        want = [list(k) for k in itertools.product(range(-lim, lim + 1), repeat=d)
                if sum(Fraction(x, den) ** 2 for x in k) <= radius ** 2]
        assert packing._ball_candidates(d, den, radius).tolist() == want

    def test_oversized_grid_is_refused_before_it_is_laid(self):
        # ball:3 at delta 1/64 would lay 513^3 = 135,005,697 candidates
        for pack in (greedy_packing, brute_force_packing):
            with pytest.raises(PackingError, match=r"513\^3 cells"):
                pack(ball(3), Fraction(1, 64))
        # the bound is on the dense grid: 2049^2 cells is one row too many
        assert 2048 ** 2 == packing._MAX_GRID_CELLS
        with pytest.raises(PackingError, match=r"2049\^2 cells"):
            greedy_packing(cube(2), Fraction(1, 2), den=2050)


class TestExponentFit:
    def test_line(self):
        slope = exponent_fit(cube(1), [Fraction(1, 4), Fraction(1, 8),
                                       Fraction(1, 16)])
        assert 0.9 <= slope <= 1.1

    def test_square(self):
        slope = exponent_fit(cube(2), [Fraction(1, 4), Fraction(1, 8),
                                       Fraction(1, 16)])
        assert 1.8 <= slope <= 2.2

    def test_line_with_square_root_metric(self):
        slope = exponent_fit(cube(1), [Fraction(1, 2), Fraction(1, 3),
                                       Fraction(1, 4)], Fraction(1, 2))
        assert 1.8 <= slope <= 2.2

    def test_degenerate_fit(self):
        dom = finite_metric([[0, 1], [1, 0]])
        with pytest.raises(DegenerateFitError):
            exponent_fit(dom, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)])

    def test_needs_three_decreasing_deltas(self):
        with pytest.raises(PackingError):
            exponent_fit(cube(1), [Fraction(1, 4), Fraction(1, 8)])
        with pytest.raises(PackingError):
            exponent_fit(cube(1), [Fraction(1, 8), Fraction(1, 4),
                                   Fraction(1, 16)])
