"""Packing numbers: greedy counts, exact separation and maximality, the
brute-force oracle and the exponent fit."""

import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rkhs_sandwich import (ball, brute_force_packing, cube, exponent_fit,
                           greedy_packing, packing)
from rkhs_sandwich.cli import main
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

    def test_brute_force_refuses_what_greedy_refuses(self):
        for delta, alpha, message in ((0, 1, "delta must be positive"),
                                      (Fraction(1, 4), 0, "alpha must lie"),
                                      (Fraction(1, 4), 2, "alpha must lie")):
            for packer in (greedy_packing, brute_force_packing):
                with pytest.raises(PackingError, match=message):
                    packer(cube(1), delta, alpha)

    def test_brute_force_counts_candidates_before_pairing_them(self):
        # 2^22 - 1 candidates are refused by their count, never paired up
        with pytest.raises(PackingError, match="24 candidates, got 4194303"):
            brute_force_packing(cube(1), Fraction(1, 1024), Fraction(1, 2))

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

    @pytest.mark.parametrize("delta,alpha,name", [
        (float("inf"), 1, "delta"), (float("nan"), 1, "delta"),
        (-float("inf"), 1, "delta"), (0.25, float("inf"), "metric power alpha"),
        (0.25, float("nan"), "metric power alpha")])
    def test_non_finite_scale_is_refused(self, delta, alpha, name):
        with pytest.raises(PackingError, match=f"{name} must be finite"):
            greedy_packing(cube(2), delta, alpha)


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
    den = packing._grid_denominator(delta, alpha)
    alive, origin = packing._candidate_grid(dom, delta, den)
    sq = _lattice_sq(np.argwhere(alive) + origin, res.centers, den)
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
    # larger grids: a 65^3 ball, 16,383 points on a line, a 127^2 square
    (ball(3), Fraction(1, 8), Fraction(1)),
    (cube(1), Fraction(1, 8), Fraction(1, 4)),
    (cube(2), Fraction(1, 32), Fraction(1)),
])
def test_stencil_greedy_matches_candidate_loop(dom, delta, alpha):
    den = packing._grid_denominator(delta, alpha)
    alive, _ = packing._candidate_grid(dom, delta, den)
    min_sq = packing._min_sq_lattice(delta, alpha, den)
    _check_against_candidate_loop(alive, min_sq)


def _check_against_candidate_loop(alive, min_sq):
    """_lattice_greedy chooses the candidate loop's centers among the alive
    cells, in its order, and clears the grid; returns the centers' cells."""
    pts = np.argwhere(alive)
    want = pts[_candidate_loop(pts, min_sq)]
    grid = alive.copy()
    got = packing._lattice_greedy(grid, min_sq)
    assert np.array_equal(np.stack(np.unravel_index(got, alive.shape), axis=1), want)
    assert not grid.any()
    return want


@pytest.mark.parametrize("shape,min_sq", [
    ((13,), 10), ((6, 6), 17), ((6, 14), 50), ((6, 6, 6), 50), ((15, 15, 15), 10),
])
def test_stencil_greedy_with_centers_on_every_face(shape, min_sq):
    # w = 3, 4 or 7, and every face of the box holds a center, whose
    # stencil is cut off by that face
    centers = _check_against_candidate_loop(np.ones(shape, dtype=bool), min_sq)
    lo, hi = 0, np.array(shape) - 1
    assert math.isqrt(min_sq - 1) >= 3
    assert ((centers == lo).any(axis=0) & (centers == hi).any(axis=0)).all()


@pytest.mark.parametrize("shape", [(40,), (9, 11), (7, 9, 8), (3, 12, 5),
                                   (20, 2), (6, 2, 3)])
@pytest.mark.parametrize("min_sq", [1, 2, 10, 50, 400])
@pytest.mark.parametrize("density", [0.5, 0.1])
def test_stencil_greedy_on_sparse_sets(shape, min_sq, density):
    # holes in the grid, and faces of it with no alive cell; w runs from 0
    # to 19, which exceeds the box and is capped, and axes of 2 or 3 cells
    # are narrower than most stencils
    rng = np.random.default_rng(len(shape) * 1000 + min_sq)
    _check_against_candidate_loop(rng.random(shape) < density, min_sq)


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
        alive, origin = packing._candidate_grid(ball(d, radius), 1, den)
        assert origin == -lim
        assert alive.shape == (2 * lim + 1,) * d
        assert (np.argwhere(alive) + origin).tolist() == want

    def test_oversized_grid_is_refused_before_it_is_laid(self):
        # ball:3 at delta 1/64 would lay 513^3 = 135,005,697 candidates
        for pack in (greedy_packing, brute_force_packing):
            with pytest.raises(PackingError, match=r"513\^3 cells"):
                pack(ball(3), Fraction(1, 64))
        # the bound is on the dense grid: 2049^2 cells is one row too many
        assert 2048 ** 2 == packing._MAX_GRID_CELLS
        with pytest.raises(PackingError, match=r"2049\^2 cells"):
            greedy_packing(cube(2), Fraction(1, 2), den=2050)

    def test_refusal_bound_is_unchanged(self):
        # the 262,143-cell grid of a holder:1/4 tent scan on cube:1 at delta
        # 1/16 is admitted; ball:3 at 1/64 is refused before anything of its
        # grid is allocated
        tracemalloc.start()
        try:
            alive, origin = packing._candidate_grid(
                cube(1), Fraction(1, 16),
                packing._grid_denominator(Fraction(1, 16), Fraction(1, 4)))
            admitted, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            with pytest.raises(PackingError, match=r"513\^3 cells"):
                greedy_packing(ball(3), Fraction(1, 64))
            refused = tracemalloc.get_traced_memory()[1] - admitted
        finally:
            tracemalloc.stop()
        assert alive.shape == (262_143,) and alive.all() and origin == 1
        # the candidates: one byte per cell
        assert admitted < 300_000
        assert refused < 1 << 20

    @pytest.mark.parametrize("dom,delta,bound", [
        (cube(3), Fraction(1, 16), 2 << 20),
        (ball(3), Fraction(1, 20), 8 << 20),
    ])
    def test_greedy_holds_one_byte_per_cell(self, dom, delta, bound):
        # the grid is the only per-cell array: 63^3 cells on the cube, and
        # 161^3 = 4,173,281 on the ball, the largest grid ball:3 admits;
        # candidate coordinates beside an index grid took 15 MB and 146 MB
        tracemalloc.start()
        try:
            greedy_packing(dom, delta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize("dom", [cube(3), ball(3, Fraction(4))])
    def test_stencil_is_capped_at_the_grid(self, dom):
        # at delta 100 the stencil half-width is 199 lattice steps on a grid
        # of 1 or 17 cells per axis; a 399^3 stencil took 545 MB
        tracemalloc.start()
        try:
            count = greedy_packing(dom, 100).count
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 1
        assert peak < 4 << 20


class TestFloatRange:
    """The Euclidean radius delta^(1/alpha) fixes the lattice: outside the
    floats it is refused before any grid is laid, and the lattice threshold
    is exact at any scale."""

    @pytest.mark.parametrize("dom,delta,alpha", [
        (cube(1), Fraction(5), Fraction(1, 1000)),        # 5^1000 overflows
        (cube(1), Fraction(1, 1000), Fraction(1, 1000)),  # 10^-3000 is 0.0
        (ball(2), Fraction(1, 1000), Fraction(1, 500)),   # 10^-1500 is 0.0
        (cube(1), Fraction(1, 64), Fraction(1, 1000)),
        (cube(1), Fraction(1, 2), Fraction(1, 1023)),     # 4 / 2^-1023 overflows
    ])
    def test_radius_outside_the_floats_is_refused(self, monkeypatch, dom, delta,
                                                  alpha):
        def no_grid(*args):
            raise AssertionError("a candidate grid was laid")

        monkeypatch.setattr(packing, "_candidate_grid", no_grid)
        for pack in (greedy_packing, brute_force_packing):
            with pytest.raises(PackingError, match="leaves the range of floats"):
                pack(dom, delta, alpha)

    @pytest.mark.parametrize("dom,alpha", [
        (cube(1), Fraction(1, 1000)),   # den near 2^1002: a side of 302 digits
        (ball(1, 5), Fraction(1, 1021)),  # den 2^1023, 5 den past the floats
    ])
    def test_oversized_side_is_not_printed(self, dom, alpha):
        with pytest.raises(PackingError) as err:
            greedy_packing(dom, Fraction(1, 2), alpha)
        assert str(err.value) == ("the candidate grid at delta=1/2 would have "
                                  "more than 4194304 cells on one axis")

    def test_lattice_threshold_is_exact_far_past_the_mantissa(self, monkeypatch):
        # at alpha/2 = 1/40 the threshold is the least I with
        # (I/den^2)^(1/40) >= 5, I = 4 * 5^40 ~ 3.6e28 at den 2: a float
        # guess of it is off by about 10^12, and exact steps from the guess
        # never arrive; doubling and bisection take about 200 comparisons
        calls = []
        far = packing._far_predicate

        def counted(delta, alpha):
            test = far(delta, alpha)

            def step(dist):
                calls.append(dist)
                assert len(calls) < 1000
                return test(dist)
            return step

        monkeypatch.setattr(packing, "_far_predicate", counted)
        assert packing._min_sq_lattice(Fraction(5), Fraction(1, 20), 2) == 4 * 5 ** 40
        monkeypatch.undo()
        res = greedy_packing(cube(1), 5, Fraction(1, 20))
        assert (res.count, res.den) == (1, 2)


class TestCenters:
    """The float centers are k / den from the integer lattice, the Fraction
    centers are built only where they are read."""

    @pytest.mark.parametrize("dom,delta,alpha", [
        (cube(1), Fraction(1, 8), Fraction(1)),
        (cube(2), Fraction(1, 8), Fraction(1, 2)),
        (cube(3), Fraction(1, 16), Fraction(1)),
        (ball(1, Fraction(3, 2)), Fraction(1, 4), Fraction(1)),
        (ball(2), Fraction(1, 8), Fraction(1, 2)),
        (ball(3), Fraction(1, 4), Fraction(1)),
    ])
    def test_float_centers_are_the_fractions_rounded(self, dom, delta, alpha):
        res = greedy_packing(dom, delta, alpha)
        want = np.array([[float(c) for c in pt] for pt in res.centers], dtype=float)
        got = res.centers_array()
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert res.count == len(res.centers) == len(got)

    @pytest.mark.parametrize("argv,digest", [
        (["packing", "--domain", "cube:3", "--deltas", "1/4,1/8,1/16"],
         "82addaefed7028a6f5ce4d3929ba7cfee7479ef17955340be67c78e6a5898590"),
        (["packing", "--domain", "ball:2", "--deltas", "1/2,1/4,1/8",
          "--alpha", "1/2"],
         "1da837bd77166f72fedc23d66a31fb91c59e34f223e3d226061b21f7613a5754"),
        (["packing", "--domain", "cube:1", "--deltas", "1/4", "--brute-force"],
         "2056a75ab55b0c97df12e2bc97371eca1cf33e871d077ba63e42ace9faac4f89"),
    ])
    def test_packing_report_bytes(self, capsys, argv, digest):
        # the sha256 of each report as the Fraction centers produced it
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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
