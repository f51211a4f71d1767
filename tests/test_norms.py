"""Quadrature oracles: Lp norms, Hoelder bounds, fractional seminorms."""

import dataclasses
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkhs_sandwich import norms
from rkhs_sandwich import (DivergenceError, NormFunctional, QuadratureConfig,
                           ball, cube, hoelder_norm, lp_norm, slobodeckij_norm,
                           slobodeckij_seminorm, whole_space)
from rkhs_sandwich.bumps import (BumpFamily, SignedSum, SmoothBumpMember,
                                 TentMember, smooth_family, tent_family)
from rkhs_sandwich.norms import AccuracyError, NormError, default_point_cloud
from rkhs_sandwich.report import Report

TIGHT = QuadratureConfig(tolerance=1e-6)


class TestConfig:
    def test_tolerance_range(self):
        with pytest.raises(ValueError):
            QuadratureConfig(tolerance=1e-2)
        QuadratureConfig(tolerance=1e-3)

    def test_settings_are_tolerance_and_mc_samples(self):
        assert [f.name for f in dataclasses.fields(QuadratureConfig)] == \
            ["tolerance", "mc_samples"]

    def test_report_writes_the_lp_resolutions(self):
        # the report's quadrature block keeps lp_norm's starting resolution
        # and its cap in d = 1 beside the two settings
        report = Report.build("scan", {}, {}, quadrature=QuadratureConfig())
        assert report.quadrature == {"resolution": 64, "tolerance": 1e-5,
                                     "max_resolution": 8192, "mc_samples": 64}

    @pytest.mark.parametrize("d,alpha,p,expected", [
        (1, (0,), 1, "0x1.34f76b67448a2p+0"),
        (1, (0,), 2, "0x1.fbba482010d9dp-1"),
        (1, (1,), 1, "0x1.000015555199ap+1"),
        (1, (1,), 2, "0x1.bd5b33dc659eap+0"),
        (2, (0, 0), 1, "0x1.44a2ffa3fe164p+0"),
        (2, (0, 0), 2, "0x1.ddeafd118633ep-1"),
        (2, (1, 0), 1, "0x1.34f798c9b803bp+1"),
        (2, (1, 0), 2, "0x1.c5bf891bdbfa2p+0"),
        # prefactors with powers above 1
        (1, (2,), 1, "0x1.15ce5d1b85d45p+3"),
        (1, (2,), 2, "0x1.1e50a9fdc7871p+3"),
        (2, (1, 1), 1, "0x1.351027124c110p+2"),
        (2, (1, 1), 2, "0x1.4f8d2287ea687p+2"),
        (2, (2, 0), 1, "0x1.62f08719b3e39p+3"),
        (2, (2, 0), 2, "0x1.229890ac1944cp+3"),
    ])
    def test_lp_norm_values_are_pinned(self, d, alpha, p, expected):
        # recorded bit for bit: any change of the starting resolution, the
        # per-axis caps or the stopping rule shows here
        member = SmoothBumpMember(d, np.zeros(d), 1.0).derivative(alpha)
        assert lp_norm(member, p, ball(d)).hex() == expected


class TestLpNorm:
    def test_single_member_identity_scale(self):
        dom = ball(1)
        base = SmoothBumpMember(1, np.zeros(1), 1.0)
        member = SmoothBumpMember(1, np.zeros(1), 1.0)
        assert lp_norm(member, 2, dom, TIGHT) == \
            pytest.approx(lp_norm(base, 2, dom, TIGHT))

    def test_four_bump_l2_identity(self):
        # n^(1/p) delta^(d/p) = 4^(1/2) (1/4)^(1/2) = 1: the sum has the same
        # L2 norm as the reference bump
        dom = ball(1, 2)
        centers = np.array([[-1.125], [-0.375], [0.375], [1.125]])
        fam = BumpFamily("smooth", 0.25, centers, dom)
        h = fam.signed_sum([1] * fam.n)
        base = SmoothBumpMember(1, np.zeros(1), 1.0)
        assert lp_norm(h, 2, dom, TIGHT) == \
            pytest.approx(lp_norm(base, 2, dom, TIGHT), rel=1e-4)

    def test_four_bump_derivative_l1(self):
        # n^(1/p) delta^(d/p - 1) = 4 * (1/4)^0 = 4 on the derivative side
        dom = ball(1, 2)
        centers = np.array([[-1.125], [-0.375], [0.375], [1.125]])
        fam = BumpFamily("smooth", 0.25, centers, dom)
        h = fam.signed_sum([1] * fam.n).derivative((1,))
        base = SmoothBumpMember(1, np.zeros(1), 1.0).derivative((1,))
        assert lp_norm(h, 1, dom, TIGHT) == \
            pytest.approx(4.0 * lp_norm(base, 1, dom, TIGHT), rel=1e-4)

    def test_indicator_constant(self):
        from rkhs_sandwich.bumps import IndicatorMember
        m = IndicatorMember(np.zeros(2), np.full(2, 0.5))
        assert lp_norm(m, 3, cube(2)) == pytest.approx(0.25 ** (1 / 3), rel=1e-9)

    def test_signed_sum_boxes_are_clipped_to_the_domain(self):
        # the tent's box [-0.05, 0.15] leaves the unit interval; over
        # [0, 0.15] the integral of (0.1 - |x - 0.05|)_+^2 is 0.000625
        m = TentMember(np.array([0.05]), 0.1, 1)
        single = lp_norm(m, 2, cube(1))
        assert single == pytest.approx(0.025, rel=1e-4)
        assert lp_norm(SignedSum([m], [1]), 2, cube(1)) == single

    def test_member_on_the_whole_space(self):
        # on R^d a member's box is left unclipped, as a SignedSum's boxes are
        m = SmoothBumpMember(2, np.zeros(2), 1.0)
        on_ball = lp_norm(m, 2, ball(2))
        assert lp_norm(m, 2, whole_space(2)) == on_ball
        assert lp_norm(SignedSum([m], [1]), 2, whole_space(2)) == on_ball

    def test_member_crossing_the_sphere_is_cut_to_the_ball(self):
        # the bump's box [0.25, 0.95]^2 pokes out of the unit disk; the
        # oracle integrates over the part of the box inside the disk
        from scipy.integrate import dblquad
        m = SmoothBumpMember(2, np.array([0.6, 0.6]), 0.35)
        ref, _ = dblquad(lambda y, x: abs(m(np.array([[x, y]]))[0]),
                         0.25, 0.95, 0.25, lambda x: min(0.95, math.sqrt(1 - x * x)))
        val = lp_norm(m, 1, ball(2), QuadratureConfig(tolerance=1e-3))
        assert val == pytest.approx(ref, rel=1e-3)

    @pytest.mark.parametrize("d", [1, 2])
    def test_each_box_is_integrated_against_its_member(self, d):
        # test 04's signed sums: integrating each disjoint box against its
        # member gives the value of the whole sum on each box, bit for bit
        class Hidden:
            """The sum without its members."""

            def __init__(self, h):
                self.h, self.support_boxes = h, h.support_boxes

            def __call__(self, X):
                return self.h(X)

        cfg = QuadratureConfig(tolerance=1e-4)
        rng = np.random.default_rng(d)
        alphas = [(0,), (2,)] if d == 1 else [(0, 0), (1, 1)]
        for delta in (Fraction(1, 2), Fraction(1, 4)):
            fam = smooth_family(d, delta)
            for alpha, p in zip(alphas, (1, 2)):
                signs = [int(s) for s in rng.choice((1, -1), size=fam.n)]
                h = fam.signed_sum(signs).derivative(alpha)
                assert lp_norm(h, p, fam.domain, cfg) == \
                    lp_norm(Hidden(h), p, fam.domain, cfg)

    def test_four_dimensions_are_refused_before_any_grid(self, monkeypatch):
        # one 64^4 level would hold 1.3 GB of points; d >= 4 has no level
        def no_grid(*args):
            raise AssertionError("a quadrature grid was laid")

        monkeypatch.setattr(norms, "_midpoint_grid", no_grid)
        member = SmoothBumpMember(4, np.full(4, 0.5), 0.25)
        with pytest.raises(AccuracyError, match="in dimension 4") as err:
            lp_norm(member, 2, cube(4))
        assert err.value.achieved == math.inf

    def test_refusal_reports_the_last_relative_change(self):
        # levels of a fast oscillation keep moving up to the 2-D cap of 2048
        # points per axis; achieved is the change between the last two
        # levels, 1024 and 2048, recomputed here from those levels
        g = lambda X: np.sin(1e4 * X[:, 0])
        with pytest.raises(AccuracyError) as err:
            lp_norm(g, 2, cube(2), TIGHT)

        def level(res):
            pts, w = norms._midpoint_grid(np.zeros(2), np.ones(2), res)
            return (float(np.sum(np.abs(g(pts)) ** 2)) * w) ** 0.5

        a, b = level(1024), level(2048)
        assert err.value.achieved > 0
        assert err.value.achieved == abs(b - a) / max(a, b, 1e-300)


class TestHoelderNorm:
    def test_constant_function(self):
        pts = np.linspace(0, 1, 20).reshape(-1, 1)
        assert hoelder_norm(lambda X: np.ones(len(X)), 0.5, pts) == 1.0

    def test_linear_function_lipschitz(self):
        pts = np.linspace(0, 1, 50).reshape(-1, 1)
        val = hoelder_norm(lambda X: X[:, 0], 1.0, pts)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_tent_beta_lower_bound_with_witness(self):
        # quotient from the peak to the support edge is delta^((a-b)/a)
        delta, a, b = 0.2, 0.5, 0.25
        t = TentMember(np.array([0.5]), delta, a)
        edge = 0.5 + delta ** (1 / a)
        pts = np.array([[0.5], [edge], [0.9]])
        val = hoelder_norm(t, b, pts)
        assert val >= delta ** ((a - b) / a) - 1e-12

    def test_exponent_range(self):
        from rkhs_sandwich.norms import NormError
        with pytest.raises(NormError):
            hoelder_norm(lambda X: X[:, 0], 1.5, np.zeros((3, 1)))

    def test_default_cloud_contains_support_centers(self):
        m = SmoothBumpMember(1, np.array([0.3]), 0.1)
        cloud = default_point_cloud(m, cube(1))
        assert np.any(np.isclose(cloud[:, 0], 0.3))


def _dense_hoelder(fn, alpha, points):
    """Every pair of the cloud, in blocks of 512 active points: the oracle
    for the pruned pair search."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    vals = np.asarray(fn(points), dtype=float)
    best = float(np.max(np.abs(vals))) if len(vals) else 0.0
    active = np.flatnonzero(vals != 0.0)
    for start in range(0, len(active), 512):
        idx = active[start:start + 512]
        diff = points[idx][:, None, :] - points[None, :, :]
        dist = np.linalg.norm(diff, axis=2)
        dist[dist == 0.0] = np.inf
        quot = np.abs(vals[idx][:, None] - vals[None, :]) / dist ** alpha
        best = max(best, float(np.max(quot)))
    return best


def _clusters(rng, d, m):
    """m tight clusters of 10 points each at random places, with one value
    per cluster.  Each point's 8 nearest neighbours lie in its own cluster,
    so the largest quotient is found only across clusters, up to the edge of
    the pruning radius."""
    centers = rng.uniform(0.0, 4.0, size=(m, d))
    pts = np.repeat(centers, 10, axis=0) + rng.uniform(0.0, 1e-3, (10 * m, d))
    vals = np.repeat(rng.normal(size=m), 10)
    return pts, lambda X: vals


@st.composite
def _cloud_and_fn(draw):
    """A random cloud in d = 1, 2, 3 (possibly one point, possibly with
    coincident points) and a function of one of five kinds on it."""
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 40))
    pts = rng.uniform(0.0, 1.0, size=(n, d))
    copies = draw(st.integers(0, 5))
    pts = np.vstack([pts, pts[rng.integers(0, n, size=copies)]])
    kind = draw(st.sampled_from(["zero", "constant", "tents", "slow", "random",
                                 "clusters"]))
    if kind == "clusters":
        return _clusters(rng, d, draw(st.integers(2, 4)))
    if kind == "zero":
        return pts, lambda X: np.zeros(len(X))
    if kind == "constant":
        c = rng.normal()
        return pts, lambda X: np.full(len(X), c)
    if kind == "tents":
        m = int(rng.integers(1, 6))
        members = [TentMember(rng.uniform(0.0, 1.0, size=d),
                              rng.uniform(0.05, 0.5), rng.uniform(0.2, 1.0))
                   for _ in range(m)]
        return pts, SignedSum(members, [int(s) for s in
                                        rng.choice((1, -1), size=m)])
    if kind == "slow":
        # a large offset and a small slope: the pruning radius covers the
        # whole cloud
        a, c = rng.normal(size=d) * 1e-3, 5.0 + rng.uniform()
        return pts, lambda X: c + X @ a
    vals = rng.normal(size=len(pts)) * (rng.uniform(size=len(pts)) < 0.7)
    return pts, lambda X: vals


class TestHoelderPruning:
    """The pruned pair search returns the dense maximum, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(_cloud_and_fn(),
           st.one_of(st.sampled_from([0.25, 0.5, 1.0]),
                     st.floats(min_value=0.0, max_value=1.0, exclude_min=True)))
    def test_equals_dense_maximum(self, cloud_fn, alpha):
        pts, fn = cloud_fn
        assert hoelder_norm(fn, alpha, pts) == _dense_hoelder(fn, alpha, pts)

    def test_blocks_cover_every_active_point(self, monkeypatch):
        # the first block's points lie far from the two clusters whose pair
        # gives the maximum, so only a later block finds it
        far = np.full((10, 2), 5.0) + np.linspace(0, 1e-3, 10)[:, None]
        pts = np.vstack([far, np.zeros((10, 2)), np.ones((10, 2))]) + \
            np.random.default_rng(3).uniform(0.0, 1e-3, size=(30, 2))
        vals = np.repeat([1e-3, 1.0, -1.0], 10)
        monkeypatch.setattr(norms, "_PAIRS_PER_BLOCK", 300)  # 10 per block
        g = lambda X: vals
        assert hoelder_norm(g, 1.0, pts) == _dense_hoelder(g, 1.0, pts)
        assert hoelder_norm(g, 1.0, pts) > 1.0

    def test_tent_scan_cloud(self):
        # the cloud and signed sum of the 3-D tent scan at delta = 1/8
        from rkhs_sandwich.rademacher import _tent_cloud
        fam = tent_family(cube(3), Fraction(1, 24), 1)
        cloud = _tent_cloud(fam.centers, 1 / 24, 1.0, cube(3))
        signs = np.random.default_rng(7).choice((1, -1), size=fam.n)
        h = fam.signed_sum([int(s) for s in signs])
        assert hoelder_norm(h, 1.0, cloud) == _dense_hoelder(h, 1.0, cloud)


def _column(kind, rng, pts):
    """One column of values on the cloud: zero, constant, a signed tent
    sum, a slow linear function or random values."""
    d = pts.shape[1]
    if kind == "zero":
        return np.zeros(len(pts))
    if kind == "constant":
        return np.full(len(pts), rng.normal())
    if kind == "tents":
        m = int(rng.integers(1, 6))
        members = [TentMember(rng.uniform(0.0, 1.0, size=d),
                              rng.uniform(0.05, 0.5), rng.uniform(0.2, 1.0))
                   for _ in range(m)]
        return SignedSum(members, [int(s) for s in rng.choice((1, -1), size=m)])(pts)
    if kind == "slow":
        return 5.0 + rng.uniform() + pts @ (rng.normal(size=d) * 1e-3)
    return rng.normal(size=len(pts)) * (rng.uniform(size=len(pts)) < 0.7)


@st.composite
def _cloud_and_columns(draw):
    """A random cloud in d = 1, 2, 3 (possibly with coincident points) and a
    points x k value array of k = 1..5 columns of the kinds of _column."""
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 40))
    pts = rng.uniform(0.0, 1.0, size=(n, d))
    pts = np.vstack([pts, pts[rng.integers(0, n, size=draw(st.integers(0, 5)))]])
    kinds = draw(st.lists(st.sampled_from(["zero", "constant", "tents", "slow",
                                           "random"]), min_size=1, max_size=5))
    return pts, np.column_stack([_column(kind, rng, pts) for kind in kinds])


class TestHoelderColumns:
    """A points x k value array takes one pass; each column's value is its
    1-column call's and the dense maximum's, bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(_cloud_and_columns(),
           st.one_of(st.sampled_from([1e-3, 0.25, 0.5, 1.0]),
                     st.floats(min_value=0.0, max_value=1.0, exclude_min=True)),
           st.sampled_from([1, 8, 100, 1 << 20]))
    def test_each_column_equals_its_own_call(self, cloud_cols, alpha, budget):
        pts, vals = cloud_cols
        # a budget of 1..100 pairs x columns runs many count-sized blocks
        with mock.patch.object(norms, "_PAIRS_PER_BLOCK", budget):
            got = hoelder_norm(lambda X: vals, alpha, pts)
            assert got.shape == (vals.shape[1],)
            for c in range(vals.shape[1]):
                col = vals[:, c].copy()
                one = hoelder_norm(lambda X: col, alpha, pts)
                assert isinstance(one, float)
                assert got[c] == one == _dense_hoelder(lambda X: col, alpha, pts)

    def test_zero_columns(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(0.0, 1.0, size=(50, 2))
        vals = np.zeros((50, 4))
        vals[:, 1] = rng.normal(size=50)
        vals[:, 3] = -0.0
        got = hoelder_norm(lambda X: vals, 0.5, pts)
        assert got[0] == got[2] == got[3] == 0.0
        assert got[1] == _dense_hoelder(lambda X: vals[:, 1], 0.5, pts) > 0.0
        assert np.array_equal(hoelder_norm(lambda X: np.zeros((50, 3)), 0.5, pts),
                              np.zeros(3))
        assert np.array_equal(hoelder_norm(lambda X: np.zeros((0, 2)), 0.5,
                                           np.zeros((0, 2))), np.zeros(2))

    def test_radius_overflow(self):
        # at alpha = 1e-3 the pruning radius (2 sup / best)^1000 overflows:
        # every pair is examined, for every column
        rng = np.random.default_rng(9)
        pts = rng.uniform(0.0, 1.0, size=(60, 3))
        vals = np.column_stack([rng.normal(size=60), np.full(60, 3.0),
                                np.where(rng.uniform(size=60) < 0.2, 1.0, 0.0)])
        got = hoelder_norm(lambda X: vals, 1e-3, pts)
        for c in range(3):
            col = vals[:, c].copy()
            assert got[c] == _dense_hoelder(lambda X: col, 1e-3, pts)


def _linear_seminorm(theta: float, p: float) -> float:
    # analytic value for g(x) = x on (0,1): the double integral reduces to
    # the moment of |x - y|^((1-theta)p - 1)
    a = (1.0 - theta) * p
    return (2.0 / (a * (a + 1.0))) ** (1.0 / p)


def _meshgrid_midpoints(lo, hi, res):
    """The cell midpoints by meshgrid and stack: the oracle for the grid
    filled axis by axis."""
    d = len(lo)
    axes = [np.linspace(lo[k] + (hi[k] - lo[k]) / (2 * res),
                        hi[k] - (hi[k] - lo[k]) / (2 * res), res)
            for k in range(d)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    return pts, float(np.prod((hi - lo) / res))


class TestInPlaceKernels:
    # 64^4 points would take about 1 GB for the two grids; d = 4 stops at 9
    @pytest.mark.parametrize("d,res", [(d, res) for d in (1, 2, 3, 4)
                                       for res in (5, 9, 64) if res ** d < 1 << 20])
    def test_midpoint_grid_equals_meshgrid(self, d, res):
        lo, hi = np.linspace(-0.3, 0.2, d), np.linspace(0.7, 1.9, d)
        pts, w = norms._midpoint_grid(lo, hi, res)
        ref_pts, ref_w = _meshgrid_midpoints(lo, hi, res)
        assert np.array_equal(pts, ref_pts) and w == ref_w


class TestSlobodeckijSeminorm:
    def test_ball_without_box_is_refused(self):
        # a ball is no box: its bounding square would add pairs outside it
        m = SmoothBumpMember(2, np.array([0.6, 0.0]), 0.35)
        with pytest.raises(NormError, match="boxes only"):
            slobodeckij_seminorm(m, 0.5, 2, ball(2),
                                 QuadratureConfig(tolerance=1e-3))

    def test_ball_with_a_box_integrates_over_the_box(self):
        g = lambda X: X[:, 0]
        box = (np.zeros(1), np.ones(1))
        assert slobodeckij_seminorm(g, 0.5, 2, ball(1), box=box) == \
            slobodeckij_seminorm(g, 0.5, 2, cube(1))

    def test_constant_is_exactly_zero(self):
        val = slobodeckij_seminorm(lambda X: np.full(len(X), 3.0), 0.5, 2,
                                   cube(1))
        assert val == 0.0

    def test_linear_unit_value(self):
        val = slobodeckij_seminorm(lambda X: X[:, 0], 0.5, 2, cube(1))
        assert val == pytest.approx(1.0, rel=1e-3)

    @pytest.mark.parametrize("theta,p", [(0.25, 1.0), (0.75, 3.0), (0.7, 1.0)])
    def test_linear_analytic_values(self, theta, p):
        val = slobodeckij_seminorm(lambda X: X[:, 0], theta, p, cube(1),
                                   config=QuadratureConfig(tolerance=1e-3))
        assert val == pytest.approx(_linear_seminorm(theta, p), rel=5e-3)

    def test_two_dimensional_linear_matches_difference_oracle(self):
        # for g(x) = a.x on Q = (0,1)^2, theta = 1/2, p = 2 the double
        # integral over Q x Q equals, in the difference z = x - y,
        # int_{[-1,1]^2} (a.z)^2 / |z|^3 (1-|z_1|)(1-|z_2|) dz; the oracle
        # takes one quadrant at a time so the kink of |z_j| is on an edge
        from scipy.integrate import dblquad
        a0, a1 = 1.0, 0.5
        f = lambda z1, z0: (a0 * z0 + a1 * z1) ** 2 / math.hypot(z0, z1) ** 3 \
            * (1 - abs(z0)) * (1 - abs(z1))
        total = 0.0
        for s0 in (-1, 1):
            for s1 in (-1, 1):
                total += dblquad(f, *sorted((0, s0)), *sorted((0, s1)))[0]
        val = slobodeckij_seminorm(lambda X: a0 * X[:, 0] + a1 * X[:, 1], 0.5,
                                   2, cube(2))
        assert val == pytest.approx(math.sqrt(total), rel=1e-5)

    @pytest.mark.parametrize("theta,p", [(0.5, 2.0), (0.25, 1.0), (0.9, 4.0)])
    def test_one_dimensional_linear_at_default_tolerance(self, theta, p):
        val = slobodeckij_seminorm(lambda X: X[:, 0], theta, p, cube(1))
        assert val == pytest.approx(_linear_seminorm(theta, p), rel=1e-5)

    def test_two_dimensional_rotated_linear_at_default_tolerance(self):
        # for p = 2 the cross term of (a.z)^2 integrates to 0 over the
        # square's difference box, so [a.x + b] = |a| [x0]; S = [x0]^2 in
        # polar form, z = r (cos phi, sin phi), over a quadrant's two halves
        from scipy.integrate import dblquad
        f = lambda r, phi: math.cos(phi) ** 2 * (1 - r * math.cos(phi)) * \
            (1 - r * math.sin(phi))
        S = 4.0 * sum(dblquad(f, lo, hi, 0.0,
                              lambda phi: 1.0 / max(math.cos(phi), math.sin(phi)),
                              epsabs=1e-13, epsrel=1e-13)[0]
                      for lo, hi in ((0.0, math.pi / 4), (math.pi / 4, math.pi / 2)))
        a = 1.7 * np.array([math.cos(2.0), math.sin(2.0)])
        val = slobodeckij_seminorm(lambda X: X @ a - 0.3, 0.5, 2, cube(2))
        assert val == pytest.approx(1.7 * math.sqrt(S), rel=1e-5)

    def test_three_dimensional_linear_at_default_tolerance(self):
        # scipy.integrate.nquad of z0^2 / |z|^4 (1-z0)(1-z1)(1-z2) over
        # (0,1)^3 at epsabs = epsrel = 1e-11 gives 0.2347381315890042; the
        # eight octants are alike, so [x0] = sqrt(8 * that) = 1.3703667585
        val = slobodeckij_seminorm(lambda X: X[:, 0], 0.5, 2, cube(3))
        assert val == pytest.approx(1.3703668, rel=1e-5)

    def test_bump_at_quarter_theta_and_p_four(self):
        # the rule gives 1.21908587 at n = 48 and 1.21908566 at n = 64; with
        # n nodes on every axis it gives 1.21908576 at n = 48, and with two
        # Gauss panels per interval, 1.21908581
        m = SmoothBumpMember(2, np.array([0.5, 0.5]), 0.35)
        assert slobodeckij_seminorm(m, 0.25, 4, cube(2)) == \
            pytest.approx(1.2190858, rel=1e-5)

    def test_divergence_detected(self):
        # |x - 1/2|^0.3 has a cusp too rough for theta = 0.8 in L2
        g = lambda X: np.abs(X[:, 0] - 0.5) ** 0.3
        with pytest.raises((DivergenceError, AccuracyError)):
            slobodeckij_seminorm(g, 0.8, 2, cube(1))

    def test_theta_outside_unit_interval(self):
        with pytest.raises(DivergenceError):
            slobodeckij_seminorm(lambda X: X[:, 0], 1.2, 2, cube(1))

    def test_side_scaling_slope(self):
        # for locally linear g the seminorm over (0, L) scales like
        # L^(d/p + 1 - theta); here the exponent is 1
        g = lambda X: X[:, 0]
        sides = [0.25, 0.5, 1.0]
        vals = [slobodeckij_seminorm(g, 0.5, 2, cube(1),
                                     box=(np.zeros(1), np.full(1, L)))
                for L in sides]
        slope = np.polyfit(np.log(sides), np.log(vals), 1)[0]
        assert abs(slope - 1.0) < 0.1


class TestSlobodeckijNorm:
    def test_fractional_norm_takes_the_max(self):
        class Linear:
            def __call__(self, X):
                return X[:, 0]
        # ||x||_L2 = 1/sqrt(3) < seminorm = 1
        val = slobodeckij_norm(Linear(), 0.5, 2, cube(1))
        assert val == pytest.approx(1.0, rel=1e-3)

    def test_s_just_below_an_integer_is_that_integer(self):
        # 0.7 * 3 + 0.9 rounds to 2.9999999999999996; taken as 2 + theta it
        # would ask for a seminorm with theta a rounding error below 1
        s = 0.7 * 3 + 0.9
        assert s < 3
        m = SmoothBumpMember(1, np.array([0.5]), 0.25)
        assert slobodeckij_norm(m, s, 2, cube(1)) == slobodeckij_norm(m, 3, 2, cube(1))


class TestFunctionalDispatch:
    def test_sup_functional(self):
        m = SmoothBumpMember(1, np.zeros(1), 0.5)
        fn = NormFunctional("sup")
        assert fn(m, ball(1)) == pytest.approx(1.0)

    def test_lp_functional_matches_direct_call(self):
        m = SmoothBumpMember(1, np.zeros(1), 0.5)
        fn = NormFunctional("lp-of-derivative", alpha=(0,), p=2.0)
        assert fn(m, ball(1)) == pytest.approx(lp_norm(m, 2, ball(1)))
