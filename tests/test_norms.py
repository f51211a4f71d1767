"""Quadrature oracles: Lp norms, Hoelder bounds, fractional seminorms."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkhs_sandwich import norms
from rkhs_sandwich import (DivergenceError, NormFunctional, QuadratureConfig,
                           ball, cube, hoelder_norm, lp_norm, slobodeckij_norm,
                           slobodeckij_seminorm, unit_ball_volume, whole_space)
from rkhs_sandwich.bumps import (SignedSum, SmoothBumpMember, TentMember,
                                 smooth_family, tent_family)
from rkhs_sandwich.norms import AccuracyError, default_point_cloud

TIGHT = QuadratureConfig(tolerance=1e-6)


class TestConfig:
    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            QuadratureConfig(resolution=8)

    def test_tolerance_range(self):
        with pytest.raises(ValueError):
            QuadratureConfig(tolerance=1e-2)
        QuadratureConfig(tolerance=1e-3)


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
        fam = smooth_family(1, Fraction(1, 4), domain=dom, centers=centers)
        h = fam.all_plus()
        base = SmoothBumpMember(1, np.zeros(1), 1.0)
        assert lp_norm(h, 2, dom, TIGHT) == \
            pytest.approx(lp_norm(base, 2, dom, TIGHT), rel=1e-4)

    def test_four_bump_derivative_l1(self):
        # n^(1/p) delta^(d/p - 1) = 4 * (1/4)^0 = 4 on the derivative side
        dom = ball(1, 2)
        centers = np.array([[-1.125], [-0.375], [0.375], [1.125]])
        fam = smooth_family(1, Fraction(1, 4), domain=dom, centers=centers)
        h = fam.all_plus().derivative((1,))
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
        cloud = _tent_cloud(fam.centers, 1 / 24, 1.0)
        signs = np.random.default_rng(7).choice((1, -1), size=fam.n)
        h = fam.signed_sum([int(s) for s in signs])
        assert hoelder_norm(h, 1.0, cloud) == _dense_hoelder(h, 1.0, cloud)


def _linear_seminorm(theta: float, p: float) -> float:
    # analytic value for g(x) = x on (0,1): the double integral reduces to
    # the moment of |x - y|^((1-theta)p - 1)
    a = (1.0 - theta) * p
    return (2.0 / (a * (a + 1.0))) ** (1.0 / p)


class TestSlobodeckijSeminorm:
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
                                   2, cube(2), QuadratureConfig(tolerance=1e-3))
        assert val == pytest.approx(math.sqrt(total), rel=1e-3)

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


class TestUnitBallVolume:
    def test_interval_and_disk(self):
        assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-12)
        assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-12)


class TestFunctionalDispatch:
    def test_sup_functional(self):
        m = SmoothBumpMember(1, np.zeros(1), 0.5)
        fn = NormFunctional("sup")
        assert fn(m, ball(1)) == pytest.approx(1.0)

    def test_lp_functional_matches_direct_call(self):
        m = SmoothBumpMember(1, np.zeros(1), 0.5)
        fn = NormFunctional("lp-of-derivative", alpha=(0,), p=2.0)
        assert fn(m, ball(1)) == pytest.approx(lp_norm(m, 2, ball(1)))
