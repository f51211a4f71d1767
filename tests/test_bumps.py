"""Bump constructions: reference bump, exact derivatives, families, tents."""

import math

import numpy as np
import pytest

from rkhs_sandwich import (BumpFamily, SignedSum, SmoothBump, TentMember,
                           ball, cube, eval_bump, eval_bump_derivative,
                           indicator_partition, smooth_family, tent_family)
from rkhs_sandwich import greedy_packing
from rkhs_sandwich.bumps import (IndicatorMember, SmoothBumpMember,
                                 reference_bump)


class TestReferenceBump:
    def test_normalized_at_origin(self):
        assert eval_bump([0.0]) == 1.0
        assert eval_bump([0.0, 0.0]) == 1.0

    def test_vanishes_outside(self):
        assert eval_bump([1.0]) == 0.0
        assert eval_bump([2.0]) == 0.0
        assert eval_bump([0.8, 0.8]) == 0.0

    def test_zeroth_derivative_is_the_bump(self):
        for x in (0.0, 0.3, 0.7):
            assert eval_bump_derivative((0,), [x]) == eval_bump([x])

    def test_odd_derivative_vanishes_at_origin(self):
        assert eval_bump_derivative((1,), [0.0]) == 0.0
        assert eval_bump_derivative((1, 0), [0.0, 0.0]) == 0.0

    def test_every_derivative_is_nonzero_somewhere(self):
        xs = np.linspace(-0.9, 0.9, 41).reshape(-1, 1)
        bump = reference_bump(1)
        for order in range(1, 6):
            vals = bump.derivative_values((order,), xs)
            assert np.max(np.abs(vals)) > 0

    def test_prefactor_recurrence_base(self):
        bump = SmoothBump(1)
        p, m = bump.derivative_prefactor((0,))
        assert p == {(0,): 1} and m == 0
        p1, m1 = bump.derivative_prefactor((1,))
        # d/dx exp(-1/w) picks up -2x/w^2
        assert m1 == 2 and p1 == {(1,): -2}


def _richardson(fn, x, j, h):
    def central(step):
        e = np.zeros(len(x))
        e[j] = step
        return (fn(x + e) - fn(x - e)) / (2 * step)
    return (4.0 * central(h / 2) - central(h)) / 3.0


class TestDerivativeOracle:
    @pytest.mark.parametrize("d", [1, 2])
    def test_first_derivatives_match_finite_differences(self, d):
        rng = np.random.default_rng(5)
        bump = reference_bump(d)
        checked = 0
        while checked < 100:
            x = rng.uniform(-0.8, 0.8, size=d)
            if np.linalg.norm(x) > 0.85 or np.linalg.norm(x) < 0.05:
                continue
            j = checked % d
            alpha = tuple(1 if k == j else 0 for k in range(d))
            exact = bump.derivative_values(alpha, x.reshape(1, d))[0]
            approx = _richardson(lambda y: bump(y.reshape(1, d))[0], x, j, 1e-3)
            rel = abs(exact - approx) / max(abs(exact), abs(approx), 1e-12)
            assert rel < 1e-6, (x, exact, approx)
            checked += 1

    def test_half_point_value(self):
        exact = eval_bump_derivative((1,), [0.5])
        x = np.array([0.5])
        approx = _richardson(lambda y: eval_bump([y[0]]), x, 0, 1e-4)
        assert abs(exact - approx) / abs(exact) < 1e-6


class TestMembersAndFamilies:
    def test_member_is_translated_scaled_bump(self):
        m = SmoothBumpMember(1, np.array([0.5]), 0.25)
        assert m(np.array([[0.5]]))[0] == 1.0
        assert m(np.array([[0.8]]))[0] == 0.0
        inner = eval_bump([0.4])
        assert m(np.array([[0.6]]))[0] == pytest.approx(inner, rel=1e-12)

    def test_family_separation_enforced(self):
        with pytest.raises(ValueError):
            BumpFamily("smooth", 0.25, np.array([[0.0], [0.5]]), ball(1))
        BumpFamily("smooth", 0.25, np.array([[0.0], [0.75]]), ball(1, 2))

    def test_smooth_family_supports_disjoint(self):
        fam = smooth_family(1, 0.125)
        assert fam.n >= 2
        boxes = [m.support_box for m in fam.members]
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                lo1, hi1 = boxes[i]
                lo2, hi2 = boxes[j]
                assert np.any(hi1 <= lo2) or np.any(hi2 <= lo1)

    def test_smooth_family_center_budget(self):
        with pytest.raises(ValueError):
            smooth_family(1, 0.125, n=100)

    def test_tent_values(self):
        t = TentMember(np.array([0.5, 0.5]), 0.2, 0.5)
        assert t(np.array([[0.5, 0.5]]))[0] == pytest.approx(0.2)
        # support radius is delta^(1/alpha) = 0.04
        assert t(np.array([[0.55, 0.5]]))[0] == 0.0
        assert t(np.array([[0.51, 0.5]]))[0] == pytest.approx(0.2 - 0.1)

    def test_tent_family_packs_in_power_metric(self):
        fam = tent_family(cube(1), 0.1, 0.5)
        assert fam.n >= 2
        d = fam.centers[:, None, :] - fam.centers[None, :, :]
        dist = np.linalg.norm(d, axis=2)
        dist[dist == 0] = np.inf
        assert np.min(dist) ** 0.5 >= 3 * 0.1 - 1e-12

    def test_signed_sum_signs(self):
        fam = smooth_family(1, 0.125)
        h = fam.signed_sum([1, -1] + [1] * (fam.n - 2))
        x = fam.centers[1].reshape(1, -1)
        assert h(x)[0] == -1.0
        with pytest.raises(ValueError):
            fam.signed_sum([2] * fam.n)

    def test_indicator_partition_covers(self):
        members = indicator_partition(2, 3)
        assert len(members) == 9
        pts = np.random.default_rng(0).uniform(0, 1, size=(50, 2))
        total = sum(m(pts) for m in members)
        assert np.all(total == 1.0)

    def test_signed_indicator_sum_has_unit_modulus(self):
        members = indicator_partition(1, 4)
        h = SignedSum(members, [1, -1, -1, 1])
        pts = np.linspace(0.01, 0.99, 17).reshape(-1, 1)
        assert np.all(np.abs(h(pts)) == 1.0)


class TestScalingIdentity:
    def test_derivative_of_member_scales(self):
        # d/dx of f((x-c)/delta) carries the 1/delta factor
        m = SmoothBumpMember(1, np.array([0.0]), 0.5)
        dm = m.derivative((1,))
        x = np.array([[0.2]])
        expected = eval_bump_derivative((1,), [0.4]) / 0.5
        assert dm(x)[0] == pytest.approx(expected, rel=1e-12)


def _member_loop(h, X):
    """Every member at every point, added in member order: the oracle for
    SignedSum's sorted-slice evaluation."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.zeros(len(X))
    for s, m in zip(h.signs, h.members):
        out += s * m(X)
    return out


def _face_points(members, rng, per_member=4):
    """Points exactly on the faces of each member's support box, plus
    random points near it."""
    pts = []
    for m in members:
        lo, hi = m.support_box
        for face in (lo, hi):
            for k in range(len(lo)):
                p = rng.uniform(lo, hi)
                p[k] = face[k]
                pts.append(p)
        pts.extend(rng.uniform(lo - 0.1, hi + 0.1, size=(per_member, len(lo))))
    return np.array(pts)


def _random_members(kind, d, rng, m):
    """m members of one kind with random centers and widths, so that their
    supports overlap."""
    if kind == "tent":
        return [TentMember(rng.uniform(0, 1, d), rng.uniform(0.05, 0.3),
                           rng.uniform(0.3, 1.0)) for _ in range(m)]
    if kind == "smooth":
        return [SmoothBumpMember(d, rng.uniform(0, 1, d), rng.uniform(0.05, 0.4))
                for _ in range(m)]
    lo = rng.uniform(0, 1, size=(m, d))
    return [IndicatorMember(a, a + rng.uniform(0.05, 0.5, d)) for a in lo]


def _assert_bitwise(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestSignedSumSlices:
    """SignedSum evaluates each member near its support only, and gives the
    member loop's values bit for bit."""

    @pytest.mark.parametrize("fam", [
        tent_family(cube(2), 1 / 12, 1 / 2),
        tent_family(cube(3), 1 / 24, 1),
        smooth_family(2, 1 / 16),
    ], ids=["tent-2d", "tent-3d", "smooth-2d"])
    def test_families(self, fam):
        rng = np.random.default_rng(1)
        h = fam.signed_sum([int(s) for s in rng.choice((1, -1), size=fam.n)])
        X = np.vstack([_face_points(h.members, rng),
                       rng.uniform(-1, 1, size=(500, fam.dimension))])
        _assert_bitwise(h(X), _member_loop(h, X))
        if fam.reference == "smooth":
            dh = h.derivative((1, 0))
            _assert_bitwise(dh(X), _member_loop(dh, X))

    @pytest.mark.parametrize("kind", ["tent", "smooth", "indicator"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_overlapping_supports(self, kind, d):
        rng = np.random.default_rng(10 * d + len(kind))
        members = _random_members(kind, d, rng, 12)
        h = SignedSum(members, [int(s) for s in rng.choice((1, -1), size=12)])
        X = np.vstack([_face_points(members, rng),
                       rng.uniform(-0.2, 1.5, size=(200, d))])
        _assert_bitwise(h(X), _member_loop(h, X))

    def test_cancelling_signs(self):
        # the same tent with opposite signs sums to an exact +0.0
        t = TentMember(np.array([0.5]), 0.25, 1.0)
        h = SignedSum([t, t], [-1, 1])
        X = np.linspace(0, 1, 41).reshape(-1, 1)
        _assert_bitwise(h(X), _member_loop(h, X))
        assert not np.signbit(h(X)).any()

    def test_empty_points(self):
        fam = tent_family(cube(2), 1 / 12, 1 / 2)
        h = fam.all_plus()
        X = np.empty((0, 2))
        _assert_bitwise(h(X), _member_loop(h, X))
        assert h(X).shape == (0,)

    def test_unsorted_points_keep_their_order(self):
        members = _random_members("tent", 2, np.random.default_rng(4), 6)
        h = SignedSum(members, [1, -1, 1, -1, 1, -1])
        X = np.random.default_rng(5).uniform(0, 1, size=(300, 2))
        X[::7, 0] = 0.5  # ties in x0
        _assert_bitwise(h(X), _member_loop(h, X))


class _Counting:
    """A member that counts the points it is evaluated at."""

    def __init__(self, member):
        self.member, self.points = member, 0

    @property
    def support_box(self):
        return self.member.support_box

    def __call__(self, X):
        self.points += len(X)
        return self.member(X)


def _sign_patterns(n, rng, k=6):
    return [[1] * n, [-1] * n] + [
        [int(s) for s in rng.choice((1, -1), size=n)] for _ in range(k)]


class TestMemberMatrix:
    """with_signs runs every sign pattern as one mat-vec over the
    member-value matrix of its point set; the oracle is the naive sum of
    every member at every point, compared with == and np.signbit."""

    @pytest.mark.parametrize("kind", ["tent", "smooth", "smooth-derivative",
                                      "indicator"])
    def test_with_signs_matches_the_naive_sum(self, kind):
        rng = np.random.default_rng(len(kind))
        members = _random_members(kind.split("-")[0], 2, rng, 12)
        if kind == "smooth-derivative":
            members = [m.derivative((1, 1)) for m in members]
        X = np.vstack([_face_points(members, rng),
                       rng.uniform(-0.2, 1.5, size=(200, 2))])
        h = SignedSum(members, [1] * 12)
        for signs in _sign_patterns(12, rng):
            g = h.with_signs(signs)
            _assert_bitwise(g(X), _member_loop(g, X))
        assert h.signs == [1] * 12

    def test_overlapping_members(self):
        t = TentMember(np.array([0.5]), 0.25, 1.0)
        h = SignedSum([t, t], [-1, 1])
        X = np.linspace(0, 1, 41).reshape(-1, 1)
        h(X)
        for signs in ([1, 1], [1, -1], [-1, 1], [-1, -1]):
            g = h.with_signs(signs)
            _assert_bitwise(g(X), _member_loop(g, X))

    def test_members_are_evaluated_once_per_point_set(self):
        rng = np.random.default_rng(3)
        members = [_Counting(m) for m in _random_members("tent", 2, rng, 8)]
        h = SignedSum(members, [1] * 8)
        sums = [h.with_signs(signs) for signs in _sign_patterns(8, rng)]
        X = rng.uniform(0, 1, size=(300, 2))
        sums[0](X)
        evaluated = sum(m.points for m in members)
        assert evaluated > 0
        for g in sums[1:] + [h]:
            g(X.copy())  # equal points in another array
        assert sum(m.points for m in members) == evaluated

    def test_never_reuses_a_matrix_on_other_points(self):
        rng = np.random.default_rng(4)
        members = [_Counting(m) for m in _random_members("tent", 2, rng, 8)]
        h = SignedSum(members, [1] * 8)
        g = h.with_signs([1, -1] * 4)
        X = rng.uniform(0, 1, size=(300, 2))
        h(X)
        # the caller's array changed in place: a point moves onto a center
        X[7] = members[2].member.center
        _assert_bitwise(g(X), _member_loop(g, X))
        # the same points in another order, and one coordinate one ulp off
        Y = X[::-1]
        _assert_bitwise(g(Y), _member_loop(g, Y))
        Z = X.copy()
        Z[7, 1] = np.nextafter(Z[7, 1], 2.0)
        _assert_bitwise(g(Z), _member_loop(g, Z))
        # a point set of another shape, then the first one again
        _assert_bitwise(g(X[:50]), _member_loop(g, X[:50]))
        _assert_bitwise(h(X), _member_loop(h, X))

    def test_with_signs_checks_its_signs(self):
        h = tent_family(cube(2), 1 / 12, 1 / 2).all_plus()
        with pytest.raises(ValueError, match="one sign per member"):
            h.with_signs([1])
        with pytest.raises(ValueError, match="signs must be"):
            h.with_signs([0] * len(h.members))


class TestFamilySeparation:
    def test_too_close_tent_pair(self):
        # |0.15 - 0.1|^(1/2) = 0.22 < 3 * 0.1
        with pytest.raises(ValueError, match="closer than 3"):
            BumpFamily("hoelder-tent", 0.1, np.array([[0.1], [0.15]]), cube(1),
                       tent_alpha=0.5)
        BumpFamily("hoelder-tent", 0.1, np.array([[0.1], [0.2]]), cube(1),
                   tent_alpha=0.5)

    def test_one_too_close_smooth_pair_among_many(self):
        centers = greedy_packing(ball(2), 3 * 0.0625).centers_array()
        BumpFamily("smooth", 0.0625, centers, ball(2))
        moved = np.vstack([centers, centers[-1] + [0.1, 0.0]])
        with pytest.raises(ValueError, match="closer than 3"):
            BumpFamily("smooth", 0.0625, moved, ball(2))

    def test_coincident_centers(self):
        with pytest.raises(ValueError, match="closer than 3"):
            BumpFamily("smooth", 0.25, np.array([[0.0], [1.0], [0.0]]), ball(1, 2))

    def test_greedy_packings_are_accepted(self):
        # both build a BumpFamily from a greedy packing
        assert tent_family(cube(3), 1 / 24, 1).n == 704
        assert smooth_family(2, 1 / 16).n > 1

    def test_fewer_than_two_centers(self):
        BumpFamily("smooth", 0.25, np.array([[0.3]]), ball(1))
        BumpFamily("smooth", 0.25, np.empty((0, 1)), ball(1))
