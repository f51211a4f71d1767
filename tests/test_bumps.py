"""Bump constructions: reference bump, exact derivatives, families, tents."""

import itertools
import math

import numpy as np
import pytest

from rkhs_sandwich import (BumpFamily, SignedSum, SmoothBump, TentMember,
                           ball, cube, smooth_family, tent_family)
from rkhs_sandwich import greedy_packing
from rkhs_sandwich.bumps import (IndicatorMember, SmoothBumpMember,
                                 reference_bump)


def _indicator_partition(dimension, cells_per_axis):
    """The unit cube cut into cells_per_axis^d congruent cells."""
    h = 1.0 / cells_per_axis
    return [IndicatorMember(np.array(idx) * h, np.array(idx) * h + h)
            for idx in itertools.product(range(cells_per_axis), repeat=dimension)]


class TestReferenceBump:
    def test_normalized_at_origin(self):
        assert reference_bump(1)(np.array([[0.0]]))[0] == 1.0
        assert reference_bump(2)(np.array([[0.0, 0.0]]))[0] == 1.0

    def test_vanishes_outside(self):
        assert reference_bump(1)(np.array([[1.0], [2.0]])).tolist() == [0.0, 0.0]
        assert reference_bump(2)(np.array([[0.8, 0.8]]))[0] == 0.0

    def test_zeroth_derivative_is_the_bump(self):
        xs = np.array([[0.0], [0.3], [0.7]])
        bump = reference_bump(1)
        assert np.array_equal(bump.derivative_values((0,), xs), bump(xs))

    def test_odd_derivative_vanishes_at_origin(self):
        assert reference_bump(1).derivative_values((1,), np.zeros((1, 1)))[0] == 0.0
        assert reference_bump(2).derivative_values((1, 0), np.zeros((1, 2)))[0] == 0.0

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
        bump = reference_bump(1)
        exact = bump.derivative_values((1,), np.array([[0.5]]))[0]
        x = np.array([0.5])
        approx = _richardson(lambda y: bump(y.reshape(1, 1))[0], x, 0, 1e-4)
        assert abs(exact - approx) / abs(exact) < 1e-6


class TestMembersAndFamilies:
    def test_member_is_translated_scaled_bump(self):
        m = SmoothBumpMember(1, np.array([0.5]), 0.25)
        assert m(np.array([[0.5]]))[0] == 1.0
        assert m(np.array([[0.8]]))[0] == 0.0
        inner = reference_bump(1)(np.array([[0.4]]))[0]
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
        members = _indicator_partition(2, 3)
        assert len(members) == 9
        pts = np.random.default_rng(0).uniform(0, 1, size=(50, 2))
        total = sum(m(pts) for m in members)
        assert np.all(total == 1.0)

    def test_signed_indicator_sum_has_unit_modulus(self):
        members = _indicator_partition(1, 4)
        h = SignedSum(members, [1, -1, -1, 1])
        pts = np.linspace(0.01, 0.99, 17).reshape(-1, 1)
        assert np.all(np.abs(h(pts)) == 1.0)


class TestScalingIdentity:
    def test_derivative_of_member_scales(self):
        # d/dx of f((x-c)/delta) carries the 1/delta factor
        m = SmoothBumpMember(1, np.array([0.0]), 0.5)
        dm = m.derivative((1,))
        x = np.array([[0.2]])
        expected = reference_bump(1).derivative_values((1,), np.array([[0.4]]))[0] / 0.5
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
        h = fam.signed_sum([1] * fam.n)
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
    """A member that counts the points SignedSum evaluates it at."""

    def __init__(self, member):
        self.member, self.points = member, 0

    @property
    def support_box(self):
        return self.member.support_box

    @property
    def _batch(self):
        return (_Counting, id(self)), ()

    def _values(self, X):
        self.points += len(X)
        return self.member(X)

    def __call__(self, X):
        return self.member(X)


def _sign_patterns(n, rng, k=6):
    return [[1] * n, [-1] * n] + [
        [int(s) for s in rng.choice((1, -1), size=n)] for _ in range(k)]


def _assert_columns(got, members, S, X):
    """Column j of got is SignedSum(members, S[:, j])(X) and the naive sum
    of that pattern, bit for bit."""
    assert got.shape == (len(X), S.shape[1])
    for j in range(S.shape[1]):
        g = SignedSum(members, S[:, j])
        _assert_bitwise(got[:, j], g(X))
        _assert_bitwise(got[:, j], _member_loop(g, X))


class TestMemberMatrix:
    """A call with an n x k sign matrix gives the sums of its k column
    patterns from one evaluation of the members; the oracles are the
    one-pattern sum and the naive sum of every member at every point,
    compared with == and np.signbit."""

    @pytest.mark.parametrize("kind", ["tent", "smooth", "smooth-derivative",
                                      "indicator"])
    def test_with_signs_matches_the_naive_sum(self, kind):
        for d in (1, 2, 3):
            rng = np.random.default_rng(10 * d + len(kind))
            members = _random_members(kind.split("-")[0], d, rng, 12)
            if kind == "smooth-derivative":
                members = [m.derivative((1,) * d) for m in members]
            X = np.vstack([_face_points(members, rng),
                           rng.uniform(-0.2, 1.5, size=(200, d))])
            S = np.array(_sign_patterns(12, rng)).T
            h = SignedSum(members, [1] * 12)
            _assert_columns(h(X, signs=S), members, S, X)
            _assert_bitwise(h(X, signs=S)[:, 0], h(X))  # S[:, 0] is all +1
            _assert_columns(h(X, signs=S[:, 2:3]), members, S[:, 2:3], X)
            _assert_columns(h(X[:0], signs=S), members, S, X[:0])

    def test_overlapping_members(self):
        # the same tent twice: opposite signs cancel to an exact +0.0
        t = TentMember(np.array([0.5]), 0.25, 1.0)
        h = SignedSum([t, t], [-1, 1])
        X = np.linspace(0, 1, 41).reshape(-1, 1)
        S = np.array([[1, 1, -1, -1], [1, -1, 1, -1]])
        got = h(X, signs=S)
        _assert_columns(got, [t, t], S, X)
        assert not np.signbit(got[:, 1:3]).any()

    def test_members_are_evaluated_once_per_call(self):
        rng = np.random.default_rng(3)
        members = [_Counting(m) for m in _random_members("tent", 2, rng, 8)]
        h = SignedSum(members, [1] * 8)
        X = rng.uniform(0, 1, size=(300, 2))
        h(X)
        once = sum(m.points for m in members)
        assert once > 0
        h(X, signs=np.array(_sign_patterns(8, rng)).T)
        assert sum(m.points for m in members) == 2 * once

    def test_with_signs_checks_its_signs(self):
        fam = tent_family(cube(2), 1 / 12, 1 / 2)
        h = fam.signed_sum([1] * fam.n)
        n, X = fam.n, fam.centers
        for bad, message in (
                (np.ones((n - 1, 3)), "one row of signs per member"),
                (np.ones(n), "one row of signs per member"),
                (np.ones((n, 2, 1)), "one row of signs per member"),
                (np.zeros((n, 2)), "signs must be"),
                (np.full((n, 2), 0.5), "signs must be"),
                (np.full((n, 1), np.nan), "signs must be"),
                ([["+", "-"]] * n, "signs must be"),
                ([[None, 1]] * n, "signs must be")):
            with pytest.raises(ValueError, match=message):
                h(X, signs=bad)
        for bad, message in (([1], "one sign per member"),
                             ([[1]] * n, "one sign per member"),
                             ([0] * n, "signs must be"),
                             (["1"] * n, "signs must be")):
            with pytest.raises(ValueError, match=message):
                fam.signed_sum(bad)


class TestCellGrid:
    """SignedSum finds each member's points on a uniform cell grid; the
    oracle is the naive sum of every member at every point, compared with
    == and np.signbit."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_points_far_outside_every_box(self, d):
        rng = np.random.default_rng(20 + d)
        members = _random_members("tent", d, rng, 6) + \
            _random_members("smooth", d, rng, 6)
        h = SignedSum(members, [int(s) for s in rng.choice((1, -1), size=12)])
        far = np.array([1e150, -1e150, np.inf, -np.inf, 40.0, -7.5])
        X = np.vstack([rng.uniform(0, 1, size=(100, d)),
                       np.repeat(far[:, None], d, axis=1),
                       np.where(np.eye(d, dtype=bool), 1e150, 0.5)])
        _assert_bitwise(h(X), _member_loop(h, X))
        assert not h(X[100:]).any()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_mixed_member_kinds(self, d):
        # tents and smooth bumps of one family each (one _values call per
        # family), lone tents, smooth derivatives, indicators and counting
        # members, interleaved
        rng = np.random.default_rng(30 + d)
        dom = cube(d)
        tents = tent_family(dom, 1 / 12, 1 / 2).members[:10]
        smooth = smooth_family(d, 1 / 8).members[:6]
        mixed = _random_members("tent", d, rng, 4) + \
            [m.derivative((1,) + (0,) * (d - 1)) for m in smooth[:3]] + \
            _random_members("indicator", d, rng, 4) + \
            [_Counting(m) for m in _random_members("smooth", d, rng, 3)]
        members = list(itertools.chain.from_iterable(
            itertools.zip_longest(tents, smooth, mixed)))
        members = [m for m in members if m is not None]
        h = SignedSum(members, [1] * len(members))
        X = np.vstack([_face_points(members, rng, per_member=2),
                       rng.uniform(-1.2, 1.2, size=(300, d))])
        S = np.array(_sign_patterns(len(members), rng, k=3)).T
        _assert_columns(h(X, signs=S), members, S, X)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_counting_members_see_only_nearby_points(self, d):
        # a member is called on the points of the cells its box touches:
        # within one widest box side of the box on each of the first 3 axes
        rng = np.random.default_rng(40 + d)
        inner = _random_members("tent", d, rng, 10)
        members = [_Counting(m) for m in inner]
        h = SignedSum(members, [int(s) for s in rng.choice((1, -1), size=10)])
        X = rng.uniform(-0.5, 1.5, size=(2000, d))
        _assert_bitwise(h(X), _member_loop(SignedSum(inner, h.signs), X))
        boxes = [m.support_box for m in inner]
        side = max(np.max(hi - lo) for lo, hi in boxes) * (1 + 1e-6)
        for m, (lo, hi) in zip(members, boxes):
            near = np.all((X > lo - side) & (X < hi + side), axis=1).sum()
            assert 0 < m.points <= near
        assert sum(m.points for m in members) < len(X) * len(members) / 2


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
