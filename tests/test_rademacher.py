"""Rademacher averages, sequence norms, and blow-up scans."""

import itertools
import math
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from rkhs_sandwich import (NormFunctional, QuadratureConfig, SignedSum, TentMember,
                           ball, cube,
                           decide, decide_bounded_target, hoelder_norm, holder,
                           lebesgue_lp, rademacher_norm, scan,
                           seq_l2_norm, sequence_lp, slobodeckij, smooth_family,
                           tent_family, whole_space, xr)
from rkhs_sandwich import norms, rademacher
from rkhs_sandwich.bumps import IndicatorMember
from rkhs_sandwich.rademacher import (DomainTooSmallError, ModeError,
                                      RademacherEstimate, ScanError, _tent_cloud,
                                      recipe_functionals)

FAST = QuadratureConfig(resolution=16, tolerance=1e-4)


def _indicator_partition(dimension, cells_per_axis):
    """The unit cube cut into cells_per_axis^d congruent cells: the
    partition whose closed form the indicator recipe scans."""
    h = 1.0 / cells_per_axis
    return [IndicatorMember(np.array(idx) * h, np.array(idx) * h + h)
            for idx in itertools.product(range(cells_per_axis), repeat=dimension)]


class _Recording:
    """The sup functional, recording the type of each function it measures."""

    def __init__(self):
        self.kinds = set()

    def __call__(self, fn, domain, config):
        self.kinds.add(type(fn).__name__)
        return NormFunctional("sup")(fn, domain, config)


class TestRademacherNorm:
    def test_single_member(self):
        fam = smooth_family(1, 0.25)
        fn = NormFunctional("lp-of-derivative", alpha=(0,), p=2.0)
        est = rademacher_norm(fam.members[:1], fn, fam.domain, config=FAST)
        assert est.patterns == 2
        assert est.value == pytest.approx(fn(fam.members[0], fam.domain, FAST))

    def test_indicator_partition_is_one(self):
        members = _indicator_partition(2, 2)
        fn = NormFunctional("lp-of-derivative", alpha=(0, 0), p=3.0)
        est = rademacher_norm(members, fn, cube(2), config=FAST)
        assert est.value == pytest.approx(1.0, rel=1e-6)

    def test_sign_independence_for_disjoint_supports(self):
        fam = smooth_family(1, 0.125)
        fn = NormFunctional("lp-of-derivative", alpha=(0,), p=2.0)
        est = rademacher_norm(fam, fn, fam.domain, config=FAST)
        single = fn(fam.signed_sum([1] * fam.n), fam.domain, FAST)
        assert est.value == pytest.approx(single, rel=1e-12)

    def test_exhaustive_mode_cap(self):
        members = _indicator_partition(1, 21)
        fn = NormFunctional("lp-of-derivative", alpha=(0,), p=2.0)
        for mode, message in (("exhaustive", "n <= 20"), ("bogus", "unknown mode")):
            with pytest.raises(ModeError, match=message):
                rademacher_norm(members, fn, cube(1), mode=mode, config=FAST)

    def test_monte_carlo_reproducible(self):
        fam = smooth_family(1, 0.125)
        fn = NormFunctional("sup")
        a = rademacher_norm(fam, fn, fam.domain, mode="monte-carlo",
                            config=FAST, seed=11)
        b = rademacher_norm(fam, fn, fam.domain, mode="monte-carlo",
                            config=FAST, seed=11)
        assert a.value == b.value and a.stderr == b.stderr
        assert a.mode == "monte-carlo"


class TestSharedMemberMatrix:
    """rademacher_norm evaluates a chunk of patterns in one SignedSum call
    on their sign matrix; a fresh SignedSum per pattern is the oracle."""

    @staticmethod
    def _fresh_average(members, fn, dom, config, seed):
        rng = np.random.default_rng(seed)
        vals = [fn(SignedSum(members, [int(s) for s in
                                       rng.choice((1, -1), size=len(members))]),
                   dom, config) for _ in range(config.mc_samples)]
        return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(len(vals)))

    @pytest.mark.parametrize("seed", [7, 11])
    def test_point_cloud_functionals(self, seed):
        config = QuadratureConfig(mc_samples=8)
        dom = cube(2)
        fam = tent_family(dom, Fraction(1, 12), Fraction(1, 2))
        cloud = _tent_cloud(fam.centers, 1 / 12, 0.5, dom)
        # overlapping tents, whose average depends on the signs
        rng = np.random.default_rng(seed)
        tents = [TentMember(c, w, a) for c, w, a in zip(
            rng.uniform(0, 1, size=(10, 2)), rng.uniform(0.1, 0.3, 10),
            rng.uniform(0.4, 1.0, 10))]
        points = np.vstack([rng.uniform(0, 1, size=(400, 2))] +
                           [t.center[None, :] for t in tents])
        cases = [
            (fam.members, NormFunctional("hoelder", holder_exponent=0.5, points=cloud)),
            (fam.members, NormFunctional("sup", points=cloud)),
            (tents, NormFunctional("hoelder", holder_exponent=0.7, points=points)),
            (tents, NormFunctional("sup", points=points)),
            (tents, NormFunctional("sup")),  # the default cloud of each pattern
        ]
        for members, fn in cases:
            est = rademacher_norm(members, fn, dom, "monte-carlo", config, seed=seed)
            assert (est.value, est.stderr) == \
                self._fresh_average(members, fn, dom, config, seed), fn.kind

    def test_exhaustive_mode_matches_the_per_pattern_loop(self, monkeypatch):
        # n = 12: 4096 patterns, in chunks of 100 patterns per functional
        # call; the oracle measures each pattern's naive sum, every member at
        # every point added in member order from 0, on its own
        rng = np.random.default_rng(12)
        tents = [TentMember(c, w, a) for c, w, a in zip(
            rng.uniform(0, 1, size=(12, 2)), rng.uniform(0.1, 0.3, 12),
            rng.uniform(0.4, 1.0, 12))]
        points = np.vstack([rng.uniform(0, 1, size=(18, 2))] +
                           [t.center[None, :] for t in tents])
        monkeypatch.setattr(rademacher, "_CLOUD_VALUES", 100 * len(points))
        def naive(signs):
            return lambda X: sum(s * t(X) for s, t in zip(signs, tents))
        for fn in (NormFunctional("hoelder", holder_exponent=0.7, points=points),
                   NormFunctional("sup", points=points)):
            loop = [fn(naive(signs), cube(2), FAST)
                    for signs in itertools.product((1, -1), repeat=12)]
            assert rademacher_norm(tents, fn, cube(2), config=FAST) == \
                RademacherEstimate(float(np.mean(loop)), None, "exhaustive", 4096), \
                fn.kind

    def test_one_hoelder_pass_per_average(self, monkeypatch):
        # one SignedSum call evaluates the members once for all the drawn
        # patterns, and one hoelder_norm call measures them all
        fam = tent_family(cube(2), Fraction(1, 12), Fraction(1, 2))
        cloud = _tent_cloud(fam.centers, 1 / 12, 0.5, cube(2))
        calls, evaluated, matrices = [], [], []
        hoelder = norms.hoelder_norm
        monkeypatch.setattr(norms, "hoelder_norm", lambda fn, alpha, pts: calls.append(
            len(pts)) or hoelder(fn, alpha, pts))

        def call(self, X, signs=None, call=SignedSum.__call__):
            out = call(self, X, signs)
            evaluated.append((np.shape(signs), out.shape))
            return out
        monkeypatch.setattr(SignedSum, "__call__", call)
        matrix = SignedSum._matrix
        monkeypatch.setattr(SignedSum, "_matrix", lambda self, X: matrices.append(
            len(X)) or matrix(self, X))
        fn = NormFunctional("hoelder", holder_exponent=0.5, points=cloud)
        est = rademacher_norm(fam, fn, cube(2), "monte-carlo",
                              QuadratureConfig(mc_samples=8), seed=3)
        assert est.patterns == 8 and est.value == 1.0
        assert calls == [len(cloud)]
        assert evaluated == [((fam.n, 8), (len(cloud), 8))]
        assert matrices == [len(cloud)]


class TestTentCloud:
    @staticmethod
    def _x0_rule(centers, r):
        """The cube rule: step along +x0, or along -x0 near the far face."""
        witness = centers.copy()
        witness[:, 0] += np.where(witness[:, 0] + r < 1.0, r, -r)
        return np.vstack([centers, witness])

    @pytest.mark.parametrize("dom,delta,alpha", [
        (cube(3), Fraction(1, 16), Fraction(1)),
        (cube(2), Fraction(1, 4), Fraction(1, 2)),
        (cube(1), Fraction(1, 8), Fraction(1, 3)),
    ])
    def test_cube_cloud_steps_along_x0(self, dom, delta, alpha):
        fam = tent_family(dom, delta / 3, alpha)
        width, a = float(delta) / 3, float(alpha)
        want = self._x0_rule(fam.centers, width ** (1 / a))
        assert np.array_equal(_tent_cloud(fam.centers, width, a, dom), want)
        assert np.array_equal(_tent_cloud(fam.centers, width, a), want)

    def test_witness_takes_the_first_axis_step_that_stays_inside(self):
        # (+-0.2, 0.99) and (0, 1.19) leave the unit disk, (0, 0.79) does not
        cloud = _tent_cloud(np.array([[0.0, 0.99]]), 0.2, 1.0, ball(2))
        assert np.array_equal(cloud[1], [0.0, 0.99 - 0.2])
        with pytest.raises(DomainTooSmallError, match="inside the domain"):
            _tent_cloud(np.array([[0.0]]), 0.2, 1.0, ball(1, Fraction(1, 10)))

    def test_ball_witnesses_stay_in_the_ball(self):
        dom = ball(2)
        fam = tent_family(dom, Fraction(1, 24), Fraction(1, 2))
        assert fam.n == 12299
        r = (1 / 24) ** 2
        cloud = _tent_cloud(fam.centers, 1 / 24, 0.5, dom)
        witness = cloud[fam.n:]
        assert np.array_equal(cloud[:fam.n], fam.centers)
        assert (np.einsum("ij,ij->i", witness, witness) < 1.0).all()
        # the x0 rule of the cube leaves witnesses outside the disk
        old = self._x0_rule(fam.centers, r)[fam.n:]
        assert (np.einsum("ij,ij->i", old, old) >= 1.0).sum() == 18
        # each witness is its center stepped by r along one axis
        step = witness - fam.centers
        assert ((step != 0.0).sum(axis=1) == 1).all()
        assert np.allclose(np.abs(step).sum(axis=1), r, rtol=1e-9, atol=0)


class TestTentSequenceSide:
    """Each tent's sequence-side norm on its own center and witness, in one
    closed-form pass, against the per-member functional calls."""

    FUNCTIONALS = [NormFunctional("sup")] + [
        NormFunctional("hoelder", holder_exponent=b) for b in (1 / 4, 1 / 3, 1 / 2, 1.0)]

    @pytest.mark.parametrize("dom,delta,alpha,off_axis", [
        (cube(1), Fraction(1, 8), Fraction(1, 3), 0),
        (cube(2), Fraction(1, 4), Fraction(1, 2), 0),
        (cube(3), Fraction(1, 8), Fraction(1), 0),
        (ball(2), Fraction(1, 8), Fraction(1), 1),
        (ball(2), Fraction(1, 2), Fraction(1, 3), 1),
        (ball(3), Fraction(1, 4), Fraction(1), 0),
    ])
    def test_matches_the_per_member_calls(self, monkeypatch, dom, delta, alpha,
                                          off_axis):
        fam = tent_family(dom, delta / 3, alpha)
        n, members = fam.n, fam.members
        cloud = _tent_cloud(fam.centers, float(delta) / 3, float(alpha), dom)
        # witnesses that step along another axis than x0, and (in the balls)
        # witnesses that step along -x0
        assert ((cloud[n:] - cloud[:n])[:, 0] == 0.0).sum() == off_axis
        recipe = SimpleNamespace(params={"alpha": xr(alpha)})
        # the averaged side is tested elsewhere; here it only has to return
        monkeypatch.setattr(rademacher, "rademacher_norm",
                            lambda *args, **kwargs: RademacherEstimate(1.0, None, "", 0))
        for fun in self.FUNCTIONALS:
            want = [replace(fun, points=cloud[[i, n + i]])(m, dom, FAST)
                    for i, m in enumerate(members)]
            got = rademacher._two_point_norms(fun, members[0], cloud[:n], cloud[n:])
            assert got.tolist() == want, fun
            assert rademacher._tents_at(recipe, delta, fun, fun, dom, None, FAST) == \
                (n, 1.0, rademacher._root_sum_of_squares(want)), fun

    def test_coincident_points_give_the_sup(self):
        # a witness on its center: no quotient, as in hoelder_norm
        tent = TentMember(np.zeros(2), 0.25, 0.5)
        centers = np.array([[0.0, 0.0], [0.5, 0.5]])
        for fun in self.FUNCTIONALS:
            assert rademacher._two_point_norms(fun, tent, centers, centers).tolist() == \
                [replace(fun, points=np.vstack([c, c]))(TentMember(c, 0.25, 0.5),
                                                         cube(2), FAST)
                 for c in centers]

    @pytest.mark.parametrize("seq_fun", [
        NormFunctional("lp-of-derivative", alpha=(0,), p=2.0),
        NormFunctional("slobodeckij", theta=0.5, p=2.0),
        NormFunctional("hoelder", holder_exponent=0.0),
        NormFunctional("hoelder", holder_exponent=1.5),
        _Recording(),
    ])
    def test_other_sequence_functionals_are_refused(self, seq_fun):
        dom = cube(1)
        recipe = decide_bounded_target(holder(Fraction(1, 4), dom), "sup").obstruction
        with pytest.raises(ScanError, match="sequence side"):
            scan(recipe, NormFunctional("hoelder", holder_exponent=0.25), seq_fun,
                 [Fraction(1, 4), Fraction(1, 8)], domain=dom, seed=0, config=FAST)


class TestSeqL2Norm:
    def test_indicator_partition_formula(self):
        # m cells of volume n_grid^-d in Lq: sqrt(m) vol^(1/q) = n_grid^(d(1/2-1/q))
        members = _indicator_partition(2, 2)
        fn = NormFunctional("lp-of-derivative", alpha=(0, 0), p=4.0)
        val = seq_l2_norm(members, fn, cube(2), config=FAST)
        assert val == pytest.approx(2.0 ** (2 * (0.5 - 0.25)), rel=1e-6)

    def test_identical_translates(self):
        fam = smooth_family(1, 0.125)
        fn = NormFunctional("lp-of-derivative", alpha=(0,), p=2.0)
        val = seq_l2_norm(fam, fn, fam.domain, config=FAST)
        single = fn(fam.members[0], fam.domain, FAST)
        assert val == pytest.approx(math.sqrt(fam.n) * single, rel=1e-9)


class TestScan:
    def test_unit_vector_scan_exact_slope(self):
        recipe = decide(sequence_lp(3), sequence_lp(4)).obstruction
        series = scan(recipe, None, None,
                      [Fraction(1, 4), Fraction(1, 16), Fraction(1, 64)])
        assert [n for _, n, _ in series.points] == [4, 16, 64]
        # the cotype ratio is exactly n^(1/2 - 1/3)
        for _, n, ratio in series.points:
            assert ratio == pytest.approx(n ** (1 / 6), rel=1e-12)
        assert series.fitted_slope == pytest.approx(1 / 6, abs=1e-9)
        assert series.log_axis == "n"

    def test_indicator_scan_matches_prediction(self):
        dom = cube(2)
        recipe = decide(lebesgue_lp(4, dom), lebesgue_lp(3, dom)).obstruction
        series = scan(recipe, None, None,
                      [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)])
        assert series.fitted_slope == \
            pytest.approx(float(recipe.predicted_exponent), abs=1e-9)

    def test_csv_format(self):
        recipe = decide(sequence_lp(3), sequence_lp(4)).obstruction
        series = scan(recipe, None, None, [Fraction(1, 4), Fraction(1, 16)])
        lines = series.to_csv().strip().split("\n")
        assert lines[0] == "delta,n,ratio,mode"
        assert len(lines) == 3
        assert lines[1].endswith(",cotype2")

    def test_zero_exponent_rejected(self):
        fake = SimpleNamespace(predicted_exponent=0, construction="lp-unit-vectors",
                               mode="type2", params={"p": 2, "q": 2})
        with pytest.raises(ScanError):
            scan(fake, None, None, [Fraction(1, 4), Fraction(1, 8)])

    def test_delta_validation(self):
        recipe = decide(sequence_lp(3), sequence_lp(4)).obstruction
        with pytest.raises(ScanError):
            scan(recipe, None, None, [Fraction(1, 4)])
        with pytest.raises(ScanError):
            scan(recipe, None, None, [Fraction(3, 4), Fraction(1, 4)])
        with pytest.raises(ScanError):
            scan(recipe, None, None, [Fraction(1, 8), Fraction(1, 4)])

    def test_smooth_bump_scan_runs(self):
        # recorded points: one seeded sign stream runs through every delta,
        # so any drift shows here.  The type2 case is a p1 = 1 source on the
        # square; the cotype2 case marches fixed-size bumps off to infinity
        # in the plane.
        square, plane = cube(2), whole_space(2)
        cases = [
            (decide(slobodeckij(Fraction(3, 2), 1, square),
                    slobodeckij(1, 2, square)).obstruction, square,
             [Fraction(1, 4), Fraction(1, 8)],
             ((0.25, 2, 0.7071067811865475), (0.125, 7, 0.3779644730092272))),
            (decide_bounded_target(slobodeckij(2, 2, plane), "sup").obstruction,
             plane, [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)],
             ((0.25, 4, 2.0), (0.125, 8, 2.8284271247461903), (0.0625, 16, 4.0))),
        ]
        fn = NormFunctional("sup")
        for recipe, dom, deltas, expected in cases:
            series = scan(recipe, fn, fn, deltas, domain=dom, seed=3,
                          config=QuadratureConfig(resolution=16, tolerance=1e-4,
                                                  mc_samples=4))
            assert series.points == expected, recipe.mode

    def test_each_side_sees_one_kind_of_function(self):
        # type-2 averages F over signed sums and takes E's sequence norm on
        # bare members; cotype-2 does the reverse
        square, plane = cube(2), whole_space(2)
        cases = [
            (decide(slobodeckij(Fraction(3, 2), 1, square),
                    slobodeckij(1, 2, square)).obstruction, square,
             ({"SmoothBumpMember"}, {"SignedSum"})),
            (decide_bounded_target(slobodeckij(2, 2, plane), "sup").obstruction,
             plane, ({"SignedSum"}, {"SmoothBumpMember"})),
        ]
        for recipe, dom, expected in cases:
            E, F = _Recording(), _Recording()
            scan(recipe, E, F, [Fraction(1, 4), Fraction(1, 8)], domain=dom,
                 seed=3, config=QuadratureConfig(resolution=16, tolerance=1e-4,
                                                 mc_samples=4))
            assert (E.kinds, F.kinds) == expected, recipe.mode

    def test_tent_scan_points(self):
        # recorded points: the tent family is packed from the domain at each
        # delta and its signs come from one seeded stream, so any drift in
        # the packing, the witness cloud or the sign stream shows here
        cases = [
            (Fraction(1, 2), cube(2), [Fraction(1, 2), Fraction(1, 4)],
             ((0.5, 16, 0.6666666666666667), (0.25, 256, 1.3333333333333315))),
            (Fraction(1, 3), cube(1), [Fraction(1, 4), Fraction(1, 8)],
             ((0.25, 64, 0.6666666666666662), (0.125, 512, 0.9428090415820684))),
        ]
        for alpha, dom, deltas, expected in cases:
            recipe = decide_bounded_target(holder(alpha, dom), "sup").obstruction
            series = scan(recipe, NormFunctional("hoelder", holder_exponent=float(alpha)),
                          NormFunctional("sup"), deltas, domain=dom, seed=5,
                          config=QuadratureConfig(resolution=16, tolerance=1e-4,
                                                  mc_samples=8))
            assert series.points == expected, alpha
            assert series.log_axis == "1/delta"

    def test_hoelder_target_tent_scan_points(self):
        # recorded points of two scans whose sequence side is a Hoelder norm
        # of exponent beta, as recipe_functionals measures them
        deltas = [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)]
        cases = [
            (Fraction(1, 2), Fraction(1, 4), cube(1),
             ((0.25, 16, 1.1547005383792508), (0.125, 64, 1.6329931618554456),
              (0.0625, 256, 2.3094010767584883))),
            (Fraction(1), Fraction(1, 2), cube(2),
             ((0.25, 16, 1.154700538379251), (0.125, 64, 1.6329931618554507),
              (0.0625, 256, 2.309401076758501))),
        ]
        for alpha, beta, dom, expected in cases:
            recipe = decide(holder(alpha, dom), holder(beta, dom)).obstruction
            E, F = recipe_functionals(recipe)
            assert F == NormFunctional("hoelder", holder_exponent=float(beta))
            series = scan(recipe, E, F, deltas, domain=dom, seed=5,
                          config=QuadratureConfig(resolution=16, tolerance=1e-4,
                                                  mc_samples=8))
            assert series.points == expected, (alpha, beta)

    def test_tent_hoelder_norm_is_sign_independent(self):
        # on the 3-D tent clouds every sign pattern's Hoelder value is the
        # center-witness quotient 1, so each cotype ratio is sqrt(n) delta/3:
        # the F side sums n tents of height delta/3 over the E-side average 1
        dom, deltas = cube(3), [Fraction(1, 4), Fraction(1, 8)]
        recipe = decide_bounded_target(holder(1, dom), "sup").obstruction
        rng = np.random.default_rng(2)
        for dl in deltas:
            fam = tent_family(dom, dl / 3, 1)
            cloud = _tent_cloud(fam.centers, float(dl) / 3, 1.0)
            for _ in range(6):
                signs = [int(e) for e in rng.choice((1, -1), size=fam.n)]
                assert hoelder_norm(SignedSum(fam.members, signs), 1.0, cloud) == 1.0
        series = scan(recipe, NormFunctional("hoelder", holder_exponent=1.0),
                      NormFunctional("sup"), deltas, domain=dom, seed=7,
                      config=QuadratureConfig(mc_samples=8, tolerance=1e-4))
        assert [n for _, n, _ in series.points] == [80, 704]
        for dl, n, ratio in series.points:
            assert ratio == pytest.approx(math.sqrt(n) * dl / 3, rel=0, abs=1e-12)

    def test_sequence_sums_add_left_to_right(self, monkeypatch):
        # sum() of floats is compensated from Python 3.12 on; math.fsum in
        # its place must move neither acceptance test 06's tent ratios nor a
        # sequence norm whose small squares a left-to-right sum drops
        monkeypatch.setattr(rademacher, "sum", math.fsum, raising=False)
        dom = cube(3)
        recipe = decide_bounded_target(holder(1, dom), "sup").obstruction
        series = scan(recipe, NormFunctional("hoelder", holder_exponent=1.0),
                      NormFunctional("sup"),
                      [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)], domain=dom,
                      seed=7, config=QuadratureConfig(mc_samples=8, tolerance=1e-4))
        assert [repr(r) for _, _, r in series.points] == \
            ["0.7453559924999292", "1.1055415967851419", "1.5275252316518555"]
        norms_of = [1.0] + [1.05e-8] * 10
        assert seq_l2_norm(norms_of, lambda v, dom, cfg: v, dom) == 1.0

    def test_indicator_scan_points(self):
        # recorded points for a type-2 scan on the line and a cotype-2 scan
        # on the square; n counts the n_grid^d cells of the partition
        line, square = cube(1), cube(2)
        cases = [
            (decide(lebesgue_lp(Fraction(3, 2), line), lebesgue_lp(1, line)),
             ((0.5, 2, 1.1224620483093728), (0.25, 4, 1.259921049894873),
              (0.125, 8, 1.414213562373095))),
            (decide(lebesgue_lp(4, square), lebesgue_lp(3, square)),
             ((0.5, 4, 1.2599210498948732), (0.25, 16, 1.5874010519681996),
              (0.125, 64, 2.0))),
        ]
        for verdict, expected in cases:
            series = scan(verdict.obstruction, None, None,
                          [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)])
            assert series.points == expected, verdict.obstruction.mode

    def test_domain_too_small(self):
        # a tent packing of a tiny ball holds a single center, and the
        # bounded smooth family fits a single bump at delta = 1/2
        tiny = ball(1, Fraction(1, 100))
        recipe = decide_bounded_target(holder(Fraction(1, 4), tiny), "sup").obstruction
        with pytest.raises(DomainTooSmallError, match="fewer than 2 centers"):
            scan(recipe, NormFunctional("hoelder", holder_exponent=0.25),
                 NormFunctional("sup"), [Fraction(1, 2), Fraction(1, 4)],
                 domain=tiny, seed=0)
        square = cube(2)
        recipe = decide(slobodeckij(Fraction(3, 2), 1, square),
                        slobodeckij(1, 2, square)).obstruction
        fn = NormFunctional("sup")
        with pytest.raises(DomainTooSmallError, match="fewer than 2 members"):
            scan(recipe, fn, fn, [Fraction(1, 2), Fraction(1, 4)], domain=square,
                 seed=0, config=FAST)
