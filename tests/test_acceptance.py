"""End-to-end acceptance suite.

Each test covers one headline guarantee of the package and prints a single
pass/fail line, so the whole gate can be read off the captured output:

    python3 -m pytest tests/test_acceptance.py -v -s
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from rkhs_sandwich import (INF, NormFunctional, QuadratureConfig, SeriesSpec,
                           TentMember, ball, besov,
                           brute_force_packing, check_applicability,
                           cosine_series, cube, decide, decide_bounded_target,
                           deficiency, exponent_fit, greedy_packing,
                           hoelder_norm, holder, lebesgue_lp, lp_norm, scan,
                           sequence_lp, slobodeckij, slobodeckij_seminorm,
                           smooth_family, split_series, triebel_lizorkin)
from rkhs_sandwich.bumps import SmoothBumpMember
from rkhs_sandwich.embeddings import chain_holds
from rkhs_sandwich.spaces import ValidationError

GRID = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3), INF]


def _report(label):
    """Print one pass/fail line per criterion, then re-raise on failure."""
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"[acceptance] {label}: {verdict}", flush=True)
            return False
    return _Ctx()


def test_01_sequence_lp_decision_table():
    with _report("01 sequence lp table"):
        for p, q in itertools.product(GRID, repeat=2):
            if p > q:
                continue
            v = decide(sequence_lp(p), sequence_lp(q))
            expected = "Feasible" if p <= 2 <= q else "Infeasible"
            assert v.status == expected, (p, q, v.status)
            if expected == "Feasible":
                labels = [s.label() for s in v.witness.links]
                assert "sequence-lp:2" in labels, (p, q, labels)
                assert chain_holds(list(v.witness.links))


def test_02_lebesgue_lp_decision_table():
    with _report("02 Lebesgue Lp table"):
        dom = cube(1)
        for p, q in itertools.product(GRID, repeat=2):
            if q > p:
                continue
            v = decide(lebesgue_lp(p, dom), lebesgue_lp(q, dom))
            expected = "Feasible" if q <= 2 <= p else "Infeasible"
            assert v.status == expected, (p, q, v.status)


def test_03_hoelder_cube_cases():
    with _report("03 Hoelder cube cases"):
        v = decide_bounded_target(holder(1, cube(1)), "sup")
        assert v.status == "Feasible"
        iv = v.witness.u_interval
        assert (iv.lo, iv.hi, iv.lo_open, iv.hi_open) == \
            (Fraction(1, 2), Fraction(1), True, True), str(iv)

        assert decide_bounded_target(holder(1, cube(3)), "sup").status == \
            "Infeasible"

        # pairs on an interval (packing exponent 1): the smoothness drop
        # against half the packing exponent decides
        dom = cube(1)
        assert decide(holder(1, dom), holder(Fraction(1, 4), dom)).status == \
            "Feasible"
        assert decide(holder(Fraction(1, 2), dom),
                      holder(Fraction(1, 8), dom)).status == "Infeasible"
        assert decide(holder(1, dom), holder(Fraction(1, 2), dom)).status == \
            "Borderline"
        # on a square no pair has gap above 1, half the packing exponent 2
        assert decide(holder(1, cube(2)),
                      holder(Fraction(1, 2), cube(2))).status == "Infeasible"


def test_04_exact_scaling_law():
    with _report("04 exact scaling law"):
        cfg = QuadratureConfig(tolerance=1e-4)
        for d in (1, 2):
            base_dom = ball(d)
            alphas = [(0,), (1,), (2,)] if d == 1 else \
                [(0, 0), (1, 0), (1, 1), (2, 0)]
            for delta in (Fraction(1, 2), Fraction(1, 4)):
                fam = smooth_family(d, delta)
                assert fam.n <= 6
                for alpha, p in itertools.product(alphas, (1, 2)):
                    base = lp_norm(
                        SmoothBumpMember(d, np.zeros(d), 1.0).derivative(alpha),
                        p, base_dom, cfg)
                    predicted = fam.n ** (1.0 / p) * \
                        float(delta) ** (d / p - sum(alpha)) * base
                    for signs in itertools.product([1, -1], repeat=fam.n):
                        h = fam.signed_sum(list(signs)).derivative(alpha)
                        got = lp_norm(h, p, fam.domain, cfg)
                        assert abs(got - predicted) <= 1e-4 * predicted, \
                            (d, delta, alpha, p, signs, got, predicted)


def test_05_tent_bump_hoelder_invariants():
    with _report("05 tent-bump Hoelder invariants"):
        alpha, beta, delta = 0.5, 0.25, 0.2
        axis = (np.arange(100) + 0.5) / 100.0
        gx, gy = np.meshgrid(axis, axis)
        cloud = np.column_stack([gx.ravel(), gy.ravel()])

        # random grid centers, 3*delta-separated in the alpha-power metric
        # (Euclidean separation 0.36), kept away from the right edge so the
        # witness point center + (delta^(1/alpha), 0) stays on the grid
        rng = np.random.default_rng(42)
        inner = cloud[(cloud[:, 0] > 0.1) & (cloud[:, 0] < 0.86)
                      & (cloud[:, 1] > 0.1) & (cloud[:, 1] < 0.9)]
        centers = []
        for i in rng.permutation(len(inner)):
            if all(np.linalg.norm(inner[i] - c) >= (3 * delta) ** (1 / alpha)
                   for c in centers):
                centers.append(inner[i])
            if len(centers) == 10:
                break
        n = len(centers)
        assert 2 <= n <= 10
        tents = [TentMember(c, delta, alpha) for c in centers]
        values = np.column_stack([t(cloud) for t in tents])

        for signs in itertools.product([1.0, -1.0], repeat=n):
            s = np.array(signs)
            val = hoelder_norm(lambda X, s=s: values @ s, alpha, cloud)
            assert val <= 1.0 + 1e-9, (signs, val)

        floor = delta ** ((alpha - beta) / alpha)
        for t, c in zip(tents, centers):
            witness = c + np.array([delta ** (1 / alpha), 0.0])
            assert np.min(np.linalg.norm(cloud - witness, axis=1)) < 1e-12
            assert hoelder_norm(t, beta, cloud) >= floor - 1e-9


def test_06_cotype_blowup_slopes():
    with _report("06 cotype blow-up slopes"):
        v = decide_bounded_target(holder(1, cube(3)), "sup")
        series = scan(v.obstruction, NormFunctional("hoelder", holder_exponent=1.0),
                      NormFunctional("sup"),
                      [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)],
                      domain=cube(3), seed=7,
                      config=QuadratureConfig(mc_samples=8, tolerance=1e-4))
        assert abs(series.fitted_slope - 0.5) <= 0.2, series.fitted_slope

        recipe = decide(sequence_lp(3), sequence_lp(4)).obstruction
        series = scan(recipe, None, None,
                      [Fraction(1, 4), Fraction(1, 16), Fraction(1, 64)])
        assert [n for _, n, _ in series.points] == [4, 16, 64]
        assert abs(series.fitted_slope - 1 / 6) <= 0.05, series.fitted_slope


def test_07_slobodeckij_quadrature_oracle():
    with _report("07 Slobodeckij quadrature oracle"):
        assert slobodeckij_seminorm(lambda X: np.full(len(X), 2.0), 0.5, 2,
                                    cube(1)) == 0.0
        val = slobodeckij_seminorm(lambda X: X[:, 0], 0.5, 2, cube(1))
        assert abs(val - 1.0) <= 1e-3 * 1.0, val

        # (d, p, theta) = (1, 2, 1/2): the box-side exponent d/p + 1 - theta = 1
        g = lambda X: X[:, 0]
        sides = [0.25, 0.5, 1.0]
        vals = [slobodeckij_seminorm(g, 0.5, 2, cube(1),
                                     box=(np.zeros(1), np.full(1, L)))
                for L in sides]
        slope = np.polyfit(np.log(sides), np.log(vals), 1)[0]
        assert abs(slope - 1.0) <= 0.1, slope


def test_08_packing():
    with _report("08 packing"):
        fit1 = exponent_fit(cube(1), [Fraction(1, 8), Fraction(1, 16),
                                      Fraction(1, 32), Fraction(1, 64)])
        assert abs(fit1 - 1.0) <= 0.2, fit1
        fit2 = exponent_fit(cube(2), [Fraction(1, 8), Fraction(1, 16),
                                      Fraction(1, 32)])
        assert abs(fit2 - 2.0) <= 0.2, fit2

        greedy = greedy_packing(cube(1), Fraction(1, 4))
        brute = brute_force_packing(cube(1), Fraction(1, 4))
        assert greedy.count == brute.count == 4


def test_09_witness_soundness_sweep():
    with _report("09 witness soundness sweep"):
        rng = random.Random(20240817)
        ps = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(4)]
        qs = [Fraction(1), Fraction(2), Fraction(3)]
        eps = Fraction(1, 10 ** 6)
        checked = 0
        while checked < 200:
            d = rng.randint(1, 4)
            dom = cube(d)
            p1, p2 = rng.choice(ps), rng.choice(ps)
            t = Fraction(rng.randint(1, 8), rng.choice([2, 3, 4, 5]))
            gap = Fraction(rng.randint(2, 6), 6) + Fraction(1, 7)
            defc = deficiency(p1, p2, d)
            s = t + Fraction(defc.numerator, defc.denominator) + gap
            family = rng.choice(["besov", "tl", "slobo"])
            try:
                if family == "besov":
                    E = besov(s, p1, rng.choice(qs + [INF]), dom)
                    F = besov(t, p2, rng.choice(qs + [INF]), dom)
                elif family == "tl":
                    E = triebel_lizorkin(s, p1, rng.choice(qs), dom)
                    F = triebel_lizorkin(t, p2, rng.choice(qs), dom)
                else:
                    E = slobodeckij(s, p1, dom)
                    F = slobodeckij(t, p2, dom)
            except (ValidationError, ValueError):
                continue
            v = decide(E, F)
            assert v.status == "Feasible", (family, s, t, p1, p2, d, v.status)
            assert v.witness is not None
            assert chain_holds(list(v.witness.links)), (family, s, t, p1, p2, d)
            iv = v.witness.u_interval
            assert iv is not None and iv.hi > iv.lo + 2 * eps, str(iv)
            assert iv.contains(iv.lo + eps) and iv.contains(iv.hi - eps)
            assert not iv.contains(iv.lo - eps)
            assert not iv.contains(iv.hi + eps)
            checked += 1


def test_10_kernel_decomposition_cosine():
    with _report("10 kernel decomposition, cosine"):
        spec = cosine_series(12)
        plus, minus = split_series(spec)
        for i in range(12):
            want_plus = Fraction(1, math.factorial(i)) if i % 4 == 0 else 0
            want_minus = Fraction(1, math.factorial(i)) if i % 4 == 2 else 0
            assert plus[i] == want_plus and minus[i] == want_minus, i

        bounded = check_applicability(spec)
        assert bounded.lemma_applicable == "yes-bounded-kernels"
        assert bounded.diagonal_bound == pytest.approx(math.cosh(1.0), rel=1e-8)

        everywhere = check_applicability(SeriesSpec(spec.coefficients, None))
        assert everywhere.lemma_applicable == "conditional"
        assert "cosh" in everywhere.required_integrability
