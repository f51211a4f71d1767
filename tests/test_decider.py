"""Decision-engine tests: verdicts, witness chains, obstruction recipes."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rkhs_sandwich
from rkhs_sandwich import (INF, UInterval, Verdict, ball, besov, c_infinity,
                           chain_holds, cube, decide, decide_bounded_target,
                           holder, lebesgue_lp, mixed_sobolev, sequence_lp,
                           slobodeckij, triebel_lizorkin, whole_space, xr)
from rkhs_sandwich.decider import (DecisionError, Inequality,
                                   ObstructionRecipe)
from rkhs_sandwich.spaces import (BOUNDED_TARGETS, ValidationError,
                                  coherent_closure, finite_metric)


class TestSequencePairs:
    def test_l1_to_linf_feasible(self):
        v = decide(sequence_lp(1), sequence_lp(INF))
        assert v.status == "Feasible"
        assert [s.label() for s in v.witness.links] == \
            ["sequence-lp:1", "sequence-lp:2", "sequence-lp:inf"]
        assert v.witness.links[1].p == 2  # the Hilbert link

    def test_l3_to_l4_infeasible(self):
        v = decide(sequence_lp(3), sequence_lp(4))
        assert v.status == "Infeasible"
        rec = v.obstruction
        assert rec.construction == "lp-unit-vectors"
        assert rec.predicted_exponent == xr(1, 2) - xr(1, 3)
        assert rec.predicted_exponent > 0

    def test_wrong_order_rejected(self):
        with pytest.raises(DecisionError):
            decide(sequence_lp(3), sequence_lp(2))


class TestLebesguePairs:
    def test_feasible_iff_straddles_two(self):
        dom = cube(1)
        v = decide(lebesgue_lp(3, dom), lebesgue_lp(Fraction(3, 2), dom))
        assert v.status == "Feasible"
        assert v.witness.links[1].p == 2

    def test_target_above_two_infeasible(self):
        dom = cube(2)
        v = decide(lebesgue_lp(4, dom), lebesgue_lp(3, dom))
        assert v.status == "Infeasible"
        rec = v.obstruction
        assert rec.construction == "Lp-indicator-partition"
        assert rec.predicted_exponent == xr(1) - xr(2, 3)


class TestHolderPairs:
    def test_wide_gap_feasible_on_cube(self):
        v = decide(holder(1, cube(1)), holder(Fraction(1, 4), cube(1)))
        assert v.status == "Feasible"
        assert chain_holds(list(v.witness.links))

    def test_narrow_gap_infeasible(self):
        v = decide(holder(Fraction(1, 2), cube(1)), holder(Fraction(1, 4), cube(1)))
        assert v.status == "Infeasible"
        assert v.obstruction.construction == "hoelder-tent-bumps"

    def test_equality_borderline(self):
        v = decide(holder(Fraction(3, 4), cube(1)), holder(Fraction(1, 4), cube(1)))
        assert v.status == "Borderline"

    def test_finite_metric_no_sufficiency(self):
        # a 3-point space with diameter 2: packing exponent too small to
        # obstruct, and no feasibility statement off the Euclidean scale
        dom = finite_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        v = decide(holder(1, dom), holder(Fraction(7, 8), dom))
        assert v.status in ("Undetermined", "Infeasible", "Borderline")
        assert v.status != "Feasible"

    def test_unfittable_packing_exponent_is_undetermined(self):
        # two points at one distance, or a single point with no distance at
        # all: the packing counts carry no exponent, so no packing
        # inequality can be claimed, not even with equality
        for dom in (finite_metric([[0, 1], [1, 0]]), finite_metric([[0]])):
            for v in (decide(holder(Fraction(1, 2), dom), holder(Fraction(1, 2), dom)),
                      decide_bounded_target(holder(Fraction(1, 2), dom))):
                assert v.status == "Undetermined"
                assert v.rule == "holder-packing"
                assert "could not be fitted" in v.reason


class TestSmoothScalePairs:
    def test_slobodeckij_feasible_interval(self):
        v = decide(slobodeckij(Fraction(11, 5), 2, cube(2)),
                   slobodeckij(Fraction(3, 10), 2, cube(2)))
        assert v.status == "Feasible"
        iv = v.witness.u_interval
        assert (iv.lo, iv.hi) == (xr(3, 10), xr(11, 5))
        assert iv.lo_open and iv.hi_open

    def test_slobodeckij_borderline(self):
        # gap 1/2 equals deficiency(1, 2, 1) = 1/2 exactly
        v = decide(slobodeckij(Fraction(3, 2), 1, cube(1)),
                   slobodeckij(1, 2, cube(1)))
        assert v.status == "Borderline"

    def test_slobodeckij_infeasible(self):
        v = decide(slobodeckij(Fraction(3, 2), 1, cube(2)),
                   slobodeckij(1, 2, cube(2)))
        assert v.status == "Infeasible"
        assert v.obstruction.construction == "smooth-scaled-bumps"

    def test_gap_below_the_embedding_line_with_no_single_ratio(self):
        # d/p1 - d/2 = d/2 - d/p2 = 1/6 <= s - t = 1/4 < d/p1 - d/p2 = 1/3:
        # E does not embed in F, and neither ratio alone diverges
        with pytest.raises(DecisionError, match="embedding E -> F fails"):
            decide(slobodeckij(Fraction(1, 2), Fraction(3, 2), cube(1)),
                   slobodeckij(Fraction(1, 4), 3, cube(1)))

    def test_zero_target_suppresses_necessity(self):
        v = decide(slobodeckij(Fraction(1, 4), 1, cube(2)),
                   slobodeckij(0, 2, cube(2)))
        assert v.status == "Undetermined"

    def test_hilbert_space_sandwiches_itself(self):
        E = besov(2, 2, 2, cube(2))
        v = decide(E, E)
        assert v.status == "Feasible" and v.rule == "identity"

    def test_non_hilbert_self_pair(self):
        E = besov(2, 3, 3, cube(2))
        v = decide(E, E)
        assert v.status == "Infeasible"


class TestUInterval:
    def test_tl_pair_closed_minus_endpoints(self):
        iv = decide(triebel_lizorkin(2, 2, 2, cube(2)),
                    triebel_lizorkin(1, 2, 2, cube(2))).witness.u_interval
        assert iv.contains(Fraction(3, 2))
        assert not iv.contains(1) and not iv.contains(2)
        assert iv.contains(Fraction(1999, 1000))

    def test_zero_target_sufficiency_interval(self):
        iv = decide(slobodeckij(Fraction(3, 2), 1, cube(1)),
                    slobodeckij(0, 2, cube(1))).witness.u_interval
        assert (iv.lo, iv.hi) == (0, 1)
        assert iv.lo_open and iv.hi_open

    def test_besov_sup_scale_interval(self):
        iv = decide(besov(2, INF, INF, cube(1)),
                    besov(Fraction(1, 2), INF, INF, cube(1))).witness.u_interval
        # (t + 1/2, s - 0): the source side costs nothing at p1 = inf
        assert (iv.lo, iv.hi) == (1, 2)

    def test_non_feasible_pair_rejected(self):
        v = decide(sequence_lp(3), sequence_lp(4))
        assert v.status != "Feasible" and v.witness is None

    def test_midpoint_replays(self):
        E = besov(Fraction(5, 2), 3, 3, cube(2))
        F = besov(Fraction(1, 2), 3, 3, cube(2))
        v = decide(E, F)
        assert v.status == "Feasible"
        assert chain_holds(list(v.witness.links))


class TestBoundedTarget:
    def test_holder_on_interval(self):
        v = decide_bounded_target(holder(1, cube(1)), "sup")
        assert v.status == "Feasible"
        assert (v.witness.u_interval.lo, v.witness.u_interval.hi) == (xr(1, 2), 1)

    def test_holder_on_three_cube(self):
        v = decide_bounded_target(holder(1, cube(3)), "sup")
        assert v.status == "Infeasible"
        assert v.obstruction.construction == "hoelder-tent-bumps"

    def test_smooth_functions_unbounded_domain(self):
        v = decide_bounded_target(c_infinity(whole_space(2)), "sup")
        assert v.status == "Infeasible" and v.rule == "unbounded-domain"

    def test_besov_threshold_trichotomy(self):
        # with p = 4, d = 2 the embedding needs s > 1/2 while the Hilbert
        # threshold sits at d/2 = 1, so all three verdicts are reachable
        dom = cube(2)
        assert decide_bounded_target(besov(2, 4, 4, dom)).status == "Feasible"
        assert decide_bounded_target(besov(1, 4, 4, dom)).status == "Borderline"
        assert decide_bounded_target(
            besov(Fraction(3, 4), 4, 4, dom)).status == "Infeasible"


class TestMixedSmoothness:
    def test_necessity_violation(self):
        dom = cube(2)
        A = coherent_closure([(1, 0), (0, 1)], 2)
        B = coherent_closure([(0, 0)], 2)
        v = decide(mixed_sobolev(A, 1, dom), mixed_sobolev(B, 2, dom))
        # gap 1 below deficiency(1,2,2) = 1? equal, so never Feasible
        assert v.status != "Feasible"

    def test_never_feasible(self):
        dom = cube(1)
        A = coherent_closure([(3,)], 1)
        B = coherent_closure([(1,)], 1)
        for p1 in (1, 2, 3):
            for p2 in (1, 2, 3):
                v = decide(mixed_sobolev(A, p1, dom), mixed_sobolev(B, p2, dom))
                assert v.status in ("Infeasible", "Undetermined")


class TestInvariantsAndRecipes:
    def test_obstruction_requires_positive_exponent(self):
        ineq = Inequality(xr(1), xr(2), ">", "demo")
        with pytest.raises(ValueError):
            ObstructionRecipe(ineq, "lp-unit-vectors", xr(0), "type2")

    def test_verdict_requires_witness_or_obstruction(self):
        with pytest.raises(ValueError):
            Verdict("Feasible", "demo")
        with pytest.raises(ValueError):
            Verdict("Infeasible", "demo")

    def test_verdict_guards_survive_optimize(self):
        # python -O strips assert statements; the guards must not be asserts
        code = ("from rkhs_sandwich import Verdict\n"
                "for status in ('Feasible', 'Infeasible'):\n"
                "    try:\n"
                "        Verdict(status, 'demo')\n"
                "    except ValueError:\n"
                "        continue\n"
                "    raise SystemExit(status + ' verdict accepted')\n")
        src = str(Path(rkhs_sandwich.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_uinterval_emptiness(self):
        assert UInterval(xr(1), xr(1), True, True).is_empty()
        assert not UInterval(xr(1), xr(1), False, False).is_empty()
        assert UInterval(xr(2), xr(1), False, False).is_empty()

    @given(st.fractions(min_value=Fraction(1, 8), max_value=3,
                        max_denominator=8),
           st.sampled_from([1, Fraction(3, 2), 2, 3, 4]),
           st.sampled_from([1, Fraction(3, 2), 2, 3, 4]),
           st.integers(min_value=1, max_value=4),
           st.fractions(min_value=Fraction(1, 8), max_value=1,
                        max_denominator=8))
    @settings(max_examples=60, deadline=None)
    def test_threshold_trichotomy(self, t, p1, p2, d, eps):
        from rkhs_sandwich.xrational import deficiency
        from rkhs_sandwich.spaces import ValidationError
        thr = deficiency(p1, p2, d)
        s = t + thr  # exactly on the threshold
        try:
            E = slobodeckij(s, p1, cube(d))
            F = slobodeckij(t, p2, cube(d))
            E2 = slobodeckij(s + eps, p1, cube(d))
        except ValidationError:
            return  # integer smoothness at p = 1 sits outside the family
        try:
            v = decide(E, F)
        except DecisionError:
            return
        if E == F and p1 == 2:
            # the pair degenerates to a Hilbert space sitting inside itself
            assert v.status == "Feasible" and v.rule == "identity"
            return
        assert v.status == "Borderline"
        # any positive perturbation of s tips it to Feasible
        assert decide(E2, F).status == "Feasible"


_SMOOTH_FAMILIES = st.tuples(st.sampled_from(["slobodeckij", "besov", "triebel-lizorkin"]),
                             st.sampled_from([1, Fraction(3, 2), 2, 3, 4, 8]),
                             st.sampled_from([1, 2, 3, INF]))
_QUARTERS = st.integers(min_value=0, max_value=24).map(lambda k: Fraction(k, 4))
# (d, domain, source family, bounded target or (target family, its s))
_QUERIES = st.tuples(st.integers(min_value=1, max_value=4),
                     st.sampled_from(["cube", "ball"]), _SMOOTH_FAMILIES,
                     st.one_of(st.sampled_from(BOUNDED_TARGETS),
                               st.tuples(_SMOOTH_FAMILIES, _QUARTERS)))
_RANK = {"Infeasible": 0, "Borderline": 1, "Feasible": 2}


def _smooth_space(family, s, dom):
    kind, p, q = family
    if kind == "slobodeckij":
        return slobodeckij(s, p, dom)
    return (besov if kind == "besov" else triebel_lizorkin)(s, p, q, dom)


def _verdict(query, s):
    """The query's verdict at source smoothness s, or None where the query is
    not posed (a descriptor out of its family, or no embedding E -> F)."""
    d, shape, source, target = query
    dom = cube(d) if shape == "cube" else ball(d)
    try:
        E = _smooth_space(source, s, dom)
        if isinstance(target, str):
            return decide_bounded_target(E, target)
        return decide(E, _smooth_space(target[0], target[1], dom))
    except (ValidationError, DecisionError):
        return None


class TestVerdictProperties:
    @given(_QUERIES, _QUARTERS)
    @settings(max_examples=300, deadline=None)
    def test_every_verdict_carries_its_evidence(self, query, s):
        v = _verdict(query, s)
        if v is None:
            return
        if v.status == "Feasible":
            assert v.witness is not None and v.witness.replay()
        elif v.status == "Infeasible":
            assert v.obstruction.predicted_exponent > 0
        else:
            assert v.status in ("Borderline", "Undetermined") and v.reason

    @given(_QUERIES, _QUARTERS, st.integers(min_value=1, max_value=8))
    @settings(max_examples=300, deadline=None)
    def test_more_source_smoothness_never_lowers_the_verdict(self, query, s, k):
        # the order Infeasible < Borderline < Feasible; Undetermined is skipped
        low, high = _verdict(query, s), _verdict(query, s + Fraction(k, 4))
        if low is None or high is None or \
                "Undetermined" in (low.status, high.status):
            return
        assert _RANK[high.status] >= _RANK[low.status], (low, high)
