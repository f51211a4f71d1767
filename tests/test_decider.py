"""Decision-engine tests: verdicts, witness chains, obstruction recipes."""

import hashlib
import json
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
                           chain_holds, continuous_bounded, cube, decide,
                           decide_bounded_target, holder, lebesgue_lp,
                           mixed_sobolev, sequence_lp, slobodeckij, sobolev,
                           sup_space, triebel_lizorkin, whole_space, xr)
from rkhs_sandwich.decider import (DecisionError, Inequality,
                                   ObstructionRecipe)
from rkhs_sandwich.report import _plain
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

    def test_pair_on_the_whole_space_is_refused(self):
        # R^d has no finite packing exponent to weigh the gap against
        dom = whole_space(2)
        with pytest.raises(DecisionError, match="no packing exponent"):
            decide(holder(1, dom), holder(Fraction(1, 2), dom))


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
        # on the square, s - t = 3/4 lies above the embedding line
        # d/p1 - d/p2 = 0 and below the type deficiency d/p1 - d/2 = 1
        v = decide(slobodeckij(Fraction(3, 2), 1, cube(2)),
                   slobodeckij(Fraction(3, 4), 1, cube(2)))
        assert v.status == "Infeasible"
        assert v.obstruction.construction == "smooth-scaled-bumps"
        assert (v.obstruction.mode, v.obstruction.predicted_exponent) == \
            ("type2", xr(1, 4))

    @pytest.mark.parametrize("E,F", [
        # s - t = 1/2 < d/p1 - d/p2 = 1: W^{3/2}_1 does not embed in W^1_2
        (slobodeckij(Fraction(3, 2), 1, cube(2)), slobodeckij(1, 2, cube(2))),
        # s - t = 1/4 < 1, with a zero target smoothness
        (slobodeckij(Fraction(1, 4), 1, cube(2)), slobodeckij(0, 2, cube(2))),
        # s - t = -1 clears d/p1 - d/p2 = 1/4 - 4/3 but not its positive part:
        # smoothness never rises on a bounded domain
        (slobodeckij(1, 8, cube(2)), slobodeckij(2, Fraction(3, 2), cube(2))),
    ])
    def test_gap_below_the_embedding_line_is_refused(self, E, F):
        with pytest.raises(DecisionError, match=r"rule embedding-line"):
            decide(E, F)

    @pytest.mark.parametrize("s,p,t", [
        (3, 4, Fraction(1, 2)),               # W^3_4 -> W^2_2 -> W^{1/2}_4
        (3, 3, 1),                            # W^3_3 -> W^{13/6}_2 -> W^1_3
        (2, Fraction(3, 2), Fraction(1, 2)),  # W^2_{3/2} -> W^{13/12}_2 -> W^{1/2}_{3/2}
    ])
    def test_whole_space_outside_two_is_not_feasible(self, s, p, t):
        # on the plane the bounded-domain witness has a link that lowers the
        # integration index, into W^u_2 from p > 2 or out of it to p < 2,
        # which R^d does not allow
        dom = whole_space(2)
        v = decide(slobodeckij(s, p, dom), slobodeckij(t, p, dom))
        assert v.status == "Undetermined" and "p1 <= 2 <= p2" in v.reason
        assert decide(slobodeckij(s, p, cube(2)), slobodeckij(t, p, cube(2))).status == \
            "Feasible"

    @given(st.integers(1, 3), *[st.integers(0, 16).map(lambda k: Fraction(k, 4))] * 2,
           *[st.sampled_from([Fraction(6, 5), Fraction(3, 2), 2, 3, 4, 8])] * 2)
    @settings(max_examples=200, deadline=None)
    def test_whole_space_integrability(self, d, s, t, p1, p2):
        # on R^d a pair that lowers p is refused, and a Feasible verdict
        # straddles p = 2
        dom = whole_space(d)
        try:
            v = decide(triebel_lizorkin(s, p1, 2, dom), triebel_lizorkin(t, p2, 2, dom))
        except DecisionError:
            assert p1 > p2 or s - t < Fraction(d) / p1 - Fraction(d) / p2
            return
        assert p1 <= p2
        if v.status == "Feasible":
            assert p1 <= 2 <= p2

    def test_gap_below_the_embedding_line_with_no_single_ratio(self):
        # d/p1 - d/2 = d/2 - d/p2 = 1/6 <= s - t = 1/4 < d/p1 - d/p2 = 1/3:
        # E does not embed in F, and neither ratio alone diverges
        with pytest.raises(DecisionError, match="embedding E -> F fails"):
            decide(slobodeckij(Fraction(1, 2), Fraction(3, 2), cube(1)),
                   slobodeckij(Fraction(1, 4), 3, cube(1)))

    def test_zero_target_suppresses_necessity(self):
        # s - t = 1/4 lies above the embedding line d/p1 - d/p2 = 0 and
        # below the cotype deficiency d/2 - d/p2 = 1/2; at t = 0 the
        # obstruction is not claimed
        v = decide(slobodeckij(Fraction(1, 4), 4, cube(2)),
                   slobodeckij(0, 4, cube(2)))
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


def _bounded_target_sources():
    """Every family over a small parameter grid on seven domains, minus the
    descriptors that validation refuses."""
    path = tuple(tuple(Fraction(abs(i - j)) for j in range(5)) for i in range(5))
    quarters = [Fraction(k, 4) for k in (0, 1, 2, 3, 4, 6, 8, 12)]
    ps, qs = [1, Fraction(3, 2), 2, 4, INF], [2, INF]
    yield from (sequence_lp(p) for p in ps)
    for dom in [cube(1), cube(2), cube(3), cube(4), ball(2), whole_space(2),
                finite_metric(path)]:
        makers = [(holder, (a,)) for a in quarters]
        makers += [(f, (s, p)) for f in (sobolev, slobodeckij)
                   for s in quarters for p in ps]
        makers += [(f, (s, p, q)) for f in (besov, triebel_lizorkin)
                   for s in quarters for p in ps for q in qs]
        makers += [(lebesgue_lp, (p,)) for p in ps]
        makers += [(f, ()) for f in (c_infinity, sup_space, continuous_bounded)]
        d = dom.dimension
        if d is not None:
            sets = [coherent_closure([(k,) + (0,) * (d - 1)], d) for k in (1, 2, 3)]
            sets += [coherent_closure([(k,) * d], d) for k in (1, 2)]
            makers += [(mixed_sobolev, (A, p)) for A in sets for p in ps]
        for make, args in makers:
            try:
                yield make(*args, dom)
            except ValidationError:
                pass


class TestBoundedTargetDigest:
    def test_answers_match_the_recorded_digest(self):
        # each answer is the verdict's report payload or the refusal's type
        # and message, so any change to a bounded-target answer moves the hash
        lines = []
        for E in _bounded_target_sources():
            for target in BOUNDED_TARGETS:
                try:
                    out = json.dumps(_plain(decide_bounded_target(E, target)),
                                     sort_keys=True)
                except DecisionError as exc:
                    out = f"{type(exc).__name__}: {exc}"
                lines.append(f"{E.label()} {E.domain!r} {target} {out}")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert (len(lines), digest) == (
            2676, "3e4fe03d23e75a2d85bb97e6a2335b284bc76f0e4deaf5d0651790029ba1d0b4")


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


    def test_gap_below_the_deficiency_is_infeasible(self):
        # d = 3, p1 = p2 = 8: the line d/p1 - d/p2 is 0 and the deficiency
        # (d/2 - d/p2)_+ = 9/8 tops the order gap |A|1 - |B|1 = 1, so the
        # cotype part overshoots by 9/8 - 1
        dom = cube(3)
        A = coherent_closure([(1, 1, 0)], 3)
        B = coherent_closure([(1, 0, 0)], 3)
        v = decide(mixed_sobolev(A, 8, dom), mixed_sobolev(B, 8, dom))
        d, p, gap = Fraction(3), Fraction(8), 2 - 1
        assert v.status == "Infeasible" and v.rule == "mixed-necessity"
        assert v.obstruction.mode == "cotype2"
        assert v.obstruction.construction == "smooth-scaled-bumps"
        assert v.obstruction.predicted_exponent == xr(d / 2 - d / p - gap)

    def test_gap_below_the_line_is_refused(self):
        # |A|1 - |B|1 = 0 < d/p1 - d/p2 = 2/2 - 2/4: no embedding to sit in
        dom = cube(2)
        A = coherent_closure([(1, 0)], 2)
        with pytest.raises(DecisionError, match="violates"):
            decide(mixed_sobolev(A, 2, dom), mixed_sobolev(A, 4, dom))

    @pytest.mark.parametrize("d,p,indices", [
        (3, 2, [(1, 0, 0)]),      # |A|1 = 1 < d/p = 3/2
        (3, 3, [(1, 0, 0)]),      # d/p = 1 <= 1 < threshold 3/2
        (3, 6, [(1, 0, 0)]),      # d/p = 1/2 <= 1 < threshold 3/2
        (2, 2, [(1, 0)]),         # |A|1 = d/p = threshold 1
        (2, 2, [(1, 1)]),         # |A|1 = 2 above threshold 1
        (1, 4, [(2,)]),           # |A|1 = 2 above threshold 1/2
    ])
    def test_bounded_target(self, d, p, indices):
        # Undetermined below d/p; Infeasible, cotype2 with exponent
        # d/2 - |A|1, below the threshold (d/p - d/2)_+ + d/2; Undetermined
        # from the threshold on, where only necessity is known
        A = coherent_closure(indices, d)
        order = max(sum(a) for a in indices)
        threshold = max(Fraction(d, p) - Fraction(d, 2), 0) + Fraction(d, 2)
        v = decide_bounded_target(mixed_sobolev(A, p, cube(d)))
        assert v.rule == "c0-threshold"
        if order < Fraction(d, p):
            assert v.status == "Undetermined"
            assert "d/p" in v.reason
        elif order < threshold:
            assert v.status == "Infeasible"
            assert v.obstruction.mode == "cotype2"
            assert v.obstruction.predicted_exponent == xr(Fraction(d, 2) - order)
        else:
            assert v.status == "Undetermined"
            assert "necessary condition" in v.reason


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
