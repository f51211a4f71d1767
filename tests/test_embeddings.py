"""Rule-engine tests for continuous embeddings between descriptors."""

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from rkhs_sandwich import (INF, ball, besov, c_infinity, chain_holds,
                           coherent_closure, continuous_bounded, cube, embeds,
                           finite_metric, holder, lebesgue_lp, mixed_sobolev,
                           rewrite_identifications, sequence_lp, slobodeckij,
                           sobolev, sup_space, triebel_lizorkin, validate_space,
                           whole_space, xr)
from rkhs_sandwich.spaces import DomainError
from rkhs_sandwich.xrational import pos_part


def _specs(make, *parts):
    return st.tuples(*parts).map(lambda args: make(*args))


_euclidean = st.one_of(
    st.integers(1, 3).map(cube), st.integers(1, 3).map(whole_space),
    st.tuples(st.integers(1, 3), st.sampled_from([Fraction(1, 2), 1, 3])).map(
        lambda a: ball(*a)))
_metric = st.one_of(_euclidean,
                    st.just(finite_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])))
_smooth = st.fractions(min_value=-2, max_value=4, max_denominator=6)
_index = st.fractions(min_value=1, max_value=8, max_denominator=6)
_index_inf = st.one_of(_index, st.just(INF))
_mixed = st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.lists(st.tuples(*[st.integers(0, 2)] * d), min_size=1, max_size=3).map(
        lambda idx: coherent_closure(idx, d)),
    _index, st.sampled_from([cube(d), ball(d), whole_space(d)])))

# valid specs of every family, on every domain kind the family accepts
valid_specs = st.one_of(
    _specs(holder, st.fractions(min_value=Fraction(1, 12), max_value=1,
                                max_denominator=12).filter(lambda a: a > 0),
           _metric),
    _specs(sobolev, st.integers(0, 4), _index.filter(lambda p: p > 1), _euclidean),
    st.tuples(st.fractions(min_value=0, max_value=4, max_denominator=6), _index,
              _euclidean).filter(lambda a: a[0].denominator > 1 or a[1] > 1)
    .map(lambda a: slobodeckij(*a)),
    _specs(besov, _smooth, _index_inf, _index_inf, _euclidean),
    st.tuples(_smooth, _index_inf, _euclidean).map(
        lambda a: besov(a[0], a[1], a[1], a[2])),
    _specs(triebel_lizorkin, _smooth, _index, _index_inf, _euclidean),
    _mixed.map(lambda a: mixed_sobolev(*a)),
    _index_inf.map(sequence_lp),
    _specs(lebesgue_lp, _index_inf, _euclidean),
    *(_metric.map(make) for make in (sup_space, continuous_bounded, c_infinity)))


class TestRewrites:
    def test_slobodeckij_fractional(self):
        out = rewrite_identifications(slobodeckij(Fraction(3, 2), 3, cube(1)))
        assert (out.family, out.s, out.p, out.q) == \
            ("triebel-lizorkin", xr(3, 2), 3, 3)

    def test_sobolev(self):
        out = rewrite_identifications(sobolev(2, 2, cube(1)))
        assert (out.family, out.s, out.p, out.q) == ("triebel-lizorkin", 2, 2, 2)

    def test_holder(self):
        out = rewrite_identifications(holder(Fraction(1, 2), cube(1)))
        assert (out.family, out.s) == ("besov", xr(1, 2))
        assert out.p.is_infinite and out.q.is_infinite

    def test_idempotent(self):
        for spec in (slobodeckij(Fraction(3, 2), 3, cube(1)),
                     sobolev(2, 2, cube(1)),
                     holder(Fraction(1, 2), cube(1)),
                     besov(1, 4, 4, cube(2))):
            once = rewrite_identifications(spec)
            assert rewrite_identifications(once) == once


    @given(valid_specs)
    def test_rewrite_is_valid_idempotent_and_public(self, spec):
        # the rewrite skips validate_space; every spec it returns must still
        # pass it and equal the spec the public constructor builds
        out = rewrite_identifications(spec)
        assert validate_space(out) is out
        assert rewrite_identifications(out) == out
        if out is not spec:
            make = {"besov": besov, "triebel-lizorkin": triebel_lizorkin}[out.family]
            public = make(out.s, out.p, out.q, out.domain)
            assert out == public and hash(out) == hash(public)


class TestEmbedsExamples:
    def test_tl_smoothness_drop(self):
        E = triebel_lizorkin(2, 2, 2, cube(3))
        F = triebel_lizorkin(1, 2, 2, cube(3))
        v = embeds(E, F)
        assert v.holds and v.rule == "R1"

    def test_sobolev_smoothness_increase_fails(self):
        v = embeds(sobolev(1, 2, cube(1)), sobolev(2, 2, cube(1)))
        assert v.status == "Fails" and v.rule == "R6"

    def test_besov_tl_crossing(self):
        # gap 1/2 beats d(1/p1 - 1/p2) = 2*(0 - 1/4) on the nose
        E = besov(1, INF, INF, cube(2))
        F = besov(Fraction(1, 2), 4, 4, cube(2))
        v = embeds(E, F)
        assert v.holds and "R5" in v.rule

    def test_sobolev_iff_boundary(self):
        # gap exactly d/p1 - d/p2: the equivalence keeps it
        v = embeds(sobolev(2, 2, cube(4)), sobolev(1, 4, cube(4)))
        assert v.holds and v.rule == "R6"
        # gap strictly below the requirement: the iff rejects it
        v2 = embeds(sobolev(2, 2, cube(5)), sobolev(1, 5, cube(5)))
        assert v2.status == "Fails" and v2.rule == "R6"

    def test_sequence_and_lebesgue_rules(self):
        assert embeds(sequence_lp(1), sequence_lp(3)).rule == "R8"
        assert embeds(lebesgue_lp(3, cube(1)), lebesgue_lp(2, cube(1))).rule == "R9"
        assert embeds(sequence_lp(3), sequence_lp(2)).status == "Undetermined"

    def test_holder_inclusion(self):
        v = embeds(holder(1, cube(2)), holder(Fraction(1, 3), cube(2)))
        assert v.holds and v.rule == "R7"

    def test_bounded_target(self):
        v = embeds(slobodeckij(2, 2, cube(1)), sup_space(cube(1)))
        assert v.holds and v.rule == "R10"
        v2 = embeds(slobodeckij(Fraction(1, 4), 2, cube(1)), sup_space(cube(1)))
        assert v2.status == "Undetermined"

    def test_holder_into_bounded_functions(self):
        v = embeds(holder(Fraction(1, 2), cube(2)), sup_space(cube(2)))
        assert v.holds and v.rule == "R7"

    def test_lebesgue_into_bounded_functions_is_open(self):
        for p in (xr(2), INF):
            v = embeds(lebesgue_lp(p, cube(1)), sup_space(cube(1)))
            assert v.status == "Undetermined" and v.rule is None

    @pytest.mark.parametrize("make", [
        sobolev, slobodeckij,
        lambda s, p, dom: besov(s, p, 2, dom),
        lambda s, p, dom: triebel_lizorkin(s, p, 2, dom),
    ])
    def test_lower_integration_index_fails_on_whole_space(self, make):
        # W^3_4 -> W^2_2 holds on the square but not on the plane, where
        # translates of one bump span l_4 in the source and l_2 in the target
        E, F = make(3, 4, whole_space(2)), make(2, 2, whole_space(2))
        v = embeds(E, F)
        assert (v.status, v.rule) == ("Fails", "Rd-integrability")
        assert embeds(make(3, 4, cube(2)), make(2, 2, cube(2))).holds

    def test_domain_mismatch(self):
        with pytest.raises(DomainError):
            embeds(holder(1, cube(1)), holder(1, cube(2)))


frac = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=8)
pvals = st.sampled_from([xr(1), xr(3, 2), xr(2), xr(3), INF])


class TestEmbedsProperties:
    @given(frac, pvals, pvals)
    def test_reflexivity(self, s, p, q):
        spec = besov(s, p, q, cube(2))
        assert embeds(spec, spec).rule == "identity"

    @given(frac, frac, frac)
    def test_monotone_in_source_smoothness(self, s, bump, t):
        E = triebel_lizorkin(s, 2, 2, cube(2))
        E2 = triebel_lizorkin(s + bump, 2, 2, cube(2))
        F = triebel_lizorkin(t, 3, 2, cube(2))
        if embeds(E, F).holds:
            assert embeds(E2, F).holds

    @given(frac, frac, pvals, pvals)
    def test_fails_exactly_below_the_embedding_line(self, s, t, p, q):
        # off the integer-Sobolev equivalence, Fails on a bounded domain is
        # the embedding line s - t >= (d/p1 - d/p2)_+
        v = embeds(besov(s, p, q, cube(3)), besov(t, q, p, cube(3)))
        below = xr(s) - xr(t) < pos_part(xr(3) / p - xr(3) / q)
        assert (v.status == "Fails") == below
        if below:
            assert v.rule == "embedding-line"

    @given(frac, frac, pvals, pvals, pvals,
           st.sampled_from(["besov", "triebel-lizorkin"]), st.integers(1, 3))
    def test_equal_integration_index_cites_r1_or_r2(self, t, bump, p, q1, q2,
                                                     family, d):
        # at p1 = p2 the line d/p1 - d/p2 is 0, so any s > t clears it:
        # a pair that is Triebel-Lizorkin once rewritten holds by R1, a
        # Besov one by R2, whatever the fein indices
        assume(family == "besov" or p.is_finite)
        make = besov if family == "besov" else triebel_lizorkin
        E, F = make(t + bump, p, q1, cube(d)), make(t, p, q2, cube(d))
        canonical = {rewrite_identifications(X).family for X in (E, F)}
        assume(len(canonical) == 1)
        v = embeds(E, F)
        assert v.holds
        assert v.rule.split("+")[-1] == \
            ("R1" if canonical == {"triebel-lizorkin"} else "R2")

    def test_transitive_fragment_assembles_chains(self):
        E = besov(2, 2, 2, cube(2))
        G = besov(Fraction(3, 2), 2, 2, cube(2))
        F = besov(1, 2, 2, cube(2))
        assert embeds(E, G).holds and embeds(G, F).holds
        assert chain_holds([E, G, F])
        assert embeds(E, F).status != "Fails"
