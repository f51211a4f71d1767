"""Feasibility of an intermediate reproducing kernel Hilbert space.

Given two space descriptors E and F with E embedded in F, decide whether a
Hilbert space H of functions with E in H in F can exist.  Feasible verdicts
carry an explicit witness chain through a fractional Hilbert-Sobolev space
(or l2 / L2); Infeasible verdicts carry the violated exact inequality and a
recipe for a bump/indicator/unit-vector family whose type- or cotype-ratio
provably diverges, which the numerical lab can execute.  Each family has one
rule; a bounded target is its end t = 0, p2 = inf, reached after the R^d
check T1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

from . import embeddings as emb
from .spaces import (BOUNDED_TARGETS, DomainSpec, SpaceSpec, lebesgue_lp,
                     sequence_lp, slobodeckij, triebel_lizorkin)
from .xrational import INF, ExtRational, pos_part, deficiency, xr

FEASIBLE = "Feasible"
INFEASIBLE = "Infeasible"
BORDERLINE = "Borderline"
UNDETERMINED = "Undetermined"

# exit codes used by the CLI, kept next to the statuses they encode
STATUS_EXIT_CODES = {FEASIBLE: 0, INFEASIBLE: 10, BORDERLINE: 11, UNDETERMINED: 12}


class DecisionError(ValueError):
    """Preconditions of the decision procedure are not met."""


@dataclass(frozen=True)
class UInterval:
    """Admissible smoothness values u for the W^u_2 link of a witness chain."""

    lo: ExtRational
    hi: ExtRational
    lo_open: bool
    hi_open: bool
    excluded: Tuple[ExtRational, ...] = ()

    def contains(self, u) -> bool:
        u = xr(u)
        if any(u == e for e in self.excluded):
            return False
        above = u > self.lo if self.lo_open else u >= self.lo
        below = u < self.hi if self.hi_open else u <= self.hi
        return above and below

    def midpoint(self) -> ExtRational:
        return (self.lo + self.hi) / 2

    def is_empty(self) -> bool:
        if self.lo > self.hi:
            return True
        if self.lo == self.hi:
            return self.lo_open or self.hi_open or \
                any(self.lo == e for e in self.excluded)
        return False

    def __str__(self) -> str:
        lo_b = "(" if self.lo_open else "["
        hi_b = ")" if self.hi_open else "]"
        core = f"{lo_b}{self.lo}, {self.hi}{hi_b}"
        if self.excluded:
            core += " \\ {" + ", ".join(str(e) for e in self.excluded) + "}"
        return core


@dataclass(frozen=True)
class WitnessChain:
    links: Tuple[SpaceSpec, ...]  # the Hilbert space is links[1]
    u_interval: Optional[UInterval] = None

    def replay(self) -> bool:
        return emb.chain_holds(list(self.links))


@dataclass(frozen=True)
class Inequality:
    """An exact inequality record: left <relation> right failed/held."""

    left: ExtRational
    right: ExtRational
    relation: str  # the relation that was REQUIRED, e.g. ">"
    description: str

    def __str__(self) -> str:
        return f"{self.description}: required {self.left} {self.relation} {self.right}"


@dataclass(frozen=True)
class ObstructionRecipe:
    violated: Inequality
    construction: str  # lp-unit-vectors | Lp-indicator-partition |
                       # hoelder-tent-bumps | smooth-scaled-bumps
    predicted_exponent: ExtRational
    mode: str  # type2 | cotype2
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.predicted_exponent > 0:
            raise ValueError("an obstruction must predict a divergent ratio")


@dataclass(frozen=True)
class Verdict:
    status: str
    rule: str
    witness: Optional[WitnessChain] = None
    obstruction: Optional[ObstructionRecipe] = None
    reason: Optional[str] = None

    def __post_init__(self):
        emb.cite(self.rule)
        if self.status == FEASIBLE:
            if self.witness is None:
                raise ValueError("Feasible verdicts must carry a witness chain")
            if not self.witness.replay():
                raise AssertionError("witness chain failed embedding replay")
        if self.status == INFEASIBLE and self.obstruction is None:
            raise ValueError("Infeasible verdicts must carry an obstruction recipe")


_SMOOTH_SCALE = ("besov", "triebel-lizorkin", "slobodeckij", "sobolev", "holder")


def _threshold_interval(s, t, p1, p2, d: int, closed: bool) -> UInterval:
    d = xr(d)
    lo = t + pos_part(d / 2 - d / p2)
    hi = s - pos_part(d / p1 - d / 2)
    if closed:
        return UInterval(lo, hi, False, False, excluded=(s, t))
    return UInterval(lo, hi, True, True)


def _smooth_obstruction(s, t, p1, p2, d: int, construction: str,
                        desc: str) -> ObstructionRecipe:
    """Pick the divergent ratio for a smoothness-gap violation.

    If the source side (p1 > 2) overshoots, the type ratio (Rademacher norm of
    the images over the l2 sequence norm of the inputs) diverges; otherwise
    the target side (p2 < 2) does, through the cotype ratio.
    """
    d_ = xr(d)
    gap = s - t
    type_part = pos_part(d_ / p1 - d_ / 2)
    cotype_part = pos_part(d_ / 2 - d_ / p2)
    ineq = Inequality(gap, type_part + cotype_part, ">", desc)
    params = {"s": s, "t": t, "p1": p1, "p2": p2, "d": d}
    for part, mode in ((type_part, "type2"), (cotype_part, "cotype2")):
        if part > gap:
            return ObstructionRecipe(ineq, construction, part - gap, mode, params=params)
    # both parts are positive, so p1 < 2 < p2 and gap < d/p1 - d/p2
    raise DecisionError("embedding E -> F fails: s - t < d/p1 - d/p2")


def _feasible_smooth(E: SpaceSpec, F: SpaceSpec, rule: str, interval: UInterval,
                     slobo: bool = False) -> Verdict:
    """E -> W^u_2 -> F at the midpoint u of the interval, with W^u_2 written
    on the Slobodeckij scale or else on the Triebel-Lizorkin one."""
    u, dom = interval.midpoint(), E.domain
    link = slobodeckij(u, 2, dom) if slobo else triebel_lizorkin(u, 2, 2, dom)
    return Verdict(FEASIBLE, rule,
                   witness=WitnessChain((E, link, F), u_interval=interval))


def _tent_infeasible(alpha, beta, k, desc: str) -> Verdict:
    """2(alpha - beta) < k: the tent-bump family breaks the cotype."""
    gap = alpha - beta
    ineq = Inequality(2 * gap, k, ">=", desc)
    rec = ObstructionRecipe(ineq, "hoelder-tent-bumps", (k / 2 - gap) / alpha,
                            "cotype2", params={"alpha": alpha, "beta": beta, "k": k})
    return Verdict(INFEASIBLE, "holder-packing", obstruction=rec)


def _decide_sequence(E: SpaceSpec, F: SpaceSpec) -> Verdict:
    p, q = E.p, F.p
    if p > q:
        raise DecisionError("sequence spaces require p <= q (no embedding otherwise)")
    rule = "lp-iff"
    if p <= 2 <= q:
        chain = (E, sequence_lp(2), F)
        return Verdict(FEASIBLE, rule, witness=WitnessChain(chain))
    if p > 2:
        ineq = Inequality(p, xr(2), "<=", "sequence source index p")
        rec = ObstructionRecipe(ineq, "lp-unit-vectors",
                                xr(1, 2) - 1 / p, "cotype2",
                                params={"p": p, "q": q})
    else:  # q < 2
        ineq = Inequality(xr(2), q, "<=", "sequence target index q")
        rec = ObstructionRecipe(ineq, "lp-unit-vectors",
                                1 / q - xr(1, 2), "type2",
                                params={"p": p, "q": q})
    return Verdict(INFEASIBLE, rule, obstruction=rec)


def _decide_lebesgue(E: SpaceSpec, F: SpaceSpec) -> Verdict:
    p, q = E.p, F.p
    if not E.domain.bounded:
        raise DecisionError("Lebesgue decision requires a bounded domain")
    if q > p:
        raise DecisionError("Lebesgue spaces require q <= p (no embedding otherwise)")
    rule = "Lp-iff"
    if q <= 2 <= p:
        chain = (E, lebesgue_lp(2, E.domain), F)
        return Verdict(FEASIBLE, rule, witness=WitnessChain(chain))
    d = E.domain.dimension
    if q > 2:
        ineq = Inequality(q, xr(2), "<=", "Lebesgue target index q")
        rec = ObstructionRecipe(ineq, "Lp-indicator-partition",
                                xr(d) / 2 - xr(d) / q, "cotype2",
                                params={"p": p, "q": q, "d": d})
    else:  # p < 2
        ineq = Inequality(xr(2), p, "<=", "Lebesgue source index p")
        rec = ObstructionRecipe(ineq, "Lp-indicator-partition",
                                xr(d) / p - xr(d) / 2, "type2",
                                params={"p": p, "q": q, "d": d})
    return Verdict(INFEASIBLE, rule, obstruction=rec)


_NO_EXPONENT = "the packing exponent of the domain could not be fitted"
_NO_SUFFICIENCY = "no sufficiency statement for non-Euclidean domains"
_NECESSARY_ONLY = ("only the necessary condition is available for "
                   "coherent-set smoothness; it is satisfied here")


def _packing_exponent(domain: DomainSpec) -> Optional[ExtRational]:
    """The domain's packing exponent, or None when a finite metric space's
    packing counts carry no exponent information."""
    if domain.kind in ("unit-cube", "euclidean-ball"):
        return xr(domain.dimension)
    if domain.kind == "finite-metric-set":
        from .packing import PackingError, exponent_fit
        dists = sorted({d for row in domain.metric_table for d in row if d > 0})
        if not dists:  # a single point has no scale to fit against
            return None
        hi, lo = dists[-1], dists[0]
        deltas = [hi, (hi + lo) / 2, lo]
        try:
            est = exponent_fit(domain, deltas)
        except PackingError:
            return None
        return xr(Fraction(est).limit_denominator(1000))
    raise DecisionError(f"no packing exponent for domain kind {domain.kind!r}")


def _decide_holder(E: SpaceSpec, F: SpaceSpec) -> Verdict:
    """Hoelder pairs by the packing exponent; a bounded F is beta = 0."""
    bounded = F.family in BOUNDED_TARGETS
    alpha, beta = E.s, xr(0) if bounded else F.s
    if alpha < beta:
        raise DecisionError("Hoelder pair requires alpha >= beta")
    k = _packing_exponent(E.domain)
    rule = "holder-packing"
    if k is None:
        return Verdict(UNDETERMINED, rule, reason=_NO_EXPONENT)
    gap2 = 2 * (alpha - beta)
    if gap2 < k:
        return _tent_infeasible(alpha, beta, k, "packing exponent bound 2*alpha" if bounded
                                else "packing exponent bound 2(alpha-beta)")
    # a bounded target decides the equality case on the smooth scale
    if E.domain.kind in ("unit-cube", "euclidean-ball") and (gap2 > k or bounded):
        return _decide_smooth_scale(E, F)
    if gap2 == k and not bounded:
        return Verdict(BORDERLINE, rule,
                       reason="2(alpha-beta) equals the packing exponent exactly")
    return Verdict(UNDETERMINED, rule, reason=_NO_SUFFICIENCY)


def _decide_smooth_scale(E: SpaceSpec, F: SpaceSpec) -> Verdict:
    """Shared threshold logic for Slobodeckij / Besov / Triebel-Lizorkin; a
    bounded F is the end t = 0, p2 = inf of the scale."""
    bounded = F.family in BOUNDED_TARGETS
    slobo_pair = E.family == "slobodeckij" and F.family == "slobodeckij"
    Ec, Fc = emb.rewrite_identifications(E), emb.rewrite_identifications(F)
    d = E.domain.dimension
    s, p1 = Ec.s, Ec.p
    # the int 0 stays the number 0 in a recipe's params
    t, p2 = (0, INF) if bounded else (Fc.s, Fc.p)
    if bounded and not s > xr(d) / p1:
        raise DecisionError("bounded target requires s > d/p for the embedding")
    gap, thr = s - t, deficiency(p1, p2, d)
    rule = "c0-threshold" if bounded else \
        "slobodeckij-threshold" if slobo_pair else "besov-tl-threshold"
    if gap > thr:
        if not E.domain.bounded and not p1 <= 2 <= p2:
            return Verdict(UNDETERMINED, rule, reason=(
                "on R^d the W^u_2 witness embeds only when p1 <= 2 <= p2; "
                "integrability is open here"))
        closed = not slobo_pair and Ec.family == Fc.family == "triebel-lizorkin"
        interval = _threshold_interval(s, t, p1, p2, d, closed)
        if slobo_pair:  # a Slobodeckij pair keeps its own scale
            return _feasible_smooth(E, F, rule, interval, slobo=True)
        return _feasible_smooth(E if bounded else Ec, Fc, rule, interval)
    if t == 0 and not bounded:
        return Verdict(UNDETERMINED, rule,
                       reason="necessity requires t > 0; below-threshold case open at t = 0")
    if gap == thr:
        return Verdict(BORDERLINE, rule, reason=(
            "smoothness equals the bounded-target threshold exactly" if bounded
            else "smoothness gap equals the deficiency exactly"))
    rec = _smooth_obstruction(s, t, p1, p2, d, "smooth-scaled-bumps",
                              "bounded-target deficiency" if bounded
                              else "smoothness gap s-t against deficiency")
    return Verdict(INFEASIBLE, rule, obstruction=rec)


def _decide_mixed(E: SpaceSpec, F: SpaceSpec) -> Verdict:
    """Necessity only; a bounded F is |B|1 = 0, p2 = inf."""
    bounded = F.family in BOUNDED_TARGETS
    d = E.domain.dimension
    s, p1 = E.indices.max_order, E.p
    t, p2 = (0, INF) if bounded else (F.indices.max_order, F.p)
    rule = "c0-threshold" if bounded else "mixed-necessity"
    if s - t < xr(d) / p1 - xr(d) / p2:
        if bounded:
            return Verdict(UNDETERMINED, rule,
                           reason="requires |A|1 >= d/p for the bounded target")
        raise DecisionError(
            "mixed-smoothness pair violates |A|1-|B|1 >= d(1/p1-1/p2); "
            "the embedding itself cannot hold")
    thr = deficiency(p1, p2, d)
    if s - t >= thr:
        return Verdict(UNDETERMINED, rule, reason=_NECESSARY_ONLY)
    if bounded:
        ineq = Inequality(s, thr, ">=", "bounded-target deficiency")
        rec = ObstructionRecipe(ineq, "smooth-scaled-bumps", xr(d) / 2 - s, "cotype2",
                                params={"s": s, "p": p1, "d": d})
    else:
        rec = _smooth_obstruction(s, t, p1, p2, d, "smooth-scaled-bumps",
                                  "mixed order gap |A|1-|B|1 against deficiency")
    return Verdict(INFEASIBLE, rule, obstruction=rec)


def decide(E: SpaceSpec, F: SpaceSpec) -> Verdict:
    """Can a reproducing kernel Hilbert space sit between E and F?"""
    if E.domain != F.domain:
        raise DecisionError("decision endpoints must share a domain")
    if F.family in BOUNDED_TARGETS:
        return decide_bounded_target(E, F.family)
    verdict = emb.embeds(E, F)
    if verdict.status == emb.FAILS:
        raise DecisionError(f"embedding E -> F fails (rule {verdict.rule}); "
                            "nothing can sit between")

    # a space that is itself a fractional Hilbert space sandwiches itself
    if E == F:
        Ec = emb.rewrite_identifications(E)
        if Ec.family == "triebel-lizorkin" and Ec.p == 2 and Ec.q == 2:
            interval = UInterval(Ec.s, Ec.s, False, False)
            return Verdict(FEASIBLE, "identity",
                           witness=WitnessChain((E, E, F), u_interval=interval))

    fe, ff = E.family, F.family
    if fe == "sequence-lp" and ff == "sequence-lp":
        return _decide_sequence(E, F)
    if fe == "lebesgue-lp" and ff == "lebesgue-lp":
        return _decide_lebesgue(E, F)
    if fe == "holder" and ff == "holder":
        return _decide_holder(E, F)
    if fe in _SMOOTH_SCALE and ff in _SMOOTH_SCALE:
        return _decide_smooth_scale(E, F)
    if fe == "mixed-sobolev" and ff == "mixed-sobolev":
        return _decide_mixed(E, F)
    return Verdict(UNDETERMINED, "unmatched",
                   reason=f"no decision rule for the pair ({fe} -> {ff})")


def decide_bounded_target(E: SpaceSpec, target: str = "sup") -> Verdict:
    """Existence of an RKHS between E and the bounded (sup-norm) functions:
    T1 on R^d first, then the rule of E's family at t = 0, p2 = inf."""
    if target not in BOUNDED_TARGETS:
        raise DecisionError(f"unknown bounded target {target!r}")
    dom = E.domain

    # T1: no RKHS with a bounded kernel above smooth functions on an
    # unbounded Euclidean domain
    if dom.kind == "euclidean-space":
        if E.family == "c-infinity" or E.family in _SMOOTH_SCALE:
            ineq = Inequality(xr(1), xr(0), "<=", "domain boundedness")
            rec = ObstructionRecipe(ineq, "smooth-scaled-bumps",
                                    xr(1, 2), "cotype2",
                                    params={"unbounded": True, "d": dom.dimension})
            return Verdict(INFEASIBLE, "unbounded-domain", obstruction=rec)
        return Verdict(UNDETERMINED, "unbounded-domain",
                       reason=f"no rule for family {E.family} on an unbounded domain")

    F = SpaceSpec(target, dom)
    if E.family == "holder":
        return _decide_holder(E, F)
    if E.family in _SMOOTH_SCALE:
        return _decide_smooth_scale(E, F)
    if E.family == "mixed-sobolev":
        return _decide_mixed(E, F)
    if E.family == "sequence-lp":
        return _decide_sequence(E, sequence_lp(INF))

    return Verdict(UNDETERMINED, "unmatched",
                   reason=f"no bounded-target rule for family {E.family}")

