"""Three-valued rule engine for continuous embeddings between space descriptors.

The engine answers Holds / Fails / Undetermined.  Fails is only emitted for
the two rules stated as equivalences (classical integer Sobolev pairs and the
smoothness-increase degenerate case); everything the rule set cannot settle
is Undetermined, never Fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .spaces import DomainError, SpaceSpec
from .xrational import INF, ExtRational, xr

HOLDS = "Holds"
FAILS = "Fails"
UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class EmbedVerdict:
    status: str
    rule: Optional[str] = None
    reason: Optional[str] = None
    chain: Optional[List[SpaceSpec]] = None

    def __post_init__(self):
        if self.status in (HOLDS, FAILS) and not self.rule:
            raise ValueError(f"{self.status} verdicts must carry a rule tag")
        if self.status == UNDETERMINED and not self.reason:
            raise ValueError("Undetermined verdicts must carry a reason")

    @property
    def holds(self) -> bool:
        return self.status == HOLDS


def _holds(rule: str, chain: Optional[List[SpaceSpec]] = None) -> EmbedVerdict:
    return EmbedVerdict(HOLDS, rule=rule, chain=chain)


def _fails(rule: str) -> EmbedVerdict:
    return EmbedVerdict(FAILS, rule=rule)


def _open(reason: str) -> EmbedVerdict:
    return EmbedVerdict(UNDETERMINED, reason=reason)


def rewrite_identifications(spec: SpaceSpec) -> SpaceSpec:
    """Canonical Besov / Triebel-Lizorkin form of a space descriptor.

    sobolev(s,p) -> TL(s,p,2); slobodeckij(s,p) -> TL(s,p,2) for integer s
    (needs p > 1, enforced at validation) and TL(s,p,p) otherwise;
    holder(a) -> besov(a,inf,inf); besov(s,p,p) with finite p -> TL(s,p,p).
    Idempotent.
    """
    fam = spec.family
    if fam == "sobolev":
        return SpaceSpec("triebel-lizorkin", spec.domain, s=spec.s, p=spec.p, q=xr(2))
    if fam == "slobodeckij":
        q = xr(2) if spec.s.is_integer() else spec.p
        return SpaceSpec("triebel-lizorkin", spec.domain, s=spec.s, p=spec.p, q=q)
    if fam == "holder" and spec.domain.kind != "finite-metric-set":
        return SpaceSpec("besov", spec.domain, s=spec.s, p=INF, q=INF)
    if fam == "besov" and spec.p.is_finite and spec.p == spec.q:
        return SpaceSpec("triebel-lizorkin", spec.domain, s=spec.s, p=spec.p, q=spec.q)
    return spec


def _dim(spec: SpaceSpec) -> ExtRational:
    return xr(spec.domain.dimension)


def _smooth_pair(E: SpaceSpec, F: SpaceSpec) -> EmbedVerdict:
    """Rules R1-R5 on canonical Besov/TL descriptors with a shared domain."""
    d = _dim(E)
    s, p1, q1 = E.s, E.p, E.q
    t, p2, q2 = F.s, F.p, F.q
    same_family = E.family == F.family
    gap_needed = d / p1 - d / p2

    if same_family and E.family == "triebel-lizorkin":
        if s > t and s - t >= gap_needed:
            return _holds("R1")
    if same_family and E.family == "besov":
        if s > t and s - t > gap_needed:
            return _holds("R2")
    # the same-smoothness integration-lowering rule needs a finite fein index
    # on the Triebel-Lizorkin scale
    r3_ok = E.family == "besov" or q1.is_finite
    if same_family and s == t:
        if p1 >= p2 and q1 == q2 and (p1 == p2 or r3_ok):
            return _holds("R3")
        if p1 == p2 and q1 <= q2:
            return _holds("R4")
        if p1 >= p2 and q1 <= q2 and r3_ok:
            # lower the integration index, then relax the fein index
            mid = E.with_params(p=p2)
            return _holds("R3+R4", chain=[E, mid, F])
    if same_family and p1 == p2 and s > t:
        # any fein-index change is absorbed by an arbitrarily small smoothness cost
        return _holds("R4")
    if not same_family and s > t and s - t > gap_needed:
        return _holds("R5")
    return _open("no smoothness-scale rule applies to this parameter combination")


def embeds(E: SpaceSpec, F: SpaceSpec) -> EmbedVerdict:
    """Decide whether the continuous embedding E -> F holds.

    Rule order: identity, integer-Sobolev equivalence (R6), sequence (R8),
    Lebesgue (R9), direct Hoelder inclusion (R7), bounded targets (R10), then
    family identifications (R11) followed by the Besov/TL rules R1-R5.
    """
    if E.domain != F.domain:
        raise DomainError("embedding endpoints must share a domain")

    if E == F:
        return _holds("identity")

    fam_e, fam_f = E.family, F.family

    if fam_e == "sobolev" and fam_f == "sobolev":
        d = _dim(E)
        if E.s < F.s:
            return _fails("R6")
        if E.s - F.s >= d / E.p - d / F.p:
            return _holds("R6")
        return _fails("R6")

    if fam_e == "sequence-lp" and fam_f == "sequence-lp":
        if E.p <= F.p:
            return _holds("R8")
        return _open("sequence-lp with decreasing index is outside the rule set")

    if fam_e == "lebesgue-lp" and fam_f == "lebesgue-lp":
        if not E.domain.bounded:
            return _open("Lebesgue inclusion rule assumes a bounded domain")
        if F.p <= E.p:
            return _holds("R9")
        return _open("Lebesgue with increasing index is outside the rule set")

    if fam_e == "holder" and fam_f == "holder":
        if not E.domain.bounded:
            return _open("Hoelder inclusion rule assumes a bounded metric space")
        if E.s >= F.s:
            return _holds("R7")
        return _open("Hoelder inclusion with increasing exponent is outside the rule set")

    if fam_f in ("sup", "continuous-bounded"):
        if fam_e == "holder":
            return _holds("R7")  # alpha-Hoelder functions are bounded
        src = rewrite_identifications(E)
        if src.family in ("besov", "triebel-lizorkin"):
            d = _dim(E)
            if src.s > d / src.p:
                return _holds("R10")
            return _open("bounded target needs s > d/p; condition not met")
        return _open(f"no bounded-target rule for family {fam_e}")

    src, dst = rewrite_identifications(E), rewrite_identifications(F)
    if src.family in ("besov", "triebel-lizorkin") and \
            dst.family in ("besov", "triebel-lizorkin"):
        if src == dst:
            return _holds("R11")
        verdict = _smooth_pair(src, dst)
        if verdict.holds and (src is not E or dst is not F):
            tag = verdict.rule if verdict.rule.startswith("R11") else f"R11+{verdict.rule}"
            return EmbedVerdict(HOLDS, rule=tag, chain=verdict.chain)
        return verdict

    return _open(f"no rule covers the pair ({fam_e} -> {fam_f})")


def chain_holds(links: List[SpaceSpec]) -> bool:
    """Replay a chain: every consecutive pair must be decided Holds."""
    return all(embeds(a, b).holds for a, b in zip(links, links[1:]))
