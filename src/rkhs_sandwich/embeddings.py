"""Three-valued rule engine for continuous embeddings between space descriptors.

The engine answers Holds / Fails / Undetermined.  Fails is only emitted for
the integer Sobolev equivalence (R6), for a Besov / Triebel-Lizorkin pair
that lowers p on R^d (Rd-integrability) or lies below the embedding line
s - t >= (d/p1 - d/p2)_+ (embedding-line); everything else the rule set
cannot settle is Undetermined, never Fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .spaces import BOUNDED_TARGETS, DomainError, SpaceSpec, _identified
from .xrational import INF, ExtRational, pos_part, xr

HOLDS = "Holds"
FAILS = "Fails"
UNDETERMINED = "Undetermined"

_TWO = xr(2)
_BESOV_TL = ("besov", "triebel-lizorkin")

# every rule id an embedding or a decision can cite, with the mathematical
# statement it stands for; a compound tag such as "R11+R3+R4" cites each part
RULES: Dict[str, str] = {
    "identity": "a space embeds into itself",
    "R1": "Triebel-Lizorkin: s > t and s - t >= d/p1 - d/p2",
    "R2": "Besov: s > t and s - t > d/p1 - d/p2",
    "R3": "same smoothness, integration index decreases (p1 >= p2), equal "
          "fein index; Triebel-Lizorkin needs a finite fein index",
    "R4": "same smoothness and integration index, fein index increases; any "
          "fein change is free once s > t at equal p",
    "R5": "cross-scale (Besov vs Triebel-Lizorkin): s > t and "
          "s - t > d/p1 - d/p2 strictly",
    "R6": "integer Sobolev on a bounded domain: holds iff s >= t and "
          "s - t >= d/p1 - d/p2",
    "R7": "Hoelder on a bounded metric space: alpha >= beta",
    "R8": "sequence spaces: lp into lq iff p <= q",
    "R9": "Lebesgue on a bounded domain: Lp into Lq for q <= p",
    "R10": "supercritical smoothness s > d/p embeds into bounded continuous "
           "functions",
    "embedding-line": "Besov / Triebel-Lizorkin: no embedding below the line "
                      "s - t >= (d/p1 - d/p2)_+",
    "Rd-integrability": "on R^d no Sobolev, Besov or Triebel-Lizorkin space "
                        "embeds into one of lower integration index: p1 <= p2",
    "R11": "identifications: Sobolev, Slobodeckij, and Hoelder rewrite onto "
           "the Besov / Triebel-Lizorkin scale",
    "lp-iff": "an intermediate RKHS between lp and lq exists iff p <= 2 <= q, "
              "witnessed by l2",
    "Lp-iff": "an intermediate RKHS between Lp and Lq on a bounded domain "
              "exists iff q <= 2 <= p, witnessed by L2",
    "holder-packing": "for a Hoelder pair the smoothness gap must satisfy "
                      "2(alpha - beta) >= k, k the packing exponent of the "
                      "domain; above the threshold a fractional W^u_2 fits",
    "slobodeckij-threshold": "the gap s - t against the deficiency "
                             "(d/p1 - d/2)_+ + (d/2 - d/p2)_+ decides the "
                             "fractional scale; admissible u fill an interval",
    "besov-tl-threshold": "the gap s - t against the deficiency decides the "
                          "Besov / Triebel-Lizorkin scale",
    "mixed-necessity": "coherent-set smoothness yields the necessary "
                       "condition |A|1 - |B|1 >= deficiency; no sufficiency",
    "c0-threshold": "against the bounded functions the threshold is "
                    "(d/p - d/2)_+ + d/2 on the source smoothness",
    "unbounded-domain": "no RKHS with bounded kernel sits above smooth "
                        "functions on an unbounded Euclidean domain",
    "unmatched": "no decision rule covers the queried pair",
}


def cite(tag: str) -> List[Tuple[str, str]]:
    """The (rule id, statement) pairs a tag cites; ValueError on an id
    outside RULES."""
    try:
        return [(part, RULES[part]) for part in tag.split("+")]
    except KeyError as exc:
        raise ValueError(f"unknown rule id {exc.args[0]!r} in tag {tag!r}") from None


@dataclass(frozen=True)
class EmbedVerdict:
    status: str
    rule: Optional[str] = None
    reason: Optional[str] = None

    def __post_init__(self):
        if self.status in (HOLDS, FAILS) and not self.rule:
            raise ValueError(f"{self.status} verdicts must carry a rule tag")
        if self.status == UNDETERMINED and not self.reason:
            raise ValueError("Undetermined verdicts must carry a reason")
        if self.rule is not None:
            cite(self.rule)

    @property
    def holds(self) -> bool:
        return self.status == HOLDS


def _holds(rule: str) -> EmbedVerdict:
    return EmbedVerdict(HOLDS, rule=rule)


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
        return _identified("triebel-lizorkin", spec.domain, spec.s, spec.p, _TWO)
    if fam == "slobodeckij":
        q = _TWO if spec.s.is_integer() else spec.p
        return _identified("triebel-lizorkin", spec.domain, spec.s, spec.p, q)
    if fam == "holder" and spec.domain.kind != "finite-metric-set":
        return _identified("besov", spec.domain, spec.s, INF, INF)
    if fam == "besov" and spec.p.is_finite and spec.p == spec.q:
        return _identified("triebel-lizorkin", spec.domain, spec.s, spec.p, spec.q)
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
            return _holds("R3+R4")
    if not same_family and s > t and s - t > gap_needed:
        return _holds("R5")
    return _open("no smoothness-scale rule applies to this parameter combination")


def embeds(E: SpaceSpec, F: SpaceSpec) -> EmbedVerdict:
    """Decide whether the continuous embedding E -> F holds.

    Rule order: identity, integrability on R^d, integer-Sobolev equivalence
    (R6), sequence (R8), Lebesgue (R9), direct Hoelder inclusion (R7), bounded
    targets (R10), then family identifications (R11) followed by the Besov/TL
    rules R1-R5, and Fails below the embedding line where none of them holds.
    """
    if E.domain != F.domain:
        raise DomainError("embedding endpoints must share a domain")

    if E == F:
        return _holds("identity")

    fam_e, fam_f = E.family, F.family
    src, dst = rewrite_identifications(E), rewrite_identifications(F)
    smooth = src.family in _BESOV_TL and dst.family in _BESOV_TL

    # on R^d the translates of one bump span l_p1 in E and l_p2 in F
    # (Triebel, Theory of Function Spaces, 1983, 2.7.1)
    if smooth and not E.domain.bounded and src.p > dst.p:
        return _fails("Rd-integrability")

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

    if fam_f in BOUNDED_TARGETS:
        if fam_e == "holder":
            return _holds("R7")  # alpha-Hoelder functions are bounded
        if src.family in _BESOV_TL:
            d = _dim(E)
            if src.s > d / src.p:
                return _holds("R10")
            return _open("bounded target needs s > d/p; condition not met")
        return _open(f"no bounded-target rule for family {fam_e}")

    if smooth:
        if src == dst:
            return _holds("R11")
        verdict = _smooth_pair(src, dst)
        if verdict.holds and (src is not E or dst is not F):
            tag = verdict.rule if verdict.rule.startswith("R11") else f"R11+{verdict.rule}"
            return _holds(tag)
        # no rule of _smooth_pair holds below the line, so only an open
        # verdict needs the check
        d = _dim(E)
        if not verdict.holds and src.s - dst.s < pos_part(d / src.p - d / dst.p):
            return _fails("embedding-line")
        return verdict

    return _open(f"no rule covers the pair ({fam_e} -> {fam_f})")


def chain_holds(links: List[SpaceSpec]) -> bool:
    """Replay a chain: every consecutive pair must be decided Holds."""
    return all(embeds(a, b).holds for a, b in zip(links, links[1:]))
