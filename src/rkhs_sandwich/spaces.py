"""Validated descriptors of function-space families and their domains."""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Tuple

from .xrational import INF, ExtRational, ParameterRangeError, xr


class ValidationError(ValueError):
    """Base class for descriptor validation failures."""


class DomainError(ValidationError):
    """Domain is malformed or incompatible with the requested family."""


class SmoothnessRangeError(ValidationError):
    """Smoothness parameter outside its allowed range."""


class IntegrabilityRangeError(ValidationError):
    """Integrability or fein index outside its allowed range."""


class CoherenceError(ValidationError):
    """A multi-index set is not coherent (downward closed)."""


@dataclass(frozen=True)
class CoherentSet:
    """A finite, downward-closed set of multi-indices in N0^d."""

    elements: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        elems = tuple(sorted(set(tuple(int(c) for c in a) for a in self.elements)))
        object.__setattr__(self, "elements", elems)
        if not elems:
            raise CoherenceError("coherent set must be nonempty")
        widths = {len(a) for a in elems}
        if len(widths) != 1:
            raise CoherenceError("multi-indices must share one dimension")
        if any(c < 0 for a in elems for c in a):
            raise CoherenceError("multi-index entries must be nonnegative")
        member = set(elems)
        for a in elems:
            for j, aj in enumerate(a):
                if aj > 0:
                    below = a[:j] + (aj - 1,) + a[j + 1:]
                    if below not in member:
                        raise CoherenceError(f"{a} present but {below} missing")

    @property
    def dimension(self) -> int:
        return len(self.elements[0])

    @property
    def max_order(self) -> ExtRational:
        """|A|_1: the largest total order in the set."""
        return xr(max(sum(a) for a in self.elements))


def coherent_closure(indices, d: int) -> CoherentSet:
    """Smallest coherent (downward-closed) superset of the given multi-indices."""
    indices = [tuple(int(c) for c in a) for a in indices]
    if not indices:
        raise CoherenceError("cannot close an empty index set")
    for a in indices:
        if len(a) != d:
            raise CoherenceError(f"multi-index {a} does not have dimension {d}")
        if any(c < 0 for c in a):
            raise CoherenceError(f"multi-index {a} has a negative entry")
    closed = set()
    for a in indices:
        for below in itertools.product(*(range(c + 1) for c in a)):
            closed.add(below)
    return CoherentSet(tuple(sorted(closed)))


_DOMAIN_KINDS = (
    "unit-cube",
    "euclidean-ball",
    "euclidean-space",
    "finite-metric-set",
    "sequence-index",
)


@dataclass(frozen=True)
class DomainSpec:
    """Where the functions live: a cube, ball, all of R^d, a finite metric
    space, or the index set of a sequence space."""

    kind: str
    dimension: Optional[int] = None
    metric_table: Optional[Tuple[Tuple[Fraction, ...], ...]] = None
    radius: Fraction = Fraction(1)  # euclidean-ball only

    def __post_init__(self):
        if self.kind not in _DOMAIN_KINDS:
            raise DomainError(f"unknown domain kind {self.kind!r}")
        if self.kind in ("sequence-index", "finite-metric-set"):
            if self.dimension is not None:
                raise DomainError(f"{self.kind} carries no dimension")
        elif not isinstance(self.dimension, int) or self.dimension < 1:
            raise DomainError(f"{self.kind} requires a positive integer dimension")
        if self.kind == "finite-metric-set":
            if self.metric_table is None:
                raise DomainError("finite-metric-set requires a metric table")
            t = tuple(tuple(Fraction(x) for x in row) for row in self.metric_table)
            object.__setattr__(self, "metric_table", t)
            n = len(t)
            if any(len(row) != n for row in t):
                raise DomainError("metric table must be square")
            for i in range(n):
                if t[i][i] != 0:
                    raise DomainError("metric table diagonal must be zero")
                for j in range(n):
                    if t[i][j] != t[j][i]:
                        raise DomainError("metric table must be symmetric")
                    if i != j and t[i][j] <= 0:
                        raise DomainError("off-diagonal distances must be positive")
            # t[i][j] <= t[i][k] + t[k][j] for every i, j, k, compared in
            # integers over the table's common denominator
            den = math.lcm(*(x.denominator for row in t for x in row))
            m = [[x.numerator * (den // x.denominator) for x in row] for row in t]
            for k, mk in enumerate(m):
                for mi in m:
                    if max(map(operator.sub, mi, mk)) > mi[k]:
                        raise DomainError("metric table violates the triangle inequality")
        if self.kind == "euclidean-ball":
            r = Fraction(self.radius)
            if r <= 0:
                raise DomainError("ball radius must be positive")
            object.__setattr__(self, "radius", r)

    @property
    def bounded(self) -> bool:
        return self.kind in ("unit-cube", "euclidean-ball", "finite-metric-set")


def cube(d: int) -> DomainSpec:
    return DomainSpec("unit-cube", d)


def ball(d: int, radius=1) -> DomainSpec:
    return DomainSpec("euclidean-ball", d, radius=Fraction(radius))


def whole_space(d: int) -> DomainSpec:
    return DomainSpec("euclidean-space", d)


def finite_metric(table) -> DomainSpec:
    """Finite metric space from a distance table."""
    return DomainSpec("finite-metric-set", metric_table=table)


SEQUENCE_INDEX = DomainSpec("sequence-index")


_FAMILIES = (
    "holder",
    "sobolev",
    "slobodeckij",
    "besov",
    "triebel-lizorkin",
    "mixed-sobolev",
    "sequence-lp",
    "lebesgue-lp",
    "sup",
    "continuous-bounded",
    "c-infinity",
)

# the families of bounded functions, decided as targets by their own rules
BOUNDED_TARGETS = ("sup", "continuous-bounded")

_EUCLIDEAN = ("unit-cube", "euclidean-ball", "euclidean-space")


@dataclass(frozen=True)
class SpaceSpec:
    """One function space: family tag plus exact parameters plus domain."""

    family: str
    domain: DomainSpec
    s: Optional[ExtRational] = None          # smoothness (alpha for holder)
    p: Optional[ExtRational] = None          # integrability index
    q: Optional[ExtRational] = None          # fein index
    indices: Optional[CoherentSet] = None    # mixed-sobolev only

    def __post_init__(self):
        for name in ("s", "p", "q"):
            v = getattr(self, name)
            if v is not None and not isinstance(v, ExtRational):
                object.__setattr__(self, name, xr(v))
        validate_space(self)

    def label(self) -> str:
        bits = [self.family]
        if self.indices is not None:
            bits.append("|".join(",".join(map(str, a)) for a in self.indices.elements))
        for v in (self.s, self.p, self.q):
            if v is not None:
                bits.append(str(v))
        return ":".join(bits)

    def __str__(self) -> str:
        return self.label()


def _identified(family: str, domain: DomainSpec, s: ExtRational, p: ExtRational,
                q: ExtRational) -> SpaceSpec:
    """The Besov / Triebel-Lizorkin spec that an identification maps a
    validated spec onto.  The identifications keep the domain and only move
    parameters that already passed the source family's checks into ranges
    the target family accepts, so validate_space is not run again."""
    spec = object.__new__(SpaceSpec)
    spec.__dict__.update(family=family, domain=domain, s=s, p=p, q=q, indices=None)
    return spec


def _require(cond: bool, err: type, msg: str) -> None:
    if not cond:
        raise err(msg)


def validate_space(spec: SpaceSpec) -> SpaceSpec:
    """Check every family invariant; raise a named error for the first
    violated one, otherwise return the spec unchanged."""
    fam, dom = spec.family, spec.domain
    _require(fam in _FAMILIES, ValidationError, f"unknown family {fam!r}")
    if fam != "mixed-sobolev":
        _require(spec.indices is None, ValidationError,
                 f"{fam} does not take a multi-index set")

    if fam == "holder":
        _require(spec.p is None and spec.q is None, IntegrabilityRangeError,
                 "holder takes only the exponent alpha")
        _require(spec.s is not None and spec.s.is_finite
                 and 0 < spec.s <= 1, SmoothnessRangeError,
                 "holder exponent alpha must lie in (0, 1]")
        _require(dom.kind != "sequence-index", DomainError,
                 "holder spaces need a metric domain")
    elif fam == "sobolev":
        _require(spec.s is not None and spec.s.is_finite and spec.s >= 0
                 and spec.s.is_integer(), SmoothnessRangeError,
                 "classical sobolev smoothness must be a nonnegative integer")
        _require(spec.p is not None and spec.p.is_finite and 1 < spec.p,
                 IntegrabilityRangeError, "sobolev requires p in (1, inf)")
        _require(dom.kind in _EUCLIDEAN, DomainError, "sobolev needs a Euclidean domain")
    elif fam == "slobodeckij":
        _require(spec.s is not None and spec.s.is_finite and spec.s >= 0,
                 SmoothnessRangeError, "slobodeckij smoothness must be finite and >= 0")
        _require(spec.p is not None and spec.p.is_finite and spec.p >= 1,
                 IntegrabilityRangeError, "slobodeckij requires p in [1, inf)")
        if spec.s.is_integer():
            _require(spec.p > 1, IntegrabilityRangeError,
                     "integer-smoothness slobodeckij requires p > 1")
        _require(dom.kind in _EUCLIDEAN, DomainError,
                 "slobodeckij needs a Euclidean domain")
    elif fam in ("besov", "triebel-lizorkin"):
        _require(spec.s is not None and spec.s.is_finite, SmoothnessRangeError,
                 f"{fam} smoothness must be finite")
        _require(spec.p is not None and spec.p >= 1, IntegrabilityRangeError,
                 f"{fam} requires p >= 1")
        _require(spec.q is not None and spec.q >= 1, IntegrabilityRangeError,
                 f"{fam} requires q >= 1")
        if fam == "triebel-lizorkin":
            _require(spec.p.is_finite, IntegrabilityRangeError,
                     "triebel-lizorkin integration index p must be finite")
        _require(dom.kind in _EUCLIDEAN, DomainError, f"{fam} needs a Euclidean domain")
    elif fam == "mixed-sobolev":
        _require(spec.indices is not None, CoherenceError,
                 "mixed-sobolev requires a coherent multi-index set")
        _require(spec.s is None and spec.q is None, ValidationError,
                 "mixed-sobolev smoothness is carried by the index set")
        _require(spec.p is not None and spec.p >= 1, IntegrabilityRangeError,
                 "mixed-sobolev requires p >= 1")
        _require(dom.kind in _EUCLIDEAN, DomainError,
                 "mixed-sobolev needs a Euclidean domain")
        _require(dom.dimension == spec.indices.dimension, DomainError,
                 "multi-index dimension must match the domain dimension")
    elif fam == "sequence-lp":
        _require(spec.p is not None and spec.p >= 1, IntegrabilityRangeError,
                 "sequence-lp requires p in [1, inf]")
        _require(spec.s is None and spec.q is None, ValidationError,
                 "sequence-lp takes only p")
        _require(dom.kind == "sequence-index", DomainError,
                 "sequence-lp lives on the sequence index set")
    elif fam == "lebesgue-lp":
        _require(spec.p is not None and spec.p >= 1, IntegrabilityRangeError,
                 "lebesgue-lp requires p in [1, inf]")
        _require(spec.s is None and spec.q is None, ValidationError,
                 "lebesgue-lp takes only p")
        _require(dom.kind in _EUCLIDEAN, DomainError,
                 "lebesgue-lp needs a Euclidean domain")
    elif fam in BOUNDED_TARGETS or fam == "c-infinity":
        _require(spec.s is None and spec.p is None and spec.q is None,
                 ValidationError, f"{fam} takes no numeric parameters")
    return spec


# -- constructors --------------------------------------------------------

def holder(alpha, domain: DomainSpec) -> SpaceSpec:
    return SpaceSpec("holder", domain, s=xr(alpha))


def sobolev(s, p, domain: DomainSpec) -> SpaceSpec:
    return SpaceSpec("sobolev", domain, s=xr(s), p=xr(p))


def slobodeckij(s, p, domain: DomainSpec) -> SpaceSpec:
    return SpaceSpec("slobodeckij", domain, s=xr(s), p=xr(p))


def besov(s, p, q, domain: DomainSpec) -> SpaceSpec:
    return SpaceSpec("besov", domain, s=xr(s), p=xr(p), q=xr(q))


def triebel_lizorkin(s, p, q, domain: DomainSpec) -> SpaceSpec:
    return SpaceSpec("triebel-lizorkin", domain, s=xr(s), p=xr(p), q=xr(q))


def mixed_sobolev(indices, p, domain: DomainSpec) -> SpaceSpec:
    if not isinstance(indices, CoherentSet):
        indices = CoherentSet(tuple(tuple(a) for a in indices))
    return SpaceSpec("mixed-sobolev", domain, p=xr(p), indices=indices)


def sequence_lp(p) -> SpaceSpec:
    return SpaceSpec("sequence-lp", SEQUENCE_INDEX, p=xr(p))


def lebesgue_lp(p, domain: DomainSpec) -> SpaceSpec:
    return SpaceSpec("lebesgue-lp", domain, p=xr(p))


def sup_space(domain: DomainSpec) -> SpaceSpec:
    return SpaceSpec("sup", domain)


def continuous_bounded(domain: DomainSpec) -> SpaceSpec:
    return SpaceSpec("continuous-bounded", domain)


def c_infinity(domain: DomainSpec) -> SpaceSpec:
    return SpaceSpec("c-infinity", domain)
