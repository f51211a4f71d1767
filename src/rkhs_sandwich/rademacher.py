"""Rademacher averages, sequence norms, and obstruction scans.

A scan takes an ObstructionRecipe (emitted with an Infeasible verdict),
builds the named witness family at each delta, computes the type or cotype
ratio between the sequence norm and the Rademacher average, and fits the
blow-up exponent from the log-log series.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .bumps import SignedSum, SmoothBumpMember, smooth_family, tent_family
from .norms import DEFAULT_CONFIG, NormFunctional, QuadratureConfig
from .spaces import DomainSpec


class ScanError(ValueError):
    pass


class DomainTooSmallError(ScanError):
    pass


class ModeError(ValueError):
    pass


@dataclass(frozen=True)
class RademacherEstimate:
    value: float
    stderr: Optional[float]  # None in exhaustive mode
    mode: str
    patterns: int


def _members_of(family) -> List:
    if hasattr(family, "members"):
        return list(family.members)
    return list(family)


def rademacher_norm(family, functional: NormFunctional, domain: DomainSpec,
                    mode: str = "exhaustive",
                    config: QuadratureConfig = DEFAULT_CONFIG,
                    seed: Union[int, np.random.Generator, None] = None
                    ) -> RademacherEstimate:
    """E || sum_i eps_i f_i ||_F over independent uniform signs.

    Exhaustive mode averages all 2^n patterns (n <= 20); monte-carlo mode
    draws config.mc_samples patterns from a seeded generator and reports the
    standard error of the mean.  seed may also be a numpy Generator that the
    caller shares across calls: it is used as is, so consecutive calls draw
    consecutive stretches of one sign stream.
    """
    members = _members_of(family)
    n = len(members)
    if n == 0:
        raise ValueError("empty family")
    if mode == "exhaustive":
        if n > 20:
            raise ModeError(f"exhaustive mode supports n <= 20, got {n}")
        patterns = itertools.product((1, -1), repeat=n)
    elif mode == "monte-carlo":
        rng = np.random.default_rng(seed)
        patterns = ([int(s) for s in rng.choice((1, -1), size=n)]
                    for _ in range(config.mc_samples))
    else:
        raise ModeError(f"unknown mode {mode!r}")
    # every pattern shares one member-value matrix per point set
    base = SignedSum(members, [1] * n)
    vals = [functional(base.with_signs(signs), domain, config)
            for signs in patterns]
    stderr = None
    if mode == "monte-carlo":
        stderr = float(np.std(vals, ddof=1) / math.sqrt(len(vals))) \
            if len(vals) > 1 else 0.0
    return RademacherEstimate(float(np.mean(vals)), stderr, mode, len(vals))


def seq_l2_norm(family, functional: NormFunctional, domain: DomainSpec,
                config: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """(sum_i ||f_i||_F^2)^(1/2)."""
    members = _members_of(family)
    return math.sqrt(sum(functional(m, domain, config) ** 2 for m in members))


@dataclass(frozen=True)
class ScanSeries:
    points: Tuple[Tuple[float, int, float], ...]  # (delta, n, ratio)
    fitted_slope: float
    residual: float
    mode: str
    log_axis: str  # "1/delta" or "n"

    def to_csv(self) -> str:
        lines = ["delta,n,ratio,mode"]
        for delta, n, ratio in self.points:
            lines.append(f"{delta},{n},{ratio},{self.mode}")
        return "\n".join(lines) + "\n"


def _fit(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    coeffs, res = np.polyfit(xs, ys, 1, full=True)[:2]
    residual = float(res[0]) if len(res) else 0.0
    return float(coeffs[0]), residual


def _check_deltas(deltas: List[Fraction]) -> None:
    if len(deltas) < 2:
        raise ScanError("a scan needs at least two deltas")
    if any(not 0 < dl <= Fraction(1, 2) for dl in deltas):
        raise ScanError("deltas must lie in (0, 1/2]")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ScanError("deltas must be strictly decreasing")


def _sign_config(n: int, config: QuadratureConfig) -> QuadratureConfig:
    """config with mc_samples capped so that a scan's total functional
    evaluations stay bounded for large families."""
    if n * config.mc_samples <= 20000:
        return config
    return replace(config, mc_samples=max(4, 20000 // n))


def scan(recipe, E_functional: NormFunctional, F_functional: NormFunctional,
         deltas: Sequence, domain: Optional[DomainSpec] = None,
         seed: Optional[int] = None,
         config: QuadratureConfig = DEFAULT_CONFIG) -> ScanSeries:
    """Evaluate the blow-up ratio of an obstruction recipe along deltas.

    type-2: E||sum eps_i f_i||_F / (sum ||f_i||_E^2)^(1/2); cotype-2:
    (sum ||f_i||_F^2)^(1/2) / E||sum eps_i f_i||_E.  Only the averaged side
    sees signed sums, and only the sequence side bare members;
    recipe_functionals gives the recipe's own E and F.  The lp and indicator
    ratios are closed forms.  The point-cloud functionals (hoelder, sup) are
    lower bounds, so a ratio errs low where they sit in its numerator and
    high where they sit in its denominator: the tent cotype ratio puts an
    average of hoelder_norm's certified lower bounds under an exact
    numerator (each tent peaks at its center, which the cloud holds), so up
    to sampling it can only overstate the true ratio.

    Against sup, the tent ratio does not depend on the signs: the tents
    (r^alpha - |x-c|^alpha)_+, r^alpha = delta/3, are packed delta apart in
    |x-y|^alpha, so their centers are at least 3^(1/alpha) r apart.  At
    depths a, b <= r inside two supports, |g| <= a^alpha, b^alpha (t^alpha
    is subadditive), so a quotient across bumps is at most (a^alpha +
    b^alpha) / ((3^(1/alpha) - 2) r + a + b)^alpha <= 2/3, its value at
    a = b = r.  Within a bump it is at most 1, attained by a center and its
    witness.  Every pattern's Hoelder norm is 1 and the ratio is
    sqrt(n) delta/3; scan still evaluates every pattern it draws.

    The fitted slope estimates recipe.predicted_exponent; the log axis is n
    for sequence-space recipes and 1/delta otherwise.  One sign stream,
    seeded once from seed, runs through every delta in order, so the signs
    drawn at a delta depend on the deltas before it.
    """
    if recipe.predicted_exponent <= 0:
        raise ScanError("scan requires a strictly positive predicted exponent")
    deltas = [Fraction(dl) for dl in deltas]
    _check_deltas(deltas)
    at_delta = _AT_DELTA.get(recipe.construction)
    if at_delta is None:
        raise ScanError(f"unknown construction {recipe.construction!r}")
    rad_fun, seq_fun = _sides(recipe, E_functional, F_functional)
    rng = np.random.default_rng(seed)
    pts = []
    for dl in deltas:
        n, rad, seq = at_delta(recipe, dl, rad_fun, seq_fun, domain, rng, config)
        pts.append((float(dl), n, rad / seq if recipe.mode == "type2" else seq / rad))
    log_axis = "n" if recipe.construction == "lp-unit-vectors" else "1/delta"
    xs = [math.log(n if log_axis == "n" else 1 / dl) for dl, n, _ in pts]
    slope, res = _fit(xs, [math.log(r) for _, _, r in pts])
    return ScanSeries(tuple(pts), slope, res, recipe.mode, log_axis)


def _sides(recipe, e_side, f_side):
    """(averaged side, sequence side) of the recipe's ratio."""
    return (f_side, e_side) if recipe.mode == "type2" else (e_side, f_side)


def _unit_vectors_at(recipe, dl, rad_fun, seq_fun, domain, rng,
                     config) -> Tuple[int, float, float]:
    r, _ = _sides(recipe, float(recipe.params["p"]), float(recipe.params["q"]))
    n = round(1 / dl)
    # |sum eps_i e_i|_r is sign-independent, and each e_i has norm 1 in any lp
    return n, float(np.linalg.norm(np.ones(n), r)), math.sqrt(n)


def _indicators_at(recipe, dl, rad_fun, seq_fun, domain, rng,
                   config) -> Tuple[int, float, float]:
    _, r = _sides(recipe, float(recipe.params["p"]), float(recipe.params["q"]))
    d = int(recipe.params["d"])
    n_grid = round(1 / dl)
    m = n_grid ** d  # cells of the partition of the unit cube
    cell_vol = n_grid ** (-d)
    # |sum eps_i 1_{A_i}| is identically 1 on the cube for every pattern
    return m, 1.0, math.sqrt(m) * cell_vol ** (1 / r)


def _tent_cloud(centers: np.ndarray, width: float, alpha: float,
                domain: Optional[DomainSpec] = None) -> np.ndarray:
    """Centers plus one in-support witness per bump at distance r =
    width^(1/alpha): the center stepped by r along the first of +x0, -x0,
    +x1, -x1, ... whose endpoint lies in the open domain (by default the
    unit cube)."""
    r = width ** (1.0 / alpha)
    witness = centers.copy()
    todo = np.arange(len(centers))
    for k in range(centers.shape[1]):
        for step in (r, -r):
            moved = witness[todo]
            moved[:, k] += step
            ok = _inside(moved, domain)
            witness[todo[ok]] = moved[ok]
            todo = todo[~ok]
    if len(todo):
        raise DomainTooSmallError(f"no axis step of {r} keeps a tent witness "
                                  "inside the domain")
    return np.vstack([centers, witness])


def _inside(points: np.ndarray, domain: Optional[DomainSpec]) -> np.ndarray:
    """Which points lie in the open unit cube (domain None or a cube) or in
    the open ball."""
    if domain is None or domain.kind == "unit-cube":
        return np.all((points > 0.0) & (points < 1.0), axis=1)
    if domain.kind == "euclidean-ball":
        return np.einsum("ij,ij->i", points, points) < float(domain.radius) ** 2
    raise ScanError(f"tent witnesses need a cube or ball domain, not {domain.kind!r}")


def _tents_at(recipe, dl, rad_fun, seq_fun, domain, rng,
              config) -> Tuple[int, float, float]:
    if domain is None:
        raise ScanError("tent-bump scans need an explicit domain")
    alpha = recipe.params["alpha"].as_fraction()
    # tents of height dl/3 on centers packed dl apart in d^alpha
    fam = tent_family(domain, dl / 3, alpha)
    n = fam.n
    if n < 2:
        raise DomainTooSmallError(
            f"packing at delta={dl} yields fewer than 2 centers")
    cloud = _tent_cloud(fam.centers, float(dl) / 3, float(alpha), domain)
    members = fam.members
    # each member's sequence-side norm on its own center/witness pair
    seq = math.sqrt(sum(
        replace(seq_fun, points=cloud[[i, n + i]])(m, domain, config) ** 2
        for i, m in enumerate(members)))
    rad = rademacher_norm(members, replace(rad_fun, points=cloud), domain,
                          "monte-carlo", _sign_config(n, config), seed=rng).value
    return n, rad, seq


def _smooth_at(recipe, dl, rad_fun, seq_fun, domain, rng,
               config) -> Tuple[int, float, float]:
    d = int(recipe.params["d"])
    if recipe.params.get("unbounded"):
        # fixed-size bumps marching along the first axis; n grows with 1/delta
        n = round(1 / dl)
        centers = np.zeros((n, d))
        centers[:, 0] = 3.0 * np.arange(n)
        members = [SmoothBumpMember(d, c, 1.0) for c in centers]
    else:
        fam = smooth_family(d, dl)
        members = fam.members
        n = len(members)
        if n < 2:
            raise DomainTooSmallError(
                f"bump packing at delta={dl} yields fewer than 2 members")
        # the family lives on its own ball regardless of the queried
        # domain; evaluate the norms where the bumps actually sit
        domain = fam.domain
    seq = seq_l2_norm(members, seq_fun, domain, config)
    rad = rademacher_norm(members, rad_fun, domain, "monte-carlo",
                          _sign_config(n, config), seed=rng).value
    return n, rad, seq


# construction -> (recipe, delta, averaged side, sequence side, domain, rng,
# config) -> (n, Rademacher average, sequence norm)
_AT_DELTA = {
    "lp-unit-vectors": _unit_vectors_at,
    "Lp-indicator-partition": _indicators_at,
    "hoelder-tent-bumps": _tents_at,
    "smooth-scaled-bumps": _smooth_at,
}


def recipe_functionals(recipe) -> Tuple[Optional[NormFunctional], ...]:
    """The (E, F) functionals that scan measures recipe with; None for the
    closed-form sequence and indicator constructions.  A tent recipe takes
    the Hoelder norms of exponents alpha and beta (sup for beta = 0)."""
    if recipe.construction == "hoelder-tent-bumps":
        alpha, beta = float(recipe.params["alpha"]), float(recipe.params["beta"])
        target = NormFunctional("hoelder", holder_exponent=beta) if beta > 0 \
            else NormFunctional("sup")
        return NormFunctional("hoelder", holder_exponent=alpha), target
    if recipe.construction == "smooth-scaled-bumps":
        return NormFunctional("sup"), NormFunctional("sup")
    return None, None
