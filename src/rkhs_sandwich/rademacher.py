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

    def __float__(self) -> float:
        return self.value


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
        vals = [functional(SignedSum(members, signs), domain, config)
                for signs in itertools.product((1, -1), repeat=n)]
        return RademacherEstimate(float(np.mean(vals)), None, "exhaustive", len(vals))
    if mode == "monte-carlo":
        rng = np.random.default_rng(seed)
        vals = []
        for _ in range(config.mc_samples):
            signs = [int(s) for s in rng.choice((1, -1), size=n)]
            vals.append(functional(SignedSum(members, signs), domain, config))
        vals = np.asarray(vals)
        stderr = float(np.std(vals, ddof=1) / math.sqrt(len(vals))) \
            if len(vals) > 1 else 0.0
        return RademacherEstimate(float(np.mean(vals)), stderr,
                                  "monte-carlo", len(vals))
    raise ModeError(f"unknown mode {mode!r}")


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


def _ratio(mode: str, rad_e: float, seq_e: float, rad_f: float,
           seq_f: float) -> float:
    # type-2 puts the F-side Rademacher average over the E-side sequence
    # norm; cotype-2 puts the F-side sequence norm over the E-side average
    if mode == "type2":
        return rad_f / seq_e
    return seq_f / rad_e


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
    rng = np.random.default_rng(seed)
    pts = []
    for dl in deltas:
        n, ratio = at_delta(recipe, dl, E_functional, F_functional, domain,
                            rng, config)
        pts.append((float(dl), n, ratio))
    log_axis = "n" if recipe.construction == "lp-unit-vectors" else "1/delta"
    xs = [math.log(n if log_axis == "n" else 1 / dl) for dl, n, _ in pts]
    slope, res = _fit(xs, [math.log(r) for _, _, r in pts])
    return ScanSeries(tuple(pts), slope, res, recipe.mode, log_axis)


def _unit_vectors_at(recipe, dl, E_functional, F_functional, domain, rng,
                     config) -> Tuple[int, float]:
    p, q = float(recipe.params["p"]), float(recipe.params["q"])
    n = round(1 / dl)
    ones = np.ones(n)
    rad_e = float(np.linalg.norm(ones, p))  # sign-independent
    rad_f = float(np.linalg.norm(ones, q))
    seq = math.sqrt(n)  # each basis vector has norm 1 in any lp
    return n, _ratio(recipe.mode, rad_e, seq, rad_f, seq)


def _indicators_at(recipe, dl, E_functional, F_functional, domain, rng,
                   config) -> Tuple[int, float]:
    p, q = float(recipe.params["p"]), float(recipe.params["q"])
    d = int(recipe.params["d"])
    n_grid = round(1 / dl)
    m = n_grid ** d  # cells of the partition of the unit cube
    cell_vol = n_grid ** (-d)
    # |sum eps_i 1_{A_i}| is identically 1 on the cube for every pattern
    rad_e = rad_f = 1.0
    seq_e = math.sqrt(m) * cell_vol ** (1 / p)
    seq_f = math.sqrt(m) * cell_vol ** (1 / q)
    return m, _ratio(recipe.mode, rad_e, seq_e, rad_f, seq_f)


def _tent_cloud(centers: np.ndarray, width: float, alpha: float) -> np.ndarray:
    """Centers plus one in-support witness per bump at distance width^(1/alpha)."""
    r = width ** (1.0 / alpha)
    witness = centers.copy()
    # step along the first axis, flipping direction near the far face
    step = np.where(witness[:, 0] + r < 1.0, r, -r)
    witness[:, 0] += step
    return np.vstack([centers, witness])


def _tents_at(recipe, dl, E_functional, F_functional, domain, rng,
              config) -> Tuple[int, float]:
    if domain is None:
        raise ScanError("tent-bump scans need an explicit domain")
    alpha = recipe.params["alpha"].as_fraction()
    # tents of height dl/3 on centers packed dl apart in d^alpha
    fam = tent_family(domain, dl / 3, alpha)
    n = fam.n
    if n < 2:
        raise DomainTooSmallError(
            f"packing at delta={dl} yields fewer than 2 centers")
    cloud = _tent_cloud(fam.centers, float(dl) / 3, float(alpha))
    e_fun = replace(E_functional, points=cloud)
    members = fam.members
    # per-member F norm on its own center/witness pair
    seq_f = math.sqrt(sum(
        replace(F_functional, points=cloud[[i, n + i]])(members[i], domain,
                                                        config) ** 2
        for i in range(n)))
    rad_e = rademacher_norm(members, e_fun, domain, "monte-carlo",
                            _sign_config(n, config), seed=rng).value
    return n, _ratio(recipe.mode, rad_e, math.nan, math.nan, seq_f)


def _smooth_at(recipe, dl, E_functional, F_functional, domain, rng,
               config) -> Tuple[int, float]:
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
    seq_e = seq_l2_norm(members, E_functional, domain, config)
    seq_f = seq_l2_norm(members, F_functional, domain, config)
    # only the side that _ratio reads for this mode is averaged
    rad_fun = F_functional if recipe.mode == "type2" else E_functional
    rad = rademacher_norm(members, rad_fun, domain, "monte-carlo",
                          _sign_config(n, config), seed=rng).value
    return n, _ratio(recipe.mode, rad, seq_e, rad, seq_f)


# construction -> (recipe, delta, E, F, domain, rng, config) -> (n, ratio)
_AT_DELTA = {
    "lp-unit-vectors": _unit_vectors_at,
    "Lp-indicator-partition": _indicators_at,
    "hoelder-tent-bumps": _tents_at,
    "smooth-scaled-bumps": _smooth_at,
}
