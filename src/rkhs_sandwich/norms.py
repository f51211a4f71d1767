"""Norm functionals for the numerical lab.

Three numerical strategies, chosen per norm:
  * Lp norms of derivatives: adaptive midpoint tensor quadrature over the
    support boxes, doubling resolution until two consecutive refinements agree.
  * Slobodeckij seminorms: midpoint rule over non-touching cell pairs, with
    the diagonal band refined recursively and the residual band bounded by a
    local-Lipschitz tail integral that is added as an explicit correction.
  * Hoelder norms: a certified lower bound over a finite point cloud (every
    reported quotient is attained by a concrete pair).  A k-d tree selects
    the pairs: a pair at distance >= r has quotient <= 2 sup|g| / r^alpha,
    so only pairs closer than the r at which that bound meets the best
    quotient already found are examined, and the result equals the maximum
    over all pairs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .spaces import DomainSpec


class NormError(ValueError):
    pass


class AccuracyError(NormError):
    """Raised when the requested tolerance cannot be certified; carries the
    tolerance that was achieved."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved tolerance ~{achieved:.3e})")
        self.achieved = achieved


class DivergenceError(NormError):
    pass


@dataclass(frozen=True)
class QuadratureConfig:
    resolution: int = 64          # starting points per axis
    tolerance: float = 1e-5      # relative agreement between refinements
    max_resolution: int = 8192   # per-axis cap before giving up
    mc_samples: int = 64         # Monte Carlo sample count for sign averages

    def __post_init__(self):
        if self.resolution < 16:
            raise ValueError("resolution must be at least 16")
        if not 0 < self.tolerance <= 1e-3:
            raise ValueError("tolerance must lie in (0, 1e-3]")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be at least 1")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class NormFunctional:
    """A norm-like functional applied to sampled functions.

    kinds:
      lp-of-derivative(alpha, p)  -- ||d_alpha g||_Lp over the support
      slobodeckij(theta, p)       -- the Gagliardo double integral seminorm
      slobodeckij-norm(s, p)      -- full norm: max of derivative Lp norms up
                                     to order floor(s) plus the fractional
                                     seminorms of the top-order derivatives
      hoelder(alpha)              -- sup norm + best Hoelder quotient over a
                                     point cloud (certified lower bound)
      sup                          -- sup over a point cloud
    """

    kind: str
    alpha: Optional[Tuple[int, ...]] = None
    p: float = 2.0
    theta: float = 0.5
    s: float = 1.0
    holder_exponent: float = 1.0
    points: Optional[np.ndarray] = field(default=None, compare=False)

    def __call__(self, fn, domain: DomainSpec,
                 config: QuadratureConfig = DEFAULT_CONFIG) -> float:
        if self.kind == "lp-of-derivative":
            target = fn if self.alpha is None or sum(self.alpha) == 0 \
                else fn.derivative(self.alpha)
            return lp_norm(target, self.p, domain, config)
        if self.kind == "slobodeckij":
            return slobodeckij_seminorm(fn, self.theta, self.p, domain, config)
        if self.kind == "slobodeckij-norm":
            return slobodeckij_norm(fn, self.s, self.p, domain, config)
        if self.kind == "hoelder":
            pts = self.points if self.points is not None \
                else default_point_cloud(fn, domain)
            return hoelder_norm(fn, self.holder_exponent, pts)
        if self.kind == "sup":
            pts = self.points if self.points is not None \
                else default_point_cloud(fn, domain)
            return float(np.max(np.abs(fn(pts))))
        raise NormError(f"unknown functional kind {self.kind!r}")


# -- integration boxes -----------------------------------------------------

def _domain_box(domain: DomainSpec) -> Tuple[np.ndarray, np.ndarray]:
    d = domain.dimension
    if domain.kind == "unit-cube":
        return np.zeros(d), np.ones(d)
    if domain.kind == "euclidean-ball":
        r = float(domain.radius)
        return np.full(d, -r), np.full(d, r)
    raise NormError(f"no integration box for domain kind {domain.kind!r}")


def _support_boxes(fn, domain: DomainSpec) -> Optional[List[Tuple[np.ndarray, np.ndarray]]]:
    """fn's support boxes (a SignedSum's, or a member's one) clipped to the
    domain's box, left unclipped on R^d, without those that miss the domain;
    None when fn declares no support."""
    box = getattr(fn, "support_box", None)
    boxes = getattr(fn, "support_boxes", None if box is None else [box])
    if boxes is None:
        return None
    try:
        lo, hi = _domain_box(domain)
    except (NormError, AttributeError):
        lo, hi = -np.inf, np.inf
    boxes = [(np.maximum(blo, lo), np.minimum(bhi, hi)) for blo, bhi in boxes]
    return [(blo, bhi) for blo, bhi in boxes if np.all(bhi > blo)]


def _boxes_disjoint(boxes) -> bool:
    for (lo1, hi1), (lo2, hi2) in itertools.combinations(boxes, 2):
        if np.all(hi1 > lo2) and np.all(hi2 > lo1):
            return False
    return True


def _midpoint_grid(lo: np.ndarray, hi: np.ndarray, res: int) -> Tuple[np.ndarray, float]:
    d = len(lo)
    axes = [np.linspace(lo[k] + (hi[k] - lo[k]) / (2 * res),
                        hi[k] - (hi[k] - lo[k]) / (2 * res), res)
            for k in range(d)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    weight = float(np.prod((hi - lo) / res))
    return pts, weight


def lp_norm(fn, p: float, domain: DomainSpec,
            config: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """||fn||_Lp by adaptive midpoint quadrature over the support boxes."""
    if not (p > 0 and math.isfinite(p)):
        raise NormError("lp_norm needs a finite positive exponent")
    boxes = _support_boxes(fn, domain)
    if boxes is None or not _boxes_disjoint(boxes):
        boxes = [_domain_box(domain)]
    if not boxes:
        return 0.0
    d = len(boxes[0][0])
    cap = min(config.max_resolution, {1: 1 << 14, 2: 2048, 3: 256}.get(d, 64))
    res = config.resolution
    prev = None
    while res <= cap:
        total = 0.0
        for lo, hi in boxes:
            pts, w = _midpoint_grid(lo, hi, res)
            total += float(np.sum(np.abs(fn(pts)) ** p)) * w
        value = total ** (1.0 / p)
        if prev is not None:
            scale = max(value, prev, 1e-300)
            if abs(value - prev) / scale < config.tolerance:
                return value
        prev = value
        res *= 2
    achieved = abs(value - prev) / max(value, 1e-300) if prev is not None else math.inf
    raise AccuracyError(
        f"Lp quadrature did not converge below rel {config.tolerance:g} "
        f"at per-axis resolution {cap}", achieved)


# -- Hoelder ----------------------------------------------------------------

# midpoints per axis of the default cloud's global grid and of its grid on
# each support box
_CLOUD_PER_AXIS = 9
_CLOUD_LOCAL = 5
# nearest neighbours per active point whose quotients seed the pruning radius
_HOELDER_NEIGHBOURS = 8
# relative slack on the pruning bound, far above the rounding of the radius
# and of the tree's distances
_PRUNE_MARGIN = 1e-6
# candidate pairs examined per block (bounds memory when the radius is large)
_PAIRS_PER_BLOCK = 1 << 20


def default_point_cloud(fn, domain: DomainSpec) -> np.ndarray:
    """Coarse global grid plus a finer grid on each support box.

    Unbounded domains carry no global grid; the cloud then consists of the
    support boxes alone."""
    clouds = []
    try:
        pts, _ = _midpoint_grid(*_domain_box(domain), _CLOUD_PER_AXIS)
        clouds.append(pts)
    except (NormError, AttributeError):
        pass
    for blo, bhi in _support_boxes(fn, domain) or []:
        local_pts, _ = _midpoint_grid(blo, bhi, _CLOUD_LOCAL)
        clouds.append(local_pts)
        clouds.append((blo + bhi)[None, :] / 2)
    if not clouds:
        raise NormError("no point cloud available: unbounded domain and no "
                        "support boxes")
    return np.unique(np.vstack(clouds), axis=0)


def hoelder_norm(fn, alpha: float, points: np.ndarray) -> float:
    """max(sup |g|, max pair quotient |g(x)-g(y)| / |x-y|^alpha) over the cloud.

    Certified lower bound for the true norm: every term is attained.  Pairs
    where both values vanish contribute 0 and are skipped exactly, and so
    are coincident points.

    Only pairs that can beat the running best are examined.  best starts at
    sup |g| and the quotients to each active point's nearest neighbours; a
    pair at distance >= r has quotient <= 2 sup|g| / r^alpha, which is at
    most best for r = (2 sup|g| / best)^(1/alpha).  The pairs within that
    radius (widened by _PRUNE_MARGIN against rounding) come from a k-d tree,
    and their quotients are computed exactly as a dense pass would compute
    them, so the result equals the maximum over all pairs bit for bit.
    """
    if not 0 < alpha <= 1:
        raise NormError("Hoelder exponent must lie in (0, 1]")
    from scipy.spatial import cKDTree
    points = np.atleast_2d(np.asarray(points, dtype=float))
    vals = np.asarray(fn(points), dtype=float)
    sup = float(np.max(np.abs(vals))) if len(vals) else 0.0
    active = np.flatnonzero(vals != 0.0)
    if not len(active):
        return sup
    tree = cKDTree(points)
    k = min(_HOELDER_NEIGHBOURS + 1, len(points))  # the point itself is one
    near = tree.query(points[active], k=k)[1].reshape(-1)
    best = max(sup, _max_quotient(points, vals, np.repeat(active, k), near,
                                  alpha))
    ratio = 2.0 * sup / best * (1.0 + _PRUNE_MARGIN)
    # ratio ** (1/alpha) overflows beyond e^709; every pair is then in range
    radius = ratio ** (1.0 / alpha) if math.log(ratio) < 700.0 * alpha \
        else math.inf
    step = max(1, _PAIRS_PER_BLOCK // len(points))
    for start in range(0, len(active), step):
        idx = active[start:start + step]
        pairs = cKDTree(points[idx]).sparse_distance_matrix(
            tree, radius, output_type="ndarray")
        best = max(best, _max_quotient(points, vals, idx[pairs["i"]],
                                       pairs["j"], alpha))
    return best


def _max_quotient(points: np.ndarray, vals: np.ndarray, i: np.ndarray,
                  j: np.ndarray, alpha: float) -> float:
    """Largest |g(x_i)-g(x_j)| / |x_i-x_j|^alpha over the index pairs (i, j),
    0.0 for no pairs."""
    diff = np.take(points, i, axis=0) - np.take(points, j, axis=0)
    dist = np.linalg.norm(diff, axis=1)
    # coincident points (including i == j) contribute nothing
    dist[dist == 0.0] = np.inf
    quot = np.abs(np.take(vals, i) - np.take(vals, j)) / dist ** alpha
    return float(np.max(quot)) if len(quot) else 0.0


# -- Slobodeckij -------------------------------------------------------------

def _grid_values(fn, lo, hi, res: int, d: int) -> np.ndarray:
    pts, _ = _midpoint_grid(lo, hi, res)
    return np.asarray(fn(pts), dtype=float).reshape((res,) * d)


def _lex_positive_offsets(d: int, cheb_lo: int, cheb_hi: int):
    """Integer offset vectors with cheb_lo <= max|o_j| <= cheb_hi whose first
    nonzero component is positive (one representative per +-o pair)."""
    out = []
    for o in itertools.product(range(-cheb_hi, cheb_hi + 1), repeat=d):
        m = max(abs(c) for c in o)
        if not cheb_lo <= m <= cheb_hi:
            continue
        lead = next(c for c in o if c != 0)
        if lead > 0:
            out.append(o)
    return out


def _offset_band_sum(V: np.ndarray, offsets, h: np.ndarray, expo: float,
                     p: float, weight_by_cheb=None) -> float:
    """Sum over grid pairs at the given offsets of |V_a - V_b|^p / dist^expo,
    counted for both pair orders (symmetric double integral).  Shells listed
    in weight_by_cheb are scaled (used for half-weight band boundaries)."""
    total = 0.0
    for o in offsets:
        w = 1.0
        if weight_by_cheb:
            w = weight_by_cheb.get(max(abs(c) for c in o), 1.0)
        a_idx, b_idx = [], []
        for j, oj in enumerate(o):
            n = V.shape[j]
            a_idx.append(slice(max(oj, 0), n + min(oj, 0)))
            b_idx.append(slice(max(-oj, 0), n + min(-oj, 0)))
        diff = V[tuple(a_idx)] - V[tuple(b_idx)]
        dist = math.sqrt(sum((oj * hj) ** 2 for oj, hj in zip(o, h)))
        total += 2.0 * w * float(np.sum(np.abs(diff) ** p)) / dist ** expo
    return total


def _local_slope_mass(fn, lo, hi, res: int, d: int, p: float) -> float:
    """Integral of |grad g|^p by central differences on the base grid."""
    pts, _ = _midpoint_grid(lo, hi, res)
    h = float(np.min((hi - lo) / res))
    grad_sq = np.zeros(len(pts))
    for j in range(d):
        step = np.zeros(d)
        step[j] = h / 2
        gj = (np.asarray(fn(pts + step)) - np.asarray(fn(pts - step))) / h
        grad_sq += gj ** 2
    vol = float(np.prod((hi - lo) / res))
    return float(np.sum(np.sqrt(grad_sq) ** p)) * vol


def _sphere_direction_factor(d: int, p: float) -> float:
    """Surface integral over the unit sphere of |e . omega|^p."""
    from scipy.special import gamma as gamma_fn
    surface = d * unit_ball_volume(d)
    mean = gamma_fn((p + 1) / 2) * gamma_fn(d / 2) / \
        (math.sqrt(math.pi) * gamma_fn((p + d) / 2))
    return surface * mean


def slobodeckij_seminorm(fn, theta: float, p: float, domain: DomainSpec,
                         config: QuadratureConfig = DEFAULT_CONFIG,
                         base_resolution: Optional[int] = None,
                         box: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> float:
    """[g]_{theta,p} = (double integral of |g(x)-g(y)|^p / |x-y|^(theta p + d))^(1/p).

    Multilevel midpoint scheme: level k uses a grid of spacing h_k = h_0/2^k
    and accounts for pairs whose separation lies in the band (3 h_k, 6 h_k]
    (level 0 takes everything above 3 h_0).  The remaining near-diagonal
    region |y-x| <= rho_K is estimated to first order from the local slope:

        g(y)-g(x) ~ grad g(x).(y-x)  =>  inner integral
            ~ |grad g(x)|^p S(d,p) rho^((1-theta)p) / ((1-theta)p)

    with S(d,p) the spherical average factor; exact when g is locally linear
    at scale rho.  Refinement stops when two consecutive levels agree to the
    configured tolerance.  Raises DivergenceError when the band contributions
    grow under refinement (non-integrable diagonal) and AccuracyError when
    the levels fail to stabilize.
    """
    if not 0 < theta < 1:
        raise DivergenceError("the double integral diverges outside theta in (0,1)")
    if p < 1 or not math.isfinite(p):
        raise NormError("integrability exponent must be finite and >= 1")
    d = domain.dimension
    lo, hi = box if box is not None else _domain_box(domain)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    res = base_resolution or {1: 128, 2: 32, 3: 8}.get(d, 6)
    expo = theta * p + d
    tail_pow = (1.0 - theta) * p
    diag_coeff = _local_slope_mass(fn, lo, hi, res, d, p) * \
        _sphere_direction_factor(d, p) / tail_pow

    max_level = {1: 12, 2: 6, 3: 4}.get(d, 2)
    total = 0.0
    prev_band = None
    prev_estimate = None
    for level in range(0, max_level + 1):
        r = res << level
        h = (hi - lo) / r
        V = _grid_values(fn, lo, hi, r, d)
        vol2 = float(np.prod(h)) ** 2
        # annulus bookkeeping: level k owns separations in (3 h_k, 6 h_k]
        # (level 0 owns everything above 3 h_0).  Offset shells at cheb 3 and
        # 6 straddle a band boundary, so they enter with weight 1/2; the
        # bands then tile the off-diagonal region without gap or overlap.
        if level == 0:
            offsets = _lex_positive_offsets(d, 3, r - 1)
            weights = {3: 0.5}
        else:
            offsets = _lex_positive_offsets(d, 3, 6)
            weights = {3: 0.5, 6: 0.5}
        band = _offset_band_sum(V, offsets, h, expo, p, weights) * vol2
        total += band
        if level > 0:
            if prev_band is not None and band > prev_band * 1.01 and band > 1e-12:
                raise DivergenceError(
                    "near-diagonal contributions grow under refinement; the "
                    "seminorm integral appears to diverge")
            prev_band = band
        # remaining region: separations below 3 h_K per axis
        rho = 3.0 * math.sqrt(d) * float(np.max(h))
        estimate = (total + diag_coeff * rho ** tail_pow) ** (1.0 / p)
        rel_change = math.inf
        if prev_estimate is not None:
            scale = max(estimate, prev_estimate, 1e-300)
            rel_change = abs(estimate - prev_estimate) / scale
            if rel_change < config.tolerance:
                return estimate
        prev_estimate = estimate
    raise AccuracyError(
        "seminorm levels did not stabilize to the requested tolerance", rel_change)


def slobodeckij_norm(fn, s: float, p: float, domain: DomainSpec,
                     config: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Full scale norm: max over |alpha| <= floor(s) of the derivative Lp
    norms, plus (for fractional s) the theta-seminorms of the top order."""
    m = int(math.floor(s))
    theta = s - m
    if abs(theta) < 1e-12:
        m, theta = int(round(s)), 0.0
    d = domain.dimension
    best = 0.0
    for order in range(m + 1):
        for alpha in _multi_indices(d, order):
            g = fn if order == 0 else fn.derivative(alpha)
            best = max(best, lp_norm(g, p, domain, config))
    if theta > 0:
        for alpha in _multi_indices(d, m):
            g = fn if m == 0 else fn.derivative(alpha)
            best = max(best, slobodeckij_seminorm(g, theta, p, domain, config))
    return best


def _multi_indices(d: int, order: int) -> List[Tuple[int, ...]]:
    if d == 1:
        return [(order,)]
    out = []
    for head in range(order + 1):
        for rest in _multi_indices(d - 1, order - head):
            out.append((head,) + rest)
    return out


# -- radial integrals --------------------------------------------------------

def unit_ball_volume(d: int) -> float:
    from scipy.special import gamma as gamma_fn
    return math.pi ** (d / 2) / gamma_fn(d / 2 + 1)


def radial_integral(profile: Callable[[float], float], a: float, b: float,
                    d: int) -> float:
    """integral over {a <= |x| <= b} of profile(|x|) dx, via the surface
    measure d V_d r^(d-1).  Raises DivergenceError on non-convergence."""
    if not 0 <= a < b:
        raise NormError("need 0 <= a < b")
    import warnings
    from scipy.integrate import IntegrationWarning, quad
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            val, err = quad(lambda r: profile(r) * r ** (d - 1), a, b, limit=200)
        except IntegrationWarning as exc:
            raise DivergenceError(f"radial integral did not converge: {exc}")
    if not math.isfinite(val):
        raise DivergenceError("radial integral is not finite")
    return d * unit_ball_volume(d) * val
