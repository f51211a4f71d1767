"""Norm functionals for the numerical lab.

Three numerical strategies, chosen per norm:
  * Lp norms of derivatives: adaptive midpoint tensor quadrature over the
    support boxes, from LP_RESOLUTION points per axis, doubling per level up
    to a per-axis cap for the dimension.
  * Slobodeckij seminorms: Gauss rules in the difference z = y - x, with
    Gauss-Jacobi in |z| absorbing the diagonal singularity, over a fixed
    sequence of node counts.
  * Hoelder norms: a certified lower bound over a finite point cloud (every
    reported quotient is attained by a concrete pair).  A k-d tree selects
    the pairs: a pair at distance >= r has quotient <= 2 sup|g| / r^alpha,
    so only pairs closer than the r at which that bound meets the best
    quotient already found are examined, and the result equals the maximum
    over all pairs.

Both quadratures stop by one rule (_converged): they return the first
level's or rule's estimate v whose relative change |v - prev| /
max(v, prev, 1e-300) from the one before is below the tolerance; when they
run out, AccuracyError carries the last such change.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .spaces import DomainSpec


class NormError(ValueError):
    pass


class AccuracyError(NormError):
    """Raised when the requested tolerance cannot be certified; achieved is
    the last relative change between refinements (inf after one or none)."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved tolerance ~{achieved:.3e})")
        self.achieved = achieved


class DivergenceError(NormError):
    pass


@dataclass(frozen=True)
class QuadratureConfig:
    """Settings of the lab: the quadratures' tolerance and the sign averages'
    sample count.

    lp_norm and slobodeckij_seminorm read tolerance; each grows its rule
    along a fixed sequence up to a fixed cap per dimension (lp_norm's is
    _LP_CAPS).  mc_samples is read by rademacher_norm, not by the
    quadratures: a family of n members draws min(mc_samples,
    max(4, 20000 // n)) sign patterns.
    """

    tolerance: float = 1e-5      # relative agreement between refinements
    mc_samples: int = 64         # Monte Carlo sample count for sign averages

    def __post_init__(self):
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
      slobodeckij-norm(s, p)      -- full norm: one max over the derivative
                                     Lp norms up to order floor(s) and the
                                     fractional seminorms of the top-order
                                     derivatives
      hoelder(alpha)              -- sup norm + best Hoelder quotient over a
                                     point cloud (certified lower bound)
      sup                          -- sup over a point cloud

    The point-cloud kinds (hoelder, sup) also take an fn whose values at the
    points form a points x k array, and then return one value per column.
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
            vals = np.abs(fn(pts))
            return float(np.max(vals)) if vals.ndim == 1 else np.max(vals, axis=0)
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


def _support_boxes(fn, domain: DomainSpec, clip=None) -> Optional[List[tuple]]:
    """fn's support boxes (a SignedSum's, or a member's one) clipped to the
    box clip, by default the domain's box, left unclipped on R^d, without
    those that miss it, as (lo, hi, owner): owner is the member whose box it
    is, for a SignedSum, and fn itself otherwise; None when fn declares no
    support."""
    box = getattr(fn, "support_box", None)
    boxes = getattr(fn, "support_boxes", None if box is None else [box])
    if boxes is None:
        return None
    owners = getattr(fn, "members", None) or [fn] * len(boxes)
    try:
        lo, hi = clip if clip is not None else _domain_box(domain)
    except (NormError, AttributeError):
        lo, hi = -np.inf, np.inf
    boxes = [(np.maximum(blo, lo), np.minimum(bhi, hi), g)
             for (blo, bhi), g in zip(boxes, owners)]
    return [(blo, bhi, g) for blo, bhi, g in boxes if np.all(bhi > blo)]


def _converged(estimates, tolerance: float, message: str) -> float:
    """The first per-level estimate that meets the stopping rule above."""
    prev, change = None, math.inf
    for value in estimates:
        if prev is not None:
            change = abs(value - prev) / max(value, prev, 1e-300)
            if change < tolerance:
                return value
        prev = value
    raise AccuracyError(message, change)


def _boxes_disjoint(boxes) -> bool:
    for (lo1, hi1, *_), (lo2, hi2, *_) in itertools.combinations(boxes, 2):
        if np.all(hi1 > lo2) and np.all(hi2 > lo1):
            return False
    return True


def _midpoint_grid(lo: np.ndarray, hi: np.ndarray, res: int) -> Tuple[np.ndarray, float]:
    """The res^d cell midpoints of the box in C order (last axis fastest),
    one row per point, and the cell volume."""
    d = len(lo)
    pts = np.empty((res,) * d + (d,))
    for k in range(d):
        axis = np.linspace(lo[k] + (hi[k] - lo[k]) / (2 * res),
                           hi[k] - (hi[k] - lo[k]) / (2 * res), res)
        pts[..., k] = axis.reshape((res,) + (1,) * (d - 1 - k))
    weight = float(np.prod((hi - lo) / res))
    return pts.reshape(-1, d), weight


# lp_norm starts at LP_RESOLUTION points per axis and doubles them per level
# up to its per-axis cap: LP_MAX_RESOLUTION in d = 1, then 2048 and 256 in
# d = 2 and 3; a level evaluates res^d points, so d >= 4 runs none and
# refuses at once
LP_RESOLUTION = 64
LP_MAX_RESOLUTION = 8192
_LP_CAPS = {1: LP_MAX_RESOLUTION, 2: 2048, 3: 256}


def lp_norm(fn, p: float, domain: DomainSpec,
            config: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """||fn||_Lp by adaptive midpoint quadrature over the support boxes; on
    a ball domain the integrand is zero at grid points off the open ball.

    Disjoint boxes of a SignedSum are each integrated against the member
    that owns the box: a member vanishes outside its box, so at the box's
    grid points the sum equals +-that member and |sum|^p = |member|^p, bit
    for bit.  Overlapping supports, or none declared, integrate fn over the
    domain's box."""
    if not (p > 0 and math.isfinite(p)):
        raise NormError("lp_norm needs a finite positive exponent")
    boxes = _support_boxes(fn, domain)
    if boxes is None or not _boxes_disjoint(boxes):
        boxes = [(*_domain_box(domain), fn)]
    if not boxes:
        return 0.0
    d = len(boxes[0][0])
    cap = _LP_CAPS.get(d, 0)
    r2 = float(domain.radius) ** 2 if domain.kind == "euclidean-ball" else None

    def levels():
        res = LP_RESOLUTION
        while res <= cap:
            total = 0.0
            for lo, hi, g in boxes:
                pts, w = _midpoint_grid(lo, hi, res)
                vals = np.abs(g(pts)) ** p
                if r2 is not None:
                    vals = np.where(np.einsum("ij,ij->i", pts, pts) < r2, vals, 0.0)
                total += float(np.sum(vals)) * w
            yield total ** (1.0 / p)
            res *= 2

    return _converged(levels(), config.tolerance,
                      f"Lp quadrature did not converge below rel "
                      f"{config.tolerance:g} at per-axis resolution {cap} "
                      f"in dimension {d}")


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
# candidate pairs x columns examined per block (bounds memory when the
# radius is large)
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
    for blo, bhi, _ in _support_boxes(fn, domain) or []:
        local_pts, _ = _midpoint_grid(blo, bhi, _CLOUD_LOCAL)
        clouds.append(local_pts)
        clouds.append((blo + bhi)[None, :] / 2)
    if not clouds:
        raise NormError("no point cloud available: unbounded domain and no "
                        "support boxes")
    return np.unique(np.vstack(clouds), axis=0)


def hoelder_norm(fn, alpha: float, points: np.ndarray):
    """max(sup |g|, max pair quotient |g(x)-g(y)| / |x-y|^alpha) over the cloud.

    fn(points) gives the values of g at the points, or a points x k array
    of the values of k functions: a 1-D array gives a float, a 2-D array one
    value per column, each equal to the 1-column call on it.

    Certified lower bound for the true norm: every term is attained.  Pairs
    where both values vanish contribute 0 and are skipped exactly, and so
    are coincident points.

    Only pairs that can beat the running best are examined.  A column's best
    starts at its sup |g| and its quotients to the nearest neighbours of the
    points where some column is nonzero; a pair at distance >= r has
    quotient <= 2 sup|g| / r^alpha, which is at most best for
    r = (2 sup|g| / best)^(1/alpha).  The pairs within the largest column's
    radius (widened by _PRUNE_MARGIN against rounding) come from one k-d
    tree search, in blocks of at most _PAIRS_PER_BLOCK pairs x columns
    counted beforehand.  Their quotients are computed exactly as a dense
    pass would compute them, the same for (i, j) as for (j, i), so each
    column's result equals the maximum over all its pairs bit for bit.
    """
    if not 0 < alpha <= 1:
        raise NormError("Hoelder exponent must lie in (0, 1]")
    from scipy.spatial import cKDTree
    points = np.atleast_2d(np.asarray(points, dtype=float))
    vals = np.asarray(fn(points), dtype=float)
    cols = vals[:, None] if vals.ndim == 1 else vals
    sup = np.max(np.abs(cols), axis=0, initial=0.0)
    best = sup
    active = np.flatnonzero((cols != 0.0).any(axis=1))
    if len(active):
        tree = cKDTree(points)
        k = min(_HOELDER_NEIGHBOURS + 1, len(points))  # the point itself is one
        near = tree.query(points[active], k=k)[1].reshape(-1)
        best = np.maximum(best, _max_quotients(points, cols, np.repeat(active, k),
                                               near, alpha))
        # the largest radius of a nonzero column (a zero column stays 0.0)
        live = sup > 0.0
        ratio = float(np.max(2.0 * sup[live] / best[live] * (1.0 + _PRUNE_MARGIN)))
        # ratio ** (1/alpha) overflows beyond e^709; every pair is then in range
        radius = ratio ** (1.0 / alpha) if math.log(ratio) < 700.0 * alpha \
            else math.inf
        cost = np.cumsum(tree.query_ball_point(points[active], radius,
                                               return_length=True)) * cols.shape[1]
        start = 0
        while start < len(active):
            stop = max(start + 1, int(np.searchsorted(
                cost, (cost[start - 1] if start else 0) + _PAIRS_PER_BLOCK,
                side="right")))
            idx = active[start:stop]
            pairs = cKDTree(points[idx]).sparse_distance_matrix(
                tree, radius, output_type="ndarray")
            best = np.maximum(best, _max_quotients(points, cols, idx[pairs["i"]],
                                                   pairs["j"], alpha))
            start = stop
    return float(best[0]) if vals.ndim == 1 else best


def _max_quotients(points: np.ndarray, cols: np.ndarray, i: np.ndarray,
                   j: np.ndarray, alpha: float) -> np.ndarray:
    """Each column's largest |g(x_i)-g(x_j)| / |x_i-x_j|^alpha over the index
    pairs (i, j), 0.0 for no pairs, at most _PAIRS_PER_BLOCK pairs x columns
    at a time."""
    best = np.zeros(cols.shape[1])
    step = max(1, _PAIRS_PER_BLOCK // cols.shape[1])
    for start in range(0, len(i), step):
        a, b = i[start:start + step], j[start:start + step]
        dist = np.linalg.norm(np.take(points, a, axis=0) - np.take(points, b, axis=0),
                              axis=1)
        # coincident points (including i == j) contribute nothing
        dist[dist == 0.0] = np.inf
        quot = np.abs(np.take(cols, a, axis=0) - np.take(cols, b, axis=0)) / \
            (dist ** alpha)[:, None]
        best = np.maximum(best, np.max(quot, axis=0))
    return best


# -- Slobodeckij -------------------------------------------------------------

# Gauss nodes per axis of the seminorm's successive rules, and the largest
# rule each dimension runs: a rule evaluates g at about d n^(2d) points, so
# d >= 4 runs none and refuses at once
_SEMINORM_NODES = (8, 12, 16, 24, 32, 48, 64, 96, 128)
_SEMINORM_CAP = {1: 128, 2: 64, 3: 16}
# points of g evaluated per call (bounds the seminorm's arrays)
_SEMINORM_CHUNK = 1 << 17


def _tensor_rule(axes) -> Tuple[np.ndarray, np.ndarray]:
    """The tensor product of 1-D rules [(nodes, weights), ...] in C order:
    the points, one per row, and their weights."""
    pts = np.stack(np.meshgrid(*[x for x, _ in axes], indexing="ij"), axis=-1)
    wts = functools.reduce(np.multiply.outer, [w for _, w in axes])
    return pts.reshape(-1, len(axes)), np.reshape(wts, -1)


def slobodeckij_seminorm(fn, theta: float, p: float, domain: DomainSpec,
                         config: QuadratureConfig = DEFAULT_CONFIG,
                         box: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> float:
    """[g]_{theta,p} = (double integral of |g(x)-g(y)|^p / |x-y|^(theta p + d))^(1/p).

    The double integral runs over box Q, by default the unit cube of a cube
    domain; any other domain raises NormError unless a box is given.  In
    z = y - x it is the integral of |z|^-(d + theta p) G(z) over the
    difference box [-L, L], with G(z) = int_{O(z)} |g(x + z) - g(x)|^p dx
    and O(z) = Q cap (Q - z).  As G(-z) = G(z), the rule doubles the d
    pyramids over the faces z_j = L_j (Duffy, SIAM J. Numer. Anal. 19,
    1982).  With z = t w there, G(t w) = t^p (smooth) for smooth g, so t
    takes Gauss-Jacobi with weight t^(p (1 - theta) - 1) (Golub & Welsch,
    Math. Comp. 23, 1969); w takes Gauss-Legendre with each face axis split
    at 0, where G has a kink, and so does x, over O(z) or, when fn declares
    disjoint support boxes B_i, only where the integrand can be nonzero:
    sum_i A_i + sum_i B_i(z) - sum_{i,k} A_i cap B_k(z), with
    A_i = B_i cap O(z) and B_i(z) = (B_i - z) cap O(z).

    Rule n takes n nodes per x axis and n/2 in t and on each half of a face
    axis (G averages g, so it is the smoother), for n along _SEMINORM_NODES
    up to the dimension's cap.  The rules stop by the module's stopping
    rule, with AccuracyError past the cap, as for a divergent seminorm.  The
    error estimate assumes g smooth on each support box (on Q if fn
    declares none): for a kink such as |x - 0.3| two rules can agree to
    well below the error they share.
    """
    if not 0 < theta < 1:
        raise DivergenceError("the double integral diverges outside theta in (0,1)")
    if p < 1 or not math.isfinite(p):
        raise NormError("integrability exponent must be finite and >= 1")
    if box is None and domain.kind != "unit-cube":
        raise NormError("the seminorm integrates over boxes only; pass box= "
                        f"for a {domain.kind} domain")
    d = domain.dimension
    lo, hi = box if box is not None else _domain_box(domain)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    boxes = _support_boxes(fn, domain, (lo, hi))
    if boxes == []:
        return 0.0
    boxes = [(blo, bhi) for blo, bhi, _ in boxes] \
        if boxes and _boxes_disjoint(boxes) else None
    from scipy.special import roots_sh_jacobi, roots_sh_legendre
    beta = p * (1.0 - theta) - 1.0
    expo = d + theta * p
    side = hi - lo
    cap = _SEMINORM_CAP.get(d, 0)

    def rules():
        for n in (n for n in _SEMINORM_NODES if n <= cap):
            t, lam = roots_sh_jacobi(n // 2, beta + 1.0, beta + 1.0)  # t^beta on [0, 1]
            u, om = roots_sh_legendre(n // 2)
            halves = np.concatenate([u - 1.0, u]), np.tile(om, 2)  # [-1, 0] and [0, 1]
            x_rule = _tensor_rule([roots_sh_legendre(n)] * d)
            total = 0.0
            for j in range(d):
                # face j: w_j = L_j, with the Jacobian's L_j as its weight
                w, w_wt = _tensor_rule([(side[i:i + 1],) * 2 if i == j else
                                        (halves[0] * side[i], halves[1] * side[i])
                                        for i in range(d)])
                z = (t[:, None, None] * w).reshape(-1, d)
                z_wt = np.outer(lam * t ** -p, w_wt * np.linalg.norm(w, axis=1) ** -expo)
                total += _difference_sum(fn, p, lo, hi, boxes, z, z_wt.reshape(-1),
                                         x_rule)
            yield (2.0 * total) ** (1.0 / p)

    return _converged(rules(), config.tolerance,
                      f"seminorm rules did not agree to rel {config.tolerance:g} "
                      f"within {cap} nodes per axis")


def _difference_sum(fn, p: float, lo, hi, boxes, z: np.ndarray,
                    z_wt: np.ndarray, x_rule) -> float:
    """sum_k z_wt[k] G(z[k]), with the x rule on each region box of each
    difference, at most _SEMINORM_CHUNK points of g per call."""
    x_pts, x_wt = x_rule
    d = len(lo)
    if boxes is None:
        signs = np.ones(1)
    else:
        b_lo, b_hi = (np.array(ends) for ends in zip(*boxes))
        m = len(boxes)
        signs = np.repeat([1.0, 1.0, -1.0], [m, m, m * m])
    z_step = max(1, _SEMINORM_CHUNK // len(signs))
    r_step = max(1, _SEMINORM_CHUNK // len(x_pts))
    total = 0.0
    for start in range(0, len(z), z_step):
        zc = z[start:start + z_step]
        # region boxes per difference: O, or the A_i, B_i(z) and A_i cap B_k(z)
        r_lo = np.maximum(lo, lo - zc)[:, None]
        r_hi = np.minimum(hi, hi - zc)[:, None]
        if boxes is not None:
            a_lo, a_hi = np.maximum(b_lo, r_lo), np.minimum(b_hi, r_hi)
            s_lo = np.maximum(b_lo - zc[:, None], r_lo)
            s_hi = np.minimum(b_hi - zc[:, None], r_hi)
            r_lo = np.concatenate([a_lo, s_lo, np.maximum(
                a_lo[:, :, None], s_lo[:, None]).reshape(len(zc), -1, d)], axis=1)
            r_hi = np.concatenate([a_hi, s_hi, np.minimum(
                a_hi[:, :, None], s_hi[:, None]).reshape(len(zc), -1, d)], axis=1)
        width = r_hi - r_lo
        zi, ki = np.nonzero(np.all(width > 0, axis=2))
        rows_lo, rows_width, rows_z = r_lo[zi, ki], width[zi, ki], zc[zi]
        rows_wt = z_wt[start + zi] * signs[ki] * np.prod(rows_width, axis=1)
        for r in range(0, len(zi), r_step):
            rows = slice(r, r + r_step)
            X = rows_lo[rows, None] + rows_width[rows, None] * x_pts
            Y = X + rows_z[rows, None]
            diff = np.abs(fn(Y.reshape(-1, d)) - fn(X.reshape(-1, d))) ** p
            total += float(rows_wt[rows] @ (diff.reshape(len(X), -1) @ x_wt))
    return total


def slobodeckij_norm(fn, s: float, p: float, domain: DomainSpec,
                     config: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Full scale norm: one max over the derivative Lp norms of every
    |alpha| <= floor(s) and (for fractional s) the theta-seminorms of the
    top order.  An s within 1e-12 of an integer, on either side, counts as
    that integer."""
    m = round(s) if abs(s - round(s)) < 1e-12 else math.floor(s)
    theta = 0.0 if abs(s - m) < 1e-12 else s - m
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

