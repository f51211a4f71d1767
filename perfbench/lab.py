"""tent-scan and quadrature: the numerical-lab workloads.

Both run a fixed list of library calls per pass.  An op is one call into
rkhs_sandwich, resolved through the package at call time so that the traced
run sees its wrappers.  Checks run after the pass, outside the timed region.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction as Q

import numpy as np

from engine_mix import CheckError

TENT_DELTAS = [Q(1, 4), Q(1, 8), Q(1, 16)]
TENT_N = [80, 704, 5376]


class TentScan:
    """Acceptance test 06's first scan, unchanged; the sign seed is the
    benchmark seed."""

    def __init__(self, rs, seed: int, reference: dict):
        self.rs, self.seed, self.ref = rs, seed, reference["tent_scan"]

    def run_scan(self):
        rs = self.rs
        v = rs.decide_bounded_target(rs.holder(1, rs.cube(3)), "sup")
        return rs.scan(v.obstruction, rs.NormFunctional("hoelder", holder_exponent=1.0),
                       rs.NormFunctional("sup"), TENT_DELTAS, domain=rs.cube(3),
                       seed=self.seed,
                       config=rs.QuadratureConfig(mc_samples=8, tolerance=1e-4))

    def ops(self, pass_no: int):
        yield "lab", "scan", self.run_scan

    def check(self, outcomes) -> list:
        (_, series, err), = outcomes
        if err is not None:
            raise CheckError(f"tent scan raised {err!r}")
        ns = [n for _, n, _ in series.points]
        ratios = [repr(r) for _, _, r in series.points]
        if ns != TENT_N:
            raise CheckError(f"tent scan family sizes {ns}, expected {TENT_N}")
        # the ratios are certified lower bounds: bit-identical or wrong
        if ratios != self.ref["ratios"]:
            raise CheckError(f"tent scan ratios {ratios}, recorded {self.ref['ratios']}")
        if abs(series.fitted_slope - 0.5) > 0.2:
            raise CheckError(f"tent scan slope {series.fitted_slope} not within 0.2 of 1/2")
        return [repr(series.points), repr(series.fitted_slope)]


class Quadrature:
    """Grid quadrature on smooth bumps and linear functions: acceptance test
    04's Lp evaluations, test 07's 1-D Slobodeckij calls, the 2-D Slobodeckij
    seminorm of a seeded linear g (default tolerance, which fails today, and
    1e-3), of a smooth bump at 1e-3, and a 2-D packing exponent fit."""

    ACCURACY_FAILURE = "slobo2d-linear-default"

    def __init__(self, rs, seed: int, reference: dict):
        self.rs, self.ref = rs, reference["quadrature"]
        rng = random.Random(seed)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        size = rng.uniform(0.5, 2.0)
        self.a = np.array([size * math.cos(angle), size * math.sin(angle)])
        self.b = rng.uniform(-1.0, 1.0)
        # [a.x + b] = |a| [x_1] by rotation and reflection symmetry of the square
        self.linear_ref = math.hypot(*self.a) * math.sqrt(self.ref["linear_square_x1"])

    def ops(self, pass_no: int):
        rs = self.rs
        from rkhs_sandwich.bumps import SmoothBumpMember
        cfg = rs.QuadratureConfig(tolerance=1e-4)
        families = {}
        for d in (1, 2):
            alphas = [(0,), (1,), (2,)] if d == 1 else [(0, 0), (1, 0), (1, 1), (2, 0)]
            for delta in (Q(1, 2), Q(1, 4)):
                yield "lab", ("family", d, delta), \
                    lambda d=d, delta=delta: families.setdefault(
                        (d, delta), rs.smooth_family(d, delta))
                fam = families[(d, delta)]
                for alpha, p in itertools.product(alphas, (1, 2)):
                    yield "lab", ("base", d, delta, alpha, p), \
                        lambda d=d, alpha=alpha, p=p: rs.lp_norm(
                            SmoothBumpMember(d, np.zeros(d), 1.0).derivative(alpha),
                            p, rs.ball(d), cfg)
                    for signs in itertools.product([1, -1], repeat=fam.n):
                        yield "lab", ("signed", d, delta, alpha, p, signs), \
                            lambda fam=fam, signs=signs, alpha=alpha, p=p: rs.lp_norm(
                                fam.signed_sum(list(signs)).derivative(alpha),
                                p, fam.domain, cfg)
        line = lambda X: X[:, 0]
        yield "lab", "slobo1d-const", lambda: rs.slobodeckij_seminorm(
            lambda X: np.full(len(X), 2.0), 0.5, 2, rs.cube(1))
        yield "lab", "slobo1d-linear", lambda: rs.slobodeckij_seminorm(
            line, 0.5, 2, rs.cube(1))
        for side in (0.25, 0.5, 1.0):
            yield "lab", ("slobo1d-box", side), lambda side=side: rs.slobodeckij_seminorm(
                line, 0.5, 2, rs.cube(1), box=(np.zeros(1), np.full(1, side)))
        a, b = self.a, self.b
        g = lambda X: X @ a + b
        yield "lab", self.ACCURACY_FAILURE, lambda: rs.slobodeckij_seminorm(
            g, 0.5, 2, rs.cube(2))
        loose = rs.QuadratureConfig(tolerance=1e-3)
        yield "lab", "slobo2d-linear-1e-3", lambda: rs.slobodeckij_seminorm(
            g, 0.5, 2, rs.cube(2), loose)
        yield "lab", "slobo2d-bump-1e-3", lambda: rs.slobodeckij_seminorm(
            SmoothBumpMember(2, np.array([0.5, 0.5]), 0.25), 0.5, 2, rs.cube(2), loose)
        yield "lab", "exponent-fit-2d", lambda: rs.exponent_fit(
            rs.cube(2), [Q(1, 8), Q(1, 16), Q(1, 32)])

    def expected_failure(self, key, err) -> bool:
        """The 2-D default-tolerance seminorm refuses with AccuracyError
        today; that counts as a failed op, not as a wrong output."""
        return key == self.ACCURACY_FAILURE and isinstance(err, self.rs.AccuracyError)

    def check(self, outcomes) -> list:
        got = {}
        for key, value, err in outcomes:
            if err is not None and not self.expected_failure(key, err):
                raise CheckError(f"{key} raised {err!r}")
            got[key] = value
        base = {}
        for key, value in got.items():
            if isinstance(key, tuple) and key[0] == "family" and value.n > 6:
                raise CheckError(f"{key}: family of {value.n} bumps, test 04 allows 6")
            if isinstance(key, tuple) and key[0] == "base":
                base[key[1:]] = value
        for key, value in got.items():
            if isinstance(key, tuple) and key[0] == "signed":
                d, delta, alpha, p, signs = key[1:]
                n = len(signs)
                predicted = n ** (1.0 / p) * float(delta) ** (d / p - sum(alpha)) * \
                    base[(d, delta, alpha, p)]
                if not abs(value - predicted) <= 1e-4 * predicted:
                    raise CheckError(f"{key}: {value} breaks the scaling law "
                                     f"prediction {predicted}")
        if got["slobo1d-const"] != 0.0:
            raise CheckError(f"constant seminorm {got['slobo1d-const']}")
        if not abs(got["slobo1d-linear"] - 1.0) <= 1e-3:
            raise CheckError(f"1-D linear seminorm {got['slobo1d-linear']}")
        sides = [0.25, 0.5, 1.0]
        slope = np.polyfit(np.log(sides), np.log([got[("slobo1d-box", s)] for s in sides]),
                           1)[0]
        if not abs(slope - 1.0) <= 0.1:
            raise CheckError(f"1-D box-side slope {slope}")
        for key, tol in ((self.ACCURACY_FAILURE, 1e-5), ("slobo2d-linear-1e-3", 1e-3)):
            value = got[key]
            if value is not None and \
                    not abs(value - self.linear_ref) <= tol * self.linear_ref:
                raise CheckError(f"{key}: {value} misses the reference "
                                 f"{self.linear_ref} by more than {tol:g}")
        bump = got["slobo2d-bump-1e-3"]
        if not abs(bump - self.ref["bump_square"]) <= 2e-2 * self.ref["bump_square"]:
            raise CheckError(f"2-D bump seminorm {bump}, recorded {self.ref['bump_square']}")
        fit = got["exponent-fit-2d"]
        if not abs(fit - 2.0) <= 0.2:
            raise CheckError(f"2-D packing exponent {fit}")
        return [repr((k, v)) for k, v in got.items() if k[0] != "family"]
