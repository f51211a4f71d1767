"""Record perfbench/reference.json from the current sources.

    python3 perfbench/make_reference.py

Re-run only in a change that alters outputs on purpose, and say so: every
benchmark run compares against this file.  It records

* engine-mix: the digest of the query catalog and, per family, the digest
  of the (status, rule, u-interval, predicted exponent) answers (for CLI
  calls, of exit code and stdout), after the closed-form checks pass;
* tent-scan: the certified ratios of acceptance test 06's first scan at
  seed 7 (they do not depend on the sign seed);
* quadrature: the squared Slobodeckij seminorm (theta 1/2, p 2) of x_1 on
  the unit square from the difference-vector reduction
  int_{[-1,1]^2} z_1^2 |z|^-3 (1-|z_1|)(1-|z_2|) dz, integrated with
  scipy.integrate in polar coordinates, where the integrand is bounded;
  and the 2-D bump seminorm at tolerance 1e-3.
"""

import json
import math
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ.pop("RKHS_SANDWICH_QUADRATURE", None)
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
from scipy.integrate import dblquad  # noqa: E402

import engine_mix as em  # noqa: E402
import rkhs_sandwich as rs  # noqa: E402
import rkhs_sandwich.cli  # noqa: E402,F401
from rkhs_sandwich.bumps import SmoothBumpMember  # noqa: E402
from rkhs_sandwich.embeddings import chain_holds  # noqa: E402
from lab import TentScan  # noqa: E402


def linear_square_x1() -> float:
    # four quadrants by symmetry; z = r (cos phi, sin phi), dz = r dr dphi,
    # so z_1^2 |z|^-3 dz = cos^2 phi dr dphi
    def f(r, phi):
        c, s = math.cos(phi), math.sin(phi)
        return c * c * (1 - r * c) * (1 - r * s)

    total = 0.0
    for lo, hi in ((0.0, math.pi / 4), (math.pi / 4, math.pi / 2)):
        val, err = dblquad(f, lo, hi, 0.0,
                           lambda phi: 1.0 / max(math.cos(phi), math.sin(phi)),
                           epsabs=1e-13, epsrel=1e-13)
        total += val
    return 4.0 * total


def engine_reference() -> dict:
    catalog, cli = em.engine_catalog(), em.cli_catalog()
    keys = []
    for q in catalog:
        v = em.run_query(rs, q)
        em.check_verdict(q, v, chain_holds)
        keys.append(em.verdict_key(v))
    for argv in cli:
        keys.append(em.check_cli(argv, *em.run_cli(rs, argv)))
    families = [q[0] for q in catalog] + ["cli"] * len(cli)
    return {"catalog_sha256": em.catalog_digest(catalog + cli),
            "families": em.family_digests(families, keys)}


def main() -> None:
    ref = {"engine_mix": engine_reference()}
    print("engine-mix recorded", flush=True)
    tent = TentScan(rs, 7, {"tent_scan": None})
    series = tent.run_scan()
    ref["tent_scan"] = {"seed": 7, "ratios": [repr(r) for _, _, r in series.points]}
    print("tent-scan recorded", flush=True)
    loose = rs.QuadratureConfig(tolerance=1e-3)
    ref["quadrature"] = {
        "linear_square_x1": linear_square_x1(),
        "bump_square": rs.slobodeckij_seminorm(
            SmoothBumpMember(2, np.array([0.5, 0.5]), 0.25), 0.5, 2, rs.cube(2), loose)}
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    print(json.dumps(ref["quadrature"]), ref["tent_scan"])


if __name__ == "__main__":
    main()
