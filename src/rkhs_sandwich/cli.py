"""Command-line front end.

Space syntax is family:param:param with rationals as a/b and `inf` for
infinity, e.g. `lp:3/2`, `slobo:11/5:2`, `besov:2:4:inf`.  Domains are
`cube:d`, `ball:d[:radius]`, `space:d`, or `seq`.  Exit codes: 0 success
(Feasible), 10 Infeasible, 11 Borderline, 12 Undetermined; usage errors and
refusals 64.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from fractions import Fraction
from typing import List, Optional

from . import __version__
from .decider import STATUS_EXIT_CODES, decide
from .irkbs import SeriesSpec, check_applicability, cosine_series
from .norms import DEFAULT_CONFIG, QuadratureConfig
from .packing import brute_force_packing, exponent_fit, greedy_packing
from .rademacher import recipe_functionals, scan
from .report import Report
from .spaces import (CoherentSet, DomainSpec, SpaceSpec, ball, besov, c_infinity,
                     coherent_closure, continuous_bounded, cube, holder,
                     lebesgue_lp, mixed_sobolev, sequence_lp, slobodeckij,
                     sobolev, sup_space, triebel_lizorkin, whole_space)
from .xrational import INF, ExtRational, xr

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _parse_number(text: str) -> ExtRational:
    """A rational a/b or `inf`; anything else raises ValueError."""
    if text == "inf":
        return INF
    try:
        return xr(Fraction(text))
    except ZeroDivisionError:
        raise ValueError(f"bad number {text!r}: zero denominator") from None


def _parse_fraction(text: str) -> Fraction:
    """A finite rational a/b; anything else raises ValueError."""
    value = _parse_number(text)
    if value.is_infinite:
        raise ValueError(f"bad number {text!r}: must be finite")
    return value.as_fraction()


# domain kind -> the field counts it takes after the kind
_DOMAIN_FIELDS = {"seq": (0,), "cube": (1,), "space": (1,), "ball": (1, 2)}


def parse_domain(text: str) -> DomainSpec:
    kind, *fields = text.split(":")
    if len(fields) not in _DOMAIN_FIELDS.get(kind, ()):
        raise ValueError(f"bad domain {text!r}; use cube:d, ball:d[:r], space:d, seq")
    if kind == "seq":
        from .spaces import SEQUENCE_INDEX
        return SEQUENCE_INDEX
    d = int(fields[0])
    if kind == "cube":
        return cube(d)
    if kind == "space":
        return whole_space(d)
    radius = _parse_fraction(fields[1]) if len(fields) > 1 else Fraction(1)
    return ball(d, radius)


def _parse_indices(text: str) -> CoherentSet:
    """Multi-indices a1,a2;b1,b2;... closed downward into a coherent set."""
    idx = [tuple(int(c) for c in grp.split(",")) for grp in text.split(";")]
    return coherent_closure(idx, len(idx[0]))


_N = _parse_number
# family -> (one parser per parameter, constructor); the constructor takes
# the parsed parameters and then the domain, except for lp
_SPACES = {
    "lp": ((_N,), sequence_lp),
    "lebesgue": ((_N,), lebesgue_lp),
    "holder": ((_N,), holder),
    "sobolev": ((_N, _N), sobolev),
    "slobo": ((_N, _N), slobodeckij),
    "besov": ((_N, _N, _N), besov),
    "tl": ((_N, _N, _N), triebel_lizorkin),
    "mixsob": ((_N, _parse_indices), lambda p, idx, dom: mixed_sobolev(idx, p, dom)),
    "sup": ((), sup_space),
    "c0": ((), continuous_bounded),
    "cinf": ((), c_infinity),
}


def parse_space(text: str, domain: Optional[DomainSpec]) -> SpaceSpec:
    fam, *params = text.split(":")
    if fam not in _SPACES:
        raise ValueError(f"unknown space family {fam!r}")
    parsers, make = _SPACES[fam]
    if len(params) != len(parsers):
        raise ValueError(f"space family {fam!r} takes {len(parsers)} "
                         f"parameter(s), got {len(params)} in {text!r}")
    args = [parse(p) for parse, p in zip(parsers, params)]
    if fam == "lp":  # sequence spaces live on the index set
        return make(*args)
    if domain is None:
        raise ValueError(f"space {text!r} needs --domain")
    return make(*args, domain)


def _quadrature_from(args) -> QuadratureConfig:
    return QuadratureConfig(
        tolerance=float(args.tolerance) if args.tolerance else DEFAULT_CONFIG.tolerance,
        mc_samples=args.mc_samples if args.mc_samples is not None
        else DEFAULT_CONFIG.mc_samples)


def _verdict_payload(verdict) -> dict:
    payload = {"status": verdict.status, "rule": verdict.rule}
    if verdict.witness is not None:
        payload["witness_chain"] = [s.label() for s in verdict.witness.links]
        if verdict.witness.u_interval is not None:
            payload["u_interval"] = str(verdict.witness.u_interval)
    if verdict.obstruction is not None:
        rec = verdict.obstruction
        payload["obstruction"] = {
            "construction": rec.construction,
            "mode": rec.mode,
            "predicted_exponent": str(rec.predicted_exponent),
            "violated": str(rec.violated),
        }
    if verdict.reason:
        payload["reason"] = verdict.reason
    return payload


def _decide_pair(args, domain: Optional[DomainSpec]):
    """Parse --from/--to and decide the pair.  The bounded functions (sup,
    c0) are taken on the source's own domain, so they need no --domain."""
    E = parse_space(args.source, domain)
    return decide(E, parse_space(args.to, E.domain if args.to in ("sup", "c0")
                                 else domain))


def cmd_decide(args) -> int:
    domain = parse_domain(args.domain) if args.domain else None
    verdict = _decide_pair(args, domain)
    report = Report.build("decide",
                          {"from": args.source, "to": args.to,
                           "domain": args.domain},
                          _verdict_payload(verdict), rules=[verdict.rule])
    print(report.to_json(), end="")
    return STATUS_EXIT_CODES[verdict.status]


def cmd_scan(args) -> int:
    domain = parse_domain(args.domain) if args.domain else None
    verdict = _decide_pair(args, domain)
    if verdict.obstruction is None:
        raise ValueError(f"verdict is {verdict.status}; scans need an Infeasible "
                         "pair with an obstruction recipe")
    deltas = [_parse_fraction(x) for x in args.deltas.split(",")]
    config = _quadrature_from(args)
    e_fun, f_fun = recipe_functionals(verdict.obstruction)
    series = scan(verdict.obstruction, e_fun, f_fun, deltas, domain=domain,
                  seed=args.seed, config=config)
    if args.csv:
        try:
            with open(args.csv, "w") as fh:
                fh.write(series.to_csv())
        except OSError as exc:
            raise ValueError(f"cannot write --csv {args.csv!r}: {exc.strerror}") from None
    payload = {
        "points": [{"delta": d, "n": n, "ratio": r} for d, n, r in series.points],
        "fitted_slope": series.fitted_slope,
        "residual": series.residual,
        "mode": series.mode,
        "log_axis": series.log_axis,
        "predicted_exponent": str(verdict.obstruction.predicted_exponent),
    }
    report = Report.build("scan",
                          {"from": args.source, "to": args.to,
                           "domain": args.domain, "deltas": args.deltas},
                          payload, rules=[verdict.rule], seed=args.seed,
                          quadrature=config)
    print(report.to_json(), end="")
    return 0


def cmd_table(args) -> int:
    values = [_parse_number(v) for v in args.values.split(",")]
    if len(values) ** 2 > 10_000:
        raise ValueError("refusing a table with more than 10^4 cells")
    domain = parse_domain(args.domain) if args.domain else None
    cells = []
    for a, b in itertools.product(values, repeat=2):
        try:
            if args.kind == "lp":
                if a > b:
                    continue
                verdict = decide(sequence_lp(a), sequence_lp(b))
            elif args.kind == "lebesgue":
                if b > a:
                    continue
                dom = domain or cube(1)
                verdict = decide(lebesgue_lp(a, dom), lebesgue_lp(b, dom))
            else:  # slobodeckij
                dom = domain or cube(2)
                if not a > b:
                    continue
                verdict = decide(slobodeckij(a, 2, dom), slobodeckij(b, 2, dom))
        except ValueError:
            continue
        cells.append({"row": str(a), "col": str(b), "status": verdict.status,
                      "rule": verdict.rule})
    report = Report.build("table", {"kind": args.kind, "values": args.values,
                                    "domain": args.domain},
                          {"cells": cells})
    print(report.to_json(), end="")
    return 0


def cmd_packing(args) -> int:
    domain = parse_domain(args.domain)
    alpha = _parse_fraction(args.alpha)
    deltas = [_parse_fraction(x) for x in args.deltas.split(",")]
    counts = []
    for dl in deltas:
        result = (brute_force_packing if args.brute_force else greedy_packing)(
            domain, dl, alpha)
        counts.append({"delta": str(dl), "count": result.count,
                       "exact": result.exact})
    payload = {"counts": counts}
    if len(deltas) >= 3:
        payload["fitted_exponent"] = exponent_fit(domain, deltas, alpha)
    report = Report.build("packing", {"domain": args.domain, "alpha": args.alpha,
                                      "deltas": args.deltas}, payload)
    print(report.to_json(), end="")
    return 0


def cmd_irkbs(args) -> int:
    rho = None if args.domain_radius in (None, "inf") \
        else _parse_fraction(args.domain_radius)
    coeffs = cosine_series().coefficients if args.series == "cos" \
        else tuple(_parse_fraction(c) for c in args.series.split(","))
    spec = SeriesSpec(coeffs, rho)
    decomposition = check_applicability(
        spec, "all-finite-signed" if args.measure_class in (None, "all")
        else "user-restricted")
    report = Report.build("irkbs", {"series": args.series,
                                    "domain_radius": args.domain_radius,
                                    "measure_class": args.measure_class},
                          decomposition)
    print(report.to_json(), end="")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="rkhs-sandwich",
                     description="Decide whether an intermediate RKHS exists "
                                 "between two function spaces, and probe the "
                                 "verdicts numerically.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("decide", help="one-shot feasibility query")
    p.add_argument("--from", dest="source", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--domain")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("scan", help="blow-up scan for an Infeasible pair")
    p.add_argument("--from", dest="source", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--domain")
    p.add_argument("--deltas", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv")
    p.add_argument("--mc-samples", type=int)
    p.add_argument("--tolerance")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("table", help="decision matrix over a parameter grid")
    p.add_argument("--kind", required=True, choices=["lp", "lebesgue", "slobodeckij"])
    p.add_argument("--values", required=True)
    p.add_argument("--domain")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("packing", help="greedy packing counts and exponent fit")
    p.add_argument("--domain", required=True)
    p.add_argument("--deltas", required=True)
    p.add_argument("--alpha", default="1")
    p.add_argument("--brute-force", action="store_true")
    p.set_defaults(func=cmd_packing)

    p = sub.add_parser("irkbs", help="positive-decomposition applicability check")
    p.add_argument("--series", required=True,
                   help="'cos' or a comma list of rational coefficients")
    p.add_argument("--domain-radius")
    p.add_argument("--measure-class", choices=["all", "restricted"])
    p.set_defaults(func=cmd_irkbs)
    return parser


# built once: parse_args keeps no state between calls
_PARSER = build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
