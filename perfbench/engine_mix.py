"""engine-mix: a seeded stream of exact-engine queries with a 5 % share of
in-process CLI calls.

The query catalog is fixed (drawn once from CATALOG_SEED, the way acceptance
test 09 draws its pairs, widened to every family and to all four verdicts);
the benchmark seed only decides the order of each pass and where the CLI
calls fall.  A pass answers every catalog entry once, so its outputs can be
compared with the digests in reference.json whatever the seed.  Every
op builds its space descriptors afresh from plain parameters.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction as Q

CATALOG_SEED = 20240817  # acceptance test 09's seed
N_ENGINE = 5700
N_CLI = 300  # 5 % of the ops in a pass

PS = [Q(1), Q(3, 2), Q(2), Q(3), Q(4)]  # test 09's integrability grid
QS = [Q(1), Q(2), Q(3)]  # test 09's fein grid
LP_GRID = [Q(1), Q(6, 5), Q(4, 3), Q(3, 2), Q(2), Q(5, 2), Q(3), Q(4), Q(6), "inf"]
SOB_PS = [Q(6, 5), Q(4, 3), Q(3, 2), Q(2), Q(3), Q(4), Q(6)]
HOLDER_GRID = [Q(1), Q(7, 8), Q(3, 4), Q(2, 3), Q(1, 2), Q(1, 3), Q(1, 4),
               Q(1, 5), Q(1, 8)]
STATUSES = ("Feasible", "Infeasible", "Borderline", "Undetermined")
DECIDE_EXITS = {0: "Feasible", 10: "Infeasible", 11: "Borderline", 12: "Undetermined"}


class CheckError(Exception):
    """A program output disagrees with the benchmark's oracle or record."""


# -- exact closed forms, independent of the program --------------------------

def _inv(p) -> Q:
    return Q(0) if p == "inf" else 1 / Q(p)


def _pos(x: Q) -> Q:
    return x if x > 0 else Q(0)


def _deficiency(p1, p2, d: int) -> Q:
    half = Q(d, 2)
    return _pos(d * _inv(p1) - half) + _pos(half - d * _inv(p2))


def _le(a, b) -> bool:
    if b == "inf":
        return True
    return a != "inf" and a <= b


def _threshold_status(gap: Q, thr: Q, t: Q) -> str:
    if gap > thr:
        return "Feasible"
    if t == 0:
        return "Undetermined"
    return "Borderline" if gap == thr else "Infeasible"


# -- query catalog -------------------------------------------------------------

def _closure(indices):
    out = set()
    for a in indices:
        stack = [tuple(a)]
        while stack:
            b = stack.pop()
            if b not in out:
                out.add(b)
                stack.extend(b[:j] + (c - 1,) + b[j + 1:]
                             for j, c in enumerate(b) if c > 0)
    return tuple(sorted(out))


def _euclid_domain(rng: random.Random):
    d = rng.randint(1, 4)
    if rng.random() < 0.7:
        return ("cube", d)
    return ("ball", d, rng.choice([Q(1), Q(1, 2), Q(2)]))


def _metric_table(rng: random.Random):
    n = rng.randint(4, 6)
    den = rng.choice([8, 12, 20])
    if rng.random() < 0.5:  # points on a line
        xs = rng.sample(range(0, 3 * den), n)
        pts = [(x, 0) for x in xs]
    else:  # integer points in the plane under the l1 metric
        pts = set()
        while len(pts) < n:
            pts.add((rng.randint(0, den), rng.randint(0, den)))
        pts = sorted(pts)
    return tuple(tuple(Q(abs(a[0] - b[0]) + abs(a[1] - b[1]), den) for b in pts)
                 for a in pts)


def _smooth_draw(rng: random.Random, family: str):
    """Same-family smoothness pair drawn as test 09 does, with the gap also
    put on or below the deficiency (never below the embedding threshold)."""
    while True:
        d = rng.randint(1, 4)
        p1, p2 = rng.choice(PS), rng.choice(PS)
        t = Q(rng.randint(1, 8), rng.choice([2, 3, 4, 5]))
        defc = _deficiency(p1, p2, d)
        lo = _pos(Q(d) / p1 - Q(d) / p2)
        r = rng.random()
        if r < 0.1 and defc > 0:
            s = t + defc
        elif r < 0.3 and defc > lo:
            s = t + lo + (defc - lo) * rng.randint(1, 3) / 4
        else:
            s = t + defc + Q(rng.randint(2, 6), 6) + Q(1, 7)
        if family == "slobodeckij":
            if any(x.denominator == 1 and p == 1 for x, p in ((s, p1), (t, p2))):
                continue
            return ("cube", d), ("slobodeckij", s, p1), ("slobodeckij", t, p2)
        if family == "besov":
            return (("cube", d), ("besov", s, p1, rng.choice(QS + ["inf"])),
                    ("besov", t, p2, rng.choice(QS + ["inf"])))
        return (("cube", d), ("triebel-lizorkin", s, p1, rng.choice(QS)),
                ("triebel-lizorkin", t, p2, rng.choice(QS)))


def _draw(rng: random.Random, family: str):
    """One query: (family, kind, domain, E, F-or-target)."""
    if family == "lp":
        p, q = sorted(rng.sample(range(len(LP_GRID)), 2))
        return (family, "decide", None, ("lp", LP_GRID[p]), ("lp", LP_GRID[q]))
    if family == "lebesgue":
        q, p = sorted(rng.sample(range(len(LP_GRID)), 2))
        return (family, "decide", ("cube", rng.randint(1, 4)),
                ("lebesgue", LP_GRID[p]), ("lebesgue", LP_GRID[q]))
    if family == "holder":
        b, a = sorted(rng.sample(range(len(HOLDER_GRID)), 2), reverse=True)
        return (family, "decide", _euclid_domain(rng),
                ("holder", HOLDER_GRID[a]), ("holder", HOLDER_GRID[b]))
    if family == "holder-finite":
        b, a = sorted((rng.randrange(len(HOLDER_GRID)) for _ in range(2)),
                      reverse=True)
        return (family, "decide", ("fm", _metric_table(rng)),
                ("holder", HOLDER_GRID[a]), ("holder", HOLDER_GRID[b]))
    if family == "holder-bounded":
        dom = ("fm", _metric_table(rng)) if rng.random() < 0.2 \
            else _euclid_domain(rng)
        return (family, "bounded", dom, ("holder", rng.choice(HOLDER_GRID)),
                rng.choice(["sup", "continuous-bounded"]))
    if family in ("slobodeckij", "besov", "triebel-lizorkin"):
        dom, E, F = _smooth_draw(rng, family)
        return (family, "decide", dom, E, F)
    if family == "sobolev":
        while True:
            d = rng.randint(1, 4)
            (s, p1), (t, p2) = [(rng.randint(0, 4), rng.choice(SOB_PS))
                                for _ in range(2)]
            if (s, p1) != (t, p2) and s >= t and s - t >= Q(d) / p1 - Q(d) / p2:
                return (family, "decide", ("cube", d), ("sobolev", Q(s), p1),
                        ("sobolev", Q(t), p2))
    if family == "mixed-sobolev":
        while True:
            d = rng.randint(1, 3)
            A = _closure([tuple(rng.randint(0, 3) for _ in range(d))
                          for _ in range(rng.randint(1, 3))])
            B = _closure([rng.choice(A)])
            p1, p2 = rng.choice(PS), rng.choice(PS)
            s, t = max(map(sum, A)), max(map(sum, B))
            if (A, p1) != (B, p2) and s - t >= Q(d) / p1 - Q(d) / p2:
                return (family, "decide", ("cube", d), ("mixed-sobolev", A, p1),
                        ("mixed-sobolev", B, p2))
    if family == "smooth-bounded":
        while True:
            d = rng.randint(1, 4)
            p = rng.choice(PS)
            thr = max(Q(d) / p, Q(d, 2))
            s = thr if rng.random() < 0.15 else Q(d) / p + Q(rng.randint(1, 10), 4)
            fam = rng.choice(["slobodeckij", "besov", "triebel-lizorkin"])
            if s <= Q(d) / p or (fam == "slobodeckij" and s.denominator == 1 and p == 1):
                continue
            E = {"slobodeckij": ("slobodeckij", s, p),
                 "besov": ("besov", s, p, rng.choice(QS + ["inf"])),
                 "triebel-lizorkin": ("triebel-lizorkin", s, p, rng.choice(QS))}[fam]
            dom = ("space", d) if rng.random() < 0.15 else ("cube", d)
            return (family, "bounded", dom, E,
                    rng.choice(["sup", "continuous-bounded"]))
    raise ValueError(family)


# share of the engine catalog per family
FAMILY_WEIGHTS = {"lp": 8, "lebesgue": 8, "holder": 12, "holder-finite": 6,
                  "holder-bounded": 8, "slobodeckij": 12, "besov": 12,
                  "triebel-lizorkin": 12, "sobolev": 8, "mixed-sobolev": 6,
                  "smooth-bounded": 8}


def engine_catalog():
    rng = random.Random(CATALOG_SEED)
    total = sum(FAMILY_WEIGHTS.values())
    out = []
    for fam, w in FAMILY_WEIGHTS.items():
        out.extend(_draw(rng, fam) for _ in range(N_ENGINE * w // total))
    while len(out) < N_ENGINE:
        out.append(_draw(rng, "besov"))
    return out


_CLI_FAMILY = {"lp": "lp", "lebesgue": "lebesgue", "holder": "holder",
               "sobolev": "sobolev", "slobodeckij": "slobo", "besov": "besov",
               "triebel-lizorkin": "tl"}


def _cli_space(desc) -> str:
    if desc in ("sup", "continuous-bounded"):
        return "sup" if desc == "sup" else "c0"
    if desc[0] == "mixed-sobolev":
        idx = ";".join(",".join(map(str, a)) for a in desc[1])
        return f"mixsob:{desc[2]}:{idx}"
    return ":".join([_CLI_FAMILY[desc[0]]] + [str(x) for x in desc[1:]])


def _cli_domain(desc) -> list:
    if desc is None:
        return []
    if desc[0] == "ball":
        return ["--domain", f"ball:{desc[1]}:{desc[2]}"]
    return ["--domain", f"{desc[0]}:{desc[1]}"]


def cli_catalog():
    rng = random.Random(CATALOG_SEED + 1)
    out = []
    fams = [f for f in FAMILY_WEIGHTS if f != "holder-finite"]
    for _ in range(N_CLI * 60 // 100):
        fam = rng.choice(fams)
        q = _draw(rng, fam)
        while q[2] is not None and q[2][0] == "fm":
            q = _draw(rng, fam)
        _, _, dom, E, F = q
        out.append(["decide", "--from", _cli_space(E), "--to", _cli_space(F)]
                   + _cli_domain(dom))
    for _ in range(N_CLI * 15 // 100):
        kind = rng.choice(["lp", "lebesgue", "slobodeckij"])
        if kind == "slobodeckij":
            vals = sorted(rng.sample([Q(1, 2), Q(1), Q(3, 2), Q(2), Q(5, 2), Q(3)], 4))
            out.append(["table", "--kind", kind, "--values", ",".join(map(str, vals)),
                        "--domain", f"cube:{rng.randint(1, 3)}"])
        else:
            vals = [LP_GRID[i] for i in sorted(rng.sample(range(len(LP_GRID)), 5))]
            argv = ["table", "--kind", kind, "--values", ",".join(map(str, vals))]
            if kind == "lebesgue":
                argv += ["--domain", f"cube:{rng.randint(1, 4)}"]
            out.append(argv)
    series = [["--series", "cos", "--domain-radius", "1"],
              ["--series", "cos"],
              ["--series", "cos", "--domain-radius", "1/2", "--measure-class", "restricted"],
              ["--series", "1,-1/2,1/4,-1/8,1/16", "--domain-radius", "1/2"],
              ["--series", "1,0,-1/2,0,1/24,0,-1/720"],
              ["--series", "0,1,1/2,1/6,1/24", "--domain-radius", "3/4"]]
    for _ in range(N_CLI * 15 // 100):
        out.append(["irkbs"] + rng.choice(series))
    while len(out) < N_CLI:
        while True:
            p, q = sorted(rng.sample(range(len(LP_GRID) - 1), 2))
            p, q = LP_GRID[p], LP_GRID[q]
            if not (p <= 2 <= q):
                break
        out.append(["scan", "--from", f"lp:{p}", "--to", f"lp:{q}",
                    "--deltas", "1/4,1/16,1/64"])
    return out


# -- running one op --------------------------------------------------------------

def _num(rs, x):
    return rs.INF if x == "inf" else x


def _domain(rs, desc):
    kind = desc[0]
    if kind == "cube":
        return rs.cube(desc[1])
    if kind == "ball":
        return rs.ball(desc[1], desc[2])
    if kind == "space":
        return rs.whole_space(desc[1])
    return rs.finite_metric(desc[1])


def _space(rs, desc, dom):
    fam, args = desc[0], [_num(rs, x) for x in desc[1:]]
    if fam == "lp":
        return rs.sequence_lp(args[0])
    if fam == "lebesgue":
        return rs.lebesgue_lp(args[0], dom)
    if fam == "holder":
        return rs.holder(args[0], dom)
    if fam == "sobolev":
        return rs.sobolev(args[0], args[1], dom)
    if fam == "slobodeckij":
        return rs.slobodeckij(args[0], args[1], dom)
    if fam == "besov":
        return rs.besov(args[0], args[1], args[2], dom)
    if fam == "triebel-lizorkin":
        return rs.triebel_lizorkin(args[0], args[1], args[2], dom)
    return rs.mixed_sobolev(desc[1], args[1], dom)


def run_query(rs, query):
    _, kind, dom_desc, e_desc, f_desc = query
    dom = None if dom_desc is None else _domain(rs, dom_desc)
    E = _space(rs, e_desc, dom)
    if kind == "bounded":
        return rs.decide_bounded_target(E, f_desc)
    return rs.decide(E, _space(rs, f_desc, dom))


def run_cli(rs, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rs.cli.main(list(argv))
    return code, out.getvalue()


# -- checks -----------------------------------------------------------------------

def verdict_key(v) -> str:
    """(status, rule, u-interval, predicted exponent) as one exact string."""
    iv = v.witness.u_interval if v.witness is not None else None
    iv_text = None if iv is None else \
        f"{'(' if iv.lo_open else '['}{iv.lo},{iv.hi}{')' if iv.hi_open else ']'}" \
        f"-{','.join(map(str, iv.excluded))}"
    exp = v.obstruction.predicted_exponent if v.obstruction is not None else None
    return f"{v.status}|{v.rule}|{iv_text}|{exp}"


def expected_verdict(query):
    """Closed-form status (and exponent where the paper gives one), or None."""
    fam, kind, dom, E, F = query
    if fam == "lp":
        p, q = E[1], F[1]
        if _le(p, 2) and _le(2, q):
            return "Feasible", None
        if not _le(p, 2):
            return "Infeasible", Q(1, 2) - _inv(p)
        return "Infeasible", _inv(q) - Q(1, 2)
    if fam == "lebesgue":
        p, q, d = E[1], F[1], dom[1]
        if _le(q, 2) and _le(2, p):
            return "Feasible", None
        if not _le(q, 2):
            return "Infeasible", Q(d, 2) - d * _inv(q)
        return "Infeasible", d * _inv(p) - Q(d, 2)
    if fam == "holder":
        gap2, d = 2 * (E[1] - F[1]), dom[1]
        if gap2 < d:
            return "Infeasible", None
        return ("Borderline" if gap2 == d else "Feasible"), None
    if fam == "holder-bounded" and dom[0] != "fm":
        a2, d = 2 * E[1], dom[1]
        if a2 < d:
            return "Infeasible", None
        return ("Borderline" if a2 == d else "Feasible"), None
    if fam in ("slobodeckij", "besov", "triebel-lizorkin", "sobolev"):
        d = dom[1]
        return _threshold_status(E[1] - F[1], _deficiency(E[2], F[2], d), F[1]), None
    if fam == "mixed-sobolev":
        d = dom[1]
        gap = max(map(sum, E[1])) - max(map(sum, F[1]))
        return ("Infeasible" if gap < _deficiency(E[2], F[2], d)
                else "Undetermined"), None
    if fam == "smooth-bounded":
        d, s, p = dom[1], E[1], E[2]
        if dom[0] == "space":
            return "Infeasible", None
        thr = _pos(Q(d) / p - Q(d, 2)) + Q(d, 2)
        return _threshold_status(s, thr, Q(1)), None
    return None


def check_verdict(query, v, chain_holds) -> None:
    if v.status not in STATUSES:
        raise CheckError(f"{query}: unknown status {v.status!r}")
    if v.status == "Feasible":
        if v.witness is None or not chain_holds(list(v.witness.links)):
            raise CheckError(f"{query}: Feasible witness does not replay")
    if v.status == "Infeasible":
        if v.obstruction is None or not v.obstruction.predicted_exponent > 0:
            raise CheckError(f"{query}: Infeasible without a positive exponent")
    want = expected_verdict(query)
    if want is not None:
        status, exponent = want
        if v.status != status:
            raise CheckError(f"{query}: status {v.status}, closed form {status}")
        if exponent is not None and str(v.obstruction.predicted_exponent) != str(exponent):
            raise CheckError(f"{query}: exponent {v.obstruction.predicted_exponent}, "
                             f"closed form {exponent}")


def check_cli(argv, code, stdout) -> str:
    if argv[0] == "decide":
        if code not in DECIDE_EXITS:
            raise CheckError(f"{argv}: exit code {code}")
    elif code != 0:
        raise CheckError(f"{argv}: exit code {code}")
    doc = json.loads(stdout)
    if argv[0] == "decide" and doc["payload"]["status"] != DECIDE_EXITS[code]:
        raise CheckError(f"{argv}: exit code {code} but status "
                         f"{doc['payload']['status']}")
    return cli_key(code, stdout)


def cli_key(code: int, stdout: str) -> str:
    return f"{code}|{hashlib.sha256(stdout.encode()).hexdigest()[:16]}"


def family_digests(families, keys) -> dict:
    """One sha256 per family over the catalog-ordered result keys."""
    lines = {}
    for i, (fam, key) in enumerate(zip(families, keys)):
        lines.setdefault(fam, []).append(f"{i}:{key}")
    return {fam: hashlib.sha256("\n".join(v).encode()).hexdigest()
            for fam, v in sorted(lines.items())}


def catalog_digest(catalog) -> str:
    return hashlib.sha256(repr(catalog).encode()).hexdigest()


class EngineMix:
    """One pass answers the whole catalog; the first pass is checked against
    the closed forms and the recorded digests, later ones against it."""

    def __init__(self, rs, seed: int, reference: dict):
        self.rs, self.seed, self.ref = rs, seed, reference["engine_mix"]
        self.catalog, self.cli = engine_catalog(), cli_catalog()
        if catalog_digest(self.catalog + self.cli) != self.ref["catalog_sha256"]:
            raise CheckError("the query catalog differs from the recorded one")
        self.first = None
        from rkhs_sandwich.embeddings import chain_holds
        self.chain_holds = chain_holds  # the original, even in a traced run

    def ops(self, pass_no: int):
        """Every catalog entry once, in a seeded order; CLI calls are the
        slots after the engine queries."""
        rs, n = self.rs, len(self.catalog)
        order = list(range(n + len(self.cli)))
        random.Random(f"{self.seed}:{pass_no}").shuffle(order)
        for slot in order:
            if slot < n:
                yield "engine", slot, lambda q=self.catalog[slot]: run_query(rs, q)
            else:
                yield "cli", slot, lambda argv=self.cli[slot - n]: run_cli(rs, argv)

    def check(self, outcomes) -> list:
        n = len(self.catalog)
        keys = [None] * (n + len(self.cli))
        for slot, value, err in outcomes:
            if err is not None:
                raise CheckError(f"{self._entry(slot)} raised {err!r}")
            if slot >= n:
                keys[slot] = check_cli(self.cli[slot - n], *value) \
                    if self.first is None else cli_key(*value)
                continue
            if self.first is None:
                check_verdict(self.catalog[slot], value, self.chain_holds)
            keys[slot] = verdict_key(value)
        if self.first is None:
            digests = family_digests([q[0] for q in self.catalog] +
                                     ["cli"] * len(self.cli), keys)
            wrong = [fam for fam, want in self.ref["families"].items()
                     if digests.get(fam) != want]
            if wrong:
                raise CheckError(f"engine-mix families {', '.join(wrong)}: outputs "
                                 "differ from the ones recorded in reference.json")
            self.first = keys
        elif keys != self.first:
            bad = next(k for k, (a, b) in enumerate(zip(keys, self.first)) if a != b)
            raise CheckError(f"{self._entry(bad)} answered differently across passes")
        return keys

    def _entry(self, slot: int):
        n = len(self.catalog)
        return self.catalog[slot] if slot < n else self.cli[slot - n]
