"""JSON reports, the rule table they cite, and the command-line front end."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rkhs_sandwich
from rkhs_sandwich import (INF, RULES, STATUS_EXIT_CODES, EmbedVerdict, Verdict,
                           besov, c_infinity, cube, decide, decide_bounded_target,
                           embeds, holder, lebesgue_lp, mixed_sobolev, sequence_lp,
                           slobodeckij, sobolev, sup_space, triebel_lizorkin,
                           whole_space)
from rkhs_sandwich.cli import main, parse_domain, parse_space
from rkhs_sandwich.irkbs import SeriesSpec, check_applicability, cosine_series
from rkhs_sandwich.report import Report, _plain


class TestReport:
    def test_round_trip(self):
        r = Report.build("decide", {"from": "lp:1", "to": "lp:inf"},
                         {"status": "Feasible"}, rules=["lp-iff"])
        again = Report.from_json(r.to_json())
        assert again == r

    def test_compound_rule_tags_split(self):
        r = Report.build("decide", {}, {}, rules=["R11+R5"])
        assert [c["rule"] for c in r.rule_citations] == ["R11", "R5"]
        assert all(c["anchor"] == RULES[c["rule"]] for c in r.rule_citations)

    def test_unknown_tag_is_refused(self):
        # the engine and the report share one table, so a tag outside it is
        # an error wherever it appears
        for tag in ("R99", "R11+R99", "r1"):
            with pytest.raises(ValueError, match="unknown rule id"):
                Report.build("decide", {}, {}, rules=[tag])
            with pytest.raises(ValueError, match="unknown rule id"):
                EmbedVerdict("Holds", rule=tag)
            with pytest.raises(ValueError, match="unknown rule id"):
                Verdict("Undetermined", tag, reason="no rule")


def _rule_queries():
    """One verdict per rule id, each with the tag it must carry."""
    c1, c2, c3 = cube(1), cube(2), cube(3)
    return [
        (embeds(sequence_lp(2), sequence_lp(2)), "identity"),
        (embeds(triebel_lizorkin(2, 2, 2, c1), triebel_lizorkin(1, 2, 2, c1)), "R1"),
        (embeds(besov(2, 2, 4, c1), besov(1, 2, 4, c1)), "R2"),
        (embeds(besov(1, 4, 3, c1), besov(1, 2, 3, c1)), "R3"),
        (embeds(besov(1, 2, 3, c1), besov(1, 2, 4, c1)), "R4"),
        (embeds(besov(1, 4, 3, c1), besov(1, 2, 4, c1)), "R3+R4"),
        (embeds(besov(2, 2, 3, c1), triebel_lizorkin(1, 2, 2, c1)), "R5"),
        (embeds(sobolev(2, 2, c1), sobolev(1, 2, c1)), "R6"),
        (embeds(holder(1, c1), holder(Fraction(1, 2), c1)), "R7"),
        (embeds(sequence_lp(1), sequence_lp(2)), "R8"),
        (embeds(lebesgue_lp(4, c1), lebesgue_lp(2, c1)), "R9"),
        (embeds(slobodeckij(2, 2, c1), sup_space(c1)), "R10"),
        (embeds(slobodeckij(1, 2, c1), sobolev(1, 2, c1)), "R11"),
        (embeds(sobolev(2, 2, c1), slobodeckij(1, 2, c1)), "R11+R1"),
        (embeds(slobodeckij(Fraction(3, 2), 1, c2), slobodeckij(1, 2, c2)),
         "embedding-line"),
        (embeds(sobolev(3, 4, whole_space(2)), sobolev(2, 2, whole_space(2))),
         "Rd-integrability"),
        (decide(slobodeckij(1, 2, c1), slobodeckij(1, 2, c1)), "identity"),
        (decide(sequence_lp(1), sequence_lp(INF)), "lp-iff"),
        (decide(lebesgue_lp(4, c1), lebesgue_lp(2, c1)), "Lp-iff"),
        (decide(holder(1, c3), holder(Fraction(1, 2), c3)), "holder-packing"),
        (decide(slobodeckij(Fraction(11, 5), 2, c2),
                slobodeckij(Fraction(3, 10), 2, c2)), "slobodeckij-threshold"),
        (decide(besov(2, 4, 4, c2), besov(1, 4, 4, c2)), "besov-tl-threshold"),
        (decide(mixed_sobolev([(0, 0), (1, 0), (0, 1)], 2, c2),
                mixed_sobolev([(0, 0), (1, 0)], 2, c2)), "mixed-necessity"),
        (decide_bounded_target(slobodeckij(2, 2, c1)), "c0-threshold"),
        (decide_bounded_target(c_infinity(whole_space(2))), "unbounded-domain"),
        (decide(lebesgue_lp(2, c1), holder(Fraction(1, 2), c1)), "unmatched"),
    ]


class TestRuleTable:
    def test_every_rule_is_cited_and_resolves(self):
        cited = set()
        for verdict, tag in _rule_queries():
            assert verdict.rule == tag
            report = Report.build("decide", {}, {}, rules=[verdict.rule])
            assert [c["rule"] for c in report.rule_citations] == tag.split("+")
            for cite in report.rule_citations:
                assert cite["anchor"] == RULES[cite["rule"]]
                cited.add(cite["rule"])
        assert cited == set(RULES)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestDecideCommand:
    def test_feasible_exit_zero(self, capsys):
        code, out = _run(capsys, ["decide", "--from", "lp:1", "--to", "lp:inf"])
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["status"] == "Feasible"
        assert doc["payload"]["witness_chain"] == [
            "sequence-lp:1", "sequence-lp:2", "sequence-lp:inf"]

    def test_infeasible_exit_ten(self, capsys):
        code, out = _run(capsys, ["decide", "--from", "holder:1",
                                  "--to", "sup", "--domain", "cube:3"])
        assert code == 10
        doc = json.loads(out)
        assert doc["payload"]["status"] == "Infeasible"
        assert "obstruction" in doc["payload"]

    def test_borderline_exit_eleven(self, capsys):
        code, out = _run(capsys, ["decide", "--from", "slobo:3/2:1",
                                  "--to", "slobo:1:2", "--domain", "cube:1"])
        assert code == 11
        assert json.loads(out)["payload"]["status"] == "Borderline"

    def test_undetermined_exit_twelve(self, capsys):
        code, out = _run(capsys, ["decide", "--from", "mixsob:2:1,0;0,1",
                                  "--to", "mixsob:2:1,0", "--domain", "cube:2"])
        assert code == 12
        assert json.loads(out)["payload"]["status"] == "Undetermined"

    def test_unknown_family_usage_error(self, capsys):
        code = main(["decide", "--from", "wavelet:2", "--to", "lp:2"])
        assert code == 64

    def test_missing_domain_usage_error(self, capsys):
        code = main(["decide", "--from", "holder:1/2", "--to", "sup"])
        assert code == 64

    @pytest.mark.parametrize("source,target", [
        # s - t = 1/2 < d/p1 - d/p2 = 1: W^{3/2}_1 does not embed in W^1_2
        # on the square, so nothing sits between them
        ("slobo:3/2:1", "slobo:1:2"),
        # smoothness never rises on a bounded domain, whatever p1 > p2 allows
        # on R^d
        ("slobo:1:8", "slobo:2:3/2"),
    ])
    def test_pair_below_the_embedding_line_usage_error(self, capsys, source, target):
        code = main(["decide", "--from", source, "--to", target, "--domain", "cube:2"])
        assert code == 64
        assert "rule embedding-line" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["decide", "--from", "slobo:1", "--to", "slobo:0:2", "--domain", "cube:1"],
        ["decide", "--from", "mixsob:2", "--to", "sup", "--domain", "cube:1"],
        ["decide", "--from", "lp:1/0", "--to", "lp:2"],
        ["packing", "--domain", "cube:2", "--deltas", "1/0,1/4,1/8"],
        ["scan", "--from", "lp:3", "--to", "lp:4", "--deltas", "1/4,1/0"],
        ["table", "--kind", "lp", "--values", "1,1/0"],
        ["scan", "--from", "holder:1/4", "--to", "sup", "--domain", "cube:1",
         "--deltas", "1/4,1/8", "--mc-samples", "-3"],
        ["scan", "--from", "holder:1/4", "--to", "sup", "--domain", "cube:1",
         "--deltas", "1/4,1/8", "--mc-samples", "0"],
    ])
    def test_malformed_input_usage_error(self, capsys, argv):
        # wrong parameter counts and zero denominators are usage errors,
        # never tracebacks
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_citations_carry_registered_anchors(self, capsys):
        code, out = _run(capsys, ["decide", "--from", "slobo:11/5:2",
                                  "--to", "slobo:3/10:2", "--domain", "cube:2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["rule_citations"]
        for cite in doc["rule_citations"]:
            assert cite["anchor"] == RULES[cite["rule"]]

    def test_deterministic_output(self, capsys):
        argv = ["decide", "--from", "besov:2:4:4", "--to", "besov:1:4:4",
                "--domain", "cube:2"]
        _, first = _run(capsys, argv)
        _, second = _run(capsys, argv)
        assert first == second
        assert json.loads(first)["schema"] == "rkhs-sandwich-report/1"


# parameters per CLI family, as the README documents them
_CLI_ARITY = {"lp": 1, "lebesgue": 1, "holder": 1, "sobolev": 2, "slobo": 2,
              "besov": 3, "tl": 3, "mixsob": 2, "sup": 0, "c0": 0, "cinf": 0}
_GOOD_NUMBERS = st.one_of(
    st.fractions(min_value=0, max_value=5, max_denominator=6).map(str),
    st.sampled_from(["inf", "1", "2", "3/2", "4"]))
_BAD_NUMBERS = st.sampled_from(["1/0", "-1", "x", "", "1/2/3", "2.5", "nan",
                                "1,0;0,1", "Infinity"])
_INDEX_SETS = st.sampled_from(["1,0;0,1", "1,0", "2,1", "1", "1,1,1", "0,0",
                               "1,-1", "x", ""])
_GOOD_DOMAINS = st.one_of(
    st.builds("{}:{}".format, st.sampled_from(["cube", "ball", "space"]),
              st.integers(min_value=1, max_value=3)),
    st.builds("ball:{}:{}".format, st.integers(min_value=1, max_value=3),
              _GOOD_NUMBERS))
_BAD_DOMAINS = st.one_of(st.none(), st.sampled_from(
    ["seq", "cube", "cube:0", "cube:-1", "cube:x", "torus:2", "ball:2:0",
     "ball:1:-1", "ball:1:x", "space:1/2", "", "cube:3:junk", "ball:2:1:9",
     "space:2:1", "seq:1", "cube:2:"]))


@st.composite
def _space_arg(draw, family):
    """family:param:... with the right parameter count nine times in ten,
    and one malformed parameter or a wrong count the tenth time."""
    if draw(st.integers(0, 9)) == 0:
        params = draw(st.lists(st.one_of(_GOOD_NUMBERS, _BAD_NUMBERS), max_size=4))
    elif family == "mixsob":
        params = [draw(_GOOD_NUMBERS), draw(_INDEX_SETS)]
    else:
        params = [draw(_GOOD_NUMBERS) for _ in range(_CLI_ARITY.get(family, 1))]
    return ":".join([family] + params)


@st.composite
def _decide_args(draw):
    # a known family nine times in ten; the target repeats the source's
    # family half of the time
    def family():
        names = sorted(_CLI_ARITY) if draw(st.integers(0, 9)) else ["wavelet", "", "LP"]
        return draw(st.sampled_from(names))

    source_family = family()
    target_family = source_family if draw(st.booleans()) else family()
    # a well-formed domain eight times in ten; "seq" and none are for lp
    domain = draw(_GOOD_DOMAINS if draw(st.integers(0, 9)) >= 2 else _BAD_DOMAINS)
    argv = ["decide", "--from", draw(_space_arg(source_family)),
            "--to", draw(_space_arg(target_family))]
    return argv if domain is None else argv + ["--domain", domain]


def _check_exit_contract(argv, codes):
    """main(argv) exits with one of codes and prints one JSON document, or
    exits 64 with nothing on stdout and a message on stderr; it never
    raises.  Returns the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    assert code in codes + (64,), (argv, code)
    if code < 64:
        doc = json.loads(out.getvalue())  # one document, nothing after it
        assert out.getvalue() == Report.from_json(out.getvalue()).to_json()
        if argv[0] == "decide":
            assert STATUS_EXIT_CODES[doc["payload"]["status"]] == code
    else:
        assert out.getvalue() == "", argv
        assert err.getvalue().strip(), argv
    return code


@settings(max_examples=300, deadline=None)
@given(_decide_args())
def test_decide_exit_contract(argv):
    # any --from/--to/--domain exits 0/10/11/12 with one JSON document, or
    # 64 with nothing on stdout; never a traceback
    _check_exit_contract(argv, (0, 10, 11, 12))


_DELTA_LISTS = st.one_of(
    # strictly decreasing, as scan requires
    st.sets(st.sampled_from(["1/2", "9/20", "2/5", "1/4", "1/8"]), min_size=2).map(
        lambda deltas: ",".join(sorted(deltas, key=Fraction, reverse=True))),
    st.lists(st.sampled_from(["1/2", "9/20", "2/5", "1/4", "1/8"]), min_size=1,
             max_size=3).map(",".join),
    st.sampled_from(["", "0", "1", "3/4", "1/0", "x", "-1/4", "1/4,,1/8",
                     "1/4,-1/8", "0.25,0.125", "inf", "1/4,inf"]))
# (source, target, domain) of scans cheap enough to run: lp and Lebesgue
# pairs, tents on cube:1 and cube:2, and malformed spaces and domains
_EXPONENTS = st.sampled_from(["1/2", "1", "3/2", "2", "5/2", "3", "4", "inf"])
_SCAN_PAIRS = st.one_of(
    st.tuples(st.builds("lp:{}".format, _EXPONENTS),
              st.builds("lp:{}".format, _EXPONENTS),
              st.sampled_from([None, "seq", "cube:1"])),
    st.tuples(st.builds("lebesgue:{}".format, _EXPONENTS),
              st.builds("lebesgue:{}".format, _EXPONENTS),
              st.sampled_from(["cube:1", "cube:2"])),
    st.tuples(st.sampled_from(["holder:1/4", "holder:1/3", "holder:1/2",
                               "holder:1"]),
              st.sampled_from(["sup", "c0"]), st.just("cube:1")),
    st.tuples(st.sampled_from(["holder:1/3", "holder:1/2", "holder:1"]),
              st.sampled_from(["holder:1/5", "holder:1/8"]), st.just("cube:1")),
    st.tuples(st.sampled_from(["holder:3/4", "holder:1"]),
              st.sampled_from(["sup", "holder:1/2"]), st.just("cube:2")),
    st.tuples(_space_arg("lp"), _space_arg("holder"),
              st.one_of(_BAD_DOMAINS, st.just("cube:1"))),
    # a packing grid refused at the first delta
    st.just(("holder:1/2", "sup", "ball:3")))
# each scan option: (well-formed values, malformed or refused ones)
_SCAN_OPTIONS = (
    ("--mc-samples", ["1", "2", "8"], ["0", "-3", "x"]),
    ("--tolerance", ["1e-4", "1e-3"], ["0", "1", "x", "nan"]),
    ("--seed", ["0", "7", "-1"], ["x", "1.5"]),
    ("--csv", ["{dir}/series.csv"], ["{dir}/missing/series.csv", "{dir}"]))


@st.composite
def _scan_args(draw):
    source, target, domain = draw(_SCAN_PAIRS)
    deltas = "1/8,1/16" if domain == "ball:3" else draw(_DELTA_LISTS)
    argv = ["scan", "--from", source, "--to", target, "--deltas", deltas]
    if domain is not None:
        argv += ["--domain", domain]
    # each option left out, well-formed or (one time in five) malformed
    for flag, good, bad in _SCAN_OPTIONS:
        pick = draw(st.integers(0, 4))
        if pick:
            argv += [flag, draw(st.sampled_from(bad if pick == 4 else good))]
    return argv


@st.composite
def _packing_args(draw):
    domain = draw(st.sampled_from(["cube:1", "cube:2", "cube:3", "ball:1",
                                   "ball:2", "ball:3", "ball:2:1/2", "space:2",
                                   "seq", "cube:0", "torus:2", "ball:1:x", "",
                                   "cube:3:junk", "ball:2:1:9", "space:2:1",
                                   "seq:1"]))
    # up to 1/1024, whose grids are refused outside cube:1
    deltas = draw(st.one_of(
        st.lists(st.sampled_from(["1/2", "1/4", "1/8", "1/64", "1/1024"]),
                 min_size=1, max_size=3).map(",".join), _DELTA_LISTS))
    # metric powers below 1/2 only on one axis, where their grids stay small
    one_axis = domain.split(":")[1:2] == ["1"]
    alpha = draw(st.sampled_from(["1", "1/2", "0", "2", "-1", "x", "1/0"] +
                                 (["1/3", "1/4"] if one_axis else [])))
    argv = ["packing", "--domain", domain, "--deltas", deltas, "--alpha", alpha]
    return argv + ["--brute-force"] if draw(st.booleans()) else argv


@settings(max_examples=150, deadline=None)
@given(st.one_of(_scan_args(), _packing_args()))
def test_scan_and_packing_exit_contract(argv):
    # scan and packing exit 0 with one JSON document, or 64 with nothing on
    # stdout, whatever the input; a --csv path that cannot be written is a
    # usage error like any other
    with tempfile.TemporaryDirectory() as tmp:
        argv = [arg.format(dir=tmp) for arg in argv]
        code = _check_exit_contract(argv, (0,))
        if code == 0 and "--csv" in argv:
            csv = Path(argv[argv.index("--csv") + 1])
            assert csv.read_text().startswith("delta,n,ratio,mode\n")


_HUGE = "1" + "0" * 400  # 10^400 overflows a float, and 1/10^400 underflows to 0.0
_NUMBERS = st.sampled_from(["0", "1", "-1", "1/2", "3/2", "2", "5/2", "3", "4",
                            "-1/6", "1/24", "inf", _HUGE, "-" + _HUGE,
                            "1/" + _HUGE, f"{_HUGE}/3", "7/" + _HUGE])
# empty, malformed, zero-denominator and non-finite entries
_BAD_NUMBERS = st.sampled_from(["", " ", "x", "1/0", "1e3", "nan", "-inf", "1//2"])
_NUMBER_LISTS = st.one_of(
    st.lists(_NUMBERS, min_size=1, max_size=5).map(",".join),
    st.lists(st.one_of(_NUMBERS, _BAD_NUMBERS), min_size=1, max_size=5).map(",".join),
    st.sampled_from(["", ",", "1,,2", "1,"]))
_TABLE_DOMAINS = st.sampled_from([None, "cube:1", "cube:2", "cube:3", "ball:2",
                                  "ball:2:1/2", "ball:3:" + _HUGE, "ball:2:1/" + _HUGE,
                                  "space:2", "seq", "cube:0", "cube:-1", "cube:x",
                                  "torus:2", "ball:2:0", "ball:2:-1", "ball:2:inf",
                                  "", "cube"])


@st.composite
def _table_args(draw):
    argv = ["table", "--kind", draw(st.sampled_from(["lp", "lebesgue",
                                                     "slobodeckij"])),
            "--values", draw(_NUMBER_LISTS)]
    domain = draw(_TABLE_DOMAINS)
    return argv if domain is None else argv + ["--domain", domain]


@st.composite
def _irkbs_args(draw):
    series = draw(st.one_of(st.just("cos"), _NUMBER_LISTS,
                            st.lists(_NUMBERS, min_size=2, max_size=12).map(",".join)))
    argv = ["irkbs", "--series", series]
    radius = draw(st.sampled_from([None, "0", "-1", "inf", "1", "1/2", "2",
                                   "3/2", _HUGE, "1/" + _HUGE, "x", "", "1/0"]))
    if radius is not None:
        argv += ["--domain-radius", radius]
    measure = draw(st.sampled_from([None, "all", "restricted", "none"]))
    return argv if measure is None else argv + ["--measure-class", measure]


@settings(max_examples=300, deadline=None)
@given(st.one_of(_table_args(), _irkbs_args()))
def test_table_and_irkbs_exit_contract(argv):
    # table and irkbs exit 0 with one JSON document, or 64 with nothing on
    # stdout, whatever the values, series, domain or radius
    _check_exit_contract(argv, (0,))


def test_cli_runs_as_a_process():
    # the module entry point maps the verdict to the process exit code
    src = str(Path(rkhs_sandwich.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "rkhs_sandwich.cli", "decide",
                           "--from", "holder:1", "--to", "sup", "--domain", "cube:3"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 10, proc.stderr
    assert json.loads(proc.stdout)["payload"]["status"] == "Infeasible"


def test_engine_path_imports_no_scipy():
    # SciPy serves only the numerical lab; the engine and the CLI's decide
    # must answer without loading it
    code = ("import contextlib, io, sys\n"
            "import rkhs_sandwich, rkhs_sandwich.cli\n"
            "from rkhs_sandwich import (cube, decide, decide_bounded_target,\n"
            "                           finite_metric, holder, slobodeckij)\n"
            "metric = finite_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    code = rkhs_sandwich.cli.main(['decide', '--from', 'holder:1',\n"
            "                                   '--to', 'sup', '--domain', 'cube:3'])\n"
            "print(decide(slobodeckij(3, 2, cube(2)), slobodeckij(1, 2, cube(2))).status,\n"
            "      decide_bounded_target(holder(1, metric)).rule, code)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(rkhs_sandwich.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["Feasible holder-packing 10", "[]"]


class TestScanCommand:
    def test_scan_writes_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "series.csv"
        code, out = _run(capsys, ["scan", "--from", "lp:3", "--to", "lp:4",
                                  "--deltas", "1/4,1/16,1/64",
                                  "--csv", str(csv_path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["fitted_slope"] == pytest.approx(1 / 6, abs=1e-9)
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "delta,n,ratio,mode"
        assert len(lines) == 4

    @pytest.mark.parametrize("where", ["missing/series.csv", "."])
    def test_unwritable_csv_is_a_usage_error(self, capsys, tmp_path, where):
        code = main(["scan", "--from", "lp:3", "--to", "lp:4",
                     "--deltas", "1/4,1/16", "--csv", str(tmp_path / where)])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write --csv ")
        assert len(captured.err.splitlines()) == 1

    def test_hoelder_target_scan_meets_its_prediction(self, capsys):
        # the target side is measured in its own Hoelder norm, so the ratio
        # grows at the predicted rate 1/2 (with sup it stayed constant)
        code, out = _run(capsys, ["scan", "--from", "holder:1/2", "--to",
                                  "holder:1/4", "--domain", "cube:1",
                                  "--deltas", "1/4,1/8,1/16",
                                  "--mc-samples", "8"])
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["predicted_exponent"] == "1/2"
        assert doc["payload"]["fitted_slope"] == pytest.approx(0.5, abs=0.05)

    def test_scan_refuses_an_oversized_packing_grid(self, capsys):
        code = main(["scan", "--from", "holder:1/2", "--to", "sup", "--domain",
                     "ball:3", "--deltas", "1/8,1/16"])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert "would have 513^3 cells" in captured.err

    @pytest.mark.parametrize("argv,delta", [
        (["--from", "lp:3", "--to", "lp:4", "--deltas", "1/2,9/20"], "9/20"),
        (["--from", "lebesgue:4", "--to", "lebesgue:3", "--domain", "cube:2",
          "--deltas", "1/2,2/5,1/3"], "2/5"),
    ])
    def test_closed_form_scan_refuses_a_delta_not_one_over_m(self, capsys, argv,
                                                             delta):
        code = main(["scan"] + argv)
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert captured.err == ("error: this construction needs deltas of the "
                                f"form 1/m, not {delta}\n")

    def test_scan_refuses_feasible_pair(self, capsys):
        code = main(["scan", "--from", "lp:1", "--to", "lp:inf",
                     "--deltas", "1/4,1/8"])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert captured.err == ("error: verdict is Feasible; scans need an "
                                "Infeasible pair with an obstruction recipe\n")


class TestTableCommand:
    def test_lp_table(self, capsys):
        code, out = _run(capsys, ["table", "--kind", "lp",
                                  "--values", "1,2,3,inf"])
        assert code == 0
        cells = json.loads(out)["payload"]["cells"]
        by_key = {(c["row"], c["col"]): c["status"] for c in cells}
        assert by_key[("1", "inf")] == "Feasible"
        assert by_key[("3", "inf")] == "Infeasible"

    def test_table_size_refusal(self, capsys):
        values = ",".join(str(k) for k in range(1, 102))
        code = main(["table", "--kind", "lp", "--values", values])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert captured.err == "error: refusing a table with more than 10^4 cells\n"


class TestPackingCommand:
    def test_counts_and_fit(self, capsys):
        code, out = _run(capsys, ["packing", "--domain", "cube:1",
                                  "--deltas", "1/8,1/16,1/32,1/64"])
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["counts"][0]["count"] >= 4
        assert 0.8 <= doc["payload"]["fitted_exponent"] <= 1.2

    def test_oversized_grid_is_a_usage_error(self, capsys):
        code = main(["packing", "--domain", "ball:3", "--deltas", "1/64"])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert captured.err.startswith("error: the candidate grid at delta=1/64 "
                                       "would have 513^3 cells")


    @pytest.mark.parametrize("argv", [
        ["packing", "--domain", "cube:1", "--deltas", "5", "--alpha", "1/1000"],
        ["packing", "--domain", "cube:1", "--deltas", "1/1000", "--alpha", "1/1000"],
        ["packing", "--domain", "ball:2", "--deltas", "1/1000", "--alpha", "1/500"],
        ["scan", "--from", "holder:1/1000", "--to", "sup", "--domain", "cube:1",
         "--deltas", "1/64,1/128"],
    ])
    def test_radius_outside_the_floats_is_a_usage_error(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert captured.err.startswith("error: the Euclidean packing radius "
                                       "delta^(1/alpha) at delta=")
        assert captured.err.endswith("leaves the range of floats\n")

    def test_oversized_grid_side_is_not_printed(self, capsys):
        code = main(["scan", "--from", "holder:1/1000", "--to", "sup", "--domain",
                     "cube:1", "--deltas", "1/2,1/4"])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert captured.err == ("error: the candidate grid at delta=1/2 would have "
                                "more than 4194304 cells on one axis\n")


class TestIrkbsCommand:
    def test_cosine_bounded(self, capsys):
        code, out = _run(capsys, ["irkbs", "--series", "cos",
                                  "--domain-radius", "1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["lemma_applicable"] == "yes-bounded-kernels"
        assert doc["payload"]["radius_plus"]["method"] == "factorial-detect"

    def test_whole_space_conditional(self, capsys):
        code, out = _run(capsys, ["irkbs", "--series", "cos",
                                  "--measure-class", "all"])
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["lemma_applicable"] == "conditional"
        assert "cosh" in doc["payload"]["required_integrability"]

    @pytest.mark.parametrize("series", ["cos", "1,-1/2,1/3,-1/4"])
    def test_measure_class_all_keeps_the_radius(self, capsys, series):
        # --measure-class all only spells out the default: the reports differ
        # only in the query that echoes it
        argv = ["irkbs", "--series", series, "--domain-radius", "1"]
        spelled, default = (json.loads(_run(capsys, a)[1])
                            for a in (argv + ["--measure-class", "all"], argv))
        assert spelled.pop("query") == dict(default.pop("query"), measure_class="all")
        assert spelled == default

    def test_payload_is_the_decomposition_report(self, capsys):
        # the bounded cosine, the whole-space cosine and a coefficient list
        cases = [
            (["--series", "cos", "--domain-radius", "1"], cosine_series(),
             "all-finite-signed"),
            (["--series", "cos", "--measure-class", "all"],
             SeriesSpec(cosine_series().coefficients, None), "all-finite-signed"),
            (["--series", "1,-1/2,1/3,-1/4", "--domain-radius", "1/2"],
             SeriesSpec((1, Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4)),
                        Fraction(1, 2)), "all-finite-signed"),
        ]
        for argv, spec, measure_class in cases:
            code, out = _run(capsys, ["irkbs"] + argv)
            assert code == 0
            assert json.loads(out)["payload"] == \
                _plain(check_applicability(spec, measure_class)), argv


class TestParsers:
    def test_domain_parsing(self):
        assert parse_domain("cube:3").dimension == 3
        assert parse_domain("ball:2:1/2").dimension == 2
        assert parse_domain("space:1").bounded is False
        with pytest.raises(ValueError):
            parse_domain("torus:2")

    @pytest.mark.parametrize("text", ["cube:3:junk", "cube:2:", "space:2:1",
                                      "ball:2:1:9", "ball:2:1/2:", "seq:1",
                                      "seq:"])
    def test_surplus_domain_fields_are_refused(self, capsys, text):
        with pytest.raises(ValueError, match="bad domain"):
            parse_domain(text)
        code, out = _run(capsys, ["decide", "--from", "lebesgue:4", "--to",
                                  "lebesgue:2", "--domain", text])
        assert (code, out) == (64, "")

    def test_space_needs_domain(self):
        with pytest.raises(ValueError):
            parse_space("lebesgue:2", None)
