"""JSON reports, the rule table they cite, and the command-line front end."""

import contextlib
import io
import json
import os
import subprocess
import sys
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
     "ball:1:-1", "ball:1:x", "space:1/2", ""]))


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


@settings(max_examples=300, deadline=None)
@given(_decide_args())
def test_decide_exit_contract(argv):
    # any --from/--to/--domain exits 0/10/11/12 with one JSON document, or
    # 64 with nothing on stdout; never a traceback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    assert code in (0, 10, 11, 12, 64), (argv, code)
    if code < 64:
        doc = json.loads(out.getvalue())  # one document, nothing after it
        assert STATUS_EXIT_CODES[doc["payload"]["status"]] == code
        assert out.getvalue() == Report.from_json(out.getvalue()).to_json()
    else:
        assert out.getvalue() == "", argv
        assert err.getvalue().strip(), argv


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

    def test_space_needs_domain(self):
        with pytest.raises(ValueError):
            parse_space("lebesgue:2", None)
