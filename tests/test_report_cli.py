"""JSON reports and the command-line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rkhs_sandwich
from rkhs_sandwich.cli import main, parse_domain, parse_space
from rkhs_sandwich.report import RULE_REGISTRY, Report


class TestReport:
    def test_round_trip(self):
        r = Report.build("decide", {"from": "lp:1", "to": "lp:inf"},
                         {"status": "Feasible"}, rules=["lp-iff"])
        again = Report.from_json(r.to_json())
        assert again == r

    def test_compound_rule_tags_split(self):
        r = Report.build("decide", {}, {}, rules=["R11+R5"])
        assert [c["rule"] for c in r.rule_citations] == ["R11", "R5"]
        assert all(c["anchor"] != "unregistered" for c in r.rule_citations)

    def test_unregistered_tag_is_flagged(self):
        r = Report.build("decide", {}, {}, rules=["R99"])
        assert r.rule_citations[0]["anchor"] == "unregistered"


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
            assert cite["anchor"] == RULE_REGISTRY[cite["rule"]]

    def test_deterministic_output(self, capsys):
        argv = ["decide", "--from", "besov:2:4:4", "--to", "besov:1:4:4",
                "--domain", "cube:2"]
        _, first = _run(capsys, argv)
        _, second = _run(capsys, argv)
        assert first == second
        assert json.loads(first)["schema"] == "rkhs-sandwich-report/1"


def test_cli_runs_as_a_process():
    # the module entry point maps the verdict to the process exit code
    src = str(Path(rkhs_sandwich.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "rkhs_sandwich.cli", "decide",
                           "--from", "holder:1", "--to", "sup", "--domain", "cube:3"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 10, proc.stderr
    assert json.loads(proc.stdout)["payload"]["status"] == "Infeasible"


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

    def test_scan_refuses_feasible_pair(self, capsys):
        code = main(["scan", "--from", "lp:1", "--to", "lp:inf",
                     "--deltas", "1/4,1/8"])
        assert code == 2


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
        assert code == 2


class TestPackingCommand:
    def test_counts_and_fit(self, capsys):
        code, out = _run(capsys, ["packing", "--domain", "cube:1",
                                  "--deltas", "1/8,1/16,1/32,1/64"])
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["counts"][0]["count"] >= 4
        assert 0.8 <= doc["payload"]["fitted_exponent"] <= 1.2


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
