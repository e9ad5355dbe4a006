"""Command line surface: pipelines, exit codes, machine-readable reports."""

import copy
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import axial
from axial import (
    GF,
    QQ,
    ThreeTranspositionGroup,
    dump_algebra,
    hw_periodic_quotient,
    load_algebra,
    matsuo,
    norton_sakuma,
)
from axial.axes import DEFAULT_AXIS_CAP
from axial.cli import main
from axial.highwater import MAX_WINDOW


@pytest.fixture()
def runner():
    return CliRunner()


def build(runner, spec: str) -> str:
    result = runner.invoke(main, ["build", spec])
    assert result.exit_code == 0, result.output
    return result.output


def run_process(args, text, timeout=None):
    """`axial ARGS` in a real process, so that an uncaught error would print its traceback."""
    src = str(Path(axial.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", "from axial.cli import main; main()", *args],
        input=text, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        timeout=timeout,
    )


class TestBuild:
    def test_catalog_entries(self, runner):
        for spec in ("ns:2A", "ns:6A", "matsuo:Sn:3:1/4", "matsuo:Sn:4:1/4"):
            doc = json.loads(build(runner, spec))
            assert doc["dim"] == len(doc["basis"])

    def test_deterministic_bytes(self, runner):
        assert build(runner, "ns:4A") == build(runner, "ns:4A")

    def test_unknown_entry_exit_2(self, runner):
        result = runner.invoke(main, ["build", "ns:9Z"])
        assert result.exit_code == 2

    def test_garbage_spec_exit_2(self, runner):
        result = runner.invoke(main, ["build", "wat"])
        assert result.exit_code == 2

    def test_gram_file_families(self, runner, tmp_path):
        gram = tmp_path / "gram.json"
        gram.write_text("[[2, 0], [0, 2]]")
        result = runner.invoke(main, ["build", f"spin:{gram}"])
        assert result.exit_code == 0
        assert json.loads(result.output)["dim"] == 3

        unit = tmp_path / "unit.json"
        unit.write_text('[["1", "0"], ["0", "1"]]')
        result = runner.invoke(main, ["build", f"splitspin:{unit}:1/3"])
        assert result.exit_code == 0
        assert json.loads(result.output)["dim"] == 4

    def test_flip_spec(self, runner):
        result = runner.invoke(main, ["build", "flip:matsuo:Sn:4:1/4:(1 2)(3 4)"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["dim"] == 4

    @pytest.mark.parametrize("args", [
        ["build", "matsuo:Sn:40:1/3"],
        ["build", "flip:matsuo:Sn:40:1/3:(1 2)"],
        ["hw", "quotient", "200"],
    ])
    def test_build_dimension_cap_exit_3(self, runner, args):
        start = time.perf_counter()
        result = runner.invoke(main, args)
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 3
        assert "past the build cap" in result.output
        assert "Traceback" not in result.output


class TestVerify:
    def test_pipeline_pass(self, runner):
        doc = build(runner, "ns:2A")
        result = runner.invoke(main, ["verify", "-", "--law", "M:1/4,1/32"], input=doc)
        assert result.exit_code == 0
        assert "pass" in result.output

    def test_roundtrip_is_identity(self, runner):
        doc = build(runner, "ns:3A")
        result = runner.invoke(main, ["verify", "-", "--json"], input=doc)
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert all(r["passed"] for r in report["axes"])

    def test_wrong_law_fails(self, runner):
        doc = build(runner, "ns:3A")
        result = runner.invoke(main, ["verify", "-", "--law", "J:1/4"], input=doc)
        assert result.exit_code == 1

    def test_malformed_json_exit_2(self, runner):
        result = runner.invoke(main, ["verify", "-"], input="{not json")
        assert result.exit_code == 2

    @pytest.mark.parametrize("law, message", [
        ({"kind": "J"}, "law J needs key 'eta'"),
        ({"kind": "A", "eta": "1/2"}, "law A takes no key 'eta'"),
        ({"kind": "M", "alpha": "1/4", "beta": "1/32", "extra": 1}, "law M takes no key 'extra'"),
    ])
    def test_law_object_with_other_keys_exit_2(self, runner, law, message):
        doc = json.loads(build(runner, "ns:2A"))
        doc["law"] = law
        result = runner.invoke(main, ["verify", "-"], input=json.dumps(doc))
        assert result.exit_code == 2
        assert message in result.output

    def test_bad_law_text_exit_2(self, runner):
        doc = build(runner, "ns:2A")
        result = runner.invoke(main, ["verify", "-", "--law", "Q:7"], input=doc)
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "key, vec", [("products", ["1", "0", "0"]), ("axes", ["1", "0", "0"]), ("axes", {"0": 5})]
    )
    def test_malformed_vector_exit_2(self, runner, key, vec):
        # a real process, so that an uncaught error would print its traceback
        doc = json.loads(build(runner, "ns:2A"))
        doc[key][0]["v"] = vec
        src = str(Path(axial.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", "from axial.cli import main; main()", "verify", "-"],
            input=json.dumps(doc), capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stdout + proc.stderr


class TestMiyamoto:
    def test_closed_orbit_report(self, runner):
        doc = build(runner, "ns:6A")
        result = runner.invoke(main, ["miyamoto", "-", "--json"], input=doc)
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert len(report["axes"]) == 6
        assert sorted(len(o) for o in report["orbits"]) == [3, 3]
        assert report["group_order"] == 6

    def test_env_group_cap(self, runner):
        # the group has no cap of its own, and AXIAL_CAP is not read
        doc = build(runner, "ns:5A")
        result = runner.invoke(main, ["miyamoto", "-", "--json"], input=doc, env={"AXIAL_CAP": "3"})
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["group_order"] == 10

    def test_trivial_group_has_order_one(self, runner):
        # (1 2) and (3 4) fix each other: the group is trivial, order 1
        doc = json.loads(build(runner, "matsuo:Sn:4:1/4"))
        doc["axes"] = [a for a in doc["axes"] if a["name"] in ("(1 2)", "(3 4)")]
        result = runner.invoke(main, ["miyamoto", "-", "--json"], input=json.dumps(doc))
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["group_order"] == 1

    @pytest.mark.parametrize("args", [["miyamoto", "-"], ["axet", "--gens", "0,2", "-"]])
    def test_infinite_closure_stops_at_the_default_cap(self, args, tmp_path):
        # cos(theta) = 1/6 is no rational multiple of pi, so the closure of the
        # spin factor on this gram is infinite; it stops at cap 128 in seconds
        gram = tmp_path / "gram.json"
        gram.write_text('[["2", "1/3"], ["1/3", "2"]]')
        doc = build(CliRunner(), f"spin:{gram}")
        start = time.perf_counter()
        proc = run_process(args, doc, timeout=30)
        assert time.perf_counter() - start < 10
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == "error: axis closure exceeded cap 128\n"

    def test_axis_cap_exit_3(self, runner):
        # designate only two axes so the closure actually has to grow
        doc = json.loads(build(runner, "ns:5A"))
        doc["axes"] = doc["axes"][:2]
        result = runner.invoke(main, ["miyamoto", "-", "--cap", "2"], input=json.dumps(doc))
        assert result.exit_code == 3
        # ns:6A designates all six axes; from two of them the closure needs a cap of 6
        doc = json.loads(build(runner, "ns:6A"))
        doc["axes"] = doc["axes"][:2]
        args = ["miyamoto", "-", "--json", "--cap"]
        assert runner.invoke(main, args + ["5"], input=json.dumps(doc)).exit_code == 3
        result = runner.invoke(main, args + ["6"], input=json.dumps(doc))
        assert result.exit_code == 0
        assert len(json.loads(result.output)["axes"]) == 6

    def test_axis_cap_counts_the_seeds(self, runner):
        # NS 3A designates three axes, already closed: cap 2 is too small
        doc = build(runner, "ns:3A")
        result = runner.invoke(main, ["miyamoto", "-", "--cap", "2"], input=doc)
        assert result.exit_code == 3, result.output
        assert result.stderr == "error: axis closure exceeded cap 2\n"
        assert runner.invoke(main, ["miyamoto", "-", "--cap", "3"], input=doc).exit_code == 0

    @pytest.mark.parametrize("cap,code,message", [
        ("-1", 2, "error: cap -1 is below 0\n"),
        ("0", 3, "error: axis closure exceeded cap 0\n"),
    ])
    def test_negative_cap_exit_2_and_cap_0_exit_3(self, runner, cap, code, message):
        # a real process, so that an uncaught error would print its traceback
        proc = run_process(["miyamoto", "--cap", cap, "-"], build(runner, "ns:3A"))
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", message)

    def test_commuting_axes_give_trivial_group(self, runner):
        doc = json.loads(build(runner, "matsuo:Sn:4:1/4"))
        doc["axes"] = [a for a in doc["axes"] if a["name"] in ("(1 2)", "(3 4)")]
        result = runner.invoke(main, ["miyamoto", "-"], input=json.dumps(doc))
        assert result.exit_code == 0, result.output
        assert "closed axes: 2" in result.output
        assert "group order: 1" in result.output


class TestFrobenius:
    def test_form_report(self, runner):
        doc = build(runner, "ns:3A")
        result = runner.invoke(main, ["frobenius", "-"], input=doc)
        assert result.exit_code == 0
        assert "13/256" in result.output
        assert "radical" in result.output

    def test_json_report(self, runner):
        doc = build(runner, "ns:2B")
        result = runner.invoke(main, ["frobenius", "-", "--json"], input=doc)
        report = json.loads(result.output)
        assert report["solution_dim"] == 2
        assert not report["ambiguous"]
        assert [e["norm"] for e in report["axis_norms"]] == ["1", "1"]
        assert report["radical"] == []

    def test_radical_command(self, runner):
        doc = build(runner, "matsuo:Sn:3:-1")
        result = runner.invoke(main, ["radical", "-", "--json"], input=doc)
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["dim"] == 1
        assert len(report["basis"]) == 1

    def test_radical_without_axes_exit_3(self, runner):
        doc = json.loads(build(runner, "ns:2B"))
        doc["axes"] = []
        result = runner.invoke(main, ["radical", "-"], input=json.dumps(doc))
        assert result.exit_code == 3


class TestStructureCommands:
    def test_decompose(self, runner):
        doc = build(runner, "ns:2B")
        result = runner.invoke(main, ["decompose", "-", "--json"], input=doc)
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert len(report["components"]) == 2
        assert report["direct"] and report["pairwise_zero"]

    def test_axet(self, runner):
        doc = build(runner, "ns:5A")
        result = runner.invoke(main, ["axet", "-"], input=doc)
        assert result.exit_code == 0
        assert "X(5)" in result.output

    @pytest.mark.parametrize("gens", ["0,0", "1,1", "0,5"])
    def test_axet_needs_two_distinct_axes(self, runner, gens):
        # axis 5 is a second copy of axis 0
        doc = json.loads(build(runner, "ns:5A"))
        doc["axes"].append(doc["axes"][0])
        result = runner.invoke(main, ["axet", "--gens", gens, "-"], input=json.dumps(doc))
        assert result.exit_code == 2
        assert "two distinct axes" in result.output


class TestHighwaterCommands:
    def test_quotient_build_and_verify(self, runner):
        result = runner.invoke(main, ["hw", "quotient", "4"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["dim"] == 6
        verify = runner.invoke(main, ["verify", "-"], input=result.output)
        assert verify.exit_code == 0

    def test_check_tuple(self, runner):
        good = runner.invoke(main, ["hw", "check-tuple", "1,-2,1"])
        assert good.exit_code == 0
        bad = runner.invoke(main, ["hw", "check-tuple", "1,1"])
        assert bad.exit_code == 1
        flagged = runner.invoke(main, ["hw", "check-tuple", "1,0,-1"])
        assert flagged.exit_code == 0
        assert "-1" in flagged.output

    def test_member(self, runner, tmp_path):
        elem = tmp_path / "elem.json"
        elem.write_text(json.dumps({"a": {"0": "1", "1": "-2", "2": "1"}, "s": {}}))
        result = runner.invoke(main, ["hw", "member", "1,-2,1", str(elem)])
        assert result.exit_code == 0
        assert "yes" in result.output

    @pytest.mark.parametrize("elem, message", [
        ({"A": {"47": "1"}}, "unexpected key 'A'"),
        ({"a": {"0": "1"}, "t": {}}, "unexpected key 't'"),
        ({"a": []}, "element part 'a'"),
        ([], "must be an object"),
    ])
    def test_member_element_outside_the_format_exit_2(self, runner, elem, message):
        result = runner.invoke(main, ["hw", "member", "--json", "1,-2,1", "-"], input=json.dumps(elem))
        assert result.exit_code == 2
        assert message in result.output

    @pytest.mark.parametrize("elem", [
        {"a": {"1_0": "1"}}, {"a": {" +1 ": "1"}}, {"s": {"\u0661": "1"}}, {"a": {"-0": "1"}},
    ])
    def test_member_index_key_not_in_dumper_form_exit_2(self, runner, elem):
        result = runner.invoke(main, ["hw", "member", "1,-2,1", "-"], input=json.dumps(elem))
        assert result.exit_code == 2
        assert "decimal integer" in result.output

    @pytest.mark.parametrize("elem,window", [
        ({"a": {"1000000000": "1"}}, None),
        ({"s": {"1000000000": "1"}}, None),
        ({"a": {"0": "1"}}, str(MAX_WINDOW + 1)),
    ])
    def test_member_window_cap_exit_3(self, runner, elem, window):
        args = ["hw", "member", "1,-2,1", "-"] + (["--window", window] if window else [])
        start = time.perf_counter()
        result = runner.invoke(main, args, input=json.dumps(elem))
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 3
        assert "exceeds cap" in result.output

    def test_member_negative_window_exit_2(self, runner):
        result = runner.invoke(main, ["hw", "member", "1,-2,1", "-", "--window", "-3"],
                               input=json.dumps({"a": {"0": "1"}}))
        assert result.exit_code == 2
        assert result.output == "error: window -3 is below 0\n"

    @pytest.mark.parametrize("period", ["-5", "0", "1"])
    def test_quotient_period_below_2_exit_2(self, runner, period):
        # a negative PERIOD is read as a number, not as an option
        result = runner.invoke(main, ["hw", "quotient", period])
        assert result.exit_code == 2
        assert result.output == f"error: period {period} is below 2\n"

    def test_quotient_help_and_unknown_options(self, runner):
        assert runner.invoke(main, ["hw", "quotient", "--help"]).exit_code == 0
        result = runner.invoke(main, ["hw", "quotient", "5", "--bogus"])
        assert result.exit_code == 2
        assert "--bogus" in result.output

    def test_tuple_with_a_negative_first_coefficient(self):
        # real processes: -1,2,-1 is read as the CSV argument, not as an option
        tup = run_process(["hw", "check-tuple", "--json", "-1,2,-1"], "")
        assert (tup.returncode, json.loads(tup.stdout)["ok"]) == (0, True)
        bad = run_process(["hw", "check-tuple", "-1,-1"], "")
        assert (bad.returncode, bad.stdout) == (1, "NOT ideal type\n")
        elem = json.dumps({"a": {"3": "-1", "4": "2", "5": "-1"}, "s": {}})
        member = run_process(["hw", "member", "-1,2,-1", "-"], elem)
        assert (member.returncode, member.stdout) == (0, "yes\n")

    @pytest.mark.parametrize("args", [
        ["hw", "check-tuple", "--jsn", "1,-2,1"],
        ["hw", "check-tuple", "--jsn"],
        ["hw", "member", "1,-2,1", "--windw", "5", "-"],
        ["hw", "member", "--windw", "5", "-1,2,-1", "-"],
    ])
    def test_mistyped_option_exit_2(self, args):
        proc = run_process(args, json.dumps({"a": {"0": "1"}}))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stdout + proc.stderr


class TestIntegerArguments:
    ELEMENT = json.dumps({"a": {"0": "1", "1": "-2", "2": "1"}, "s": {}})

    @pytest.mark.parametrize("args", [
        ["build", "matsuo:Sn:0_4:1/4"],
        ["build", "flip:matsuo:Sn:4:1/4:(1 +2)(3 4)"],
        ["hw", "quotient", "1_0"],
        ["hw", "member", "1,-2,1", "-", "--window", " 9"],
        ["hw", "member", "1,-2,1", "-", "--window", "09"],
        ["axet", "-", "--gens", " 0,+1"],
        ["miyamoto", "-", "--cap", "1_0"],
        ["miyamoto", "-", "--cap", "+6"],
    ])
    def test_integer_not_in_str_form_exit_2(self, runner, args):
        # int() reads each of these; the rule is the loader's, str(k) == text
        text = self.ELEMENT if args[0] == "hw" else build(runner, "ns:5A")
        result = runner.invoke(main, args, input=text)
        _assert_clean(result)
        assert result.exit_code == 2

    @pytest.mark.parametrize("cap", ["abc", "1_0"])
    def test_bad_env_group_cap_ignored(self, runner, monkeypatch, cap):
        # AXIAL_CAP is not read, so a value no integer reader accepts changes nothing
        doc = build(runner, "ns:5A")
        monkeypatch.setenv("AXIAL_CAP", cap)
        proc = run_process(["miyamoto", "-", "--json"], doc)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["group_order"] == 10
        assert proc.stderr == ""


class TestDocumentErrors:
    @pytest.mark.parametrize("order", ["zero-first", "zero-last", "same-pair"])
    def test_conflicting_products_exit_2(self, order):
        # a real process, so that an uncaught error would print its traceback
        zero = {"i": 0, "j": 1, "v": {}}
        i, j = (0, 1) if order == "same-pair" else (1, 0)
        unit = {"i": i, "j": j, "v": {"0": "1"}}
        doc = {
            "field": {"kind": "rational"}, "dim": 2, "basis": ["a", "b"],
            "products": [unit, zero] if order == "zero-last" else [zero, unit],
            "axes": [{"name": "a", "v": {"0": "1"}}], "law": {"kind": "A"},
        }
        proc = run_process(["verify", "-"], json.dumps(doc))
        assert proc.returncode == 2
        assert "conflicting" in proc.stderr
        assert "Traceback" not in proc.stdout + proc.stderr

    @pytest.mark.parametrize("where,key,value", [
        ("product", "i", 0.9), ("top", "dim", 2.0), ("product", "j", True),
    ])
    def test_non_integer_index_exit_2(self, runner, where, key, value):
        doc = json.loads(build(runner, "ns:2B"))
        (doc["products"][0] if where == "product" else doc)[key] = value
        proc = run_process(["verify", "-"], json.dumps(doc))
        assert proc.returncode == 2
        assert "JSON integer" in proc.stderr
        assert "Traceback" not in proc.stdout + proc.stderr

    @pytest.mark.parametrize("where,key", [
        ("the top-level object", "field"), ("the top-level object", "dim"), ("the top-level object", "basis"),
        ("a product entry", "i"), ("a product entry", "j"), ("a product entry", "v"),
        ("an axis entry", "name"), ("an axis entry", "v"),
    ])
    def test_missing_key_is_named_exit_2(self, runner, where, key):
        doc = json.loads(build(runner, "ns:2B"))
        parts = {"the top-level object": doc, "a product entry": doc["products"][0], "an axis entry": doc["axes"][0]}
        del parts[where][key]
        result = runner.invoke(main, ["verify", "-"], input=json.dumps(doc))
        assert result.exit_code == 2
        assert result.output == f"error: bad algebra document: {where} has no key '{key}'\n"

    @pytest.mark.parametrize("key", ["0_1", " +1 ", "\u0661", "01", "-0"])
    def test_index_key_not_in_dumper_form_exit_2(self, runner, key):
        # int() reads each of these as an index; the dumper writes only str(k)
        doc = json.loads(build(runner, "ns:2B"))
        doc["axes"][1]["v"] = {key: "1"}
        result = runner.invoke(main, ["verify", "-"], input=json.dumps(doc))
        assert result.exit_code == 2
        assert "decimal integer" in result.output

    def test_modulus_past_the_primality_bound_exit_3(self):
        # 2^127 - 1 is prime, but past 3317044064679887385961981 the
        # primality check is not proven, so the field is declined
        doc = {"field": {"kind": "prime", "p": 2**127 - 1}, "dim": 1, "basis": ["a"],
               "products": [{"i": 0, "j": 0, "v": {"0": "1 mod 7"}}]}
        proc = run_process(["verify", "-"], json.dumps(doc))
        assert proc.returncode == 3
        assert "3317044064679887385961981" in proc.stderr
        assert "Traceback" not in proc.stdout + proc.stderr

    @pytest.mark.parametrize("scalar", ["\u0661", "\u0661/\u0662", "-\u0661"])
    def test_non_ascii_digits_in_scalar_exit_2(self, runner, scalar):
        # int() reads these digits, so "\u0661" loaded as 1 before
        doc = json.loads(build(runner, "ns:2B"))
        doc["axes"][1]["v"] = {"1": scalar}
        proc = run_process(["verify", "-"], json.dumps(doc))
        assert proc.returncode == 2
        assert "bad scalar literal" in proc.stderr
        assert "Traceback" not in proc.stdout + proc.stderr

    def test_form_survives_a_pipe(self, runner):
        doc = json.loads(build(runner, "ns:3A"))
        assert doc["form"][0] == ["1", "13/256", "13/256", "1/4"]
        assert load_algebra(json.dumps(doc)).form == norton_sakuma("3A").form

    @pytest.mark.parametrize("form", [[["1"]], [["1", "0", "0", "1/0"]] * 4, "1"])
    def test_malformed_form_exit_2(self, runner, form):
        doc = json.loads(build(runner, "ns:3A"))
        doc["form"] = form
        result = runner.invoke(main, ["frobenius", "-"], input=json.dumps(doc))
        assert result.exit_code == 2
        assert result.output.startswith("error: ")

    @staticmethod
    def diagonal(n):
        """The algebra document of e_i e_i = e_i, e_i e_j = 0, every e_i an axis."""
        return json.dumps({
            "field": {"kind": "rational"}, "dim": n, "basis": [f"e{i}" for i in range(n)],
            "products": [{"i": i, "j": i, "v": {str(i): "1"}} for i in range(n)],
            "axes": [{"name": f"e{i}", "v": {str(i): "1"}} for i in range(n)],
            "law": {"kind": "A"},
        })

    @pytest.mark.parametrize("command", ["verify", "miyamoto", "frobenius", "radical", "decompose", "axet"])
    def test_document_past_the_build_cap_exit_3(self, command):
        start = time.perf_counter()
        proc = run_process([command, "-"], self.diagonal(101), timeout=30)
        assert time.perf_counter() - start < 10
        assert proc.returncode == 3
        assert proc.stderr == "error: the algebra document has dimension 101, past the build cap 100\n"

    def test_document_at_the_build_cap_loads(self, runner):
        assert load_algebra(self.diagonal(100)).dim == 100
        # the dim/basis check comes first, so a malformed document still exits 2
        doc = json.loads(self.diagonal(101))
        doc["basis"].pop()
        result = runner.invoke(main, ["verify", "-"], input=json.dumps(doc))
        assert result.exit_code == 2
        assert "not a JSON integer equal to the basis size 100" in result.output


LONG = "1" * 5000  # more digits than int() reads from a string by default (4300)


class TestOverlongLiterals:
    """An integer too long for int() to read exits 2, in a real process, so
    that an uncaught ValueError would print its traceback."""

    @staticmethod
    def assert_exit_2(proc):
        assert proc.returncode == 2, proc.stderr[-300:]
        assert "Traceback" not in proc.stdout + proc.stderr
        assert proc.stderr.startswith("error: ")

    @pytest.mark.parametrize("args", [
        ["hw", "check-tuple", f"1,{LONG}"],
        ["build", f"matsuo:Sn:4:1/{LONG}"],
        ["build", f"matsuo:Sn:4:{LONG}"],
        ["verify", "--law", f"J:{LONG}", "-"],
        ["verify", "--law", f"M:1/4,{LONG}", "-"],
    ], ids=["check-tuple", "matsuo-denominator", "matsuo-eta", "law-J", "law-M"])
    def test_scalar_argument(self, runner, args):
        self.assert_exit_2(run_process(args, build(runner, "ns:2A")))

    @pytest.mark.parametrize("spec", ["spin:{}", "splitspin:{}:1/3"], ids=["spin", "splitspin"])
    @pytest.mark.parametrize("gram", [
        f"[[{LONG}, 0], [0, 2]]", f'[["2", "0"], ["0", "{LONG}"]]',
    ], ids=["json-integer", "string"])
    def test_gram_file(self, tmp_path, spec, gram):
        path = tmp_path / "gram.json"
        path.write_text(gram)
        self.assert_exit_2(run_process(["build", spec.format(path)], ""))

    def test_splitspin_alpha(self, tmp_path):
        path = tmp_path / "gram.json"
        path.write_text("[[2, 0], [0, 2]]")
        self.assert_exit_2(run_process(["build", f"splitspin:{path}:{LONG}"], ""))

    @pytest.mark.parametrize("key", ["dim", "i"])
    def test_algebra_document_integer(self, runner, key):
        doc = build(runner, "ns:2B")
        old = f'"{key}": 0' if key == "i" else '"dim": 2'
        assert old in doc
        self.assert_exit_2(run_process(["verify", "-"], doc.replace(old, f'"{key}": {LONG}', 1)))

    def test_member_element_integer(self):
        text = '{"a": {"0": %s}}' % LONG
        self.assert_exit_2(run_process(["hw", "member", "1,-2,1", "-"], text))


class TestJsonRefusals:
    """JSON that `json.loads` refuses other than by a syntax error exits 2 with
    a pinned message, in a real process, so that an uncaught RecursionError
    or ValueError would print its traceback."""

    DEEP = "[" * 100_000  # past the recursion limit of the decoder
    DEEP_MESSAGE = "nested too deeply"
    LONG_MESSAGE = "integer of 5000 digits is past the limit of 4300 digits"

    @staticmethod
    def assert_refused(proc, message):
        assert proc.returncode == 2, proc.stderr[-300:]
        assert "Traceback" not in proc.stdout + proc.stderr
        assert proc.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("kind", ["deep", "long"])
    def test_verify_file(self, runner, tmp_path, kind):
        path = tmp_path / "doc.json"
        doc = build(runner, "ns:2B").replace('"dim": 2', f'"dim": {LONG}')
        path.write_text(self.DEEP if kind == "deep" else doc)
        message = self.DEEP_MESSAGE if kind == "deep" else self.LONG_MESSAGE
        self.assert_refused(run_process(["verify", str(path)], ""), f"not valid JSON: {message}")

    @pytest.mark.parametrize("kind", ["deep", "long"])
    def test_build_spin_file(self, tmp_path, kind):
        path = tmp_path / "gram.json"
        path.write_text(self.DEEP if kind == "deep" else f"[[{LONG}, 0], [0, 2]]")
        message = self.DEEP_MESSAGE if kind == "deep" else self.LONG_MESSAGE
        self.assert_refused(run_process(["build", f"spin:{path}"], ""), f"not valid JSON: {message}")

    @pytest.mark.parametrize("kind", ["deep", "long"])
    def test_member_element(self, kind):
        text = '{"a": ' * 100_000 if kind == "deep" else '{"a": {"0": %s}}' % LONG
        message = self.DEEP_MESSAGE if kind == "deep" else self.LONG_MESSAGE
        self.assert_refused(run_process(["hw", "member", "1,-2,1", "-"], text),
                            f"element is not valid JSON: {message}")


HUGE = "x" * 100_000
HUGE_LIST = [0] * 33_334  # its repr is 100,000 characters
NS3A = json.loads(dump_algebra(norton_sakuma("3A")))


def _ns3a(**parts):
    return json.dumps({**NS3A, **parts})


def _ns3a_axis(v):
    return _ns3a(axes=[{"name": "a0", "v": v}])


class TestLongValues:
    """A message quotes a value from outside in a few dozen characters, so a
    100,000-character value exits 2 with a short diagnostic."""

    @pytest.mark.parametrize("args,text", [
        (["verify", "-"], _ns3a_axis({"0": HUGE})),
        (["verify", "-"], _ns3a_axis({"0": HUGE_LIST})),
        (["verify", "-"], _ns3a_axis({HUGE: "1"})),
        (["verify", "-"], _ns3a_axis(HUGE_LIST)),
        (["verify", "-"], _ns3a(field={"kind": HUGE})),
        (["verify", "-"], _ns3a(field=HUGE_LIST)),
        (["verify", "-"], _ns3a(field={"kind": "prime", "p": HUGE_LIST})),
        (["verify", "-"], _ns3a(dim=HUGE_LIST)),
        (["verify", "-"], _ns3a(products=[{"i": HUGE_LIST, "j": 0, "v": {}}])),
        (["verify", "-"], _ns3a(form=[[HUGE_LIST]])),
        (["verify", "-"], _ns3a(law={"kind": HUGE})),
        (["verify", "-"], _ns3a(law=HUGE_LIST)),
        (["verify", "-"], _ns3a(law={"kind": "A", HUGE: "1"})),
        (["verify", "-", "--law", HUGE], _ns3a()),
        (["verify", "-", "--law", f"J:{HUGE}"], _ns3a()),
        (["axet", "-", "--gens", HUGE], _ns3a()),
        (["hw", "quotient", HUGE], ""),
        (["hw", "check-tuple", HUGE], ""),
        (["hw", "member", "1,-2,1", "-"], json.dumps({HUGE: {}})),
        (["hw", "member", "1,-2,1", "-"], json.dumps({"a": {HUGE: "1"}})),
        (["build", f"flip:matsuo:Sn:4:1/4:({HUGE})"], ""),
        (["build", f"flip:{HUGE}:(1 2)"], ""),
        (["build", f"ns:{HUGE}"], ""),
        (["build", HUGE], ""),
    ], ids=[
        "scalar", "scalar-type", "index-key", "vector", "field-kind", "field", "modulus", "dim",
        "product-index", "form", "law-kind", "law", "law-key", "--law", "--law-param", "--gens",
        "integer", "tuple", "element-part", "element-index", "cycles", "flip-spec", "ns-label",
        "spec",
    ])
    def test_short_diagnostic(self, runner, args, text):
        result = runner.invoke(main, args, input=text)
        assert result.exit_code == 2, result.stderr[:400]
        assert len(result.stderr) < 400, result.stderr[:400]

    NINES = "9" * 4000  # an integer that int() still reads

    @pytest.mark.parametrize("args,text,code", [
        (["build", f"matsuo:Sn:{NINES}:1/4"], "", 3),
        (["hw", "quotient", NINES], "", 3),
        (["build", f"flip:matsuo:Sn:4:1/4:(1 {NINES})"], "", 2),
        (["hw", "member", "1,-2,1", "-"], json.dumps({"a": {NINES: "1"}}), 3),
        (["hw", "member", "1,-2,1", "-"], json.dumps({"s": {f"-{NINES}": "1"}}), 2),
        (["hw", "member", "1,-2,1", "-", "--window", NINES], json.dumps({"a": {"0": "1"}}), 3),
        (["verify", "-"], _ns3a_axis({NINES: "1"}), 2),
    ], ids=["matsuo-degree", "period", "cycle-point", "element-index", "distance-index",
            "--window", "index-key"])
    def test_long_integer(self, runner, args, text, code):
        result = runner.invoke(main, args, input=text)
        _assert_clean(result)
        assert result.exit_code == code, result.stderr[:400]


# ---------------------------------------------------------------------------
# Fuzz: every mutated document ends in an exit code 0-3, never a traceback

BAD_VALUES = [
    None, True, 0, -1, 7, 0.5, float("inf"), float("nan"), -10**30, 10**30, 2**64,
    "", "x", "1/0", "-0", "1/3", "1 mod 7", "3 mod 10007", "0.5", "1e9",
    [], ["1"], [["1", "0"]], {}, {"0": "1"}, {"-1": "1"}, {"0": 0.5},
    {"99999999999999999999": "1"}, "1" * 5000,
]
BAD_KEYS = [
    "-1", "-7", "99999999999999999999", "x", "1.5", " 0", "", "0", "3",
    "0_1", " +1 ", "\u0661", "1_0",
]
# The window search of `hw member` widens its window to the element's
# support, up to MAX_WINDOW; indices past it exit 3 before any work.
ELEMENT_KEYS = [
    "-8", "-6", "-1", "0", "2", "6", "8", "12", "x", "1.5", " 0", "", "1e3",
    str(MAX_WINDOW + 1), "-1000000000", "1000000000", "99999999999999999999",
    "1_0", " +1 ", "\u0661",
]
# Values for --window, --cap and PERIOD: either side of zero, of each cap and of a huge value.
OPTION_VALUES = [
    -10**30, -5, -1, 0, 1, 2, MAX_WINDOW, MAX_WINDOW + 1, 66, 67,
    DEFAULT_AXIS_CAP, DEFAULT_AXIS_CAP + 1, 10**30,
]
FUZZ = dict(
    derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow],
    database=None,
)


def _paths(obj, prefix=()):
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for k, v in items:
        yield prefix + (k,)
        yield from _paths(v, prefix + (k,))


def _retyped(value):
    """The value under other JSON types: wrapped, stringified, unwrapped, numeric."""
    out = [[value], {"0": value}, str(value)]
    if isinstance(value, dict) and value:
        out.append(next(iter(value.values())))
    if isinstance(value, list) and value:
        out.append(value[0])
    if isinstance(value, str):  # json.dumps writes no int past int()'s digit limit
        out.append(int(value) if value.lstrip("-").isdigit() and len(value) <= 4300 else 1.5)
    if isinstance(value, int):
        out.append(float(value))
    return out


@st.composite
def mutated(draw, doc, values, keys):
    """doc after one to three replacements, deletions, retypings or re-keyings."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        key = path[-1]
        op = draw(st.sampled_from(["replace", "delete", "retype", "rekey"]))
        if op == "delete":
            del parent[key]
        elif op == "retype":
            parent[key] = copy.deepcopy(draw(st.sampled_from(_retyped(parent[key]))))
        elif op == "rekey" and isinstance(parent, dict):
            parent[draw(st.sampled_from(keys))] = parent.pop(key)
        elif op == "rekey":
            parent.insert(key, copy.deepcopy(parent[key]))  # a repeated list entry
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(values)))
    return doc


def _assert_clean(result):
    assert result.exit_code in (0, 1, 2, 3), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        repr(result.exception)
    )
    assert "Traceback" not in result.output
    assert len(result.stderr) < 400, result.stderr[:400]


def _fuzz_documents():
    f = GF(10007)
    algs = [
        norton_sakuma("3A"),
        matsuo(ThreeTranspositionGroup.symmetric(4), QQ.parse("1/4")),
        matsuo(ThreeTranspositionGroup.symmetric(4), f.parse("1/4"), f),
        hw_periodic_quotient(4),
    ]
    return [json.loads(dump_algebra(alg)) for alg in algs]


FUZZ_DOCS = _fuzz_documents()
FUZZ_COMMANDS = ["verify", "miyamoto", "frobenius", "radical", "decompose", "axet"]


class TestFuzz:
    @settings(max_examples=400, **FUZZ)
    @given(
        doc=st.sampled_from(FUZZ_DOCS).flatmap(lambda d: mutated(d, BAD_VALUES, BAD_KEYS)),
        command=st.sampled_from(FUZZ_COMMANDS),
        as_json=st.booleans(),
    )
    def test_algebra_documents(self, doc, command, as_json):
        args = [command, "-"] + (["--json"] if as_json else [])
        _assert_clean(CliRunner().invoke(main, args, input=json.dumps(doc)))

    @settings(max_examples=100, **FUZZ)
    @given(
        elem=st.sampled_from([
            {"a": {"0": "1", "1": "-2", "2": "1"}, "s": {}},
            {"a": {"-1": "1/2", "3": "-1"}, "s": {"2": "3/4"}},
        ]).flatmap(lambda d: mutated(d, BAD_VALUES, ELEMENT_KEYS)),
    )
    @example(elem={"a": {"1" * 5000: "1"}, "s": {}})
    @example(elem={"a": {"0": "1" * 5000}, "s": {}})
    def test_highwater_elements(self, elem):
        result = CliRunner().invoke(main, ["hw", "member", "1,-2,1", "-"], input=json.dumps(elem))
        _assert_clean(result)

    @settings(max_examples=100, **FUZZ)
    @given(
        args=st.sampled_from([
            ["hw", "member", "1,-2,1", "-", "--window"],
            ["miyamoto", "-", "--cap"],
            ["hw", "quotient"],
        ]),
        value=st.one_of(st.sampled_from(OPTION_VALUES), st.integers(-10**6, 10**6)),
    )
    def test_option_values(self, args, value):
        # negative, zero and past-cap windows, closure caps and periods
        text = FUZZ_DOCS[0] if args[0] == "miyamoto" else {"a": {"0": "1", "1": "-2", "2": "1"}}
        _assert_clean(CliRunner().invoke(main, args + [str(value)], input=json.dumps(text)))

    @settings(max_examples=100, **FUZZ)
    @given(
        gram=st.sampled_from([
            [[2, 0], [0, 2]],
            [["2", "0", "1"], ["0", "2", "0"], ["1", "0", "2"]],
        ]).flatmap(lambda d: mutated(d, BAD_VALUES, BAD_KEYS)),
        family=st.sampled_from(["spin:{}", "splitspin:{}:1/3"]),
    )
    @example(gram=[["1" * 5000, "0"], ["0", "2"]], family="spin:{}")
    def test_gram_files(self, tmp_path_factory, gram, family):
        path = tmp_path_factory.mktemp("gram") / "gram.json"
        path.write_text(json.dumps(gram))
        _assert_clean(CliRunner().invoke(main, ["build", family.format(path)]))
