"""Command line surface: pipelines, exit codes, machine-readable reports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import axial
from axial.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def build(runner, spec: str) -> str:
    result = runner.invoke(main, ["build", spec])
    assert result.exit_code == 0, result.output
    return result.output


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
        doc = build(runner, "ns:5A")
        result = runner.invoke(main, ["miyamoto", "-"], input=doc, env={"AXIAL_CAP": "3"})
        assert result.exit_code == 3

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
