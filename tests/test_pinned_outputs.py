"""The committed outputs under scripts/expected, reproduced byte for byte in
process: every CLI pin of the manifest scripts/expected/pins.json except those
flagged slow, and the three survey scripts.  scripts/run_pins.py runs the
same manifest, slow pins included, through the installed console script."""

import json
import runpy
from pathlib import Path

import pytest
from click.testing import CliRunner

from axial.cli import main

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
EXPECTED = SCRIPTS / "expected"
PINS = {pin["expected"]: pin for pin in json.loads((EXPECTED / "pins.json").read_text())}


def test_manifest_names_every_pin():
    assert len(PINS) == len(json.loads((EXPECTED / "pins.json").read_text()))
    assert sorted(p.name for p in EXPECTED.glob("cli_*")) == sorted(PINS)


@pytest.mark.parametrize("expected", sorted(e for e, pin in PINS.items() if not pin["slow"]))
def test_pipeline(expected, monkeypatch):
    pin = PINS[expected]
    monkeypatch.chdir(ROOT)  # build specs name gram files from the repository root
    stdin = pin["stdin"] or {}
    text = (EXPECTED / stdin["file"]).read_text() if "file" in stdin else stdin.get("text")
    runner = CliRunner()
    *head, last = pin["commands"]
    for args in head:
        result = runner.invoke(main, args, input=text)
        assert result.exit_code == 0, result.output
        text = result.stdout
    result = runner.invoke(main, last, input=text)
    assert result.exit_code == pin["status"], result.output
    assert result.stdout == (EXPECTED / expected).read_text()


@pytest.mark.parametrize("survey", ["ns_survey", "matsuo_explore", "highwater_scan"])
def test_survey(survey, capsys):
    script = runpy.run_path(str(SCRIPTS / f"{survey}.py"))
    assert script["main"]([]) == 0
    assert capsys.readouterr().out == (EXPECTED / f"{survey}.txt").read_text()
