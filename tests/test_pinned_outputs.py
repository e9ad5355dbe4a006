"""The committed outputs under scripts/expected, reproduced byte for byte in
process: every CLI pipeline that CI diffs, except the a_47 `hw member` at the
window cap, and the three survey scripts."""

import runpy
from pathlib import Path

import pytest
from click.testing import CliRunner

from axial.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
EXPECTED = SCRIPTS / "expected"
MEMBER = '{"a": {"3": "1", "4": "-2", "5": "1"}, "s": {}}\n'

# expected file -> (stdin of the first command: text, a file under EXPECTED or None; commands)
PIPELINES = {
    "cli_ns3a_frobenius.txt": (None, ["build", "ns:3A"], ["frobenius", "-"]),
    "cli_matsuo5_miyamoto.txt": (None, ["build", "matsuo:Sn:5:1/3"], ["miyamoto", "-"]),
    "cli_ns6a_miyamoto.txt": (None, ["build", "ns:6A"], ["miyamoto", "-"]),
    "cli_hw6_verify.txt": (None, ["hw", "quotient", "6"], ["verify", "-"]),
    "cli_matsuo5_verify.json": (None, ["build", "matsuo:Sn:5:1/3"], ["verify", "--json", "-"]),
    "cli_matsuo5_verify_law_m.json": (
        None, ["build", "matsuo:Sn:5:1/3"], ["verify", "--json", "--law", "M:1/3,2/3", "-"],
    ),
    "cli_ns6a_decompose.json": (None, ["build", "ns:6A"], ["decompose", "--json", "-"]),
    "cli_hw6_radical.txt": (None, ["hw", "quotient", "6"], ["radical", "-"]),
    "cli_matsuo5_axet.json": (None, ["build", "matsuo:Sn:5:1/3"], ["axet", "--json", "-"]),
    "cli_hw_member.json": (MEMBER, ["hw", "member", "--json", "1,-2,1", "-"]),
    "cli_hw_member_w30.json": (
        '{"a": {"0": "1/2", "1": "-1", "2": "1/2"}, "s": {"1": "2"}}\n',
        ["hw", "member", "--json", "--window", "30", "1,-2,1", "-"],
    ),
    "cli_matsuo5_frobenius.json": (None, ["build", "matsuo:Sn:5:1/3"], ["frobenius", "--json", "-"]),
    "cli_matsuo6_radical.txt": (None, ["build", "matsuo:Sn:6:1/3"], ["radical", "-"]),
    "cli_matsuo7_frobenius.json": (None, ["build", "matsuo:Sn:7:1/3"], ["frobenius", "--json", "-"]),
    "cli_matsuo10_frobenius.json": (None, ["build", "matsuo:Sn:10:1/3"], ["frobenius", "--json", "-"]),
    "cli_matsuo6_miyamoto.json": (None, ["build", "matsuo:Sn:6:1/3"], ["miyamoto", "--json", "-"]),
    "cli_matsuo14_miyamoto.txt": (None, ["build", "matsuo:Sn:14:1/3"], ["miyamoto", "-"]),
    "cli_matsuo14_verify.txt": (None, ["build", "matsuo:Sn:14:1/3"], ["verify", "-"]),
    "cli_hw66_verify.txt": (None, ["hw", "quotient", "66"], ["verify", "-"]),
    "cli_matsuo5_gf10007_frobenius.json": (EXPECTED / "matsuo5_gf10007.json", ["frobenius", "--json", "-"]),
    "cli_matsuo5_gf10007_miyamoto.json": (EXPECTED / "matsuo5_gf10007.json", ["miyamoto", "--json", "-"]),
    "cli_qq3_random_basis_frobenius.json": (EXPECTED / "qq3_random_basis.json", ["frobenius", "--json", "-"]),
    "cli_matsuo5_random_basis_frobenius.json": (
        EXPECTED / "matsuo5_random_basis.json", ["frobenius", "--json", "-"],
    ),
    "cli_matsuo3_zero_literals_verify.json": (EXPECTED / "matsuo3_zero_literals.json", ["verify", "--json", "-"]),
    "cli_matsuo3_zero_literals_frobenius.json": (
        EXPECTED / "matsuo3_zero_literals.json", ["frobenius", "--json", "-"],
    ),
    "cli_ns6a_build.json": (None, ["build", "ns:6A"]),
    "cli_hw5_quotient.json": (None, ["hw", "quotient", "5"]),
    "cli_hw6_quotient.json": (None, ["hw", "quotient", "6"]),
    "cli_flip5_build.json": (None, ["build", "flip:matsuo:Sn:5:1/4:(1 2)(3 4)"]),
    "cli_spin_build.json": (None, ["build", f"spin:{EXPECTED / 'spin_gram.json'}"]),
    "cli_splitspin_build.json": (None, ["build", f"splitspin:{EXPECTED / 'splitspin_gram.json'}:1/3"]),
}


@pytest.mark.parametrize("expected", sorted(PIPELINES))
def test_pipeline(expected):
    stdin, *commands = PIPELINES[expected]
    text = stdin.read_text() if isinstance(stdin, Path) else stdin
    runner = CliRunner()
    for args in commands:
        result = runner.invoke(main, args, input=text)
        assert result.exit_code == 0, result.output
        text = result.stdout
    assert text == (EXPECTED / expected).read_text()


@pytest.mark.parametrize("survey", ["ns_survey", "matsuo_explore", "highwater_scan"])
def test_survey(survey, capsys):
    script = runpy.run_path(str(SCRIPTS / f"{survey}.py"))
    assert script["main"]([]) == 0
    assert capsys.readouterr().out == (EXPECTED / f"{survey}.txt").read_text()
