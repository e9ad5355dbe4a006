#!/usr/bin/env python3
"""Run every pin of scripts/expected/pins.json through the console script.

Each pin's commands run as separate processes, the stdout of one the stdin
of the next, from the repository root.  Every command but the last must exit
0, and the last must exit with the pin's status and print the expected file
byte for byte.  A pin gets 30 s in all.  Slow pins run too.

    python scripts/run_pins.py                              # the installed `axial`
    PYTHONPATH=src python scripts/run_pins.py python -m axial.cli

Exits 1 if any pin fails, after a unified diff for each mismatch.
"""

import difflib
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = ROOT / "scripts" / "expected"
TIMEOUT_S = 30


def run_pin(pin, axial) -> str:
    """'' when the pin reproduces, else what went wrong."""
    stdin = pin["stdin"] or {}
    data = (EXPECTED / stdin["file"]).read_bytes() if "file" in stdin else stdin.get("text", "").encode()
    deadline = time.monotonic() + TIMEOUT_S
    for k, args in enumerate(pin["commands"]):
        want = pin["status"] if k == len(pin["commands"]) - 1 else 0
        try:
            proc = subprocess.run(axial + args, input=data, capture_output=True, cwd=ROOT,
                                  timeout=max(deadline - time.monotonic(), 0))
        except subprocess.TimeoutExpired:
            return f"timed out after {TIMEOUT_S} s in {' '.join(args)}"
        if proc.returncode != want:
            return f"{' '.join(args)} exited {proc.returncode}, want {want}\n{proc.stderr.decode()}"
        data = proc.stdout
    expected = (EXPECTED / pin["expected"]).read_text()
    got = data.decode()
    return "".join(difflib.unified_diff(
        expected.splitlines(True), got.splitlines(True), pin["expected"], "stdout",
    ))


def main(argv=None) -> int:
    axial = list(sys.argv[1:] if argv is None else argv) or ["axial"]
    pins = json.loads((EXPECTED / "pins.json").read_text())
    failed = 0
    for pin in pins:
        t0 = time.monotonic()
        problem = run_pin(pin, axial)
        print(f"{'FAIL' if problem else 'ok  '} {time.monotonic() - t0:6.2f}s {pin['expected']}")
        if problem:
            failed += 1
            print(problem)
    print(f"{len(pins) - failed} of {len(pins)} pins reproduced")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
