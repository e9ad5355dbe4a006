#!/usr/bin/env python3
"""Self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs the smallest job of every workload (gated in BENCHMARK.json or not),
untraced and traced, and asserts that each run is correct and prints exactly
the metric names BENCHMARK.json lists.  Then plants a wrong expectation and
asserts that the failure count, and so fail_frac, goes above 0.  Exits 1 on
the first mismatch.
"""

import json
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent


def run(workload, trace, out_dir):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke", "--out", out_dir]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{workload} trace {trace}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_names(spec, out_dir):
    want = {0: [m["name"] for m in spec["end_to_end"]],
            1: [m["name"] for m in spec["per_layer"]]}
    for workload in WORKLOADS:
        for trace in (0, 1):
            res = run(workload, trace, out_dir)
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                raise SystemExit(f"{workload}: result keys {sorted(res)}")
            got = list(res["metrics"])
            if sorted(got) != sorted(want[trace]):
                raise SystemExit(f"{workload} trace {trace}: metric names differ: "
                                 f"extra {sorted(set(got) - set(want[trace]))}, "
                                 f"missing {sorted(set(want[trace]) - set(got))}")
            for name, m in res["metrics"].items():
                if not isinstance(m["value"], (int, float)):
                    raise SystemExit(f"{workload}: {name} has no value")
            if not res["correct"] or res["failed"]:
                raise SystemExit(f"{workload} trace {trace}: smallest job failed")
            print(f"ok  {workload:10s} trace {trace}  {len(got)} metrics, "
                  f"{res['attempted']} jobs")


def check_wrong_expectation():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    from spans import NullTracer

    inputs = workloads.make_inputs("forms", 1, NullTracer())
    workloads.NS_SOLUTION_DIM["2B"] = 3  # the true dimension is 2
    rec = workloads.Recorder(NullTracer())
    workloads.forms_smoke(inputs, rec)
    if rec.failed / rec.attempted <= 0:
        raise SystemExit("a wrong expectation left fail_frac at 0")
    print(f"ok  wrong expectation gives fail_frac {rec.failed / rec.attempted:.3g}: "
          f"{rec.failures[0]}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = str(ROOT / ".perfbench" / "selfcheck")
    check_names(spec, out_dir)
    check_wrong_expectation()
    return 0


if __name__ == "__main__":
    sys.exit(main())
