#!/usr/bin/env python3
"""Summarise one set of benchmark results, or compare two.

    python3 perfbench/compare.py RESULTS_DIR
    python3 perfbench/compare.py BASE_DIR NEW_DIR

A results directory holds the records run.py writes (--out DIR), one per run.
With one directory: per workload and end-to-end metric, the median, the
quartiles and the spread (quartile distance over median) against the metric's
bound in BENCHMARK.json.  With two: the same for each side, the ratio new/base,
and a verdict per metric, one row per workload:

  better        the new side wins at least 9 of 10 pairs (runs with the same
                seed, else in run order; ties count for neither) and the
                medians differ by more than the base quartile distance
  worse         the new median is worse than the base median by more than
                the bound
  unresolved    the spread of either side exceeds the bound, unless every new
                run is better than every base run
  within-bound  otherwise: no regression beyond the bound, no gain shown

Records measured with different rational backends are refused (exit 2): the
two differ by about 8x, so their timings do not compare.
"""

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_spec():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def load_results(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("trace") != 0 or rec.get("smoke"):
            continue
        runs.setdefault(rec["workload"], []).append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["seed"])
    return runs


def backends(runs):
    return {r["env"]["rational_backend"] for recs in runs.values() for r in recs}


def values(recs, metric):
    return [r["result"]["metrics"][metric]["value"] for r in recs
            if metric in r["result"]["metrics"]]


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def spread(vals):
    q1, med, q3 = quartiles(vals)
    return (q3 - q1) / med if med else float("inf")


def verdict(base_recs, new_recs, metric, spec):
    lower = spec["better"] == "lower"
    bound = spec["bound"]
    base, new = values(base_recs, metric), values(new_recs, metric)
    bq1, bmed, bq3 = quartiles(base)
    _, nmed, _ = quartiles(new)

    def wins(a, b):
        return a < b if lower else a > b

    base_by_seed = {r["seed"]: r for r in base_recs}
    if all(r["seed"] in base_by_seed for r in new_recs):
        pairs = [(values([base_by_seed[r["seed"]]], metric)[0], values([r], metric)[0])
                 for r in new_recs]
    else:
        pairs = list(zip(base, new))
    won = sum(1 for b, n in pairs if wins(n, b))
    if pairs and won >= 0.9 * len(pairs) and abs(nmed - bmed) > bq3 - bq1 and wins(nmed, bmed):
        return "better"
    worse_by = (nmed - bmed) / bmed if lower else (bmed - nmed) / bmed
    if max(spread(base), spread(new)) > bound:
        every = all(wins(n, b) for n in new for b in base)
        if not every:
            return "unresolved"
    if worse_by > bound:
        return "worse"
    return "within-bound"


def fmt(vals):
    q1, med, q3 = quartiles(vals)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def summarise(runs, spec):
    for workload, recs in runs.items():
        print(f"{workload}: {len(recs)} runs, seeds {[r['seed'] for r in recs]}")
        for metric, m in spec.items():
            vals = values(recs, metric)
            if not vals:
                continue
            sp = spread(vals)
            flag = "ok" if sp <= m["bound"] / 3 else ("within bound" if sp <= m["bound"]
                                                        else "TOO WIDE")
            print(f"  {metric:18s} median {fmt(vals):34s} {m['unit']:5s} "
                  f"spread {sp:6.3f} (bound {m['bound']}) {flag}")
        failed = sum(r["result"]["failed"] for r in recs)
        attempted = sum(r["result"]["attempted"] for r in recs)
        print(f"  fail_frac {failed / attempted if attempted else 1.0:.3g} "
              f"({failed} of {attempted})")


def compare(base_runs, new_runs, spec):
    for workload in base_runs:
        if workload not in new_runs:
            print(f"{workload}: missing from the new set")
            continue
        b, n = base_runs[workload], new_runs[workload]
        cells, lines = [], []
        for metric, m in spec.items():
            bv, nv = values(b, metric), values(n, metric)
            if not bv or not nv:
                continue
            ratio = statistics.median(nv) / statistics.median(bv)
            v = verdict(b, n, metric, m)
            cells.append(f"{metric} {ratio:.3f}x {v}")
            lines.append(f"    {metric:18s} base {fmt(bv):32s} new {fmt(nv):32s} "
                         f"ratio {ratio:.3f} of base {statistics.median(bv):.4g} {m['unit']}")
        print(f"{workload:10s} " + " | ".join(cells))
        for line in lines:
            print(line)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    sets = [load_results(d) for d in argv]
    kinds = set().union(*(backends(s) for s in sets))
    if len(kinds) > 1:
        print(f"refusing to compare results from different rational backends: "
              f"{sorted(kinds)}", file=sys.stderr)
        return 2
    if len(sets) == 1:
        summarise(sets[0], spec)
    else:
        compare(sets[0], sets[1], spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
