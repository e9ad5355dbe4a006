#!/usr/bin/env python3
"""Survey the eight Norton-Sakuma algebras.

For each entry: dimension, per-axis fusion verification, Frobenius solution
space, Gram determinant, radical, closed axis set with orbits and Miyamoto
group order, 2-generated shape, and a Seress spot check.  Everything is exact,
so any [FAIL] below is a real finding, not noise.
"""

import argparse
import json
import sys
import time
from dataclasses import dataclass

from axial import (
    NORTON_SAKUMA_NAMES,
    classify_2gen_axet,
    close_axes,
    form_radical,
    is_axial,
    miyamoto_group,
    norton_sakuma,
    seress_lemma_check,
    solve_frobenius,
)
from axial.linalg import det


@dataclass
class SurveyConfig:
    entries: tuple = tuple(NORTON_SAKUMA_NAMES)
    as_json: bool = False
    check_seress: bool = True


def survey_one(name: str, cfg: SurveyConfig) -> dict:
    t0 = time.time()
    alg = norton_sakuma(name)
    verdict = is_axial(alg)
    sol = solve_frobenius(alg)
    gram_det = det(sol.canonical) if sol.canonical is not None else None
    rad = form_radical(alg, sol.canonical) if sol.canonical is not None else None
    axet = close_axes(alg, alg.axis_vectors())
    group = miyamoto_group(axet)
    shape = classify_2gen_axet(axet)
    seress_ok = True
    if cfg.check_seress:
        seress_ok = all(seress_lemma_check(alg, v).ok for _, v in alg.axes)
    return {
        "name": name,
        "dim": alg.dim,
        "axial": verdict.passed,
        "solution_dim": sol.space.dim,
        "gram_det": None if gram_det is None else str(gram_det),
        "radical_dim": None if rad is None else rad.dim,
        "closed_axes": axet.size,
        "orbit_sizes": sorted(len(o) for o in axet.orbits),
        "miyamoto_order": group.order,
        "shape": shape.label,
        "seress": seress_ok,
        "seconds": round(time.time() - t0, 4),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--entries", default=",".join(NORTON_SAKUMA_NAMES),
                    help="comma-separated subset, e.g. 2A,6A")
    ap.add_argument("--json", action="store_true", dest="as_json")
    ap.add_argument("--no-seress", action="store_false", dest="check_seress")
    ns = ap.parse_args(argv)
    cfg = SurveyConfig(
        entries=tuple(ns.entries.split(",")),
        as_json=ns.as_json,
        check_seress=ns.check_seress,
    )
    rows = [survey_one(name, cfg) for name in cfg.entries]
    if cfg.as_json:
        print(json.dumps(rows, indent=2))
        return 0
    hdr = (f"{'name':4} {'dim':>3} {'axial':>5} {'soldim':>6} {'raddim':>6} "
           f"{'axes':>4} {'orbits':>8} {'|Miy|':>5} {'shape':>8} {'seress':>6}")
    print(hdr)
    print("-" * len(hdr))
    ok = True
    for r in rows:
        ok = ok and r["axial"] and r["seress"]
        print(f"{r['name']:4} {r['dim']:>3} {str(r['axial']):>5} "
              f"{r['solution_dim']:>6} {str(r['radical_dim']):>6} "
              f"{r['closed_axes']:>4} {str(r['orbit_sizes']):>8} "
              f"{r['miyamoto_order']:>5} {r['shape']:>8} {str(r['seress']):>6}")
    print("PASS" if ok else "[FAIL] some entry broke an expected property")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
