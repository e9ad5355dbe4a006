#!/usr/bin/env python3
"""Scan finite periodic quotients of the Highwater algebra.

Builds the quotient with D axes for each D in a range, verifying fusion,
generation, baric weights and the Frobenius picture, then scans small integer
tuples for the ideal-type property and runs a couple of window membership
probes.  The quotient columns should be boringly uniform; surprises are bugs
or theorems.
"""

import argparse
import itertools
import sys
from dataclasses import dataclass

from axial import (
    baric_map_check,
    close_axes,
    form_radical,
    hw_a,
    hw_ideal_window_contains,
    hw_periodic_quotient,
    ideal_type_info,
    is_axial,
    miyamoto_group,
    solve_frobenius,
)
from axial.highwater import hw_quotient_weights


@dataclass
class ScanConfig:
    min_period: int = 2
    max_period: int = 10
    tuple_degree: int = 4
    coeff_bound: int = 2


def quotient_row(D: int) -> dict:
    alg = hw_periodic_quotient(D)
    verdict = is_axial(alg)
    axet = close_axes(alg, alg.axis_vectors())
    sol = solve_frobenius(alg)
    rad = form_radical(alg, sol.canonical).dim if sol.canonical is not None else None
    return {
        "D": D,
        "dim": alg.dim,
        "axial": verdict.passed,
        "baric": baric_map_check(alg, hw_quotient_weights(alg)),
        "closed": axet.size,
        "miyamoto_order": miyamoto_group(axet).order,
        "solution_dim": sol.space.dim,
        "radical_dim": rad,
    }


def tuple_scan(cfg: ScanConfig):
    """All ideal-type tuples with small integer entries, up to sign."""
    rng = range(-cfg.coeff_bound, cfg.coeff_bound + 1)
    found = []
    for t in itertools.product(rng, repeat=cfg.tuple_degree + 1):
        if t[0] <= 0:  # normalize sign, skip zero-led tuples
            continue
        info = ideal_type_info(list(t))
        if info.ok:
            found.append((t, info.epsilons, info.divergent_readings))
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-period", type=int, default=10)
    ap.add_argument("--tuple-degree", type=int, default=4)
    ap.add_argument("--coeff-bound", type=int, default=2)
    ns = ap.parse_args(argv)
    cfg = ScanConfig(max_period=ns.max_period, tuple_degree=ns.tuple_degree,
                     coeff_bound=ns.coeff_bound)

    print(f"{'D':>3} {'dim':>4} {'axial':>6} {'baric':>6} {'closed':>6} "
          f"{'|Miy|':>6} {'soldim':>6} {'raddim':>6}")
    ok = True
    for D in range(cfg.min_period, cfg.max_period + 1):
        r = quotient_row(D)
        ok = ok and r["axial"] and r["baric"] and r["closed"] == D
        print(f"{r['D']:>3} {r['dim']:>4} {str(r['axial']):>6} {str(r['baric']):>6} "
              f"{r['closed']:>6} {r['miyamoto_order']:>6} {r['solution_dim']:>6} "
              f"{str(r['radical_dim']):>6}")

    print(f"\nideal-type tuples of degree {cfg.tuple_degree}, "
          f"entries in [-{cfg.coeff_bound}, {cfg.coeff_bound}]:")
    for t, eps, divergent in tuple_scan(cfg):
        note = "  (only with epsilon=-1)" if divergent else ""
        print(f"  {t} eps={list(eps)}{note}")

    probes = [
        ((1, 0, -1), hw_a(2) - hw_a(0)),
        ((1, 0, -1), hw_a(0)),
        ((1, -2, 1), hw_a(0) - hw_a(1).scale(2) + hw_a(2)),
    ]
    print("\nwindow membership probes:")
    for t, v in probes:
        print(f"  {t} contains {v}? {hw_ideal_window_contains(list(t), v)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
