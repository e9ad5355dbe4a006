#!/usr/bin/env python3
"""Explore Matsuo algebras M_eta(S_n) over a parameter grid.

Reports axis verification, Miyamoto group order (closing all axes), the
canonical Frobenius form's radical dimension, and regenerates the 3-axis
algebra from the mixed pair {1-a, b} to exhibit the skew X'(1+2) shape.
The radical column is the interesting one: it jumps at eta = -1 and eta = 2.
"""

import argparse
import sys
from dataclasses import dataclass

from axial import (
    QQ,
    ThreeTranspositionGroup,
    check_axis,
    classify_2gen_axet,
    close_axes,
    form_radical,
    is_axial,
    law_M,
    matsuo,
    miyamoto_group,
    rational,
    solve_frobenius,
)


@dataclass
class GridConfig:
    degrees: tuple = (3, 4)
    etas: tuple = ("1/4", "-1", "2", "1/3", "-1/2")


def explore(degree: int, eta_text: str) -> dict:
    eta = QQ.parse(eta_text)
    group = ThreeTranspositionGroup.symmetric(degree)
    alg = matsuo(group, eta)
    verdict = is_axial(alg)
    axet = close_axes(alg, alg.axis_vectors())
    order = miyamoto_group(axet).order
    sol = solve_frobenius(alg)
    rad = form_radical(alg, sol.canonical).dim if sol.canonical is not None else None
    return {
        "degree": degree,
        "eta": eta_text,
        "dim": alg.dim,
        "axial": verdict.passed,
        "miyamoto_order": order,
        "radical_dim": rad,
    }


def skew_demo(eta_text: str) -> str:
    """Regenerate M_eta(S_3) from {1-a, b}: three axes in a 1+2 orbit split."""
    eta = QQ.parse(eta_text)
    if eta == rational(-1):
        return f"eta={eta_text}: no identity (1+eta = 0), skew demo skipped"
    alg = matsuo(ThreeTranspositionGroup.symmetric(3), eta)
    a = alg.axes[0][1]
    b = alg.axes[1][1]
    # 1 = (a + b + c) / (1 + eta) in the 3-axis algebra
    total = alg.axis_vectors()[0]
    for v in alg.axis_vectors()[1:]:
        total = tuple(x + y for x, y in zip(total, v))
    unit = tuple(x / (1 + eta) for x in total)
    twin = tuple(x - y for x, y in zip(unit, a))
    law = law_M(QQ, eta, 1 - eta)
    rep = check_axis(alg, twin, law)
    if not rep.passed:
        return f"eta={eta_text}: 1-a fails {law.name}"
    axet = close_axes(alg, [twin, b], law=law)
    shape = classify_2gen_axet(axet)
    return f"eta={eta_text}: {{1-a, b}} closes to {shape.label} (skew={shape.skew})"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--degrees", default="3,4")
    ap.add_argument("--etas", default="1/4,-1,2,1/3,-1/2")
    ns = ap.parse_args(argv)
    cfg = GridConfig(
        degrees=tuple(int(d) for d in ns.degrees.split(",")),
        etas=tuple(ns.etas.split(",")),
    )
    print(f"{'S_n':>4} {'eta':>6} {'dim':>4} {'axial':>6} {'|Miy|':>6} {'rad':>4}")
    for degree in cfg.degrees:
        for eta in cfg.etas:
            r = explore(degree, eta)
            print(f"{degree:>4} {r['eta']:>6} {r['dim']:>4} {str(r['axial']):>6} "
                  f"{r['miyamoto_order']:>6} {str(r['radical_dim']):>4}")
    print()
    for eta in cfg.etas:
        if QQ.parse(eta) != rational(1, 2):  # beta = 1 - eta must differ from eta
            print(skew_demo(eta))
    return 0


if __name__ == "__main__":
    sys.exit(main())
