"""Matsuo algebras of Weyl groups (`roots.py`): exact oracles outside S_n for
the axis closure, every Miyamoto map built on its eigenbasis, Schreier-Sims
and the radical."""

from functools import lru_cache

import pytest

from axial import QQ, close_axes, matsuo
from axial.axes import miyamoto_group
from axial.frobenius import radical
from roots import has_minus_one, reflections, weyl_order

SYSTEMS = [("D", 4), ("D", 5), ("D", 6), ("D", 7), ("E", 6), ("E", 7)]


@lru_cache(maxsize=None)
def weyl_matsuo(kind, n, eta="1/4"):
    return matsuo(reflections(kind, n), QQ.parse(eta))


@pytest.mark.parametrize("kind,n", SYSTEMS, ids=[f"{k}{n}" for k, n in SYSTEMS])
def test_miyamoto_group_is_w_mod_its_centre(kind, n):
    # the Miyamoto group acts on the axes as W on its reflections, with kernel Z(W)
    alg = weyl_matsuo(kind, n)
    axet = close_axes(alg, alg.axis_vectors())
    assert axet.size == alg.dim
    assert miyamoto_group(axet).order == weyl_order(kind, n) // (2 if has_minus_one(kind, n) else 1)


@pytest.mark.parametrize("kind,n", SYSTEMS, ids=[f"{k}{n}" for k, n in SYSTEMS])
def test_simple_reflections_close_to_every_positive_root(kind, n):
    # W is generated by its simple reflections, and every reflection is
    # conjugate to a simple one
    alg = weyl_matsuo(kind, n)
    axet = close_axes(alg, alg.axis_vectors()[:n])
    assert sorted(axet.axes) == sorted(alg.axis_vectors())


@pytest.mark.parametrize("kind,n", [("D", 5), ("E", 6)], ids=["D5", "E6"])
def test_radical_dims_follow_the_graph_spectrum(kind, n):
    # the Matsuo form is I + (eta/2) Adj, Adj the non-commuting graph, so at
    # eta = -2/lam its radical is the lam-eigenspace of Adj
    sympy = pytest.importorskip("sympy")
    group = reflections(kind, n)
    size = len(group.transpositions)
    adj = sympy.zeros(size, size)
    for i, j in group.validate():
        adj[i, j] = adj[j, i] = 1
    spectrum = {lam: mult for lam, mult in adj.eigenvals().items() if lam}
    assert len(spectrum) == 3
    for lam, mult in spectrum.items():
        eta = -2 / sympy.Rational(lam)
        assert radical(weyl_matsuo(kind, n, str(eta))).dim == mult, (lam, eta)
    assert radical(weyl_matsuo(kind, n)).dim == 0
