"""Group orders from the stabiliser chain, checked against sympy's
PermutationGroup (a test-only oracle) and against Dimino's enumeration,
written out here as a second oracle on small groups."""

import random
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from axial import GF, NORTON_SAKUMA_NAMES, QQ, close_axes, flip_subalgebra, matsuo, miyamoto_group
from axial import norton_sakuma
from axial.catalog import ThreeTranspositionGroup
from axial.perms import group_order, identity_perm, mul, parse_cycles, perm_order


def sympy_order(degree, gens):
    perms = [Permutation(list(g)) for g in gens] or [Permutation(degree - 1)]
    return PermutationGroup(perms).order()


def dimino(degree, generators):
    """All elements of <generators> by Dimino's algorithm: each new generator
    s adds the cosets of the subgroup built so far, with representatives
    closed under right multiplication by the generators seen."""
    e = identity_perm(degree)
    gens = []
    for g in generators:
        if g != e and g not in gens:
            gens.append(tuple(g))
    elements, seen = [e], {e}

    def push(x):
        if x not in seen:
            seen.add(x)
            elements.append(x)
            return True
        return False

    for i, s in enumerate(gens):
        if s in seen:
            continue
        prev = elements[:]
        reps = [s]
        for h in prev:
            push(mul(h, s))
        for r in reps:
            for g in gens[: i + 1]:
                t = mul(r, g)
                if push(t):
                    reps.append(t)
                    for h in prev[1:]:
                        push(mul(h, t))
    return elements


def _axet(spec):
    family, _, arg = spec.partition(":")
    if family == "ns":
        alg = norton_sakuma(arg)
    elif family == "matsuo":
        n, p = map(int, arg.split(":"))
        field = GF(p) if p else QQ
        alg = matsuo(ThreeTranspositionGroup.symmetric(n), field.parse("1/4"), field)
    else:
        n, cycles = arg.split(":")
        group = ThreeTranspositionGroup.symmetric(int(n))
        alg = flip_subalgebra(group, QQ.parse("1/4"), parse_cycles(cycles, int(n))).algebra
    return close_axes(alg, alg.axis_vectors())


AXETS = (
    [f"ns:{name}" for name in NORTON_SAKUMA_NAMES]
    + [f"matsuo:{n}:{p}" for n in (4, 5, 6, 7) for p in (0, 10007)]
    + ["flip:4:(1 2)(3 4)", "flip:5:(1 2)", "flip:5:(1 2)(3 4)"]
)


@pytest.mark.parametrize("spec", AXETS)
def test_axet_orders_match_oracles(spec):
    axet = _axet(spec)
    info = miyamoto_group(axet)
    assert info.order == group_order(axet.size, axet.tau_perms)
    assert info.order == sympy_order(axet.size, axet.tau_perms)
    if info.order <= 720:
        assert len(dimino(axet.size, info.generators)) == info.order


def _cycle(points):
    """The cyclic permutation along the given points, as a map {point: image}."""
    return dict(zip(points, points[1:] + points[:1]))


def _perm(degree, images):
    return tuple(images.get(x, x) for x in range(degree))


@st.composite
def groups(draw):
    """(degree, generators) for trivial, cyclic, dihedral, direct products,
    intransitive groups and random generators, all of degree at most 12."""
    kinds = ["trivial", "cyclic", "dihedral", "product", "intransitive", "random"]
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(min_value=1, max_value=12))
    if kind == "trivial":
        return n, [identity_perm(n)] * draw(st.integers(min_value=0, max_value=2))
    if kind == "cyclic":
        k = draw(st.integers(min_value=1, max_value=n))
        return n, [_perm(n, _cycle(list(range(k))))]
    if kind == "dihedral":
        k = draw(st.integers(min_value=1, max_value=n))
        return n, [_perm(n, _cycle(list(range(k)))), _perm(n, {x: k - 1 - x for x in range(k)})]
    if kind == "product":
        # two random groups on the disjoint point sets 0..k-1 and k..n-1
        k = draw(st.integers(min_value=0, max_value=n))
        gens = []
        for lo, hi in ((0, k), (k, n)):
            for _ in range(draw(st.integers(min_value=1, max_value=2))):
                images = draw(st.permutations(range(lo, hi)))
                gens.append(_perm(n, dict(zip(range(lo, hi), images))))
        return n, gens
    if kind == "intransitive":
        # transpositions and short cycles moving few points
        gens = []
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            points = st.integers(min_value=0, max_value=n - 1)
            pts = draw(st.lists(points, min_size=1, max_size=3, unique=True))
            gens.append(_perm(n, _cycle(pts)))
        return n, gens
    k = draw(st.integers(min_value=0, max_value=4))
    return n, [tuple(draw(st.permutations(range(n)))) for _ in range(k)]


@given(groups())
def test_drawn_groups_match_oracles(group):
    n, gens = group
    order = group_order(n, gens)
    assert order == sympy_order(n, gens)
    if order <= 5040:
        assert order == len(dimino(n, gens))


@pytest.mark.parametrize("seed", range(10))
def test_random_generators_match_sympy(seed):
    # a residue must join every level from the one above it down to the level
    # where it stopped; adding it at that level alone is right on every axet
    # but wrong on about a third of these groups
    rng = random.Random(seed)
    for _ in range(30):
        n = rng.randint(2, 12)
        gens = []
        for _ in range(rng.randint(1, 4)):
            p = list(range(n))
            rng.shuffle(p)
            gens.append(tuple(p))
        assert group_order(n, gens) == sympy_order(n, gens)


@given(st.integers(0, 12).flatmap(lambda n: st.permutations(range(n))))
def test_perm_order_is_the_first_power_that_is_the_identity(p):
    p, e = tuple(p), identity_perm(len(p))
    power, k = p, 1
    while power != e:
        power, k = mul(power, p), k + 1
    assert perm_order(p) == k


@pytest.mark.parametrize("p,q,pq", [((), (), ()), ((0,), (0,), (0,)), ((1, 0), (1, 0), (0, 1)), ((0, 1), (1, 0), (1, 0))])
def test_mul_at_degrees_zero_one_and_two(p, q, pq):
    # itemgetter of one index returns an item, not a tuple, and of none raises
    assert mul(p, q) == pq and type(mul(p, q)) is tuple


def test_symmetric_group_on_pairs_matches_sympy():
    # S_14 on the 91 pairs of 14 points, the Miyamoto group of Matsuo S14
    pairs = [(a, b) for a in range(14) for b in range(a + 1, 14)]
    index = {p: k for k, p in enumerate(pairs)}
    swap = [_cycle([a, a + 1]) for a in range(13)]
    gens = [tuple(index[tuple(sorted(s.get(x, x) for x in p))] for p in pairs) for s in swap]
    assert group_order(len(pairs), gens) == factorial(14) == sympy_order(len(pairs), gens)
    assert group_order(len(pairs), gens[:6]) == 5040  # S_7 on the same points
