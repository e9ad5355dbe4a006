"""The catalog constructors against plain reference builds.

The references below are the earlier constructors, kept as oracles: the
Norton-Sakuma completion over string symbols with one loop for the products
and one for the form, the all-pairs check of a 3-transposition set, the
Matsuo loop that computes every order and conjugate itself, and the flip
construction that computes the orders of its pairs again.  Every build must
agree with its oracle in the basis, the products (in their order), the form,
the axes and the law, and must raise where the oracle raises.
"""

import pytest

from axial import GF, NORTON_SAKUMA_NAMES, QQ, Algebra, flip_subalgebra, law_J, law_M, matsuo, norton_sakuma
from axial.catalog import _NS_TABLE, ThreeTranspositionGroup, double_axis
from axial.errors import ConsistencyFailure, InvalidGroup, NotAFlip
from axial.linalg import Matrix, dense, sparse
from axial.perms import conjugate, identity_perm, mul, parse_cycles, perm_order


def _ns_symbol_key(sym, extras):
    if sym in extras:
        return (1, extras.index(sym))
    return (0, int(sym[1:]))


def _ns_apply(sym, eps, c, n, w0, extras):
    if sym in extras:
        return sym
    i = int(sym[1:])
    return f"a{((eps * i + c - w0) % n) + w0}"


def oracle_norton_sakuma(key, field=QQ):
    spec = _NS_TABLE[key]
    n, window, extras = spec["n"], spec["window"], spec["extras"]
    w0 = window[0]
    symbols = [f"a{w}" for w in window] + list(extras)

    def pair(s, t):
        return tuple(sorted((s, t), key=lambda x: _ns_symbol_key(x, extras)))

    products, gram = {}, {}
    for eps in (1, -1):
        for c in range(n):
            for s, t, val in spec["products"]:
                kp = pair(_ns_apply(s, eps, c, n, w0, extras), _ns_apply(t, eps, c, n, w0, extras))
                img = {_ns_apply(sym, eps, c, n, w0, extras): field.parse(x) for sym, x in val.items()}
                if products.get(kp, img) != img:
                    raise ConsistencyFailure(f"{key}: inconsistent product at {kp}")
                products[kp] = img
            for s, t, x in spec["gram"]:
                kp = pair(_ns_apply(s, eps, c, n, w0, extras), _ns_apply(t, eps, c, n, w0, extras))
                v = field.parse(x)
                if gram.get(kp, v) != v:
                    raise ConsistencyFailure(f"{key}: inconsistent form value at {kp}")
                gram[kp] = v
    for x in range(len(symbols)):
        for y in range(x, len(symbols)):
            kp = pair(symbols[x], symbols[y])
            if kp not in products:
                raise ConsistencyFailure(f"{key}: product {kp} not determined by the table")
            if kp not in gram:
                raise ConsistencyFailure(f"{key}: form value {kp} not determined by the table")
    sym_index = {s: i for i, s in enumerate(symbols)}
    idx_products = {
        (sym_index[s], sym_index[t]): {sym_index[u]: c for u, c in val.items()}
        for (s, t), val in products.items()
    }
    gm = [{} for _ in symbols]
    for (s, t), v in gram.items():
        if v:
            gm[sym_index[s]][sym_index[t]] = v
            gm[sym_index[t]][sym_index[s]] = v
    axis_order = ["a0", "a1"] + [f"a{w}" for w in window if w not in (0, 1)]
    axes = [(s, dense(field, {sym_index[s]: field.one()}, len(symbols))) for s in axis_order]
    law = law_M(field, field.parse("1/4"), field.parse("1/32"))
    return Algebra(field, symbols, idx_products, axes=axes, law=law, form=Matrix._of(field, len(symbols), gm))


def oracle_validate(group):
    ds = group.transpositions
    if not ds:
        raise InvalidGroup("empty transposition set")
    dset = set(ds)
    if len(dset) != len(ds):
        raise InvalidGroup("repeated elements in the transposition set")
    ident = identity_perm(group.degree)
    for d in ds:
        if len(d) != group.degree:
            raise InvalidGroup("degree mismatch in transposition set")
        if d == ident or mul(d, d) != ident:
            raise InvalidGroup("transposition set contains a non-involution")
    for c in ds:
        for d in ds:
            if conjugate(c, d) not in dset:
                raise InvalidGroup("set is not closed under conjugation")
            if perm_order(mul(c, d)) > 3:
                raise InvalidGroup("product of two transpositions has order > 3")


def oracle_braids(group):
    ds = group.transpositions
    index = {d: k for k, d in enumerate(ds)}
    return {
        (i, j): index[conjugate(ds[i], ds[j])]
        for i in range(len(ds)) for j in range(i + 1, len(ds))
        if perm_order(mul(ds[i], ds[j])) == 3
    }


def oracle_matsuo(group, eta, field=QQ):
    eta = field.coerce(eta)
    law = law_J(field, eta)
    oracle_validate(group)
    ds = group.transpositions
    index = {d: i for i, d in enumerate(ds)}
    n = len(ds)
    half_eta = eta / field.from_int(2)
    products = {(i, i): {i: field.one()} for i in range(n)}
    gram = [{i: field.one()} for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if perm_order(mul(ds[i], ds[j])) == 2:
                continue
            k = index[conjugate(ds[i], ds[j])]
            products[(i, j)] = {i: half_eta, j: half_eta, k: -half_eta}
            gram[i][j] = half_eta
            gram[j][i] = half_eta
    names = group.names()
    axes = [(names[i], dense(field, {i: field.one()}, n)) for i in range(n)]
    return Algebra(field, names, products, axes=axes, law=law, form=Matrix._of(field, n, gram))


def oracle_flip(group, eta, sigma, field=QQ):
    """(algebra, singles, doubles, extras) of the flip subalgebra."""
    ambient = oracle_matsuo(group, eta, field)
    eta = field.coerce(eta)
    ds = group.transpositions
    index = {d: i for i, d in enumerate(ds)}
    if len(sigma) != group.degree:
        raise NotAFlip("flip degree does not match the group")
    if mul(sigma, sigma) != identity_perm(group.degree):
        raise NotAFlip("flip must be an involution (or identity)")
    try:
        induced = tuple(index[conjugate(d, sigma)] for d in ds)
    except KeyError:
        raise NotAFlip("flip does not preserve the transposition set")
    for i, c in enumerate(ds):
        for j, d in enumerate(ds):
            ci, dj = ds[induced[i]], ds[induced[j]]
            if perm_order(mul(c, d)) != perm_order(mul(ci, dj)):
                raise NotAFlip("flip does not preserve product orders on D")
            if induced[index[conjugate(c, d)]] != index[conjugate(ci, dj)]:
                raise NotAFlip("flip does not commute with the triple map")
    names = group.names()
    singles, doubles, extras, seen = [], [], [], set()
    for i in range(len(ds)):
        if i in seen:
            continue
        j = induced[i]
        if j == i:
            singles.append((f"s:{names[i]}", ambient.basis_vector(i)))
            seen.add(i)
            continue
        seen.update((i, j))
        pair_name = f"{names[min(i, j)]}+{names[max(i, j)]}"
        if perm_order(mul(ds[i], ds[j])) == 2:
            doubles.append((f"d:{pair_name}", double_axis(ambient, ambient.basis_vector(i), ambient.basis_vector(j))))
        else:
            extras.append(f"x:{pair_name}")
    gens = [sparse(v) for _, v in singles + doubles]
    if not gens:
        raise NotAFlip("flip leaves no single or double axes to generate from")
    sub = ambient._subalgebra(gens)
    alg, _ = ambient.restrict(sub, axes=singles + doubles, law=law_M(field, field.from_int(2) * eta, eta))
    return alg, tuple(nm for nm, _ in singles), tuple(nm for nm, _ in doubles), tuple(extras)


def assert_same(alg, want):
    assert alg.field == want.field
    assert alg.basis == want.basis
    assert list(alg.products.items()) == list(want.products.items())
    assert alg.form == want.form
    assert alg.axes == want.axes
    assert alg.law == want.law and alg.law.name == want.law.name


def raised(build, *args):
    """The exception type and message build(*args) raises, or None."""
    try:
        build(*args)
    except Exception as exc:  # noqa: BLE001 - the type itself is compared
        return type(exc), str(exc)
    return None


def group(degree, *cycles):
    return ThreeTranspositionGroup(degree, tuple(parse_cycles(c, degree) for c in cycles))


S3 = ("(1 2)", "(1 3)", "(2 3)")
# valid sets not of the form ThreeTranspositionGroup.symmetric: two commuting
# copies of the S_3 class, the S_3 class acting diagonally on six points, and
# the S_4 class listed in another order
OTHER_GROUPS = {
    "S3xS3": group(6, *S3, "(4 5)", "(4 6)", "(5 6)"),
    "diagonal S3": group(6, "(1 2)(4 5)", "(1 3)(4 6)", "(2 3)(5 6)"),
    "S4 shuffled": group(4, "(3 4)", "(1 2)", "(2 4)", "(1 3)", "(2 3)", "(1 4)"),
}
# invalid sets; the last has two defects: (1 2)^((1 3)(2 4)) = (3 4) is not in
# it, and the product of its two elements has order 4
BAD_GROUPS = {
    "not closed": ThreeTranspositionGroup(3, ((1, 0, 2), (2, 1, 0))),
    "order 4": group(4, "(1 3)", "(2 4)", "(1 2)(3 4)", "(1 4)(2 3)"),
    "two defects": group(4, "(1 2)", "(1 3)(2 4)"),
    "empty": ThreeTranspositionGroup(3, ()),
    "repeated": group(3, "(1 2)", "(1 2)"),
    "identity": group(3, "(1 2)", "()"),
    "order 3 element": group(3, "(1 2 3)"),
    "degree mismatch": ThreeTranspositionGroup(3, ((1, 0, 2), (1, 0, 2, 3))),
}
ETAS = ("1/4", "1/3", "-1", "2", "3217/7919")
FIELDS = (QQ, GF(10007), GF(7))
FLIPS = [
    (4, "(1 2)"), (4, "(1 2)(3 4)"), (5, "(1 2)"), (5, "(1 2)(3 4)"),
    (6, "(1 2)"), (6, "(1 2)(3 4)"), (6, "(1 2)(3 4)(5 6)"), (6, "()"),
]


@pytest.mark.parametrize("name", NORTON_SAKUMA_NAMES)
def test_norton_sakuma(name):
    assert_same(norton_sakuma(name), oracle_norton_sakuma(name))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.kind if f.kind == "rational" else f"GF{f.p}")
@pytest.mark.parametrize("eta", ETAS)
def test_matsuo_symmetric(field, eta):
    eta = field.parse(eta)
    for n in range(2, 9):
        group = ThreeTranspositionGroup.symmetric(n)
        assert_same(matsuo(group, eta, field), oracle_matsuo(group, eta, field))


@pytest.mark.parametrize("name", sorted(OTHER_GROUPS))
def test_other_valid_groups(name):
    group = OTHER_GROUPS[name]
    assert group.validate() == oracle_braids(group)
    assert_same(matsuo(group, QQ.parse("1/4")), oracle_matsuo(group, QQ.parse("1/4")))


@pytest.mark.parametrize("name", sorted(BAD_GROUPS))
def test_validate_raises_where_the_oracle_does(name):
    group = BAD_GROUPS[name]
    want = raised(oracle_validate, group)
    assert want is not None and want[0] is InvalidGroup
    assert raised(group.validate) == want
    assert raised(matsuo, group, QQ.parse("1/4")) == raised(oracle_matsuo, group, QQ.parse("1/4"))


@pytest.mark.parametrize("n, cycles", FLIPS + [(4, "(1 2 3)")])
def test_flip(n, cycles):
    group, eta, sigma = ThreeTranspositionGroup.symmetric(n), QQ.parse("1/4"), parse_cycles(cycles, n)
    want = raised(oracle_flip, group, eta, sigma)
    if want is not None:
        assert raised(flip_subalgebra, group, eta, sigma) == want
        return
    alg, singles, doubles, extras = oracle_flip(group, eta, sigma)
    flip = flip_subalgebra(group, eta, sigma)
    assert_same(flip.algebra, alg)
    assert (flip.singles, flip.doubles, flip.extras) == (singles, doubles, extras)


def test_flip_of_a_product_group():
    # swapping the two S_3 factors pairs (1 2) with (4 5): commuting, a double axis
    group, eta = OTHER_GROUPS["S3xS3"], QQ.parse("1/3")
    sigma = parse_cycles("(1 4)(2 5)(3 6)", 6)
    alg, singles, doubles, extras = oracle_flip(group, eta, sigma)
    flip = flip_subalgebra(group, eta, sigma)
    assert_same(flip.algebra, alg)
    assert (flip.singles, flip.doubles, flip.extras) == (singles, doubles, extras)
    assert len(doubles) == 3 and not singles
