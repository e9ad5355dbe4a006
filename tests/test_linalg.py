"""Exact linear algebra: echelon forms, kernels, subspace lattice."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from axial import GF, QQ, Algebra, close_axes, rational
from axial.errors import DimensionError
from axial.linalg import (
    EchelonAccumulator,
    Matrix,
    Subspace,
    _mod,
    combine,
    det,
    invert,
    is_zero_vec,
    kernel,
    residue,
    rref,
    scaled,
    solve_linear,
    sparse,
    vadd,
    vdot,
    vscale,
    vsub,
    vzero,
)

entries = st.integers(min_value=-9, max_value=9).map(rational)


def matrices(rows, cols):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda d: Matrix(QQ, d))


@given(matrices(3, 4))
def test_rref_idempotent(m):
    r = rref(m)
    assert rref(r).data == r.data


@given(matrices(3, 4))
def test_kernel_annihilated(m):
    ker = kernel(m)
    for v in ker.basis:
        assert is_zero_vec(m.mul_vec(v))
    # rank-nullity
    rank = sum(1 for row in rref(m).data if any(row))
    assert rank + ker.dim == m.ncols


@given(matrices(3, 3), matrices(3, 3))
def test_det_multiplicative(a, b):
    assert det(a.matmul(b)) == det(a) * det(b)


def test_det_base_cases():
    assert det(Matrix.identity(QQ, 4)) == QQ.one()
    dup = Matrix(QQ, [[1, 2], [1, 2]])
    assert det(dup) == QQ.zero()
    with pytest.raises(DimensionError):
        det(Matrix(QQ, [[1, 2]]))


@given(matrices(3, 3), st.lists(entries, min_size=3, max_size=3))
def test_solve_consistent_system(m, x):
    b = m.mul_vec(tuple(x))
    sol, ker = solve_linear(m, b)
    assert sol is not None
    assert m.mul_vec(sol) == tuple(b)
    diff = vsub(tuple(x), sol)
    assert ker.contains(diff)


def test_solve_inconsistent():
    m = Matrix(QQ, [[1, 0], [1, 0]])
    sol, ker = solve_linear(m, (QQ.one(), QQ.zero()))
    assert sol is None
    assert ker.dim == 1


@given(matrices(3, 3))
def test_invert_roundtrip(m):
    if det(m) == QQ.zero():
        with pytest.raises(DimensionError):
            invert(m)
    else:
        assert m.matmul(invert(m)).data == Matrix.identity(QQ, 3).data


@given(matrices(2, 3))
def test_transpose_involution(m):
    assert m.transpose().transpose().data == m.data


def test_minus_scalar_diag():
    m = Matrix(QQ, [[3, 1], [0, 3]])
    shifted = m.minus_scalar_diag(rational(3))
    assert shifted.data == Matrix(QQ, [[0, 1], [0, 0]]).data


class TestSubspace:
    def test_modular_dimension_law(self):
        u = Subspace.from_vectors(QQ, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
        v = Subspace.from_vectors(QQ, 4, [(0, 1, 0, 0), (0, 0, 1, 0)])
        meet = u.intersect(v)
        join = u.sum(v)
        assert join.dim + meet.dim == u.dim + v.dim
        assert meet.dim == 1
        assert meet.contains((0, 1, 0, 0))

    @given(st.lists(st.lists(entries, min_size=4, max_size=4), min_size=1, max_size=4))
    def test_span_contains_combinations(self, vecs):
        space = Subspace.from_vectors(QQ, 4, [tuple(v) for v in vecs])
        acc = vzero(QQ, 4)
        for v in vecs:
            acc = vadd(acc, vscale(rational(2), tuple(v)))
        assert space.contains(acc)
        assert space.dim <= min(4, len(vecs))

    def test_coords_reconstruct(self):
        space = Subspace.from_vectors(QQ, 3, [(1, 1, 0), (0, 0, 1)])
        v = (rational(2), rational(2), rational(-5))
        coeffs = space.coords(v)
        assert coeffs is not None
        rebuilt = vzero(QQ, 3)
        for c, b in zip(coeffs, space.basis):
            rebuilt = vadd(rebuilt, vscale(c, b))
        assert rebuilt == v
        assert space.coords((1, 0, 0)) is None

    def test_zero_and_full(self):
        z = Subspace.zero(QQ, 3)
        f = Subspace.full(QQ, 3)
        assert z.dim == 0 and f.dim == 3
        assert z.is_subspace_of(f)
        assert not f.is_subspace_of(z)

    def test_prime_field_spans(self):
        f = GF(5)
        space = Subspace.from_vectors(f, 2, [(f.from_int(2), f.from_int(4))])
        assert space.dim == 1
        assert space.contains((f.from_int(1), f.from_int(2)))
        assert not space.contains((f.from_int(1), f.from_int(3)))


def test_echelon_accumulator_matches_kernel():
    m = Matrix(QQ, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    acc = EchelonAccumulator(QQ, 3)
    for row in m.rows:
        acc.add_row(row)
    assert acc.rank == 2
    assert acc.kernel().dim == kernel(m).dim == 1
    for v in acc.kernel().basis:
        assert is_zero_vec(m.mul_vec(v))


@given(st.lists(entries, min_size=3, max_size=3), st.lists(entries, min_size=3, max_size=3))
def test_vdot_symmetric(u, v):
    assert vdot(tuple(u), tuple(v)) == vdot(tuple(v), tuple(u))


# -- the unit-factor kernels and the column view, against plain formulas -----
#
# The kernels skip products by 1 and -1, and `Matrix._apply` combines
# columns.  Each test below compares them with the plain formula written out
# here, entry by entry and with the type of every scalar, on rows drawn
# mostly from 0, 1 and -1 so that the unit paths and exact cancellations
# come up often.

P = 10007
UNIT_FIELDS = (QQ, GF(P))
FIELD_IDS = ["QQ", f"GF({P})"]


def typed(row):
    """A sparse row with each entry paired with its type, for comparisons
    that tell 1 from Fraction(1)."""
    return {c: (type(x), x) for c, x in row.items()}


def field_scalars(field):
    """Scalars of `field`, half of them 0, 1 or -1."""
    units = st.sampled_from(("0", "0", "0", "1", "1", "-1", "-1"))
    other = st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9))
    return st.one_of(units, other).map(field.parse)


def int_scalars():
    """Plain ints as the mod-p path meets them, half of them 0, 1 or -1."""
    return st.one_of(st.sampled_from((0, 0, 0, 1, 1, -1, -1)), st.integers(-2 * P, 2 * P))


def sparse_rows(scalars, n):
    return st.lists(scalars, min_size=n, max_size=n).map(sparse)


def plain_combine(terms):
    """sum(f * row) entry by entry, zeros dropped."""
    out = {}
    for f, row in terms:
        for c, x in row.items():
            out[c] = out[c] + f * x if c in out else f * x
    return {c: x for c, x in out.items() if x}


def plain_residue(v, basis):
    """v - sum_p v[p] row_p over the pivots p of a fully reduced basis."""
    return plain_combine([(1, v)] + [(-v[p], row) for p, row in basis.items() if p in v])


@st.composite
def reduced_bases(draw, scalars, n, one):
    """A fully reduced echelon basis {pivot: row}, drawn directly: 1 at each
    pivot, 0 on the other pivots and before the pivot, anything after it."""
    pivots = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    basis = {}
    for p in pivots:
        row = {c: draw(scalars) for c in range(p + 1, n) if c not in pivots}
        basis[p] = {p: one, **{c: x for c, x in row.items() if x}}
    return basis


def plain_rref(field, rows, n, p=None):
    """Gauss-Jordan on dense rows, one row at a time, over `field` or on ints
    mod p.  Returns the reduced basis {pivot: sparse row} and, per row, its
    leading entry after reduction (None for a dependent row)."""
    zero, one = (0, 1) if p else (field.zero(), field.one())
    basis, leads = {}, []
    for row in rows:
        v = [row.get(c, zero) for c in range(n)]
        for q, b in basis.items():
            f = v[q]
            v = [x - f * y for x, y in zip(v, b)]
        if p:
            v = [x % p for x in v]
        lead = next((c for c in range(n) if v[c]), None)
        if lead is None:
            leads.append(None)
            continue
        pv = v[lead]
        leads.append(pv)
        inv = pow(pv, -1, p) if p else one / pv
        v = [x * inv % p if p else x * inv for x in v]
        for q, b in basis.items():
            f = b[lead]
            basis[q] = [(x - f * y) % p if p else x - f * y for x, y in zip(b, v)]
        basis[lead] = v
    return {q: sparse(basis[q]) for q in sorted(basis)}, leads


class TestUnitPaths:
    @pytest.mark.parametrize("field", UNIT_FIELDS, ids=FIELD_IDS)
    @given(data=st.data())
    def test_combine_matches_plain_sum(self, field, data):
        s = field_scalars(field)
        terms = data.draw(st.lists(st.tuples(s, sparse_rows(s, 5)), max_size=6))
        got = combine((f, row.items()) for f, row in terms)
        assert typed(got) == typed(plain_combine(terms))

    @given(st.lists(st.tuples(int_scalars(), sparse_rows(int_scalars(), 5)), max_size=6))
    def test_combine_matches_plain_sum_on_ints(self, terms):
        got = combine((f, row.items()) for f, row in terms)
        assert typed(got) == typed(plain_combine(terms))

    def test_combine_subtracts_a_row_with_factor_minus_one(self):
        one = QQ.one()
        got = combine([(one, {0: one, 1: one}.items()), (-one, {0: one, 2: one}.items())])
        assert typed(got) == {1: (type(one), one), 2: (type(one), -one)}

    @pytest.mark.parametrize("field", UNIT_FIELDS, ids=FIELD_IDS)
    @given(data=st.data())
    def test_scaled_matches_plain_formula(self, field, data):
        s = field_scalars(field)
        f = data.draw(st.one_of(s, st.sampled_from((1, -1))))  # sign factors arrive as ints
        row = data.draw(sparse_rows(s, 5))
        got = scaled(f, row)
        assert typed(got) == typed({c: f * x for c, x in row.items()} if f else {})
        assert got is not row

    @given(int_scalars(), sparse_rows(int_scalars(), 5))
    def test_scaled_matches_plain_formula_on_ints(self, f, row):
        got = scaled(f, row)
        assert typed(got) == typed({c: f * x for c, x in row.items()} if f else {})
        assert got is not row

    @pytest.mark.parametrize("field", UNIT_FIELDS, ids=FIELD_IDS)
    @given(data=st.data())
    def test_mul_matches_plain_sum(self, field, data):
        n = data.draw(st.integers(1, 4))
        s = field_scalars(field)
        products = {(i, j): data.draw(sparse_rows(s, n)) for i in range(n) for j in range(i, n)}
        alg = Algebra(field, [f"e{k}" for k in range(n)], products)
        u, v = data.draw(sparse_rows(s, n)), data.draw(sparse_rows(s, n))
        want = plain_combine(
            (x * y, dict(alg._product_pairs(i, j))) for i, x in u.items() for j, y in v.items()
        )
        assert typed(alg._mul(u, v)) == typed(want)

    @pytest.mark.parametrize("field", UNIT_FIELDS, ids=FIELD_IDS)
    @given(data=st.data())
    def test_residue_matches_plain_formula(self, field, data):
        s = field_scalars(field)
        basis = data.draw(reduced_bases(s, 6, field.one()))
        v = data.draw(sparse_rows(s, 6))
        assert typed(residue(v, basis)) == typed(plain_residue(v, basis))

    @pytest.mark.parametrize("one", [QQ.one(), GF(P).one(), 1], ids=FIELD_IDS + ["int"])
    def test_unit_pivot_entry_cancels(self, one):
        # clearing the pivot entry 1 cancels the other entry to exactly zero
        assert residue({0: one, 1: one}, {0: {0: one, 1: one}}) == {}

    @given(reduced_bases(st.integers(0, P - 1), 6, 1), sparse_rows(int_scalars(), 6))
    @example(basis={0: {0: 1, 1: 1}}, v={0: 1, 1: 1})
    def test_residue_matches_plain_formula_on_ints(self, basis, v):
        got = residue(v, basis)
        assert typed(got) == typed(plain_residue(v, basis))
        assert _mod(got, P) == {c: r for c, x in plain_residue(v, basis).items() if (r := x % P)}

    @pytest.mark.parametrize("field", UNIT_FIELDS, ids=FIELD_IDS)
    @given(data=st.data())
    def test_accumulator_matches_gauss_jordan(self, field, data):
        s = field_scalars(field)
        rows = data.draw(st.lists(sparse_rows(s, 5), max_size=7))
        acc = EchelonAccumulator(field, 5)
        leads = [acc.add_row(row) for row in rows]
        basis, want = plain_rref(field, rows, 5)
        assert {q: typed(r) for q, r in acc.rows.items()} == {q: typed(r) for q, r in basis.items()}
        assert leads == want

    @given(st.lists(sparse_rows(int_scalars(), 5), max_size=7))
    def test_accumulator_matches_gauss_jordan_on_ints(self, rows):
        acc = EchelonAccumulator(QQ, 5, modulus=P)
        leads = [acc.add_row(row) for row in rows]
        basis, want = plain_rref(QQ, rows, 5, P)
        assert {q: typed(r) for q, r in acc.rows.items()} == {q: typed(r) for q, r in basis.items()}
        assert leads == want


def row_walk(m, v):
    """m v as each row of m dotted with the sparse row v."""
    out = {}
    for i, row in enumerate(m.rows):
        t = None
        for j, x in v.items():
            a = row.get(j)
            if a is not None:
                t = a * x if t is None else t + a * x
        if t:
            out[i] = t
    return out


def probe_rows(field, n):
    """Each basis vector, the all-ones vector and an alternating dense one."""
    one = field.one()
    dense_probe = {k: field.parse(f"{(-1) ** k * (k + 2)}/{k + 1}") for k in range(n)}
    return [{k: one} for k in range(n)] + [dict.fromkeys(range(n), one), dense_probe]


def assert_apply_matches_row_walk(m, vectors):
    for v in vectors:
        assert typed(m._apply(v)) == typed(row_walk(m, v))


class TestColumnView:
    @pytest.mark.parametrize("field", UNIT_FIELDS, ids=FIELD_IDS)
    @given(data=st.data())
    def test_derived_matrices(self, field, data):
        s = field_scalars(field)
        n = data.draw(st.integers(1, 5))
        m = Matrix._of(field, n, data.draw(st.lists(sparse_rows(s, n), min_size=n, max_size=n)))
        vectors = probe_rows(field, n) + data.draw(st.lists(sparse_rows(s, n), max_size=3))
        assert_apply_matches_row_walk(m, vectors)
        derived = [rref(m), m.transpose(), m.matmul(m), m.transpose().matmul(m),
                   m.minus_scalar_diag(data.draw(s))]
        if det(m):
            derived.append(invert(m))
        for d in derived:
            assert_apply_matches_row_walk(d, vectors)
            kernel(d)
            rref(d.transpose()).minus_scalar_diag(field.one())
        # nothing derived from m, nor from its transpose, changed m's rows
        assert_apply_matches_row_walk(m, vectors)
        assert_apply_matches_row_walk(m.transpose(), vectors)

    def test_adjoints_and_miyamoto_maps(self, kernel_case):
        _, alg, probes, _ = kernel_case
        vectors = [sparse(u) for u in probes] + probe_rows(alg.field, alg.dim)
        for a in probes:
            assert_apply_matches_row_walk(alg.adjoint(a), vectors)
        if alg.law is not None and alg.field.characteristic != 2 and alg.axes:
            axet = close_axes(alg, alg.axis_vectors())
            vectors += [sparse(a) for a in axet.axes]
            for tau in axet.tau_mats:
                assert_apply_matches_row_walk(tau, vectors)
