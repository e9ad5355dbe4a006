"""Differential check of the elimination engine against sympy's DomainMatrix.

sympy is a test-only oracle: these tests are skipped when it is absent.
Every comparison is exact and on canonical forms (RREF, RREF of the null
space), so any difference in a stored basis shows up as a failure.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from axial import GF, NORTON_SAKUMA_NAMES, QQ, frobenius_solution_space, matsuo, norton_sakuma
from axial.catalog import ThreeTranspositionGroup
from axial.errors import DimensionError
from axial.linalg import (
    EchelonAccumulator, Matrix, Subspace, combine, dense, det, invert, kernel, on_basis, solve_linear, sparse,
)
from vectors import rref

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError  # noqa: E402

P31 = 2**31 - 1
FIELDS = (QQ, GF(P31))


def oracle_domain(field):
    return sympy.QQ if field.kind == "rational" else sympy.GF(field.p)


def to_oracle_scalar(field):
    dom = oracle_domain(field)
    if field.kind == "rational":
        return lambda x: dom(x.numerator, x.denominator)
    return lambda x: dom(x.v)


def to_oracle(field, rows, ncols):
    conv = to_oracle_scalar(field)
    return DomainMatrix([[conv(x) for x in row] for row in rows], (len(rows), ncols),
                        oracle_domain(field))


def to_sparse_oracle(field, rows, ncols):
    """The same matrix as `to_oracle`, held sparse; for tall systems of few non-zeros."""
    conv = to_oracle_scalar(field)
    entries = {i: {j: conv(x) for j, x in enumerate(row) if x} for i, row in enumerate(rows)}
    return DomainMatrix({i: row for i, row in entries.items() if row}, (len(rows), ncols),
                        oracle_domain(field))


def from_oracle(field, x):
    if field.kind == "rational":
        return field.parse(f"{int(x.numerator)}/{int(x.denominator)}")
    return field.from_int(int(x))


def oracle_rows(field, dm):
    return tuple(tuple(from_oracle(field, x) for x in row) for row in dm.to_list())


def oracle_rref(field, dm):
    """(RREF rows, pivots) with the zero rows kept, as sympy computes them."""
    red, pivots = dm.rref()
    return oracle_rows(field, red), tuple(pivots)


@st.composite
def entry_rows(draw, field, nrows, ncols):
    density = draw(st.sampled_from((0.0, 0.3, 0.7, 1.0)))
    rows = []
    for _ in range(nrows):
        row = []
        for _ in range(ncols):
            if draw(st.floats(0, 1)) < density:
                num = draw(st.integers(-9, 9))
                den = draw(st.integers(1, 4))
                row.append(field.parse(f"{num}/{den}"))
            else:
                row.append(field.zero())
        rows.append(row)
    return rows


@st.composite
def matrices(draw, square=False):
    field = draw(st.sampled_from(FIELDS))
    nrows = draw(st.integers(0, 5))
    ncols = nrows if square else draw(st.integers(0, 5))
    rows = draw(entry_rows(field, nrows, ncols))
    if nrows >= 2 and draw(st.booleans()):
        # a repeated combination keeps rank-deficient matrices common
        rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
    return Matrix(field, rows)


@st.composite
def products(draw):
    """(a, b, v) with a @ b and a v defined; a matrix without rows has no
    columns either, so the inner size follows a."""
    a = draw(matrices())
    b = Matrix(a.field, draw(entry_rows(a.field, a.ncols, draw(st.integers(0, 5)))))
    v = tuple(draw(entry_rows(a.field, 1, a.ncols))[0])
    return a, b, v


@given(matrices())
def test_rref_pivots_rank(m):
    got = rref(m)
    want, pivots = oracle_rref(m.field, to_oracle(m.field, m.data, m.ncols))
    assert got.data == want
    span = Subspace.from_vectors(m.field, m.ncols, m.data)
    assert span.pivots == pivots
    assert span.dim == len(pivots) == to_oracle(m.field, m.data, m.ncols).rank()


def assert_reduced_nullspace(m):
    """kernel(m) comes out of its one elimination as the reduced echelon form
    of the null space: the same rows, in the same pivot order, as the echelon
    of the kernel basis read off m's echelon in column order, and sympy's."""
    ker = kernel(m)
    free = EchelonAccumulator.of(m.field, m.ncols, m.rows).kernel_basis().values()
    assert list(ker.rows.items()) == list(EchelonAccumulator.of(m.field, m.ncols, free).subspace().rows.items())
    if m.nrows == 0 or m.ncols == 0:
        assert ker == Subspace.full(m.field, m.ncols)
        return
    null = to_oracle(m.field, m.data, m.ncols).nullspace()
    want, pivots = oracle_rref(m.field, null) if null.shape[0] else ((), ())
    assert ker.basis == tuple(r for r in want if any(r))
    assert ker.pivots == pivots


@given(matrices())
def test_nullspace(m):
    assert_reduced_nullspace(m)


@st.composite
def ranked_matrices(draw):
    """Matrices of up to 12 x 12 over QQ, GF(7) and GF(2^31 - 1) of every rank:
    a product (nrows x r)(r x ncols) of dense factors, then up to 3 rows and
    3 columns set to zero."""
    field = draw(st.sampled_from((QQ, GF(7), GF(P31))))
    nrows, ncols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    r = draw(st.integers(0, min(nrows, ncols)))
    scalar = st.builds(lambda num, den: field.parse(f"{num}/{den}"), st.integers(-9, 9), st.integers(1, 4))
    left, right = ([draw(st.lists(scalar, min_size=w, max_size=w)) for _ in range(h)]
                   for h, w in ((nrows, r), (r, ncols)))
    zero_rows = draw(st.sets(st.integers(0, max(nrows - 1, 0)), max_size=min(nrows, 3)))
    zero_cols = draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=min(ncols, 3)))
    return Matrix(field, [
        [field.zero() if i in zero_rows or j in zero_cols
         else sum((left[i][k] * right[k][j] for k in range(r)), field.zero()) for j in range(ncols)]
        for i in range(nrows)
    ])


@given(ranked_matrices())
def test_kernel_is_reduced_from_one_elimination(m):
    assert_reduced_nullspace(m)


@given(matrices(square=True))
def test_det_and_inverse(m):
    dm = to_oracle(m.field, m.data, m.ncols)
    if m.nrows == 0:
        assert det(m) == m.field.one()
        return
    assert det(m) == from_oracle(m.field, dm.det())
    try:
        want = oracle_rows(m.field, dm.inv())
    except DMNonInvertibleMatrixError:
        want = None
    if want is None:
        with pytest.raises(DimensionError):
            invert(m)
    else:
        assert invert(m).data == want


@st.composite
def values_on_a_basis(draw):
    """(field, n, m, ls, rs): n vectors l of F^n, often a basis and sometimes
    not, each with a value r in F^m, over QQ or GF(7)."""
    field = draw(st.sampled_from((QQ, GF(7))))
    n, m = draw(st.integers(0, 5)), draw(st.integers(1, 5))
    ls = draw(entry_rows(field, n, n))
    if n >= 2 and draw(st.integers(0, 3)) == 0:
        ls[-1] = [a + b for a, b in zip(ls[0], ls[1])]
    return field, n, m, ls, draw(entry_rows(field, n, m))


@given(values_on_a_basis())
def test_map_on_a_basis(case):
    # on_basis returns the columns of L with L l = r, which is sympy's R B^-1
    # for B and R with the l and the r as columns
    field, n, m, ls, rs = case
    pairs = [(sparse(l), sparse(r)) for l, r in zip(ls, rs)]
    if n == 0:
        assert on_basis(field, 0, pairs) == []
        return
    basis = to_oracle(field, ls, n).transpose()
    if basis.rank() < n:
        with pytest.raises(DimensionError):
            on_basis(field, n, pairs)
        return
    cols = on_basis(field, n, pairs)
    for l, r in pairs:
        assert combine((x, cols[p].items()) for p, x in l.items()) == r
    want = to_oracle(field, rs, m).transpose() * basis.inv()
    assert tuple(dense(field, c, m) for c in cols) == oracle_rows(field, want.transpose())
    with pytest.raises(DimensionError):  # one value short: the l no longer span
        on_basis(field, n, pairs[:-1])


@given(matrices(), st.data())
def test_solve_linear(m, data):
    b = [m.field.from_int(data.draw(st.integers(-5, 5))) for _ in range(m.nrows)]
    if m.nrows and data.draw(st.booleans()):
        # a right-hand side in the column space: the system is consistent
        x = [m.field.from_int(data.draw(st.integers(-5, 5))) for _ in range(m.ncols)]
        b = list(m.mul_vec(tuple(x)))
    sol, ker = solve_linear(m, b)
    assert ker == kernel(m)
    aug = [list(row) + [bv] for row, bv in zip(m.data, b)]
    red, pivots = oracle_rref(m.field, to_oracle(m.field, aug, m.ncols + 1))
    if m.ncols in pivots:
        assert sol is None
        return
    want = [m.field.zero()] * m.ncols
    for r, p in enumerate(pivots):
        want[p] = red[r][m.ncols]
    assert sol == tuple(want)


@given(products())
def test_matmul(abv):
    a, b, _ = abv
    want = to_oracle(a.field, a.data, a.ncols) * to_oracle(a.field, b.data, b.ncols)
    got = a.matmul(b)
    assert (got.nrows, got.ncols) == (a.nrows, b.ncols)
    assert got.data == oracle_rows(a.field, want)


@given(products())
def test_mul_vec(abv):
    a, _, v = abv
    want = to_oracle(a.field, a.data, a.ncols) * to_oracle(a.field, [[x] for x in v], 1)
    assert a.mul_vec(v) == tuple(r[0] for r in oracle_rows(a.field, want))


def test_subspace_queries_match_oracle(kernel_case):
    """contains, reduce and coords on spans of catalog vectors, for the probe
    vectors and their products, against sympy's RREF of the same span."""
    _, alg, probes, _ = kernel_case
    f, n = alg.field, alg.dim
    vectors = probes + [alg.mul(u, v) for i, u in enumerate(probes) for v in probes[i:]]
    for gens in ([alg.axes[0][1]], probes[1:3], vectors[len(probes):len(probes) + 4]):
        space = Subspace.from_vectors(f, n, gens)
        red, pivots = oracle_rref(f, to_oracle(f, gens, n))
        basis = [r for r in red if any(r)]
        assert space.basis == tuple(basis) and space.pivots == pivots
        for w in vectors:
            inside = to_oracle(f, gens + [w], n).rank() == len(basis)
            assert space.contains(w) == inside
            lead = to_oracle(f, [[w[p] for p in pivots]], len(pivots))
            rest = to_oracle(f, [w], n) - lead * to_oracle(f, basis, n) if basis else to_oracle(f, [w], n)
            assert space.reduce(w) == oracle_rows(f, rest)[0]
            coords = space.coords(w)
            if not inside:
                assert coords is None
            elif basis:
                assert to_oracle(f, [coords], len(basis)) * to_oracle(f, basis, n) == to_oracle(f, [w], n)
            else:
                assert coords == ()


def associativity_system(alg):
    """Rows of (e_i, e_j e_l) - (e_i e_j, e_l) = 0 over the n^2 Gram entries,
    written out with Algebra.mul on basis vectors."""
    n = alg.dim
    e = [alg.basis_vector(i) for i in range(n)]
    rows = []
    for i in range(n):
        for j in range(n):
            left = alg.mul(e[i], e[j])
            for l in range(n):
                right = alg.mul(e[j], e[l])
                row = [alg.field.zero()] * (n * n)
                for m in range(n):
                    row[i * n + m] += right[m]
                    row[m * n + l] -= left[m]
                rows.append(row)
    return rows


def assert_frobenius_space_matches_oracle(alg):
    n = alg.dim
    system = to_sparse_oracle(alg.field, associativity_system(alg), n * n)
    want, pivots = oracle_rref(alg.field, system.nullspace().to_dense())
    space = frobenius_solution_space(alg)
    assert space.basis == tuple(r for r in want if any(r))
    assert space.pivots == pivots


@pytest.mark.parametrize("name", list(NORTON_SAKUMA_NAMES) + ["matsuo:S4"])
def test_frobenius_space_matches_oracle_nullspace(name):
    if name == "matsuo:S4":
        alg = matsuo(ThreeTranspositionGroup.symmetric(4), QQ.parse("1/4"))
    else:
        alg = norton_sakuma(name)
    assert_frobenius_space_matches_oracle(alg)


def test_modular_frobenius_space_matches_oracle_nullspace(solve_case):
    """The modular solve (mod p, lifted and certified over Q) on the
    Norton-Sakuma algebras, Matsuo S4-S6 at a seeded eta over QQ and
    GF(10007) and highwater quotients of period 2 to 8."""
    assert_frobenius_space_matches_oracle(solve_case[1])
