"""Exact linear algebra: echelon forms, kernels, subspace lattice."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from axial import GF, QQ, rational
from axial.errors import DimensionError
from axial.linalg import (
    EchelonAccumulator,
    Matrix,
    Subspace,
    det,
    invert,
    is_zero_vec,
    kernel,
    rref,
    solve_linear,
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
