"""Structure probes: Seress identity, annihilation graph, spine, baric maps."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from axial import (
    GF,
    Algebra,
    NORTON_SAKUMA_NAMES,
    QQ,
    baric_map_check,
    hw_periodic_quotient,
    is_slender,
    matsuo,
    non_annihilating_graph,
    norton_sakuma,
    radical,
    rational,
    seress_lemma_check,
    spin_factor,
    spine,
    split_spin_factor,
    sum_decomposition,
)
from axial.axes import eigen_decomposition
from axial.catalog import ThreeTranspositionGroup
from axial.errors import Unsupported
from axial.highwater import hw_quotient_weights
from axial.linalg import Subspace
from axial.structure import UndirectedGraph
from vectors import vadd, vscale


class TestSeress:
    def test_holds_on_golden_axes(self):
        alg = norton_sakuma("3A")
        for _, vec in alg.axes:
            chk = seress_lemma_check(alg, vec)
            assert chk.ok and chk.witness is None

    @staticmethod
    def oracle(alg, a):
        # a(xy) = (ax)y by four products for each basis x and each y in
        # A_1(a) + A_0(a), y outer, x inner; the first failure is the witness
        law = alg.law
        spaces = eigen_decomposition(alg, a, law)[1]
        mul = alg.mul
        for y in (*spaces[law.one_index].basis, *spaces[law.zero_index].basis):
            for j in range(alg.dim):
                x = alg.basis_vector(j)
                if mul(a, mul(x, y)) != mul(mul(a, x), y):
                    return False, (x, y)
        return True, None

    @pytest.mark.parametrize("name", NORTON_SAKUMA_NAMES)
    def test_matches_four_product_oracle(self, name):
        alg = norton_sakuma(name)
        n = alg.dim
        axes = [v for _, v in alg.axes]
        # the sums e_i + e_j fail the identity somewhere on all but 2B
        basis = [alg.basis_vector(j) for j in range(n)]
        probes = axes + [vadd(basis[i], basis[j]) for i in range(n) for j in range(i, n)]
        checks = [seress_lemma_check(alg, a) for a in probes]
        for a, chk in zip(probes, checks):
            assert (chk.ok, chk.witness) == self.oracle(alg, a), (name, a)
        assert all(chk.ok for chk in checks[:len(axes)])
        assert name == "2B" or not all(chk.ok for chk in checks)

    def test_witness_off_an_axis(self):
        alg = norton_sakuma("3A")
        one = QQ.one()
        chk = seress_lemma_check(alg, (0, 0, 1, 1))
        assert not chk.ok
        assert chk.witness == ((one, 0, 0, 0), (0, 0, one, -one))

    def test_requires_law(self):
        alg = norton_sakuma("3A").with_law(None)
        with pytest.raises(Unsupported):
            seress_lemma_check(alg, alg.axes[0][1])


class TestAnnihilationGraph:
    def test_zero_product_axes_disconnect(self):
        alg = norton_sakuma("2B")
        g = non_annihilating_graph(alg, alg.axis_vectors())
        assert g.components() == ((0,), (1,))

    def test_interacting_axes_connect(self):
        alg = norton_sakuma("4A")
        g = non_annihilating_graph(alg, alg.axis_vectors())
        assert g.components() == ((0, 1, 2, 3),)

    def test_components_on_arbitrary_vertices(self):
        g = UndirectedGraph(vertices=(9, 4, 7, 2, 5), edges=((4, 9), (2, 7), (7, 9)))
        assert g.components() == ((2, 4, 7, 9), (5,))
        assert UndirectedGraph(vertices=(8, 3, 6), edges=()).components() == ((3,), (6,), (8,))


class TestSumDecomposition:
    def test_connected_algebra_is_one_block(self):
        alg = norton_sakuma("3A")
        dec = sum_decomposition(alg, alg.axis_vectors())
        assert dec.count == 1
        assert dec.pairwise_zero and dec.direct
        assert dec.subalgebras[0].dim == alg.dim

    def test_split_algebra(self):
        alg = norton_sakuma("2B")
        dec = sum_decomposition(alg, alg.axis_vectors())
        assert dec.count == 2
        assert [s.dim for s in dec.subalgebras] == [1, 1]
        assert dec.pairwise_zero and dec.direct


class TestSpine:
    def test_generating_axes_make_slender(self):
        alg = norton_sakuma("5A")
        assert spine(alg, alg.axis_vectors()).dim == alg.dim
        assert is_slender(alg, alg.axis_vectors())

    def test_non_generating_axes_detected(self):
        ss = split_spin_factor([[1, 0], [0, 1]], QQ.parse("-1")).algebra
        sp = spine(ss, ss.axis_vectors())
        assert sp.dim == 3
        assert not is_slender(ss, ss.axis_vectors())
        # the spine is multiplication-closed, hence a subalgebra here
        assert ss.subalgebra_gen(sp.basis).dim == sp.dim


class TestBaric:
    def test_quotient_weights(self):
        alg = hw_periodic_quotient(4)
        assert baric_map_check(alg, hw_quotient_weights(alg))

    def test_matsuo_weight_one_map(self):
        # eta = 2 makes the all-ones weight vector multiplicative
        s3 = ThreeTranspositionGroup.symmetric(3)
        assert baric_map_check(matsuo(s3, QQ.parse("2")), (1, 1, 1))
        assert not baric_map_check(matsuo(s3, QQ.parse("1/4")), (1, 1, 1))

    def test_zero_map_rejected(self):
        s3 = ThreeTranspositionGroup.symmetric(3)
        alg = matsuo(s3, QQ.parse("2"))
        assert not baric_map_check(alg, (0, 0, 0))


def _round_fixed_point(alg, seeds, products):
    """Oracle: multiply the whole basis every round until a round adds nothing."""
    span = Subspace.from_vectors(alg.field, alg.dim, seeds)
    while True:
        fresh = [p for p in products(span.basis) if not span.contains(p)]
        if not fresh:
            return span
        span = span.sum(Subspace.from_vectors(alg.field, alg.dim, fresh))


def _all_pairs(alg):
    def products(rows):
        for i in range(len(rows)):
            for j in range(i, len(rows)):
                yield alg.mul(rows[i], rows[j])

    return products


def _by_basis(alg):
    basis = [alg.basis_vector(i) for i in range(alg.dim)]
    return lambda rows: (alg.mul(e, r) for e in basis for r in rows)


def _by_vectors(alg, vecs):
    return lambda rows: (alg.mul(a, r) for a in vecs for r in rows)


@pytest.fixture(scope="module")
def span_algebras():
    out = [norton_sakuma(name) for name in NORTON_SAKUMA_NAMES]
    for field in (QQ, GF(10007)):
        for n in (4, 5):
            group = ThreeTranspositionGroup.symmetric(n)
            out.append(matsuo(group, field.parse("1/4"), field=field))
    out.append(spin_factor([[2, 1], [1, 2]]).algebra)
    out.append(split_spin_factor([[1, 0], [0, 1]], rational(1, 3)).algebra)
    out.extend(hw_periodic_quotient(d) for d in (4, 5, 6))
    return out


@st.composite
def generator_sets(draw, alg):
    """Up to three vectors: zero, an axis, a sparse random (usually not
    idempotent) vector, or a combination of earlier picks."""
    entries = st.sampled_from((0, 0, 0, 1, -1, 2, 3))
    out = []
    for kind in draw(st.lists(st.sampled_from(("zero", "axis", "random", "dependent")), max_size=3)):
        if kind == "zero":
            out.append(alg.zero_vector())
        elif kind == "axis" and alg.axes:
            out.append(draw(st.sampled_from(alg.axis_vectors())))
        elif kind == "dependent" and out:
            c = alg.field.coerce(draw(entries))
            out.append(vadd(out[0], vscale(c, out[-1])))
        else:
            out.append(alg.coerce_vector(draw(st.lists(entries, min_size=alg.dim, max_size=alg.dim))))
    return out


@st.composite
def small_algebras(draw):
    """A commutative algebra of dimension 1 to 4 over QQ or GF(3), with every
    product of basis vectors drawn: mostly full closures, some not."""
    field = draw(st.sampled_from((QQ, GF(3))))
    n = draw(st.integers(min_value=1, max_value=4))
    vectors = st.lists(st.sampled_from((0, 0, 1, -1, 2)), min_size=n, max_size=n)
    products = {(i, j): tuple(map(field.from_int, draw(vectors))) for i in range(n) for j in range(i, n)}
    return Algebra(field, tuple(f"e{i}" for i in range(n)), products)


class TestSpanGrowth:
    def _check(self, alg, gens):
        assert alg.subalgebra_gen(gens) == _round_fixed_point(alg, gens, _all_pairs(alg))
        assert alg.ideal_gen(gens) == _round_fixed_point(alg, gens, _by_basis(alg))
        assert spine(alg, gens) == _round_fixed_point(alg, gens, _by_vectors(alg, gens))

    def test_fixed_cases_on_every_algebra(self, span_algebras):
        for alg in span_algebras:
            zero, axes = alg.zero_vector(), list(alg.axis_vectors())
            ends = vadd(alg.basis_vector(0), alg.basis_vector(alg.dim - 1))
            for gens in ([], [zero], [zero, zero], axes, axes[:1] + axes[:1], [ends]):
                self._check(alg, gens)

    @given(data=st.data())
    def test_matches_round_based_loop(self, span_algebras, data):
        alg = data.draw(st.sampled_from(span_algebras))
        self._check(alg, data.draw(generator_sets(alg)))

    @given(data=st.data())
    def test_matches_round_based_loop_on_drawn_algebras(self, data):
        alg = data.draw(small_algebras())
        entries = st.lists(st.sampled_from((0, 0, 1, -1, 3)), min_size=alg.dim, max_size=alg.dim)
        self._check(alg, [alg.coerce_vector(v) for v in data.draw(st.lists(entries, max_size=3))])

    def test_one_generator_reaches_its_square(self):
        alg = norton_sakuma("3A")
        a, b = alg.axis_vectors()[:2]
        v = vadd(a, b)
        sub = alg.subalgebra_gen([v])
        assert sub.contains(alg.mul(v, v)) and sub.dim > 1

    def test_highwater_radical_is_its_own_ideal(self):
        for d in range(2, 9):
            alg = hw_periodic_quotient(d)
            rad = radical(alg)
            assert alg.ideal_gen(rad.basis) == rad
