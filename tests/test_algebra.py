"""Core algebra container: products, subspaces as substructures, quotients."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from axial import (
    GF,
    QQ,
    Algebra,
    dump_algebra,
    form_value,
    hw_periodic_quotient,
    load_algebra,
    matsuo,
    norton_sakuma,
    radical,
    rational,
)
from axial.catalog import ThreeTranspositionGroup
from axial.errors import AxialError, DimensionError, MalformedInput, NotAnIdeal
from axial.linalg import Matrix, Subspace, is_zero_vec, sparse, vadd, vscale

coeffs = st.integers(min_value=-7, max_value=7).map(rational)


def vectors(dim):
    return st.lists(coeffs, min_size=dim, max_size=dim).map(tuple)


def assert_projection_is_a_homomorphism(alg, quot, proj):
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            u, v = alg.basis_vector(i), alg.basis_vector(j)
            assert quot.mul(proj.mul_vec(u), proj.mul_vec(v)) == proj.mul_vec(alg.mul(u, v))


@pytest.fixture(scope="module")
def three_a():
    return norton_sakuma("3A")


def two_block():
    # a0, a1 idempotent, everything else zero
    products = {(0, 0): (1, 0), (1, 1): (0, 1)}
    return Algebra(
        QQ,
        ("a0", "a1"),
        products,
        axes=[("a0", (1, 0)), ("a1", (0, 1))],
    )


class TestProducts:
    @given(vectors(4), vectors(4))
    def test_mul_commutative(self, u, v):
        alg = norton_sakuma("3A")
        assert alg.mul(u, v) == alg.mul(v, u)

    @given(vectors(4), vectors(4), vectors(4), coeffs)
    def test_mul_bilinear(self, u, v, w, c):
        alg = norton_sakuma("3A")
        left = alg.mul(vadd(u, vscale(c, v)), w)
        right = vadd(alg.mul(u, w), vscale(c, alg.mul(v, w)))
        assert left == right

    def test_basis_product_symmetry(self, three_a):
        for i in range(three_a.dim):
            for j in range(three_a.dim):
                assert three_a.basis_product(i, j) == three_a.basis_product(j, i)

    @given(vectors(4), vectors(4))
    def test_adjoint_matches_mul(self, a, v):
        alg = norton_sakuma("3A")
        assert alg.adjoint(a).mul_vec(v) == alg.mul(a, v)

    def test_associator_vanishes_on_idempotent(self, three_a):
        a = three_a.axes[0][1]
        assert is_zero_vec(three_a.associator(a, a, a))

    def test_coerce_rejects_bad_length(self, three_a):
        with pytest.raises(Exception):
            three_a.mul((1, 0), (0, 1))

    def test_products_are_sorted_nonzero_pairs(self, three_a):
        for (i, j), pairs in three_a.products.items():
            assert i <= j and pairs
            assert [k for k, _ in pairs] == sorted({k for k, _ in pairs})
            assert all(c for _, c in pairs)
            dense = three_a.basis_product(j, i)
            assert [(k, c) for k, c in enumerate(dense) if c] == list(pairs)

    @pytest.mark.parametrize("index", [-1, -2, 2, 7])
    def test_product_map_index_out_of_range(self, index):
        with pytest.raises(DimensionError):
            Algebra(QQ, ["a", "b"], {(0, 0): {index: 1}})

    @pytest.mark.parametrize(
        "products",
        [{(0, 1): {0.9: 1}}, {(0, 0): {"0_1": 1}}, {(0.5, 1): {0: 1}}, {(True, 1): {0: 1}}],
        ids=["float-coordinate", "str-coordinate", "float-pair", "bool-pair"],
    )
    def test_product_indices_must_be_ints(self, products):
        with pytest.raises(DimensionError):
            Algebra(QQ, ["a", "b"], products)

    @pytest.mark.parametrize(
        "products",
        [
            {(0, 1): (0, 0), (1, 0): (1, 0)},
            {(1, 0): (1, 0), (0, 1): (0, 0)},
            {(0, 1): {}, (1, 0): {0: 1}},
            {(1, 0): {0: 1}, (0, 1): {}},
        ],
        ids=["zero-first", "zero-last", "map-zero-first", "map-zero-last"],
    )
    def test_conflicting_products_in_either_order(self, products):
        with pytest.raises(AxialError, match="conflicting"):
            Algebra(QQ, ["a", "b"], products)

    def test_agreeing_products_in_either_order(self):
        alg = Algebra(QQ, ["a", "b"], {(0, 1): (0, 0), (1, 0): {}, (1, 1): {1: 1}, (0, 0): (1, 0)})
        assert alg.basis_product(1, 0) is None
        assert alg.basis_product(1, 1) == (0, 1)


def dense_product(alg, u, v):
    """u v written out as the double sum of u_i v_j e_i e_j over basis_product."""
    out = [alg.field.zero()] * alg.dim
    for i in range(alg.dim):
        for j in range(alg.dim):
            p = alg.basis_product(i, j)
            for k in range(alg.dim) if p is not None else ():
                out[k] = out[k] + u[i] * v[j] * p[k]
    return tuple(out)


class TestSparseKernels:
    """mul and adjoint against the dense double sum, and the sparse rows
    behind them: the same vectors, with no zero entry stored."""

    def test_mul_matches_dense_sum(self, kernel_case):
        _, alg, probes, _ = kernel_case
        for u in probes:
            for v in probes:
                want = dense_product(alg, u, v)
                assert alg.mul(u, v) == want
                assert alg._mul(sparse(u), sparse(v)) == sparse(want)

    def test_adjoint_matches_dense_sum(self, kernel_case):
        _, alg, probes, _ = kernel_case
        for a in probes:
            rows = tuple(zip(*(dense_product(alg, a, e) for e in map(alg.basis_vector, range(alg.dim)))))
            ad = alg.adjoint(a)
            assert ad.data == rows
            assert ad.rows == tuple(map(sparse, rows))

    def test_products_cancel_to_exact_zero(self, kernel_case):
        # in 2B the product of distinct basis vectors is 0, so no two products share an entry
        name, _, _, pair = kernel_case
        assert (pair is None) == (name == "ns:2B")


class TestSubstructures:
    def test_axes_generate(self, three_a):
        span = three_a.subalgebra_gen(three_a.axis_vectors())
        assert span.dim == three_a.dim

    def test_single_axis_generates_line(self, three_a):
        span = three_a.subalgebra_gen([three_a.axes[0][1]])
        assert span.dim == 1

    def test_ideal_gen_and_quotient(self):
        alg = matsuo(ThreeTranspositionGroup.symmetric(3), QQ.parse("-1"))
        z = vadd(vadd(alg.basis_vector(0), alg.basis_vector(1)), alg.basis_vector(2))
        ideal = alg.ideal_gen([z])
        assert ideal.dim == 1
        assert alg.is_ideal(ideal)
        q, proj = alg.quotient(ideal)
        assert q.dim == 2
        assert_projection_is_a_homomorphism(alg, q, proj)

    def test_quotient_by_the_radical_of_a_highwater_quotient(self):
        # quotient() does not re-check this: two lifts of one quotient vector
        # differ by ideal elements, and so do their products
        alg = hw_periodic_quotient(6)
        rad = radical(alg)
        assert rad.dim > 0
        q, proj = alg.quotient(rad)
        assert q.dim == alg.dim - rad.dim
        assert_projection_is_a_homomorphism(alg, q, proj)

    def test_quotient_rejects_non_ideal(self, three_a):
        line = Subspace.from_vectors(QQ, three_a.dim, [three_a.axes[0][1]])
        assert not three_a.is_ideal(line)
        with pytest.raises(NotAnIdeal):
            three_a.quotient(line)

    def test_annihilator_and_centre(self):
        alg = two_block()
        assert alg.annihilator().dim == 0
        # both points are central: all adjoints commute and associate
        assert alg.centre().dim == 2

    def test_restrict(self, three_a):
        sub = three_a.subalgebra_gen([three_a.axes[0][1]])
        small, embed = three_a.restrict(sub)
        assert small.dim == 1
        v = small.basis_vector(0)
        assert small.mul(v, v) == v
        assert embed.mul_vec(v) == three_a.axes[0][1]

    def test_with_law_and_axes(self, three_a):
        bare = three_a.with_axes([])
        assert bare.axes == ()
        assert bare.products == three_a.products
        relabeled = three_a.with_axes([("x", three_a.axes[0][1])])
        assert relabeled.axes[0][0] == "x"


class TestFormValue:
    @pytest.mark.parametrize("field", [QQ, GF(10007)], ids=["QQ", "GF"])
    @given(data=st.data())
    def test_matches_double_sum(self, field, data):
        n = data.draw(st.integers(min_value=1, max_value=4))
        ints = st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n)
        gram = Matrix(field, [data.draw(ints) for _ in range(n)])
        u = tuple(field.coerce(x) for x in data.draw(ints))
        v = tuple(field.coerce(x) for x in data.draw(ints))
        want = field.zero()
        for i in range(n):
            for j in range(n):
                want = want + u[i] * gram.data[i][j] * v[j]
        assert form_value(gram, u, v) == want
        zero = (field.zero(),) * n
        for got in (form_value(gram, zero, v), form_value(gram, u, zero)):
            assert got == field.zero() and type(got) is type(field.zero())

    def test_size_mismatch(self):
        gram = Matrix(QQ, [[1, 0], [0, 1]])
        with pytest.raises(DimensionError):
            form_value(gram, (1, 0), (1, 0, 0))
        with pytest.raises(DimensionError):
            form_value(gram, (1,), (1,))


class TestSerialization:
    def test_roundtrip(self, three_a):
        text = dump_algebra(three_a)
        back = load_algebra(text)
        assert back.basis == three_a.basis
        assert back.products == three_a.products
        assert back.axes == three_a.axes
        assert back.law is not None
        assert back.law.elements == three_a.law.elements

    def test_deterministic_output(self, three_a):
        assert dump_algebra(three_a) == dump_algebra(three_a)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: norton_sakuma("3A"),
            lambda: matsuo(ThreeTranspositionGroup.symmetric(4), GF(10007).parse("1/4"), GF(10007)),
            lambda: hw_periodic_quotient(6),
        ],
        ids=["ns3A", "matsuo-S4-GF", "hw6"],
    )
    def test_form_roundtrip(self, build):
        alg = build()
        text = dump_algebra(alg)
        assert list(json.loads(text))[-1] == "form"
        back = load_algebra(text)
        assert back.form == alg.form
        assert back.products == alg.products
        assert dump_algebra(back) == text

    def test_repeated_product_entries_must_agree(self, three_a):
        obj = json.loads(dump_algebra(three_a))
        obj["products"].append(dict(obj["products"][0]))
        assert load_algebra(json.dumps(obj)).products == three_a.products
        obj["products"][-1] = {**obj["products"][0], "v": {"1": "1"}}
        with pytest.raises(MalformedInput, match="conflicting"):
            load_algebra(json.dumps(obj))

    def test_document_without_form_loads_without_one(self, three_a):
        obj = json.loads(dump_algebra(three_a))
        del obj["form"]
        back = load_algebra(json.dumps(obj))
        assert back.form is None
        assert "form" not in json.loads(dump_algebra(back))

    @pytest.mark.parametrize(
        "form",
        [
            [["1", "0"], ["0", "1"]],
            [["1", "0", "0", "0"]] * 3 + [["1", "0", "0"]],
            [["1"] * 4] * 5,
            [["1", "0", "0", "1/0"]] * 4,
            [["1", "0", "0", 0.5]] * 4,
            [["1", "0", "0", "2 mod 7"]] * 4,
            [["1", "0", "0", None]] * 4,
            [["1", "0", "0", True]] * 4,
            [["1", "0", "0", ["1"]]] * 4,
            ["1", "0", "0", "1"],
            "1",
            None,
        ],
    )
    def test_malformed_form(self, three_a, form):
        obj = json.loads(dump_algebra(three_a))
        obj["form"] = form
        with pytest.raises(MalformedInput):
            load_algebra(json.dumps(obj))

    def test_malformed_documents(self):
        with pytest.raises(MalformedInput):
            load_algebra("{}")
        with pytest.raises(MalformedInput):
            load_algebra("[1, 2]")
        doc = {
            "field": {"kind": "rational"},
            "dim": 2,
            "basis": ["a", "b"],
            "products": [{"i": 0, "j": 5, "v": {"0": "1"}}],
            "axes": [],
        }
        with pytest.raises(MalformedInput):
            load_algebra(json.dumps(doc))

    def test_malformed_scalar(self):
        doc = {
            "field": {"kind": "rational"},
            "dim": 1,
            "basis": ["a"],
            "products": [{"i": 0, "j": 0, "v": {"0": "sqrt2"}}],
            "axes": [],
        }
        with pytest.raises(MalformedInput):
            load_algebra(json.dumps(doc))
