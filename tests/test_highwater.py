"""Sparse infinite-basis algebra on point and distance generators."""

import json
import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from axial import (
    GF,
    QQ,
    Algebra,
    HighwaterElement,
    check_axis,
    dump_algebra,
    hw_a,
    hw_baric,
    hw_ideal_window_contains,
    hw_mul,
    hw_periodic_quotient,
    hw_reflect,
    hw_s,
    ideal_type_info,
    is_ideal_type,
    rational,
)
from axial import highwater
from axial.errors import (
    DegenerateParameters,
    DimensionError,
    InvalidField,
    MalformedInput,
    Unsupported,
)
from axial.fields import Fp
from axial.linalg import combine

coeffs = st.integers(min_value=-6, max_value=6).map(rational)


@st.composite
def elements(draw):
    x = HighwaterElement(QQ)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        x = x + hw_a(draw(st.integers(min_value=-5, max_value=5))).scale(draw(coeffs))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        x = x + hw_s(draw(st.integers(min_value=1, max_value=5))).scale(draw(coeffs))
    return x


class TestElements:
    def test_zero_coefficients_dropped(self):
        x = hw_a(3).scale(QQ.zero())
        assert x == HighwaterElement(QQ)
        assert hw_a(1) - hw_a(1) == HighwaterElement(QQ)

    def test_distance_zero_vanishes(self):
        assert HighwaterElement(QQ, s={0: QQ.one()}) == HighwaterElement(QQ)

    def test_negative_distance_rejected(self):
        with pytest.raises(InvalidField):
            HighwaterElement(QQ, s={-1: QQ.one()})

    @pytest.mark.parametrize("make", [
        lambda: hw_a(0.9), lambda: hw_a(True), lambda: hw_a("1"), lambda: hw_s(2.0),
        lambda: HighwaterElement(QQ, {"0_1": 1}), lambda: HighwaterElement(QQ, s={False: 1}),
    ])
    def test_indices_must_be_ints(self, make):
        # int() would read each of these as an index
        with pytest.raises(DimensionError):
            make()

    @given(elements())
    def test_json_roundtrip(self, x):
        assert HighwaterElement.from_json(QQ, x.to_json()) == x

    @pytest.mark.parametrize("obj", [
        {"A": {"47": "1"}}, {"a": {"0": "1"}, "t": {}}, {"a": []}, {"s": "1"}, {"a": None}, [], "a", None,
    ])
    def test_json_reads_only_parts_a_and_s(self, obj):
        # at a_47 the misspelt key used to give the element 0, which every ideal contains
        with pytest.raises(MalformedInput):
            HighwaterElement.from_json(QQ, obj)

    @given(elements(), elements())
    def test_addition_group(self, x, y):
        assert x + y == y + x
        assert (x + y) - y == x


class TestProducts:
    @given(elements(), elements())
    def test_commutative(self, x, y):
        assert hw_mul(x, y) == hw_mul(y, x)

    @given(elements(), elements(), elements())
    def test_bilinear(self, x, y, z):
        assert hw_mul(x + y, z) == hw_mul(x, z) + hw_mul(y, z)

    def test_point_products(self):
        half = rational(1, 2)
        assert hw_mul(hw_a(0), hw_a(0)) == hw_a(0)
        assert hw_mul(hw_a(1), hw_a(4)) == (hw_a(1) + hw_a(4)).scale(half) + hw_s(3)

    def test_mixed_product(self):
        want = (
            hw_a(2).scale(rational(-3, 4))
            + (hw_a(-1) + hw_a(5)).scale(rational(3, 8))
            + hw_s(3).scale(rational(3, 2))
        )
        assert hw_mul(hw_a(2), hw_s(3)) == want

    def test_distance_product(self):
        want = (hw_s(2) + hw_s(5)).scale(rational(3, 4)) - (
            hw_s(3) + hw_s(7)
        ).scale(rational(3, 8))
        assert hw_mul(hw_s(2), hw_s(5)) == want

    def test_char_two_unsupported(self):
        f = GF(2)
        with pytest.raises(Unsupported):
            hw_mul(hw_a(0, f), hw_a(1, f))


class TestReflections:
    @given(elements(), st.integers(min_value=-4, max_value=4))
    def test_involution(self, x, c):
        center = rational(c, 2)  # any half-integer
        assert hw_reflect(hw_reflect(x, center), center) == x

    @given(elements(), elements(), st.integers(min_value=-3, max_value=3))
    def test_automorphism(self, x, y, c):
        center = rational(c, 2)
        left = hw_reflect(hw_mul(x, y), center)
        right = hw_mul(hw_reflect(x, center), hw_reflect(y, center))
        assert left == right

    def test_point_image(self):
        assert hw_reflect(hw_a(1), rational(3)) == hw_a(5)
        assert hw_reflect(hw_s(2), rational(3)) == hw_s(2)

    def test_center_must_be_half_integral(self):
        with pytest.raises(DegenerateParameters):
            hw_reflect(hw_a(0), rational(1, 3))


class TestBaric:
    @given(elements(), elements())
    def test_multiplicative(self, x, y):
        assert hw_baric(hw_mul(x, y)) == hw_baric(x) * hw_baric(y)

    def test_weights(self):
        assert hw_baric(hw_a(7)) == QQ.one()
        assert hw_baric(hw_s(3)) == QQ.zero()


class TestIdealType:
    def test_palindromic_tuple(self):
        info = ideal_type_info(("1", "-2", "1"))
        assert info.ok and info.epsilons == (1,) and not info.divergent_readings
        assert is_ideal_type(("1", "-2", "1"))

    def test_antipalindromic_tuple_flagged(self):
        info = ideal_type_info(("1", "0", "-1"))
        assert info.ok and info.epsilons == (-1,)
        assert info.divergent_readings

    def test_rejections(self):
        assert not ideal_type_info(("1", "1")).ok          # sum not zero
        assert not ideal_type_info(("0", "1", "-1")).ok    # zero endpoint
        assert not ideal_type_info(("1", "2", "1")).ok


class TestMembership:
    GEN = ("1", "-2", "1")

    def test_generator_in_ideal(self):
        g = hw_a(0) + hw_a(1).scale(rational(-2)) + hw_a(2)
        assert hw_ideal_window_contains(self.GEN, g) == "yes"

    def test_reflected_translate_found(self):
        g = hw_a(0) + hw_a(1).scale(rational(-2)) + hw_a(2)
        image = hw_reflect(g, rational(5))
        assert hw_ideal_window_contains(self.GEN, image) == "yes"

    def test_product_with_point_found(self):
        g = hw_a(0) + hw_a(1).scale(rational(-2)) + hw_a(2)
        assert hw_ideal_window_contains(self.GEN, hw_mul(g, hw_a(3))) == "yes"

    def test_point_alone_unknown(self):
        assert hw_ideal_window_contains(self.GEN, hw_a(0)) == "unknown"

    def test_non_ideal_tuple_rejected(self):
        with pytest.raises(DegenerateParameters):
            hw_ideal_window_contains(("1", "1"), hw_a(0))

    @pytest.mark.parametrize("a,want", [({0: 1, 1: -2, 2: 1}, "yes"), ({0: 1}, "unknown")],
                             ids=["generator", "a0"])
    def test_element_searched_over_its_own_field(self, a, want):
        # the search runs over the element's field: GF(7), with no field named
        assert hw_ideal_window_contains(self.GEN, HighwaterElement(GF(7), a)) == want

    def test_set_up_once_per_search(self, monkeypatch):
        # the product rule is built once per field and the points a_k once
        # per search, not once per product
        made = []
        monkeypatch.setattr(highwater, "hw_a", lambda k, field=QQ: made.append(k) or hw_a(k, field))
        highwater._product_rule.cache_clear()
        assert hw_ideal_window_contains(self.GEN, hw_a(0), window=4) == "unknown"
        assert made == list(range(-4, 5))
        assert highwater._product_rule.cache_info().misses == 1


class TestPeriodicQuotient:
    def test_small_dimensions(self):
        for period, dim in ((2, 3), (3, 4), (4, 6), (5, 7)):
            alg = hw_periodic_quotient(period)
            assert alg.dim == dim
            assert len(alg.axes) == period

    def test_two_periodic_products(self):
        alg = hw_periodic_quotient(2)
        a0, a1 = alg.axes[0][1], alg.axes[1][1]
        s1 = alg.basis_vector(alg.basis.index("s1"))
        half = rational(1, 2)
        want = tuple(half * (x + y) for x, y in zip(a0, a1))
        assert alg.mul(a0, a1) == tuple(w + s for w, s in zip(want, s1))

    def test_axes_verify(self):
        alg = hw_periodic_quotient(6)
        for _, vec in alg.axes:
            assert check_axis(alg, vec, alg.law).passed

    def test_degenerate_period(self):
        with pytest.raises(DegenerateParameters):
            hw_periodic_quotient(1)

    def test_char_two_unsupported(self):
        with pytest.raises(Unsupported):
            hw_periodic_quotient(3, field=GF(2))

    @pytest.mark.parametrize("period", [2, 3, 6, 7])
    def test_one_product_per_pair(self, monkeypatch, period):
        # the rule runs once per basis pair p <= q, on one lift of each
        calls = []
        rule_of = highwater._product_rule
        monkeypatch.setattr(highwater, "_product_rule",
                            lambda field: lambda p, q: calls.append((p, q)) or rule_of(field)(p, q))
        n = hw_periodic_quotient(period).dim
        assert len(calls) == n * (n + 1) // 2

    def test_char_three_has_no_law(self):
        alg = hw_periodic_quotient(4, field=GF(3))
        assert alg.law is None
        assert alg.dim == 6

    def test_odd_prime_field_law_attached(self):
        alg = hw_periodic_quotient(3, field=GF(7))
        assert alg.law is not None
        for _, vec in alg.axes:
            assert check_axis(alg, vec, alg.law).passed


# The element format before elements became sparse rows: two dicts, a-indices
# and s-indices to scalars, with products by three loops.  These oracles are
# that code written out; the package must agree with them, scalar types
# included.

ORACLE_FIELDS = (QQ, GF(3), GF(7))
ORACLE_IDS = ["QQ", "GF(3)", "GF(7)"]


def old_parts(field, a, s):
    """What the old constructor stored: coerced scalars, zeros and s_0 dropped."""
    zero = field.zero()
    aa = {i: c for i, c in ((i, field.coerce(c)) for i, c in a.items()) if c != zero}
    ss = {j: c for j, c in ((j, field.coerce(c)) for j, c in s.items()) if j != 0 and c != zero}
    return aa, ss


def parts(x):
    """x's row as the old (a, s) dicts."""
    return tuple({i: c for (kind, i), c in x.row.items() if kind == k} for k in "as")


def typed(parts_):
    return tuple({i: (type(c), c) for i, c in d.items()} for d in parts_)


def oracle_mul(field, x, y):
    """The three-loop product on (a, s) dict pairs, with its s_0 drop."""
    (xa, xs), (ya, ys) = x, y
    half, q34, q38, q32 = (field.parse(c) for c in ("1/2", "3/4", "3/8", "3/2"))
    zero = field.zero()
    a, s = {}, {}

    def add_a(i, c):
        a[i] = a.get(i, zero) + c

    def add_s(j, c):
        if j != 0:
            s[j] = s.get(j, zero) + c

    for i, ci in xa.items():
        for j, cj in ya.items():
            c = ci * cj
            add_a(i, c * half)
            add_a(j, c * half)
            add_s(abs(i - j), c)
    for pa, ps in ((xa, ys), (ya, xs)):
        for i, ci in pa.items():
            for j, cj in ps.items():
                c = ci * cj
                add_a(i, -(c * q34))
                add_a(i - j, c * q38)
                add_a(i + j, c * q38)
                add_s(j, c * q32)
    for j, cj in xs.items():
        for k, ck in ys.items():
            c = cj * ck
            add_s(j, c * q34)
            add_s(k, c * q34)
            add_s(abs(j - k), -(c * q38))
            add_s(j + k, -(c * q38))
    return old_parts(field, a, s)


def oracle_repr(field, a, s):
    if not a and not s:
        return "0"
    bits = [f"{field.fmt(a[i])}*a{i}" for i in sorted(a)]
    bits += [f"{field.fmt(s[j])}*s{j}" for j in sorted(s)]
    return " + ".join(bits)


def oracle_to_json(field, a, s):
    return {
        "a": {str(i): field.fmt(c) for i, c in sorted(a.items())},
        "s": {str(j): field.fmt(c) for j, c in sorted(s.items())},
    }


def oracle_products(D, field):
    """The period-D structure constants by the lift-by-element construction:
    every pair of lifts multiplied as elements, reduced mod D, and checked to
    agree."""
    one = field.one()

    def reduce_elem(a, s):
        terms = [(i % D, c) for i, c in a.items()]
        for j, c in s.items():
            r = min(j % D, D - j % D)
            if r:
                terms.append((D + r - 1, c))
        return combine([(one, terms)])

    def lifts(k):
        if k < D:
            return [({k: one}, {}), ({k + D: one}, {}), ({k - D: one}, {})]
        j = k - D + 1
        out = [({}, {j: one}), ({}, {j + D: one})]
        if D - j != j:
            out.append(({}, {D - j: one}))
        return out

    products = {}
    for p in range(D + D // 2):
        for q in range(p, D + D // 2):
            images = [reduce_elem(*oracle_mul(field, x, y)) for x in lifts(p) for y in lifts(q)]
            assert all(img == images[0] for img in images)
            products[(p, q)] = images[0]
    return products


def scalars(field):
    return st.builds("{}/{}".format, st.integers(-6, 6), st.sampled_from((1, 1, 2))).map(field.parse)


def old_element_dicts(field):
    """Raw (a, s) constructor arguments: small indices that collide and cancel,
    large and negative ones, s_0 and zero scalars."""
    a_keys = st.one_of(st.integers(-4, 4), st.integers(-10**12, 10**12))
    s_keys = st.one_of(st.integers(0, 4), st.integers(0, 10**12))
    return st.tuples(
        st.dictionaries(a_keys, scalars(field), max_size=4),
        st.dictionaries(s_keys, scalars(field), max_size=3),
    )


class TestOldFormatOracles:
    @pytest.mark.parametrize("field", ORACLE_FIELDS, ids=ORACLE_IDS)
    @given(data=st.data())
    def test_product_matches_three_loops(self, field, data):
        (xa, xs), (ya, ys) = data.draw(old_element_dicts(field)), data.draw(old_element_dicts(field))
        got = hw_mul(HighwaterElement(field, xa, xs), HighwaterElement(field, ya, ys))
        want = oracle_mul(field, old_parts(field, xa, xs), old_parts(field, ya, ys))
        assert typed(parts(got)) == typed(want)
        assert ("s", 0) not in got.row

    @pytest.mark.parametrize("field", ORACLE_FIELDS, ids=ORACLE_IDS)
    @given(data=st.data())
    def test_linear_operations_match_dict_arithmetic(self, field, data):
        (xa, xs), (ya, ys) = data.draw(old_element_dicts(field)), data.draw(old_element_dicts(field))
        c = data.draw(scalars(field))
        x, y = HighwaterElement(field, xa, xs), HighwaterElement(field, ya, ys)
        old_x, old_y = old_parts(field, xa, xs), old_parts(field, ya, ys)

        zero = field.zero()

        def entrywise(op):
            """op on the old dicts entry by entry, a missing entry read as zero."""
            return old_parts(field, *({k: op(d.get(k, zero), e.get(k, zero)) for k in {*d, *e}}
                                      for d, e in zip(old_x, old_y)))

        assert typed(parts(x)) == typed(old_x)
        assert typed(parts(x + y)) == typed(entrywise(operator.add))
        assert typed(parts(x - y)) == typed(entrywise(operator.sub))
        assert typed(parts(x.scale(c))) == typed(old_parts(field, *({k: c * v for k, v in d.items()}
                                                                     for d in old_x)))

    @pytest.mark.parametrize("field", ORACLE_FIELDS, ids=ORACLE_IDS)
    @given(data=st.data())
    def test_repr_and_json_match_old_printers(self, field, data):
        (xa, xs), (ya, ys) = data.draw(old_element_dicts(field)), data.draw(old_element_dicts(field))
        x, y = HighwaterElement(field, xa, xs), HighwaterElement(field, ya, ys)
        for z in (x, hw_mul(x, y), hw_reflect(x, rational(data.draw(st.integers(-9, 9)), 2))):
            old = parts(z)
            assert repr(z) == oracle_repr(field, *old)
            assert json.dumps(z.to_json()) == json.dumps(oracle_to_json(field, *old))
            assert HighwaterElement.from_json(field, z.to_json()) == z

    @pytest.mark.parametrize("field, period", [
        *((QQ, d) for d in (*range(2, 13), 20, 29, 30)),
        *((GF(p), d) for p in (3, 7, 10007) for d in (3, 4, 5, 8)),
    ], ids=lambda v: v if isinstance(v, int) else "QQ" if v == QQ else f"GF({v.p})")
    def test_quotient_matches_lift_by_element(self, field, period):
        alg = hw_periodic_quotient(period, field)
        want = Algebra(field, alg.basis, oracle_products(period, field),
                       axes=alg.axes, law=alg.law, form=alg.form)
        assert dump_algebra(alg) == dump_algebra(want)
        assert {ij: [(k, type(c), c) for k, c in pairs] for ij, pairs in alg.products.items()} == {
            ij: [(k, type(c), c) for k, c in pairs] for ij, pairs in want.products.items()}


class TestChecks:
    @pytest.mark.parametrize("field, a, s, error, message", [
        (QQ, {0: 0.5}, {-1: 1, 2.0: 1}, DimensionError, "index 2.0 is not an int"),
        (QQ, {0: 0.5}, {-1: 1}, InvalidField, "not a rational scalar: 0.5"),
        (QQ, {}, {-1: 1, 0: 0.5}, InvalidField, "negative distance index s_-1"),
        (QQ, {}, {0: 0.5, -1: 1}, InvalidField, "not a rational scalar: 0.5"),
        (QQ, {}, {0: "1"}, InvalidField, "not a rational scalar: '1'"),
        (GF(7), {}, {0: Fp(1, 5)}, InvalidField, "modulus mismatch: 5 vs 7"),
    ])
    def test_error_precedence(self, field, a, s, error, message):
        # index types first, then the a-scalars, then each distance in order:
        # its sign, then its scalar, which is checked even at s_0
        with pytest.raises(error, match=message):
            HighwaterElement(field, a, s)

    @pytest.mark.parametrize("op", [operator.add, operator.sub, hw_mul], ids=["add", "sub", "mul"])
    @pytest.mark.parametrize("f, g", [(QQ, GF(7)), (GF(3), GF(7)), (GF(7), QQ)],
                             ids=["QQ-GF(7)", "GF(3)-GF(7)", "GF(7)-QQ"])
    def test_mixed_fields_rejected(self, op, f, g):
        with pytest.raises(InvalidField, match="mixed fields"):
            op(hw_a(0, f) + hw_s(1, f), hw_a(0, g) + hw_s(2, g))
