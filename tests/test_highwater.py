"""Sparse infinite-basis algebra on point and distance generators."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from axial import (
    GF,
    QQ,
    HighwaterElement,
    check_axis,
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
from axial.errors import DegenerateParameters, DimensionError, InvalidField, Unsupported

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

    def test_char_three_has_no_law(self):
        alg = hw_periodic_quotient(4, field=GF(3))
        assert alg.law is None
        assert alg.dim == 6

    def test_odd_prime_field_law_attached(self):
        alg = hw_periodic_quotient(3, field=GF(7))
        assert alg.law is not None
        for _, vec in alg.axes:
            assert check_axis(alg, vec, alg.law).passed
