"""Scalar layer: rationals, prime fields, parsing and formatting."""

import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from axial import GF, QQ, rational
from axial.errors import InvalidField
from axial.fields import FieldSpec, Fp

nonzero = st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n != 0)
ints = st.integers(min_value=-10**6, max_value=10**6)


@st.composite
def rationals(draw):
    return rational(draw(ints), draw(nonzero))


class TestRationals:
    def test_parse_fmt_roundtrip(self):
        for text in ("0", "1", "-7", "3/4", "-13/256", "875/524288"):
            assert QQ.fmt(QQ.parse(text)) == text

    def test_parse_normalises(self):
        assert QQ.parse("2/4") == rational(1, 2)
        assert QQ.fmt(QQ.parse("2/4")) == "1/2"

    def test_coerce_lifts_ints(self):
        assert QQ.coerce(3) == rational(3)
        with pytest.raises(InvalidField):
            QQ.coerce(0.5)
        with pytest.raises(InvalidField):
            QQ.coerce("1/2")

    @given(rationals(), rationals(), rationals())
    def test_field_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if b != 0:
            assert (a / b) * b == a

    def test_parse_rejects_garbage(self):
        for text in ("", "1/0", "one", "1.5", "2 mod 7"):
            with pytest.raises(InvalidField):
                QQ.parse(text)

    @pytest.mark.parametrize("field,text", [
        (QQ, "\u0661/\u0662"), (QQ, "\u0663"), (QQ, "1/\u0662"), (QQ, "\uff11"),
        (GF(7), "\u0663 mod 7"), (GF(7), "3 mod \u0667"), (GF(7), "\u0661/\u0662"),
    ])
    def test_parse_rejects_non_ascii_digits(self, field, text):
        # int() reads these digits; a scalar literal is written in ASCII only
        with pytest.raises(InvalidField):
            field.parse(text)

    @pytest.mark.parametrize("field,text", [
        (QQ, "1" * 5000), (QQ, "-" + "1" * 5000), (QQ, "1/" + "1" * 5000),
        (GF(7), "1" * 5000 + " mod 7"), (GF(7), "1 mod " + "7" * 5000), (GF(7), "1" * 5000 + "/3"),
    ], ids=["integer", "negative", "denominator", "residue", "modulus", "prime-field-fraction"])
    def test_parse_rejects_literals_past_the_digit_limit(self, field, text):
        # int() reads at most 4300 digits from a string by default
        with pytest.raises(InvalidField, match="too many digits"):
            field.parse(text)


class TestPrimeField:
    def test_construction_requires_prime(self):
        GF(7)
        GF(2)
        with pytest.raises(InvalidField):
            GF(6)
        with pytest.raises(InvalidField):
            GF(1)

    def test_parse_mod_and_fraction(self):
        f = GF(7)
        assert f.parse("3 mod 7") == Fp(3, 7)
        assert f.parse("10 mod 7") == Fp(3, 7)
        # p/q parses via modular inverse
        assert f.parse("1/2") == Fp(4, 7)
        with pytest.raises(InvalidField):
            f.parse("3 mod 5")

    def test_fmt(self):
        f = GF(7)
        assert f.fmt(f.parse("3 mod 7")) == "3 mod 7"

    @given(st.integers(), st.integers())
    def test_arithmetic_matches_int_mod_p(self, a, b):
        p = 11
        x, y = Fp(a, p), Fp(b, p)
        assert (x + y).v == (a + b) % p
        assert (x * y).v == (a * b) % p
        assert (x - y).v == (a - b) % p
        assert (-x).v == (-a) % p

    @given(st.integers(min_value=1, max_value=10))
    def test_inverse(self, a):
        x = Fp(a, 11)
        assert (x / x).v == 1
        assert x * x ** (-1) == Fp(1, 11)

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            Fp(3, 5) / Fp(0, 5)

    def test_mixed_moduli_rejected(self):
        with pytest.raises(InvalidField):
            Fp(1, 5) + Fp(1, 7)

    @pytest.mark.parametrize("op", [operator.add, operator.mul], ids=["add", "mul"])
    def test_mixed_moduli_rejected_in_either_order(self, op):
        for x, y in ((Fp(1, 5), Fp(1, 7)), (Fp(1, 7), Fp(1, 5)), (Fp(3, 5), Fp(3, 11))):
            with pytest.raises(InvalidField):
                op(x, y)

    @pytest.mark.parametrize("op", [operator.add, operator.mul], ids=["add", "mul"])
    @given(st.integers(), st.integers())
    def test_int_operand_in_either_order(self, op, a, b):
        p = 11
        for got in (op(Fp(a, p), b), op(b, Fp(a, p))):
            assert type(got) is Fp and got.p == p
            assert got.v == op(a, b) % p

    @pytest.mark.parametrize("op", [operator.add, operator.mul], ids=["add", "mul"])
    @given(st.integers(), st.integers())
    def test_results_stay_in_range(self, op, a, b):
        for p in (2, 11, 2**31 - 1):
            got = op(Fp(a, p), Fp(b, p))
            assert type(got) is Fp and got.p == p
            assert 0 <= got.v < p and got.v == op(a, b) % p

    def test_int_equality_is_exact_residue(self):
        assert Fp(1, 5) == 1
        assert Fp(1, 5) != 6
        assert Fp(4, 5) != -1
        assert 1 in {Fp(1, 5)}
        assert Fp(1, 5) in {1}

    @given(st.integers(min_value=-22, max_value=22), st.integers(min_value=-22, max_value=22))
    def test_equal_values_hash_equally(self, a, b):
        p = 11
        for x in (a, Fp(a, p)):
            for y in (b, Fp(b, p)):
                if x == y:
                    assert hash(x) == hash(y)


class TestFieldSpec:
    def test_json_roundtrip(self):
        for spec in (QQ, GF(7), GF(3)):
            assert FieldSpec.from_json(spec.to_json()) == spec

    def test_invalid_kinds(self):
        with pytest.raises(InvalidField):
            FieldSpec(kind="real")
        with pytest.raises(InvalidField):
            FieldSpec(kind="rational", p=5)

    def test_characteristic(self):
        assert QQ.characteristic == 0
        assert GF(5).characteristic == 5

    def test_from_int(self):
        assert QQ.from_int(-2) == rational(-2)
        assert GF(5).from_int(7) == Fp(2, 5)
