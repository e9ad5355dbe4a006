"""Scalar layer: rationals, prime fields, parsing and formatting."""

import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st
from sympy import isprime

from axial import GF, QQ, rational
from axial.errors import InvalidField, Unsupported
from axial.fields import _PSI13, FieldSpec, Fp, _is_prime

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

    def test_replace_validates_as_the_constructor_does(self):
        with pytest.raises(InvalidField):
            GF(7)._replace(p=8)
        with pytest.raises(InvalidField):
            QQ._replace(p=5)
        assert GF(7)._replace(p=11) == GF(11) and type(GF(7)._replace(p=11)) is FieldSpec

    def test_characteristic(self):
        assert QQ.characteristic == 0
        assert GF(5).characteristic == 5

    def test_str_names_the_field_and_repr_stays(self):
        assert (str(QQ), str(GF(7))) == ("QQ", "GF(7)")
        assert repr(GF(7)) == "FieldSpec(kind='prime', p=7)"

    def test_from_int(self):
        assert QQ.from_int(-2) == rational(-2)
        assert GF(5).from_int(7) == Fp(2, 5)


# Strong pseudoprimes to the first 4, 5, 6, 7 and 9 prime bases: each passes
# every Miller-Rabin round but the last ones of _is_prime.
STRONG_PSEUDOPRIMES = (3215031751, 2152302898747, 3474749660383, 341550071728321,
                       3825123056546413051)
# Chernick's Carmichael numbers (6k + 1)(12k + 1)(18k + 1), all three factors
# prime: every base prime to them is a Fermat liar.
CARMICHAEL = tuple((6 * k + 1) * (12 * k + 1) * (18 * k + 1) for k in range(1, 400)
                   if all(isprime(m * k + 1) for m in (6, 12, 18)))


class TestIsPrime:
    @pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES + CARMICHAEL)
    def test_pseudoprimes_are_composite(self, n):
        assert not isprime(n)
        assert not _is_prime(n)

    def test_carmichael_numbers_reach_miller_rabin(self):
        # past the trial divisors up to 41, so the Miller-Rabin rounds decide
        assert len(CARMICHAEL) == 16
        small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
        assert sum(all(n % q for q in small) for n in CARMICHAEL) == 14

    @given(st.sampled_from(STRONG_PSEUDOPRIMES + CARMICHAEL), st.integers(-200, 200))
    def test_matches_sympy_near_pseudoprimes(self, n, offset):
        assert _is_prime(n + offset) == isprime(n + offset)

    @given(st.integers(-10, _PSI13 - 1))  # past the bound no fixed set of bases decides
    def test_matches_sympy(self, n):
        assert _is_prime(n) == isprime(n)

    def test_least_pseudoprime_to_twelve_bases_is_refused(self):
        # psi_12 passes the twelve bases 2..37, not the thirteenth, 41
        n = 318665857834031151167461
        assert n == 399165290221 * 798330580441
        assert not _is_prime(n)
        with pytest.raises(InvalidField, match="not prime"):
            GF(n)

    def test_moduli_from_the_bound_on_are_unsupported(self):
        # psi_13 passes all thirteen bases, and past it no fixed set of bases
        # is proven, so the field refuses any modulus from there on
        assert _PSI13 == 3317044064679887385961981 == 1287836182261 * 2575672364521
        assert _is_prime(_PSI13) and not isprime(_PSI13)
        for p in (_PSI13, 2**127 - 1):
            with pytest.raises(Unsupported, match=str(_PSI13)):
                GF(p)
        assert GF(_PSI13 - 168).p == _PSI13 - 168  # the greatest prime below the bound
        with pytest.raises(InvalidField, match="not prime"):
            GF(_PSI13 - 2)
