"""Fusion laws: tables, symmetry, Seress property, C2 gradings."""

import pytest

from axial import GF, QQ, law_A, law_J, law_M
from axial.errors import AxialError, DegenerateParameters
from axial.fusion import (
    FusionLaw,
    Grading,
    find_c2_gradings,
    is_seress,
    law_from_obj,
    law_to_obj,
    unique_adequate_grading,
)

ETA = QQ.parse("1/4")
ALPHA = QQ.parse("1/4")
BETA = QQ.parse("1/32")


def idx_set(law, a, b):
    return sorted(law.star(law.index_of(a), law.index_of(b)))


def test_associative_law_table():
    law = law_A(QQ)
    assert law.elements == (QQ.one(), QQ.zero())
    assert law.star(0, 0) == frozenset({0})
    assert law.star(1, 1) == frozenset({1})
    assert law.star(0, 1) == frozenset()


def test_jordan_law_table():
    law = law_J(QQ, ETA)
    one, zero = QQ.one(), QQ.zero()
    assert law.size == 3
    assert idx_set(law, one, zero) == []
    assert idx_set(law, one, ETA) == [law.index_of(ETA)]
    assert idx_set(law, zero, ETA) == [law.index_of(ETA)]
    assert idx_set(law, ETA, ETA) == [law.index_of(one), law.index_of(zero)]


def test_monster_law_table():
    law = law_M(QQ, ALPHA, BETA)
    one, zero = QQ.one(), QQ.zero()
    assert law.size == 4
    assert law.one_index == law.index_of(one)
    assert law.zero_index == law.index_of(zero)
    assert idx_set(law, ALPHA, ALPHA) == [law.index_of(one), law.index_of(zero)]
    assert idx_set(law, BETA, BETA) == [
        law.index_of(one),
        law.index_of(zero),
        law.index_of(ALPHA),
    ]
    # everything fuses with beta into the beta part
    for lam in (one, zero, ALPHA):
        assert idx_set(law, lam, BETA) == [law.index_of(BETA)]


def test_degenerate_parameters_rejected():
    with pytest.raises(DegenerateParameters):
        law_J(QQ, QQ.one())
    with pytest.raises(DegenerateParameters):
        law_J(QQ, QQ.zero())
    with pytest.raises(DegenerateParameters):
        law_M(QQ, ALPHA, ALPHA)
    with pytest.raises(DegenerateParameters):
        law_M(QQ, QQ.one(), BETA)
    # char 3 folds 2 onto 1/2
    with pytest.raises(DegenerateParameters):
        law_M(GF(3), GF(3).from_int(2), GF(3).parse("1/2"))


def test_symmetric_and_seress():
    for law in (law_A(QQ), law_J(QQ, ETA), law_M(QQ, ALPHA, BETA)):
        assert is_seress(law)
    # 1*0 = {} but 0*1 = {0}: not a law
    table = ((frozenset({0}), frozenset()), (frozenset({0}), frozenset({1})))
    with pytest.raises(AxialError, match="symmetric"):
        FusionLaw(QQ, (QQ.one(), QQ.zero()), table, "asymmetric")


class TestGradings:
    def test_jordan_unique_grading(self):
        law = law_J(QQ, ETA)
        g = unique_adequate_grading(law)
        assert g is not None and g.is_adequate
        assert g.minus_indices == (law.index_of(ETA),)
        assert g.is_valid_for(law)

    def test_monster_unique_grading(self):
        law = law_M(QQ, ALPHA, BETA)
        g = unique_adequate_grading(law)
        assert g.minus_indices == (law.index_of(BETA),)
        assert set(g.plus_indices) == {0, 1, 2}

    def test_associative_law_has_no_adequate_grading(self):
        law = law_A(QQ)
        gradings = find_c2_gradings(law)
        assert all(not g.is_adequate for g in gradings)
        assert unique_adequate_grading(law) is None

    def test_trivial_grading_always_valid(self):
        law = law_J(QQ, ETA)
        trivial = Grading(signs=(1,) * law.size)
        assert trivial.is_valid_for(law)
        assert not trivial.is_adequate

    def test_invalid_grading_detected(self):
        law = law_J(QQ, ETA)
        # flipping the 0-eigenvalue sign breaks sign multiplicativity
        bad = Grading(signs=(1, -1, 1))
        assert not bad.is_valid_for(law)

    def test_grading_size_mismatch(self):
        law = law_J(QQ, ETA)
        assert not Grading(signs=(1, -1)).is_valid_for(law)


def test_serialization_roundtrip():
    for law in (law_A(QQ), law_J(QQ, ETA), law_M(QQ, ALPHA, BETA)):
        obj = law_to_obj(law)
        back = law_from_obj(QQ, obj)
        assert back.elements == law.elements
        assert back.name == law.name
        for i in range(law.size):
            for j in range(law.size):
                assert back.star(i, j) == law.star(i, j)
    f = GF(11)
    law = law_J(f, f.parse("1/2"))
    back = law_from_obj(f, law_to_obj(law))
    assert back.elements == law.elements
