"""Fusion laws: tables, symmetry, Seress property, C2 gradings."""

import pytest

from axial import GF, QQ, dump_algebra, law_A, law_J, law_M, norton_sakuma
from axial.cli import _parse_law
from axial.errors import AxialError, DegenerateParameters
from axial.fusion import (
    FusionLaw,
    Grading,
    _build,
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


def test_replace_validates_as_the_constructor_does():
    law = law_J(QQ, ETA)
    with pytest.raises(DegenerateParameters):
        law._replace(elements=(QQ.one(), QQ.zero(), QQ.one()))
    assert law._replace(name="J") == FusionLaw(QQ, law.elements, law.table, "J")


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


# The cell tables of A, J(eta) and M(alpha, beta) written out by hand, each
# with its own check of the parameters: the oracle for the one catalog table.
def oracle_A(field):
    return _build(field, (field.one(), field.zero()), {(0, 0): {0}, (1, 1): {1}}, "A")


def oracle_J(field, eta):
    one, zero = field.one(), field.zero()
    if eta in (zero, one):
        raise DegenerateParameters("eta")
    cells = {(0, 0): {0}, (0, 2): {2}, (1, 1): {1}, (1, 2): {2}, (2, 2): {0, 1}}
    return _build(field, (one, zero, eta), cells, f"J({field.fmt(eta)})")


def oracle_M(field, alpha, beta):
    one, zero = field.one(), field.zero()
    if len({one, zero, alpha, beta}) != 4:
        raise DegenerateParameters("alpha, beta")
    cells = {
        (0, 0): {0},
        (0, 2): {2},
        (0, 3): {3},
        (1, 1): {1},
        (1, 2): {2},
        (1, 3): {3},
        (2, 2): {0, 1},
        (2, 3): {3},
        (3, 3): {0, 1, 2},
    }
    name = f"M({field.fmt(alpha)},{field.fmt(beta)})"
    return _build(field, (one, zero, alpha, beta), cells, name)


FIELDS = [QQ, GF(7), GF(10007)]
# Over GF(7), 1/32 = 1/4, and 8 = 1: the oracle raises there, and so must the catalog.
J_PARAMS = ["1/4", "1/2", "1/3", "-1", "3", "2", "8"]
M_PARAMS = [("1/4", "1/32"), ("2", "1/2"), ("1/3", "2/3"), ("1/2", "1/4"), ("-1", "3"), ("3", "5")]


def _same_as_oracle(oracle, build, field, *texts):
    params = [field.parse(t) for t in texts]
    try:
        want = oracle(field, *params)
    except DegenerateParameters:
        with pytest.raises(DegenerateParameters):
            build(field, *params)
        return None
    got = build(field, *params)
    assert got == want and repr(got) == repr(want)
    assert law_from_obj(field, law_to_obj(got)) == want
    return got


@pytest.mark.parametrize("field", FIELDS, ids=repr)  # repr: str would rename every case to QQ, GF(7), ...
class TestOneTable:
    def test_associative(self, field):
        assert _same_as_oracle(oracle_A, law_A, field) is not None

    def test_jordan(self, field):
        built = [_same_as_oracle(oracle_J, law_J, field, t) for t in J_PARAMS]
        assert sum(law is not None for law in built) >= 5

    def test_monster(self, field):
        built = [_same_as_oracle(oracle_M, law_M, field, a, b) for a, b in M_PARAMS]
        assert sum(law is not None for law in built) >= 5

    def test_law_option_forms(self, field):
        q = field.parse
        assert _parse_law(field, "A") == oracle_A(field)
        assert _parse_law(field, "A:") == oracle_A(field)
        assert _parse_law(field, "j:1/3") == oracle_J(field, q("1/3"))
        assert _parse_law(field, "M:1/3,2/3") == oracle_M(field, q("1/3"), q("2/3"))

    @pytest.mark.parametrize("params", [("0",), ("1",), ("1/2", "1/2"), ("1", "1/2"), ("1/3", "0")])
    def test_degenerate(self, field, params):
        with pytest.raises(DegenerateParameters):
            (law_J if len(params) == 1 else law_M)(field, *params)


def test_law_option_forms_over_qq():
    assert _parse_law(QQ, "j:1/4") == oracle_J(QQ, ETA)
    assert _parse_law(QQ, "M:1/4,1/32") == oracle_M(QQ, ALPHA, BETA)
    for text in ("A:1", "J", "J:1/4,1/2", "M:1/4", "Q:7", "J:1"):
        with pytest.raises(AxialError, match="bad law"):
            _parse_law(QQ, text)


# Laws that the catalog does not build, each under a catalog name: other cells,
# three elements named A, the cells of J(1/4) named J(1/3), and 0 before 1.
OTHER_CELLS = {(0, 0): {0}, (1, 1): {1}, (2, 2): {0, 1}, (3, 3): {0, 1, 2}}
NOT_IN_CATALOG = {
    "other cells": _build(QQ, (QQ.one(), QQ.zero(), ALPHA, BETA), OTHER_CELLS, "M(1/4,1/32)"),
    "three named A": _build(QQ, (QQ.one(), QQ.zero(), ETA), {(0, 0): {0}, (1, 1): {1}}, "A"),
    "renamed": law_J(QQ, ETA)._replace(name="J(1/3)"),
    "0 first": _build(
        QQ,
        (QQ.zero(), QQ.one(), ETA),
        {(0, 0): {1}, (0, 2): {2}, (1, 1): {0}, (1, 2): {2}, (2, 2): {0, 1}},
        "J(1/4)",
    ),
}


@pytest.mark.parametrize("name", sorted(NOT_IN_CATALOG))
def test_no_json_form(name):
    with pytest.raises(AxialError, match="has no JSON form"):
        law_to_obj(NOT_IN_CATALOG[name])


def test_algebra_under_a_custom_law_is_not_dumped():
    alg = norton_sakuma("3A")
    assert law_to_obj(alg.law) == {"kind": "M", "alpha": "1/4", "beta": "1/32"}
    with pytest.raises(AxialError, match="has no JSON form"):
        dump_algebra(alg.with_law(NOT_IN_CATALOG["other cells"]))


# A law object holds its kind and exactly the parameter keys of that kind.
BAD_LAW_OBJECTS = [
    ({"kind": "J"}, "law J needs key 'eta'"),
    ({"kind": "M", "alpha": "1/4"}, "law M needs key 'beta'"),
    ({"kind": "A", "eta": "1/2"}, "law A takes no key 'eta'"),
    ({"kind": "J", "eta": "1/4", "alpha": "1/4"}, "law J takes no key 'alpha'"),
    ({"kind": "M", "alpha": "1/4", "beta": "1/32", "extra": 1}, "law M takes no key 'extra'"),
]


@pytest.mark.parametrize("obj, message", BAD_LAW_OBJECTS)
def test_law_object_keys_are_exact(obj, message):
    with pytest.raises(AxialError) as err:
        law_from_obj(QQ, obj)
    assert str(err.value) == message
