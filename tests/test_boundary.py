"""Entry checks: every public function that takes caller vectors checks them
where they enter.  A float, a wrong length or a foreign modulus is rejected,
and plain ints give exactly the result of the same vector already coerced."""

import functools

import pytest

from axial import GF, QQ, matsuo, spin_factor, split_spin_factor
from axial.axes import (
    check_axis,
    close_axes,
    eigen_decomposition,
    eigenspace,
    miyamoto,
    projection,
    projection_functional,
)
from axial.catalog import ThreeTranspositionGroup, double_axis
from axial.errors import AxialError, DimensionError, InvalidField
from axial.fields import Fp
from axial.fusion import law_J
from axial.linalg import Matrix, Subspace, solve_linear
from axial.structure import (
    baric_map_check,
    non_annihilating_graph,
    seress_lemma_check,
    spine,
    sum_decomposition,
)

FIELDS = {"QQ": QQ, "GF": GF(10007)}


@functools.cache
def context(name):
    """Matsuo S4 at eta = 1/4 (basis (0 1), (0 2), (0 3), (1 2), (1 3), (2 3);
    e0 and e5 commute), a spin and a split spin factor, over one field."""
    f = FIELDS[name]
    alg = matsuo(ThreeTranspositionGroup.symmetric(4), f.parse("1/4"), f)
    return {
        "field": f,
        "alg": alg,
        "law": alg.law,
        "ax": alg.axis_vectors(),
        "w": alg.coerce_vector((1, 1, 0, 2, 0, -1)),
        "m": Matrix(f, [[1, 2, 0], [0, 1, 1], [1, 0, 3]]),
        "spin": spin_factor([[2, 0], [0, 2]], f),
        "ssf": split_spin_factor([[1, 0], [0, 1]], f.parse("1/3"), f),
    }


AXIS = (1, 0, 0, 0, 0, 0)
VEC = (1, 2, 0, 3, 0, -1)

# (id, vector of ints the probed argument accepts, call with that argument,
#  the error a wrong length raises)
CASES = [
    ("mul:u", VEC, lambda c, v: c["alg"].mul(v, c["ax"][1]), DimensionError),
    ("mul:v", VEC, lambda c, v: c["alg"].mul(c["w"], v), DimensionError),
    ("adjoint", VEC, lambda c, v: c["alg"].adjoint(v), DimensionError),
    ("associator", VEC, lambda c, v: c["alg"].associator(c["w"], v, c["ax"][1]), DimensionError),
    ("subalgebra_gen", VEC, lambda c, v: c["alg"].subalgebra_gen([c["ax"][0], v]), DimensionError),
    ("ideal_gen", VEC, lambda c, v: c["alg"].ideal_gen([v]), DimensionError),
    ("check_axis", AXIS, lambda c, v: check_axis(c["alg"], v, c["law"]), DimensionError),
    ("eigenspace", VEC, lambda c, v: eigenspace(c["alg"], v, 1), DimensionError),
    ("eigen_decomposition", AXIS, lambda c, v: eigen_decomposition(c["alg"], v, c["law"]),
     DimensionError),
    ("projection:a", AXIS, lambda c, v: projection(c["alg"], v, c["w"]), DimensionError),
    ("projection:v", VEC, lambda c, v: projection(c["alg"], c["ax"][0], v), DimensionError),
    ("projection_functional", AXIS, lambda c, v: projection_functional(c["alg"], v),
     DimensionError),
    ("miyamoto", AXIS, lambda c, v: miyamoto(c["alg"], v), DimensionError),
    ("close_axes", AXIS, lambda c, v: close_axes(c["alg"], [v, c["ax"][1]]), DimensionError),
    ("seress_lemma_check", AXIS, lambda c, v: seress_lemma_check(c["alg"], v), DimensionError),
    ("spine", AXIS, lambda c, v: spine(c["alg"], [c["ax"][1], v]), DimensionError),
    ("non_annihilating_graph", AXIS,
     lambda c, v: non_annihilating_graph(c["alg"], [c["ax"][1], v]), DimensionError),
    ("sum_decomposition", AXIS, lambda c, v: sum_decomposition(c["alg"], [c["ax"][5], v]),
     DimensionError),
    ("baric_map_check", (1, 1, 1, 1, 1, 1), lambda c, v: baric_map_check(c["alg"], v),
     DimensionError),
    ("double_axis:a", AXIS, lambda c, v: double_axis(c["alg"], v, c["ax"][5]), DimensionError),
    ("double_axis:b", AXIS, lambda c, v: double_axis(c["alg"], c["ax"][5], v), DimensionError),
    ("Subspace.from_vectors", VEC,
     lambda c, v: Subspace.from_vectors(c["field"], 6, [c["ax"][0], v]), DimensionError),
    ("solve_linear", (1, 2, 3), lambda c, v: solve_linear(c["m"], v), DimensionError),
    ("Matrix", (1, 2, 3), lambda c, v: Matrix(c["field"], [(1, 0, 2), v]), DimensionError),
    ("SpinFactor.axis", (1, 0), lambda c, v: c["spin"].axis(v), AxialError),
    ("SplitSpinFactor.fam_a", (1, 0), lambda c, v: c["ssf"].fam_a(v), AxialError),
]
IDS = [case[0] for case in CASES]


def shown(result):
    """repr that shows a matrix's entries, so an int left unconverted shows."""
    return repr(result.data) if isinstance(result, Matrix) else repr(result)


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_float_entry_is_rejected(case, field):
    _, good, call, _ = case
    with pytest.raises(InvalidField):
        call(context(field), (0.5,) + good[1:])


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_wrong_length_is_rejected(case, field):
    _, good, call, error = case
    c = context(field)
    with pytest.raises(error):
        call(c, good + (0,))
    with pytest.raises(error):
        call(c, good[:-1])


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_foreign_modulus_is_rejected(case):
    _, good, call, _ = case
    with pytest.raises(InvalidField):
        call(context("GF"), (Fp(1, 7),) + good[1:])


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_ints_match_coerced_input(case, field):
    _, good, call, _ = case
    c = context(field)
    coerced = tuple(c["field"].coerce(x) for x in good)
    got, want = call(c, good), call(c, coerced)
    assert got == want
    assert shown(got) == shown(want)


@pytest.mark.parametrize(
    "call",
    [
        lambda alg, law, a: check_axis(alg, a, law),
        lambda alg, law, a: eigen_decomposition(alg, a, law),
        lambda alg, law, a: projection_functional(alg, a, law),
        lambda alg, law, a: seress_lemma_check(alg, a, law),
        lambda alg, law, a: miyamoto(alg, a, law),
        lambda alg, law, a: close_axes(alg, [a], law),
    ],
    ids=["check_axis", "eigen_decomposition", "projection_functional", "seress_lemma_check",
         "miyamoto", "close_axes"],
)
def test_law_over_another_field_is_rejected(call):
    alg = context("GF")["alg"]
    with pytest.raises(InvalidField):
        call(alg, law_J(QQ, QQ.parse("1/4")), AXIS)
