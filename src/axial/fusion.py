"""Fusion laws: eigenvalue sets with a star table, and their C2 gradings.

A law is a tuple of distinct scalars (1 always present, listed first) plus a
symmetric table mapping each index pair to the set of allowed product
eigenvalue indices.  The three catalog laws are one table, that of M(a,b),
restricted to the elements (1, 0), (1, 0, eta) and (1, 0, a, b):

    A          1*1={1}  1*0={}  0*0={0}
    J(eta)     adds eta: 1*eta={eta}, 0*eta={eta}, eta*eta={1,0}
    M(a,b)     adds b:   a*a={1,0}, a*b={b}, b*b={1,0,a}
"""

from dataclasses import dataclass
from itertools import product as iproduct
from typing import Optional, Tuple

from .errors import AxialError, DegenerateParameters, InvalidGrading, brief
from .fields import FieldSpec

Table = Tuple[Tuple[frozenset, ...], ...]


@dataclass(frozen=True)
class FusionLaw:
    field: FieldSpec
    elements: tuple
    table: Table
    name: str

    def __post_init__(self):
        if len(set(self.elements)) != len(self.elements):
            raise DegenerateParameters(f"law elements must be distinct: {self.name}")
        if self.field.one() not in self.elements:
            raise AxialError("a fusion law must contain the eigenvalue 1")
        n = len(self.elements)
        if any(self.table[i][j] != self.table[j][i] for i in range(n) for j in range(i)):
            raise AxialError(f"a fusion law table must be symmetric: {self.name}")

    @property
    def size(self) -> int:
        return len(self.elements)

    def index_of(self, value) -> Optional[int]:
        value = self.field.coerce(value)
        for i, x in enumerate(self.elements):
            if x == value:
                return i
        return None

    @property
    def one_index(self) -> int:
        return self.index_of(self.field.one())

    @property
    def zero_index(self) -> Optional[int]:
        return self.index_of(self.field.zero())

    def star(self, i: int, j: int) -> frozenset:
        return self.table[i][j]


def _build(field, elements, cells, name) -> FusionLaw:
    n = len(elements)
    table = [[frozenset() for _ in range(n)] for _ in range(n)]
    for (i, j), targets in cells.items():
        table[i][j] = frozenset(targets)
        table[j][i] = frozenset(targets)
    return FusionLaw(field, tuple(elements), tuple(tuple(row) for row in table), name)


# The non-empty cells of M(alpha, beta) on the elements (1, 0, alpha, beta).
_M_CELLS = {
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

# Catalog law kind -> its parameters, after the elements 1 and 0.
LAW_KINDS = {"A": (), "J": ("eta",), "M": ("alpha", "beta")}


def _law(field: FieldSpec, kind: str, params) -> FusionLaw:
    """The catalog law of kind on (1, 0, *params): the M cells on those elements."""
    params = tuple(field.parse(x) if isinstance(x, str) else field.coerce(x) for x in params)
    elements = (field.one(), field.zero()) + params
    cells = {ij: c for ij, c in _M_CELLS.items() if max(ij) < len(elements)}
    name = f"{kind}({','.join(map(field.fmt, params))})" if params else kind
    return _build(field, elements, cells, name)


def law_A(field: FieldSpec) -> FusionLaw:
    return _law(field, "A", ())


def law_J(field: FieldSpec, eta) -> FusionLaw:
    return _law(field, "J", (eta,))


def law_M(field: FieldSpec, alpha, beta) -> FusionLaw:
    return _law(field, "M", (alpha, beta))


def is_seress(law: FusionLaw) -> bool:
    z = law.zero_index
    if z is None:
        return False
    return all(law.table[z][k] <= {k} for k in range(law.size))


@dataclass(frozen=True)
class Grading:
    """C2 sign map on law elements: +1 to the plus part, -1 to the minus part."""

    signs: Tuple[int, ...]

    @property
    def is_adequate(self) -> bool:
        return -1 in self.signs

    @property
    def minus_indices(self) -> Tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.signs) if s < 0)

    @property
    def plus_indices(self) -> Tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.signs) if s > 0)

    def is_valid_for(self, law: FusionLaw) -> bool:
        if len(self.signs) != law.size:
            return False
        s = self.signs
        n = law.size
        return all(
            s[k] == s[i] * s[j]
            for i in range(n)
            for j in range(n)
            for k in law.table[i][j]
        )


def find_c2_gradings(law: FusionLaw) -> Tuple[Grading, ...]:
    """All C2 gradings, trivial one first; sign-swapped twins are deduplicated
    keeping the representative with 1 in the plus part."""
    valid = []
    for signs in iproduct((1, -1), repeat=law.size):
        g = Grading(signs)
        if g.is_valid_for(law):
            valid.append(signs)
    valid_set = set(valid)
    one_idx = law.one_index
    kept = []
    for signs in valid:
        negated = tuple(-s for s in signs)
        if negated in valid_set and signs[one_idx] < 0:
            continue
        kept.append(Grading(signs))
    kept.sort(key=lambda g: tuple(0 if s > 0 else 1 for s in g.signs))
    return tuple(kept)


def unique_adequate_grading(law: FusionLaw) -> Optional[Grading]:
    """The single adequate C2 grading when there is exactly one; None when there
    is none; InvalidGrading when several exist and the choice is ambiguous."""
    adequate = [g for g in find_c2_gradings(law) if g.is_adequate]
    if not adequate:
        return None
    if len(adequate) > 1:
        raise InvalidGrading(f"{law.name} has {len(adequate)} adequate C2 gradings")
    return adequate[0]


def law_to_obj(law: FusionLaw) -> dict:
    """The JSON form of a catalog law; a law that differs from the catalog law
    of its size in a cell, an element or the name has none."""
    field, params = law.field, law.elements[2:]
    if law.elements[:2] == (field.one(), field.zero()):
        for kind, keys in LAW_KINDS.items():
            if len(keys) == len(params) and _law(field, kind, params) == law:
                return {"kind": kind, **{k: field.fmt(x) for k, x in zip(keys, params)}}
    raise AxialError(f"law {law.name} has no JSON form")


def law_from_obj(field: FieldSpec, obj) -> FusionLaw:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise AxialError(f"bad law object {brief(obj)}")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in LAW_KINDS:
        raise AxialError(f"unknown law kind {brief(kind)}")
    keys = LAW_KINDS[kind]
    for k in (*keys, *obj):
        if k not in obj or k not in ("kind", *keys):
            raise AxialError(f"law {kind} {'needs' if k not in obj else 'takes no'} key {brief(k)}")
    return _law(field, kind, [field.parse(obj[k]) for k in keys])
