"""JSON interchange: the algebra file format, gram-matrix files and the
report payloads emitted by the command line tools.

The algebra document is the authoritative way to move algebras between
invocations:

    { "field": {"kind": "rational"} | {"kind": "prime", "p": 5},
      "dim": 3, "basis": ["a0", "a1", "s1"],
      "products": [ {"i": 0, "j": 1, "v": {"0": "1/2", "1": "1/2", "2": "1"}} ],
      "axes": [ {"name": "a0", "v": {"0": "1"}} ],
      "law": {"kind": "M", "alpha": "2", "beta": "1/2"} }

A pair absent from "products" multiplies to zero.  All scalars are strings in
exact notation; nothing here ever goes through floating point.
"""

import json

from .algebra import Algebra
from .errors import InvalidField, MalformedInput
from .fields import FieldSpec
from .fusion import law_from_obj, law_to_obj


def vec_to_obj(field: FieldSpec, v) -> dict:
    return {str(k): field.fmt(c) for k, c in enumerate(v) if c != field.zero()}


def vec_from_obj(field: FieldSpec, obj, dim: int):
    if not isinstance(obj, dict):
        raise MalformedInput(f"vector must be an object of index: scalar, not {obj!r}")
    vec = [field.zero()] * dim
    for k, lit in obj.items():
        k = int(k)
        if not 0 <= k < dim:
            raise MalformedInput(f"coordinate index {k} out of range for dim {dim}")
        vec[k] = field.parse(lit)
    return tuple(vec)


def algebra_to_obj(alg: Algebra) -> dict:
    prods = []
    for (i, j), v in sorted(alg.products.items()):
        prods.append({"i": i, "j": j, "v": vec_to_obj(alg.field, v)})
    obj = {
        "field": alg.field.to_json(),
        "dim": alg.dim,
        "basis": list(alg.basis),
        "products": prods,
        "axes": [
            {"name": name, "v": vec_to_obj(alg.field, v)} for name, v in alg.axes
        ],
    }
    if alg.law is not None:
        obj["law"] = law_to_obj(alg.law)
    return obj


def algebra_from_obj(obj) -> Algebra:
    if not isinstance(obj, dict):
        raise MalformedInput("algebra document must be a JSON object")
    try:
        field = FieldSpec.from_json(obj["field"])
        dim = int(obj["dim"])
        basis = [str(b) for b in obj["basis"]]
        if len(basis) != dim:
            raise MalformedInput(f"dim {dim} does not match basis of size {len(basis)}")
        products = {}
        for entry in obj.get("products", ()):
            i, j = int(entry["i"]), int(entry["j"])
            if not (0 <= i < dim and 0 <= j < dim):
                raise MalformedInput(f"product index ({i}, {j}) out of range for dim {dim}")
            products[(i, j)] = vec_from_obj(field, entry["v"], dim)
        axes = [
            (str(e["name"]), vec_from_obj(field, e["v"], dim))
            for e in obj.get("axes", ())
        ]
        law = law_from_obj(field, obj["law"]) if "law" in obj else None
    except MalformedInput:
        raise
    except (KeyError, TypeError, ValueError, InvalidField) as exc:
        raise MalformedInput(f"bad algebra document: {exc}") from exc
    return Algebra(field, basis, products, axes=axes, law=law)


def dump_algebra(alg: Algebra) -> str:
    return json.dumps(algebra_to_obj(alg), indent=2, sort_keys=False)


def load_algebra(text: str) -> Algebra:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"not valid JSON: {exc}") from exc
    return algebra_from_obj(obj)


def load_gram(text: str, field: FieldSpec):
    """Parse a gram-matrix file: a JSON array of rows of exact scalar strings."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, list) or not obj:
        raise MalformedInput("gram file must be a nonempty JSON array of rows")
    rows = []
    for row in obj:
        if not isinstance(row, list):
            raise MalformedInput("gram rows must be arrays")
        rows.append([field.parse(x) if isinstance(x, str) else field.from_int(int(x))
                     for x in row])
    return rows

