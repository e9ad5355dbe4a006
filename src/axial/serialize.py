"""JSON interchange: the algebra file format, gram-matrix files and the
report payloads emitted by the command line tools.

The algebra document is the authoritative way to move algebras between
invocations:

    { "field": {"kind": "rational"} | {"kind": "prime", "p": 5},
      "dim": 3, "basis": ["a0", "a1", "s1"],
      "products": [ {"i": 0, "j": 1, "v": {"0": "1/2", "1": "1/2", "2": "1"}} ],
      "axes": [ {"name": "a0", "v": {"0": "1"}} ],
      "law": {"kind": "M", "alpha": "2", "beta": "1/2"},
      "form": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]] }

A pair absent from "products" multiplies to zero; entries for one pair, in
either index order, must agree.  The optional "form" holds the rows of the
attached Frobenius form's n x n Gram matrix, in the same row format as a
gram-matrix file.  Vector keys are indices written as `str(k)` writes them.
All scalars are strings in exact notation; nothing here ever goes through
floating point.
"""

import json
import sys

from .algebra import Algebra
from .catalog import check_build_dim
from .errors import InvalidField, MalformedInput, brief
from .fields import FieldSpec, parse_int
from .fusion import law_from_obj, law_to_obj
from .linalg import Matrix, dense, sparse


def vec_to_obj(field: FieldSpec, v) -> dict:
    return {str(k): field.fmt(c) for k, c in enumerate(v) if c != field.zero()}


def vec_from_obj(field: FieldSpec, obj, dim: int) -> dict:
    """The sparse row of a vector object; a literal that parses to 0 is dropped."""
    if not isinstance(obj, dict):
        raise MalformedInput(f"vector must be an object of index: scalar, not {brief(obj)}")
    row = {}
    for k, lit in obj.items():
        k = parse_int(k, "index key")
        if not 0 <= k < dim:
            raise MalformedInput(f"coordinate index {brief(k)} out of range for dim {dim}")
        x = field.parse(lit)
        if x:
            row[k] = x
    return row


def algebra_to_obj(alg: Algebra) -> dict:
    fmt = alg.field.fmt
    prods = [{"i": i, "j": j, "v": {str(k): fmt(c) for k, c in pairs}}
             for (i, j), pairs in sorted(alg.products.items())]
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
    if alg.form is not None:
        obj["form"] = [[fmt(x) for x in row] for row in alg.form.data]
    return obj


def algebra_from_obj(obj) -> Algebra:
    if not isinstance(obj, dict):
        raise MalformedInput("algebra document must be a JSON object")
    try:
        field = FieldSpec.from_json(obj["field"])
        dim = obj["dim"]  # "dim", "i" and "j" take JSON integers only, never floats or booleans
        basis = [str(b) for b in obj["basis"]]
        if type(dim) is not int or len(basis) != dim:
            raise MalformedInput(f"dim {brief(dim)} is not a JSON integer equal to the basis size {len(basis)}")
        check_build_dim(dim, "the algebra document")
        products = {}
        for entry in obj.get("products", ()):
            i, j = entry["i"], entry["j"]
            if not (type(i) is type(j) is int and 0 <= i < dim and 0 <= j < dim):
                raise MalformedInput(f"product index ({brief(i)}, {brief(j)}) is not a JSON integer pair in 0..{dim - 1}")
            row = vec_from_obj(field, entry["v"], dim)
            if products.setdefault((i, j), row) != row:
                raise MalformedInput(f"conflicting products for pair ({i}, {j})")
        axes = [
            (str(e["name"]), dense(field, vec_from_obj(field, e["v"], dim), dim))
            for e in obj.get("axes", ())
        ]
        law = law_from_obj(field, obj["law"]) if "law" in obj else None
        form = None
        if "form" in obj:
            rows = _scalar_rows(obj["form"], field)
            if len(rows) != dim or any(len(row) != dim for row in rows):
                raise MalformedInput(f"form must be a {dim} x {dim} array of rows")
            form = Matrix._of(field, dim, map(sparse, rows))
    except MalformedInput:
        raise
    except (KeyError, TypeError, ValueError, OverflowError, InvalidField) as exc:
        raise MalformedInput(f"bad algebra document: {exc}") from exc
    return Algebra._of(field, basis, products, axes=axes, law=law, form=form)


def dump_algebra(alg: Algebra) -> str:
    return json.dumps(algebra_to_obj(alg), indent=2, sort_keys=False)


def _json_int(literal: str) -> int:
    """int(literal); past int()'s digit limit, a ValueError naming its digits and the limit."""
    try:
        return int(literal)
    except ValueError:
        digits, limit = len(literal.lstrip("-")), sys.get_int_max_str_digits()
        raise ValueError(f"integer of {digits} digits is past the limit of {limit} digits") from None


def load_json(text: str, what: str = "not valid JSON"):
    """json.loads, with every refusal as MalformedInput "<what>: <reason>": a
    JSONDecodeError, an integer past int()'s digit limit, or nesting deeper
    than the recursion limit."""
    try:
        return json.loads(text, parse_int=_json_int)
    except RecursionError as exc:
        raise MalformedInput(f"{what}: nested too deeply") from exc
    except ValueError as exc:
        raise MalformedInput(f"{what}: {exc}") from exc


def load_algebra(text: str) -> Algebra:
    return algebra_from_obj(load_json(text))


def load_gram(text: str, field: FieldSpec):
    """Parse a gram-matrix file: a JSON array of rows of exact scalar strings."""
    obj = load_json(text)
    if not isinstance(obj, list) or not obj:
        raise MalformedInput("gram file must be a nonempty JSON array of rows")
    return _scalar_rows(obj, field)


def _scalar_rows(obj, field: FieldSpec):
    """Rows of scalars, each an exact string or a JSON integer (never a float)."""
    if not isinstance(obj, list) or not all(isinstance(row, list) for row in obj):
        raise MalformedInput("matrix rows must be arrays")
    for x in (x for row in obj for x in row):
        if isinstance(x, bool) or not isinstance(x, (str, int)):
            raise MalformedInput(f"scalar must be an exact string or an integer, not {brief(x)}")
    return [[field.parse(x) if isinstance(x, str) else field.from_int(x) for x in row]
            for row in obj]

