"""Sparse arithmetic for the Highwater algebra and its finite periodic quotients.

The algebra lives on an infinite basis: one idempotent a_i per integer i and
one distance element s_j per integer j >= 1 (s_0 is identically zero).  An
element is one sparse row over the keys ("a", i) and ("s", j), as vectors are
everywhere in the package; it is finitely supported, so products stay so and
everything is exact.  Reflections of the index line, the baric weight, the
ideal-type tuple predicate and a window-bounded ideal membership oracle round
out the surface; quotients by the translation ideals become ordinary Algebra
instances with their axes and fusion law attached.
"""

from dataclasses import dataclass
from functools import cache
from typing import List, Optional, Sequence, Tuple

from .algebra import Algebra
from .catalog import check_build_dim
from .errors import DegenerateParameters, DimensionError, InvalidField, MalformedInput, Unsupported, brief
from .fields import QQ, FieldSpec, parse_int, rational
from .fusion import law_M
from .linalg import EchelonAccumulator, Matrix, combine, dense, residue, row_key, scaled

MAX_WINDOW = 48  # rows of 4w + 1 entries; about 3 s at w = 48 (Fraction backend, 2-CPU VM)


class HighwaterElement:
    """Finitely supported element: one sparse row over the basis keys ("a", i)
    and ("s", j), j >= 1.  Every index is an int, never a bool, float or str."""

    __slots__ = ("field", "row")

    def __init__(self, field: FieldSpec, a=None, s=None):
        a, s = a or {}, s or {}
        for i in (*a, *s):
            if type(i) is not int:
                raise DimensionError(f"highwater index {brief(i)} is not an int")
        row = {}
        for kind, part in (("a", a), ("s", s)):
            for i, c in part.items():
                if kind == "s" and i < 0:
                    raise InvalidField(f"negative distance index s_{brief(i)}")
                c = field.coerce(c)
                if c != field.zero() and (kind, i) != ("s", 0):  # s_0 = 0 by convention
                    row[kind, i] = c
        self.field, self.row = field, row

    @classmethod
    def _of(cls, field: FieldSpec, row: dict) -> "HighwaterElement":
        """The element whose row the package built from scalars of `field`,
        with no zero and no s_0: no check."""
        x = cls.__new__(cls)
        x.field, x.row = field, row
        return x

    def __eq__(self, other):
        if not isinstance(other, HighwaterElement):
            return NotImplemented
        return self.field == other.field and self.row == other.row

    def __hash__(self):
        return hash(row_key(self.row))

    def __add__(self, other: "HighwaterElement") -> "HighwaterElement":
        if self.field != other.field:
            raise InvalidField("mixed fields in sum")
        return HighwaterElement._of(self.field, combine([(1, self.row.items()), (1, other.row.items())]))

    def __sub__(self, other: "HighwaterElement") -> "HighwaterElement":
        return self + other.scale(-1)

    def scale(self, c) -> "HighwaterElement":
        return HighwaterElement._of(self.field, scaled(self.field.coerce(c), self.row))

    def __repr__(self):
        fmt = self.field.fmt
        return " + ".join(f"{fmt(c)}*{kind}{i}" for (kind, i), c in sorted(self.row.items())) or "0"

    def to_json(self) -> dict:
        out = {"a": {}, "s": {}}
        for (kind, i), c in sorted(self.row.items()):
            out[kind][str(i)] = self.field.fmt(c)
        return out

    @classmethod
    def from_json(cls, field: FieldSpec, obj) -> "HighwaterElement":
        if not isinstance(obj, dict):
            raise MalformedInput('element must be an object with the keys "a" and "s"')
        for key, part in obj.items():
            if key not in ("a", "s"):
                raise MalformedInput(f'unexpected key {brief(key)} in element (want "a" and "s")')
            if not isinstance(part, dict):
                raise MalformedInput(f"element part {brief(key)} must be an object of index: scalar")
        a = {parse_int(k, "index key"): field.parse(v) for k, v in obj.get("a", {}).items()}
        s = {parse_int(k, "index key"): field.parse(v) for k, v in obj.get("s", {}).items()}
        return cls(field, a, s)


def hw_a(i: int, field: FieldSpec = QQ) -> HighwaterElement:
    return HighwaterElement(field, {i: 1})


def hw_s(j: int, field: FieldSpec = QQ) -> HighwaterElement:
    return HighwaterElement(field, s={j: 1})


def _require_odd_char(field: FieldSpec, what: str):
    if field.characteristic == 2:
        raise Unsupported(f"{what} needs 2 invertible; characteristic 2 is refused")


@cache
def _product_rule(field: FieldSpec):
    """The product of two basis keys as (key, coefficient) terms, s_0 dropped:

    a_i a_j = (a_i + a_j)/2 + s_|i-j|
    a_i s_j = -(3/4) a_i + (3/8)(a_{i-j} + a_{i+j}) + (3/2) s_j
    s_j s_k = (3/4)(s_j + s_k) - (3/8)(s_|j-k| + s_{j+k})
    """
    one = field.one()
    half, q34, q38, q32 = (field.parse(c) for c in ("1/2", "3/4", "3/8", "3/2"))
    m34, m38 = -q34, -q38

    def rule(p, q):
        if p[0] > q[0]:
            p, q = q, p  # an a-key before an s-key
        (kind_p, i), (kind_q, j) = p, q
        if kind_p != kind_q:
            return [(p, m34), (("a", i - j), q38), (("a", i + j), q38), (q, q32)]
        if kind_p == "a":
            terms = [(p, half), (q, half), (("s", abs(i - j)), one)]
        else:
            terms = [(p, q34), (q, q34), (("s", abs(i - j)), m38), (("s", i + j), m38)]
        if i == j:
            del terms[2]  # s_0
        return terms

    return rule


def hw_mul(x: HighwaterElement, y: HighwaterElement) -> HighwaterElement:
    """Bilinear product: the basis rule (see `_product_rule`) on every pair of
    terms, summed by `combine`; a coefficient times 1 is not multiplied."""
    field = x.field
    if field != y.field:
        raise InvalidField("mixed fields in product")
    _require_odd_char(field, "the product")
    rule = _product_rule(field)
    terms = [(c if d == 1 else c * d, rule(p, q)) for p, c in x.row.items() for q, d in y.row.items()]
    return HighwaterElement._of(field, combine(terms))


def hw_reflect(x: HighwaterElement, center) -> HighwaterElement:
    """Index reflection a_j -> a_{2c-j}, s_j fixed; c must be a half-integer."""
    c2 = rational(2) * rational(center) if not isinstance(center, int) else 2 * center
    if rational(c2).denominator != 1:
        raise DegenerateParameters(f"reflection center {center} is not a half-integer")
    c2 = int(c2)
    return HighwaterElement._of(
        x.field, {(kind, c2 - i if kind == "a" else i): c for (kind, i), c in x.row.items()})


def hw_baric(x: HighwaterElement):
    """Weight of x under the homomorphism sending every a_i to 1, every s_j to 0."""
    return sum((c for (kind, _), c in x.row.items() if kind == "a"), x.field.zero())


@dataclass(frozen=True)
class IdealTypeInfo:
    """Verdict on a coefficient tuple (alpha_0, ..., alpha_D).

    epsilons lists the signs e for which alpha_i = e * alpha_{D-i} holds
    throughout.  divergent_readings marks tuples accepted here that a strict
    palindrome-only reading of the symmetry condition would reject.
    """

    ok: bool
    epsilons: Tuple[int, ...]
    divergent_readings: bool


def ideal_type_info(t: Sequence, field: FieldSpec = QQ) -> IdealTypeInfo:
    vals = [field.coerce(field.parse(v) if isinstance(v, str) else v) for v in t]
    if not vals:
        return IdealTypeInfo(False, (), False)
    D = len(vals) - 1
    zero = field.zero()
    ends_ok = vals[0] != zero and vals[D] != zero
    total = zero
    for v in vals:
        total = total + v
    epsilons = tuple(
        e for e in (1, -1)
        if all(vals[i] == vals[D - i] * field.from_int(e) for i in range(D + 1))
    )
    ok = ends_ok and total == zero and bool(epsilons)
    return IdealTypeInfo(ok, epsilons, ok and 1 not in epsilons)


def is_ideal_type(t: Sequence, field: FieldSpec = QQ) -> bool:
    return ideal_type_info(t, field).ok


def hw_periodic_quotient(D: int, field: FieldSpec = QQ) -> Algebra:
    """Finite quotient identifying a_i with a_{i+D}, on D axes and floor(D/2)
    distance elements.

    The product of basis elements p, q is the product of the lifts a_i and
    s_j, 0 <= i < D and 1 <= j <= D/2, reduced once: a_i -> a_{i mod D}, and
    s_j -> s_r with r the lesser of j mod D and D - j mod D (s_0 and s_D go
    to 0).  Other lifts give the same image: under j -> j + D or j -> D - j
    the terms a_{i-j}, a_{i+j} of the rule trade places, as do s_|j-k|,
    s_{j+k}, each pair with equal coefficients, and the reduction agrees
    with every term.
    """
    if D < 2:
        raise DegenerateParameters(f"period {brief(D)} is below 2")
    _require_odd_char(field, "the quotient")
    ns = D // 2
    n = D + ns
    check_build_dim(n, f"the period-{brief(D)} quotient")
    keys = [("a", i) for i in range(D)] + [("s", j) for j in range(1, ns + 1)]
    basis = [f"{kind}{i}" for kind, i in keys]
    one = field.one()
    rule = _product_rule(field)

    def image(x, y) -> dict:
        """The sparse row in the quotient of the product of basis keys x, y."""
        terms = []
        for (kind, i), c in rule(x, y):
            if kind == "a":
                terms.append((i % D, c))
            elif r := min(i % D, D - i % D):
                terms.append((D + r - 1, c))
        return combine([(one, terms)])

    products = {(p, q): image(keys[p], keys[q]) for p in range(n) for q in range(p, n)}

    axes = [(f"a{i}", dense(field, {i: one}, n)) for i in range(D)]
    # Frobenius form induced by the baric weight: (x, y) = w(x) w(y)
    weight = dict.fromkeys(range(D), one)
    gram = Matrix._of(field, n, [weight] * D + [{}] * ns)
    try:
        law = law_M(field, field.from_int(2), field.parse("1/2"))
    except DegenerateParameters:
        law = None  # char 3 folds 2 onto 1/2; quotient still exists, law does not
    return Algebra(field, basis, products, axes=axes, law=law, form=gram)


def hw_quotient_weights(alg: Algebra) -> Tuple:
    """Baric weights (1 on every a-basis element, 0 on every s) for a quotient."""
    one = alg.field.one()
    zero = alg.field.zero()
    return tuple(one if name.startswith("a") else zero for name in alg.basis)


def _window_coords(x: HighwaterElement, window: int):
    """x as a sparse row on a_{-w}..a_w then s_1..s_{2w}, or None when its
    support leaves the window."""
    row = {}
    for (kind, i), c in x.row.items():
        bound = window if kind == "a" else 2 * window  # also the column offset
        if abs(i) > bound:
            return None
        row[i + bound] = c
    return row


def hw_ideal_window_contains(t: Sequence, v: HighwaterElement, window: Optional[int] = None) -> str:
    """Window-bounded membership in the ideal generated by sum(alpha_i a_i),
    over the field of v.

    Grows a subspace of the ideal by translating the generator, multiplying
    by axes a_k with |k| <= window and reflecting, always discarding anything
    supported outside the window, until v lies in the span or no new element
    arrives.  Each element that enlarges the span is expanded once, so the
    search makes at most 4w + 1 expansions.  Returns "yes" when v lies in
    the grown span; otherwise "unknown" (the span is a lower bound on the
    ideal, so a miss proves nothing).  A window past MAX_WINDOW raises
    Unsupported before the search.
    """
    field = v.field
    vals = [field.coerce(field.parse(c) if isinstance(c, str) else c) for c in t]
    if not ideal_type_info(vals, field).ok:
        raise DegenerateParameters("coefficient tuple is not of ideal type")
    D = len(vals) - 1
    w = window if window is not None else 3 * D
    for kind, i in v.row:
        w = max(w, abs(i) if kind == "a" else (i + 1) // 2)
    if w > MAX_WINDOW:
        raise Unsupported(f"window {brief(w)} exceeds cap {MAX_WINDOW}")
    m = 2 * w + 1 + 2 * w  # a_{-w}..a_w then s_1..s_{2w}
    target = _window_coords(v, w)
    acc = EchelonAccumulator(field, m)
    frontier: List[HighwaterElement] = []

    def offer(x: HighwaterElement):
        row = _window_coords(x, w)
        if row is not None and acc.add_row(row) is not None:
            frontier.append(x)

    def reached() -> bool:
        return target is not None and not residue(target, acc.rows)

    for shift in range(-w, w + 1):
        offer(HighwaterElement._of(field, {("a", i + shift): c for i, c in enumerate(vals) if c}))
    points = [hw_a(k, field) for k in range(-w, w + 1)]
    while frontier and not reached():
        batch, frontier = frontier, []
        for x in batch:
            for a_k in points:
                offer(hw_mul(x, a_k))
            for c2 in range(-2 * w, 2 * w + 1):
                offer(hw_reflect(x, rational(c2, 2)))
    return "yes" if reached() else "unknown"
