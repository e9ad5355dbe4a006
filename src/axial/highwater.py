"""Sparse arithmetic for the Highwater algebra and its finite periodic quotients.

The algebra lives on an infinite basis: one idempotent a_i per integer i and
one distance element s_j per integer j >= 1 (s_0 is identically zero).  All
elements here are finitely supported, so products stay finitely supported and
everything is exact.  Reflections of the index line, the baric weight, the
ideal-type tuple predicate and a window-bounded ideal membership oracle round
out the surface; quotients by the translation ideals become ordinary Algebra
instances with their axes and fusion law attached.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import Algebra
from .catalog import check_build_dim
from .errors import ConsistencyFailure, DegenerateParameters, DimensionError, InvalidField, Unsupported
from .fields import QQ, FieldSpec, parse_int, rational
from .fusion import law_M
from .linalg import EchelonAccumulator, Matrix, combine, dense, residue

MAX_WINDOW = 48  # rows of 4w + 1 entries; about 5 s at w = 48 (Fraction backend, 2-CPU VM)


class HighwaterElement:
    """Finitely supported element: maps a-indices and s-indices to scalars.
    Every index is an int, never a bool, float or str."""

    __slots__ = ("field", "a", "s")

    def __init__(self, field: FieldSpec, a=None, s=None):
        self.field = field
        a, s = a or {}, s or {}
        for i in (*a, *s):
            if type(i) is not int:
                raise DimensionError(f"highwater index {i!r} is not an int")
        aa: Dict[int, object] = {}
        ss: Dict[int, object] = {}
        for i, c in a.items():
            c = field.coerce(c)
            if c != field.zero():
                aa[i] = c
        for j, c in s.items():
            if j < 0:
                raise InvalidField(f"negative distance index s_{j}")
            c = field.coerce(c)
            if j == 0 or c == field.zero():
                continue  # s_0 = 0 by convention
            ss[j] = c
        self.a = aa
        self.s = ss

    @classmethod
    def zero(cls, field: FieldSpec) -> "HighwaterElement":
        return cls(field)

    def is_zero(self) -> bool:
        return not self.a and not self.s

    def __eq__(self, other):
        if not isinstance(other, HighwaterElement):
            return NotImplemented
        return self.field == other.field and self.a == other.a and self.s == other.s

    def __hash__(self):
        return hash((tuple(sorted(self.a.items(), key=lambda kv: kv[0])),
                     tuple(sorted(self.s.items(), key=lambda kv: kv[0]))))

    def __add__(self, other: "HighwaterElement") -> "HighwaterElement":
        a = dict(self.a)
        s = dict(self.s)
        for i, c in other.a.items():
            a[i] = a.get(i, self.field.zero()) + c
        for j, c in other.s.items():
            s[j] = s.get(j, self.field.zero()) + c
        return HighwaterElement(self.field, a, s)

    def __sub__(self, other: "HighwaterElement") -> "HighwaterElement":
        return self + other.scale(-1)

    def scale(self, c) -> "HighwaterElement":
        c = self.field.coerce(c)
        return HighwaterElement(
            self.field,
            {i: c * v for i, v in self.a.items()},
            {j: c * v for j, v in self.s.items()},
        )

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for i in sorted(self.a):
            bits.append(f"{self.field.fmt(self.a[i])}*a{i}")
        for j in sorted(self.s):
            bits.append(f"{self.field.fmt(self.s[j])}*s{j}")
        return " + ".join(bits)

    def to_json(self) -> dict:
        return {
            "a": {str(i): self.field.fmt(c) for i, c in sorted(self.a.items())},
            "s": {str(j): self.field.fmt(c) for j, c in sorted(self.s.items())},
        }

    @classmethod
    def from_json(cls, field: FieldSpec, obj: dict) -> "HighwaterElement":
        a = {parse_int(k, "index key"): field.parse(v) for k, v in (obj.get("a") or {}).items()}
        s = {parse_int(k, "index key"): field.parse(v) for k, v in (obj.get("s") or {}).items()}
        return cls(field, a, s)


def hw_a(i: int, field: FieldSpec = QQ) -> HighwaterElement:
    return HighwaterElement(field, {i: 1})


def hw_s(j: int, field: FieldSpec = QQ) -> HighwaterElement:
    return HighwaterElement(field, s={j: 1})


def _require_odd_char(field: FieldSpec, what: str):
    if field.characteristic == 2:
        raise Unsupported(f"{what} needs 2 invertible; characteristic 2 is refused")


def hw_mul(x: HighwaterElement, y: HighwaterElement) -> HighwaterElement:
    """Bilinear product from the three basis rules, with s_0 dropped.

    a_i a_j = (a_i + a_j)/2 + s_|i-j|
    a_i s_j = -(3/4) a_i + (3/8)(a_{i-j} + a_{i+j}) + (3/2) s_j
    s_j s_k = (3/4)(s_j + s_k) - (3/8)(s_|j-k| + s_{j+k})
    """
    field = x.field
    if field != y.field:
        raise InvalidField("mixed fields in product")
    _require_odd_char(field, "the product")
    half = field.parse("1/2")
    q34 = field.parse("3/4")
    q38 = field.parse("3/8")
    q32 = field.parse("3/2")
    zero = field.zero()
    a: Dict[int, object] = {}
    s: Dict[int, object] = {}

    def add_a(i, c):
        a[i] = a.get(i, zero) + c

    def add_s(j, c):
        if j != 0:
            s[j] = s.get(j, zero) + c

    for i, ci in x.a.items():
        for j, cj in y.a.items():
            c = ci * cj
            add_a(i, c * half)
            add_a(j, c * half)
            add_s(abs(i - j), c)
    for xa, xs in ((x.a, y.s), (y.a, x.s)):
        for i, ci in xa.items():
            for j, cj in xs.items():
                c = ci * cj
                add_a(i, -(c * q34))
                add_a(i - j, c * q38)
                add_a(i + j, c * q38)
                add_s(j, c * q32)
    for j, cj in x.s.items():
        for k, ck in y.s.items():
            c = cj * ck
            add_s(j, c * q34)
            add_s(k, c * q34)
            add_s(abs(j - k), -(c * q38))
            add_s(j + k, -(c * q38))
    return HighwaterElement(field, a, s)


def hw_reflect(x: HighwaterElement, center) -> HighwaterElement:
    """Index reflection a_j -> a_{2c-j}, s_j fixed; c must be a half-integer."""
    c2 = rational(2) * rational(center) if not isinstance(center, int) else 2 * center
    if rational(c2).denominator != 1:
        raise DegenerateParameters(f"reflection center {center} is not a half-integer")
    c2 = int(c2)
    return HighwaterElement(x.field, {c2 - j: c for j, c in x.a.items()}, dict(x.s))


def hw_baric(x: HighwaterElement):
    """Weight of x under the homomorphism sending every a_i to 1, every s_j to 0."""
    w = x.field.zero()
    for c in x.a.values():
        w = w + c
    return w


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

    Every structure constant is recomputed along several lifts of each basis
    element and the reductions must agree; a mismatch means the quotient is
    not well defined and raises ConsistencyFailure.
    """
    if D < 2:
        raise DegenerateParameters(f"period {D} is below 2")
    _require_odd_char(field, "the quotient")
    ns = D // 2
    n = D + ns
    check_build_dim(n, f"the period-{D} quotient")
    basis = [f"a{i}" for i in range(D)] + [f"s{j}" for j in range(1, ns + 1)]
    one = field.one()

    def reduce_elem(x: HighwaterElement) -> dict:
        """The sparse row of x's image in the quotient."""
        terms = [(i % D, c) for i, c in x.a.items()]
        for j, c in x.s.items():
            r = min(j % D, D - j % D)
            if r:
                terms.append((D + r - 1, c))
        return combine([(one, terms)])

    def lifts(k: int) -> List[HighwaterElement]:
        if k < D:
            return [hw_a(k, field), hw_a(k + D, field), hw_a(k - D, field)]
        j = k - D + 1
        out = [hw_s(j, field), hw_s(j + D, field)]
        if D - j != j:
            out.append(hw_s(D - j, field))
        return out

    products = {}
    for p in range(n):
        for q in range(p, n):
            images = [reduce_elem(hw_mul(xl, yl)) for xl in lifts(p) for yl in lifts(q)]
            if any(img != images[0] for img in images):
                raise ConsistencyFailure(
                    f"period-{D} quotient: product of basis {p},{q} differs between lifts"
                )
            products[(p, q)] = images[0]

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
    if any(abs(i) > window for i in x.a) or any(j > 2 * window for j in x.s):
        return None
    row = {i + window: c for i, c in x.a.items()}
    row.update((2 * window + j, c) for j, c in x.s.items())
    return row


def hw_ideal_window_contains(
    t: Sequence,
    v: HighwaterElement,
    window: Optional[int] = None,
    rounds: int = 10,
    field: FieldSpec = QQ,
) -> str:
    """Window-bounded membership in the ideal generated by sum(alpha_i a_i).

    Grows a subspace of the ideal by translating the generator, multiplying
    by axes a_k with |k| <= window and reflecting, always discarding anything
    supported outside the window.  Returns "yes" when v lies in the grown
    span; otherwise "unknown" (the span is a lower bound on the ideal, so a
    miss proves nothing).  A window past MAX_WINDOW raises Unsupported first.
    """
    info = ideal_type_info(t, field)
    if not info.ok:
        raise DegenerateParameters("coefficient tuple is not of ideal type")
    vals = [field.coerce(field.parse(c) if isinstance(c, str) else c) for c in t]
    D = len(vals) - 1
    w = window if window is not None else 3 * D
    if v.a:
        w = max(w, max(abs(i) for i in v.a))
    if v.s:
        w = max(w, (max(v.s) + 1) // 2)
    if w > MAX_WINDOW:
        raise Unsupported(f"window {w} exceeds cap {MAX_WINDOW}")
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

    gen = HighwaterElement(field, {i: vals[i] for i in range(D + 1)})
    for shift in range(-w, w + 1):
        offer(HighwaterElement(field, {i + shift: c for i, c in gen.a.items()}))
    for _ in range(max(0, rounds)):
        if reached():
            break
        batch, frontier = frontier, []
        if not batch:
            break
        for x in batch:
            for k in range(-w, w + 1):
                offer(hw_mul(x, hw_a(k, field)))
            for c2 in range(-2 * w, 2 * w + 1):
                offer(hw_reflect(x, rational(c2, 2)))
    return "yes" if reached() else "unknown"
