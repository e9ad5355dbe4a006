"""Exact linear algebra on one sparse elimination core: RREF, kernels,
determinants, inverses, linear solves and canonical subspaces.

Inside the package a vector is a sparse row: a dict {index: value} that never
stores a zero, so dict equality is vector equality and a row costs only its
non-zeros.  `Matrix` and `Subspace` keep their rows in this format.  Public
functions and views (`Matrix.data`, `mul_vec`, `Subspace.basis`, `reduce`,
`contains`, `coords`, `solve_linear`, ...) take and return dense tuples,
converted once where a vector enters or leaves (`sparse`, `dense`).

Every routine feeds its rows to `EchelonAccumulator`, which keeps a fully
reduced row-echelon basis (pivot entries 1) and reduces each new row in one
pass over the pivot columns it touches.  That form of a row space is unique,
so results do not depend on row order and equal subspaces store equal rows.
Given a prime modulus p, the same accumulator works on plain ints mod p:
rows are reduced with `_eliminate` as they are and brought into [0, p)
afterwards.

The kernels skip products by a unit factor.  `combine` adds a row whose
factor is 1 and subtracts one whose factor is -1 (over F_p the residue p - 1
is not matched, since an element equals an int only at its own residue), and
`_eliminate` subtracts the pivot row when the entry it clears is 1.  A
`Matrix` applies itself to a sparse vector through its column view, built on
first use: the columns at the vector's non-zeros, combined (Gustavson's
product by columns), so the cost follows the vector's support, not the
number of rows.
"""

from math import lcm
from typing import Optional

from .errors import DimensionError, InvalidField
from .fields import FieldSpec


def as_vector(field: FieldSpec, v, n: int):
    """The one entry check for a caller's vector: n scalars of `field`, as a tuple."""
    v = tuple(field.coerce(x) for x in v)
    if len(v) != n:
        raise DimensionError(f"vector length {len(v)} for dimension {n}")
    return v


def sparse(v) -> dict:
    """The sparse row of a dense vector."""
    return {c: x for c, x in enumerate(v) if x}


def dense(field: FieldSpec, row, n: int):
    """The dense tuple of a sparse row of length n."""
    zero = field.zero()
    return tuple(row.get(c, zero) for c in range(n))


def row_key(row):
    """A sparse row as its sorted (index, value) pairs: hashable, and the
    format `Algebra.products` stores."""
    return tuple(sorted(row.items()))


def combine(terms) -> dict:
    """The sparse row sum(f * row) over (f, row) terms, each row an iterable
    of (index, value) pairs; entries that cancel are dropped.  A row with
    factor 1 is added and one with factor -1 subtracted, with no product."""
    acc = {}
    for f, row in terms:
        if f == 1:
            for c, x in row:
                t = acc.get(c)
                acc[c] = x if t is None else t + x
        elif f == -1:
            for c, x in row:
                t = acc.get(c)
                acc[c] = -x if t is None else t - x
        else:
            for c, x in row:
                t = acc.get(c)
                acc[c] = f * x if t is None else t + f * x
    return {c: x for c, x in acc.items() if x}


def scaled(f, row) -> dict:
    """The sparse row f * row; as in `combine`, a factor 1 copies the row and
    a factor -1 negates it, with no product."""
    if f == 1:
        return dict(row)
    if f == -1:
        return {c: -x for c, x in row.items()}
    return {c: f * x for c, x in row.items()} if f else {}


def cleared(field: FieldSpec, rows):
    """(s, [s row for each row]) for sparse rows over `field`, the rows s row as
    ints: over Q, s is the common denominator of every entry of every row, and
    over F_p, s = 1 and the entries are residues."""
    if field.kind != "rational":
        return 1, [{c: x.v for c, x in row.items()} for row in rows]
    s = lcm(*(x.denominator for row in rows for x in row.values()))
    return s, [{c: x.numerator * (s // x.denominator) for c, x in row.items()} for row in rows]


def dot(field: FieldSpec, u, v):
    """Sum of u[c] v[c] over the indices both sparse rows hold."""
    return sum((x * v[c] for c, x in u.items() if c in v), field.zero())


class Matrix:
    """Immutable rectangular matrix over one exact field, held as sparse rows;
    `data` is the dense view.  A matrix without rows has no columns either.

    The column view (`_columns`) is built on first use, and `transpose` takes
    its dicts as rows.  It stays valid because no row dict of a matrix ever
    changes once the matrix holds it."""

    __slots__ = ("field", "rows", "nrows", "ncols", "_cols")

    def __init__(self, field: FieldSpec, rows):
        data = [tuple(field.coerce(x) for x in row) for row in rows]
        ncols = len(data[0]) if data else 0
        if any(len(row) != ncols for row in data):
            raise DimensionError("ragged rows")
        self.field, self.rows = field, tuple(map(sparse, data))
        self.nrows, self.ncols, self._cols = len(data), ncols, None

    @classmethod
    def _of(cls, field: FieldSpec, ncols: int, rows) -> "Matrix":
        """A matrix of sparse rows the package built from scalars of `field`: no
        entry check.  The matrix takes the row dicts over: nothing may change
        them afterwards."""
        m = cls.__new__(cls)
        m.field, m.rows, m._cols = field, tuple(rows), None
        m.nrows, m.ncols = len(m.rows), ncols if m.rows else 0
        return m

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        one = field.one()
        return cls._of(field, n, [{i: one} for i in range(n)])

    @classmethod
    def from_columns(cls, field: FieldSpec, cols) -> "Matrix":
        return cls(field, cols).transpose()

    @property
    def data(self):
        return tuple(dense(self.field, row, self.ncols) for row in self.rows)

    def mul_vec(self, v):
        """self v for a dense vector v, as a dense tuple."""
        v = sparse(as_vector(self.field, v, self.ncols))
        return dense(self.field, self._apply(v), self.nrows)

    def _columns(self):
        """Column j as a sparse row {i: entry}, for each j."""
        if self._cols is None:
            cols = [{} for _ in range(self.ncols)]
            for i, row in enumerate(self.rows):
                for j, x in row.items():
                    cols[j][i] = x
            self._cols = tuple(cols)
        return self._cols

    def _apply(self, v) -> dict:
        """self v for a sparse row v, as a sparse row: the columns of self
        combined over the non-zeros of v."""
        cols = self._columns()
        return combine((x, cols[j].items()) for j, x in v.items())

    def matmul(self, other: "Matrix") -> "Matrix":
        """Row i of the product is the combination of other's rows that row i of self gives."""
        if self.field != other.field:
            raise InvalidField("mixed fields in matmul")
        if self.ncols != other.nrows:
            raise DimensionError(f"{self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        rows = other.rows
        out = [combine((a, rows[l].items()) for l, a in row.items()) for row in self.rows]
        return Matrix._of(self.field, other.ncols, out)

    def transpose(self) -> "Matrix":
        return Matrix._of(self.field, self.nrows, self._columns())

    def minus_scalar_diag(self, lam) -> "Matrix":
        """self - lam*I (square only) for a scalar lam of the matrix's field."""
        if self.nrows != self.ncols:
            raise DimensionError("not square")
        rows = [dict(row) for row in self.rows]
        for i, row in enumerate(rows):
            t = row.pop(i, 0) - lam
            if t:
                row[i] = t
        return Matrix._of(self.field, self.ncols, rows)

    def __eq__(self, other):
        return isinstance(other, Matrix) and (self.field, self.ncols, self.rows) == (
            other.field, other.ncols, other.rows)

    def __hash__(self):
        return hash((self.field, self.ncols, tuple(map(row_key, self.rows))))

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field.kind})"


def _eliminate(v, rows):
    """Reduce the sparse row v in place against a fully reduced basis.

    `rows` maps each pivot column to its row, whose pivot entry is 1.  Every
    row is zero on the other pivot columns, so one pass over the pivot
    columns v touches clears them all.  Each factor is an entry of v as it
    came in, so on ints the result is exact and bounded, and reducing it mod
    m afterwards (`_mod`) gives the residue mod m.  Where the entry cleared
    is 1 the pivot row is subtracted, with no product.
    """
    hits = [c for c in v if c in rows] if len(v) <= len(rows) else [p for p in rows if p in v]
    for p in hits:
        e = v.pop(p)
        f = None if e == 1 else -e
        for c, x in rows[p].items():
            if c == p:
                continue
            t = v.get(c)
            if t is None:
                v[c] = -x if f is None else f * x
            else:
                t = t - x if f is None else t + f * x
                if t:
                    v[c] = t
                else:
                    del v[c]


def _mod(v, m) -> dict:
    """A sparse row of ints brought into [0, m), with the entries that vanish dropped."""
    return {c: r for c, x in v.items() if (r := x % m)}


def residue(row, rows) -> dict:
    """A sparse row reduced against `rows` (see `_eliminate`): empty iff it lies in their span."""
    v = dict(row)
    _eliminate(v, rows)
    return v


class EchelonAccumulator:
    """Fully reduced row-echelon basis of sparse rows, grown one row at a time.

    `rows` maps each pivot column to its row (see `_eliminate`); `order`
    lists the pivots in the order their rows arrived.  After any sequence of
    rows the basis is the reduced row-echelon form of their span.  With a
    prime `modulus` p the rows are plain ints, any int on entry and in
    [0, p) once stored, and the basis is that of their span over F_p.
    `add_row` and `residue` take any column keys that sort among themselves
    (the highwater search uses ("a", i) and ("s", j)); `subspace` and
    `kernel_basis` need the int columns 0..ncols-1.
    """

    __slots__ = ("field", "ncols", "rows", "order", "modulus")

    def __init__(self, field: FieldSpec, ncols: int, modulus: Optional[int] = None):
        self.field, self.ncols, self.rows, self.order = field, ncols, {}, []
        self.modulus = modulus

    @classmethod
    def of(cls, field: FieldSpec, ncols: int, rows) -> "EchelonAccumulator":
        acc = cls(field, ncols)
        for row in rows:
            acc.add_row(row)
        return acc

    def add_row(self, row):
        """Reduce a sparse row into the basis; the row itself is not changed.

        Returns its pivot value before normalisation, or None when the row
        depends on the basis.
        """
        rows, m = self.rows, self.modulus
        v = residue(row, rows)
        if m:
            v = _mod(v, m)
        if not v:
            return None
        lead = min(v)
        pv = v[lead]
        if m:
            if pv != 1:
                inv = pow(pv, -1, m)
                v = {c: x * inv % m for c, x in v.items()}
        else:
            one = self.field.one()
            if pv != one:
                v = scaled(one / pv, v)
        single = {lead: v}
        for q, other in rows.items():
            if lead in other:
                _eliminate(other, single)
                if m:
                    rows[q] = _mod(other, m)
        rows[lead] = v
        self.order.append(lead)
        return pv

    @property
    def rank(self) -> int:
        return len(self.rows)

    def subspace(self, start: int = 0) -> "Subspace":
        """Span of the basis rows with pivot at or after `start`, on columns start.."""
        rows = self.rows
        shifted = {p - start: {c - start: x for c, x in rows[p].items()}
                   for p in sorted(rows) if p >= start}
        return Subspace(self.field, self.ncols - start, shifted)

    def kernel_basis(self, width: Optional[int] = None) -> dict:
        """The null space of the first `width` columns (all of them by default),
        as one row per free column f: 1 at f, and at each pivot p minus the
        entry of row p in column f."""
        width = self.ncols if width is None else width
        m = self.modulus
        neg = {}
        for p, row in self.rows.items():
            for c, x in row.items():
                if c != p and c < width:
                    neg.setdefault(c, {})[p] = m - x if m else -x
        one = 1 if m else self.field.one()
        return {f: {f: one, **neg.get(f, {})} for f in range(width) if f not in self.rows}

    def kernel(self, width: Optional[int] = None) -> "Subspace":
        """Null space of the first `width` columns (all of them by default)."""
        width = self.ncols if width is None else width
        free = self.kernel_basis(width).values()
        return EchelonAccumulator.of(self.field, width, free).subspace()


def close_span(acc: EchelonAccumulator, seeds, images) -> EchelonAccumulator:
    """Grow the empty accumulator `acc` to the smallest span that holds the
    sparse rows `seeds` and is closed under `images`; returns `acc`.  The
    caller holds `acc`, so `images` may read the span as it grows.

    `images(v, accepted)` gives the rows the span must hold once it holds v;
    `accepted` lists the rows accepted so far, v last.  Semi-naive: each
    accepted row is expanded once, in acceptance order, so pairing v with
    `accepted` forms every product of two accepted rows exactly once.  A row
    is queued as its echelon row at the moment it is accepted: that row is
    zero on every earlier pivot, and the queued rows form a basis of the span,
    which is all that closure under (bi)linear images needs.  Expansion stops
    once the span has full rank (`acc.ncols`), since a full span is closed.
    """
    accepted = []

    def offer(rows):
        for v in rows:
            if acc.add_row(v) is not None:
                accepted.append(dict(acc.rows[acc.order[-1]]))

    offer(seeds)
    done = 0
    while done < len(accepted) and acc.rank < acc.ncols:
        done += 1
        offer(images(accepted[done - 1], accepted[:done]))
    return acc


def det(m: Matrix):
    """Product of the pivots as the rows arrive, signed by the row -> pivot permutation."""
    if m.nrows != m.ncols:
        raise DimensionError("determinant of a non-square matrix")
    acc = EchelonAccumulator(m.field, m.ncols)
    result = m.field.one()
    for row in m.rows:
        pv = acc.add_row(row)
        if pv is None:
            return m.field.zero()
        result = result * pv
    order = acc.order
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1 :])
    return -result if inversions % 2 else result


class Subspace:
    """Subspace of F^n held as its reduced row-echelon basis: `rows` maps each
    pivot, in increasing order, to its sparse row.  `basis` is the dense
    view, built on demand.  `_basis` lists the rows of a basis: the echelon
    rows, or for a subspace made by `_spanned` the rows it was given, from
    which `rows` is built on first read."""

    __slots__ = ("field", "ambient", "_rows", "_basis")

    def __init__(self, field: FieldSpec, ambient: int, rows):
        self.field, self.ambient, self._rows, self._basis = field, ambient, rows, rows.values()

    @classmethod
    def _spanned(cls, field: FieldSpec, ambient: int, basis: list) -> "Subspace":
        """The span of `basis`, independent sparse rows, with no echelon yet."""
        s = cls(field, ambient, {})
        s._rows, s._basis = None, basis
        return s

    @property
    def rows(self):
        if self._rows is None:
            self._rows = EchelonAccumulator.of(self.field, self.ambient, self._basis).subspace()._rows
        return self._rows

    @classmethod
    def from_vectors(cls, field: FieldSpec, ambient: int, vectors) -> "Subspace":
        rows = [sparse(as_vector(field, v, ambient)) for v in vectors]
        return EchelonAccumulator.of(field, ambient, rows).subspace()

    @classmethod
    def zero(cls, field: FieldSpec, ambient: int) -> "Subspace":
        return cls(field, ambient, {})

    @classmethod
    def full(cls, field: FieldSpec, ambient: int) -> "Subspace":
        one = field.one()
        return cls(field, ambient, {i: {i: one} for i in range(ambient)})

    @property
    def dim(self) -> int:
        return len(self._basis)

    @property
    def pivots(self):
        return tuple(self.rows)

    @property
    def basis(self):
        return tuple(dense(self.field, row, self.ambient) for row in self.rows.values())

    def _check_ambient(self, other: "Subspace"):
        if self.ambient != other.ambient or self.field != other.field:
            raise DimensionError("subspaces live in different ambient spaces")

    def _row(self, v) -> dict:
        return sparse(as_vector(self.field, v, self.ambient))

    def reduce(self, v):
        """Residue of v after subtracting its projection onto the basis rows."""
        return dense(self.field, residue(self._row(v), self.rows), self.ambient)

    def contains(self, v) -> bool:
        return not residue(self._row(v), self.rows)

    def coords(self, v):
        """Coefficients of v on the stored basis, or None if v is outside."""
        got = self._coords(self._row(v))
        return None if got is None else dense(self.field, got, self.dim)

    def _coords(self, row):
        """Sparse coefficients of a sparse row on the basis, or None if it is outside."""
        if residue(row, self.rows):
            return None
        return {t: row[p] for t, p in enumerate(self.rows) if p in row}

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        rows = [*self.rows.values(), *other.rows.values()]
        return EchelonAccumulator.of(self.field, self.ambient, rows).subspace()

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: echelon [[u|u],[v|0]]; rows pivoting in the right half span the meet."""
        self._check_ambient(other)
        n = self.ambient
        acc = EchelonAccumulator(self.field, 2 * n)
        for u in self.rows.values():
            acc.add_row({**u, **{c + n: x for c, x in u.items()}})
        for v in other.rows.values():
            acc.add_row(v)
        return acc.subspace(n)

    def is_subspace_of(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return not any(residue(row, other.rows) for row in self.rows.values())

    def __eq__(self, other):
        return isinstance(other, Subspace) and (self.field, self.ambient, self.rows) == (
            other.field, other.ambient, other.rows)

    def __hash__(self):
        return hash((self.field, self.ambient, tuple(map(row_key, self.rows.values()))))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient})"


def kernel(m: Matrix) -> Subspace:
    """Exact null space {v : m v = 0}."""
    return EchelonAccumulator.of(m.field, m.ncols, m.rows).kernel()


def solve_linear(m: Matrix, b):
    """Solve m x = b.  Returns (particular | None, kernel(m)), from one
    echelon of the augmented rows [m | b]."""
    b = as_vector(m.field, b, m.nrows)
    n = m.ncols
    aug = ({**row, n: x} if x else row for row, x in zip(m.rows, b))
    acc = EchelonAccumulator.of(m.field, n + 1, aug)
    ker = acc.kernel(n)
    if n in acc.rows:
        return None, ker
    return dense(m.field, {p: row[n] for p, row in acc.rows.items() if n in row}, n), ker


def invert(m: Matrix) -> Matrix:
    """Echelon of [m | I]; m is invertible iff every left column pivots."""
    if m.nrows != m.ncols:
        raise DimensionError("inverse of a non-square matrix")
    n = m.nrows
    one = m.field.one()
    acc = EchelonAccumulator(m.field, 2 * n)
    for i, row in enumerate(m.rows):
        acc.add_row({**row, n + i: one})
    if any(p not in acc.rows for p in range(n)):
        raise DimensionError("matrix is singular")
    rows = acc.rows
    return Matrix._of(m.field, n, [{c - n: x for c, x in rows[p].items() if c >= n} for p in range(n)])
