"""Exact linear algebra on one sparse elimination core: RREF, kernels,
determinants, inverses, linear solves and canonical subspaces.

Every routine feeds its rows to `EchelonAccumulator`, which keeps a fully
reduced row-echelon basis of sparse rows ({column: nonzero}, pivot
normalised to 1) and reduces each new row in one pass over the pivot columns
it touches.  Zero entries are never visited.  The reduced row-echelon form of
a row space is unique, so every result is deterministic and independent of
row order.  Subspaces store that form as dense tuples with zero rows
stripped; two equal subspaces therefore have identical stored bases, and
equality is plain tuple comparison.
"""

from typing import Iterable, Optional, Sequence

from .errors import DimensionError, InvalidField
from .fields import FieldSpec


def vadd(u, v):
    if len(u) != len(v):
        raise DimensionError(f"vector lengths {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    if len(u) != len(v):
        raise DimensionError(f"vector lengths {len(u)} vs {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, u):
    return tuple(c * a for a in u)


def vdot(u, v):
    if len(u) != len(v):
        raise DimensionError(f"vector lengths {len(u)} vs {len(v)}")
    total = None
    for a, b in zip(u, v):
        ab = a * b
        total = ab if total is None else total + ab
    return total


def vzero(field: FieldSpec, n: int):
    z = field.zero()
    return (z,) * n


def is_zero_vec(u) -> bool:
    return not any(u)


def as_vector(field: FieldSpec, v, n: int):
    """The one entry check for a caller's vector: n scalars of `field`, as a tuple."""
    v = tuple(field.coerce(x) for x in v)
    if len(v) != n:
        raise DimensionError(f"vector length {len(v)} for dimension {n}")
    return v


class Matrix:
    """Immutable rectangular matrix over one exact field, row-major."""

    __slots__ = ("field", "data", "nrows", "ncols")

    def __init__(self, field: FieldSpec, rows: Iterable[Iterable]):
        data = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        if any(len(row) != len(data[0]) for row in data):
            raise DimensionError("ragged rows")
        self.field, self.data = field, data
        self.nrows, self.ncols = len(data), len(data[0]) if data else 0

    @classmethod
    def _of(cls, field: FieldSpec, rows) -> "Matrix":
        """A matrix of rows the package built from scalars of `field`: no entry check."""
        m = cls.__new__(cls)
        m.field, m.data = field, tuple(map(tuple, rows))
        m.nrows, m.ncols = len(m.data), len(m.data[0]) if m.data else 0
        return m

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        one, zero = field.one(), field.zero()
        return cls._of(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, field: FieldSpec, cols: Sequence[Sequence]) -> "Matrix":
        return cls(field, cols).transpose()

    def column(self, j: int):
        return tuple(row[j] for row in self.data)

    def mul_vec(self, v):
        """self v, visiting only the non-zero entries of v and of each row."""
        if len(v) != self.ncols:
            raise DimensionError(f"matrix is {self.nrows}x{self.ncols}, vector has {len(v)}")
        nz = [(j, x) for j, x in enumerate(v) if x]
        zero = self.field.zero()
        out = []
        for row in self.data:
            total = zero
            for j, x in nz:
                a = row[j]
                if a:
                    total = total + a * x
            out.append(total)
        return tuple(out)

    def matmul(self, other: "Matrix") -> "Matrix":
        """Row by row: each non-zero self[i][l] adds its multiple of the
        non-zero part of other's row l."""
        if self.field != other.field:
            raise InvalidField("mixed fields in matmul")
        if self.ncols != other.nrows:
            raise DimensionError(f"{self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        sparse = [[(j, x) for j, x in enumerate(row) if x] for row in other.data]
        zero = self.field.zero()
        out = []
        for row in self.data:
            acc = [zero] * other.ncols
            for l, a in enumerate(row):
                if a:
                    for j, x in sparse[l]:
                        acc[j] = acc[j] + a * x
            out.append(acc)
        return Matrix._of(self.field, out)

    def transpose(self) -> "Matrix":
        return Matrix._of(self.field, zip(*self.data))

    def minus_scalar_diag(self, lam) -> "Matrix":
        """self - lam*I (square only) for a scalar lam of the matrix's field."""
        if self.nrows != self.ncols:
            raise DimensionError("not square")
        rows = [list(row) for row in self.data]
        for i in range(self.nrows):
            rows[i][i] = rows[i][i] - lam
        return Matrix._of(self.field, rows)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, self.data))

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field.kind})"


def _eliminate(v, rows):
    """Reduce the sparse row v in place against a fully reduced basis.

    `rows` maps each pivot column to that row's tail: its entries off the
    pivot, whose own entry is 1.  Tails are zero on every pivot column, so
    one pass over the pivot columns v touches clears them all.
    """
    hits = [c for c in v if c in rows] if len(v) <= len(rows) else [p for p in rows if p in v]
    for p in hits:
        f = -v.pop(p)
        for c, x in rows[p].items():
            t = v.get(c)
            if t is None:
                v[c] = f * x
            else:
                t = t + f * x
                if t:
                    v[c] = t
                else:
                    del v[c]


class EchelonAccumulator:
    """Fully reduced row-echelon basis of sparse rows, grown one row at a time.

    `rows` maps each pivot column to its row's tail (see `_eliminate`);
    `order` lists the pivots in the order their rows arrived.  After any
    sequence of rows the basis is the reduced row-echelon form of their span.
    """

    __slots__ = ("field", "ncols", "rows", "order")

    def __init__(self, field: FieldSpec, ncols: int, rows=None):
        self.field = field
        self.ncols = ncols
        self.rows = {} if rows is None else rows
        self.order = list(self.rows)

    @classmethod
    def of(cls, field: FieldSpec, ncols: int, rows) -> "EchelonAccumulator":
        acc = cls(field, ncols)
        for row in rows:
            acc.add_row(row)
        return acc

    def add_row(self, row):
        """Reduce a row (a sequence, or a {column: value} mapping) into the basis.

        Returns its pivot value before normalisation, or None when the row
        depends on the basis.
        """
        items = row.items() if isinstance(row, dict) else enumerate(row)
        v = {c: x for c, x in items if x}
        rows = self.rows
        _eliminate(v, rows)
        if not v:
            return None
        lead = min(v)
        pv = v.pop(lead)
        one = self.field.one()
        if pv != one:
            inv = one / pv
            v = {c: inv * x for c, x in v.items()}
        single = {lead: v}
        for tail in rows.values():
            if lead in tail:
                _eliminate(tail, single)
        rows[lead] = v
        self.order.append(lead)
        return pv

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def pivots(self):
        return sorted(self.rows)

    def row(self, p: int, start: int = 0):
        """The basis row with pivot p as a dense tuple over columns start.."""
        out = [self.field.zero()] * (self.ncols - start)
        if p >= start:
            out[p - start] = self.field.one()
        for c, x in self.rows[p].items():
            out[c - start] = x
        return tuple(out)

    def subspace(self, start: int = 0) -> "Subspace":
        """Span of the basis rows with pivot at or after `start`, on columns start.."""
        pivots = tuple(p for p in self.pivots if p >= start)
        basis = tuple(self.row(p, start) for p in pivots)
        return Subspace(self.field, self.ncols - start, basis, tuple(p - start for p in pivots))

    def kernel(self, width: Optional[int] = None) -> "Subspace":
        """Null space of the first `width` columns (all of them by default)."""
        width = self.ncols if width is None else width
        neg = {}
        for p, tail in self.rows.items():
            for c, x in tail.items():
                if c < width:
                    neg.setdefault(c, {})[p] = -x
        ker = EchelonAccumulator(self.field, width)
        one = self.field.one()
        for f in range(width):
            if f not in self.rows:
                v = neg.get(f, {})
                v[f] = one
                ker.add_row(v)
        return ker.subspace()


def close_span(field: FieldSpec, ambient: int, seeds, images) -> "Subspace":
    """Smallest subspace containing `seeds` and closed under `images`.

    `images(v, accepted)` gives the vectors the span must hold once it holds
    v; `accepted` lists the vectors accepted so far, v last.  Semi-naive:
    each accepted vector is expanded once, in acceptance order, so pairing v
    with `accepted` forms every product of two accepted vectors exactly once.
    A vector is queued as its echelon row at the moment it is accepted, not
    as the raw image: that row is zero on every earlier pivot, hence sparser,
    and the queued rows form a basis of the span, which is all that closure
    under (bi)linear images needs.
    """
    acc = EchelonAccumulator(field, ambient)
    accepted = []

    def offer(vectors):
        for v in vectors:
            if acc.add_row(v) is not None:
                accepted.append(acc.row(acc.order[-1]))

    offer(seeds)
    done = 0
    while done < len(accepted):
        done += 1
        offer(images(accepted[done - 1], accepted[:done]))
    return acc.subspace()


def rref(m: Matrix) -> Matrix:
    acc = EchelonAccumulator.of(m.field, m.ncols, m.data)
    rows = [acc.row(p) for p in acc.pivots]
    rows += [(m.field.zero(),) * m.ncols] * (m.nrows - len(rows))
    return Matrix._of(m.field, rows)


def det(m: Matrix):
    """Product of the pivots as the rows arrive, signed by the row -> pivot
    permutation."""
    if m.nrows != m.ncols:
        raise DimensionError("determinant of a non-square matrix")
    acc = EchelonAccumulator(m.field, m.ncols)
    result = m.field.one()
    for row in m.data:
        pv = acc.add_row(row)
        if pv is None:
            return m.field.zero()
        result = result * pv
    order = acc.order
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1 :])
    return -result if inversions % 2 else result


class Subspace:
    """Subspace of F^n held as a canonical RREF basis (zero rows stripped)."""

    __slots__ = ("field", "ambient", "basis", "pivots", "_rows")

    def __init__(self, field: FieldSpec, ambient: int, basis, pivots):
        self.field = field
        self.ambient = ambient
        self.basis = basis
        self.pivots = pivots
        self._rows = None

    @classmethod
    def from_vectors(cls, field: FieldSpec, ambient: int, vectors) -> "Subspace":
        rows = [as_vector(field, v, ambient) for v in vectors]
        return EchelonAccumulator.of(field, ambient, rows).subspace()

    @classmethod
    def zero(cls, field: FieldSpec, ambient: int) -> "Subspace":
        return cls(field, ambient, (), ())

    @classmethod
    def full(cls, field: FieldSpec, ambient: int) -> "Subspace":
        eye = Matrix.identity(field, ambient)
        return cls(field, ambient, eye.data, tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _check_ambient(self, other: "Subspace"):
        if self.ambient != other.ambient or self.field != other.field:
            raise DimensionError("subspaces live in different ambient spaces")

    def _tails(self):
        """Sparse tails of the basis rows by pivot (see `_eliminate`), built once."""
        if self._rows is None:
            self._rows = {
                p: {c: x for c, x in enumerate(row) if x and c != p}
                for p, row in zip(self.pivots, self.basis)
            }
        return self._rows

    def _residue(self, v):
        v = tuple(v)
        if len(v) != self.ambient:
            raise DimensionError(f"vector length {len(v)} in ambient {self.ambient}")
        w = {c: x for c, x in enumerate(v) if x}
        _eliminate(w, self._tails())
        return w

    def reduce(self, v):
        """Residue of v after subtracting its projection onto the basis rows."""
        w = self._residue(v)
        zero = self.field.zero()
        return tuple(w.get(c, zero) for c in range(self.ambient))

    def contains(self, v) -> bool:
        return not self._residue(v)

    def coords(self, v):
        """Coefficients of v on the stored basis, or None if v is outside."""
        if not self.contains(v):
            return None
        return tuple(v[p] for p in self.pivots)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        rows = {p: dict(tail) for p, tail in self._tails().items()}
        acc = EchelonAccumulator(self.field, self.ambient, rows)
        for b in other.basis:
            acc.add_row(b)
        return acc.subspace()

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: echelon [[u|u],[v|0]]; rows pivoting in the right half span the meet."""
        self._check_ambient(other)
        acc = EchelonAccumulator(self.field, 2 * self.ambient)
        for b in self.basis:
            acc.add_row(b + b)
        for b in other.basis:
            acc.add_row(b)
        return acc.subspace(self.ambient)

    def is_subspace_of(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(other.contains(b) for b in self.basis)

    def basis_vectors(self):
        return self.basis

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient})"


def kernel(m: Matrix) -> Subspace:
    """Exact null space {v : m v = 0}."""
    return EchelonAccumulator.of(m.field, m.ncols, m.data).kernel()


def solve_linear(m: Matrix, b):
    """Solve m x = b.  Returns (particular | None, kernel(m)), from one
    echelon of the augmented rows [m | b]."""
    b = as_vector(m.field, b, m.nrows)
    n = m.ncols
    aug = (row + (x,) for row, x in zip(m.data, b))
    acc = EchelonAccumulator.of(m.field, n + 1, aug)
    ker = acc.kernel(n)
    if n in acc.rows:
        return None, ker
    zero = m.field.zero()
    x = [zero] * n
    for p, tail in acc.rows.items():
        x[p] = tail.get(n, zero)
    return tuple(x), ker


def invert(m: Matrix) -> Matrix:
    """Echelon of [m | I]; m is invertible iff every left column pivots."""
    if m.nrows != m.ncols:
        raise DimensionError("inverse of a non-square matrix")
    n = m.nrows
    one = m.field.one()
    acc = EchelonAccumulator(m.field, 2 * n)
    for i, row in enumerate(m.data):
        v = {c: x for c, x in enumerate(row) if x}
        v[n + i] = one
        acc.add_row(v)
    if any(p not in acc.rows for p in range(n)):
        raise DimensionError("matrix is singular")
    return Matrix._of(m.field, [acc.row(p, n) for p in range(n)])
