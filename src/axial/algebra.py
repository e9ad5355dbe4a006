"""Finite-dimensional commutative nonassociative algebras via structure constants.

Products are stored once, as sorted (k, c) pairs for index pairs i <= j (see
`Algebra`), so commutativity is structural.  Inside the package a vector is
a sparse row {index: nonzero} that never stores a zero (see `linalg`); the
kernels `_mul` and `_adjoint` take sparse rows and visit only non-zeros.
Public methods take and return dense tuples and convert once, where a vector
enters or leaves; that is also where its scalars are checked, as the
constructor checks structure constants and axes.  Vectors the package built
go straight to the unchecked kernels.
"""

from typing import Dict, Iterable, Optional, Sequence, Tuple

from .errors import AxialError, DimensionError, InvalidField, NotAnIdeal, Unsupported, brief
from .fields import FieldSpec
from .fusion import FusionLaw
from .linalg import (
    EchelonAccumulator,
    Matrix,
    Subspace,
    as_vector,
    cleared,
    close_span,
    combine,
    dense,
    dot,
    kernel,
    residue,
    row_key,
    sparse,
)

Vector = Tuple


class Algebra:
    """Commutative algebra over an exact field, with optional designated axes,
    fusion law and Frobenius form attached.

    `products[(i, j)]`, for i <= j, holds e_i e_j as its sorted non-zero (k, c)
    pairs; a zero product has no entry.  The constructor takes each product as
    a dense vector or an {index: scalar} map, under either index order; two
    entries for one pair must agree.  Every index is an int, never a bool,
    float or str.  `_int_layout`, built on first use, holds the same table
    as ints for the Frobenius solve and the axis checks of `axes`: over Q
    each constant times D, their common denominator, over F_p its residue.
    """

    __slots__ = ("field", "dim", "basis", "products", "_ints", "axes", "law", "form")

    def __init__(
        self,
        field: FieldSpec,
        basis: Sequence[str],
        products: Dict[Tuple[int, int], object],
        axes: Iterable[Tuple[str, Sequence]] = (),
        law: Optional[FusionLaw] = None,
        form: Optional[Matrix] = None,
    ):
        self.field = field
        self.basis = tuple(str(b) for b in basis)
        self.dim = len(self.basis)
        law = None if law is None else self._law(law, "an algebra")
        form = None if form is None else self._gram(form)
        entries = (self._entry(ij, vec) for ij, vec in products.items())
        self._fill(entries, ((str(name), self.coerce_vector(v)) for name, v in axes), law, form)

    @classmethod
    def _of(cls, field: FieldSpec, basis, rows, axes=(), law=None, form=None) -> "Algebra":
        """An algebra from parts the package checked, as `Matrix._of` is for a
        matrix: strs in `basis`, sparse rows of `field` scalars by int pairs
        in `rows`, and dense axes.  Only a pair given in both orders is compared."""
        alg = cls.__new__(cls)
        alg.field, alg.basis, alg.dim = field, tuple(basis), len(basis)
        alg._fill(((ij, row_key(row)) for ij, row in rows.items()), axes, law, form)
        return alg

    def _fill(self, entries, axes, law, form):
        """Store ((i, j), sorted pairs) entries under either index order; two for one pair must agree."""
        table: Dict[Tuple[int, int], Tuple] = {}
        for (i, j), pairs in entries:
            if i > j:
                i, j = j, i
            if table.setdefault((i, j), pairs) != pairs:
                raise AxialError(f"conflicting products for pair ({i},{j})")
        self.products = {ij: pairs for ij, pairs in table.items() if pairs}
        self._ints = None
        self.axes, self.law, self.form = tuple(axes), law, form

    def _law(self, law: Optional[FusionLaw], what: str) -> FusionLaw:
        """law, or this algebra's own when it is None, checked to exist and to be over this field."""
        law = law if law is not None else self.law
        if law is None:
            raise Unsupported(f"{what} needs a fusion law")
        if law.field != self.field:
            raise InvalidField(f"fusion law over {law.field} for an algebra over {self.field}")
        return law

    def _gram(self, form) -> Matrix:
        """form, if it is an n x n Matrix over this algebra's field; DimensionError otherwise."""
        if not (isinstance(form, Matrix) and form.field == self.field and form.nrows == form.ncols == self.dim):
            raise DimensionError(f"Gram matrix must be a {self.dim} x {self.dim} Matrix over {self.field}")
        return form

    def _entry(self, ij, vec) -> Tuple:
        """((i, j), sorted non-zero (k, c) pairs) of e_i e_j given as a dense
        vector or an {index: scalar} map."""
        (i, j), n = ij, self.dim
        if not (type(i) is type(j) is int and 0 <= i < n and 0 <= j < n):
            raise DimensionError(f"product index ({brief(i)},{brief(j)}) is not an int pair in 0..{n - 1}")
        if not isinstance(vec, dict):
            return ij, row_key(self._row(vec))
        entries = {}
        for k, val in vec.items():
            if type(k) is not int or not 0 <= k < n:
                raise DimensionError(f"product coordinate {brief(k)} is not an int in 0..{n - 1}")
            entries[k] = self.field.coerce(val)
        return ij, tuple(sorted((k, c) for k, c in entries.items() if c))

    def coerce_vector(self, v) -> Vector:
        return as_vector(self.field, v, self.dim)

    def _row(self, v) -> dict:
        """A caller's vector, checked, as a sparse row."""
        return sparse(self.coerce_vector(v))

    def _dense(self, row) -> Vector:
        return dense(self.field, row, self.dim)

    def zero_vector(self) -> Vector:
        return self._dense({})

    def basis_vector(self, i: int) -> Vector:
        if not 0 <= i < self.dim:
            raise DimensionError(f"basis index {i} out of range")
        return self._dense({i: self.field.one()})

    def _product_pairs(self, i: int, j: int) -> Tuple:
        """e_i e_j as its sorted (k, c) pairs; () when it is zero."""
        return self.products.get((i, j) if i <= j else (j, i), ())

    def basis_product(self, i: int, j: int) -> Optional[Vector]:
        """Structure-constant vector e_i e_j, dense, or None when it is zero."""
        pairs = self._product_pairs(i, j)
        return self._dense(dict(pairs)) if pairs else None

    def axis_vectors(self) -> Tuple[Vector, ...]:
        return tuple(v for _, v in self.axes)

    def mul(self, u, v) -> Vector:
        return self._dense(self._mul(self._row(u), self._row(v)))

    def _mul(self, u, v) -> dict:
        """u v for sparse rows over this algebra's field, as a sparse row; a
        coefficient x y with a factor 1 is the other factor, with no product."""
        prods = self.products
        terms = []
        for i, x in u.items():
            unit = x == 1
            for j, y in v.items():
                pairs = prods.get((i, j) if i <= j else (j, i))
                if pairs is not None:
                    terms.append((y if unit else x if y == 1 else x * y, pairs))
        return combine(terms)

    def _int_layout(self):
        """(D, ad), ad[i][j] the pairs (k, D c_ij^k) of e_i e_j as ints (D = 1 over F_p)."""
        if self._ints is None:
            den, rows = cleared(self.field, [dict(pairs) for pairs in self.products.values()])
            table = {ij: tuple(row.items()) for ij, row in zip(self.products, rows)}
            n = self.dim
            self._ints = den, [[table.get((i, j) if i <= j else (j, i), ()) for j in range(n)] for i in range(n)]
        return self._ints

    def _imul(self, u, v) -> dict:
        """D u v for sparse rows u and v of ints, on the int layout, as a sparse
        row of ints; over F_p the entries are not reduced."""
        ad = self._int_layout()[1]
        acc = {}
        get = acc.get
        for i, x in u.items():
            row = ad[i]
            for j, y in v.items():
                f = x * y
                for k, c in row[j]:
                    acc[k] = get(k, 0) + f * c
        return {k: c for k, c in acc.items() if c}

    def adjoint(self, a) -> Matrix:
        """Matrix of x -> a x; column j is a e_j."""
        return self._adjoint(self._row(a))

    def _adjoint(self, a) -> Matrix:
        one = self.field.one()
        cols = [self._mul(a, {j: one}) for j in range(self.dim)]
        return Matrix._of(self.field, self.dim, cols).transpose()

    def associator(self, x, y, z) -> Vector:
        """(x y) z - x (y z)."""
        x, y, z = (self._row(w) for w in (x, y, z))
        one = self.field.one()
        left, right = self._mul(self._mul(x, y), z), self._mul(x, self._mul(y, z))
        return self._dense(combine(((one, left.items()), (-one, right.items()))))

    def _basis_rows(self):
        one = self.field.one()
        return [{i: one} for i in range(self.dim)]

    def subalgebra_gen(self, gens: Iterable) -> Subspace:
        """Smallest multiplication-closed subspace containing the generators."""
        return self._subalgebra([self._row(g) for g in gens])

    def _subalgebra(self, seeds) -> Subspace:
        acc = EchelonAccumulator(self.field, self.dim)
        return close_span(acc, seeds, lambda v, done: (self._mul(v, u) for u in done)).subspace()

    def ideal_gen(self, gens: Iterable) -> Subspace:
        """Smallest subspace containing the generators with A I <= I."""
        seeds = [self._row(g) for g in gens]
        basis = self._basis_rows()
        acc = EchelonAccumulator(self.field, self.dim)
        return close_span(acc, seeds, lambda v, _: (self._mul(e, v) for e in basis)).subspace()

    def is_ideal(self, sub: Subspace) -> bool:
        if sub.ambient != self.dim:
            raise DimensionError("subspace ambient does not match algebra")
        basis = self._basis_rows()
        return not any(residue(self._mul(e, row), sub.rows) for e in basis for row in sub.rows.values())

    def quotient(self, ideal: Subspace) -> Tuple["Algebra", Matrix]:
        """Quotient algebra and the projection matrix (rows = quotient coords)."""
        if not self.is_ideal(ideal):
            raise NotAnIdeal("subspace is not closed under multiplication by the algebra")
        keep = [k for k in range(self.dim) if k not in ideal.rows]
        pos = {k: t for t, k in enumerate(keep)}
        m = len(keep)

        def project(v) -> dict:
            return {pos[k]: x for k, x in residue(v, ideal.rows).items()}

        cols = [project(e) for e in self._basis_rows()]
        products = {
            (a, b): project(dict(self._product_pairs(keep[a], keep[b])))
            for a in range(m) for b in range(a, m)
        }
        names = [self.basis[k] for k in keep]
        axes = []
        for name, v in self.axes:
            img = project(sparse(v))
            if img:
                axes.append((name, dense(self.field, img, m)))
        quot = Algebra(self.field, names, products, axes=axes, law=self.law)
        return quot, Matrix._of(self.field, m, cols).transpose()

    def annihilator(self) -> Subspace:
        """{x : e_i x = 0 for every basis vector}, as a kernel of stacked adjoints."""
        rows = [row for e in self._basis_rows() for row in self._adjoint(e).rows]
        return kernel(Matrix._of(self.field, self.dim, rows))

    def centre(self) -> Subspace:
        """{a : (a, e_i, e_j) = 0 for all i, j}; commutativity supplies the rest."""
        one = self.field.one()
        rows = []
        ads = [self._adjoint(e) for e in self._basis_rows()]
        for i in range(self.dim):
            for j in range(self.dim):
                block = ads[i].matmul(ads[j]).rows
                ad_ij = self._adjoint(dict(self._product_pairs(i, j))).rows
                rows.extend(combine(((one, r.items()), (-one, s.items()))) for r, s in zip(block, ad_ij))
        return kernel(Matrix._of(self.field, self.dim, rows))

    def restrict(
        self,
        sub: Subspace,
        axes: Iterable[Tuple[str, Sequence]] = (),
        law: Optional[FusionLaw] = None,
    ) -> Tuple["Algebra", Matrix]:
        """Algebra structure on a multiplication-closed subspace.

        Returns the restricted algebra (coordinates on sub's canonical basis)
        and the embedding matrix mapping sub coordinates back into self.
        """
        rows = list(sub.rows.values())
        m = len(rows)
        products = {}
        for a in range(m):
            for b in range(a, m):
                coords = sub._coords(self._mul(rows[a], rows[b]))
                if coords is None:
                    raise AxialError("subspace is not multiplicatively closed")
                products[(a, b)] = coords
        sub_axes = []
        for name, v in axes:
            coords = sub._coords(self._row(v))
            if coords is None:
                raise AxialError(f"designated axis {brief(name)} lies outside the subspace")
            sub_axes.append((name, dense(self.field, coords, m)))
        restricted_form = None
        if self.form is not None:
            gram = []
            for u in rows:
                values = (_form(self.form, u, v) for v in rows)
                gram.append({b: g for b, g in enumerate(values) if g})
            restricted_form = Matrix._of(self.field, m, gram)
        names = [f"e{k}" for k in range(m)]
        alg = Algebra(self.field, names, products, axes=sub_axes, law=law, form=restricted_form)
        return alg, Matrix._of(self.field, self.dim, rows).transpose()

    def with_axes(self, axes: Iterable[Tuple[str, Sequence]]) -> "Algebra":
        return self._copy(axes, self.law)

    def with_law(self, law: Optional[FusionLaw]) -> "Algebra":
        return self._copy(self.axes, law)

    def _copy(self, axes, law) -> "Algebra":
        maps = {ij: dict(pairs) for ij, pairs in self.products.items()}
        return Algebra(self.field, self.basis, maps, axes=axes, law=law, form=self.form)

    def __repr__(self):
        return f"Algebra(dim {self.dim} over {self.field}, {len(self.axes)} axes)"


def form_value(gram: Matrix, u, v):
    """Evaluate the bilinear form with Gram matrix `gram` on a vector pair."""
    if gram.nrows != gram.ncols or gram.nrows != len(u) or len(u) != len(v):
        raise DimensionError("gram/vector size mismatch")
    return _form(gram, sparse(u), sparse(v))


def _form(gram: Matrix, u, v):
    """(u, v) under the Gram matrix `gram`, for sparse rows u and v."""
    return dot(gram.field, u, gram._apply(v))
