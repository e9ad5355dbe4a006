"""Finite-dimensional commutative nonassociative algebras via structure constants.

Products are stored once, as sparse rows for index pairs i <= j (see
`Algebra`), so commutativity is structural.  Vectors are plain tuples of exact
scalars.  A scalar is checked once, where it enters: the constructor checks
structure constants and axes, public methods check the caller's vectors, and
vectors the package built go straight to the unchecked kernels `_mul` and
`_adjoint`.
"""

from typing import Dict, Iterable, Optional, Sequence, Tuple

from .errors import AxialError, DimensionError, NotAnIdeal
from .fields import FieldSpec
from .fusion import FusionLaw
from .linalg import (
    EchelonAccumulator,
    Matrix,
    Subspace,
    as_vector,
    close_span,
    vsub,
    vzero,
)

Vector = Tuple


class Algebra:
    """Commutative algebra over an exact field, with optional designated axes,
    fusion law and Frobenius form attached.

    `products[(i, j)]`, for i <= j, holds e_i e_j as its sorted non-zero (k, c)
    pairs; a zero product has no entry.  The constructor takes each product as
    a dense vector or an {index: scalar} map, under either index order; two
    entries for one pair must agree.
    """

    __slots__ = ("field", "dim", "basis", "products", "axes", "law", "form")

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
        n = len(self.basis)
        self.dim = n
        table: Dict[Tuple[int, int], Tuple] = {}
        for (i, j), vec in products.items():
            if not (0 <= i < n and 0 <= j < n):
                raise DimensionError(f"product index ({i},{j}) out of range for dim {n}")
            if i > j:
                i, j = j, i
            pairs = self._pairs(vec)
            if table.setdefault((i, j), pairs) != pairs:
                raise AxialError(f"conflicting products for pair ({i},{j})")
        self.products = {ij: pairs for ij, pairs in table.items() if pairs}
        self.axes = tuple((str(name), self.coerce_vector(v)) for name, v in axes)
        self.law = law
        self.form = form

    def _pairs(self, vec) -> Tuple:
        """Sorted non-zero (k, c) pairs of a dense vector or an {index: scalar} map."""
        if not isinstance(vec, dict):
            return tuple((k, c) for k, c in enumerate(self.coerce_vector(vec)) if c)
        entries = {}
        for k, val in vec.items():
            k = int(k)
            if not 0 <= k < self.dim:
                raise DimensionError(f"product coordinate {k} out of range for dim {self.dim}")
            entries[k] = self.field.coerce(val)
        return tuple(sorted((k, c) for k, c in entries.items() if c))

    def coerce_vector(self, v) -> Vector:
        return as_vector(self.field, v, self.dim)

    def zero_vector(self) -> Vector:
        return vzero(self.field, self.dim)

    def basis_vector(self, i: int) -> Vector:
        if not 0 <= i < self.dim:
            raise DimensionError(f"basis index {i} out of range")
        z, one = self.field.zero(), self.field.one()
        return tuple(one if k == i else z for k in range(self.dim))

    def basis_product(self, i: int, j: int) -> Optional[Vector]:
        """Structure-constant vector e_i e_j, dense, or None when it is zero."""
        pairs = self.products.get((i, j) if i <= j else (j, i))
        if pairs is None:
            return None
        out = [self.field.zero()] * self.dim
        for k, c in pairs:
            out[k] = c
        return tuple(out)

    def axis_vectors(self) -> Tuple[Vector, ...]:
        return tuple(v for _, v in self.axes)

    def mul(self, u, v) -> Vector:
        return self._mul(self.coerce_vector(u), self.coerce_vector(v))

    def _mul(self, u, v) -> Vector:
        """u v for vectors already over this algebra's field and of its dimension."""
        acc = [self.field.zero()] * self.dim
        prods = self.products
        vnz = [(j, vj) for j, vj in enumerate(v) if vj]
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in vnz:
                pairs = prods.get((i, j) if i <= j else (j, i))
                if pairs is None:
                    continue
                c = ui * vj
                for k, r in pairs:
                    acc[k] = acc[k] + c * r
        return tuple(acc)

    def adjoint(self, a) -> Matrix:
        """Matrix of x -> a x; column j is a e_j."""
        return self._adjoint(self.coerce_vector(a))

    def _adjoint(self, a) -> Matrix:
        n = self.dim
        rows = [[self.field.zero()] * n for _ in range(n)]
        prods = self.products
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j in range(n):
                for k, r in prods.get((i, j) if i <= j else (j, i), ()):
                    rows[k][j] = rows[k][j] + ai * r
        return Matrix._of(self.field, rows)

    def associator(self, x, y, z) -> Vector:
        """(x y) z - x (y z)."""
        x, y, z = (self.coerce_vector(w) for w in (x, y, z))
        return vsub(self._mul(self._mul(x, y), z), self._mul(x, self._mul(y, z)))

    def subalgebra_gen(self, gens: Iterable) -> Subspace:
        """Smallest multiplication-closed subspace containing the generators."""
        return self._subalgebra([self.coerce_vector(g) for g in gens])

    def _subalgebra(self, seeds) -> Subspace:
        return close_span(self.field, self.dim, seeds, lambda v, done: (self._mul(v, u) for u in done))

    def ideal_gen(self, gens: Iterable) -> Subspace:
        """Smallest subspace containing the generators with A I <= I."""
        seeds = [self.coerce_vector(g) for g in gens]
        basis = [self.basis_vector(i) for i in range(self.dim)]
        return close_span(self.field, self.dim, seeds, lambda v, _: (self._mul(e, v) for e in basis))

    def is_ideal(self, sub: Subspace) -> bool:
        if sub.ambient != self.dim:
            raise DimensionError("subspace ambient does not match algebra")
        basis = [self.basis_vector(i) for i in range(self.dim)]
        return all(sub.contains(self._mul(e, row)) for e in basis for row in sub.basis)

    def quotient(self, ideal: Subspace) -> Tuple["Algebra", Matrix]:
        """Quotient algebra and the projection matrix (rows = quotient coords)."""
        if not self.is_ideal(ideal):
            raise NotAnIdeal("subspace is not closed under multiplication by the algebra")
        pivot_set = set(ideal.pivots)
        keep = [k for k in range(self.dim) if k not in pivot_set]
        m = len(keep)

        def project(v) -> Vector:
            red = ideal.reduce(v)
            return tuple(red[k] for k in keep)

        cols = [project(self.basis_vector(j)) for j in range(self.dim)]
        projection = Matrix._of(self.field, zip(*cols))

        products = {}
        for a in range(m):
            for b in range(a, m):
                p = self._mul(self.basis_vector(keep[a]), self.basis_vector(keep[b]))
                products[(a, b)] = project(p)
        names = [self.basis[k] for k in keep]
        axes = []
        for name, v in self.axes:
            img = project(v)
            if any(img):
                axes.append((name, img))
        quot = Algebra(self.field, names, products, axes=axes, law=self.law)
        # projection must be an algebra homomorphism on all basis pairs
        for i in range(self.dim):
            for j in range(i, self.dim):
                lhs = project(self._mul(self.basis_vector(i), self.basis_vector(j)))
                rhs = quot._mul(projection.column(i), projection.column(j))
                if lhs != rhs:
                    raise AxialError("quotient projection failed the homomorphism check")
        return quot, projection

    def annihilator(self) -> Subspace:
        """{x : e_i x = 0 for every basis vector}, as a kernel of stacked adjoints."""
        rows = (row for i in range(self.dim) for row in self._adjoint(self.basis_vector(i)).data)
        return EchelonAccumulator.of(self.field, self.dim, rows).kernel()

    def centre(self) -> Subspace:
        """{a : (a, e_i, e_j) = 0 for all i, j}; commutativity supplies the rest."""
        acc = EchelonAccumulator(self.field, self.dim)
        ads = [self._adjoint(self.basis_vector(i)) for i in range(self.dim)]
        for i in range(self.dim):
            for j in range(self.dim):
                block = ads[i].matmul(ads[j]).data
                prod = self.basis_product(i, j)
                if prod is not None:
                    block = [vsub(r, s) for r, s in zip(block, self._adjoint(prod).data)]
                for row in block:
                    acc.add_row(row)
        return acc.kernel()

    def restrict(
        self,
        sub: Subspace,
        axes: Iterable[Tuple[str, Sequence]] = (),
        law: Optional[FusionLaw] = None,
        names: Optional[Sequence[str]] = None,
    ) -> Tuple["Algebra", Matrix]:
        """Algebra structure on a multiplication-closed subspace.

        Returns the restricted algebra (coordinates on sub's canonical basis)
        and the embedding matrix mapping sub coordinates back into self.
        """
        rows = sub.basis
        m = len(rows)
        products = {}
        for a in range(m):
            for b in range(a, m):
                p = self._mul(rows[a], rows[b])
                coords = sub.coords(p)
                if coords is None:
                    raise AxialError("subspace is not multiplicatively closed")
                products[(a, b)] = coords
        sub_axes = []
        for name, v in axes:
            coords = sub.coords(self.coerce_vector(v))
            if coords is None:
                raise AxialError(f"designated axis {name!r} lies outside the subspace")
            sub_axes.append((name, coords))
        if names is None:
            names = [f"e{k}" for k in range(m)]
        restricted_form = None
        if self.form is not None:
            gram = [[form_value(self.form, u, v) for v in rows] for u in rows]
            restricted_form = Matrix._of(self.field, gram)
        alg = Algebra(self.field, names, products, axes=sub_axes, law=law, form=restricted_form)
        embed = Matrix._of(self.field, zip(*rows))
        return alg, embed

    def with_axes(self, axes: Iterable[Tuple[str, Sequence]]) -> "Algebra":
        return self._copy(axes, self.law)

    def with_law(self, law: Optional[FusionLaw]) -> "Algebra":
        return self._copy(self.axes, law)

    def _copy(self, axes, law) -> "Algebra":
        maps = {ij: dict(pairs) for ij, pairs in self.products.items()}
        return Algebra(self.field, self.basis, maps, axes=axes, law=law, form=self.form)

    def __repr__(self):
        return f"Algebra(dim {self.dim} over {self.field.kind}, {len(self.axes)} axes)"


def form_value(gram: Matrix, u, v):
    """Evaluate the bilinear form with Gram matrix `gram` on a vector pair."""
    if gram.nrows != gram.ncols or gram.nrows != len(u) or len(u) != len(v):
        raise DimensionError("gram/vector size mismatch")
    total = gram.field.zero()
    for i, ui in enumerate(u):
        if ui:
            row = gram.data[i]
            for j, vj in enumerate(v):
                if vj:
                    total = total + ui * row[j] * vj
    return total
