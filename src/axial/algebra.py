"""Finite-dimensional commutative nonassociative algebras via structure constants.

Products are stored for index pairs i <= j only and looked up with sorted
indices, so commutativity is structural.  A missing pair means the product is
zero.  Vectors are plain tuples of exact scalars.
"""

from typing import Dict, Iterable, Optional, Sequence, Tuple

from .errors import AxialError, DimensionError, NotAnIdeal
from .fields import FieldSpec
from .fusion import FusionLaw
from .linalg import (
    EchelonAccumulator,
    Matrix,
    Subspace,
    close_span,
    is_zero_vec,
    vsub,
    vzero,
)

Vector = Tuple


class Algebra:
    """Commutative algebra over an exact field, with optional designated axes,
    fusion law and Frobenius form attached."""

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
        table: Dict[Tuple[int, int], Vector] = {}
        for (i, j), vec in products.items():
            if not (0 <= i < n and 0 <= j < n):
                raise DimensionError(f"product index ({i},{j}) out of range for dim {n}")
            if i > j:
                i, j = j, i
            v = self._as_vector(vec)
            if (i, j) in table and table[(i, j)] != v:
                raise AxialError(f"conflicting products for pair ({i},{j})")
            if not is_zero_vec(v):
                table[(i, j)] = v
        self.products = table
        self.axes = tuple((str(name), self.coerce_vector(v)) for name, v in axes)
        self.law = law
        self.form = form

    def _as_vector(self, vec) -> Vector:
        if isinstance(vec, dict):
            out = [self.field.zero()] * self.dim
            for k, val in vec.items():
                out[int(k)] = self.field.coerce(val)
            return tuple(out)
        return self.coerce_vector(vec)

    def coerce_vector(self, v) -> Vector:
        v = tuple(self.field.coerce(x) for x in v)
        if len(v) != self.dim:
            raise DimensionError(f"vector length {len(v)} for algebra of dim {self.dim}")
        return v

    def zero_vector(self) -> Vector:
        return vzero(self.field, self.dim)

    def basis_vector(self, i: int) -> Vector:
        if not 0 <= i < self.dim:
            raise DimensionError(f"basis index {i} out of range")
        z, one = self.field.zero(), self.field.one()
        return tuple(one if k == i else z for k in range(self.dim))

    def basis_product(self, i: int, j: int) -> Optional[Vector]:
        """Structure-constant vector e_i e_j, or None when it is zero."""
        if i > j:
            i, j = j, i
        return self.products.get((i, j))

    def axis_vectors(self) -> Tuple[Vector, ...]:
        return tuple(v for _, v in self.axes)

    def mul(self, u, v) -> Vector:
        u = self.coerce_vector(u)
        v = self.coerce_vector(v)
        acc = [self.field.zero()] * self.dim
        prods = self.products
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if not vj:
                    continue
                row = prods.get((i, j) if i <= j else (j, i))
                if row is None:
                    continue
                c = ui * vj
                for k, rk in enumerate(row):
                    if rk:
                        acc[k] = acc[k] + c * rk
        return tuple(acc)

    def adjoint(self, a) -> Matrix:
        """Matrix of x -> a x; column j is a e_j."""
        a = self.coerce_vector(a)
        cols = []
        for j in range(self.dim):
            col = [self.field.zero()] * self.dim
            for i, ai in enumerate(a):
                if not ai:
                    continue
                row = self.products.get((i, j) if i <= j else (j, i))
                if row is None:
                    continue
                for k, rk in enumerate(row):
                    if rk:
                        col[k] = col[k] + ai * rk
            cols.append(col)
        return Matrix.from_columns(self.field, cols)

    def associator(self, x, y, z) -> Vector:
        """(x y) z - x (y z)."""
        return vsub(self.mul(self.mul(x, y), z), self.mul(x, self.mul(y, z)))

    def subalgebra_gen(self, gens: Iterable) -> Subspace:
        """Smallest multiplication-closed subspace containing the generators."""
        seeds = [self.coerce_vector(g) for g in gens]
        return close_span(self.field, self.dim, seeds, lambda v, done: (self.mul(v, u) for u in done))

    def ideal_gen(self, gens: Iterable) -> Subspace:
        """Smallest subspace containing the generators with A I <= I."""
        seeds = [self.coerce_vector(g) for g in gens]
        basis = [self.basis_vector(i) for i in range(self.dim)]
        return close_span(self.field, self.dim, seeds, lambda v, _: (self.mul(e, v) for e in basis))

    def is_ideal(self, sub: Subspace) -> bool:
        if sub.ambient != self.dim:
            raise DimensionError("subspace ambient does not match algebra")
        for i in range(self.dim):
            e = self.basis_vector(i)
            for row in sub.basis:
                if not sub.contains(self.mul(e, row)):
                    return False
        return True

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

        proj_rows = [[self.field.zero()] * self.dim for _ in range(m)]
        for j in range(self.dim):
            col = project(self.basis_vector(j))
            for r in range(m):
                proj_rows[r][j] = col[r]
        projection = Matrix(self.field, proj_rows)

        products = {}
        for a in range(m):
            for b in range(a, m):
                p = self.mul(self.basis_vector(keep[a]), self.basis_vector(keep[b]))
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
                lhs = project(self.mul(self.basis_vector(i), self.basis_vector(j)))
                rhs = quot.mul(projection.column(i), projection.column(j))
                if lhs != rhs:
                    raise AxialError("quotient projection failed the homomorphism check")
        return quot, projection

    def annihilator(self) -> Subspace:
        """{x : e_i x = 0 for every basis vector}, as a kernel of stacked adjoints."""
        acc = EchelonAccumulator(self.field, self.dim)
        for i in range(self.dim):
            for row in self.adjoint(self.basis_vector(i)).data:
                acc.add_row(row)
        return acc.kernel()

    def centre(self) -> Subspace:
        """{a : (a, e_i, e_j) = 0 for all i, j}; commutativity supplies the rest."""
        acc = EchelonAccumulator(self.field, self.dim)
        ads = [self.adjoint(self.basis_vector(i)) for i in range(self.dim)]
        for i in range(self.dim):
            for j in range(self.dim):
                block = ads[i].matmul(ads[j]).data
                prod = self.basis_product(i, j)
                if prod is not None:
                    block = [vsub(r, s) for r, s in zip(block, self.adjoint(prod).data)]
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
                p = self.mul(rows[a], rows[b])
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
            restricted_form = Matrix(
                self.field,
                [[form_value(self.form, u, v) for v in rows] for u in rows],
            )
        alg = Algebra(self.field, names, products, axes=sub_axes, law=law, form=restricted_form)
        embed = Matrix.from_columns(self.field, [list(r) for r in rows])
        return alg, embed

    def with_axes(self, axes: Iterable[Tuple[str, Sequence]]) -> "Algebra":
        return Algebra(
            self.field,
            self.basis,
            dict(self.products),
            axes=axes,
            law=self.law,
            form=self.form,
        )

    def with_law(self, law: Optional[FusionLaw]) -> "Algebra":
        return Algebra(
            self.field,
            self.basis,
            dict(self.products),
            axes=self.axes,
            law=law,
            form=self.form,
        )

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
