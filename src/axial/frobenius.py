"""Frobenius forms: associativity solver, canonical normalization, radicals,
eigenspace orthogonality and projection graphs."""

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .algebra import Algebra, _form
from .axes import Axet, _projection_functional, eigen_decomposition, projection_functional
from .errors import ConsistencyFailure, Unsupported
from .fusion import FusionLaw
from .linalg import EchelonAccumulator, Matrix, Subspace, combine, dot, kernel, solve_linear, sparse


def frobenius_solution_space(alg: Algebra) -> Subspace:
    """All bilinear forms with (u, vw) = (uv, w), as flat n^2 vectors.

    Only associativity is imposed; symmetry of the solutions is a theorem,
    not a constraint, and is checked downstream.  Equation (i, j, l) reads
    sum_m c_jl^m X[i, m] - c_ij^m X[m, l] = 0 and is built as a sparse row.
    """
    n = alg.dim
    prod = alg._product_pairs
    acc = EchelonAccumulator(alg.field, n * n)
    for i in range(n):
        for j in range(n):
            left = prod(i, j)
            for l in range(n):
                row = {i * n + m: c for m, c in prod(j, l)}
                for m, c in left:
                    k = m * n + l
                    t = row.pop(k, None)
                    t = -c if t is None else t - c
                    if t:
                        row[k] = t
                acc.add_row(row)
    return acc.kernel()


def _gram_from_flat(alg: Algebra, flat) -> Matrix:
    """The Gram matrix of a sparse row over the n^2 entries, row by row."""
    n = alg.dim
    rows = [{} for _ in range(n)]
    for t, x in flat.items():
        rows[t // n][t % n] = x
    return Matrix._of(alg.field, n, rows)


@dataclass(frozen=True)
class FrobeniusSolution:
    space: Subspace
    canonical: Optional[Matrix]
    ambiguous: bool
    axis_norms: Optional[Tuple]

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def has_form(self) -> bool:
        return self.space.dim > 0

    def basis_forms(self, alg: Algebra) -> Tuple[Matrix, ...]:
        return tuple(_gram_from_flat(alg, b) for b in self.space.rows.values())


def solve_frobenius(alg: Algebra) -> FrobeniusSolution:
    """Solution space plus a canonical pick normalized on the designated axes.

    Preference order: the unique form with every designated axis of norm 1;
    else a deterministic one normalized on the first axis (ambiguous flag set);
    else no canonical form.
    """
    space = frobenius_solution_space(alg)
    d = space.dim
    if d == 0:
        return FrobeniusSolution(space=space, canonical=None, ambiguous=False, axis_norms=None)
    grams = [_gram_from_flat(alg, b) for b in space.rows.values()]
    axes = [sparse(v) for v in alg.axis_vectors()]
    if not axes:
        return FrobeniusSolution(
            space=space, canonical=grams[0], ambiguous=d > 1, axis_norms=()
        )
    one = alg.field.one()
    norm_rows = [[_form(g, a, a) for g in grams] for a in axes]
    coeffs = Matrix._of(alg.field, d, map(sparse, norm_rows))
    rhs = tuple(one for _ in axes)
    y, free = solve_linear(coeffs, rhs)
    ambiguous = False
    if y is None or free.dim > 0:
        ambiguous = True
        first = Matrix._of(alg.field, d, [sparse(norm_rows[0])])
        y, _ = solve_linear(first, (one,))
        if y is None:
            return FrobeniusSolution(space=space, canonical=None, ambiguous=True, axis_norms=None)
    combined = combine((coef, vec.items()) for coef, vec in zip(y, space.rows.values()) if coef)
    gram = _gram_from_flat(alg, combined)
    norms = tuple(_form(gram, a, a) for a in axes)
    return FrobeniusSolution(space=space, canonical=gram, ambiguous=ambiguous, axis_norms=norms)


def is_symmetric_form(form: Matrix) -> bool:
    return form == form.transpose()


def form_radical(alg: Algebra, form: Matrix) -> Subspace:
    """Null space of the Gram matrix."""
    if form.nrows != alg.dim or form.ncols != alg.dim:
        raise Unsupported("Gram matrix size does not match the algebra")
    return kernel(form)


def radical(alg: Algebra, solution: Optional[FrobeniusSolution] = None) -> Subspace:
    """Radical relative to the designated axes, computed as the form radical.

    Valid only when a canonical Frobenius form exists and every designated
    axis has nonzero norm; outside that regime the maximal-ideal definition
    is not computed by other means.
    """
    if not alg.axes:
        raise Unsupported("radical needs designated axes")
    if solution is None:
        solution = solve_frobenius(alg)
    if solution.canonical is None:
        raise Unsupported("no canonical Frobenius form to take the radical of")
    if solution.axis_norms is None or any(not nrm for nrm in solution.axis_norms):
        raise Unsupported("a designated axis has zero norm; radical theorem does not apply")
    rad = form_radical(alg, solution.canonical)
    if not alg.is_ideal(rad):
        raise ConsistencyFailure("form radical failed the ideal closure check")
    return rad


def eigenspace_orthogonality_violations(
    alg: Algebra, form: Matrix, a, law: FusionLaw
) -> List[Tuple]:
    """Basis pairs from distinct eigenspaces of ad_a that are not orthogonal."""
    _, spaces = eigen_decomposition(alg, a, law)
    bad = []
    for i in range(law.size):
        for j in range(i + 1, law.size):
            for u in spaces[i].rows.values():
                for v in spaces[j].rows.values():
                    if _form(form, u, v):
                        bad.append((law.elements[i], law.elements[j], alg._dense(u), alg._dense(v)))
    return bad


@dataclass(frozen=True)
class ProjectionGraph:
    vertices: Tuple[int, ...]
    edges: Tuple[Tuple[int, int], ...]  # (a, b) means phi_a(b) != 0

    def has_edge(self, a: int, b: int) -> bool:
        return (a, b) in set(self.edges)

    @property
    def is_symmetric(self) -> bool:
        es = set(self.edges)
        return all((b, a) in es for a, b in es)


def projection_graph(alg: Algebra, axet: Axet) -> ProjectionGraph:
    """Directed graph on axes with an edge a -> b when phi_a(b) is nonzero."""
    axes = [sparse(v) for v in axet.axes]
    functionals = [_projection_functional(alg, v, axet.law) for v in axes]
    edges = []
    for ia, w in enumerate(functionals):
        for ib, v in enumerate(axes):
            if ia != ib and dot(alg.field, w, v):
                edges.append((ia, ib))
    return ProjectionGraph(vertices=tuple(range(axet.size)), edges=tuple(edges))
