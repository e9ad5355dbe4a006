"""Frobenius forms: associativity solver, canonical normalization, radicals,
eigenspace orthogonality and projection graphs."""

from math import gcd, isqrt
from typing import List, NamedTuple, Optional, Tuple

from .algebra import Algebra, _form
from .axes import Axet, _eigen_decomposition, _projection_functional
from .errors import ConsistencyFailure, Unsupported
from .fields import _is_prime, rational
from .fusion import FusionLaw
from .linalg import EchelonAccumulator, Matrix, Subspace, cleared, combine, dot, kernel, solve_linear, sparse


def _primes():
    """Every prime below 2^61, largest first: the ladder of `_lifted`.  The
    first three are written out, so that a solve that lifts tests no primes."""
    yield from (2**61 - 1, 2**61 - 31, 2**61 - 45)
    yield from (p for p in range(2**61 - 46, 1, -1) if _is_prime(p))


def frobenius_solution_space(alg: Algebra) -> Subspace:
    """All bilinear forms with (u, vw) = (uv, w), as flat n^2 vectors.

    Only associativity is imposed; symmetry of the solutions is a theorem,
    not a constraint, and is checked downstream.  The equations come from
    the int layout `Algebra._int_layout`, whose scaling by D over Q leaves
    the solutions alone.  `_kernel` eliminates them block by block on ints
    mod a prime: p over F_p, and over Q each prime of `_primes` until the
    lift certifies (`_lifted`).  One echelon of the kernel vectors gives the
    reduced basis of the exact solution space.
    """
    field = alg.field
    if field.kind == "rational":
        return EchelonAccumulator.of(field, alg.dim ** 2, _lifted(alg)).subspace()
    free = _kernel(alg, alg._int_layout()[1], field.p)[1].values()
    rows = ({c: field.from_int(x) for c, x in row.items()} for row in free)
    return EchelonAccumulator.of(field, alg.dim ** 2, rows).subspace()


def _block(n: int, ad, j: int):
    """Block j of the equations: G ad_j = ad_j^T G, as the rows (i, j, l) for
    every i and l.  Row (i, j, l) is sum_m c_jl^m X[i, m] - c_ij^m X[m, l] = 0,
    (e_i, e_j e_l) = (e_i e_j, e_l), sparse over the n^2 Gram entries, from
    the layout `Algebra._int_layout`."""
    right = ad[j]
    for i in range(n):
        left = ad[i][j]
        for l in range(n):
            row = {i * n + m: c for m, c in right[l]}
            for m, c in left:
                k = m * n + l
                t = row.pop(k, None)
                t = -c if t is None else t - c
                if t:
                    row[k] = t
            yield row


def _solves(n: int, ad, g: dict, blocks, p: Optional[int] = None) -> bool:
    """Whether the flat Gram vector g of ints solves every equation of `blocks`
    of the int layout `ad`, mod p or, without p, over Z.  Block j is the matrix
    G ad_j - ad_j^T G, read by columns and rows, and the first non-zero fails."""
    cols, rows = {}, {}
    for t, x in g.items():
        a, b = divmod(t, n)
        cols.setdefault(b, []).append((a, x))
        rows.setdefault(a, []).append((b, x))
    for j in blocks:
        d = {}
        for l, pairs in enumerate(ad[j]):
            for m, c in pairs:
                for a, x in cols.get(m, ()):  # (G ad_j)[a, l] gets G[a, m] c_jl^m
                    k = a * n + l
                    d[k] = d.get(k, 0) + x * c
                for b, x in rows.get(m, ()):  # (ad_j^T G)[l, b] gets c_jl^m G[m, b]
                    k = l * n + b
                    d[k] = d.get(k, 0) - x * c
        if any(y % p if p else y for y in d.values()):
            return False
    return True


def _kernel(alg: Algebra, ad, p: int):
    """(pivot columns, kernel basis by free column) of the equations of the
    int layout `ad` (see `Algebra._int_layout`), eliminated mod the prime p.

    The layout is reduced mod p once, so every row fed has entries below p
    in absolute value.  The blocks j = 0, 1, ... are fed in turn, and the
    feed stops once every kernel vector of the blocks fed solves the blocks
    left.  That stop is exact: the kernel of the blocks fed holds the kernel
    of all of them, so when its basis solves the rest the two kernels, and
    so their reduced echelon forms, are equal.
    """
    n = alg.dim
    ad = [[tuple((m, r) for m, c in pairs if (r := c % p)) for pairs in row] for row in ad]
    acc = EchelonAccumulator(alg.field, n * n, p)
    free = {}
    for j in range(n):
        for row in _block(n, ad, j):
            acc.add_row(row)
        free = acc.kernel_basis()
        if all(_solves(n, ad, g, range(j + 1, n), p) for g in free.values()):
            break
    return tuple(sorted(acc.rows)), free


def _lifted(alg: Algebra) -> list:
    """A basis of the solution space over Q, lifted from kernels mod the
    primes of `_primes` and certified; all read one int layout.

    A prime whose echelon has a larger rank, or the same rank with earlier
    pivot columns, than the primes kept so far replaces them; one with the
    same pivots joins them.  Over Q the rank is largest and the pivots come
    first, and where a prime has those too, the echelon mod p is the echelon
    over Q reduced mod p.  The kernel bases of the primes kept are combined
    by CRT, so each one widens the range in which every entry is lifted to Q
    by rational reconstruction.  The ladder ends: finitely many primes give
    a lower rank or later pivots, and the others' product outgrows any entry.

    The lift is reported only if each vector, its denominators cleared,
    solves every equation over Z.  That is exact: rank mod p <= rank over Q,
    so the nullity mod p is at least the nullity over Q, and the certified
    vectors are that many independent solutions (each is 1 at its own free
    column and 0 at the others).  So they span the solution space.
    """
    n, ad = alg.dim, alg._int_layout()[1]
    kept, residues, modulus = None, None, 1
    for p in _primes():
        pivots, free = _kernel(alg, ad, p)
        profile = (-len(pivots), pivots)
        if kept is None or profile < kept:
            kept, residues, modulus = profile, free, p
        elif profile == kept:
            residues = {f: _crt(residues[f], modulus, free[f], p) for f in free}
            modulus *= p
        else:
            continue
        lifted = _lift(residues, modulus)
        if lifted is not None and all(_solves(n, ad, cleared(alg.field, [row])[1][0], range(n)) for row in lifted):
            return lifted


def _crt(a: dict, m: int, b: dict, p: int) -> dict:
    """The sparse row of ints in [0, m p) congruent to a mod m and to b mod p."""
    inv = pow(m, -1, p)
    out = {}
    for c in a.keys() | b.keys():
        x = a.get(c, 0)
        x += m * ((b.get(c, 0) - x) * inv % p)
        if x:
            out[c] = x
    return out


def _lift(rows: dict, m: int) -> Optional[list]:
    """The rows with every entry mod m reconstructed as a fraction, or None
    if one has no reconstruction."""
    out = []
    for row in rows.values():
        out.append({c: _reconstruct(x, m) for c, x in row.items()})
        if None in out[-1].values():
            return None
    return out


def _reconstruct(u: int, m: int):
    """The fraction a/b = u mod m with |a| and b at most sqrt(m/2), or None
    (Wang's rational reconstruction by the half extended Euclidean algorithm)."""
    bound = isqrt(m // 2)
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return rational(r1, s1)


def _gram_from_flat(alg: Algebra, flat) -> Matrix:
    """The Gram matrix of a sparse row over the n^2 entries, row by row."""
    n = alg.dim
    rows = [{} for _ in range(n)]
    for t, x in flat.items():
        rows[t // n][t % n] = x
    return Matrix._of(alg.field, n, rows)


class FrobeniusSolution(NamedTuple):
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
    return kernel(alg._gram(form))


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
    alg: Algebra, form: Matrix, a, law: Optional[FusionLaw] = None
) -> List[Tuple]:
    """Basis pairs from distinct eigenspaces of ad_a that are not orthogonal."""
    law = alg._law(law, "an orthogonality check")
    form = alg._gram(form)
    spaces = _eigen_decomposition(alg, alg._row(a), law)[1]
    bad = []
    for i in range(law.size):
        for j in range(i + 1, law.size):
            for u in spaces[i].rows.values():
                for v in spaces[j].rows.values():
                    if _form(form, u, v):
                        bad.append((law.elements[i], law.elements[j], alg._dense(u), alg._dense(v)))
    return bad


class ProjectionGraph(NamedTuple):
    vertices: Tuple[int, ...]
    edges: Tuple[Tuple[int, int], ...]  # (a, b) means phi_a(b) != 0

    @property
    def is_symmetric(self) -> bool:
        es = set(self.edges)
        return all((b, a) in es for a, b in es)


def projection_graph(alg: Algebra, axet: Axet) -> ProjectionGraph:
    """Directed graph on axes with an edge a -> b when phi_a(b) is nonzero;
    each phi_a comes from the eigenspaces in a's report in the axet of alg."""
    axes = [sparse(v) for v in axet.axes]
    spaces = (r.eigenspaces for r in axet.reports)
    functionals = [_projection_functional(alg, v, axet.law, s) for v, s in zip(axes, spaces)]
    edges = []
    for ia, w in enumerate(functionals):
        for ib, v in enumerate(axes):
            if ia != ib and dot(alg.field, w, v):
                edges.append((ia, ib))
    return ProjectionGraph(vertices=tuple(range(axet.size)), edges=tuple(edges))
