"""Structure analyses: Seress lemma checks, non-annihilating graphs, sum
decompositions, spines and baric maps."""

from typing import Iterable, NamedTuple, Optional, Tuple, Union

from .algebra import Algebra
from .axes import Axet, _agree, _eigen_decomposition
from .errors import Unsupported
from .fusion import FusionLaw, is_seress
from .linalg import EchelonAccumulator, Subspace, cleared, close_span, dot, sparse
from .perms import classes


def _axis_list(alg: Algebra, axes: Union[Axet, Iterable]) -> Tuple[dict, ...]:
    """The axes as sparse rows; a caller's vectors are checked."""
    if isinstance(axes, Axet):
        return tuple(map(sparse, axes.axes))
    return tuple(map(alg._row, axes))


class SeressCheck(NamedTuple):
    ok: bool
    witness: Optional[Tuple] = None  # (x, y) with a(xy) != (ax)y


def seress_lemma_check(alg: Algebra, a, law: Optional[FusionLaw] = None) -> SeressCheck:
    """a(xy) = (ax)y for all x and all y in A_1(a) + A_0(a)."""
    law = alg._law(law, "the Seress lemma")
    if not is_seress(law):
        raise Unsupported("the Seress lemma needs a Seress fusion law")
    a = alg._row(a)
    one, zero = _eigen_decomposition(alg, a, law, (law.elements[law.one_index], law.elements[law.zero_index]))[1]
    # y outer, each basis x = e_j inner, on the int layout: with A a and Y y as
    # ints, both sides a(e_j y) and (a e_j) y come out times D^2 A Y
    p = alg.field.characteristic
    (ai,) = cleared(alg.field, [a])[1]
    ta = [alg._imul(ai, {j: 1}) for j in range(alg.dim)]
    for y in [*one.rows.values(), *zero.rows.values()]:
        (yi,) = cleared(alg.field, [y])[1]
        for j in range(alg.dim):
            if not _agree(alg._imul(ai, alg._imul({j: 1}, yi)), alg._imul(ta[j], yi), p):
                return SeressCheck(ok=False, witness=(alg.basis_vector(j), alg._dense(y)))
    return SeressCheck(ok=True)


class UndirectedGraph(NamedTuple):
    vertices: Tuple[int, ...]
    edges: Tuple[Tuple[int, int], ...]  # sorted pairs, no loops

    def components(self) -> Tuple[Tuple[int, ...], ...]:
        return classes(self.vertices, self.edges)


def non_annihilating_graph(alg: Algebra, axes: Union[Axet, Iterable]) -> UndirectedGraph:
    """Edge between distinct axes a, b whenever ab != 0."""
    return _graph(alg, _axis_list(alg, axes))


def _graph(alg: Algebra, vecs) -> UndirectedGraph:
    n = len(vecs)
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n) if alg._mul(vecs[i], vecs[j]))
    return UndirectedGraph(vertices=tuple(range(n)), edges=edges)


class SumDecomposition(NamedTuple):
    components: Tuple[Tuple[int, ...], ...]
    subalgebras: Tuple[Subspace, ...]
    pairwise_zero: bool
    direct: bool

    @property
    def count(self) -> int:
        return len(self.components)


def sum_decomposition(alg: Algebra, axes: Union[Axet, Iterable]) -> SumDecomposition:
    """Subalgebras generated by the non-annihilating components, with the
    pairwise-product and directness verdicts reported, not assumed."""
    vecs = _axis_list(alg, axes)
    comps = _graph(alg, vecs).components()
    subs = tuple(alg._subalgebra([vecs[i] for i in comp]) for comp in comps)
    pairwise_zero = not any(
        alg._mul(u, v)
        for i in range(len(subs)) for j in range(i + 1, len(subs))
        for u in subs[i].rows.values() for v in subs[j].rows.values()
    )
    stacked = (b for s in subs for b in s.rows.values())
    direct = EchelonAccumulator.of(alg.field, alg.dim, stacked).rank == sum(s.dim for s in subs)
    return SumDecomposition(
        components=comps, subalgebras=subs, pairwise_zero=pairwise_zero, direct=direct
    )


def spine(alg: Algebra, axes: Union[Axet, Iterable]) -> Subspace:
    """Smallest subspace containing the axes with a Q <= Q for each axis a."""
    vecs = _axis_list(alg, axes)
    acc = EchelonAccumulator(alg.field, alg.dim)
    return close_span(acc, vecs, lambda v, _: (alg._mul(a, v) for a in vecs)).subspace()


def is_slender(alg: Algebra, axes: Union[Axet, Iterable]) -> bool:
    return spine(alg, axes).dim == alg.dim


def baric_map_check(alg: Algebra, weights) -> bool:
    """Is v -> sum_k v_k w_k a nonzero algebra homomorphism to the base field?"""
    w = alg._row(weights)
    if not w:
        return False
    zero = alg.field.zero()
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            lhs = dot(alg.field, dict(alg._product_pairs(i, j)), w)
            if lhs != w.get(i, zero) * w.get(j, zero):
                return False
    return True
