"""The simply-laced root systems D_n and E_n from their Cartan matrices, for
Matsuo algebras of Weyl groups: exact oracles outside S_n.

A root is an integer vector on the simple roots.  The symmetric Cartan
matrix C is the Gram matrix of the simple roots, so (a, b) = a C b^T and the
reflection in a root a is b -> b - (a, b) a.  The roots are the simple roots
closed under the simple reflections.  The reflections in the positive roots
form a class of 3-transpositions of the Weyl group W, each acting on the
roots as a permutation.  W acts on that class by conjugation with kernel
Z(W), which is {1, -1} when -1 lies in W and trivial otherwise.
"""

from math import factorial

from axial.catalog import ThreeTranspositionGroup


def cartan(kind: str, n: int):
    """The Cartan matrix of D_n or E_n, from the edges of its Dynkin diagram: a
    path 0..n-2, with node n-1 joined to node n-3 (D_n) or to node 2 (E_n)."""
    edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3 if kind == "D" else 2, n - 1)]
    c = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in edges:
        c[i][j] = c[j][i] = -1
    return c


def roots(c):
    """Every root of the Cartan matrix c, sorted."""
    n = len(c)
    simple = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    found, frontier = set(simple), simple
    while frontier:
        frontier = {r for b in frontier for a in simple if (r := reflect(c, a, b)) not in found}
        found |= frontier
    return sorted(found)


def reflect(c, a, b):
    """The image of the root b under the reflection in the root a."""
    n = len(c)
    f = sum(a[i] * c[i][j] * b[j] for i in range(n) for j in range(n))
    return tuple(y - f * x for x, y in zip(a, b))


def reflections(kind: str, n: int) -> ThreeTranspositionGroup:
    """The reflections in the positive roots of D_n or E_n, as permutations of
    all its roots, by increasing height: the n simple reflections come first."""
    c = cartan(kind, n)
    rs = roots(c)
    at = {r: k for k, r in enumerate(rs)}
    mirrors = sorted((r for r in rs if min(r) >= 0), key=lambda r: (sum(r), r))
    return ThreeTranspositionGroup(
        degree=len(rs), transpositions=tuple(tuple(at[reflect(c, a, b)] for b in rs) for a in mirrors))


def weyl_order(kind: str, n: int) -> int:
    """|W| of D_n or E_6..E_8."""
    return 2 ** (n - 1) * factorial(n) if kind == "D" else {6: 51840, 7: 2903040, 8: 696729600}[n]


def has_minus_one(kind: str, n: int) -> bool:
    """Whether -1 lies in W: for D_n with n even, E_7 and E_8, not E_6."""
    return n % 2 == 0 if kind == "D" else n in (7, 8)
