"""Permutations as image tuples on {0..n-1}, cycle notation, group orders.

Composition is left-to-right: mul(p, q) applies p first, then q, so
conjugation a^b = mul(mul(inverse(b), a), b).
"""

from math import lcm, prod
from typing import Iterable, Tuple

from .errors import InvalidGroup, MalformedInput, brief
from .fields import parse_int

Perm = Tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def mul(p: Perm, q: Perm) -> Perm:
    """x -> q(p(x))."""
    return tuple(q[x] for x in p)


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def conjugate(a: Perm, b: Perm) -> Perm:
    """a^b = b^-1 a b."""
    return mul(mul(inverse(b), a), b)


def perm_order(p: Perm) -> int:
    """The lcm of the cycle lengths of p."""
    seen, lengths = [False] * len(p), []
    for i in range(len(p)):
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j, length = p[j], length + 1
        lengths.append(length or 1)  # 0 when i lies on a cycle already counted
    return lcm(*lengths)


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse 1-based cycle notation like "(1 2)(3 4)"; "()" is the identity."""
    s = text.strip()
    images = list(range(degree))
    if s in ("", "()"):
        return tuple(images)
    if not (s.startswith("(") and s.endswith(")")):
        raise InvalidGroup(f"bad cycle notation {brief(text)}")
    for chunk in s[1:-1].split(")("):
        pts = [tok for tok in chunk.replace(",", " ").split() if tok]
        try:
            cyc = [parse_int(tok) - 1 for tok in pts]
        except MalformedInput:
            raise InvalidGroup(f"bad cycle notation {brief(text)}") from None
        if len(cyc) < 2 or len(set(cyc)) != len(cyc):
            raise InvalidGroup(f"bad cycle {brief(chunk)} in {brief(text)}")
        for x in cyc:
            if not 0 <= x < degree:
                raise InvalidGroup(f"point {brief(x + 1)} out of range 1..{degree}")
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if images[a] != a:
                raise InvalidGroup(f"point {a + 1} repeated across cycles in {brief(text)}")
            images[a] = b
    return tuple(images)


def format_cycles(p: Perm) -> str:
    n = len(p)
    seen = [False] * n
    parts = []
    for i in range(n):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j + 1)
            j = p[j]
        parts.append("(" + " ".join(str(x) for x in cyc) + ")")
    return "".join(parts) if parts else "()"


def group_order(degree: int, generators: Iterable[Perm]) -> int:
    """|<generators>| as the product of the basic orbit lengths of a base and
    strong generating set built by deterministic Schreier-Sims (Sims 1970;
    Seress, "Permutation Group Algorithms", ch. 4).  Its cost is polynomial in
    the degree, whatever the order; callers bound the degree."""
    e = identity_perm(degree)
    generators = [tuple(g) for g in generators]
    base, gens, orbits = [], [], []  # per level l: point, generators, {u[base[l]]: (u, u^-1)}

    def sift(g, level):
        for l in range(level, len(base)):
            u = orbits[l].get(g[base[l]])
            if u is None:
                return g, l
            g = mul(g, u[1])
        return g, len(base)

    def add(h, top, j):
        """h fixes base[:top] and sifted to level j: a strong generator of top..j."""
        if j == len(base):
            base.append(next(x for x in range(degree) if h[x] != x))
            gens.append([])
            orbits.append({base[-1]: (e, e)})
        for l in range(top, j + 1):
            gens[l].append(h)
            orbit, points = orbits[l], list(orbits[l])  # points grows while it is walked
            for p in points:
                for s in gens[l]:
                    if s[p] not in orbit:
                        u = mul(orbit[p][0], s)
                        orbit[s[p]] = u, inverse(u)
                        points.append(s[p])

    # Schreier's lemma: the chain is complete once every Schreier generator of
    # each level i sifts through the levels below it, and the generators sift
    # through all of them (level -1).  A residue stopped at level j joins every
    # level i + 1..j, not level j alone, and the check resumes at level j.
    i = -1
    while i >= -1:
        orbit = orbits[i] if i >= 0 else {}
        words = (mul(mul(u, s), orbit[s[p]][1]) for p, (u, _) in orbit.items() for s in gens[i])
        for h, j in (sift(g, i + 1) for g in (words if i >= 0 else generators)):
            if h != e:
                add(h, i + 1, j)
                i = j
                break
        else:
            i -= 1
    return prod(map(len, orbits))


def classes(items: Iterable[int], pairs: Iterable[Tuple[int, int]]) -> Tuple[Tuple[int, ...], ...]:
    """Classes of the equivalence on items that the pairs generate (union-find),
    each sorted, in the order of their least elements."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    buckets = {}
    for x in sorted(parent):  # a class's root is its least element, met first
        buckets.setdefault(find(x), []).append(x)
    return tuple(map(tuple, buckets.values()))
