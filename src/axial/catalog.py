"""Explicit algebra constructors: Matsuo algebras from 3-transposition data,
spin factors, split spin factors, the eight Norton-Sakuma algebras, double
axes and flip subalgebras."""

from typing import Dict, List, NamedTuple, Tuple

from .algebra import Algebra, form_value
from .errors import (
    AxialError,
    ConsistencyFailure,
    InvalidGroup,
    NotAFlip,
    NotAnAxis,
    NotAnAxisCandidate,
    NotOrthogonal,
    UnknownCatalogEntry,
    Unsupported,
    brief,
)
from .fields import QQ, FieldSpec
from .fusion import law_J, law_M
from .linalg import Matrix, as_vector, combine, dense, sparse
from .perms import (
    Perm,
    conjugate,
    format_cycles,
    identity_perm,
    mul,
    perm_order,
)


# Largest dimension of an algebra to build or to load from a document; past
# it a build or a load raises Unsupported before any work.  About twice the
# largest size in use (Matsuo S10, dim 45); the quotient of dim 99 builds in
# about 0.35 s (Fraction backend, 2-CPU VM).
MAX_BUILD_DIM = 100


def check_build_dim(dim: int, what: str):
    if dim > MAX_BUILD_DIM:
        raise Unsupported(f"{what} has dimension {brief(dim)}, past the build cap {MAX_BUILD_DIM}")


# ---------------------------------------------------------------------------
# 3-transposition groups and Matsuo algebras


class ThreeTranspositionGroup(NamedTuple):
    """A normal generating set D of involutions with |cd| <= 3 for c,d in D."""

    degree: int
    transpositions: Tuple[Perm, ...]

    @classmethod
    def symmetric(cls, n: int) -> "ThreeTranspositionGroup":
        """S_n acting on n points, D = the transposition class."""
        if n < 2:
            raise InvalidGroup("need at least two points for transpositions")
        check_build_dim(n * (n - 1) // 2, f"the Matsuo algebra of S_{brief(n)}")
        ident = list(identity_perm(n))
        ds = []
        for i in range(n):
            for j in range(i + 1, n):
                p = ident[:]
                p[i], p[j] = p[j], p[i]
                ds.append(tuple(p))
        return cls(degree=n, transpositions=tuple(ds))

    def validate(self) -> Dict[Tuple[int, int], int]:
        """Check the 3-transposition conditions on D and return its braid table
        {(i, j): k} for i < j: d_i d_j has order 3 and d_k = d_i^{d_j}.

        Pairs i < j suffice: cd and dc = (cd)^-1 have one order; commuting
        pairs conjugate to themselves; and for order 3, cdc = dcd gives
        c^d = d^c."""
        ds = self.transpositions
        if not ds:
            raise InvalidGroup("empty transposition set")
        index = {d: k for k, d in enumerate(ds)}
        if len(index) != len(ds):
            raise InvalidGroup("repeated elements in the transposition set")
        ident = identity_perm(self.degree)
        for d in ds:
            if len(d) != self.degree:
                raise InvalidGroup("degree mismatch in transposition set")
            if d == ident or mul(d, d) != ident:
                raise InvalidGroup("transposition set contains a non-involution")
        braids = {}
        for i, c in enumerate(ds):
            for j in range(i + 1, len(ds)):
                order = perm_order(mul(c, ds[j]))
                if order > 2:
                    k = index.get(conjugate(c, ds[j]))
                    if k is None:
                        raise InvalidGroup("set is not closed under conjugation")
                    if order > 3:
                        raise InvalidGroup("product of two transpositions has order > 3")
                    braids[(i, j)] = k
        return braids

    def names(self) -> Tuple[str, ...]:
        return tuple(format_cycles(d) for d in self.transpositions)


def matsuo(group: ThreeTranspositionGroup, eta, field: FieldSpec = QQ) -> Algebra:
    """Matsuo algebra: basis D, a.a = a, a.b = 0 when a,b commute, else
    (eta/2)(a + b - a^b); Gram 1 / 0 / eta/2 on the same three cases."""
    field._require_odd("a Matsuo algebra")
    eta = field.coerce(eta)
    law = law_J(field, eta)
    n = len(group.transpositions)
    check_build_dim(n, "the Matsuo algebra")
    braids = group.validate()
    one = field.one()
    half_eta = eta / field.from_int(2)
    products: Dict[Tuple[int, int], Dict[int, object]] = {(i, i): {i: one} for i in range(n)}
    gram = [{i: one} for i in range(n)]
    for (i, j), k in braids.items():
        products[(i, j)] = {i: half_eta, j: half_eta, k: -half_eta}
        gram[i][j] = half_eta
        gram[j][i] = half_eta
    names = group.names()
    axes = [(names[i], dense(field, {i: one}, n)) for i in range(n)]
    return Algebra(
        field,
        names,
        products,
        axes=axes,
        law=law,
        form=Matrix._of(field, n, gram),
    )


# ---------------------------------------------------------------------------
# Spin factors


class SpinFactor(NamedTuple):
    field: FieldSpec
    gram: Matrix
    algebra: Algebra

    def axis(self, u) -> Tuple:
        """Ambient vector (1 + u)/2 for u in V with b(u,u) = 2."""
        u = as_vector(self.field, u, self.gram.nrows)
        norm = form_value(self.gram, u, u)
        if norm != self.field.from_int(2):
            raise NotAnAxisCandidate("spin axis needs b(u,u) = 2")
        half = self.field.one() / self.field.from_int(2)
        return (half,) + tuple(half * x for x in u)


def _check_gram(field: FieldSpec, gram) -> Matrix:
    g = gram if isinstance(gram, Matrix) else Matrix(field, gram)
    if g.nrows != g.ncols:
        raise AxialError("gram matrix must be square")
    if g != g.transpose():
        raise AxialError("gram matrix must be symmetric")
    return g


def spin_factor(gram, field: FieldSpec = QQ) -> SpinFactor:
    """S(b) = F1 + V with uv = b(u,v)/2 * 1 and identity 1."""
    field._require_odd("a spin factor")
    g = _check_gram(field, gram)
    m = g.nrows
    half = field.one() / field.from_int(2)
    products: Dict[Tuple[int, int], Dict[int, object]] = {(0, 0): {0: field.one()}}
    for k in range(m):
        products[(0, k + 1)] = {k + 1: field.one()}
        for l, b in g.rows[k].items():
            if l >= k:
                products[(k + 1, l + 1)] = {0: half * b}
    names = ["1"] + [f"v{k + 1}" for k in range(m)]
    sf = SpinFactor(field=field, gram=g, algebra=None)  # axis() reads no algebra
    axes = []
    two = field.from_int(2)
    for k in range(m):
        unit = tuple(field.one() if t == k else field.zero() for t in range(m))
        if form_value(g, unit, unit) == two:
            axes.append((f"x+{k + 1}", sf.axis(unit)))
            axes.append((f"x-{k + 1}", sf.axis(tuple(-x for x in unit))))
    alg = Algebra(field, names, products, axes=axes, law=law_J(field, half))
    return sf._replace(algebra=alg)


# ---------------------------------------------------------------------------
# Split spin factors


class SplitSpinFactor(NamedTuple):
    field: FieldSpec
    gram: Matrix
    alpha: object
    algebra: Algebra

    def _check_unit(self, e) -> Tuple:
        e = as_vector(self.field, e, self.gram.nrows)
        if form_value(self.gram, e, e) != self.field.one():
            raise NotAnAxisCandidate("idempotent families need b(e,e) = 1")
        return e

    def fam_a(self, e) -> Tuple:
        """(e + alpha z1 + (alpha+1) z2)/2 for unit-norm e."""
        e = self._check_unit(e)
        half = self.field.one() / self.field.from_int(2)
        al = self.alpha
        return (half * al, half * (al + self.field.one())) + tuple(half * x for x in e)

    def fam_b(self, e) -> Tuple:
        """(e + (2-alpha) z1 + (1-alpha) z2)/2 for unit-norm e."""
        e = self._check_unit(e)
        half = self.field.one() / self.field.from_int(2)
        al = self.alpha
        two = self.field.from_int(2)
        return (half * (two - al), half * (self.field.one() - al)) + tuple(half * x for x in e)


def split_spin_factor(gram, alpha, field: FieldSpec = QQ) -> SplitSpinFactor:
    """S(b, alpha) = Fz1 + Fz2 + E with z1 e = alpha e, z2 e = (1-alpha) e and
    ef = -b(e,f) z where z = (alpha-2) alpha z1 + (alpha-1)(alpha+1) z2."""
    field._require_odd("a split spin factor")
    alpha = field.coerce(alpha)
    one, zero = field.one(), field.zero()
    two = field.from_int(2)
    law = law_M(field, alpha, one / two)
    g = _check_gram(field, gram)
    m = g.nrows
    z_coef_1 = (alpha - two) * alpha
    z_coef_2 = (alpha - one) * (alpha + one)
    products: Dict[Tuple[int, int], Dict[int, object]] = {
        (0, 0): {0: one},
        (1, 1): {1: one},
    }
    for k in range(m):
        products[(0, k + 2)] = {k + 2: alpha}
        products[(1, k + 2)] = {k + 2: one - alpha}
        for l, b in g.rows[k].items():
            if l >= k:
                products[(k + 2, l + 2)] = {0: -b * z_coef_1, 1: -b * z_coef_2}
    names = ["z1", "z2"] + [f"e{k + 1}" for k in range(m)]
    ssf = SplitSpinFactor(field=field, gram=g, alpha=alpha, algebra=None)  # fam_a() reads no algebra
    axes: List[Tuple[str, Tuple]] = [("z1", dense(field, {0: one}, m + 2))]
    for k in range(m):
        unit = tuple(one if t == k else zero for t in range(m))
        if form_value(g, unit, unit) == one:
            axes.append((f"a:e{k + 1}", ssf.fam_a(unit)))
            if m == 1:
                axes.append((f"a:-e{k + 1}", ssf.fam_a(tuple(-x for x in unit))))
    return ssf._replace(algebra=Algebra(field, names, products, axes=axes, law=law))


# ---------------------------------------------------------------------------
# Norton-Sakuma algebras

# Products and form values as printed, completed by the affine index maps
# i -> eps*i + c on Z/n with the rho-power elements held fixed.  The listed
# seeds for unprinted entries come from the embedded 2A / 3A subalgebras.
_NS_TABLE = {
    "2A": {
        "n": 2,
        "window": (0, 1),
        "extras": ("arho",),
        "products": [
            ("a0", "a0", {"a0": "1"}),
            ("arho", "arho", {"arho": "1"}),
            ("a0", "a1", {"a0": "1/8", "a1": "1/8", "arho": "-1/8"}),
            ("a0", "arho", {"a0": "1/8", "arho": "1/8", "a1": "-1/8"}),
        ],
        "gram": [
            ("a0", "a0", "1"),
            ("arho", "arho", "1"),
            ("a0", "a1", "1/8"),
            ("a0", "arho", "1/8"),
        ],
    },
    "2B": {
        "n": 2,
        "window": (0, 1),
        "extras": (),
        "products": [
            ("a0", "a0", {"a0": "1"}),
            ("a0", "a1", {}),
        ],
        "gram": [
            ("a0", "a0", "1"),
            ("a0", "a1", "0"),
        ],
    },
    "3A": {
        "n": 3,
        "window": (-1, 0, 1),
        "extras": ("urho",),
        "products": [
            ("a0", "a0", {"a0": "1"}),
            ("urho", "urho", {"urho": "1"}),
            ("a0", "a1", {"a0": "1/16", "a1": "1/16", "a-1": "1/32", "urho": "-135/2048"}),
            ("a0", "urho", {"a0": "2/9", "a1": "-1/9", "a-1": "-1/9", "urho": "5/32"}),
        ],
        "gram": [
            ("a0", "a0", "1"),
            ("a0", "a1", "13/256"),
            ("a0", "urho", "1/4"),
            ("urho", "urho", "8/5"),
        ],
    },
    "3C": {
        "n": 3,
        "window": (-1, 0, 1),
        "extras": (),
        "products": [
            ("a0", "a0", {"a0": "1"}),
            ("a0", "a1", {"a0": "1/64", "a1": "1/64", "a-1": "-1/64"}),
        ],
        "gram": [
            ("a0", "a0", "1"),
            ("a0", "a1", "1/64"),
        ],
    },
    "4A": {
        "n": 4,
        "window": (-1, 0, 1, 2),
        "extras": ("vrho",),
        "products": [
            ("a0", "a0", {"a0": "1"}),
            ("vrho", "vrho", {"vrho": "1"}),
            ("a0", "a1", {"a0": "3/64", "a1": "3/64", "a-1": "1/64", "a2": "1/64", "vrho": "-3/64"}),
            ("a0", "a2", {}),
            ("a0", "vrho", {"a0": "5/16", "a1": "-1/8", "a2": "-1/16", "a-1": "-1/8", "vrho": "3/16"}),
        ],
        "gram": [
            ("a0", "a0", "1"),
            ("a0", "a1", "1/32"),
            ("a0", "a2", "0"),
            ("a0", "vrho", "3/8"),
            ("vrho", "vrho", "2"),
        ],
    },
    "4B": {
        "n": 4,
        "window": (-1, 0, 1, 2),
        "extras": ("arho2",),
        "products": [
            ("a0", "a0", {"a0": "1"}),
            ("arho2", "arho2", {"arho2": "1"}),
            ("a0", "a1", {"a0": "1/64", "a1": "1/64", "a-1": "-1/64", "a2": "-1/64", "arho2": "1/64"}),
            ("a0", "a2", {"a0": "1/8", "a2": "1/8", "arho2": "-1/8"}),
            ("a0", "arho2", {"a0": "1/8", "arho2": "1/8", "a2": "-1/8"}),
        ],
        "gram": [
            ("a0", "a0", "1"),
            ("arho2", "arho2", "1"),
            ("a0", "a1", "1/64"),
            ("a0", "a2", "1/8"),
            ("a0", "arho2", "1/8"),
        ],
    },
    "5A": {
        "n": 5,
        "window": (-2, -1, 0, 1, 2),
        "extras": ("wrho",),
        "products": [
            ("a0", "a0", {"a0": "1"}),
            ("a0", "a1", {"a0": "3/128", "a1": "3/128", "a2": "-1/128", "a-1": "-1/128", "a-2": "-1/128", "wrho": "1"}),
            ("a0", "a2", {"a0": "3/128", "a2": "3/128", "a1": "-1/128", "a-1": "-1/128", "a-2": "-1/128", "wrho": "-1"}),
            ("a0", "wrho", {"a1": "7/4096", "a-1": "7/4096", "a2": "-7/4096", "a-2": "-7/4096", "wrho": "7/32"}),
            ("wrho", "wrho", {"a-2": "175/524288", "a-1": "175/524288", "a0": "175/524288", "a1": "175/524288", "a2": "175/524288"}),
        ],
        "gram": [
            ("a0", "a0", "1"),
            ("a0", "a1", "3/128"),
            ("a0", "a2", "3/128"),
            ("a0", "wrho", "0"),
            ("wrho", "wrho", "875/524288"),
        ],
    },
    "6A": {
        "n": 6,
        "window": (-2, -1, 0, 1, 2, 3),
        "extras": ("arho3", "urho2"),
        "products": [
            ("a0", "a0", {"a0": "1"}),
            ("arho3", "arho3", {"arho3": "1"}),
            ("urho2", "urho2", {"urho2": "1"}),
            ("a0", "a1", {"a0": "1/64", "a1": "1/64", "a-2": "-1/64", "a-1": "-1/64", "a2": "-1/64", "a3": "-1/64", "arho3": "1/64", "urho2": "45/2048"}),
            ("a0", "a2", {"a0": "1/16", "a2": "1/16", "a-2": "1/32", "urho2": "-135/2048"}),
            ("a0", "a3", {"a0": "1/8", "a3": "1/8", "arho3": "-1/8"}),
            ("a0", "urho2", {"a0": "2/9", "a2": "-1/9", "a-2": "-1/9", "urho2": "5/32"}),
            ("a0", "arho3", {"a0": "1/8", "arho3": "1/8", "a3": "-1/8"}),
            ("arho3", "urho2", {}),
        ],
        "gram": [
            ("a0", "a0", "1"),
            ("a0", "a1", "5/256"),
            ("a0", "a2", "13/256"),
            ("a0", "a3", "1/8"),
            ("a0", "arho3", "1/8"),
            ("a0", "urho2", "1/4"),
            ("arho3", "arho3", "1"),
            ("arho3", "urho2", "0"),
            ("urho2", "urho2", "8/5"),
        ],
    },
}

NORTON_SAKUMA_NAMES = tuple(sorted(_NS_TABLE))
NORTON_SAKUMA_DIMS = {
    "2A": 3, "2B": 2, "3A": 4, "3C": 3, "4A": 5, "4B": 5, "5A": 6, "6A": 8,
}


def _ns_complete(key: str, what: str, entries, maps, symbols, image) -> Dict[Tuple[int, int], object]:
    """{(i, j): value} for i <= j, from each printed (s, t, value) sent through
    every index map; two images of a pair must agree, and every pair must be
    reached."""
    table = {}
    for f in maps:
        for s, t, val in entries:
            i, j = sorted((f[s], f[t]))
            v = image(f, val)
            if table.setdefault((i, j), v) != v:
                raise ConsistencyFailure(f"{key}: inconsistent {what} at {(symbols[i], symbols[j])}")
    dim = len(symbols)
    missing = [(symbols[i], symbols[j]) for i in range(dim) for j in range(i, dim) if (i, j) not in table]
    if missing:
        raise ConsistencyFailure(f"{key}: {what} {missing[0]} not determined by the table")
    return table


def norton_sakuma(name: str, field: FieldSpec = QQ) -> Algebra:
    """One of the eight 2-generated algebras of Monster type (1/4, 1/32)."""
    key = name.strip().upper()
    if key not in _NS_TABLE:
        raise UnknownCatalogEntry(f"unknown Norton-Sakuma label {brief(name)}")
    if field.kind != "rational":
        raise Unsupported("Norton-Sakuma tables are defined over the rationals")
    spec = _NS_TABLE[key]
    n, window, extras = spec["n"], spec["window"], spec["extras"]
    symbols = [f"a{w}" for w in window] + list(extras)
    fixed = {x: n + k for k, x in enumerate(extras)}
    # a_i -> a_(eps i + c) as basis indices; the first map is the identity
    maps = [{f"a{w}": (eps * w + c - window[0]) % n for w in window} | fixed
            for eps in (1, -1) for c in range(n)]
    products = _ns_complete(key, "product", spec["products"], maps, symbols,
                            lambda f, val: {f[u]: field.parse(x) for u, x in val.items()})
    form_values = _ns_complete(key, "form value", spec["gram"], maps, symbols, lambda f, x: field.parse(x))
    gram = [{} for _ in symbols]
    for (i, j), v in form_values.items():
        if v:
            gram[i][j] = v
            gram[j][i] = v

    axis_order = ["a0", "a1"] + [f"a{w}" for w in window if w not in (0, 1)]
    axes = [(s, dense(field, {maps[0][s]: field.one()}, len(symbols))) for s in axis_order]
    law = law_M(field, field.parse("1/4"), field.parse("1/32"))
    form = Matrix._of(field, len(symbols), gram)
    alg = Algebra(field, symbols, products, axes=axes, law=law, form=form)
    if alg.dim != NORTON_SAKUMA_DIMS[key]:
        raise ConsistencyFailure(f"{key}: unexpected dimension {alg.dim}")
    return alg


# ---------------------------------------------------------------------------
# Double axes and flip subalgebras


def double_axis(m: Algebra, a, b) -> Tuple:
    """a + b for orthogonal axes; idempotent precisely because ab = 0."""
    a, b = m._row(a), m._row(b)
    if m._mul(a, a) != a or m._mul(b, b) != b:
        raise NotAnAxis("double axis summands must be idempotent")
    if m._mul(a, b):
        raise NotOrthogonal("double axis needs ab = 0")
    one = m.field.one()
    return m._dense(combine(((one, a.items()), (one, b.items()))))


class FlipSubalgebra(NamedTuple):
    algebra: Algebra
    ambient: Algebra
    embed: Matrix
    sigma: Perm
    singles: Tuple[str, ...]
    doubles: Tuple[str, ...]
    extras: Tuple[str, ...]


def flip_subalgebra(
    group: ThreeTranspositionGroup,
    eta,
    sigma: Perm,
    field: FieldSpec = QQ,
) -> FlipSubalgebra:
    """Fixed single and double axes of an involutive diagram automorphism,
    generating a subalgebra of Monster type (2 eta, eta)."""
    ambient = matsuo(group, eta, field)
    eta = field.coerce(eta)
    ds = group.transpositions
    index = {d: i for i, d in enumerate(ds)}
    if len(sigma) != group.degree:
        raise NotAFlip("flip degree does not match the group")
    if mul(sigma, sigma) != identity_perm(group.degree):
        raise NotAFlip("flip must be an involution (or identity)")
    try:
        induced = tuple(index[conjugate(d, sigma)] for d in ds)
    except KeyError:
        raise NotAFlip("flip does not preserve the transposition set")

    names = group.names()
    singles: List[Tuple[str, Tuple]] = []
    doubles: List[Tuple[str, Tuple]] = []
    extras: List[str] = []
    for i, j in enumerate(induced):  # sigma is an involution, so is induced
        if j == i:
            singles.append((f"s:{names[i]}", ambient.basis_vector(i)))
        elif i < j:
            pair_name = f"{names[i]}+{names[j]}"
            if not ambient._product_pairs(i, j):  # d_i, d_j commute
                doubles.append(
                    (f"d:{pair_name}", double_axis(m=ambient, a=ambient.basis_vector(i), b=ambient.basis_vector(j)))
                )
            else:
                extras.append(f"x:{pair_name}")

    gens = [sparse(v) for _, v in singles + doubles]
    if not gens:
        raise NotAFlip("flip leaves no single or double axes to generate from")
    sub = ambient._subalgebra(gens)
    law = law_M(field, field.from_int(2) * eta, eta)
    alg, embed = ambient.restrict(sub, axes=singles + doubles, law=law)
    return FlipSubalgebra(
        algebra=alg,
        ambient=ambient,
        embed=embed,
        sigma=sigma,
        singles=tuple(nm for nm, _ in singles),
        doubles=tuple(nm for nm, _ in doubles),
        extras=tuple(extras),
    )
