"""Axis verification, eigenspace decompositions, Miyamoto maps, axis-set
closure, Miyamoto groups and 2-generated axet classification."""

from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Tuple

from .algebra import Algebra
from .errors import (
    ClosureCapExceeded,
    ConsistencyFailure,
    DegenerateParameters,
    InvalidField,
    InvalidGrading,
    NotAnAxis,
    NotPrimitive,
    NotSemisimple,
    NotTwoGenerated,
    Unsupported,
    brief,
)
from .fusion import FusionLaw, Grading, unique_adequate_grading
from .linalg import (
    EchelonAccumulator, Matrix, Subspace, cleared, combine, dot, invert, kernel, row_key, scaled, sparse,
)
from .perms import Perm, classes, group_order

# The one bound of the Miyamoto pipeline: the closed set is the degree of the
# group, which Schreier-Sims costs by.  128 admits Matsuo S14 (91 axes), the
# largest that builds, and stops an infinite closure within seconds.
DEFAULT_AXIS_CAP = 128


def eigenspace(alg: Algebra, a, lam) -> Subspace:
    """A_lam(a) = { x : a x = lam x } as the kernel of ad_a - lam I."""
    return kernel(alg.adjoint(a).minus_scalar_diag(alg.field.coerce(lam)))


def eigen_decomposition(alg: Algebra, a, law: FusionLaw):
    """Eigenspaces of ad_a at each law eigenvalue, in law element order."""
    return _eigen_decomposition(alg, alg._row(a), law)


def _eigen_decomposition(alg: Algebra, a, law: FusionLaw, lams=None):
    """(dims, spaces) of ad_a at each of lams, by default the law's elements."""
    if law.field != alg.field:
        raise InvalidField(f"fusion law over {law.field} for an algebra over {alg.field}")
    ad = alg._adjoint(a)
    spaces = tuple(kernel(ad.minus_scalar_diag(lam)) for lam in (law.elements if lams is None else lams))
    return tuple(s.dim for s in spaces), spaces


@dataclass(frozen=True)
class AxisReport:
    axis: Tuple
    law: FusionLaw
    is_idempotent: bool
    eigen_dims: Tuple[int, ...]
    eigenspaces: Tuple[Subspace, ...]
    is_semisimple: bool
    fusion_violations: Tuple[Tuple, ...]
    is_primitive: bool

    @property
    def passed(self) -> bool:
        return self.is_idempotent and self.is_semisimple and not self.fusion_violations

    def eigen_dim(self, lam) -> int:
        return self.eigen_dims[self.law.index_of(lam)]

    def describe(self) -> str:
        dims = ", ".join(
            f"{self.law.field.fmt(lam)}: {d}"
            for lam, d in zip(self.law.elements, self.eigen_dims)
        )
        status = "axis" if self.passed else "NOT an axis"
        prim = ", primitive" if self.is_primitive else ""
        return f"{status} ({dims}){prim}"


def check_axis(alg: Algebra, a, law: FusionLaw) -> AxisReport:
    """Full axis verification: idempotency, semisimple decomposition, fusion.

    Failures are recorded in the report, never raised.
    """
    return _check_axis(alg, alg._row(a), law)


def _check_axis(alg: Algebra, a, law: FusionLaw) -> AxisReport:
    """check_axis for a sparse row a; the fusion products run on the int
    layout, each eigenvector cleared to ints (see `_in_span`)."""
    is_idem = alg._mul(a, a) == a
    dims, spaces = _eigen_decomposition(alg, a, law)
    field, p = alg.field, alg.field.characteristic
    violations = []
    targets = {}
    for cell in {c for row in law.table for c in row}:
        rows = EchelonAccumulator.of(field, alg.dim, (b for k in sorted(cell) for b in spaces[k].rows.values())).rows
        den, ints = cleared(field, list(rows.values()))
        targets[cell] = den, {q: tuple(r.items()) for q, r in zip(rows, ints)}
    eigen = [[(u, cleared(field, [u])[1][0]) for u in s.rows.values()] for s in spaces]
    for i in range(law.size):
        for j in range(i, law.size):  # the law is symmetric, and so is the product
            den, tgt = targets[law.table[i][j]]
            vs = eigen[j]
            for r, (u, ui) in enumerate(eigen[i]):
                for v, vi in vs[r if i == j else 0:]:
                    if not _in_span(alg._imul(ui, vi), den, tgt, p):
                        violations.append((law.elements[i], law.elements[j], alg._dense(u), alg._dense(v)))

    primitive = is_idem and dims[law.one_index] == 1
    return AxisReport(
        axis=alg._dense(a),
        law=law,
        is_idempotent=is_idem,
        eigen_dims=dims,
        eigenspaces=spaces,
        is_semisimple=sum(dims) == alg.dim,  # distinct eigenvalues: independent spaces
        fusion_violations=tuple(violations),
        is_primitive=primitive,
    )


def _agree(x: dict, y: dict, p: int) -> bool:
    """Whether two sparse rows of ints are equal: over Z, or mod p when p > 0,
    where each entry of x - y is tested once."""
    if not p:
        return x == y
    get = y.get
    for k, c in x.items():
        if (c - get(k, 0)) % p:
            return False
    for k, c in y.items():
        if k not in x and c % p:
            return False
    return True


def _in_span(w: dict, den: int, rows: dict, p: int) -> bool:
    """Whether the sparse row w of ints lies in the span of the reduced echelon
    rows[q] / den, by pivot q: iff den w = sum_q w[q] rows[q]."""
    return _agree(scaled(den, w), combine((x, rows[q]) for q, x in w.items() if q in rows), p)


@dataclass(frozen=True)
class AxialVerdict:
    """Outcome of verifying the defining property of an axial algebra:
    every designated axis obeys the fusion law, and together the axes
    generate the whole algebra.  Both legs are reported separately since
    either can fail on its own."""

    law: FusionLaw
    reports: Tuple[Tuple[str, AxisReport], ...]
    axes_pass: bool
    generated_dim: int
    dim: int

    @property
    def generates(self) -> bool:
        return self.generated_dim == self.dim

    @property
    def passed(self) -> bool:
        return self.axes_pass and self.generates

    def describe(self) -> str:
        if self.passed:
            return f"axial for {self.law.name}: {len(self.reports)} axes generate"
        bits = []
        if not self.axes_pass:
            bad = [n for n, r in self.reports if not r.passed]
            bits.append(f"axes failing the law: {', '.join(bad)}")
        if not self.generates:
            bits.append(f"axes generate dim {self.generated_dim} < {self.dim}")
        return "not axial: " + "; ".join(bits)


def is_axial(alg: Algebra, law: Optional[FusionLaw] = None) -> AxialVerdict:
    """Verify that alg with its designated axes is an axial algebra for law.

    Checks the designated axes in order as `close_axes` checks seeds (a full
    `check_axis` for each in characteristic 2 or under an all-plus grading),
    then that they generate alg as an algebra.  A clean fusion check on each
    axis does not by itself make the algebra axial; the generation leg is
    part of the definition and fails for some degenerate parameters.
    """
    law = law if law is not None else alg.law
    if law is None:
        raise NotAnAxis("no fusion law given and none attached to the algebra")
    if not alg.axes:
        raise NotAnAxis("the algebra has no designated axes")
    reports = _designated_reports(alg, law)
    gen = alg._subalgebra([sparse(v) for v in alg.axis_vectors()])
    return AxialVerdict(
        law=law,
        reports=reports,
        axes_pass=all(r.passed for _, r in reports),
        generated_dim=gen.dim,
        dim=alg.dim,
    )


def _designated_reports(alg: Algebra, law: FusionLaw) -> Tuple[Tuple[str, AxisReport], ...]:
    """(name, report) of each designated axis in order; failures are not raised."""
    try:
        grading = resolve_grading(law)
    except InvalidGrading:  # several adequate gradings: no one map to transport through
        grading = Grading((1,) * law.size)
    adm = _Admission(alg, law, grading, grading.is_adequate and alg.field.characteristic != 2)
    return tuple((name, adm.offer(sparse(v))) for name, v in alg.axes)


def _eigenbasis(alg: Algebra, spaces):
    """Change of basis to the stacked eigenbases of a semisimple decomposition.

    Returns the eigenbasis vectors (sparse rows) in law order, the
    eigenspace index of each, and the inverse change of basis: row r of it
    reads off a vector's coordinate on vector r.
    """
    cols = [b for s in spaces for b in s._basis]
    owner = [t for t, s in enumerate(spaces) for _ in s._basis]
    return cols, owner, invert(Matrix._of(alg.field, alg.dim, cols).transpose())


def projection_functional(alg: Algebra, a, law: Optional[FusionLaw] = None) -> Tuple:
    """Row vector w with phi_a(v) = w . v for all v."""
    law = law if law is not None else alg.law
    if law is None:
        raise Unsupported("projection functional needs a fusion law")
    a = alg._row(a)
    return alg._dense(_projection_functional(alg, a, law, _eigen_decomposition(alg, a, law)[1]))


def _projection_functional(alg: Algebra, a, law: FusionLaw, spaces) -> dict:
    """The functional phi_a as a sparse row, for a sparse row a whose ad_a
    has the eigenspaces `spaces` at the law's elements."""
    if sum(s.dim for s in spaces) != alg.dim:
        raise NotSemisimple("adjoint eigenspaces do not span the algebra")
    if spaces[law.one_index].dim != 1:
        raise NotPrimitive("1-eigenspace is not one-dimensional")
    _, owner, inv = _eigenbasis(alg, spaces)
    (b1,) = spaces[law.one_index]._basis
    k = min(a)
    return scaled(b1[k] / a[k], inv.rows[owner.index(law.one_index)])


def projection(alg: Algebra, a, v, law: Optional[FusionLaw] = None):
    """Scalar phi with the A_1(a)-component of v equal to phi * a."""
    law = law if law is not None else alg.law
    if law is None:
        raise Unsupported("projection needs a fusion law to enumerate eigenvalues")
    a, v = alg._row(a), alg._row(v)
    if alg._mul(a, a) != a:
        raise NotAnAxis("projection base vector is not idempotent")
    return dot(alg.field, _projection_functional(alg, a, law, _eigen_decomposition(alg, a, law)[1]), v)


@dataclass(frozen=True)
class MiyamotoMap:
    matrix: Matrix
    axis: Tuple
    law: FusionLaw
    grading: Grading

    def apply(self, v):
        return self.matrix.mul_vec(v)

    @property
    def is_identity(self) -> bool:
        return self.matrix == Matrix.identity(self.matrix.field, self.matrix.nrows)


def resolve_grading(law: FusionLaw) -> Grading:
    """The unique adequate C2 grading, or all-plus when none exists; several
    adequate gradings raise InvalidGrading."""
    found = unique_adequate_grading(law)
    return Grading((1,) * law.size) if found is None else found


def miyamoto(
    alg: Algebra,
    a,
    law: Optional[FusionLaw] = None,
) -> MiyamotoMap:
    """Involutive automorphism: +1 on the plus eigenspaces, -1 on the minus ones."""
    law = law if law is not None else alg.law
    if law is None:
        raise Unsupported("miyamoto map needs a fusion law")
    if alg.field.characteristic == 2:
        raise Unsupported("no nontrivial C2 character in characteristic 2")
    report = check_axis(alg, a, law)
    if not report.passed:
        raise NotAnAxis(report.describe())
    grading = resolve_grading(law)
    return MiyamotoMap(
        matrix=_tau_from_report(alg, report, grading),
        axis=report.axis,
        law=law,
        grading=grading,
    )


def _tau_from_report(alg: Algebra, report: AxisReport, grading: Grading) -> Matrix:
    """The map +-1 on the eigenspaces of a passed report, built from scratch
    and checked to be an automorphism.  It is P S P^-1 with S = diag(+-1) and
    P^-1 exact, so it is an involution by construction."""
    if alg.field.characteristic == 2:
        raise Unsupported("no nontrivial C2 character in characteristic 2")
    cols, owner, inv = _eigenbasis(alg, report.eigenspaces)
    signed = [scaled(grading.signs[t], c) for c, t in zip(cols, owner)]
    tau = Matrix._of(alg.field, alg.dim, signed).transpose().matmul(inv)
    # with M tau as ints, both sides of tau(e_i e_j) = tau(e_i) tau(e_j) times M^2 D
    m, cols = cleared(alg.field, tau._columns())
    ad, p = alg._int_layout()[1], alg.field.characteristic
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            lhs = combine((m * c, cols[k].items()) for k, c in ad[i][j])
            if not _agree(lhs, alg._imul(cols[i], cols[j]), p):
                raise ConsistencyFailure("Miyamoto map is not an algebra automorphism")
    return tau


def _conjugate_tau(report: AxisReport, grading: Grading, tau_c: Matrix, tau_a: Matrix) -> Matrix:
    """tau_b = tau_c tau_a tau_c for the axis b = tau_c(a), a product of
    verified automorphisms, certified on b's eigenbasis: tau_b u = +-u as the
    grading signs u's eigenspace.  That basis fixes the map uniquely."""
    tau = tau_c.matmul(tau_a).matmul(tau_c)
    for sign, space in zip(grading.signs, report.eigenspaces):
        for u in space._basis:
            if tau._apply(u) != scaled(sign, u):
                raise ConsistencyFailure("conjugated Miyamoto map is not +-1 on the eigenspaces")
    return tau


def _transport(alg: Algebra, report: AxisReport, tau: Matrix, b) -> AxisReport:
    """b = tau(a)'s report from a's passed one, for a sparse row b: the
    verified automorphism tau maps each A_lam(a) onto A_lam(b).  Certified by
    b w = lam w on each mapped basis vector w; these are independent and dim
    in number, so they span each A_lam(b) exactly, and A_lam(b) keeps them
    as its basis (`Subspace._spanned`).  Idempotency, fusion and
    primitivity carry over.  The test runs on the int layout: with B b and
    W w as ints and lam = num/den, it reads den D (B b)(W w) = num D B (W w)."""
    field, p = alg.field, alg.field.characteristic
    scale, (bi,) = cleared(field, [b])
    scale *= alg._int_layout()[0]
    spaces = []
    for lam, space in zip(report.law.elements, report.eigenspaces):
        ws = [tau._apply(u) for u in space._basis]
        den, (num,) = cleared(field, [{0: lam}])
        for _, (wi,) in (cleared(field, [w]) for w in ws):
            if not _agree(scaled(den, alg._imul(bi, wi)), scaled(num[0] * scale, wi), p):
                raise ConsistencyFailure("transported eigenvector is not an eigenvector of the image")
        spaces.append(Subspace._spanned(field, alg.dim, ws))
    return replace(report, axis=alg._dense(b), eigenspaces=tuple(spaces))


class _Admission:
    """Admitted axes (sparse rows) with their reports and Miyamoto maps.
    `index` and `pending` are keyed by `row_key`.  images[c, a] is the index
    of tau_c(axis a); an image not yet admitted waits in `pending` with every
    (c, a) pair that produced it."""

    def __init__(self, alg: Algebra, law: FusionLaw, grading: Grading, maps: bool):
        self.alg, self.law, self.grading, self.maps = alg, law, grading, maps
        self.vecs, self.reports, self.mats = [], [], []
        self.index, self.images, self.pending = {}, {}, {}

    def offer(self, v) -> AxisReport:
        """The sparse row v's report, transported from the least (c, a) with
        v = tau_c(a) or else a full check; a passed axis is admitted if maps
        are built."""
        key = row_key(v)
        if key in self.index:
            return self.reports[self.index[key]]
        pairs = self.pending.pop(key, ())
        if pairs:
            c, a = min(pairs)
            rep = _transport(self.alg, self.reports[a], self.mats[c], v)
            self.mats.append(_conjugate_tau(rep, self.grading, self.mats[c], self.mats[a]))
        else:
            rep = _check_axis(self.alg, v, self.law)
            if not (rep.passed and self.maps):
                return rep
            self.mats.append(_tau_from_report(self.alg, rep, self.grading))
        self.index[key] = k = len(self.vecs)
        self.vecs.append(v)
        self.reports.append(rep)
        self.images.update(dict.fromkeys(pairs, k))
        for c, a in [(c, k) for c in range(k)] + [(k, a) for a in range(k + 1)]:
            img = row_key(self.mats[c]._apply(self.vecs[a]))
            if img in self.index:
                self.images[c, a] = self.index[img]
            else:
                self.pending.setdefault(img, []).append((c, a))
        return rep


@dataclass(frozen=True)
class Axet:
    """A closed axis set with its Miyamoto data."""

    algebra: Algebra
    law: FusionLaw
    grading: Grading
    axes: Tuple[Tuple, ...]
    reports: Tuple[AxisReport, ...]
    tau_mats: Tuple[Matrix, ...]
    tau_perms: Tuple[Perm, ...]
    orbits: Tuple[Tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.axes)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(f"x{k}" for k in range(self.size))


def close_axes(
    alg: Algebra,
    axes: Iterable,
    law: Optional[FusionLaw] = None,
    cap: Optional[int] = None,
) -> Axet:
    """Close an axis set under all of its Miyamoto maps.

    A seed no admitted map reaches gets a full `check_axis` and a map built
    from scratch and checked to be an automorphism, as `miyamoto` does.  Any
    other axis b is tau_c(a) for admitted axes a, c: it gets a's report
    mapped through tau_c, certified exactly by b w = lam w on each mapped
    basis vector w, and tau_b = tau_c tau_a tau_c, certified exactly on b's
    eigenbasis (+-1 as the grading says), which fixes it uniquely.  So every
    map is an involutive automorphism: it permutes the closed set, and maps
    with one permutation agree on the subalgebra the axes generate.
    Each (map, axis) image is computed once, as soon as both are admitted.
    New images are admitted round by round in order of their first (map
    index, axis index) pair, as a sweep of every map over every axis would
    find them.  The cap bounds the number of closed axes, seeds included; a
    negative cap raises DegenerateParameters.
    """
    limit = DEFAULT_AXIS_CAP if cap is None else cap
    if limit < 0:
        raise DegenerateParameters(f"cap {brief(limit)} is below 0")
    law = law if law is not None else alg.law
    if law is None:
        raise Unsupported("axis closure needs a fusion law")
    grading = resolve_grading(law)
    adm = _Admission(alg, law, grading, maps=True)

    def admit(v) -> AxisReport:
        if len(adm.vecs) >= limit:
            raise ClosureCapExceeded(f"axis closure exceeded cap {limit}")
        return adm.offer(v)

    for v in [alg._row(v) for v in axes]:
        if row_key(v) not in adm.index:
            rep = admit(v)
            if not rep.passed:
                raise NotAnAxis(f"x{len(adm.vecs)}: {rep.describe()}")
    while adm.pending:
        for img in sorted(adm.pending, key=lambda v: min(adm.pending[v])):
            admit(dict(img))

    vecs, n = adm.vecs, len(adm.vecs)
    perms: List[Perm] = [tuple(adm.images[c, a] for a in range(n)) for c in range(n)]
    return Axet(
        algebra=alg,
        law=law,
        grading=grading,
        axes=tuple(map(alg._dense, vecs)),
        reports=tuple(adm.reports),
        tau_mats=tuple(adm.mats),
        tau_perms=tuple(perms),
        orbits=classes(range(len(vecs)), ((i, x) for p in perms for i, x in enumerate(p))),
    )


@dataclass(frozen=True)
class GroupInfo:
    order: int
    generators: Tuple[Perm, ...]


def miyamoto_group(axet: Axet) -> GroupInfo:
    """Permutation group generated by the tau maps on the closed axis set,
    whose size the closure cap bounds."""
    gens = tuple(dict.fromkeys(axet.tau_perms))
    return GroupInfo(order=group_order(axet.size, gens), generators=gens)


@dataclass(frozen=True)
class AxetShape:
    kind: str  # "X" or "X'"
    total: int
    k: Optional[int]
    skew: bool
    orbit_sizes: Tuple[int, ...]

    @property
    def label(self) -> str:
        if self.kind == "X":
            return f"X({self.total})"
        return f"X'({self.k}+{2 * self.k})"


def classify_2gen_axet(axet: Axet, generators: Tuple[int, int] = (0, 1)) -> AxetShape:
    """Orbit-shape classification of an axet regenerated by two of its axes."""
    i, j = generators
    n = axet.size
    if not (0 <= i < n and 0 <= j < n):
        raise NotTwoGenerated("generator indices out of range")
    # tau_{g(a)} = g tau_a g^-1, so the axes i and j regenerate are their
    # orbits under <tau_i, tau_j>
    pairs = ((t, p[t]) for p in (axet.tau_perms[i], axet.tau_perms[j]) for t in range(n))
    reached = [x for c in classes(range(n), pairs) if i in c or j in c for x in c]
    if len(reached) != n:
        raise NotTwoGenerated(
            f"axes {i},{j} regenerate only {len(reached)} of {n} axes"
        )
    sizes = tuple(sorted(len(o) for o in axet.orbits))
    if len(sizes) == 1:
        return AxetShape(kind="X", total=n, k=None, skew=False, orbit_sizes=sizes)
    if len(sizes) == 2:
        s, t = sizes
        if s == t:
            return AxetShape(kind="X", total=n, k=None, skew=False, orbit_sizes=sizes)
        if t == 2 * s:
            return AxetShape(kind="X'", total=n, k=s, skew=True, orbit_sizes=sizes)
    raise NotTwoGenerated(f"orbit sizes {sizes} do not match a 2-generated shape")
