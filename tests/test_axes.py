"""Axis verification, Miyamoto maps, closures and axet classification."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from axial import (
    GF,
    NORTON_SAKUMA_NAMES,
    QQ,
    Algebra,
    axes,
    check_axis,
    classify_2gen_axet,
    close_axes,
    eigen_decomposition,
    eigenspace,
    flip_subalgebra,
    hw_periodic_quotient,
    is_axial,
    law_A,
    law_J,
    matsuo,
    miyamoto,
    miyamoto_group,
    norton_sakuma,
    projection_graph,
    rational,
    spin_factor,
)
from axial.axes import (
    AxisReport,
    _projection_functional,
    _tau_from_report,
    _transport,
    projection,
    projection_functional,
    resolve_grading,
)
from axial.catalog import ThreeTranspositionGroup
from axial.fusion import Grading, _build, law_M
from axial.perms import parse_cycles
from axial.errors import (
    AxialError,
    ClosureCapExceeded,
    ConsistencyFailure,
    DegenerateParameters,
    InvalidGrading,
    NotAnAxis,
    NotPrimitive,
    NotSemisimple,
    NotTwoGenerated,
    Unsupported,
)
from axial.linalg import EchelonAccumulator, Matrix, invert, residue, scaled, sparse
from vectors import vadd, vscale, vsub

coeffs = st.integers(min_value=-5, max_value=5).map(rational)


@pytest.fixture(scope="module")
def two_a():
    return norton_sakuma("2A")


class TestEigen:
    def test_axis_eigenspace_contains_axis(self, two_a):
        a = two_a.axes[0][1]
        space = eigenspace(two_a, a, QQ.one())
        assert space.dim == 1 and space.contains(a)

    def test_decomposition_spans(self, two_a):
        a = two_a.axes[0][1]
        dims, spaces = eigen_decomposition(two_a, a, two_a.law)
        assert sum(dims) == two_a.dim
        assert len(spaces) == two_a.law.size

    def test_missing_eigenvalue_gives_zero_space(self, two_a):
        a = two_a.axes[0][1]
        assert eigenspace(two_a, a, rational(7)).dim == 0


class TestCheckAxis:
    def test_non_idempotent_fails(self, two_a):
        v = vscale(rational(2), two_a.axes[0][1])
        rep = check_axis(two_a, v, two_a.law)
        assert not rep.is_idempotent and not rep.passed

    def test_wrong_law_fails(self):
        # the 1/32 eigenvalue falls outside the Jordan law
        alg = norton_sakuma("3A")
        rep = check_axis(alg, alg.axes[0][1], law_J(QQ, QQ.parse("1/4")))
        assert not rep.is_semisimple
        assert not rep.passed

    def test_projection_needs_a_semisimple_axis(self):
        alg = norton_sakuma("3A")
        a, law = alg.axes[0][1], law_J(QQ, QQ.parse("1/4"))
        with pytest.raises(NotSemisimple):
            projection_functional(alg, a, law)
        with pytest.raises(NotSemisimple):
            projection(alg, a, a, law)

    def test_projection_needs_a_primitive_axis(self):
        # the identity of a spin factor has the whole algebra as its 1-space
        alg = spin_factor([[2, 0], [0, 2]]).algebra
        with pytest.raises(NotPrimitive):
            projection_functional(alg, alg.basis_vector(0))

    def test_two_point_algebra_is_jordan(self, two_a):
        # no 1/32 part at all, so the smaller law also verifies
        rep = check_axis(two_a, two_a.axes[0][1], law_J(QQ, QQ.parse("1/4")))
        assert rep.passed and rep.eigen_dims == (1, 1, 1)

    def test_report_readable(self, two_a):
        rep = check_axis(two_a, two_a.axes[0][1], two_a.law)
        text = rep.describe()
        assert "axis" in text and "primitive" in text


class TestMiyamoto:
    def test_involution_and_axis_fixed(self, two_a):
        a = two_a.axes[0][1]
        tau = miyamoto(two_a, a)
        assert tau.apply(a) == a
        for i in range(two_a.dim):
            e = two_a.basis_vector(i)
            assert tau.apply(tau.apply(e)) == e

    @given(
        st.lists(coeffs, min_size=4, max_size=4).map(tuple),
        st.lists(coeffs, min_size=4, max_size=4).map(tuple),
    )
    def test_automorphism(self, u, v):
        alg = norton_sakuma("3A")
        tau = miyamoto(alg, alg.axes[0][1])
        assert tau.apply(alg.mul(u, v)) == alg.mul(tau.apply(u), tau.apply(v))

    def test_identity_on_trivial_minus_part(self):
        # 2B: axes annihilate each other, the 1/32 part is empty
        alg = norton_sakuma("2B")
        tau = miyamoto(alg, alg.axes[0][1])
        assert tau.is_identity

    def test_rejects_non_axis(self, two_a):
        with pytest.raises(NotAnAxis):
            miyamoto(two_a, vscale(rational(3), two_a.axes[0][1]))

    def test_ungraded_law_gets_trivial_grading(self):
        g = resolve_grading(law_A(QQ))
        assert not g.is_adequate and g.minus_indices == ()


def _algebra(spec):
    kind, _, arg = spec.partition(":")
    if kind == "rescaled":
        return _rescaled(_algebra(arg))
    if kind == "ns":
        return norton_sakuma(arg)
    if kind == "hw":
        return hw_periodic_quotient(int(arg))
    if kind == "flip":  # a flip of the Matsuo algebra of S5 at eta = 1/4
        sigma = parse_cycles(arg, 5)
        return flip_subalgebra(ThreeTranspositionGroup.symmetric(5), QQ.parse("1/4"), sigma).algebra
    n, p = map(int, arg.split(":"))
    field = GF(p) if p else QQ
    return matsuo(ThreeTranspositionGroup.symmetric(n), field.parse("1/4"), field)


def _seeds(alg, which):
    vs = alg.axis_vectors()
    return {"all": vs, "reversed": vs[::-1], "two": vs[:2]}[which]


CLOSURE_CASES = (
    [(f"ns:{name}", "two") for name in ("3A", "3C", "4A", "4B", "5A", "6A")]
    + [
        (f"matsuo:{n}:{p}", which)
        for n in (4, 5)
        for p in (0, 10007)
        for which in ("all", "reversed", "two")
    ]
    + [("hw:6", "all")]
)


# every axis of these gets its report transported or checked in full
EIGENSPACE_CASES = (
    [f"ns:{name}" for name in NORTON_SAKUMA_NAMES]
    + [f"matsuo:{n}:{p}" for n in range(4, 9) for p in (0, 10007)]
    + [f"hw:{d}" for d in range(2, 19)]
)


class TestClosure:
    def test_six_axes_from_two(self):
        alg = norton_sakuma("6A")
        axet = close_axes(alg, [alg.axes[0][1], alg.axes[1][1]])
        assert axet.size == 6
        sizes = tuple(sorted(len(o) for o in axet.orbits))
        assert sizes == (3, 3)
        assert sorted(i for orbit in axet.orbits for i in orbit) == list(range(6))
        # tau maps permute the closed set
        for perm in axet.tau_perms:
            assert sorted(perm) == list(range(6))

    def test_closure_cap(self):
        alg = norton_sakuma("5A")
        with pytest.raises(ClosureCapExceeded):
            close_axes(alg, [alg.axes[0][1], alg.axes[1][1]], cap=2)
        # the cap is the largest closed size allowed
        alg = norton_sakuma("6A")
        seeds = _seeds(alg, "two")
        with pytest.raises(ClosureCapExceeded):
            close_axes(alg, seeds, cap=5)
        assert close_axes(alg, seeds, cap=6).size == 6

    def test_closure_cap_counts_the_seeds(self):
        # six seeds that are already closed pass cap 6 but not cap 5
        alg = norton_sakuma("6A")
        seeds = alg.axis_vectors()
        with pytest.raises(ClosureCapExceeded, match=r"^axis closure exceeded cap 5$"):
            close_axes(alg, seeds, cap=5)
        assert close_axes(alg, seeds, cap=6).size == 6

    def test_negative_cap_is_refused_before_any_work(self):
        # a cap below 0 is a bad parameter, even without a law; cap 0 is a closure past its cap
        alg = norton_sakuma("6A").with_law(None)
        with pytest.raises(DegenerateParameters, match=r"^cap -1 is below 0$"):
            close_axes(alg, alg.axis_vectors(), cap=-1)
        with pytest.raises(ClosureCapExceeded, match=r"^axis closure exceeded cap 0$"):
            close_axes(norton_sakuma("6A"), alg.axis_vectors(), cap=0)

    def test_group_order_and_cap(self):
        alg = norton_sakuma("5A")
        axet = close_axes(alg, [alg.axes[0][1], alg.axes[1][1]])
        info = miyamoto_group(axet)
        assert info.order == 10
        assert info.order == 2 * len(info.generators)  # dihedral: 5 reflections, 5 rotations
        # the closure cap is the group's degree, and the one cap of the pipeline
        assert miyamoto_group(close_axes(alg, _seeds(alg, "two"), cap=5)).order == 10
        with pytest.raises(ClosureCapExceeded, match=r"^axis closure exceeded cap 4$"):
            close_axes(alg, _seeds(alg, "two"), cap=4)

    def test_trivial_group_has_order_one(self):
        alg = matsuo(ThreeTranspositionGroup.symmetric(4), rational(1, 4))
        named = dict(alg.axes)
        axet = close_axes(alg, [named["(1 2)"], named["(3 4)"]])
        assert miyamoto_group(axet).order == 1

    def test_closure_is_idempotent_on_closed_input(self):
        alg = norton_sakuma("4A")
        axet = close_axes(alg, [alg.axes[0][1], alg.axes[1][1]])
        again = close_axes(alg, axet.axes)
        assert again.size == axet.size

    def test_equal_perms_need_only_agree_on_generated_subalgebra(self):
        # (1 2) and (3 4) commute and fix each other, so both maps fix both
        # axes; they differ off the subalgebra the two axes generate.
        alg = matsuo(ThreeTranspositionGroup.symmetric(4), rational(1, 4))
        named = dict(alg.axes)
        axet = close_axes(alg, [named["(1 2)"], named["(3 4)"]])
        assert axet.size == 2
        assert axet.tau_perms == ((0, 1), (0, 1))
        assert axet.tau_mats[0] != axet.tau_mats[1]
        assert miyamoto_group(axet).order == 1


class TestClosureDifferential:
    """The closure derives most maps by conjugation; each must equal the map
    built from scratch, and each report the one a fresh check gives."""

    @pytest.mark.parametrize("spec,which", CLOSURE_CASES)
    def test_maps_and_reports_match_fresh_builds(self, spec, which):
        alg = _algebra(spec)
        axet = close_axes(alg, _seeds(alg, which))
        for k, v in enumerate(axet.axes):
            assert axet.tau_mats[k] == miyamoto(alg, v).matrix, axet.names[k]
            fresh = check_axis(alg, v, alg.law)
            for f in fresh._fields:
                assert getattr(axet.reports[k], f) == getattr(fresh, f), f
            assert [axet.axes[j] for j in axet.tau_perms[k]] == [
                axet.tau_mats[k].mul_vec(u) for u in axet.axes
            ]

    @pytest.mark.parametrize("spec", EIGENSPACE_CASES)
    def test_transported_eigenspaces_match_fresh_checks(self, monkeypatch, spec):
        # a transported A_lam(b) keeps the images of a's basis and builds its
        # reduced echelon only when read: never on the way from is_axial
        # through close_axes to miyamoto_group, and equal to a fresh one after
        alg = _algebra(spec)
        full = _counting(monkeypatch, "_check_axis")
        verdict = is_axial(alg)
        in_verdict = len(full)
        axet = close_axes(alg, alg.axis_vectors())
        miyamoto_group(axet)
        runs = [([r for _, r in verdict.reports], in_verdict), (list(axet.reports), len(full) - in_verdict)]
        for reports, checked in runs:
            built = [all(s._rows is not None for s in r.eigenspaces) for r in reports]
            unbuilt = [all(s._rows is None for s in r.eigenspaces) for r in reports]
            assert (sum(built), sum(unbuilt)) == (checked, len(reports) - checked), spec
        assert axet.size <= 2 or len(axet.reports) > len(full) - in_verdict, spec  # some are transported
        for rep in [r for reports, _ in runs for r in reports]:
            fresh = check_axis(alg, rep.axis, alg.law)
            assert [s.dim for s in rep.eigenspaces] == list(fresh.eigen_dims), spec
            assert rep.eigenspaces == fresh.eigenspaces, spec
            assert [s.basis for s in rep.eigenspaces] == [s.basis for s in fresh.eigenspaces], spec

    def test_ns_6a_pinned(self):
        alg = norton_sakuma("6A")
        axet = close_axes(alg, _seeds(alg, "two"))
        assert axet.names == ("x0", "x1", "x2", "x3", "x4", "x5")
        assert axet.tau_perms == (
            (0, 2, 1, 4, 3, 5),
            (3, 1, 5, 0, 4, 2),
            (4, 5, 2, 3, 0, 1),
            (4, 5, 2, 3, 0, 1),
            (3, 1, 5, 0, 4, 2),
            (0, 2, 1, 4, 3, 5),
        )
        assert axet.orbits == ((0, 3, 4), (1, 2, 5))

    def test_hw_8_pinned(self):
        # images found from several (map, axis) pairs: admission order follows the least pair
        alg = hw_periodic_quotient(8)
        axet = close_axes(alg, _seeds(alg, "two"))
        assert axet.names == tuple(f"x{k}" for k in range(8))
        assert axet.tau_perms == (
            (0, 2, 1, 4, 3, 6, 5, 7),
            (3, 1, 5, 0, 7, 2, 6, 4),
            (4, 6, 2, 7, 0, 5, 1, 3),
            (7, 5, 6, 3, 4, 1, 2, 0),
            (7, 5, 6, 3, 4, 1, 2, 0),
            (4, 6, 2, 7, 0, 5, 1, 3),
            (3, 1, 5, 0, 7, 2, 6, 4),
            (0, 2, 1, 4, 3, 6, 5, 7),
        )
        assert axet.orbits == ((0, 3, 4, 7), (1, 2, 5, 6))

    def test_conjugated_map_is_certified(self):
        alg = norton_sakuma("3A")
        a, c = alg.axes[0][1], alg.axes[1][1]
        tau_a, tau_c = miyamoto(alg, a), miyamoto(alg, c)
        b = tau_c.apply(a)
        report = check_axis(alg, a, alg.law)
        _, good = _transport(alg, report, tau_a.grading, tau_c.matrix, tau_a.matrix, sparse(b))
        assert good == miyamoto(alg, b).matrix
        with pytest.raises(ConsistencyFailure, match="conjugated Miyamoto map"):
            # tau_c tau_c tau_c = tau_c, which is not tau_b
            _transport(alg, report, tau_a.grading, tau_c.matrix, tau_c.matrix, sparse(b))

    def test_matsuo_s4_pinned(self):
        m = matsuo(ThreeTranspositionGroup.symmetric(4), QQ.parse("1/4"))
        axet = close_axes(m, m.axis_vectors())
        assert axet.names == ("x0", "x1", "x2", "x3", "x4", "x5")
        assert axet.tau_perms == (
            (0, 3, 4, 1, 2, 5),
            (3, 1, 5, 0, 4, 2),
            (4, 5, 2, 3, 0, 1),
            (1, 0, 2, 3, 5, 4),
            (2, 1, 0, 5, 4, 3),
            (0, 2, 1, 4, 3, 5),
        )
        assert axet.orbits == ((0, 1, 2, 3, 4, 5),)
        rev = close_axes(m, _seeds(m, "reversed"))
        assert rev.names == ("x0", "x1", "x2", "x3", "x4", "x5")
        assert rev.tau_perms == (
            (0, 2, 1, 4, 3, 5),
            (2, 1, 0, 5, 4, 3),
            (1, 0, 2, 3, 5, 4),
            (4, 5, 2, 3, 0, 1),
            (3, 1, 5, 0, 4, 2),
            (0, 3, 4, 1, 2, 5),
        )
        assert rev.orbits == ((0, 1, 2, 3, 4, 5),)


def _counting(monkeypatch, name):
    """Count the calls to axes.<name> made through the module global."""
    calls = []
    real = getattr(axes, name)
    monkeypatch.setattr(axes, name, lambda *args: calls.append(1) or real(*args))
    return calls


def _same_report(got, fresh):
    for f in fresh._fields:
        assert getattr(got, f) == getattr(fresh, f), f


class TestProjectionGraph:
    @pytest.mark.parametrize("spec", [f"ns:{name}" for name in NORTON_SAKUMA_NAMES] + ["matsuo:4:0", "matsuo:5:0"])
    def test_reads_the_axet_eigenspaces(self, monkeypatch, spec):
        alg = _algebra(spec)
        axet = close_axes(alg, alg.axis_vectors())
        fresh = [projection_functional(alg, a, axet.law) for a in axet.axes]
        calls = _counting(monkeypatch, "_eigen_decomposition")
        graph = projection_graph(alg, axet)
        assert not calls
        assert graph.edges == tuple(
            (ia, ib) for ia, w in enumerate(fresh) for ib, v in enumerate(axet.axes)
            if ia != ib and sum(c * x for c, x in zip(w, v))
        )


class TestTransport:
    """An axis b = tau_c(a) gets a's report mapped through tau_c, certified by
    b w = lam w on each mapped vector; only other axes get a full check."""

    @pytest.mark.parametrize("n,full", [(4, 3), (5, 4), (6, 5), (7, 6)])
    def test_matsuo_full_checks(self, monkeypatch, n, full):
        alg = _algebra(f"matsuo:{n}:0")
        calls = _counting(monkeypatch, "_check_axis")
        axet = close_axes(alg, alg.axis_vectors())
        assert axet.size == n * (n - 1) // 2
        assert len(calls) == full

    @pytest.mark.parametrize("name", ["3A", "4B", "5A", "6A"])
    def test_ns_full_checks(self, monkeypatch, name):
        alg = norton_sakuma(name)
        calls = _counting(monkeypatch, "_check_axis")
        assert close_axes(alg, _seeds(alg, "two")).size == int(name[0])
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "spec",
        [f"ns:{name}" for name in ("2A", "2B", "3A", "3C", "4A", "4B", "5A", "6A")]
        + [f"matsuo:{n}:{p}" for n in (4, 5) for p in (0, 10007)]
        + [f"hw:{d}" for d in range(4, 9)],
    )
    def test_is_axial_reports_match_fresh_checks(self, spec):
        alg = _algebra(spec)
        verdict = is_axial(alg)
        assert [name for name, _ in verdict.reports] == [name for name, _ in alg.axes]
        for (_, got), (_, v) in zip(verdict.reports, alg.axes):
            _same_report(got, check_axis(alg, v, alg.law))

    def test_is_axial_transports_matsuo(self, monkeypatch):
        alg = _algebra("matsuo:5:0")
        calls = _counting(monkeypatch, "_check_axis")
        assert is_axial(alg).passed
        assert len(calls) == 4

    def test_designated_non_axis_keeps_its_failing_report(self):
        alg = norton_sakuma("3A")
        (na, a), (nb, b) = alg.axes[:2]
        bad = vsub(a, b)
        fresh = check_axis(alg, bad, alg.law)
        assert fresh.fusion_violations
        mixed = alg.with_axes([(na, a), ("bad", bad), (nb, b), ("bad again", bad), *alg.axes[2:]])
        verdict = is_axial(mixed)
        assert not verdict.axes_pass and verdict.generates
        for (_, got), (_, v) in zip(verdict.reports, mixed.axes):
            _same_report(got, check_axis(alg, v, alg.law))
        assert [n for n, r in verdict.reports if not r.passed] == ["bad", "bad again"]

    def test_no_maps_under_an_all_plus_grading(self, monkeypatch):
        full = _counting(monkeypatch, "_check_axis")
        built = _counting(monkeypatch, "_tau_from_report")
        for f in (QQ, GF(2)):
            alg = Algebra(
                f, ["a", "b"], {(0, 0): (1, 0), (1, 1): (0, 1)},
                axes=[("a", (1, 0)), ("b", (0, 1)), ("a again", (1, 0))], law=law_A(f),
            )
            assert is_axial(alg).passed
        assert len(full) == 6 and not built

    def test_ambiguous_grading_gets_full_checks(self):
        # 1/4 and 1/32 can each be the minus part, so no one Miyamoto map exists
        one, zero, q, r = (QQ.parse(x) for x in ("1", "0", "1/4", "1/32"))
        cells = {(0, 0): {0}, (0, 1): set(), (0, 2): {2}, (0, 3): {3}, (1, 1): {1},
                 (1, 2): {2}, (1, 3): {3}, (2, 2): {0, 1}, (2, 3): set(), (3, 3): {0, 1}}
        law = _build(QQ, (one, zero, q, r), cells, "two gradings")
        alg = norton_sakuma("3A")
        with pytest.raises(InvalidGrading):
            close_axes(alg, alg.axis_vectors(), law=law)
        verdict = is_axial(alg, law)
        for (_, got), (_, v) in zip(verdict.reports, alg.axes):
            _same_report(got, check_axis(alg, v, law))

    def test_transport_is_certified(self):
        alg = norton_sakuma("3A")
        a, c = alg.axes[0][1], alg.axes[1][1]
        tau_a, tau_c = miyamoto(alg, a).matrix, miyamoto(alg, c).matrix
        b, grading = tau_c.mul_vec(a), resolve_grading(alg.law)
        rep = check_axis(alg, a, alg.law)
        got, _ = _transport(alg, rep, grading, tau_c, tau_a, sparse(b))
        _same_report(got, check_axis(alg, b, alg.law))
        with pytest.raises(ConsistencyFailure, match="not an eigenvector"):
            _transport(alg, rep, grading, tau_a, tau_a, sparse(b))  # the wrong map: tau_a fixes a, not b
        spaces, dims = list(rep.eigenspaces), list(rep.eigen_dims)
        spaces[2], spaces[3] = spaces[3], spaces[2]
        dims[2], dims[3] = dims[3], dims[2]
        swapped = rep._replace(eigenspaces=tuple(spaces), eigen_dims=tuple(dims))
        with pytest.raises(ConsistencyFailure):
            _transport(alg, swapped, grading, tau_c, tau_a, sparse(b))  # the 1/4 and 1/32 labels swapped


# -- the three checks on the int layout against their field versions ----------


def field_check_axis(alg, a, law):
    """`check_axis` with the fusion products on the field's scalars, each
    reduced against the target's echelon rows: the reference for the checks
    on the int layout."""
    a = sparse(alg.coerce_vector(a))
    is_idem = alg._mul(a, a) == a
    dims, spaces = eigen_decomposition(alg, alg._dense(a), law)
    targets = {
        cell: EchelonAccumulator.of(
            alg.field, alg.dim, (b for k in sorted(cell) for b in spaces[k].rows.values())
        ).subspace()
        for cell in {c for row in law.table for c in row}
    }
    violations = []
    for i in range(law.size):
        for j in range(i, law.size):
            tgt = targets[law.table[i][j]]
            vs = list(spaces[j].rows.values())
            for r, u in enumerate(spaces[i].rows.values()):
                for v in vs[r if i == j else 0:]:
                    if residue(alg._mul(u, v), tgt.rows):
                        violations.append((law.elements[i], law.elements[j], alg._dense(u), alg._dense(v)))
    return AxisReport(
        axis=alg._dense(a), law=law, is_idempotent=is_idem, eigen_dims=dims, eigenspaces=spaces,
        is_semisimple=sum(dims) == alg.dim, fusion_violations=tuple(violations),
        is_primitive=is_idem and dims[law.one_index] == 1,
    )


def _eigenbasis(alg, spaces):
    """Change of basis to the stacked eigenbases of a semisimple decomposition:
    the eigenbasis vectors (sparse rows) in law order, the eigenspace index
    of each, and the inverse change of basis, whose row r reads off a
    vector's coordinate on vector r."""
    cols = [b for s in spaces for b in s._basis]
    owner = [t for t, s in enumerate(spaces) for _ in s._basis]
    return cols, owner, invert(Matrix._of(alg.field, alg.dim, cols).transpose())


def eigenbasis_tau(alg, report, grading):
    """The map +-1 on the eigenspaces as P S P^-1: P the stacked eigenbases,
    S = diag(+-1) as the grading signs them, and P^-1 from `invert`."""
    cols, owner, inv = _eigenbasis(alg, report.eigenspaces)
    signed = [scaled(grading.signs[t], c) for c, t in zip(cols, owner)]
    return Matrix._of(alg.field, alg.dim, signed).transpose().matmul(inv)


def eigenbasis_functional(alg, a, law, spaces):
    """phi_a as the row of P^-1 that reads off the coordinate on the
    1-eigenvector b1, scaled by b1 / a at a's first non-zero entry."""
    _, owner, inv = _eigenbasis(alg, spaces)
    (b1,) = spaces[law.one_index]._basis
    k = min(a)
    return scaled(b1[k] / a[k], inv.rows[owner.index(law.one_index)])


def field_tau(alg, report, grading):
    """`_tau_from_report` as `eigenbasis_tau`, with tau(e_i e_j) =
    tau(e_i) tau(e_j) compared on the field's scalars."""
    tau = eigenbasis_tau(alg, report, grading)
    tau_cols = tau._columns()
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            if tau._apply(dict(alg._product_pairs(i, j))) != alg._mul(tau_cols[i], tau_cols[j]):
                raise ConsistencyFailure("Miyamoto map is not an algebra automorphism")
    return tau


def field_transport(alg, report, grading, tau_c, tau_a, b):
    """`_transport` with b w = lam w compared on the field's scalars and
    each A_lam(b) echelonized at once."""
    tau, spaces = tau_c.matmul(tau_a).matmul(tau_c), []
    for lam, sign, space in zip(report.law.elements, grading.signs, report.eigenspaces):
        ws = [tau_c._apply(u) for u in space.rows.values()]
        for w in ws:
            if alg._mul(b, w) != scaled(lam, w):
                raise ConsistencyFailure("transported eigenvector is not an eigenvector of the image")
            if tau._apply(w) != scaled(sign, w):
                raise ConsistencyFailure("conjugated Miyamoto map is not +-1 on the eigenspaces")
        spaces.append(EchelonAccumulator.of(alg.field, alg.dim, ws).subspace())
    return report._replace(axis=alg._dense(b), eigenspaces=tuple(spaces)), tau


def _outcome(check, *args):
    """What a check returns, or the message of the ConsistencyFailure it raises."""
    try:
        return check(*args)
    except ConsistencyFailure as exc:
        return str(exc)


def _rescaled(alg):
    """alg in the basis f_i = (i + 2) e_i, where the structure constants, the
    eigenvectors and the Miyamoto maps have entries that are not integers."""
    s = [alg.field.from_int(i + 2) for i in range(alg.dim)]
    products = {(i, j): {k: c * s[i] * s[j] / s[k] for k, c in pairs} for (i, j), pairs in alg.products.items()}
    axes = [(name, [x / s[k] for k, x in enumerate(v)]) for name, v in alg.axes]
    return Algebra(alg.field, alg.basis, products, axes=axes, law=alg.law)


def _differential_cases():
    """(id, algebra, law) for every input of the differential sweep: the
    Norton-Sakuma algebras under two laws they break, and Matsuo S3-S5 at
    five values of eta under their own law, A and J(1/3), over QQ and three
    primes.  A value of eta that repeats over F_p, or that the catalog or a
    law refuses there, is left out.  The NS algebras and Matsuo S4 over QQ
    and GF(10007) also appear rescaled (`_rescaled`) under their own law."""
    cases = []
    for name in NORTON_SAKUMA_NAMES:
        alg = norton_sakuma(name)
        cases.append((f"ns:{name}:M(1/32,1/4)", alg, law_M(QQ, "1/32", "1/4")))
        cases.append((f"ns:{name}:J(1/32)", alg, law_J(QQ, "1/32")))
        cases.append((f"rescaled:ns:{name}", _rescaled(alg), alg.law))
    for spec in ("rescaled:matsuo:4:0", "rescaled:matsuo:4:10007"):
        alg = _algebra(spec)
        cases.append((spec, alg, alg.law))
    for field in (QQ, GF(5), GF(7), GF(10007)):
        etas = {}
        for text in ("1/4", "1/2", "-1", "2", "1/3"):
            etas.setdefault(field.parse(text), text)
        for eta, text in etas.items():
            for n in (3, 4, 5):
                try:
                    alg = matsuo(ThreeTranspositionGroup.symmetric(n), eta, field)
                    laws = {"own": alg.law, "A": law_A(field), "J(1/3)": law_J(field, "1/3")}
                except AxialError:
                    continue
                for label, law in laws.items():
                    cases.append((f"matsuo:S{n}:{text}:{field.p or 'QQ'}:{label}", alg, law))
    return cases


DIFFERENTIAL_CASES = _differential_cases()


class TestIntChecks:
    """The fusion, automorphism and transport checks run on the algebra's int
    layout; each is compared, report for report and raise for raise, with
    the same check on the field's scalars (`field_check_axis`, `field_tau`,
    `field_transport`), on inputs where many axes break the law."""

    def test_matches_the_field_checks(self):
        # the sweep is not vacuous: it meets violations, passes, maps that are
        # and are not automorphisms, and transports that fail either check
        total = {}
        for name, alg, law in DIFFERENTIAL_CASES:
            found = self.sweep(name, alg, law)
            assert found["reports"] == len(alg.axes), name
            for key, count in found.items():
                total[key] = total.get(key, 0) + count
        assert total["violations"] and total["passed"]
        assert total["automorphisms"] and total["not automorphisms"]
        assert total["transported"] and total["not transported"] and total["not conjugated"]

    @staticmethod
    def sweep(name, alg, law):
        """Compare the checks on every designated axis of alg under law, and
        the maps of the first three and the transports through them, each
        conjugating a's own map and a wrong one; returns counts by outcome."""
        found = dict.fromkeys(["reports", "violations", "passed", "automorphisms", "not automorphisms",
                               "transported", "not transported", "not conjugated"], 0)
        reports = []
        for _, v in alg.axes:
            rep = check_axis(alg, v, law)
            assert rep == field_check_axis(alg, v, law), name
            found["reports"] += 1
            found["violations"] += len(rep.fusion_violations)
            found["passed"] += rep.passed
            reports.append(rep)
        try:
            grading = resolve_grading(law)
        except InvalidGrading:
            return found
        maps = []
        for rep in reports[:3]:
            if not rep.is_semisimple:
                continue
            tau = _outcome(_tau_from_report, alg, rep, grading)
            assert tau == _outcome(field_tau, alg, rep, grading), name
            found["automorphisms" if isinstance(tau, Matrix) else "not automorphisms"] += 1
            if isinstance(tau, Matrix):
                maps.append((rep, tau))
        for rep, own in maps:  # b = tau'(a), transported through every tau
            for _, image in maps:
                b = image._apply(sparse(rep.axis))
                for _, tau in maps:
                    for tau_a in (own, image):
                        got = _outcome(_transport, alg, rep, grading, tau, tau_a, b)
                        assert got == _outcome(field_transport, alg, rep, grading, tau, tau_a, b), name
                        found["transported" if isinstance(got, tuple) else
                              "not conjugated" if got.startswith("conjugated") else "not transported"] += 1
        return found

    @pytest.mark.parametrize("spec", ["ns:3A", "rescaled:ns:3A", "matsuo:4:7", "matsuo:5:10007"])
    def test_a_map_that_is_not_an_automorphism_raises(self, spec):
        # the grading that negates 0 instead: A_0 A_0 lies in A_0 + A_1, which
        # that sign map does not preserve
        alg = _algebra(spec)
        rep = check_axis(alg, alg.axes[0][1], alg.law)
        wrong = Grading(tuple(-1 if lam == alg.field.zero() else 1 for lam in alg.law.elements))
        for check in (_tau_from_report, field_tau):
            with pytest.raises(ConsistencyFailure):
                check(alg, rep, wrong)

    @pytest.mark.parametrize("spec", ["ns:3A", "rescaled:ns:3A", "matsuo:4:7", "matsuo:5:10007"])
    def test_a_vector_that_is_not_an_eigenvector_raises(self, spec):
        # tau_a fixes a, so it maps a's eigenvectors to a's, not to those of b = tau_c(a)
        alg = _algebra(spec)
        a, c = alg.axes[0][1], alg.axes[1][1]
        tau_a, tau_c = miyamoto(alg, a).matrix, miyamoto(alg, c).matrix
        rep, b = check_axis(alg, a, alg.law), sparse(tau_c.mul_vec(a))
        grading = resolve_grading(alg.law)
        assert b != sparse(a)
        for check in (_transport, field_transport):
            _same_report(check(alg, rep, grading, tau_c, tau_a, b)[0], check_axis(alg, alg._dense(b), alg.law))
            with pytest.raises(ConsistencyFailure):
                check(alg, rep, grading, tau_a, tau_a, b)

    def test_checks_read_the_algebra_own_layout(self):
        # Matsuo S4 at eta = 1/4 and at eta = 1/2 share field, basis and axes,
        # so only their tables tell them apart
        quarter, half = (matsuo(ThreeTranspositionGroup.symmetric(4), QQ.parse(eta)) for eta in ("1/4", "1/2"))
        check_axis(quarter, quarter.axes[0][1], law_J(QQ, "1/2"))
        alg = half.with_axes(quarter.axes)
        for _, v in alg.axes:
            for law in (alg.law, law_J(QQ, "1/4")):
                _same_report(check_axis(alg, v, law), field_check_axis(alg, v, law))


class TestProjections:
    """tau_a, +-1 on the eigenbasis, and phi_a read off P_1, each from one
    elimination (`on_basis`), equal the maps built through the inverse
    eigenbasis (`eigenbasis_tau`, `eigenbasis_functional`) on every axis of
    a closed set, whether its report was checked in full or transported."""

    @pytest.mark.parametrize("spec", EIGENSPACE_CASES)
    def test_match_the_eigenbasis_inverse(self, spec):
        alg = _algebra(spec)
        axet = close_axes(alg, alg.axis_vectors())
        one = Matrix.identity(alg.field, alg.dim)
        minus = 0
        for rep in axet.reports:
            a = sparse(rep.axis)
            got = _projection_functional(alg, a, axet.law, rep.eigenspaces)
            assert got == eigenbasis_functional(alg, a, axet.law, rep.eigenspaces), spec
            for grading in (axet.grading, Grading((1,) * axet.law.size)):
                tau = _tau_from_report(alg, rep, grading)
                assert tau == eigenbasis_tau(alg, rep, grading), spec
            assert tau == one, spec  # all plus
            minus += sum(rep.eigenspaces[t].dim for t in axet.grading.minus_indices)
        # the maps of the grading are not all the identity, except where no
        # axis has a minus eigenvector
        assert bool(minus) == (spec not in ("ns:2A", "ns:2B", "hw:2")), spec


INVARIANT_CASES = (
    [f"ns:{name}" for name in NORTON_SAKUMA_NAMES]
    + ["matsuo:4:0", "matsuo:5:0", "matsuo:6:0", "matsuo:5:10007", "flip:(1 2)", "flip:(1 2)(3 4)"]
)


@pytest.fixture(scope="module", params=INVARIANT_CASES)
def closed(request):
    alg = _algebra(request.param)
    return alg, close_axes(alg, alg.axis_vectors())


class TestClosureInvariants:
    """What close_axes does not check at run time because it follows from
    each map being a verified automorphism built as P S P^-1 (or a product of
    such maps), and from the law's eigenvalues being distinct."""

    def test_maps_square_to_the_identity(self, closed):
        alg, axet = closed
        one = Matrix.identity(alg.field, alg.dim)
        assert all(m.matmul(m) == one for m in axet.tau_mats)

    def test_maps_permute_the_closed_set(self, closed):
        _, axet = closed
        assert all(sorted(p) == list(range(axet.size)) for p in axet.tau_perms)

    @staticmethod
    def assert_one_permutation_one_map_on_the_axes(alg, axet):
        generated = alg.subalgebra_gen(axet.axes).basis
        first = {}
        for p, m in zip(axet.tau_perms, axet.tau_mats):
            f = first.setdefault(p, m)
            assert all(f.mul_vec(u) == m.mul_vec(u) for u in generated)

    def test_maps_with_one_permutation_agree_on_the_generated_subalgebra(self, closed):
        self.assert_one_permutation_one_map_on_the_axes(*closed)

    def test_distinct_maps_with_one_permutation(self):
        # the axes of (1 2) and (3 4) annihilate each other, and each map fixes
        # both, but tau_(1 2) moves the axis of (1 3) and tau_(3 4) does not
        alg = _algebra("matsuo:4:0")
        seeds = [v for name, v in alg.axes if name in ("(1 2)", "(3 4)")]
        axet = close_axes(alg, seeds)
        assert axet.tau_perms == ((0, 1), (0, 1))
        assert axet.tau_mats[0] != axet.tau_mats[1]
        self.assert_one_permutation_one_map_on_the_axes(alg, axet)

    def test_stacked_eigenbases_have_full_rank(self, closed):
        alg, axet = closed
        for rep in axet.reports:
            stacked = (b for s in rep.eigenspaces for b in s.rows.values())
            assert EchelonAccumulator.of(alg.field, alg.dim, stacked).rank == alg.dim


def _regenerated(axet, i, j):
    """The axes i and j regenerate, by closing {i, j} under tau_s(t) for s, t
    in the set until nothing new appears."""
    reached = {i, j}
    while True:
        fresh = {axet.tau_perms[s][t] for s in reached for t in reached} - reached
        if not fresh:
            return reached
        reached |= fresh


class TestClassification:
    @pytest.mark.parametrize("spec", [f"ns:{name}" for name in NORTON_SAKUMA_NAMES]
                             + ["matsuo:4:0", "matsuo:5:0", "matsuo:6:0", "flip:(1 2)", "flip:(1 2)(3 4)"])
    def test_regenerated_set_matches_fixpoint_oracle(self, spec):
        alg = _algebra(spec)
        axet = close_axes(alg, alg.axis_vectors())
        n = axet.size
        for i in range(n):
            for j in range(n):
                reached = len(_regenerated(axet, i, j))
                if reached < n:
                    with pytest.raises(NotTwoGenerated, match=rf"^axes {i},{j} regenerate only {reached} of {n} axes$"):
                        classify_2gen_axet(axet, (i, j))
                else:
                    try:
                        classify_2gen_axet(axet, (i, j))
                    except NotTwoGenerated as exc:
                        assert str(exc).startswith("orbit sizes")

    def test_pair_must_regenerate(self):
        m = matsuo(ThreeTranspositionGroup.symmetric(4), QQ.parse("1/4"))
        full = close_axes(m, m.axis_vectors())
        with pytest.raises(NotTwoGenerated):
            classify_2gen_axet(full)

    def test_polygon_labels(self):
        for name, n in (("3C", 3), ("4B", 4)):
            alg = norton_sakuma(name)
            axet = close_axes(alg, [alg.axes[0][1], alg.axes[1][1]])
            assert classify_2gen_axet(axet).label == f"X({n})"


class TestIsAxial:
    def test_verdict_on_generating_set(self):
        alg = norton_sakuma("3A")
        verdict = is_axial(alg)
        assert verdict.passed and verdict.axes_pass and verdict.generates
        assert verdict.generated_dim == alg.dim
        assert "axial" in verdict.describe()

    def test_describe_names_the_failing_axes(self):
        alg = norton_sakuma("3A")
        (na, a), (nb, b) = alg.axes[:2]
        verdict = is_axial(alg.with_axes([(na, a), ("bad", vsub(a, b)), *alg.axes[1:]]))
        assert verdict.generates and not verdict.passed
        assert verdict.describe() == "not axial: axes failing the law: bad"

    def test_describe_names_the_generated_dim(self):
        alg = norton_sakuma("3A")
        verdict = is_axial(alg.with_axes(alg.axes[:1]))
        assert verdict.axes_pass and not verdict.passed
        assert verdict.describe() == "not axial: axes generate dim 1 < 4"

    def test_requires_axes(self):
        alg = norton_sakuma("3A").with_axes([])
        with pytest.raises(NotAnAxis):
            is_axial(alg)

    def test_requires_law(self):
        alg = norton_sakuma("3A").with_law(None)
        with pytest.raises(Unsupported):
            is_axial(alg)
