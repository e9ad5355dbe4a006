"""Axis verification, Miyamoto maps, closures and axet classification."""

from dataclasses import fields, replace

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
from axial.axes import _conjugate_tau, _transport, projection, projection_functional, resolve_grading
from axial.catalog import ThreeTranspositionGroup
from axial.fusion import _build
from axial.perms import parse_cycles
from axial.errors import (
    ClosureCapExceeded,
    ConsistencyFailure,
    InvalidGrading,
    NotAnAxis,
    NotPrimitive,
    NotSemisimple,
    NotTwoGenerated,
)
from axial.linalg import EchelonAccumulator, Matrix, sparse, vadd, vscale, vsub

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
            for f in fields(fresh):
                assert getattr(axet.reports[k], f.name) == getattr(fresh, f.name), f.name
            assert [axet.axes[j] for j in axet.tau_perms[k]] == [
                axet.tau_mats[k].mul_vec(u) for u in axet.axes
            ]

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
        report = check_axis(alg, b, alg.law)
        good = _conjugate_tau(report, tau_a.grading, tau_c.matrix, tau_a.matrix)
        assert good == miyamoto(alg, b).matrix
        with pytest.raises(ConsistencyFailure):
            # tau_c tau_c tau_c = tau_c, which is not tau_b
            _conjugate_tau(report, tau_a.grading, tau_c.matrix, tau_c.matrix)

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
    for f in fields(fresh):
        assert getattr(got, f.name) == getattr(fresh, f.name), f.name


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
        b = tau_c.mul_vec(a)
        rep = check_axis(alg, a, alg.law)
        _same_report(_transport(alg, rep, tau_c, sparse(b)), check_axis(alg, b, alg.law))
        with pytest.raises(ConsistencyFailure):
            _transport(alg, rep, tau_a, sparse(b))  # the wrong map: tau_a fixes a, not b
        spaces, dims = list(rep.eigenspaces), list(rep.eigen_dims)
        spaces[2], spaces[3] = spaces[3], spaces[2]
        dims[2], dims[3] = dims[3], dims[2]
        swapped = replace(rep, eigenspaces=tuple(spaces), eigen_dims=tuple(dims))
        with pytest.raises(ConsistencyFailure):
            _transport(alg, swapped, tau_c, sparse(b))  # the 1/4 and 1/32 labels swapped


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
        with pytest.raises(NotAnAxis):
            is_axial(alg)
