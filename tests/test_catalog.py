"""Known algebras: the eight 2-generated ones, Matsuo family, spin factors."""

import pytest

from axial import (
    NORTON_SAKUMA_DIMS,
    NORTON_SAKUMA_NAMES,
    QQ,
    check_axis,
    double_axis,
    flip_subalgebra,
    law_M,
    matsuo,
    norton_sakuma,
    spin_factor,
    split_spin_factor,
)
from axial.catalog import ThreeTranspositionGroup
from axial.errors import (
    DegenerateParameters,
    InvalidGroup,
    NotAFlip,
    NotOrthogonal,
    UnknownCatalogEntry,
)
from axial.frobenius import is_symmetric_form
from axial.linalg import is_zero_vec, vadd, vsub, vscale
from axial.perms import parse_cycles


class TestNortonSakuma:
    def test_dimension_table(self):
        for name in NORTON_SAKUMA_NAMES:
            alg = norton_sakuma(name)
            assert alg.dim == NORTON_SAKUMA_DIMS[name]
            assert alg.law.name == "M(1/4,1/32)"
            assert alg.form is not None and is_symmetric_form(alg.form)

    def test_unknown_label(self):
        with pytest.raises(UnknownCatalogEntry):
            norton_sakuma("9Z")
        # labels are case-normalised
        assert norton_sakuma("2a").dim == 3

    def test_axes_are_axes(self):
        alg = norton_sakuma("4B")
        for _, vec in alg.axes:
            assert check_axis(alg, vec, alg.law).passed


class TestThreeTranspositionGroups:
    def test_symmetric_class_sizes(self):
        assert len(ThreeTranspositionGroup.symmetric(3).transpositions) == 3
        assert len(ThreeTranspositionGroup.symmetric(4).transpositions) == 6
        assert len(ThreeTranspositionGroup.symmetric(5).transpositions) == 10

    def test_validation(self):
        ThreeTranspositionGroup.symmetric(4).validate()
        broken = ThreeTranspositionGroup(3, ((1, 0, 2), (2, 1, 0)))
        with pytest.raises(InvalidGroup):
            broken.validate()
        with pytest.raises(InvalidGroup):
            matsuo(broken, QQ.parse("1/4"))


class TestMatsuo:
    def test_product_cases(self):
        eta = QQ.parse("1/4")
        alg = matsuo(ThreeTranspositionGroup.symmetric(4), eta)
        names = [n for n, _ in alg.axes]
        a = alg.axes[names.index("(1 2)")][1]
        b = alg.axes[names.index("(3 4)")][1]
        c = alg.axes[names.index("(1 3)")][1]
        # commuting transpositions multiply to zero
        assert is_zero_vec(alg.mul(a, b))
        # order-3 pairs: eta/2 (a + c - a^c), here (1 2)(1 3) -> (2 3)
        conj = alg.axes[names.index("(2 3)")][1]
        want = vscale(eta / 2, vsub(vadd(a, c), conj))
        assert alg.mul(a, c) == want
        assert alg.mul(a, a) == a

    def test_degenerate_eta(self):
        s3 = ThreeTranspositionGroup.symmetric(3)
        for eta in (QQ.zero(), QQ.one()):
            with pytest.raises(DegenerateParameters):
                matsuo(s3, eta)


class TestSpinFactor:
    def test_shape_and_axes(self):
        sf = spin_factor([[2, 0], [0, 2]])
        alg = sf.algebra
        assert alg.dim == 3
        assert [n for n, _ in alg.axes] == ["x+1", "x-1", "x+2", "x-2"]
        assert alg.law.name == "J(1/2)"
        for _, vec in alg.axes:
            assert check_axis(alg, vec, alg.law).passed

    def test_norm_two_required_for_axes(self):
        # vectors of the wrong norm give no idempotent halves
        assert spin_factor([[1]]).algebra.axes == ()

    def test_product_rule(self):
        sf = spin_factor([[2, 1], [1, 2]])
        alg = sf.algebra
        e1 = alg.basis_vector(1)
        e2 = alg.basis_vector(2)
        # e f = b(e, f)/2 * unit
        assert alg.mul(e1, e2) == vscale(QQ.parse("1/2"), alg.basis_vector(0))


class TestSplitSpinFactor:
    def test_shape(self):
        ss = split_spin_factor([[1, 0], [0, 1]], QQ.parse("1/3"))
        alg = ss.algebra
        assert alg.dim == 4
        assert [n for n, _ in alg.axes] == ["z1", "a:e1", "a:e2"]
        assert alg.law.name == "M(1/3,1/2)"

    def test_degenerate_alpha(self):
        for text in ("0", "1", "1/2"):
            with pytest.raises(DegenerateParameters):
                split_spin_factor([[1]], QQ.parse(text))

    @pytest.mark.parametrize("alpha", ["1/3", "1/4", "3"])
    @pytest.mark.parametrize("e", [(1, 0), (0, 1), (-1, 0)], ids=["e1", "e2", "-e1"])
    def test_fam_b_is_an_axis_of_the_swapped_law(self, alpha, e):
        # fam_b(e) has eigenvalue 1 - alpha on E, not alpha
        alpha = QQ.parse(alpha)
        ss = split_spin_factor([[1, 0], [0, 1]], alpha)
        b = ss.fam_b(e)
        assert ss.algebra.mul(b, b) == b
        assert check_axis(ss.algebra, b, law_M(QQ, 1 - alpha, "1/2")).passed
        own = check_axis(ss.algebra, b, ss.algebra.law)
        assert not own.passed
        assert own.eigen_dims == (1, 1, 0, 1)


class TestDoubleAxes:
    def test_double_axis_fuses_at_doubled_eta(self):
        eta = QQ.parse("1/4")
        alg = matsuo(ThreeTranspositionGroup.symmetric(4), eta)
        names = [n for n, _ in alg.axes]
        a = alg.axes[names.index("(1 2)")][1]
        b = alg.axes[names.index("(3 4)")][1]
        d = double_axis(alg, a, b)
        assert alg.mul(d, d) == d
        law = law_M(QQ, 2 * eta, eta)
        rep = check_axis(alg, d, law)
        assert rep.passed and not rep.is_primitive

    def test_requires_zero_product(self):
        alg = matsuo(ThreeTranspositionGroup.symmetric(4), QQ.parse("1/4"))
        names = [n for n, _ in alg.axes]
        a = alg.axes[names.index("(1 2)")][1]
        c = alg.axes[names.index("(1 3)")][1]
        with pytest.raises(NotOrthogonal):
            double_axis(alg, a, c)


class TestFlip:
    def test_embed_is_algebra_map(self, s4_flip):
        flip = s4_flip
        sub = flip.algebra
        amb = flip.ambient
        for i in range(sub.dim):
            for j in range(sub.dim):
                u = sub.basis_vector(i)
                v = sub.basis_vector(j)
                left = flip.embed.mul_vec(sub.mul(u, v))
                right = amb.mul(flip.embed.mul_vec(u), flip.embed.mul_vec(v))
                assert left == right

    def test_sigma_must_be_involution(self):
        sigma = parse_cycles("(1 2 3)", 4)
        with pytest.raises(NotAFlip):
            flip_subalgebra(ThreeTranspositionGroup.symmetric(4), QQ.parse("1/4"), sigma)
