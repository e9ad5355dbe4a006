"""Frobenius form solver, radicals and projection machinery."""

import random
from itertools import chain, islice
from math import lcm
from pathlib import Path

import pytest
import sympy

from axial import (
    GF,
    NORTON_SAKUMA_NAMES,
    QQ,
    Algebra,
    close_axes,
    form_radical,
    form_value,
    frobenius_solution_space,
    hw_periodic_quotient,
    matsuo,
    norton_sakuma,
    projection_graph,
    radical,
    rational,
    solve_frobenius,
    split_spin_factor,
)
from axial import frobenius
from axial.axes import check_axis, projection_functional
from axial.catalog import ThreeTranspositionGroup
from axial.errors import Unsupported
from axial.frobenius import (
    _lifted,
    _reconstruct,
    eigenspace_orthogonality_violations,
    is_symmetric_form,
)
from axial.linalg import EchelonAccumulator, Matrix, cleared, invert
from axial.serialize import dump_algebra
from vectors import vadd

EXPECTED = Path(__file__).resolve().parents[1] / "scripts" / "expected"


def zero_product_pair():
    # two orthogonal idempotents; a + b is an axis of zero norm under the
    # canonical fallback, which must block the radical shortcut
    return Algebra(
        QQ,
        ("a", "b"),
        {(0, 0): (1, 0), (1, 1): (0, 1)},
        axes=[("a", (1, 0)), ("b", (0, 1)), ("ab", (1, 1))],
    )


class TestSolutionSpace:
    def test_dims_on_golden_algebras(self):
        for name in NORTON_SAKUMA_NAMES:
            alg = norton_sakuma(name)
            space = frobenius_solution_space(alg)
            assert space.dim == (2 if name == "2B" else 1), name

    def test_associativity_of_solutions(self):
        alg = norton_sakuma("4A")
        sol = solve_frobenius(alg)
        gram = sol.canonical
        for i in range(alg.dim):
            for j in range(alg.dim):
                for k in range(alg.dim):
                    u = alg.basis_vector(i)
                    v = alg.basis_vector(j)
                    w = alg.basis_vector(k)
                    assert form_value(gram, alg.mul(u, v), w) == form_value(
                        gram, u, alg.mul(v, w)
                    )

    def test_basis_forms_symmetric(self):
        alg = norton_sakuma("5A")
        sol = solve_frobenius(alg)
        forms = sol.basis_forms(alg)
        assert len(forms) == sol.dim
        for f in forms:
            assert is_symmetric_form(f)


def lifted_space(alg):
    """The reduced basis of the rows `_lifted` certifies."""
    return EchelonAccumulator.of(alg.field, alg.dim ** 2, _lifted(alg)).subspace()


def typed_rows(space):
    """The basis rows of a subspace with the type of every entry."""
    return [(p, sorted((c, x, type(x)) for c, x in row.items())) for p, row in space.rows.items()]


PRIMES, KERNEL = frobenius._primes, frobenius._kernel  # taken before any patching


def ladder(monkeypatch, *start):
    """Start the prime ladder with `start`, then go on with the first 20 primes
    of the default ladder, so that a lift that never certifies ends (with
    `_lifted` giving None) instead of running on."""
    monkeypatch.setattr(frobenius, "_primes", lambda: chain(start, islice(PRIMES(), 20)))


def kernels(monkeypatch):
    """The (prime, pivot columns) of every `_kernel` call, in order."""
    calls = []

    def counted(alg, ad, p):
        pivots, free = KERNEL(alg, ad, p)
        calls.append((p, pivots))
        return pivots, free

    monkeypatch.setattr(frobenius, "_kernel", counted)
    return calls


def modular_only(monkeypatch):
    """The moduli of the accumulators the solve builds.  The guard fails any
    built without one, except the exact reduction of the answer, by `of`."""
    moduli = []

    class Guarded(EchelonAccumulator):
        def __init__(self, field, ncols, modulus=None):
            assert modulus, "an elimination over the field's own scalars"
            moduli.append(modulus)
            super().__init__(field, ncols, modulus)

        of = classmethod(lambda cls, *args: EchelonAccumulator.of(*args))

    monkeypatch.setattr(frobenius, "EchelonAccumulator", Guarded)
    return moduli


def in_random_basis(alg, rng, digits):
    """alg in the basis f_i = sum_j C_ij e_j, with every C_ij a fraction
    drawn from rng with a numerator in [-10^d, 10^d] and a denominator in
    [1, 10^d]; the axes and the law are carried over."""
    n = alg.dim
    change = Matrix(QQ, [[rational(rng.randint(-10**digits, 10**digits), rng.randint(1, 10**digits))
                          for _ in range(n)] for _ in range(n)])
    back = invert(change).transpose()
    rows = change.data
    return Algebra(QQ, tuple(f"f{i}" for i in range(n)),
                   {(i, j): back.mul_vec(alg.mul(rows[i], rows[j])) for i in range(n) for j in range(i, n)},
                   axes=[(name, back.mul_vec(v)) for name, v in alg.axes], law=alg.law)


class TestModularSolve:
    """The solve eliminates on ints mod p; over Q it goes up a ladder of
    primes until the lifted kernel certifies exactly."""

    def test_matches_exact_engine(self, monkeypatch, solve_case):
        name, alg = solve_case
        want = exact_space(alg)
        moduli = modular_only(monkeypatch)
        got = frobenius_solution_space(alg)
        assert got == want, name
        assert got.pivots == want.pivots
        scalar = type(alg.field.one())
        assert all(type(x) is scalar for row in got.rows.values() for x in row.values())
        assert typed_rows(got) == typed_rows(want), name
        # one elimination, mod p over GF(p) and mod the first prime over QQ
        assert moduli == [alg.field.p if alg.field.p else 2**61 - 1], name

    def test_the_ladder(self):
        primes = list(islice(PRIMES(), 20))
        assert primes[:3] == [2**61 - 1, 2**61 - 31, 2**61 - 45]
        assert sympy.isprime(primes[0]) and sympy.nextprime(primes[0]) > 2**61
        assert all(sympy.prevprime(p) == q for p, q in zip(primes, primes[1:]))

    def test_prime_dividing_a_denominator_is_set_aside(self, monkeypatch):
        # eta = 1/3 puts 3 in the denominators of the structure constants;
        # mod 3 the lift does not certify, and the ladder goes on past it
        alg = matsuo(ThreeTranspositionGroup.symmetric(4), QQ.parse("1/3"))
        want = exact_space(alg)
        ladder(monkeypatch, 3)
        calls = kernels(monkeypatch)
        assert lifted_space(alg) == want
        assert [p for p, _ in calls] == [3, 2**61 - 1]
        assert frobenius_solution_space(alg) == want

    def test_unlucky_prime_is_set_aside(self, monkeypatch):
        # mod 3 the echelon has the rank of Q but later pivots; the next
        # prime replaces it instead of being combined with it
        alg = matsuo(ThreeTranspositionGroup.symmetric(4), QQ.parse("1/3"))
        ladder(monkeypatch, 3, 2**61 - 1)
        calls = kernels(monkeypatch)
        assert lifted_space(alg) == exact_space(alg)
        (three, bad), (big, good) = calls
        assert (three, big) == (3, 2**61 - 1)
        assert len(bad) == len(good) == 35 and bad > good

    def test_later_prime_with_a_lower_rank_is_set_aside(self, monkeypatch):
        # mod 7 the echelon has rank 32, below the 35 of Q and of 10007: 7 is
        # passed over, and 10009 and 10037 join 10007 until the lift certifies
        alg = matsuo(ThreeTranspositionGroup.symmetric(4), QQ.parse("38975/50427"))
        ladder(monkeypatch, 10007, 7, 10009, 10037)
        calls = kernels(monkeypatch)
        assert lifted_space(alg) == exact_space(alg)
        assert [(p, len(pivots)) for p, pivots in calls] == [(10007, 35), (7, 32), (10009, 35), (10037, 35)]

    def test_later_prime_with_later_pivots_is_set_aside(self, monkeypatch):
        # mod 13 the echelon has the rank 35 of Q but later pivots: 13 is
        # passed over, not combined with 10007
        alg = matsuo(ThreeTranspositionGroup.symmetric(4), QQ.parse("38975/50427"))
        ladder(monkeypatch, 10007, 13, 10009, 10037)
        calls = kernels(monkeypatch)
        assert lifted_space(alg) == exact_space(alg)
        assert [(p, len(pivots)) for p, pivots in calls] == [(10007, 35), (13, 35), (10009, 35), (10037, 35)]
        assert calls[1][1] > calls[0][1] == calls[2][1] == calls[3][1]

    def test_small_primes_combine_until_the_lift_certifies(self, monkeypatch):
        # the form entries eta/2 = 38975/100854 are beyond what one or two
        # primes near 10^4 reconstruct; three primes combined by CRT reach
        # them, and so does one of them combined with 2^61 - 1
        alg = matsuo(ThreeTranspositionGroup.symmetric(4), QQ.parse("38975/50427"))
        want = exact_space(alg)
        for start, used in (((10007,), (10007, 2**61 - 1)), ((10007, 10009), (10007, 10009, 2**61 - 1)),
                            ((10007, 10009, 10037), (10007, 10009, 10037))):
            ladder(monkeypatch, *start)
            calls = kernels(monkeypatch)
            assert lifted_space(alg) == want, start
            assert tuple(p for p, _ in calls) == used, start
            assert len({pivots for _, pivots in calls}) == 1, start
            assert frobenius_solution_space(alg) == want, start

    @pytest.mark.parametrize("digits,within_three", [(1, True), (8, False)])
    @pytest.mark.parametrize("table", [
        {(0, 0): {0: 1}, (1, 1): {1: 1}, (2, 2): {2: 1}},  # QQ^3
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (1, 1): {2: 1}},  # QQ[x]/x^3
    ])
    def test_associative_algebra_in_a_random_basis(self, monkeypatch, table, digits, within_three):
        # an associative algebra has a 3-dimensional space of forms (x, y) =
        # f(xy).  In a random basis with d-digit entries, its reduced basis
        # has numerators and denominators of up to 9 digits at d = 1, which
        # the first three primes reach, and of over 100 digits at d = 8, past
        # the 27 digits that three primes reach; there the ladder goes on
        base = Algebra(QQ, ("e0", "e1", "e2"), {ij: {k: QQ.from_int(c) for k, c in v.items()}
                                                 for ij, v in table.items()})
        alg = in_random_basis(base, random.Random(f"{sorted(table)}:{digits}"), digits)
        want = exact_space(alg)
        assert want.dim == 3
        moduli = modular_only(monkeypatch)
        assert frobenius_solution_space(alg) == want
        assert (len(moduli) <= 3) == within_three, len(moduli)
        assert moduli == list(islice(PRIMES(), len(moduli)))

    def test_pinned_random_basis_document(self, monkeypatch):
        # the document CI solves: Matsuo S5 at eta = 1/3 in a random basis
        # with 2-digit entries, which the lift answers after five primes
        alg = in_random_basis(s_n(5, "1/3"), random.Random("5:2"), 2)
        assert dump_algebra(alg) + "\n" == (EXPECTED / "matsuo5_random_basis.json").read_text()
        moduli = modular_only(monkeypatch)
        solve_frobenius(alg)
        assert moduli == list(islice(PRIMES(), 5))

    def test_rows_fed_are_reduced_mod_p(self, monkeypatch):
        # in a random basis the int layout has entries far past 2^61; each
        # prime eliminates on the layout reduced mod p, never on those ints
        alg = in_random_basis(s_n(5, "1/3"), random.Random("5:2"), 2)
        want = frobenius_solution_space(alg)
        wide = [abs(c) for row in alg._int_layout()[1] for pairs in row for _, c in pairs]
        assert max(wide) > 2**61
        fed = []

        class Watched(EchelonAccumulator):
            def add_row(self, row):
                if self.modulus:
                    fed.append(max(map(abs, row.values()), default=0) < self.modulus)
                return super().add_row(row)

        monkeypatch.setattr(frobenius, "EchelonAccumulator", Watched)
        assert frobenius_solution_space(alg) == want
        assert fed and all(fed)

    def test_reconstruct(self):
        m = 10007 * 10009
        for a, b in ((0, 1), (1, 1), (-1, 1), (3, 7), (-38, 91), (7000, 7001), (-1, 7000)):
            assert _reconstruct(a * pow(b, -1, m) % m, m) == rational(a, b), (a, b)
        # past sqrt(m/2) the fraction is out of reach
        u = 38975 * pow(100854, -1, m) % m
        assert _reconstruct(u, m) != rational(38975, 100854)


def int_table(alg):
    """(structure constants as ints, prime) as the modular solve takes them:
    over QQ scaled by their common denominator, with the first prime of the
    solve; over GF(p) their residues, with p."""
    if alg.field == QQ:
        den = lcm(*(c.denominator for pairs in alg.products.values() for _, c in pairs))
        table = {ij: tuple((k, c.numerator * (den // c.denominator)) for k, c in pairs)
                 for ij, pairs in alg.products.items()}
        return table, next(PRIMES())
    return {ij: tuple((k, c.v) for k, c in pairs) for ij, pairs in alg.products.items()}, alg.field.p


def full_feed(alg, table, p=None):
    """(pivots, kernel basis) of every equation (i, j, l), written out from
    the table in the order i, j, l, eliminated mod p or, without p, exactly
    over the algebra's field."""
    n = alg.dim

    def c(i, j):
        return table.get((i, j) if i <= j else (j, i), ())

    acc = EchelonAccumulator(alg.field, n * n, p)
    for i in range(n):
        for j in range(n):
            for l in range(n):
                row = {}
                for m, x in c(j, l):  # (e_i, e_j e_l)
                    row[i * n + m] = row.get(i * n + m, 0) + x
                for m, x in c(i, j):  # (e_i e_j, e_l)
                    row[m * n + l] = row.get(m * n + l, 0) - x
                if p:
                    row = {k: x % p for k, x in row.items()}
                acc.add_row({k: x for k, x in row.items() if x})
    return tuple(sorted(acc.rows)), acc.kernel_basis()


def exact_space(alg):
    """The oracle: the solution space from one exact echelon of all n^3
    equations at once, over the algebra's field."""
    _, free = full_feed(alg, alg.products)
    return EchelonAccumulator.of(alg.field, alg.dim ** 2, free.values()).subspace()


BLOCK = frobenius._block  # the routine `blocks_fed` wraps, taken before any wrapping


def blocks_fed(monkeypatch, alg):
    """The blocks `_kernel` feeds for the algebra, in order, and its result,
    on the int layout and prime that the solve passes."""
    fed = []
    monkeypatch.setattr(frobenius, "_block", lambda n, ad, j: fed.append(j) or BLOCK(n, ad, j))
    return fed, frobenius._kernel(alg, alg._int_layout()[1], int_table(alg)[1])


def solves_block(alg, table, g, j, p=None):
    """Whether the flat Gram vector g solves every equation (i, j, l) of
    block j, each written out from the table and evaluated on G entry by
    entry, mod p or, without p, exactly."""
    n = alg.dim

    def c(i, j):
        return table.get((i, j) if i <= j else (j, i), ())

    for i in range(n):
        for l in range(n):
            lhs = sum((x * g.get(i * n + m, 0) for m, x in c(j, l)), 0)  # (e_i, e_j e_l)
            rhs = sum((x * g.get(m * n + l, 0) for m, x in c(i, j)), 0)  # (e_i e_j, e_l)
            if (lhs - rhs) % p if p else lhs - rhs:
                return False
    return True


def s_n(n, eta="1/4", field=QQ):
    return matsuo(ThreeTranspositionGroup.symmetric(n), field.parse(eta), field)


class TestBlockSolve:
    """The equations are fed one block G ad_j = ad_j^T G at a time, and the
    feed stops once the kernel solves the blocks left; the result is that
    of feeding every equation mod p."""

    def test_matches_full_feed(self, solve_case):
        name, alg = solve_case
        table, p = int_table(alg)
        assert frobenius._kernel(alg, alg._int_layout()[1], p) == full_feed(alg, table, p), name

    def test_exact_matches_full_feed(self, solve_case):
        # the kernel basis the solve answers from, lifted over QQ or read in
        # GF(p), is the exact one of all the equations, vector by vector
        name, alg = solve_case
        want = full_feed(alg, alg.products)
        if alg.field == QQ:
            got = _lifted(alg)
        else:
            free = frobenius._kernel(alg, alg._int_layout()[1], alg.field.p)[1].values()
            got = [{c: alg.field.from_int(x) for c, x in row.items()} for row in free]
        assert got == list(want[1].values()), name
        scalar = type(alg.field.one())
        assert all(type(x) is scalar for row in got for x in row.values())

    @pytest.mark.parametrize("exact", [False, True], ids=["ints", "exact"])
    def test_solves_matches_the_equations(self, solve_case, exact):
        # the kernel vectors of one block, most of them not symmetric, checked
        # on that block and the next against the equations written out: mod p
        # as the stop check of `_kernel` takes them or, with `exact`, over Z,
        # their denominators cleared, as the certificate of `_lifted` does
        name, alg = solve_case
        n = alg.dim
        table, p = int_table(alg)
        ad = alg._int_layout()[1]
        if exact:
            p = None
        seen = set()
        for j in range(min(n, 2)):
            acc = EchelonAccumulator(QQ if exact else alg.field, n * n, p)
            for row in BLOCK(n, ad, j):
                acc.add_row(row)
            free = acc.kernel_basis().values()
            if exact:
                free = [cleared(QQ, [g])[1][0] for g in free]
            for g in list(free)[:40]:
                transposed = {(t % n) * n + t // n: x for t, x in g.items()}
                for k in (j, (j + 1) % n):
                    want = solves_block(alg, table, g, k, p)
                    assert frobenius._solves(n, ad, g, [k], p) == want, (name, j, k)
                    seen.add((want, g != transposed))
        if n >= 5:  # below, every kernel vector of a block is symmetric in these cases
            assert {(True, True), (False, True)} <= seen, name

    @pytest.mark.parametrize("alg,blocks", [
        (s_n(4), 3), (s_n(4, field=GF(10007)), 3), (s_n(5), 4), (s_n(5, field=GF(2**31 - 1)), 4),
        (hw_periodic_quotient(6), 2), (norton_sakuma("6A"), 2),
    ], ids=["S4:QQ", "S4:GF(10007)", "S5:QQ", "S5:GF(2^31-1)", "hw:6", "ns:6A"])
    def test_stops_after_the_blocks_it_needs(self, monkeypatch, alg, blocks):
        fed, got = blocks_fed(monkeypatch, alg)
        assert fed == list(range(blocks)) and blocks < alg.dim
        assert got == full_feed(alg, *int_table(alg))

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF(7)"])
    def test_dimension_zero(self, monkeypatch, field):
        alg = Algebra(field, (), {})
        assert blocks_fed(monkeypatch, alg) == ([], ((), {}))
        space = frobenius_solution_space(alg)
        assert space == exact_space(alg) and space.dim == 0
        sol = solve_frobenius(alg)
        assert sol.canonical is None and not sol.ambiguous and sol.axis_norms is None

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF(7)"])
    def test_zero_product_algebra(self, monkeypatch, field):
        # every bilinear form is a Frobenius form; the first block shows it
        alg = Algebra(field, ("x", "y", "z"), {})
        fed, (pivots, free) = blocks_fed(monkeypatch, alg)
        assert fed == [0] and pivots == () and len(free) == 9
        space = frobenius_solution_space(alg)
        assert space == exact_space(alg) and space.dim == 9


class TestNormalisation:
    def test_axis_norms_one(self):
        alg = matsuo(ThreeTranspositionGroup.symmetric(3), QQ.parse("1/4"))
        sol = solve_frobenius(alg)
        assert not sol.ambiguous
        assert all(n == QQ.one() for n in sol.axis_norms)

    def test_inconsistent_norms_fall_back(self):
        alg = zero_product_pair()
        sol = solve_frobenius(alg)
        # (a+b, a+b) = 2 whenever both diagonal entries are 1, so the
        # all-axes system is unsolvable and only the first axis is pinned
        assert sol.ambiguous
        assert sol.canonical is not None
        assert sol.axis_norms == (QQ.one(), QQ.zero(), QQ.one())

    def test_unnormalisable_line(self):
        ss = split_spin_factor([[1, 0], [0, 1]], QQ.parse("-1")).algebra
        sol = solve_frobenius(ss)
        assert sol.dim == 1
        assert sol.canonical is None and sol.ambiguous


class TestRadical:
    def test_nondegenerate_radical_trivial(self):
        for name in ("2A", "3C", "6A"):
            alg = norton_sakuma(name)
            assert radical(alg, solve_frobenius(alg)).dim == 0

    def test_degenerate_matsuo(self):
        alg = matsuo(ThreeTranspositionGroup.symmetric(3), QQ.parse("-1"))
        rad = radical(alg, solve_frobenius(alg))
        assert rad.dim == 1
        assert rad.contains(
            vadd(vadd(alg.basis_vector(0), alg.basis_vector(1)), alg.basis_vector(2))
        )

    def test_zero_axis_norm_unsupported(self):
        alg = zero_product_pair()
        with pytest.raises(Unsupported):
            radical(alg, solve_frobenius(alg))

    def test_needs_axes(self):
        alg = zero_product_pair().with_axes([])
        with pytest.raises(Unsupported):
            radical(alg, solve_frobenius(alg))

    def test_needs_canonical_form(self):
        ss = split_spin_factor([[1, 0], [0, 1]], QQ.parse("-1")).algebra
        with pytest.raises(Unsupported):
            radical(ss, solve_frobenius(ss))

    def test_form_radical_of_degenerate_line(self):
        # the unique associative line still has a form radical, and it is
        # exactly the subalgebra the three axes generate
        ss = split_spin_factor([[1, 0], [0, 1]], QQ.parse("-1")).algebra
        form = solve_frobenius(ss).basis_forms(ss)[0]
        rad = form_radical(ss, form)
        assert rad.dim == 3
        assert ss.is_ideal(rad)
        gen = ss.subalgebra_gen(ss.axis_vectors())
        assert gen.dim == 3 and gen.is_subspace_of(rad)


class TestOrthogonality:
    def test_canonical_form_clean(self):
        alg = norton_sakuma("4B")
        sol = solve_frobenius(alg)
        for _, vec in alg.axes:
            assert eigenspace_orthogonality_violations(alg, sol.canonical, vec, alg.law) == []

    def test_identity_form_violates(self):
        alg = norton_sakuma("3A")
        ident = Matrix.identity(QQ, alg.dim)
        viols = eigenspace_orthogonality_violations(alg, ident, alg.axes[0][1], alg.law)
        assert viols
        lam, mu, u, v = viols[0]
        assert lam != mu
        assert form_value(ident, u, v) != QQ.zero()


class TestProjection:
    def test_functional_normalised_on_axis(self):
        alg = norton_sakuma("3A")
        a = alg.axes[0][1]
        phi = projection_functional(alg, a)
        value = sum(c * x for c, x in zip(phi, a))
        assert value == QQ.one()

    def test_functional_reads_form_entries(self):
        # phi_a(v) = (a, v) / (a, a) for the canonical form
        alg = norton_sakuma("3A")
        sol = solve_frobenius(alg)
        a = alg.axes[0][1]
        phi = projection_functional(alg, a)
        for i in range(alg.dim):
            e = alg.basis_vector(i)
            got = sum(c * x for c, x in zip(phi, e))
            want = form_value(sol.canonical, a, e) / form_value(sol.canonical, a, a)
            assert got == want

    @staticmethod
    def assert_forms_agree_with_projection_functionals(name, alg):
        # a second derivation of the forms: for a primitive axis a, the
        # eigenspaces of ad_a are orthogonal under any associating form, so
        # (a, u) = phi_a(u) (a, a) with phi_a from the eigenspace decomposition
        sol = solve_frobenius(alg)
        forms = [sol.canonical] if sol.canonical is not None else []
        forms += sol.basis_forms(alg)
        for _, a in alg.axes:
            assert check_axis(alg, a, alg.law).is_primitive, name
            phi = projection_functional(alg, a)
            for form in forms:
                norm = form_value(form, a, a)
                for i in range(alg.dim):
                    assert form_value(form, a, alg.basis_vector(i)) == phi[i] * norm, (name, i)

    def test_forms_agree_with_projection_functionals_on_golden(self, golden):
        for name, alg in golden:
            self.assert_forms_agree_with_projection_functionals(name, alg)

    def test_forms_agree_with_projection_functionals(self, solve_case):
        self.assert_forms_agree_with_projection_functionals(*solve_case)

    def test_graph_symmetric_on_golden(self):
        alg = norton_sakuma("3A")
        axet = close_axes(alg, [alg.axes[0][1], alg.axes[1][1]])
        g = projection_graph(alg, axet)
        assert g.is_symmetric
        assert all((j, i) in g.edges for i, j in g.edges)
