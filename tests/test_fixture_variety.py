"""The same laws on structurally different instances.

The cyclic group-algebra fixtures are grouplike (all structure maps are
0/1 permutation-flavoured matrices), so these tests run the full pipeline on
a non-grouplike comonoid (functions on a cyclic group), on the rationals, on
a group of composite order, and on coherence instances whose commuting
endomorphisms are not diagonal.
"""

import random
from fractions import Fraction

import pytest

from bihomcheck.coherence import (
    BiHomObject,
    DuoidalInstance,
    LaxInstance,
    check_duoidal_figure,
    check_lax_figure,
)
from bihomcheck.errors import NotInvertible
from bihomcheck.exactlin import GF, QQ, DenseMap, Scalar, compose
from bihomcheck.fixtures import (
    cyclic_group_bundle,
    dual_cyclic_bundle,
    group_power_endo,
    sweedler_bundle,
)
from bihomcheck.structures import (
    ALTERNATIVE,
    ITERATIVE,
    StructureBundle,
    check_bimonoid,
    check_generalized_assoc,
    check_generalized_coassoc,
    check_hopf_module,
    coassoc_sequences,
    delta_n,
    mu_n,
    regular_comodule,
    regular_module,
)
from bihomcheck.twist import (
    DIRECT,
    FOUND,
    NON_UNIQUE,
    VIA_UNTWIST,
    PlainStructure,
    antipode_solve,
    untwist,
    yau_twist,
)

F7 = GF(7)


def twisted_dual(field):
    return yau_twist(PlainStructure(dual_cyclic_bundle(field, 3, 2)))


class TestDualCyclicFixture:
    @pytest.mark.parametrize("field", [F7, QQ], ids=str)
    def test_classical_is_a_bimonoid(self, field):
        assert check_bimonoid(dual_cyclic_bundle(field, 3, 1)).passed

    @pytest.mark.parametrize("field", [F7, QQ], ids=str)
    def test_twisted_is_a_bimonoid(self, field):
        assert check_bimonoid(twisted_dual(field)).passed

    @pytest.mark.parametrize("field", [F7, QQ], ids=str)
    @pytest.mark.parametrize("n", range(3, 7))
    def test_comultiplication_is_not_grouplike(self, field, n):
        # the delta function at i factors n ways, as j (x) (i - j): column i
        # holds a one at each j*n + (i - j) mod n and zeros elsewhere
        rows = dual_cyclic_bundle(field, n, 1).delta.rows()
        for i in range(n):
            assert {r for r in range(n * n) if rows[r][i] != 0} == \
                {j * n + (i - j) % n for j in range(n)}
            assert {rows[j * n + (i - j) % n][i] for j in range(n)} == {1}

    @pytest.mark.parametrize("field", [F7, QQ], ids=str)
    def test_antipode_agrees_both_ways(self, field):
        t = twisted_dual(field)
        direct = antipode_solve(t, DIRECT)
        via = antipode_solve(t, VIA_UNTWIST)
        assert direct.status == via.status == FOUND
        assert direct.chi == via.chi == group_power_endo(field, 3, 2)

    def test_round_trip(self):
        plain = PlainStructure(dual_cyclic_bundle(QQ, 3, 2))
        assert untwist(yau_twist(plain)).bundle == plain.bundle

    def test_iterated_coproducts_agree(self):
        t = twisted_dual(F7)
        for n in range(6):
            assert delta_n(t, n, ITERATIVE) == delta_n(t, n, ALTERNATIVE)
            assert mu_n(t, n, ITERATIVE) == mu_n(t, n, ALTERNATIVE)

    def test_generalized_laws_sweep(self):
        t = twisted_dual(F7)
        for k in coassoc_sequences(4):
            assert check_generalized_coassoc(t, k).passed, k
            assert check_generalized_assoc(t, k).passed, k

    def test_regular_hopf_module(self):
        t = twisted_dual(F7)
        assert check_hopf_module(regular_module(t), regular_comodule(t)).passed


SWEEDLER_CASES = [(QQ, Fraction(2, 5)), (QQ, 3), (F7, 3)]


@pytest.mark.parametrize("field, lam", SWEEDLER_CASES, ids=["Q-2/5", "Q-3", "F7-3"])
class TestSweedlerFixture:
    """H_4 twisted along x -> lam x: not commutative, not cocommutative, and
    the first fixture with entries other than 0 and 1."""

    def test_table(self, field, lam):
        b = sweedler_bundle(field, lam)
        # basis 1, g, x, gx: gx . g = g x g = -x, and Delta x = x (x) 1 + g (x) x
        assert b.mu.entry(2, 4 * 3 + 1) == Scalar.of(field, -1)
        assert [r for r in range(16) if b.delta.rows()[r][2] != 0] == [4 * 1 + 2, 4 * 2 + 0]
        assert [b.obj.alpha.entry(i, i).value for i in range(4)] == [1, 1, lam, lam]

    def test_classical_and_twisted_are_bimonoids(self, field, lam):
        assert check_bimonoid(sweedler_bundle(field, 1)).passed
        assert check_bimonoid(yau_twist(PlainStructure(sweedler_bundle(field, lam)))).passed

    def test_regular_hopf_module(self, field, lam):
        t = yau_twist(PlainStructure(sweedler_bundle(field, lam)))
        assert check_hopf_module(regular_module(t), regular_comodule(t)).passed

    def test_antipode_agrees_both_ways(self, field, lam):
        t = yau_twist(PlainStructure(sweedler_bundle(field, lam)))
        direct = antipode_solve(t, DIRECT)
        via = antipode_solve(t, VIA_UNTWIST)
        assert direct.status == via.status == FOUND
        # S(g) = g, S(x) = -gx and S(gx) = x: the classical antipode, which
        # commutes with x -> lam x
        assert direct.chi == via.chi == DenseMap.from_rows(
            field, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])

    def test_round_trip(self, field, lam):
        plain = PlainStructure(sweedler_bundle(field, lam))
        assert untwist(yau_twist(plain)).bundle == plain.bundle


class TestCompositeOrderOverRationals:
    def test_twisted_c4(self):
        t = yau_twist(PlainStructure(cyclic_group_bundle(QQ, 4, 3)))
        assert check_bimonoid(t).passed
        direct = antipode_solve(t, DIRECT)
        via = antipode_solve(t, VIA_UNTWIST)
        assert direct.chi == via.chi == group_power_endo(QQ, 4, 3)

    def test_c4_coassociativity_sweep(self):
        t = yau_twist(PlainStructure(cyclic_group_bundle(QQ, 4, 3)))
        for k in coassoc_sequences(4):
            assert check_generalized_coassoc(t, k).passed, k


def product_group_bundle(field, m, n):
    """k[C_m x C_n] from its group table, basis (a, b) at index a * n + b,
    with (a, b) -> (a, 0) in every endomorphism slot: a bialgebra
    endomorphism that is not invertible for n > 1."""
    elements = [(a, b) for a in range(m) for b in range(n)]
    index = {g: i for i, g in enumerate(elements)}
    d = len(elements)

    def basis_map(dst, images):  # source basis j goes to target basis images[j]
        return DenseMap.from_flat(field, dst, len(images), [
            int(images[j] == i) for i in range(dst) for j in range(len(images))])

    mu = basis_map(d, [index[(a + c) % m, (b + e) % n] for a, b in elements for c, e in elements])
    delta = basis_map(d * d, [i * d + i for i in range(d)])
    phi = basis_map(d, [index[a, 0] for a, _ in elements])
    return StructureBundle(BiHomObject(d, field, phi, phi, phi, phi), mu=mu,
                           eta=basis_map(d, [index[0, 0]]), delta=delta,
                           epsilon=DenseMap.from_flat(field, 1, d, [1] * d))


@pytest.mark.parametrize("field", [QQ, F7], ids=str)
@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 3)], ids=lambda v: str(v))
class TestTwistThatCannotBeUndone:
    """k[C_m x C_n] twisted along (a, b) -> (a, 0): a singular alpha for invert
    and a non-unique antipode for the solver."""

    def test_is_a_bimonoid_and_a_regular_hopf_module(self, field, m, n):
        t = yau_twist(PlainStructure(product_group_bundle(field, m, n)))
        assert check_bimonoid(t).passed
        assert check_hopf_module(regular_module(t), regular_comodule(t)).passed

    def test_untwist_is_refused(self, field, m, n):
        t = yau_twist(PlainStructure(product_group_bundle(field, m, n)))
        with pytest.raises(NotInvertible, match="^alpha is singular$"):
            untwist(t)

    def test_direct_antipode_is_not_unique(self, field, m, n):
        t = yau_twist(PlainStructure(product_group_bundle(field, m, n)))
        got = antipode_solve(t, DIRECT)
        assert got.status == NON_UNIQUE
        # the witness of the reduced row echelon form, every free unknown zero:
        # (a, 0) -> (-a, 0), and every (a, b) with b != 0 to zero
        images = {a * n: (-a % m) * n for a in range(m)}
        assert got.witness == DenseMap.from_flat(field, m * n, m * n, [
            int(images.get(j) == i) for i in range(m * n) for j in range(m * n)])


def poly_endo(rng, m, field):
    # a random polynomial in a fixed matrix; any two of these commute
    out = DenseMap.zero(field, m.dst_dim, m.dst_dim)
    power = DenseMap.identity(field, m.dst_dim)
    for _ in range(3):
        coeff = rng.randrange(7) if field.kind == "prime_field" \
            else rng.randint(-2, 2)
        out = out + power.scale(coeff)
        power = compose(power, m)
    return out


def poly_object(rng, field, max_dim, four):
    dim = rng.randint(1, max_dim)
    rows = [[rng.randrange(7) if field.kind == "prime_field"
             else rng.randint(-1, 1) for _ in range(dim)] for _ in range(dim)]
    m = DenseMap.from_rows(field, rows)
    endos = [poly_endo(rng, m, field) for _ in range(4 if four else 2)]
    return BiHomObject(dim, field, *endos)


class TestNonDiagonalEndomorphisms:
    def test_lax_figure(self):
        rng = random.Random(101)
        for _ in range(30):
            n = rng.randint(0, 3)
            m = tuple(rng.randint(0, 3) for _ in range(n))
            k = tuple(tuple(rng.randint(0, 2) for _ in range(m[i]))
                      for i in range(n))
            if 2 ** sum(map(sum, k)) > 2048:
                continue
            objects = tuple(tuple([poly_object(rng, F7, 2, False)
                                   for _ in range(k[i][j])]
                                  for j in range(m[i]))
                            for i in range(n))
            rep = check_lax_figure(LaxInstance(m, k, objects, F7))
            assert rep.passed, (m, k, rep.failures())

    def test_duoidal_figure(self):
        rng = random.Random(102)
        for _ in range(25):
            n, p = rng.randint(0, 3), rng.randint(0, 2)
            k = tuple(rng.randint(0, 2) for _ in range(p))
            if 2 ** (n * sum(k)) > 2048:
                continue
            objects = tuple(tuple([poly_object(rng, F7, 2, True)
                                   for _ in range(k[i])] for i in range(p))
                            for _ in range(n))
            rep = check_duoidal_figure(DuoidalInstance(n, p, k, objects, F7))
            assert rep.passed, (n, p, k, rep.failures())

    def test_rational_figures(self):
        rng = random.Random(103)
        for _ in range(5):
            k = ((rng.randint(1, 2),), (rng.randint(0, 2),))
            m = (1, 1)
            objects = tuple(tuple([poly_object(rng, QQ, 2, False)
                                   for _ in range(k[i][j])]
                                  for j in range(m[i]))
                            for i in range(2))
            assert check_lax_figure(LaxInstance(m, k, objects, QQ)).passed
