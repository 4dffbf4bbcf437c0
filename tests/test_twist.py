import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihomcheck.coherence import BiHomObject, unit_object
from bihomcheck.errors import (
    DimensionMismatch,
    InvariantViolation,
    MissingMap,
    NotInvertible,
)
from bihomcheck.exactlin import (
    GF,
    QQ,
    UNDERDETERMINED,
    DenseMap,
    _operands,
    compose,
    compose_all,
    invert,
    kron,
    solve_linear,
)
from bihomcheck.fixtures import (
    classical_c3,
    cyclic_group_bundle,
    group_power_endo,
    idempotent_monoid_bialgebra,
    inversion_antipode,
    plain_twisting_c3,
    twisted_c3,
)
from bihomcheck.structures import StructureBundle, check_bimonoid, regular_module

from conftest import mod7_matrix, rational_matrix
from bihomcheck.twist import (
    BIMONOID,
    COMONOID,
    DIRECT,
    FOUND,
    MONOID,
    NO_ANTIPODE,
    NON_UNIQUE,
    VIA_UNTWIST,
    AntipodeResult,
    PlainStructure,
    _antipode_system,
    antipode_solve,
    canonical_morphism,
    untwist,
    validate_plain,
    yau_twist,
)

F7 = GF(7)


def _flat_matrix(field, entries):
    """Matrices over field whose entries the strategy entries draws."""
    return lambda dst, src: st.lists(entries, min_size=dst * src, max_size=dst * src).map(
        lambda values: DenseMap.from_flat(field, dst, src, values))


# (field, matrices, whether the contraction runs on Python ints): numerators past
# the int64 guard, |entry| >= 2^32 over Q and every entry over F_(2^61-1), do
_SYSTEM_CASES = [
    (F7, mod7_matrix, False),
    (QQ, rational_matrix, False),
    (QQ, _flat_matrix(QQ, st.integers(2**32, 2**40) | st.integers(-2**40, -2**32)), True),
    (GF(2**61 - 1), _flat_matrix(GF(2**61 - 1), st.integers(0, 2**61 - 2)), True),
]


class TestYauTwist:
    def test_identity_endomorphisms_twist_trivially(self):
        p = PlainStructure(classical_c3())
        out = yau_twist(p, BIMONOID)
        assert out == classical_c3()

    def test_twisted_fixture_is_a_bimonoid(self):
        assert check_bimonoid(twisted_c3()).passed

    def test_twisted_maps_have_the_stated_form(self):
        plain = plain_twisting_c3().bundle
        out = yau_twist(plain_twisting_c3(), BIMONOID)
        phi = group_power_endo(F7, 3, 2)
        assert out.delta == compose(kron(phi, phi), plain.delta)
        assert out.mu == compose(plain.mu, kron(phi, phi))
        assert out.eta == plain.eta and out.epsilon == plain.epsilon

    def test_comonoid_direction_only_touches_coalgebra(self):
        out = yau_twist(plain_twisting_c3(), COMONOID)
        assert out.mu is None and out.eta is None
        assert out.delta is not None and out.epsilon is not None

    def test_monoid_direction(self):
        out = yau_twist(plain_twisting_c3(), MONOID)
        assert out.delta is None and out.mu is not None

    def test_non_morphism_endomorphism_rejected(self):
        b = classical_c3()
        scaling = DenseMap.from_rows(F7, [[1, 0, 0], [0, 1, 0], [0, 0, 2]])
        ident = DenseMap.identity(F7, 3)
        obj = BiHomObject(3, F7, scaling, ident, ident, ident)
        bad = StructureBundle(obj, mu=b.mu, eta=b.eta,
                              delta=b.delta, epsilon=b.epsilon)
        with pytest.raises(InvariantViolation):
            yau_twist(PlainStructure(bad), COMONOID)

    def test_validate_plain_passes_on_fixture(self):
        validate_plain(plain_twisting_c3(), BIMONOID)


class TestUntwist:
    def test_round_trip_on_structure_maps(self):
        p = plain_twisting_c3()
        assert untwist(yau_twist(p, BIMONOID)).bundle == p.bundle

    def test_twist_after_untwist(self):
        t = twisted_c3()
        assert yau_twist(untwist(t), BIMONOID) == t

    def test_untwisted_maps_are_classical(self):
        # the untwisted maps agree with the classical group bialgebra
        t = untwist(twisted_c3()).bundle
        c = classical_c3()
        assert (t.mu, t.eta, t.delta, t.epsilon) == (c.mu, c.eta, c.delta, c.epsilon)
        ident_obj = c.obj
        rebuilt = StructureBundle(ident_obj, mu=t.mu, eta=t.eta,
                                  delta=t.delta, epsilon=t.epsilon)
        assert check_bimonoid(rebuilt).passed

    def test_singular_endomorphism_refused(self):
        b = classical_c3()
        zero = DenseMap.zero(F7, 3, 3)
        ident = DenseMap.identity(F7, 3)
        obj = BiHomObject(3, F7, ident, ident, zero, ident)
        bundle = StructureBundle(obj, mu=b.mu, eta=b.eta)
        with pytest.raises(NotInvertible, match="kappa"):
            untwist(bundle)

    def test_nothing_to_untwist(self):
        with pytest.raises(MissingMap):
            untwist(StructureBundle(classical_c3().obj))


def _diagonal(*entries):
    return DenseMap.from_rows(F7, [[v if i == j else 0 for j in range(len(entries))]
                                   for i, v in enumerate(entries)])


def _c3_maps_on(*endos):
    b = classical_c3()
    return StructureBundle(BiHomObject(3, F7, *endos), mu=b.mu, eta=b.eta,
                           delta=b.delta, epsilon=b.epsilon)


class TestPinnedTexts:
    """Error texts whose order follows the sides a direction twists: the
    comonoid side's names and checks come first, and within a name the maps
    run mu, eta, delta, epsilon."""

    SCALE, ZERO, TWICE, ONE = (_diagonal(1, 1, 2), _diagonal(0, 0, 0),
                               _diagonal(2, 2, 2), _diagonal(1, 1, 1))

    @pytest.mark.parametrize("direction, text", [
        (COMONOID, "alpha is not a morphism for delta; alpha is not a morphism for "
                   "epsilon; beta is not a morphism for epsilon"),
        (MONOID, "kappa is not a morphism for mu; kappa is not a morphism for eta; "
                 "nu is not a morphism for mu; nu is not a morphism for eta"),
        (BIMONOID, "alpha is not a morphism for mu; alpha is not a morphism for delta; "
                   "alpha is not a morphism for epsilon; beta is not a morphism for eta; "
                   "beta is not a morphism for epsilon; kappa is not a morphism for mu; "
                   "kappa is not a morphism for eta; kappa is not a morphism for delta; "
                   "kappa is not a morphism for epsilon; nu is not a morphism for mu; "
                   "nu is not a morphism for eta; nu is not a morphism for epsilon"),
    ])
    def test_validate_plain_failure_text(self, direction, text):
        bad = _c3_maps_on(self.SCALE, self.ZERO, self.TWICE, _diagonal(0, 1, 1))
        with pytest.raises(InvariantViolation) as exc:
            validate_plain(PlainStructure(bad), direction)
        assert str(exc.value) == text

    def test_missing_endomorphisms_listed_in_place(self):
        bad = _c3_maps_on(self.SCALE, self.ZERO)
        with pytest.raises(InvariantViolation) as exc:
            validate_plain(PlainStructure(bad), BIMONOID)
        assert str(exc.value) == (
            "alpha is not a morphism for mu; alpha is not a morphism for delta; "
            "alpha is not a morphism for epsilon; beta is not a morphism for eta; "
            "beta is not a morphism for epsilon; kappa missing; nu missing")

    @pytest.mark.parametrize("endos, name", [
        ((ZERO, ZERO, ONE, ONE), "alpha"),
        ((ONE, ZERO, ZERO, ONE), "beta"),
        ((ONE, ONE, ZERO, ZERO), "kappa"),
    ])
    def test_first_singular_endomorphism_named(self, endos, name):
        with pytest.raises(NotInvertible, match=f"^{name} is singular$"):
            untwist(_c3_maps_on(*endos))

    @pytest.mark.parametrize("direction, name", [
        (COMONOID, "delta"), (MONOID, "mu"), (BIMONOID, "delta")])
    def test_missing_map_named(self, direction, name):
        b = classical_c3()
        units_only = StructureBundle(b.obj, eta=b.eta, epsilon=b.epsilon)
        with pytest.raises(MissingMap, match=f"^structure has no {name}$"):
            yau_twist(PlainStructure(units_only), direction)


class TestAntipode:
    def test_classical_antipode_is_inversion(self):
        res = antipode_solve(classical_c3(), DIRECT)
        assert res.status == FOUND and res.both_sided
        assert res.chi == inversion_antipode(F7, 3)

    def test_classical_antipode_by_convolution_oracle(self):
        # brute force over the three basis vectors: g^i . chi(g^i) = e
        res = antipode_solve(classical_c3(), DIRECT)
        chi = res.chi
        for i in range(3):
            col = [row[i] for row in chi.rows()]
            images = [j for j in range(3) if col[j] != 0]
            assert images == [(3 - i) % 3] and col[images[0]] == 1

    def test_twisted_both_methods_agree(self):
        t = twisted_c3()
        direct = antipode_solve(t, DIRECT)
        via = antipode_solve(t, VIA_UNTWIST)
        assert direct.status == via.status == FOUND
        assert direct.chi == via.chi == group_power_endo(F7, 3, 2)

    def test_rational_change_of_basis_conjugates_the_antipode(self):
        # a non-integral basis P of twisted Q[C_3]: the system has fractional
        # coefficients, and the antipode must come out as P.chi.P^-1
        t = yau_twist(PlainStructure(cyclic_group_bundle(QQ, 3, 2)))
        p = DenseMap.from_rows(QQ, [["1/2", 1, 0], [0, "2/3", "-1/5"], [3, 0, "7/4"]])
        q = invert(p)
        endo = compose_all([p, t.obj.alpha, q])
        obj = BiHomObject(3, QQ, endo, endo, endo, endo)
        conj = StructureBundle(obj, mu=compose_all([p, t.mu, kron(q, q)]),
                               eta=compose(p, t.eta),
                               delta=compose_all([kron(p, p), t.delta, q]),
                               epsilon=compose(t.epsilon, q))
        expected = compose_all([p, antipode_solve(t, DIRECT).chi, q])
        for method in (DIRECT, VIA_UNTWIST):
            res = antipode_solve(conj, method)
            assert res.status == FOUND and res.chi == expected

    def test_twisted_chi_reverifies_by_explicit_composition(self):
        t = twisted_c3()
        chi = antipode_solve(t, DIRECT).chi
        obj = t.obj
        ident = DenseMap.identity(F7, 3)
        sandwich = kron(compose(obj.beta, obj.nu), compose(obj.alpha, obj.kappa))
        rhs = compose(t.eta, t.epsilon)
        assert compose_all([t.mu, sandwich, kron(ident, chi), t.delta]) == rhs
        assert compose_all([t.mu, sandwich, kron(chi, ident), t.delta]) == rhs

    def test_non_hopf_bialgebra_has_no_antipode(self):
        for field in (QQ, F7):
            res = antipode_solve(idempotent_monoid_bialgebra(field), DIRECT)
            assert res.status == NO_ANTIPODE
            assert res.chi is None and res.witness is None

    def test_non_bimonoid_rejected(self):
        plain = cyclic_group_bundle(F7, 3, 2)  # untwisted maps, twisted endos
        with pytest.raises(InvariantViolation):
            antipode_solve(plain, DIRECT)

    def test_untwist_method_needs_invertible_endos(self):
        b = idempotent_monoid_bialgebra(F7)
        zero = DenseMap.zero(F7, 2, 2)
        ident = DenseMap.identity(F7, 2)
        obj = BiHomObject(2, F7, ident, ident, ident, zero)
        # endomorphisms must still be structure morphisms for a bimonoid;
        # the zero map is not, so go through the internal route instead
        bundle = StructureBundle(obj, mu=b.mu, eta=b.eta,
                                 delta=b.delta, epsilon=b.epsilon)
        with pytest.raises(NotInvertible):
            untwist(bundle)

    def test_degenerate_system_is_underdetermined(self):
        # zero structure maps make every coefficient vanish: the solver must
        # report the underdetermination rather than invent a canonical answer
        zero_mu = DenseMap.zero(F7, 2, 4)
        zero_delta = DenseMap.zero(F7, 4, 2)
        zero_rhs = DenseMap.zero(F7, 2, 2)
        system = [(row[:-1], row[-1])
                  for row in _antipode_system(zero_mu, zero_delta, zero_rhs).rows()]
        res = solve_linear(system, 4, F7)
        assert res.status == UNDERDETERMINED

    @settings(max_examples=90, deadline=None)
    @given(data=st.data())
    def test_system_rows_apply_both_composites(self, data):
        # the rows of the system times vec(chi) are the two composites, row-major,
        # one block of d^2 rows each
        field, matrix, python_ints = data.draw(st.sampled_from(_SYSTEM_CASES))
        d = data.draw(st.integers(1, 3))
        mu, delta = data.draw(matrix(d, d * d)), data.draw(matrix(d * d, d))
        chi, rhs = data.draw(matrix(d, d)), data.draw(matrix(d, d))
        sandwich = data.draw(st.none() | matrix(d * d, d * d))
        pre = mu if sandwich is None else compose(mu, sandwich)
        if python_ints:
            assert all(a.dtype == object for a in _operands((pre, delta), d))
        system = [(row[:-1], row[-1]) for row in _antipode_system(pre, delta, rhs).rows()]
        one = DenseMap.identity(field, d)
        vec_chi = DenseMap.from_flat(field, d * d, 1, chi.flat_strings())
        for block, composite in enumerate([kron(one, chi), kron(chi, one)]):
            rows = system[block * d * d:(block + 1) * d * d]
            coeffs = DenseMap.from_rows(field, [row for row, _ in rows])
            assert compose(coeffs, vec_chi).flat_strings() == \
                compose_all([pre, composite, delta]).flat_strings()
            assert DenseMap.from_flat(field, d, d, [v for _, v in rows]) == rhs

    def test_non_unique_result_carries_witness(self):
        chi = DenseMap.identity(F7, 2)
        res = AntipodeResult(chi, DIRECT, True, NON_UNIQUE)
        assert res.witness == chi
        assert AntipodeResult(chi, DIRECT, True, FOUND).witness is None


class TestCanonicalMorphism:
    def test_one_dimensional_trivial(self):
        one = DenseMap.identity(F7, 1)
        obj = BiHomObject(1, F7, one, one, one, one)
        b = StructureBundle(obj, mu=one, eta=one, delta=one, epsilon=one)
        m, invertible = canonical_morphism(regular_module(b), unit_object(F7), b)
        assert invertible and m == one

    def test_twisted_regular_module_is_invertible(self):
        t = twisted_c3()
        m, invertible = canonical_morphism(regular_module(t), unit_object(F7), t)
        assert invertible
        assert m.dst_dim == 9

    def test_twisted_with_bigger_spectator(self):
        t = twisted_c3()
        m, invertible = canonical_morphism(regular_module(t), t.obj, t)
        assert invertible and m.dst_dim == 27

    def test_non_hopf_is_singular(self):
        nh = idempotent_monoid_bialgebra()
        m, invertible = canonical_morphism(
            regular_module(nh), unit_object(QQ), nh)
        assert not invertible

    def test_wrong_structure_rejected(self):
        t = twisted_c3()
        with pytest.raises(DimensionMismatch):
            canonical_morphism(regular_module(t), unit_object(F7), classical_c3())
