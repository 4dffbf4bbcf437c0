import random

import pytest

from bihomcheck import exactlin, structures
from bihomcheck.coherence import BiHomObject, check_exponent_identities, nprod, xi_map
from bihomcheck.combinat import Permutation, flip_perm
from bihomcheck.errors import (
    FieldMismatch,
    InvariantViolation,
    MissingEndomorphism,
    MissingMap,
    MixedStructures,
    ShapeMismatch,
)
from bihomcheck.exactlin import GF, DenseMap, compose, compose_all, invert, kron
from bihomcheck.fixtures import (
    classical_c3,
    cyclic_group_bundle,
    group_power_endo,
    idempotent_monoid_bialgebra,
    twisted_c3,
)
from bihomcheck.structures import (
    ALTERNATIVE,
    ITERATIVE,
    ComoduleInst,
    ModuleInst,
    StructureBundle,
    check_bimonoid,
    check_bisemigroup,
    check_comodule,
    check_comonoid,
    check_cosemigroup,
    check_generalized_assoc,
    check_generalized_coassoc,
    check_hopf_module,
    check_module,
    check_monoid,
    check_semigroup,
    coassoc_sequences,
    delta_n,
    induced_module_action,
    mu_n,
    regular_comodule,
    regular_module,
)
from bihomcheck.twist import BIMONOID, PlainStructure, antipode_solve, yau_twist

F7 = GF(7)


def basis_column(dim, idx, field=F7):
    return DenseMap.from_rows(field, [[1 if i == idx else 0] for i in range(dim)])


def tensor_basis(indices, dim=3, field=F7):
    out = DenseMap.identity(field, 1)
    for i in indices:
        out = kron(out, basis_column(dim, i, field))
    return out


class TestClassicalFixture:
    """With identity endomorphisms every check is the classical one."""

    def test_all_checks_pass(self):
        b = classical_c3()
        assert check_semigroup(b).passed
        assert check_monoid(b).passed
        assert check_cosemigroup(b).passed
        assert check_comonoid(b).passed
        assert check_bisemigroup(b).passed
        assert check_bimonoid(b).passed

    def test_unit_laws_reduce_to_classical(self):
        b = classical_c3()
        ident = DenseMap.identity(F7, 3)
        assert compose(b.mu, kron(b.eta, ident)) == ident
        assert compose(b.mu, kron(ident, b.eta)) == ident


class TestTwistedSemigroup:
    def test_twisted_multiplication_passes(self):
        assert check_semigroup(twisted_c3()).passed

    def test_both_paths_by_basis_evaluation(self):
        # brute-force oracle: both association orders send g^i(x)g^j(x)g^l
        # to g^(i+j+l)
        b = twisted_c3()
        a = b.obj
        ident = DenseMap.identity(F7, 3)
        left = compose_all([b.mu, kron(b.mu, ident), kron(kron(ident, ident), a.nu)])
        right = compose_all([b.mu, kron(ident, b.mu), kron(kron(a.kappa, ident), ident)])
        for i in range(3):
            for j in range(3):
                for l in range(3):
                    vec = tensor_basis([i, j, l])
                    expected = basis_column(3, (i + j + l) % 3)
                    assert compose(left, vec) == expected
                    assert compose(right, vec) == expected

    def test_perturbed_mu_fails_with_coordinates(self):
        b = twisted_c3()
        bad = b.replace(mu=b.mu.with_entry(0, 4, 5))
        rep = check_semigroup(bad)
        assert not rep.passed
        entry = rep.entry("semigroup/associativity")
        assert not entry.passed
        r, c, lhs, rhs = entry.counterexample
        assert 0 <= r < 3 and 0 <= c < 27 and lhs != rhs

    def test_classical_mu_with_twisted_endos_fails(self):
        # the undeformed product does not satisfy the deformed associativity
        plain = cyclic_group_bundle(F7, 3, 2)
        assert not check_semigroup(plain).passed

    def test_missing_oplax_pair(self):
        one = DenseMap.identity(F7, 3)
        obj = BiHomObject(3, F7, one, one)
        b = StructureBundle(obj, mu=classical_c3().mu)
        with pytest.raises(MissingEndomorphism):
            check_semigroup(b)

    def test_missing_map(self):
        b = StructureBundle(twisted_c3().obj)
        with pytest.raises(MissingMap):
            check_semigroup(b)


class TestTwistedMonoid:
    def test_passes(self):
        assert check_monoid(twisted_c3()).passed

    def test_unit_law_lands_on_endomorphism_not_identity(self):
        b = twisted_c3()
        ident = DenseMap.identity(F7, 3)
        squarer = group_power_endo(F7, 3, 2)
        assert compose(b.mu, kron(b.eta, ident)) == squarer
        assert compose(b.mu, kron(b.eta, ident)) != ident

    def test_perturbed_eta_fails(self):
        b = twisted_c3()
        bad = b.replace(eta=basis_column(3, 1))  # unit at g instead of e
        rep = check_monoid(bad)
        assert not rep.passed
        assert not rep.entry("monoid/eta-commutes-kappa").passed


class TestTwistedComonoid:
    def test_passes(self):
        assert check_comonoid(twisted_c3()).passed

    def test_counit_law_lands_on_endomorphism(self):
        b = twisted_c3()
        squarer = group_power_endo(F7, 3, 2)
        lhs = compose(kron(b.epsilon, DenseMap.identity(F7, 3)), b.delta)
        assert lhs == squarer

    def test_grouplike_with_untwisted_delta_fails(self):
        plain = cyclic_group_bundle(F7, 3, 2)
        assert not check_cosemigroup(plain).passed


class TestDeltaN:
    def test_arity_one_is_identity(self):
        assert delta_n(twisted_c3(), 1) == DenseMap.identity(F7, 3)
        assert mu_n(twisted_c3(), 1) == DenseMap.identity(F7, 3)

    def test_arity_zero_is_counit(self):
        b = twisted_c3()
        assert delta_n(b, 0) == b.epsilon
        assert mu_n(b, 0) == b.eta

    def test_delta3_closed_form(self):
        # delta_3 equals (1 (x) 1 (x) beta).(delta (x) 1).delta
        b = twisted_c3()
        ident = DenseMap.identity(F7, 3)
        explicit = compose_all([
            kron(kron(ident, ident), b.obj.beta), kron(b.delta, ident), b.delta])
        assert delta_n(b, 3, ITERATIVE) == explicit
        assert delta_n(b, 3, ALTERNATIVE) == explicit

    def test_delta_n_on_basis_vectors(self):
        # closed form for the twisted grouplike fixture: odd arities are
        # strictly grouplike, even arities hit the squared generator
        b = twisted_c3()
        for n in range(1, 6):
            d = delta_n(b, n)
            for i in range(3):
                image = i if n % 2 == 1 else (2 * i) % 3
                assert compose(d, basis_column(3, i)) == tensor_basis([image] * n)

    def test_mu3_closed_form(self):
        b = twisted_c3()
        ident = DenseMap.identity(F7, 3)
        explicit = compose_all([
            b.mu, kron(b.mu, ident), kron(kron(ident, ident), b.obj.nu)])
        assert mu_n(b, 3, ITERATIVE) == explicit
        assert mu_n(b, 3, ALTERNATIVE) == explicit

    def test_variants_agree_up_to_six(self):
        for b in (classical_c3(), twisted_c3()):
            for n in range(7):
                assert delta_n(b, n, ITERATIVE) == delta_n(b, n, ALTERNATIVE)
                assert mu_n(b, n, ITERATIVE) == mu_n(b, n, ALTERNATIVE)

    def test_requires_maps(self):
        empty = StructureBundle(twisted_c3().obj)
        with pytest.raises(MissingMap):
            delta_n(empty, 2)
        with pytest.raises(MissingMap):
            delta_n(StructureBundle(twisted_c3().obj, delta=twisted_c3().delta), 0)


class TestGeneralizedCoassoc:
    def test_all_ones_trivial_even_for_garbage(self):
        # the all-ones sequence degenerates to the unit triangle
        b = twisted_c3()
        garbage = b.replace(delta=b.delta.with_entry(0, 0, 3))
        assert check_generalized_coassoc(garbage, (1, 1, 1)).passed

    def test_sweep_small(self):
        for b in (classical_c3(), twisted_c3()):
            for k in coassoc_sequences(4):
                assert check_generalized_coassoc(b, k).passed, k
                assert check_generalized_assoc(b, k).passed, k

    def test_perturbed_delta_fails_some_short_sequence(self):
        rng = random.Random(6)
        b = twisted_c3()
        r, c = rng.randrange(9), rng.randrange(3)
        bad = b.replace(delta=b.delta.with_entry(r, c, (int(b.delta.entry(r, c)) + 1) % 7))
        failing = [k for k in coassoc_sequences(3)
                   if not check_generalized_coassoc(bad, k).passed]
        assert failing, "perturbation went undetected"

    def test_zero_entries_need_counit(self):
        b = twisted_c3().replace(epsilon=None)
        with pytest.raises(MissingMap):
            check_generalized_coassoc(b, (1, 0))
        assert check_generalized_coassoc(b, (2, 1)).passed


class TestBisemigroupAndBimonoid:
    def test_classical_bialgebra_law(self):
        assert check_bisemigroup(classical_c3()).passed

    def test_twisted(self):
        assert check_bisemigroup(twisted_c3()).passed
        assert check_bimonoid(twisted_c3()).passed

    def test_scaled_grouplike_breaks_interchange_square(self):
        b = twisted_c3()
        bad = b.replace(delta=b.delta.with_entry(0, 0, 2))
        rep = check_bisemigroup(bad)
        assert not rep.entry("bisemigroup/compatibility").passed

    def test_scaled_counit_breaks_unit_counit_square(self):
        b = twisted_c3()
        bad = b.replace(epsilon=b.epsilon.scale(2))
        rep = check_bimonoid(bad)
        assert not rep.entry("bimonoid/unit-counit").passed

    def test_bimonoid_equivalent_to_parts(self):
        for b in (classical_c3(), twisted_c3(),
                  twisted_c3().replace(epsilon=twisted_c3().epsilon.scale(2))):
            parts = (check_bisemigroup(b).passed
                     and check_monoid(b).passed
                     and check_comonoid(b).passed
                     and all(e.passed for e in check_bimonoid(b).entries
                             if e.name.startswith("bimonoid/")))
            assert check_bimonoid(b).passed == parts

    def test_report_sorted_by_name(self):
        rep = check_bimonoid(twisted_c3())
        names = [e.name for e in rep.entries]
        assert names == sorted(names)

    def test_no_dense_coherence_morphism_on_a_non_bijective_twist(self, monkeypatch):
        # g -> g^2 on C_16 is no permutation, so its coherence factors are
        # dense; applied leg by leg, no map past a 16 x 16^3 side is asked for
        b = yau_twist(PlainStructure(cyclic_group_bundle(F7, 16, 2)), BIMONOID)
        largest = [0]
        original = exactlin._check_budget

        def recording(rows, cols):
            largest[0] = max(largest[0], rows * cols)
            return original(rows, cols)

        for module in (exactlin, structures):
            monkeypatch.setattr(module, "_check_budget", recording)
        assert check_bimonoid(b).passed
        assert 0 < largest[0] <= 16 ** 4


class TestModules:
    def test_regular_module_and_comodule(self):
        for b in (classical_c3(), twisted_c3()):
            assert check_module(regular_module(b)).passed
            assert check_comodule(regular_comodule(b)).passed

    def test_regular_hopf_module(self):
        b = twisted_c3()
        rep = check_hopf_module(regular_module(b), regular_comodule(b))
        assert rep.passed

    def test_action_violating_unitality_fails_unit_square(self):
        b = twisted_c3()
        squarer = group_power_endo(F7, 3, 2)
        bad = ModuleInst(b.obj, compose(squarer, b.mu), b)
        rep = check_module(bad)
        assert not rep.entry("module/unitality").passed

    def test_hopf_module_mixed_structures_rejected(self):
        with pytest.raises(MixedStructures):
            check_hopf_module(regular_module(twisted_c3()),
                              regular_comodule(classical_c3()))

    def test_perturbed_compatibility_fails(self):
        b = twisted_c3()
        mod = regular_module(b)
        bumped = (int(b.delta.entry(0, 0)) + 1) % 7
        bad_co = ComoduleInst(b.obj, b.delta.with_entry(0, 0, bumped), b)
        rep = check_hopf_module(mod, bad_co)
        assert not rep.entry("hopf-module/compatibility").passed


class TestInducedModules:
    def test_single_module_unchanged(self):
        b = twisted_c3()
        m = regular_module(b)
        out = induced_module_action([m])
        assert out.carrier == m.carrier and out.action == m.action

    def test_pair_of_regular_modules(self):
        b = twisted_c3()
        m = regular_module(b)
        out = induced_module_action([m, m])
        assert out.carrier.dim == 9
        assert check_module(out).passed

    def test_triple(self):
        b = twisted_c3()
        m = regular_module(b)
        assert check_module(induced_module_action([m, m, m])).passed

    def test_empty_product_is_unit_module(self):
        b = twisted_c3()
        out = induced_module_action([], over=b)
        assert out.carrier.dim == 1
        assert out.action == b.epsilon
        assert check_module(out).passed

    def test_mixed_structures_rejected(self):
        with pytest.raises(MixedStructures):
            induced_module_action([regular_module(twisted_c3()),
                                   regular_module(classical_c3())])
        with pytest.raises(MixedStructures):
            induced_module_action([])

    def test_non_bimonoid_rejected(self):
        b = twisted_c3()
        bad = b.replace(epsilon=b.epsilon.scale(2))
        with pytest.raises(InvariantViolation):
            induced_module_action([regular_module(bad)])


class TestNonHopfFixture:
    def test_is_a_bimonoid(self):
        assert check_bimonoid(idempotent_monoid_bialgebra()).passed

    def test_over_prime_field_too(self):
        assert check_bimonoid(idempotent_monoid_bialgebra(F7)).passed


F5 = GF(5)
C3, C3_F5 = twisted_c3(), cyclic_group_bundle(F5, 3, 2)


@pytest.mark.parametrize("build, error, message", [
    (lambda: StructureBundle(C3.obj, mu=DenseMap.identity(F7, 3)),
     ShapeMismatch, "mu is 3x3, expected 3x9"),
    (lambda: StructureBundle(C3.obj, mu=C3_F5.mu), FieldMismatch, "mu over F_5, object over F_7"),
    (lambda: ModuleInst(C3_F5.obj, C3.mu, C3),
     FieldMismatch, "module carrier and structure over different fields"),
    (lambda: ComoduleInst(C3_F5.obj, C3.delta, C3),
     FieldMismatch, "comodule carrier and structure over different fields"),
    (lambda: BiHomObject(2, F7, DenseMap.identity(F7, 3), DenseMap.identity(F7, 2)),
     ShapeMismatch, "alpha is 3x3 on a dim-2 carrier"),
    (lambda: BiHomObject(3, F7, C3.obj.alpha, C3_F5.obj.beta),
     FieldMismatch, "beta over F_5, object over F_7"),
    (lambda: nprod([C3.obj, C3_F5.obj]), FieldMismatch, "mixed fields in product"),
    (lambda: xi_map([[C3.obj, C3.obj], [C3.obj]]), ShapeMismatch, "ragged grid: rows of [2, 1]"),
    (lambda: antipode_solve(C3, "bogus"), ValueError, "unknown method 'bogus'"),
    (lambda: delta_n(C3, -1), ValueError, "negative arity"),
    (lambda: delta_n(C3, 3, "bogus"), ValueError, "unknown variant 'bogus'"),
    (lambda: compose(DenseMap.identity(F7, 2), C3.mu), ShapeMismatch,
     "compose: f is 2x2, g is 3x9"),
    (lambda: C3.mu.power(2), ShapeMismatch, "powering a non-square map"),
    (lambda: invert(C3.mu), ShapeMismatch, "inverting a 3x9 map"),
    (lambda: DenseMap.from_rows(F7, [[1, 2], [3]]), ShapeMismatch,
     "row 1 has length 1, expected 2"),
    (lambda: flip_perm(2, 2, [2, 2, 2], F7), ShapeMismatch, "3 dims for a permutation of 4"),
    (lambda: Permutation((1, 2, 0)).matrix([2, 2], F7), ShapeMismatch,
     "2 dims for a permutation of 3"),
    (lambda: Permutation((1, 2, 0)).blown_up([2, 2]), ShapeMismatch,
     "2 block sizes for a permutation of 3"),
    (lambda: check_exponent_identities(((1, 1), ()), 2, 1), ShapeMismatch,
     "slot (2, 1) outside rows (2, 0)"),
], ids=["bundle-shape", "bundle-field", "module-field", "comodule-field", "object-shape",
        "object-field", "nprod-fields", "xi-ragged", "antipode-method", "delta-arity",
        "delta-variant", "compose-shape", "power-square", "invert-square", "rows-ragged",
        "flip-dims", "matrix-dims", "blown-up-sizes", "slot-outside-k"])
def test_refused_at_the_boundary(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message
