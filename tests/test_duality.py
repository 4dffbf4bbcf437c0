"""Comonoid laws are monoid laws in the opposite category.

Transposing every matrix reverses composition and keeps Kronecker products, so
a comonoid (delta, epsilon) on an object with endomorphisms (alpha, beta) is a
monoid (delta^T, epsilon^T) on the object whose (kappa, nu) slots hold
(alpha^T, beta^T).  These tests check the checkers against that duality by
building the transposed bundle directly, independently of how the checkers
share code between the two sides.
"""

import pytest

from bihomcheck.coherence import BiHomObject
from bihomcheck.exactlin import GF, QQ
from bihomcheck.fixtures import (
    classical_c3,
    cyclic_group_bundle,
    dual_cyclic_bundle,
    group_power_endo,
    twisted_c3,
)
from bihomcheck.structures import (
    StructureBundle,
    check_comonoid,
    check_cosemigroup,
    check_generalized_assoc,
    check_generalized_coassoc,
    check_monoid,
    check_semigroup,
    coassoc_sequences,
    delta_n,
    mu_n,
)
from bihomcheck.twist import BIMONOID, PlainStructure, yau_twist


def transposed(b):
    """b^T: object (kappa^T, nu^T, alpha^T, beta^T), maps swapped and transposed."""
    o = b.obj
    obj = BiHomObject(o.dim, o.field, o.kappa.transpose(), o.nu.transpose(),
                      o.alpha.transpose(), o.beta.transpose())
    return StructureBundle(obj, mu=b.delta.transpose(), eta=b.epsilon.transpose(),
                           delta=b.mu.transpose(), epsilon=b.eta.transpose())


_ENDO_DUAL = {"alpha": "kappa", "beta": "nu", "kappa": "alpha", "nu": "beta"}
_NAME_DUAL = [("cosemigroup/", "semigroup/"), ("comonoid/", "monoid/"),
              ("delta-commutes-", "mu-commutes-"), ("epsilon-commutes-", "eta-commutes-"),
              ("coassociativity", "associativity"), ("counit-", "unit-"),
              ("coassoc[", "assoc[")]


def dual_name(name):
    for co, plain in _NAME_DUAL:
        name = name.replace(co, plain)
    head, _, endo = name.rpartition("-commutes-")
    return f"{head}-commutes-{_ENDO_DUAL[endo]}" if head else name


def flags(report, rename=lambda n: n):
    return {rename(e.name): e.passed for e in report.entries}


def distinct_endos(field):
    """Twisted k[C_5] whose four endomorphisms are four different automorphisms."""
    b = cyclic_group_bundle(field, 5, 1)
    obj = BiHomObject(5, field, *[group_power_endo(field, 5, p) for p in (2, 3, 4, 1)])
    plain = StructureBundle(obj, b.mu, b.eta, b.delta, b.epsilon)
    return yau_twist(PlainStructure(plain), BIMONOID)


def bump(m, i, j):
    return m.with_entry(i, j, m.entry(i, j).value + 1)


def bundles():
    out = []
    for field in (GF(7), QQ):
        for name, b in (("classical", classical_c3(field)),
                        ("twisted", twisted_c3(field)),
                        ("dual", yau_twist(PlainStructure(dual_cyclic_bundle(field, 3, 2)))),
                        ("distinct", distinct_endos(field))):
            d = b.obj.dim
            out.append((f"{field}-{name}", b))
            out.append((f"{field}-{name}-delta", b.replace(delta=bump(b.delta, d + 1, 1))))
            out.append((f"{field}-{name}-epsilon", b.replace(epsilon=bump(b.epsilon, 0, 1))))
    return out


BUNDLES = bundles()
IDS = [name for name, _ in BUNDLES]


@pytest.mark.parametrize("b", [b for _, b in BUNDLES], ids=IDS)
def test_comonoid_checks_are_monoid_checks_of_the_transpose(b):
    bt = transposed(b)
    assert flags(check_cosemigroup(b), dual_name) == flags(check_semigroup(bt))
    assert flags(check_comonoid(b), dual_name) == flags(check_monoid(bt))


@pytest.mark.parametrize("b", [b for _, b in BUNDLES], ids=IDS)
def test_delta_n_is_transposed_mu_n(b):
    bt = transposed(b)
    for n in range(5):
        assert delta_n(b, n) == mu_n(bt, n).transpose()


@pytest.mark.parametrize("b", [b for _, b in BUNDLES], ids=IDS)
def test_generalized_coassociativity_is_transposed_associativity(b):
    bt = transposed(b)
    for k in coassoc_sequences(3):
        assert (flags(check_generalized_coassoc(b, k), dual_name)
                == flags(check_generalized_assoc(bt, k))), k


def test_perturbations_are_seen():
    """The perturbed copies fail somewhere, so the comparisons above compare failures too."""
    for name, b in BUNDLES:
        if name.endswith(("-delta", "-epsilon")):
            assert not check_comonoid(b).passed, name
        else:
            assert check_comonoid(b).passed, name
