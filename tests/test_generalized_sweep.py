"""The generalized (co)associativity sweep, against the dense reference.

structures._generalized_reports builds every iterated map once and applies
the Kronecker factors of the nested and padded sides leg by leg through
exactlin.kron_compose.  The reference is the per-sequence construction it
replaced: delta_n/mu_n rebuilt for each sequence, and each side a composite
through the dense kron_all product.  Both must give the same report, with the
same names, verdicts and counterexamples, on every sequence of
coassoc_sequences(4).
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihomcheck.coherence import BiHomObject, coherence_map
from bihomcheck.combinat import bar, validate_index_seq
from bihomcheck.exactlin import GF, QQ, DenseMap, kron_all
from bihomcheck.fixtures import cyclic_group_bundle, dual_cyclic_bundle
from bihomcheck.report import compare_entry, make_report
from bihomcheck.structures import (
    COMONOID_SIDE,
    MONOID_SIDE,
    StructureBundle,
    _generalized_reports,
    check_generalized_assoc,
    check_generalized_coassoc,
    coassoc_sequences,
    delta_n,
    mu_n,
    sweep_generalized_coassoc,
)
from bihomcheck.twist import BIMONOID, PlainStructure, yau_twist

from conftest import chain, operand_dtypes

MERSENNE_61 = GF(2 ** 61 - 1)
SEQUENCES = coassoc_sequences(4)
SIDES = [COMONOID_SIDE, MONOID_SIDE]
SIDE_IDS = ["comonoid", "monoid"]


def reference(b, k, side):
    """The report of one sequence, built through dense Kronecker products."""
    k = validate_index_seq(k)
    b.require(side.mult)
    if len(k) == 0 or 0 in k:
        b.require(side.unit)
    iterated = delta_n if side.co else mu_n
    a, K, Z = b.obj, sum(k), k.count(0)
    groups = [[a] * v for v in k]
    nested = chain(side, iterated(b, len(k)), kron_all(a.field, [iterated(b, v) for v in k]),
                   kron_all(a.field, coherence_map(k, side.big, groups)))
    flat = side.chain(iterated(b, K), kron_all(a.field, coherence_map(k, side.small, groups)))
    padded = side.chain(iterated(b, K + Z), kron_all(a.field, [
        DenseMap.identity(a.field, a.dim ** v) if v else getattr(b, side.unit) for v in k]))
    co, tag = side.text("", "co"), ",".join(map(str, k))
    return make_report(f"generalized-{co}associativity", [
        compare_entry(f"{co}assoc[{tag}]/nested-vs-flat",
                      f"nested {co}products equal the flat {co}product", nested, flat),
        compare_entry(f"{co}assoc[{tag}]/nested-vs-padded",
                      f"nested {co}products equal the {co}unit-padded {co}product",
                      nested, padded),
    ])


def assert_sweep_matches_reference(b, side, sequences=SEQUENCES):
    got = _generalized_reports(b, sequences, side)
    assert got == [reference(b, k, side) for k in sequences]
    return got


def values(field, big):
    if field.kind == "prime_field":
        return st.integers(0, field.modulus - 1)
    if big:  # every |value| is past 2^60, so contractions take the Python-int branch
        magnitude = st.integers(2 ** 62, 2 ** 66)
        return st.builds(Fraction, magnitude | magnitude.map(lambda v: -v), st.integers(1, 3))
    return st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def bundle(draw, field, big=False):
    """Random mu, eta, delta, epsilon on a carrier of dimension 1 to 3 whose
    four endomorphisms are random diagonal maps (so they commute)."""
    a = draw(st.integers(1, 3))
    entries = values(field, big)

    def dense(dst, src):
        return DenseMap.from_flat(field, dst, src, draw(
            st.lists(entries, min_size=dst * src, max_size=dst * src)))

    def diagonal():
        diag = draw(st.lists(st.integers(-3, 3), min_size=a, max_size=a))
        return DenseMap.from_flat(field, a, a, [diag[i] if i == j else 0
                                                for i in range(a) for j in range(a)])

    obj = BiHomObject(a, field, diagonal(), diagonal(), diagonal(), diagonal())
    return StructureBundle(obj, mu=dense(a, a * a), eta=dense(a, 1),
                           delta=dense(a * a, a), epsilon=dense(1, a))


@settings(max_examples=10, deadline=None)
@given(st.data())
@pytest.mark.parametrize("side", SIDES, ids=SIDE_IDS)
@pytest.mark.parametrize("field", [GF(7), MERSENNE_61, QQ], ids=str)
def test_random_bundles_match_dense(field, side, data):
    b = data.draw(bundle(field))
    seen, patch = operand_dtypes()
    with patch:
        assert_sweep_matches_reference(b, side)
    if field == MERSENNE_61:  # (p-1)^2 alone is past 2^63
        assert seen == {np.dtype(object)}


@settings(max_examples=6, deadline=None)
@given(st.data())
@pytest.mark.parametrize("side", SIDES, ids=SIDE_IDS)
def test_big_rationals_take_python_ints(side, data):
    b = data.draw(bundle(QQ, big=True))
    seen, patch = operand_dtypes()
    with patch:
        assert_sweep_matches_reference(b, side)
    assert np.dtype(object) in seen  # nested (2, 2) contracts two such maps


def test_small_residues_stay_int64():
    b = yau_twist(PlainStructure(dual_cyclic_bundle(GF(7), 3, 2)), BIMONOID)
    seen, patch = operand_dtypes()
    with patch:
        assert all(r.passed for r in assert_sweep_matches_reference(b, COMONOID_SIDE))
    assert seen == {np.dtype(np.int64)}


def perturbed(b, name, rng, field):
    m = getattr(b, name)
    i, j = rng.randrange(m.dst_dim), rng.randrange(m.src_dim)
    bump = rng.choice([2, -3, Fraction(1, 2)]) if field == QQ else rng.randrange(1, 7)
    return b.replace(**{name: m.with_entry(i, j, m.entry(i, j).value + bump)})


# (make, order, power, field): powers coprime to the order give permutation
# endomorphisms; g -> g^2 on an even order is not invertible and stays dense.
# C_6 leaves out F_(2^61-1), where the dense reference alone takes 15 s.
FIXTURES = [(make, order, order - 1, field)
            for make in (cyclic_group_bundle, dual_cyclic_bundle) for order in (3, 4)
            for field in (GF(7), MERSENNE_61, QQ)]
FIXTURES += [(cyclic_group_bundle, order, 2, field) for order in (4, 6)
             for field in (GF(7), MERSENNE_61, QQ) if order == 4 or field != MERSENNE_61]
FIXTURE_IDS = [f"{make.__name__}-{order}{'' if power == order - 1 else f'-power-{power}'}"
               f"-{field}" for make, order, power, field in FIXTURES]


@pytest.mark.parametrize("make, order, power, field", FIXTURES, ids=FIXTURE_IDS)
def test_twisted_fixtures_and_their_perturbations(make, order, power, field):
    b = yau_twist(PlainStructure(make(field, order, power)), BIMONOID)
    for side in SIDES:
        assert all(r.passed for r in assert_sweep_matches_reference(b, side))
    rng = random.Random(f"{field} {order} {make.__name__}")
    for name, side in (("delta", COMONOID_SIDE), ("mu", MONOID_SIDE)):
        bad = perturbed(b, name, rng, field)
        reports = assert_sweep_matches_reference(bad, side)
        assert not all(r.passed for r in reports)


def test_public_entry_points_agree_with_the_sweep():
    b = yau_twist(PlainStructure(cyclic_group_bundle(QQ, 3, 2)), BIMONOID)
    bad = perturbed(b, "delta", random.Random(5), QQ)
    swept = sweep_generalized_coassoc(bad, SEQUENCES)
    assert swept == [check_generalized_coassoc(bad, k) for k in SEQUENCES]
    assert [check_generalized_assoc(b, k) for k in SEQUENCES] == [
        reference(b, k, MONOID_SIDE) for k in SEQUENCES]
    assert sweep_generalized_coassoc(b, []) == []


@pytest.mark.parametrize("weight", range(7))
def test_sequences_are_the_brute_force_filter_in_order(weight):
    # every sequence of padded length K+Z <= weight has at most weight entries
    assert coassoc_sequences(weight) == [
        k for n in range(weight + 1) for k in itertools.product(range(weight + 1), repeat=n)
        if sum(map(bar, k)) <= weight]
