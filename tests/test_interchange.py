"""The interchange square as one contraction, against the dense reference.

structures._interchange_rhs contracts action, mu, coaction and delta read as
3-tensors.  The reference is the dense square it replaced:
(action (x) mu) . xi . (coaction (x) delta), built from Kronecker products and
the interchange permutation.  Both must give the same map, and the checker
entries built from them the same verdict and counterexample.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihomcheck.coherence import BiHomObject, xi_map
from bihomcheck.exactlin import GF, QQ, DenseMap, _operands, compose, compose_all, kron
from bihomcheck.fixtures import cyclic_group_bundle, dual_cyclic_bundle
from bihomcheck.report import compare_entry
from bihomcheck.structures import (
    StructureBundle,
    _interchange_entry,
    _interchange_rhs,
    check_bisemigroup,
    check_hopf_module,
    regular_comodule,
    regular_module,
)
from bihomcheck.twist import BIMONOID, PlainStructure, yau_twist

MERSENNE_61 = GF(2 ** 61 - 1)


def reference(x, b, action, coaction):
    xi = xi_map([[x, b.obj], [b.obj, b.obj]])
    return compose_all([kron(action, b.mu), xi, kron(coaction, b.delta)])


def assert_matches_reference(x, b, action, coaction):
    got, want = _interchange_rhs(b, action, coaction), reference(x, b, action, coaction)
    assert got == want
    assert got.flat_strings() == want.flat_strings()
    name, law = "square", "the interchange square"
    entry = _interchange_entry(name, law, b, action, coaction)
    assert entry == compare_entry(name, law, compose(coaction, action), want)
    return entry


def plain_object(field, dim):
    one = DenseMap.identity(field, dim)
    return BiHomObject(dim, field, one, one, one, one)


def values(field, big):
    if field.kind == "prime_field":
        return st.integers(0, field.modulus - 1)
    if big:  # every nonzero |value| is past 2^60, so products take the Python-int branch
        magnitude = st.integers(2 ** 62, 2 ** 66)
        numerator = st.just(0) | magnitude | magnitude.map(lambda v: -v)
        return st.builds(Fraction, numerator, st.integers(1, 3))
    return st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def square(draw, field, big=False):
    """A carrier of dimension X, a structure of dimension a (X may differ
    from a) and random action, mu, coaction, delta with arbitrary entries."""
    a, X = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entries = values(field, big)

    def dense(dst, src):
        return DenseMap.from_flat(field, dst, src, draw(
            st.lists(entries, min_size=dst * src, max_size=dst * src)))

    b = StructureBundle(plain_object(field, a), mu=dense(a, a * a), delta=dense(a * a, a))
    return plain_object(field, X), b, dense(X, X * a), dense(X * a, X)


@settings(max_examples=40, deadline=None)
@given(st.data())
@pytest.mark.parametrize("field", [GF(7), MERSENNE_61, QQ], ids=str)
def test_random_squares_match_dense(field, data):
    x, b, action, coaction = data.draw(square(field))
    assert_matches_reference(x, b, action, coaction)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_big_rationals_match_dense_on_python_ints(data):
    x, b, action, coaction = data.draw(square(QQ, big=True))
    maps = (action, b.mu, coaction, b.delta)
    if all(m._num.any() for m in maps):
        assert _operands(maps, x.dim * b.obj.dim ** 3)[0].dtype == object
    assert_matches_reference(x, b, action, coaction)


def test_sums_past_int64_take_python_ints():
    # each product is below 2^60, but a sum of X a^3 = 81 of them is not
    big = 2 ** 15 - 1
    wide, tall = (DenseMap.from_flat(QQ, dst, src, [big] * 27) for dst, src in ((3, 9), (9, 3)))
    x, b = plain_object(QQ, 3), StructureBundle(plain_object(QQ, 3), mu=wide, delta=tall)
    action, coaction = wide, tall
    assert _interchange_rhs(b, action, coaction).entry(0, 0).value == 81 * big ** 4
    assert_matches_reference(x, b, action, coaction)


def test_both_branches_are_taken():
    for field, dtype in ((GF(7), np.int64), (MERSENNE_61, object)):
        b = dual_cyclic_bundle(field, 3)
        maps = (b.mu, b.mu, b.delta, b.delta)
        assert _operands(maps, 3 ** 4)[0].dtype == dtype


@pytest.mark.parametrize("field", [GF(7), MERSENNE_61, QQ], ids=str)
@pytest.mark.parametrize("make", [cyclic_group_bundle, dual_cyclic_bundle])
def test_fixture_squares_and_their_perturbations(field, make):
    b = yau_twist(PlainStructure(make(field, 4, 3)), BIMONOID)
    assert assert_matches_reference(b.obj, b, b.mu, b.delta).passed
    rng = random.Random(str(field) + make.__name__)
    for name in ("mu", "delta"):
        m = getattr(b, name)
        i, j = rng.randrange(m.dst_dim), rng.randrange(m.src_dim)
        bumped = m.with_entry(i, j, rng.choice([2, -3, Fraction(1, 2)])
                              if field == QQ else rng.randrange(2, 7))
        bad = b.replace(**{name: bumped})
        entry = assert_matches_reference(b.obj, bad, bad.mu, bad.delta)
        assert not entry.passed
        checked = check_bisemigroup(bad).entry("bisemigroup/compatibility")
        assert (checked.passed, checked.counterexample) == (False, entry.counterexample)


def test_hopf_module_on_a_smaller_carrier():
    # a 2-dimensional carrier over a 3-dimensional structure, random entries
    rng = random.Random(11)
    for field in (GF(7), QQ):
        b = dual_cyclic_bundle(field, 3)

        def rand(dst, src):
            return DenseMap.from_flat(field, dst, src,
                                      [rng.randrange(-3, 7) for _ in range(dst * src)])

        entry = assert_matches_reference(plain_object(field, 2), b, rand(2, 6), rand(6, 2))
        assert entry.counterexample is not None


def test_regular_hopf_module_passes():
    for field in (GF(7), QQ):
        b = yau_twist(PlainStructure(dual_cyclic_bundle(field, 5, 2)), BIMONOID)
        rep = check_hopf_module(regular_module(b), regular_comodule(b))
        assert rep.entry("hopf-module/compatibility").passed
