"""Permutation maps (index arrays) against their dense twins.

A map built by Permutation.matrix keeps only its index array and is applied
by gathering rows or columns.  Its dense twin is the same matrix rebuilt
entry by entry with DenseMap.from_rows, so it always takes the dense path.
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihomcheck.combinat import Permutation
from bihomcheck.errors import DimensionMismatch
from bihomcheck.exactlin import GF, QQ, DenseMap, compose, compose_all, kron
from bihomcheck.fixtures import cyclic_group_bundle
from bihomcheck.structures import (
    check_bimonoid,
    check_hopf_module,
    regular_comodule,
    regular_module,
)
from bihomcheck.twist import BIMONOID, PlainStructure, yau_twist

from conftest import small_fracs

FIELDS = st.sampled_from([GF(7), QQ])
SLOT_DIMS = st.lists(st.integers(1, 3), max_size=3)


@st.composite
def perm_map(draw, field, dims):
    images = draw(st.permutations(range(len(dims))))
    return Permutation(tuple(images)).matrix(dims, field)


@st.composite
def dense_map(draw, field, dst, src):
    values = st.integers(0, 6) if field == GF(7) else small_fracs
    rows = draw(st.lists(st.lists(values, min_size=src, max_size=src),
                         min_size=dst, max_size=dst))
    return DenseMap.from_rows(field, rows, src_dim=src)


def twin(m):
    return DenseMap.from_rows(m.field, m.rows(), src_dim=m.src_dim)


@settings(max_examples=60)
@given(st.data())
def test_compose_matches_dense(data):
    field = data.draw(FIELDS)
    dims = data.draw(SLOT_DIMS)
    p, q = data.draw(perm_map(field, dims)), data.draw(perm_map(field, dims))
    n = p.dst_dim
    c = data.draw(st.integers(0, 3))
    x = data.draw(dense_map(field, n, c))
    y = data.draw(dense_map(field, c, n))
    d = data.draw(dense_map(field, n, n))
    tp, tq = twin(p), twin(q)
    pairs = [(compose(p, x), compose(tp, x)),
             (compose(y, p), compose(y, tp)),
             (compose(p, q), compose(tp, tq)),
             (compose_all([y, p, d, q, x]), compose_all([y, tp, d, tq, x])),
             (compose_all([p, q, d, p]), compose_all([tp, tq, d, tp]))]
    for got, want in pairs:
        assert got == want
        assert got.flat_strings() == want.flat_strings()


@settings(max_examples=60)
@given(st.data())
def test_kron_matches_dense(data):
    field = data.draw(FIELDS)
    p = data.draw(perm_map(field, data.draw(SLOT_DIMS)))
    q = data.draw(perm_map(field, data.draw(SLOT_DIMS)))
    x = data.draw(dense_map(field, 2, 3))
    for got, want in [(kron(p, q), kron(twin(p), twin(q))),
                      (kron(p, x), kron(twin(p), x)),
                      (kron(x, q), kron(x, twin(q)))]:
        assert got == want
        assert got.flat_strings() == want.flat_strings()


@settings(max_examples=60)
@given(st.data())
def test_equality_hash_and_first_difference(data):
    field = data.draw(FIELDS)
    p = data.draw(perm_map(field, data.draw(SLOT_DIMS)))
    tp = twin(p)
    assert p == tp and tp == p and hash(p) == hash(tp)
    assert p.first_difference(tp) is None
    n = p.dst_dim
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    bumped = tp.with_entry(i, j, tp.rows()[i][j] + 1)
    diff = p.first_difference(bumped)
    assert diff == tp.first_difference(bumped)
    rows, other = tp.rows(), bumped.rows()
    first = next((r, c) for r in range(n) for c in range(n) if rows[r][c] != other[r][c])
    assert diff[:2] == first and type(diff[0]) is int and type(diff[1]) is int
    assert p != bumped


def test_permutation_constructor_rejects_non_bijections():
    with pytest.raises(DimensionMismatch):
        DenseMap.permutation(GF(7), [0, 0, 1])


def test_twisted_c9_checks_stay_small():
    # The dense interchange on C_9^{(x)4} alone would take 6561^2 * 8 bytes (344 MB).
    b = yau_twist(PlainStructure(cyclic_group_bundle(GF(7), 9, 2)), BIMONOID)
    tracemalloc.start()
    try:
        assert check_bimonoid(b).passed
        assert check_hopf_module(regular_module(b), regular_comodule(b)).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20, f"peak {peak / 2**20:.0f} MB"
