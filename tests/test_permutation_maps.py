"""Permutation maps (index arrays) against their dense twins.

A map built by Permutation.matrix or DenseMap.identity keeps only its index
array and is applied by gathering rows or columns.  Its dense twin is the same
matrix rebuilt entry by entry with DenseMap.from_rows, so it always takes the
dense path.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihomcheck.coherence import _duoidal_maps, random_duoidal_instance
from bihomcheck.combinat import Permutation
from bihomcheck.errors import DimensionMismatch
from bihomcheck.exactlin import GF, QQ, DenseMap, compose, compose_all, kron, kron_all
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
    """A tensor-factor flip on the slots dims, or the identity on their product."""
    if draw(st.booleans()):
        return DenseMap.identity(field, math.prod(dims))
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


def assert_index_map(m):
    """m holds a read-only index array that is a bijection of range(dim)."""
    idx = m._src_of_dst
    assert idx is not None and not idx.flags.writeable
    assert np.array_equal(np.sort(idx), np.arange(m.dst_dim))


@settings(max_examples=60, deadline=None)
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
    e, ec = DenseMap.identity(field, n), DenseMap.identity(field, c)
    tp, tq, te, tec = twin(p), twin(q), twin(e), twin(ec)
    pairs = [(compose(p, x), compose(tp, x)),
             (compose(y, p), compose(y, tp)),
             (compose(p, q), compose(tp, tq)),
             (compose_all([y, p, d, q, x]), compose_all([y, tp, d, tq, x])),
             (compose_all([p, q, d, p]), compose_all([tp, tq, d, tp])),
             (compose_all([ec, y, e, p, e, d, q, e, x, ec]),
              compose_all([tec, y, te, tp, te, d, tq, te, x, tec]))]
    for got, want in pairs:
        assert got == want
        assert got.flat_strings() == want.flat_strings()
    for chain in ([p, q], [e, p, q, e], [q, p, p, e, q]):
        assert_index_map(compose_all(chain))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kron_matches_dense(data):
    field = data.draw(FIELDS)
    p = data.draw(perm_map(field, data.draw(SLOT_DIMS)))
    q = data.draw(perm_map(field, data.draw(SLOT_DIMS)))
    e = DenseMap.identity(field, data.draw(st.integers(0, 3)))
    x = data.draw(dense_map(field, 2, 3))
    for got, want in [(kron(p, q), kron(twin(p), twin(q))),
                      (kron(p, x), kron(twin(p), x)),
                      (kron(x, q), kron(x, twin(q))),
                      (kron(e, x), kron(twin(e), x)),
                      (kron(x, e), kron(x, twin(e))),
                      (kron_all(field, [p, e, q]), kron_all(field, [twin(p), twin(e), twin(q)]))]:
        assert got == want
        assert got.flat_strings() == want.flat_strings()
    for m in (kron(p, q), kron(e, p), kron_all(field, [p, q]), kron_all(field, []),
              kron_all(field, [q, e, p])):
        assert_index_map(m)


@settings(max_examples=60, deadline=None)
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


@pytest.mark.parametrize("seed", range(6))
def test_duoidal_interchanges_keep_index_arrays(seed):
    inst = random_duoidal_instance(random.Random(seed), GF(7), 2, 2, 2, 2)
    maps = _duoidal_maps(inst)[0]
    for name in ("xi:groups", "xi:groupsT"):
        assert_index_map(maps[name])
        assert maps[name] == twin(maps[name])


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
