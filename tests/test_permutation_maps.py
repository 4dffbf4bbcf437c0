"""Permutation maps (index arrays) against their dense twins.

A map built by Permutation.matrix or DenseMap.identity, and a 0/1 permutation
matrix read by DenseMap.from_flat, keeps only its index array and is applied
by gathering rows or columns.  Its dense twin holds the same numerators as an
array, built by exactlin._canonical directly, so it always takes the dense
path.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihomcheck.coherence import _duoidal_maps, nprod, random_duoidal_instance, xi_map
from bihomcheck.combinat import Permutation
from bihomcheck.errors import DimensionMismatch, ParseError
from bihomcheck.exactlin import (
    GF,
    QQ,
    DenseMap,
    _canonical,
    _coerce,
    compose,
    compose_all,
    kron,
    kron_all,
)
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
    return _canonical(m.field, m.dst_dim, m.src_dim, m._num.copy(), m._den)


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
    assert p.is_identity() == tp.is_identity()
    n = p.dst_dim
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    bumped = tp.with_entry(i, j, tp.rows()[i][j] + 1)
    diff = p.first_difference(bumped)
    assert diff == tp.first_difference(bumped)
    rows, other = tp.rows(), bumped.rows()
    first = next((r, c) for r in range(n) for c in range(n) if rows[r][c] != other[r][c])
    assert diff[:2] == first and type(diff[0]) is int and type(diff[1]) is int
    assert p != bumped


def reversed_interchanges(inst):
    """Each xi:*T built directly by xi_map on its reversed grid."""
    k, objs, field = inst.k, inst.objects, inst.field
    n, p = len(objs), len(k)
    flat_rows = [[o for g in objs[s] for o in g] for s in range(n)]
    blocks = [[nprod(objs[s][i], field) for i in range(p)] for s in range(n)]
    return {
        "xi:flatT": xi_map([[row[t] for row in flat_rows] for t in range(sum(k))], field),
        "xi:blocksT": xi_map([[blocks[s][i] for s in range(n)] for i in range(p)], field),
        "xi:groupsT": kron_all(field, [
            xi_map([[objs[s][i][j] for s in range(n)] for j in range(k[i])], field)
            for i in range(p)]),
    }


@pytest.mark.parametrize("seed", range(6))
def test_duoidal_interchanges_keep_index_arrays(seed):
    inst = random_duoidal_instance(random.Random(seed), GF(7), 2, 2, 2, 2)
    maps = _duoidal_maps(inst)[0]
    for name in ("xi:groups", "xi:groupsT", "xi:flatT", "xi:blocksT"):
        assert_index_map(maps[name])
        assert maps[name] == twin(maps[name])
    for name, direct in reversed_interchanges(inst).items():
        assert_index_map(direct)
        assert maps[name] == direct, name
        assert maps[name].first_difference(direct) is None


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


# -- permutations recognised where entries are read -----------------------

@st.composite
def permutation_entries(draw, field, n):
    """The flat entries of a random n x n permutation matrix as raw ints and
    strings; over F_7 a one may also be another residue of 1, such as -6."""
    images = draw(st.permutations(range(n)))
    one = st.sampled_from([1, "1", " 1 ", "+1", "01"] + ([8, "-6"] if field == GF(7) else []))
    zero = st.sampled_from([0, "0", "-0", " 0"])
    return [draw(one) if images[i] == j else draw(zero) for i in range(n) for j in range(n)]


def dense_twin_of(field, n, entries):
    values = [_coerce(field, v) for v in entries]
    return _canonical(field, n, n, np.array(values, dtype=object).reshape(n, n))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_recognised_permutations_match_dense_twins(data):
    field = data.draw(FIELDS)
    n = data.draw(st.integers(1, 5))
    entries, other = (data.draw(permutation_entries(field, n)) for _ in range(2))
    p, tp = DenseMap.from_flat(field, n, n, entries), dense_twin_of(field, n, entries)
    assert_index_map(p)
    assert tp._src_of_dst is None
    q, tq = DenseMap.from_flat(field, n, n, other), dense_twin_of(field, n, other)
    x = data.draw(dense_map(field, n, data.draw(st.integers(0, 3))))
    y = data.draw(dense_map(field, 2, n))
    k = data.draw(st.integers(0, 4))
    pairs = [(compose(p, q), compose(tp, tq)), (compose(p, x), compose(tp, x)),
             (compose(y, p), compose(y, tp)), (kron(p, q), kron(tp, tq)),
             (kron(p, y), kron(tp, y)), (kron(y, q), kron(y, tq)),
             (p.power(k), tp.power(k)), (p, tp)]
    for got, want in pairs:
        assert got == want and want == got and hash(got) == hash(want)
        assert got.flat_strings() == want.flat_strings()
        assert got.first_difference(want) is None
    for m in (compose(p, q), kron(p, q), p.power(k)):
        assert_index_map(m)
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    bumped = tp.with_entry(i, j, tp.rows()[i][j] + 1)
    assert p.first_difference(bumped) == tp.first_difference(bumped)
    assert bumped.first_difference(p) == bumped.first_difference(tp)
    assert p != bumped


NEAR_MISSES = {
    "repeated-column": [[1, 0, 0], [1, 0, 0], [0, 0, 1]],
    "entry-2": [[2, 0], [0, 1]],
    "zero-row": [[1, 1], [0, 0]],  # every column holds one 1
    "not-square": [[1, 0, 0], [0, 1, 0]],
    "two-in-row": [[1, 1], [0, 1]],
    "sums-of-one": [[2, -1], [-1, 2]],  # every row and column sums to 1
}


@pytest.mark.parametrize("field, rows", [
    *((field, rows) for rows in NEAR_MISSES.values() for field in (GF(7), QQ)),
    (QQ, [["1/2", 0], [0, "1/2"]]),  # numerators 0/1 over the denominator 2
], ids=[*(f"{name}-{field}" for name in NEAR_MISSES for field in ("F7", "Q")), "halves-Q"])
def test_near_misses_stay_dense(field, rows):
    m = DenseMap.from_rows(field, rows)
    assert m._src_of_dst is None
    assert m.rows() == [[_coerce(field, v) for v in row] for row in rows]


@pytest.mark.parametrize("field, bad, text", [
    (GF(7), "1.5", "bad residue '1.5': invalid literal for int() with base 10: '1.5'"),
    (GF(7), "x", "bad residue 'x': invalid literal for int() with base 10: 'x'"),
    (GF(7), 1.5, "float 1.5 is not an exact scalar"),
    (GF(7), True, "bool True is not an exact scalar"),
    (QQ, 1.5, "float 1.5 is not an exact scalar"),
    (QQ, "x", None),
], ids=str)
def test_bad_entries_keep_their_error_text(field, bad, text):
    # the bad entry sits among entries of a permutation matrix
    if text is None:
        with pytest.raises(ParseError) as expected:
            _coerce(field, bad)
        text = str(expected.value)
    with pytest.raises(ParseError) as raised:
        DenseMap.from_flat(field, 2, 2, ["1", 0, bad, "1"])
    assert str(raised.value) == text


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_integer_entries_read_as_per_entry(data):
    # ints and integer strings in and past int64 range, read like _coerce reads them
    field = data.draw(st.sampled_from([GF(7), GF(2 ** 61 - 1), QQ]))
    ints = st.one_of(st.integers(-3, 3), st.integers(-2 ** 63, 2 ** 63),
                     st.integers(2 ** 63, 2 ** 70), st.integers(-2 ** 70, -2 ** 63 - 1))
    raw = ints | ints.map(str) | ints.map(lambda v: f" {v}\t")
    dst, src = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    entries = data.draw(st.lists(raw, min_size=dst * src, max_size=dst * src))
    got = DenseMap.from_flat(field, dst, src, entries)
    want = _canonical(field, dst, src, np.array(
        [_coerce(field, v) for v in entries], dtype=object).reshape(dst, src))
    assert got == want and got.flat_strings() == want.flat_strings()
    assert got._num.dtype == want._num.dtype


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
@pytest.mark.parametrize("value", [-2 ** 63, str(-2 ** 63), 2 ** 63 - 1, -2 ** 62], ids=repr)
def test_int64_edge_entries_kept_exact(field, value):
    # -2^63 fits int64 but np.abs of it overflows, so it must not be stored as int64
    got = DenseMap.from_flat(field, 1, 1, [value])
    want = _canonical(field, 1, 1, np.array([[_coerce(field, value)]], dtype=object))
    assert got == want and got.flat_strings() == want.flat_strings()
    assert got._num.dtype == want._num.dtype
