"""Shared helpers: independent brute-force oracles and value strategies."""

import functools
import sys
from fractions import Fraction
from unittest import mock

from hypothesis import strategies as st

from bihomcheck import exactlin
from bihomcheck.combinat import Permutation
from bihomcheck.exactlin import GF, QQ, DenseMap
from bihomcheck.twist import BIMONOID, COMONOID, MONOID


def naive_matmul(a_rows, b_rows):
    """Triple-loop matrix product on nested lists (oracle for compose)."""
    n, k = len(a_rows), len(b_rows)
    m = len(b_rows[0]) if b_rows else 0
    assert all(len(r) == k for r in a_rows)
    return [[sum(a_rows[i][t] * b_rows[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def naive_kron(a_rows, b_rows, a_shape, b_shape):
    """Explicit index-convention Kronecker product (oracle for kron)."""
    (ad, asrc), (bd, bsrc) = a_shape, b_shape
    out = [[0] * (asrc * bsrc) for _ in range(ad * bd)]
    for i in range(ad):
        for j in range(asrc):
            for r in range(bd):
                for c in range(bsrc):
                    out[i * bd + r][j * bsrc + c] = a_rows[i][j] * b_rows[r][c]
    return out


def reference_flip_images(n, p):
    """The images of tau_{n,p}: input slot (i, j), flat i*n + j, goes to
    output position (j, i), flat j*p + i."""
    images = [0] * (n * p)
    for i in range(p):
        for j in range(n):
            images[i * n + j] = j * p + i
    return tuple(images)


def flip_permutation(n, p):
    """tau_{n,p} as a Permutation of its n*p slots (flip_perm builds its index map)."""
    return Permutation(reference_flip_images(n, p))


_DIRECTION_NAMES = {COMONOID: "comonoid", MONOID: "monoid", BIMONOID: "bimonoid"}


def direction_id(value):
    """A twist direction's name as a parametrize id (pytest's own id for a
    string)."""
    return None if isinstance(value, str) else _DIRECTION_NAMES[value]


def chain(side, *maps):
    """side.chain of several maps, multiplied from the structure map's end, so
    that every product is as narrow as that map."""
    return functools.reduce(side.chain, maps)


def zero_map(field, dst, src):
    return DenseMap.from_flat(field, dst, src, [0] * (dst * src))


def combination(*terms):
    """The sum of c * m over the (c, m) pairs of terms, entry by entry, read
    back by from_flat."""
    m = terms[0][1]
    flat = [0] * (m.dst_dim * m.src_dim)
    for c, term in terms:
        flat = [x + c * v for x, v in zip(flat, sum(term.rows(), []))]
    return DenseMap.from_flat(m.field, m.dst_dim, m.src_dim, flat)


def as_rational_map(rows):
    return DenseMap.from_rows(QQ, [[Fraction(v) for v in row] for row in rows])


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def rational_matrix(dst, src):
    return st.lists(st.lists(small_fracs, min_size=src, max_size=src),
                    min_size=dst, max_size=dst).map(as_rational_map)


def mod7_matrix(dst, src):
    entries = st.integers(min_value=0, max_value=6)
    return st.lists(st.lists(entries, min_size=src, max_size=src),
                    min_size=dst, max_size=dst).map(
        lambda rows: DenseMap.from_rows(GF(7), rows))


def operand_dtypes():
    """A set, and a patch of exactlin._operands that adds to it the dtype of
    every operand pair it hands to kron_compose while the patch is active."""
    seen = set()
    original = exactlin._operands

    def recording(maps, inner=1):
        out = original(maps, inner)
        if sys._getframe(1).f_code.co_name == "kron_compose":
            seen.add(out[0].dtype)
        return out

    return seen, mock.patch.object(exactlin, "_operands", recording)
