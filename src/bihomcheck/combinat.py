"""Integer bookkeeping behind the coherence formulas.

The kernel drives everything off (ragged) sequences of non-negative integers,
checked where they enter (validate_index_seq, validate_double_seq), and off
the tensor flip permutations tau_{n,p}.  The tilde, hat and K+Z paddings of a
double sequence are not built here: coherence._lax_shapes builds them once,
from the grouped objects.  Permutation stays for its traced matrix form.
Positions are 0-based internally; row/slot numbering in docstrings is 1-based
to match the usual mathematical convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ShapeMismatch
from .exactlin import DenseMap, FieldTag, _index_map

import numpy as np

IndexSeq = Sequence[int]
DoubleSeq = Sequence[Sequence[int]]


def z_of(m: int) -> int:
    """1 on zero, 0 on positive integers."""
    if m < 0:
        raise ValueError("negative index")
    return 1 if m == 0 else 0


def bar(m: int) -> int:
    """m + z_of(m): bumps zero up to one, fixes positives."""
    return m + z_of(m)


def validate_index_seq(k: IndexSeq) -> tuple:
    items = tuple(int(v) for v in k)
    if any(v < 0 for v in items):
        raise ValueError(f"negative entry in {items}")
    return items


def validate_double_seq(rows: DoubleSeq) -> tuple:
    return tuple(map(validate_index_seq, rows))


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0, ..., size-1}: slot s is sent to position images[s]."""

    images: tuple

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ShapeMismatch(f"not a bijection: {self.images}")

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, s: int) -> int:
        return self.images[s]

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(s) = self(other(s))."""
        if self.size != other.size:
            raise ShapeMismatch("composing permutations of different sizes")
        return Permutation(tuple(self.images[other.images[s]]
                                 for s in range(self.size)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for s, t in enumerate(self.images):
            inv[t] = s
        return Permutation(tuple(inv))

    @staticmethod
    def direct_sum(perms: Sequence["Permutation"]) -> "Permutation":
        images = []
        offset = 0
        for p in perms:
            images.extend(offset + t for t in p.images)
            offset += p.size
        return Permutation(tuple(images))

    def blown_up(self, block_sizes: Sequence[int]) -> "Permutation":
        """Permutation of flat slots induced by permuting contiguous blocks.

        block_sizes lists the input blocks in input order; block b (occupying
        a contiguous run of slots) moves, as a whole, to block position
        images[b].
        """
        if len(block_sizes) != self.size:
            raise ShapeMismatch(f"{len(block_sizes)} block sizes for a permutation of {self.size}")
        in_off = [0] * self.size
        for b in range(1, self.size):
            in_off[b] = in_off[b - 1] + block_sizes[b - 1]
        inv = self.inverse()
        out_sizes = [block_sizes[inv(t)] for t in range(self.size)]
        out_off = [0] * self.size
        for t in range(1, self.size):
            out_off[t] = out_off[t - 1] + out_sizes[t - 1]
        images = [0] * sum(block_sizes)
        for b in range(self.size):
            t = self.images[b]
            for r in range(block_sizes[b]):
                images[in_off[b] + r] = out_off[t] + r
        return Permutation(tuple(images))

    def matrix(self, dims: Sequence[int], field: FieldTag) -> DenseMap:
        """0/1 map permuting the tensor factors of slots with these dims.

        dims lists the carrier dimension of each input slot; basis vectors are
        flattened big-endian, and the output slot at position images[s] has
        dimension dims[s].  The map keeps only its index array (see DenseMap).
        """
        if len(dims) != self.size:
            raise ShapeMismatch(f"{len(dims)} dims for a permutation of {self.size}")
        total = math.prod(dims)
        src_of_dst = np.arange(total).reshape(dims).transpose(self.inverse().images)
        return DenseMap.permutation(field, src_of_dst)


def flip_perm(n: int, p: int, block_dims: Sequence[int], field: FieldTag) -> DenseMap:
    """The transposition tau_{n,p}: p groups of n slots -> n groups of p.

    Input slot (i, j) (group i < p, position j < n, flat i*n + j) is sent to
    output position (j, i) (flat j*p + i).  block_dims is a flat list of the
    n*p slot dimensions in input order; the permutation is returned as its
    index map on the tensor product (see DenseMap): one transpose of arange
    over the slot dimensions, with no Permutation built.
    """
    if len(block_dims) != n * p:
        raise ShapeMismatch(f"{len(block_dims)} dims for a permutation of {n * p}")
    axes = np.arange(n * p).reshape(p, n).T.reshape(-1)  # output slot (j, i) reads (i, j)
    src_of_dst = np.arange(math.prod(block_dims)).reshape(block_dims).transpose(axes)
    return _index_map(field, src_of_dst.reshape(-1))
