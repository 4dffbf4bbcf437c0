import itertools
import random

import pytest

from bihomcheck.combinat import (
    Permutation,
    bar,
    flip_perm,
    validate_double_seq,
    validate_index_seq,
    z_of,
)
from bihomcheck.errors import ShapeMismatch
from bihomcheck.exactlin import GF, QQ, DenseMap, compose, kron

from conftest import flip_permutation


def test_z_and_bar():
    assert z_of(0) == 1
    assert z_of(3) == 0
    assert bar(3) == 3
    assert bar(0) == 1
    with pytest.raises(ValueError):
        z_of(-1)


def test_validators_return_plain_tuples():
    assert type(validate_index_seq([1, 0])) is tuple
    rows = validate_double_seq([[3, 0], []])
    assert type(rows) is tuple and all(type(row) is tuple for row in rows)
    assert rows == ((3, 0), ())


class TestFlipPerm:
    def test_trivial_cases(self):
        assert flip_permutation(3, 1).is_identity()
        assert flip_permutation(1, 4).is_identity()
        assert flip_permutation(0, 0).size == 0

    def test_inverse_pair(self):
        for n in range(5):
            for p in range(5):
                assert flip_permutation(n, p).compose(flip_permutation(p, n)).is_identity()
                assert flip_permutation(p, n).compose(flip_permutation(n, p)).is_identity()

    def test_composition_law(self):
        # tau_{n,p} after the blockwise tau_{n,k_i} equals tau_{n,sum k}
        for n, p in itertools.product(range(4), range(4)):
            for k in itertools.product(range(4), repeat=p):
                inner = Permutation.direct_sum([flip_permutation(n, v) for v in k])
                sizes = [v for v in k for _ in range(n)]
                outer = flip_permutation(n, p).blown_up(sizes)
                assert outer.compose(inner) == flip_permutation(n, sum(k))

    def test_matrix_form_is_homomorphism(self):
        rng = random.Random(0)
        field = GF(7)
        for _ in range(10):
            n, p = rng.randint(1, 3), rng.randint(1, 3)
            dims = [rng.randint(1, 2) for _ in range(n * p)]
            m = flip_perm(n, p, block_dims=dims, field=field)
            inv_dims = [0] * (n * p)
            perm = flip_permutation(n, p)
            for s, d in enumerate(dims):
                inv_dims[perm(s)] = d
            back = flip_perm(p, n, block_dims=inv_dims, field=field)
            assert compose(back, m).is_identity()

    def test_composition_law_in_matrix_form(self):
        # the same identity realized on tensor factors of mixed dimensions
        field = GF(7)
        rng = random.Random(1)
        for n, p, k in [(2, 2, (1, 2)), (2, 3, (2, 0, 1)), (3, 2, (2, 2))]:
            dims_per_block = [[rng.randint(1, 2) for _ in range(n * v)] for v in k]
            inner = DenseMap.identity(field, 1)
            for v, d in zip(k, dims_per_block):
                inner = kron(inner, flip_perm(n, v, block_dims=d, field=field))
            inner_dims = []
            for v, d in enumerate(dims_per_block):
                perm = flip_permutation(n, k[v])
                out = [0] * len(d)
                for s, dim in enumerate(d):
                    out[perm(s)] = dim
                inner_dims.extend(out)
            sizes = [v for v in k for _ in range(n)]
            outer = flip_permutation(n, p).blown_up(sizes).matrix(inner_dims, field)
            flat_dims = [d for block in dims_per_block for d in block]
            total = flip_perm(n, sum(k), block_dims=flat_dims, field=field)
            assert compose(outer, inner) == total, (n, p, k)

    def test_matrix_against_basis_oracle(self):
        # follow each basis vector by hand through the slot flip
        field = QQ
        dims = [2, 3, 2, 3]  # tau_{2,2}: 2 groups of 2 slots
        m = flip_perm(2, 2, block_dims=dims, field=field)
        perm = flip_permutation(2, 2)
        out_dims = [0] * 4
        for s, d in enumerate(dims):
            out_dims[perm(s)] = d
        for flat, multi in enumerate(itertools.product(*[range(d) for d in dims])):
            target = [0] * 4
            for s in range(4):
                target[perm(s)] = multi[s]
            dst = 0
            for t in range(4):
                dst = dst * out_dims[t] + target[t]
            col = [row[flat] for row in m.rows()]
            assert col[dst] == 1 and sum(col) == 1


class TestPermutation:
    def test_bijection_enforced(self):
        with pytest.raises(ShapeMismatch):
            Permutation((0, 0))

    def test_compose_convention(self):
        a = Permutation((1, 2, 0))
        b = Permutation((0, 2, 1))
        assert a.compose(b).images == tuple(a(b(s)) for s in range(3))

    def test_inverse(self):
        p = Permutation((2, 0, 1))
        assert p.compose(p.inverse()).is_identity()
