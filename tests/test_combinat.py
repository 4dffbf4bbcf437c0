import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bihomcheck.combinat import (
    Permutation,
    bar,
    flip_perm,
    group_by,
    hat_of,
    pad,
    tilde_of,
    totals,
    z_of,
)
from bihomcheck.errors import LengthMismatch, ShapeMismatch
from bihomcheck.exactlin import GF, QQ, DenseMap, compose, kron

double_seqs = st.lists(st.lists(st.integers(0, 4), max_size=3), max_size=4)
index_seqs = st.lists(st.integers(0, 4), max_size=6)


def test_z_and_bar():
    assert z_of(0) == 1
    assert z_of(3) == 0
    assert bar(3) == 3
    assert bar(0) == 1
    with pytest.raises(ValueError):
        z_of(-1)


class TestTotals:
    def test_hand_evaluated_rows(self):
        t = totals([[0, 3], []])
        assert t.row_sums == (3, 0)
        assert t.row_zeros == (1, 0)
        assert t.total == 3
        assert t.zeros == 1
        # both closed forms: Z + sum z(m_i) and Z + sum z(K_i + Z_i)
        assert t.tilde_zeros == 1 + 0 + 1
        assert t.tilde_zeros == t.zeros + sum(
            z_of(ks + zs) for ks, zs in zip(t.row_sums, t.row_zeros))

    def test_no_zero_rows(self):
        t = totals([[1, 1]])
        assert (t.total, t.zeros, t.tilde_zeros) == (2, 0, 0)

    def test_empty(self):
        t = totals([])
        assert (t.total, t.zeros, t.length_sum, t.tilde_zeros) == (0, 0, 0, 0)

    @given(double_seqs)
    def test_tilde_z_closed_forms_agree(self, rows):
        t = totals(rows)
        tl = tilde_of(rows)
        assert t.tilde_zeros == sum(z_of(v) for r in tl for v in r)
        assert t.tilde_zeros == t.zeros + sum(
            z_of(ks + zs) for ks, zs in zip(t.row_sums, t.row_zeros))

    @given(index_seqs)
    def test_length_plus_zeros_bounds(self, seq):
        t = totals([seq])
        m_total = t.row_sums[0] + t.row_zeros[0]
        assert m_total >= len(seq)
        assert (m_total == 0) == (len(seq) == 0)


class TestTildeHat:
    def test_empty_row(self):
        assert tilde_of([[]]) == ((0,),)
        assert hat_of([[]]) == ((1,),)

    def test_zero_sum_row(self):
        assert hat_of([[0, 0]]) == ((1, 0),)
        assert tilde_of([[0, 0]]) == ((0, 0),)

    def test_positive_rows_copied(self):
        assert tilde_of([[2, 3]]) == ((2, 3),)
        assert hat_of([[2, 3]]) == ((2, 3),)

    @given(double_seqs)
    def test_row_lengths_are_bar(self, rows):
        for src, tl, ht in zip(rows, tilde_of(rows), hat_of(rows)):
            assert len(tl) == bar(len(src))
            assert len(ht) == bar(len(src))

    @given(double_seqs)
    def test_weight_sum_identity(self, rows):
        t = totals(rows)
        tl, ht = tilde_of(rows), hat_of(rows)
        weight = lambda seq: sum(v + z_of(v) for r in seq for v in r)
        assert weight(ht) == weight(tl) == t.total + t.tilde_zeros


class TestFlipPerm:
    def test_trivial_cases(self):
        assert flip_perm(3, 1).is_identity()
        assert flip_perm(1, 4).is_identity()
        assert flip_perm(0, 0).size == 0

    def test_inverse_pair(self):
        for n in range(5):
            for p in range(5):
                assert flip_perm(n, p).compose(flip_perm(p, n)).is_identity()
                assert flip_perm(p, n).compose(flip_perm(n, p)).is_identity()

    def test_composition_law(self):
        # tau_{n,p} after the blockwise tau_{n,k_i} equals tau_{n,sum k}
        for n, p in itertools.product(range(4), range(4)):
            for k in itertools.product(range(4), repeat=p):
                inner = Permutation.direct_sum([flip_perm(n, v) for v in k])
                sizes = [v for v in k for _ in range(n)]
                outer = flip_perm(n, p).blown_up(sizes)
                assert outer.compose(inner) == flip_perm(n, sum(k))

    def test_matrix_form_is_homomorphism(self):
        rng = random.Random(0)
        field = GF(7)
        for _ in range(10):
            n, p = rng.randint(1, 3), rng.randint(1, 3)
            dims = [rng.randint(1, 2) for _ in range(n * p)]
            m = flip_perm(n, p, block_dims=dims, field=field)
            inv_dims = [0] * (n * p)
            perm = flip_perm(n, p)
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
                perm = flip_perm(n, k[v])
                out = [0] * len(d)
                for s, dim in enumerate(d):
                    out[perm(s)] = dim
                inner_dims.extend(out)
            sizes = [v for v in k for _ in range(n)]
            outer = flip_perm(n, p).blown_up(sizes).matrix(inner_dims, field)
            flat_dims = [d for block in dims_per_block for d in block]
            total = flip_perm(n, sum(k), block_dims=flat_dims, field=field)
            assert compose(outer, inner) == total, (n, p, k)

    def test_matrix_against_basis_oracle(self):
        # follow each basis vector by hand through the slot flip
        field = QQ
        dims = [2, 3, 2, 3]  # tau_{2,2}: 2 groups of 2 slots
        m = flip_perm(2, 2, block_dims=dims, field=field)
        perm = flip_perm(2, 2)
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


class TestPad:
    def test_direct_reading(self):
        out = pad([["x", "y"], [], ["z"]], (2, 0, 1), "unit")
        assert out == ["x", "y", "unit", "z"]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pad([["x"]], (2,), "unit")
        with pytest.raises(LengthMismatch):
            pad([["x"]], (1, 1), "unit")

    @staticmethod
    def _padding_round(rng):
        m = rng.randint(0, 4)
        ks = tuple(rng.randint(0, 4) for _ in range(m))
        objs = [[f"x{i}.{j}" for j in range(ks[i])] for i in range(m)]
        flat = [o for g in objs for o in g]
        t = totals([ks])
        tl, ht = tilde_of([ks])[0], hat_of([ks])[0]
        via_tilde = pad(group_by(flat, tl), tl, "U")
        # first diagram: pad by the sequence, then by its padded total
        left = pad([pad(objs, ks, "U")], (t.total + t.zeros,), "U")
        assert left == via_tilde
        # second diagram: pad the whole list, regroup by hat, pad again
        step = pad([flat], (t.total,), "U")
        right = pad(group_by(step, ht), ht, "U")
        assert right == via_tilde

    def test_padding_diagrams(self):
        rng = random.Random(12)
        for _ in range(200):
            self._padding_round(rng)
