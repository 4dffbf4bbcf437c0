import dataclasses
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihomcheck.coherence import (
    BIG_PHI,
    BIG_PSI,
    SMALL_PHI,
    SMALL_PSI,
    BiHomObject,
    DuoidalInstance,
    LaxInstance,
    _lax_path_exponents,
    check_duoidal_figure,
    check_exponent_identities,
    check_lax_figure,
    coherence_map,
    exponent_identities,
    nprod,
    phi_exponents,
    random_double_seq,
    random_duoidal_instance,
    random_lax_instance,
    random_object,
    unit_object,
    xi_map,
)
from bihomcheck import cli, coherence
from bihomcheck.combinat import (
    Permutation,
    bar,
    group_by,
    hat_of,
    pad,
    tilde_of,
    totals,
    validate_double_seq,
    validate_index_seq,
    z_of,
)
from bihomcheck.errors import (
    InvariantViolation,
    MissingEndomorphism,
    ParseError,
    ShapeMismatch,
    SlotOutOfRange,
)
from bihomcheck.exactlin import GF, QQ, DenseMap, compose, kron, kron_all
from bihomcheck.fixtures import cyclic_group_bundle
from bihomcheck.structures import coassoc_sequences, delta_n, sweep_generalized_coassoc
from bihomcheck.twist import BIMONOID, PlainStructure, yau_twist

from test_fixture_variety import poly_object

F7 = GF(7)
KINDS = (BIG_PHI, SMALL_PHI, BIG_PSI, SMALL_PSI)


def diag(field, *values):
    n = len(values)
    return DenseMap.from_rows(field, [[values[i] if i == j else 0
                                       for j in range(n)] for i in range(n)])


def obj_with(field, alpha, beta, kappa=None, nu=None):
    return BiHomObject(alpha.dst_dim, field, alpha, beta, kappa, nu)


class TestBiHomObject:
    def test_commutation_enforced_at_construction(self):
        a = DenseMap.from_rows(QQ, [[0, 1], [0, 0]])
        b = DenseMap.from_rows(QQ, [[1, 0], [0, 2]])
        with pytest.raises(InvariantViolation):
            obj_with(QQ, a, b)

    def test_four_endos_all_pairs_checked(self):
        ident = DenseMap.identity(QQ, 2)
        bad = DenseMap.from_rows(QQ, [[0, 1], [0, 0]])
        off = DenseMap.from_rows(QQ, [[1, 0], [0, 2]])
        with pytest.raises(InvariantViolation):
            obj_with(QQ, ident, ident, bad, off)

    def test_oplax_pair_required(self):
        o = obj_with(QQ, DenseMap.identity(QQ, 2), DenseMap.identity(QQ, 2))
        with pytest.raises(MissingEndomorphism):
            o.oplax_pair()


class TestNprod:
    def test_empty_is_unit(self):
        u = nprod([], QQ)
        assert u.dim == 1 and u.alpha.is_identity()

    def test_singleton_is_the_object(self):
        o = random_object(random.Random(0), F7, 3, four=True)
        assert nprod([o]) is o

    def test_identity_alphas_tensor_to_identity(self):
        o1 = obj_with(QQ, DenseMap.identity(QQ, 2), diag(QQ, 1, 2))
        o2 = obj_with(QQ, DenseMap.identity(QQ, 3), diag(QQ, 2, 3, 4))
        prod = nprod([o1, o2])
        assert prod.dim == 6
        assert prod.alpha.is_identity()


class TestPhiExponents:
    def test_two_one(self):
        exps = phi_exponents((2, 1), BIG_PHI)
        assert exps[0] == [(0, 0), (0, 0)]
        assert exps[1] == [(0, 1)]  # single beta on the last slot

    def test_one_two(self):
        exps = phi_exponents((1, 2), BIG_PHI)
        assert exps[0] == [(1, 0)]  # single alpha on the first slot
        assert exps[1] == [(0, 0), (0, 0)]

    def test_small_phi_unit_cases(self):
        assert phi_exponents((0, 1), SMALL_PHI) == [[], [(0, 1)]]
        assert phi_exponents((1, 0), SMALL_PHI) == [[(1, 0)], []]

    def test_psi_uses_same_exponents(self):
        assert phi_exponents((3, 0, 2), BIG_PSI) == phi_exponents((3, 0, 2), BIG_PHI)

    @given(st.lists(st.integers(0, 5), max_size=8),
           st.sampled_from([BIG_PHI, SMALL_PHI, BIG_PSI, SMALL_PSI]))
    def test_matches_from_scratch_sums(self, k, which):
        # reference: both weight sums of every group recomputed from scratch
        weight = (lambda v: bar(v) - 1) if which in (BIG_PHI, BIG_PSI) else z_of
        n = len(k)
        want = [[(sum(weight(k[p]) for p in range(i + 1, n)),
                  sum(weight(k[p]) for p in range(i)))] * k[i] for i in range(n)]
        assert phi_exponents(k, which) == want

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="negative entry"):
            phi_exponents((1, -1), BIG_PHI)
        with pytest.raises(ValueError, match="unknown coherence kind"):
            phi_exponents((1, 2), "Chi")


class TestCoherenceMap:
    def test_all_ones_trivial(self):
        rng = random.Random(1)
        objs = [random_object(rng, F7, 2, four=False) for _ in range(3)]
        m = kron_all(F7, coherence_map(BIG_PHI, [[o] for o in objs]))
        assert m.is_identity()

    def test_singleton_sequence_trivial(self):
        rng = random.Random(2)
        objs = [random_object(rng, F7, 2, four=False) for _ in range(3)]
        assert kron_all(F7, coherence_map(BIG_PHI, [objs])).is_identity()

    def test_small_phi_no_zeros_trivial(self):
        rng = random.Random(3)
        groups = [[random_object(rng, F7, 2, four=False) for _ in range(3)],
                  [random_object(rng, F7, 2, four=False) for _ in range(2)]]
        assert kron_all(F7, coherence_map(SMALL_PHI, groups)).is_identity()

    def test_all_zero_sequence_trivial(self):
        assert kron_all(QQ, coherence_map(BIG_PHI, [[], []])).is_identity()

    def test_derived_diagonal_example(self):
        rng = random.Random(4)
        o1 = obj_with(QQ, DenseMap.identity(QQ, 2), diag(QQ, 3, 5))
        o2 = obj_with(QQ, DenseMap.identity(QQ, 2), diag(QQ, 7, 11))
        o3 = obj_with(QQ, DenseMap.identity(QQ, 2), diag(QQ, 2, 3))
        m = kron_all(QQ, coherence_map(BIG_PHI, [[o1, o2], [o3]]))
        assert m == kron(DenseMap.identity(QQ, 4), diag(QQ, 2, 3))

    def test_psi_needs_oplax_endos(self):
        o = obj_with(QQ, DenseMap.identity(QQ, 2), DenseMap.identity(QQ, 2))
        with pytest.raises(MissingEndomorphism):
            coherence_map(BIG_PSI, [[o], [o]])

    def test_matches_independent_assembly(self):
        # rebuild the map slot by slot with plain repeated composition
        rng = random.Random(5)
        for _ in range(10):
            k = tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 3)))
            groups = [[random_object(rng, F7, 2, four=True) for _ in range(v)]
                      for v in k]
            for which in (BIG_PHI, SMALL_PHI, BIG_PSI, SMALL_PSI):
                exps = phi_exponents(k, which)
                assembled = DenseMap.identity(F7, 1)
                for i, g in enumerate(groups):
                    for j, o in enumerate(g):
                        first, second = o.pair_for(which)
                        a, b = exps[i][j]
                        factor = DenseMap.identity(F7, o.dim)
                        for _ in range(a):
                            factor = compose(factor, first)
                        for _ in range(b):
                            factor = compose(factor, second)
                        assembled = kron(assembled, factor)
                assert assembled == kron_all(F7, coherence_map(which, groups))


def per_call_coherence_map(k, which, groups, field):
    """coherence_map as it was assembled before objects kept their factors:
    each distinct (object, a, b) of one call powered afresh, and the factors
    folded into a Kronecker product from the 1x1 identity."""
    flat = [o for g in groups for o in g]
    exps = [e for group in phi_exponents(k, which) for e in group]
    slots = {(id(obj), a, b): (obj.pair_for(which), a, b) for obj, (a, b) in zip(flat, exps)}
    factors = {s: compose(x.power(a), y.power(b)) for s, ((x, y), a, b) in slots.items()}
    out = DenseMap.identity(field, 1)
    for obj, (a, b) in zip(flat, exps):
        out = kron(out, factors[id(obj), a, b])
    return out


class TestSlotFactors:
    @pytest.mark.parametrize("field", (F7, GF(2 ** 61 - 1), QQ), ids=str)
    def test_matches_per_call_assembly(self, field):
        # one pool across calls, so later calls read factors earlier ones kept
        rng = random.Random(str(field))
        pool = [random_object(rng, field, 3, four=True) for _ in range(3)]
        pool += [poly_object(rng, field, 3, four=True) for _ in range(3)]
        pool += [cyclic_group_bundle(field, n, 2).obj for n in (2, 4, 6)]
        pool.append(unit_object(field))
        checked = 0
        while checked < 40:
            k = tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 3)))
            groups = [[rng.choice(pool) for _ in range(v)] for v in k]
            if math.prod(o.dim for g in groups for o in g) > 144:
                continue
            checked += 1
            for which in KINDS:
                assert kron_all(field, coherence_map(which, groups)) == \
                    per_call_coherence_map(k, which, groups, field), (k, which)

    def test_lax_and_oplax_factors_are_never_shared(self):
        x, y = diag(F7, 2, 3, 5), diag(F7, 4, 1, 6)
        obj = obj_with(F7, x, y, x, y)  # equal maps on both pairs
        lax = obj.factor(BIG_PHI, 2, 1)
        assert obj.factor(SMALL_PHI, 2, 1) is lax
        oplax = obj.factor(BIG_PSI, 2, 1)
        assert oplax is not lax and oplax == lax
        assert obj.factor(SMALL_PSI, 2, 1) is oplax
        swapped = obj_with(F7, x, y, y, x)
        swapped.factor(BIG_PHI, 2, 1)
        assert swapped.factor(BIG_PSI, 2, 1) == compose(y.power(2), x)
        with pytest.raises(MissingEndomorphism):
            obj_with(F7, x, y).factor(BIG_PSI, 0, 0)

    def test_factors_take_no_part_in_eq_hash_repr(self):
        x, y = diag(QQ, 2, 3), diag(QQ, -1, 5)
        used, fresh = obj_with(QQ, x, y, y, x), obj_with(QQ, x, y, y, x)
        used.factor(BIG_PHI, 1, 2)
        used.factor(SMALL_PSI, 3, 0)
        assert len(used._factors) == 2
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        assert "_factors" not in repr(used)
        copy = dataclasses.replace(used)
        assert copy == used and copy._factors == {}
        assert dataclasses.replace(used, alpha=y, beta=x)._factors == {}

    def test_unit_object_built_once_per_field(self):
        assert unit_object(F7) is unit_object(GF(7)) is nprod([], F7)
        assert unit_object(QQ) is nprod([], QQ) is not unit_object(F7)
        assert unit_object(F7).factor(BIG_PHI, 3, 2).is_identity()

    def test_sweep_powers_each_factor_once(self, monkeypatch):
        # what `delta -n 4 --check-all-sequences --max-K 5` builds, on twisted C_3
        twisted = yau_twist(PlainStructure(cyclic_group_bundle(F7, 3, 2)), BIMONOID)
        calls = []
        real = DenseMap.power
        monkeypatch.setattr(DenseMap, "power", lambda m, k: calls.append(k) or real(m, k))
        delta_n(twisted, 4)
        reports = sweep_generalized_coassoc(twisted, coassoc_sequences(5))
        assert all(rep.passed for rep in reports)
        # every (pair, a, b) is built by one power of each map of the pair
        assert twisted.obj._factors and len(calls) == 2 * len(twisted.obj._factors)


class TestXiMap:
    def test_degenerate_grids_are_identity(self):
        rng = random.Random(6)
        objs = [random_object(rng, F7, 3, four=True) for _ in range(3)]
        assert xi_map([objs]).is_identity()
        assert xi_map([[o] for o in objs]).is_identity()
        assert xi_map([], F7).is_identity()

    def test_two_by_two_against_enumeration(self):
        # distinct prime dims tag the slots; exactly the transpose flip matches
        dims = [2, 3, 5, 7]
        objs = [obj_with(QQ, DenseMap.identity(QQ, d), DenseMap.identity(QQ, d))
                for d in dims]
        grid = [[objs[0], objs[1]], [objs[2], objs[3]]]
        target = xi_map(grid)
        matches = []
        for images in itertools.permutations(range(4)):
            try:
                cand = Permutation(images).matrix(dims, QQ)
            except ShapeMismatch:
                continue
            if cand.dst_dim == target.dst_dim and cand == target:
                matches.append(images)
        assert matches == [(0, 2, 1, 3)]  # slot (i,j) -> (j,i)

    def test_inverse_composition(self):
        rng = random.Random(7)
        for _ in range(10):
            n, p = rng.randint(0, 3), rng.randint(0, 3)
            grid = [[random_object(rng, F7, 2, four=True) for _ in range(p)]
                    for _ in range(n)]
            gridT = [[grid[i][j] for i in range(n)] for j in range(p)]
            fwd = xi_map(grid, F7)
            back = xi_map(gridT, F7)
            assert compose(back, fwd).is_identity()

    def test_is_zero_one_permutation_matrix(self):
        rng = random.Random(8)
        grid = [[random_object(rng, F7, 2, four=True) for _ in range(2)]
                for _ in range(2)]
        m = xi_map(grid)
        rows = m.rows()
        for row in rows:
            assert sorted(row) == [0] * (m.src_dim - 1) + [1]
        for j in range(m.src_dim):
            col = [rows[i][j] for i in range(m.dst_dim)]
            assert sorted(col) == [0] * (m.dst_dim - 1) + [1]

    def test_naturality(self):
        # with identity endomorphisms every matrix is a morphism
        rng = random.Random(9)
        for _ in range(10):
            n, p = rng.randint(1, 2), rng.randint(1, 2)
            xdims = [[rng.randint(1, 3) for _ in range(p)] for _ in range(n)]
            ydims = [[rng.randint(1, 3) for _ in range(p)] for _ in range(n)]
            mk = lambda d: obj_with(F7, DenseMap.identity(F7, d),
                                    DenseMap.identity(F7, d))
            xg = [[mk(d) for d in row] for row in xdims]
            yg = [[mk(d) for d in row] for row in ydims]
            f = [[DenseMap.from_rows(
                F7, [[rng.randrange(7) for _ in range(xdims[i][j])]
                     for _ in range(ydims[i][j])])
                for j in range(p)] for i in range(n)]
            row_then_col = DenseMap.identity(F7, 1)
            for i in range(n):
                for j in range(p):
                    row_then_col = kron(row_then_col, f[i][j])
            col_then_row = DenseMap.identity(F7, 1)
            for j in range(p):
                for i in range(n):
                    col_then_row = kron(col_then_row, f[i][j])
            assert compose(xi_map(yg), row_then_col) \
                == compose(col_then_row, xi_map(xg))


class TestExponentIdentities:
    def test_single_row_holds(self):
        for k in [(1,), (0, 2), (3, 0, 1)]:
            n, m = 1, (len(k),)
            for j in range(1, len(k) + 1):
                assert all(check_exponent_identities(n, m, (k,), 1, j))

    def test_hand_example_both_sides_one(self):
        # identity 2, plain form, at slot (1, 2) of m = (2, 0), k = ((0, 3), ()):
        # the second exponents summed along the lower-left region's two paths
        first, second = _lax_path_exponents(((0, 3), ()))[(1, 2)]["lower-left"]
        assert (first[1], second[1]) == (1, 1)
        assert all(check_exponent_identities(2, (2, 0), ((0, 3), ()), 1, 2))

    def test_whole_sequence_matches_per_slot(self):
        rng = random.Random(11)
        for _ in range(50):
            m, k = random_double_seq(rng, 4, 3, 4)
            table = exponent_identities(k)
            assert list(table) == [(i, j) for i in range(1, len(m) + 1)
                                   for j in range(1, m[i - 1] + 1) if k[i - 1][j - 1]]
            for (i, j), flags in table.items():
                assert flags == check_exponent_identities(len(m), m, k, i, j)

    def test_slot_out_of_range(self):
        with pytest.raises(SlotOutOfRange):
            check_exponent_identities(1, (2,), ((1, 1),), 1, 3)
        with pytest.raises(SlotOutOfRange):
            check_exponent_identities(1, (2,), ((1, 1),), 2, 1)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            check_exponent_identities(2, (1,), ((1,),), 1, 1)

    @given(st.lists(st.lists(st.integers(0, 4), max_size=3), max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_path_exponents_match_per_copy_reading(self, k):
        # every per-slot, per-region exponent pair, not only the verdicts: the
        # identities are theorems, so an evaluator answering True passes them
        assert _lax_path_exponents(k) == lax_exponents_by_copy(k)

    @given(st.integers(0, 4000))
    @settings(max_examples=120, deadline=None)
    def test_random_instances(self, trial):
        rng = random.Random(trial)
        m, k = random_double_seq(rng, 4, 3, 4)
        n = len(m)
        for i in range(1, n + 1):
            for j in range(1, m[i - 1] + 1):
                assert all(check_exponent_identities(n, m, k, i, j)), (m, k, i, j)


def lax_exponents_by_copy(k):
    """Reference for _lax_path_exponents: each map of the lax figure built
    from its definition, with its exponents read from phi_exponents and
    written item by item, every copy of a slot label included."""
    kinds = {"Phi": BIG_PHI, "phi": SMALL_PHI}
    prods = [[(i, j) for j in range(1, len(row) + 1)] for i, row in enumerate(k, 1)]
    objs = [[[slot] * v for slot, v in zip(p, row)] for p, row in zip(prods, k)]
    cat = lambda parts: [x for part in parts for x in part]
    rows = [cat(row) for row in objs]
    t, tl, ht = totals(k), tilde_of(k), hat_of(k)
    shapes = {
        "m": [([len(row) for row in k], prods)],
        "rows": list(zip(k, objs)),
        "tilde": [(cat(tl), cat(group_by(r, s) for r, s in zip(rows, tl)))],
        "KZ": [([a + z for a, z in zip(t.row_sums, t.row_zeros)],
                [pad(row, ks, None) for row, ks in zip(objs, k)])],
        "K": [(t.row_sums, rows)],
        "flat": [(cat(k), cat(objs))],
        "hat": [(cat(ht), cat(group_by(pad([r], (s,), None), h)
                              for r, s, h in zip(rows, t.row_sums, ht)))],
    }
    exps = {}
    for _, *paths in coherence._LAX_REGIONS:
        for step in itertools.chain(*paths):
            tag, shape = step.split(":")
            at = exps[step] = {}
            for seq, groups in shapes[shape]:
                for group, pairs in zip(groups, phi_exponents(seq, kinds[tag]), strict=True):
                    at.update(zip(group, pairs, strict=True))

    def path(steps, slot):
        return tuple(map(sum, zip(*(exps[s][slot] for s in steps))))

    return {slot: {name: (path(left, slot), path(right, slot))
                   for name, left, right in coherence._LAX_REGIONS}
            for p, row in zip(prods, k) for slot, v in zip(p, row) if v}


def _substituted(region, old, new):
    return tuple((name, *(tuple(new if name == region and s == old else s for s in path)
                          for path in paths))
                 for name, *paths in coherence._LAX_REGIONS)


class TestOneRegionTable:
    """Both levels read the lax figure from _LAX_REGIONS, so a wrong step in
    one region is caught by the exponent identities and by the matrices."""

    # Phi:tilde -> Phi:flat is no test: bar(0) - 1 = 0, so the empty rows
    # tilde adds shift no exponent and the two maps are equal.
    SUBSTITUTIONS = [("upper-left", "Phi:tilde", "Phi:K"),
                     ("upper-right", "phi:KZ", "Phi:KZ"),
                     ("lower-left", "phi:hat", "phi:flat"),
                     ("lower-right", "phi:K", "Phi:K")]

    @pytest.mark.parametrize("region, old, new", SUBSTITUTIONS)
    def test_symbolic_level_reports_the_region(self, monkeypatch, region, old, new):
        monkeypatch.setattr(coherence, "_LAX_REGIONS", _substituted(region, old, new))
        r = coherence._IDENTITY_REGIONS.index(region)
        rng = random.Random(0)
        flags = [f for _ in range(200)
                 for f in exponent_identities(random_double_seq(rng)[1]).values()]
        assert any(not f[r] for f in flags)
        assert all(all(f[:r] + f[r + 1:]) for f in flags)

    @pytest.mark.parametrize("region, old, new", SUBSTITUTIONS)
    def test_matrix_level_reports_the_region(self, monkeypatch, region, old, new):
        monkeypatch.setattr(coherence, "_LAX_REGIONS", _substituted(region, old, new))
        rng = random.Random(0)
        failed = {e.name for _ in range(40)
                  for e in check_lax_figure(random_lax_instance(rng, F7)).failures()}
        assert failed == {f"region-{region}"}

    def test_cli_symbolic_level_names_a_failing_slot(self, monkeypatch, capsys):
        monkeypatch.setattr(coherence, "_LAX_REGIONS",
                            _substituted("upper-left", "Phi:tilde", "Phi:K"))
        assert cli.main(["coherence", "--level", "symbolic", "--trials", "20"]) == 1
        out = capsys.readouterr().out
        assert "identities (False, True, True, True) fail at" in out
        assert out.endswith("trials passed (symbolic, seed 0)\n")


class TestFigures:
    def test_all_identity_endos_trivially_commute(self):
        mk = lambda d: obj_with(F7, DenseMap.identity(F7, d),
                                DenseMap.identity(F7, d),
                                DenseMap.identity(F7, d),
                                DenseMap.identity(F7, d))
        inst = LaxInstance((([mk(2), mk(2)], []), ()), F7)
        rep = check_lax_figure(inst)
        assert rep.passed
        duo = DuoidalInstance((1, 0), (([mk(2)], []), ([mk(2)], [])), F7)
        assert check_duoidal_figure(duo).passed

    @pytest.mark.parametrize("k, sizes, message", [
        ((1, 1), [(2, 0)], "oplax factor 0 has groups of sizes (2, 0), k is (1, 1)"),
        ((1,), [(1,), (2,)], "oplax factor 1 has groups of sizes (2,), k is (1,)"),
        ((1,), [(1, 0)], "oplax factor 0 has groups of sizes (1, 0), k is (1,)"),
        ((), [(0,)], "oplax factor 0 has groups of sizes (0,), k is ()"),
    ])
    def test_duoidal_groups_must_have_the_sizes_of_k(self, k, sizes, message):
        o = random_object(random.Random(1), F7, 2, four=True)
        objects = tuple(tuple([o] * v for v in row) for row in sizes)
        with pytest.raises(ShapeMismatch) as info:
            DuoidalInstance(k, objects, F7)
        assert str(info.value) == message

    def test_every_oplax_factor_is_read(self):
        mk = lambda *d: obj_with(F7, diag(F7, *d), diag(F7, *d), diag(F7, *d), diag(F7, *d))
        objects = (([mk(2, 3)],), ([mk(4, 5, 6)],))
        inst = DuoidalInstance([1], objects, F7)
        assert inst.k == (1,)
        assert coherence._duoidal_maps(inst)[0]["xi:flat"].dst_dim == 2 * 3
        assert check_duoidal_figure(inst).passed

    def test_random_lax_instances(self):
        rng = random.Random(21)
        for _ in range(20):
            inst = random_lax_instance(rng, F7)
            rep = check_lax_figure(inst)
            assert rep.passed, (inst.objects, rep.failures())

    @pytest.mark.parametrize("bounds", [(2, 2, 2, 2), (3, 2, 1, 2), (4, 3, 4, 1), (4, 3, 4, 3)])
    def test_lax_instance_draws_its_double_sequence(self, bounds):
        max_n, max_m, max_k, max_dim = bounds
        fitted = 0
        for s in range(200):
            m, k = random_double_seq(random.Random(s), max_n, max_m, max_k)
            if max_dim ** sum(map(sum, k)) > coherence._DIM_CAP:
                continue  # random_lax_instance draws again
            fitted += 1
            inst = random_lax_instance(random.Random(s), F7, *bounds)
            rows = inst.objects
            assert (tuple(map(len, rows)), tuple(tuple(map(len, r)) for r in rows)) == (m, k)
        assert fitted >= 100

    def test_random_duoidal_instances(self):
        rng = random.Random(22)
        for _ in range(15):
            inst = random_duoidal_instance(rng, F7)
            rep = check_duoidal_figure(inst)
            assert rep.passed, (inst.k, inst.objects, rep.failures())

    def test_rational_instances_too(self):
        rng = random.Random(23)
        for _ in range(5):
            inst = random_lax_instance(rng, QQ)
            assert check_lax_figure(inst).passed

    def test_region_reports_carry_names(self):
        rng = random.Random(25)
        rep = check_lax_figure(random_lax_instance(rng, F7))
        names = {e.name for e in rep.entries}
        assert {"region-upper-left", "region-upper-right", "region-lower-left",
                "region-lower-right", "unit-singleton", "unit-unary"} <= names


# Random instances over F_7 and Q at max_k = 1 and 2; each check below runs on
# every one of them.
BOUNDS = [(2, 2, 1, 2), (2, 2, 2, 2), (3, 2, 2, 2)]


def _random_instances(make):
    for field in (F7, QQ):
        for bounds in BOUNDS:
            for s in range(20):
                yield make(random.Random(s), field, *bounds)


def _commute_pairwise(o):
    endos = list(o.endos().values())
    return all(compose(x, y) == compose(y, x) for x, y in itertools.combinations(endos, 2))


class TestTrustedProducts:
    """nprod and random_object skip the pairwise commutation check; every
    object they build is the checked object of the same endomorphisms."""

    @pytest.fixture
    def trusted(self, monkeypatch):
        built, build = [], BiHomObject._trusted

        def recording(cls, *args):
            built.append(build(*args))
            return built[-1]

        monkeypatch.setattr(BiHomObject, "_trusted", classmethod(recording))
        return built

    @pytest.mark.parametrize("make, check", [(random_lax_instance, check_lax_figure),
                                             (random_duoidal_instance, check_duoidal_figure)],
                             ids=["lax", "duoidal"])
    def test_equal_to_the_checked_object(self, trusted, make, check):
        for inst in _random_instances(make):
            assert check(inst).passed
        assert len(trusted) > 50
        for o in trusted:
            assert BiHomObject(o.dim, o.field, o.alpha, o.beta, o.kappa, o.nu) == o
            assert _commute_pairwise(o)

    def test_products_are_trusted_and_equal_the_checked_product(self, trusted):
        rng = random.Random(5)
        objs = [random_object(rng, QQ, 3, four=True) for _ in range(3)]
        trusted.clear()
        p = nprod(objs)
        assert trusted == [p]
        endos = {name: kron_all(QQ, [o.endos()[name] for o in objs]) for name in p.endos()}
        assert p == BiHomObject(math.prod(o.dim for o in objs), QQ, **endos)

    def test_refused_through_the_constructor(self):
        with pytest.raises(InvariantViolation):
            obj_with(QQ, diag(QQ, 1, 2), DenseMap.from_rows(QQ, [[0, 1], [0, 0]]))

    def test_refused_through_replace_of_a_product(self):
        o = obj_with(QQ, diag(QQ, 1, 2), diag(QQ, 3, 5))
        p = nprod([o, o])
        nilpotent = DenseMap.from_flat(QQ, 4, 4, [int(i == 1) for i in range(16)])
        with pytest.raises(InvariantViolation, match="alpha and beta do not commute"):
            dataclasses.replace(p, beta=nilpotent)

    def test_refused_through_an_instance_file(self, tmp_path, capsys):
        doc = {"format_version": "1", "field": {"kind": "rationals"},
               "objects": {"x": {"dim": 2, "alpha": ["1", "0", "0", "2"],
                                 "beta": ["0", "1", "0", "0"]}},
               "structures": {}}
        path = tmp_path / "noncommuting.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            cli.load_instance(str(path))
        # refused as an input error (exit 2), before any check has run
        code = cli.main(["check", str(path), "--structure", "bimonoid", "--name", "x"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "error: object x: endomorphisms alpha and beta do not commute\n"


class TestInterchangesFromDimensions:
    """xi:blocks and the unit triangles of the duoidal figure read only slot
    dimensions; they equal xi_map on the full nprod grids."""

    def test_equal_xi_map_on_nprod_grids(self, monkeypatch):
        built, build = [], coherence.flip_perm
        monkeypatch.setattr(coherence, "flip_perm",
                            lambda *args: built.append(build(*args)) or built[-1])
        seen = 0
        for inst in _random_instances(random_duoidal_instance):
            objs, field = inst.objects, inst.field
            n, p = len(objs), len(inst.k)
            built.clear()
            assert check_duoidal_figure(inst).passed
            # xi:flat, xi:blocks, one xi_map per group for xi:groups, then the triangles
            assert len(built) == p + 4
            c_grid = [[nprod(objs[s][i], field) for i in range(p)] for s in range(n)]
            rows = [nprod([o for g in objs[s] for o in g], field) for s in range(n)]
            cols = [nprod([c_grid[s][i] for s in range(n)], field) for i in range(p)]
            assert built[1] == xi_map(c_grid, field)
            assert built[-2] == xi_map([[o] for o in rows], field)
            assert built[-1] == xi_map([cols], field)
            seen += n * p > 1
        assert seen > 20

    def test_xi_map_compares_fields_by_identity_first(self, monkeypatch):
        o = random_object(random.Random(1), F7, 2, four=False)
        monkeypatch.setattr(type(F7), "__eq__", lambda *_: pytest.fail("compared by value"))
        assert xi_map([[o]], F7).is_identity()


class TestExponentTable:
    def test_mutating_a_result_leaves_the_next_coherence_map(self):
        rng = random.Random(3)
        groups = [[random_object(rng, QQ, 2, four=True) for _ in range(v)] for v in (2, 0, 1)]
        for which in KINDS:
            before = coherence_map(which, groups)
            table = phi_exponents((2, 0, 1), which)
            table[0][0] = (7, 7)
            table[2].append((1, 1))
            table.append([(3, 3)])
            assert coherence_map(which, groups) == before
            assert phi_exponents((2, 0, 1), which) != table

    def test_cached_table_is_immutable_and_shared(self):
        first = coherence._exponent_table((1, 2), BIG_PHI)
        assert coherence._exponent_table((1, 2), BIG_PHI) is first
        assert isinstance(first, tuple) and all(isinstance(g, tuple) for g in first)
        assert [list(g) for g in first] == phi_exponents([1, 2], BIG_PHI)


# The three forms of a sequence holding -1.  A validator never returns a
# negative entry, so the third form holds what one returned beside the -1: a
# tuple operation on a checked sequence gives a plain tuple, checked again.
INDEX_FORMS = ([2, -1], (2, -1), validate_index_seq((2, 5))[:1] + (-1,))
DOUBLE_FORMS = ([[1], [2, -1]], ((1,), (2, -1)),
                validate_double_seq([[1]]) + (validate_index_seq([2]) + (-1,),))


class TestSequencesCheckedOnce:
    """A sequence is checked where it enters; what a validator returned passes
    the helpers unread, and nothing else is let through unchecked."""

    @pytest.mark.parametrize("call, forms", [
        (validate_index_seq, INDEX_FORMS),
        (validate_double_seq, DOUBLE_FORMS),
        (lambda k: pad([["x", "y"], []], k, "unit"), INDEX_FORMS),
        (lambda k: group_by(["x"], k), INDEX_FORMS),
        (totals, DOUBLE_FORMS),
        (tilde_of, DOUBLE_FORMS),
        (hat_of, DOUBLE_FORMS),
        (lambda k: phi_exponents(k, BIG_PHI), INDEX_FORMS),
        (lambda m: check_exponent_identities(2, m, [[1], []], 1, 1), INDEX_FORMS),
        (lambda k: check_exponent_identities(2, (1, 2), k, 1, 1), DOUBLE_FORMS),
    ], ids=["validate_index_seq", "validate_double_seq", "pad", "group_by", "totals",
            "tilde_of", "hat_of", "phi_exponents",
            "check_exponent_identities-m", "check_exponent_identities-k"])
    def test_negative_entry_refused_in_every_form(self, call, forms):
        for form in forms:
            with pytest.raises(ValueError) as info:
                call(form)
            assert type(info.value) is ValueError
            assert str(info.value) == "negative entry in (2, -1)", form

    def test_validated_sequences_read_as_plain_tuples(self):
        seq, rows = validate_index_seq([3, 0, 1]), validate_double_seq([[3, 0], [], [1]])
        for checked, plain in [(seq, (3, 0, 1)), (rows, ((3, 0), (), (1,))),
                               (rows[0], (3, 0)), (validate_index_seq([]), ())]:
            assert checked == plain and plain == checked
            assert hash(checked) == hash(plain)
            assert repr(checked) == repr(plain) and str(checked) == str(plain)
            assert json.dumps(checked) == json.dumps(plain)
            assert {checked: 1} == {plain: 1}
        assert validate_index_seq(seq) is seq
        assert all(a is b for a, b in zip(validate_double_seq(rows), rows, strict=True))
