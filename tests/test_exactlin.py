import gc
import json
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihomcheck import exactlin
from bihomcheck.cli import InstanceData, load_instance, save_instance
from bihomcheck.errors import (
    DimensionMismatch,
    FieldMismatch,
    NotSquare,
    ParseError,
    RowLengthMismatch,
    TooLarge,
)
from bihomcheck.exactlin import (
    GF,
    NO_SOLUTION,
    QQ,
    RATIONALS,
    UNDERDETERMINED,
    UNIQUE,
    DenseMap,
    FieldTag,
    Scalar,
    compose,
    compose_all,
    invert,
    kron,
    kron_all,
    kron_compose,
    _is_prime,
    solve_linear,
)
from bihomcheck import twist
from bihomcheck.fixtures import (
    cyclic_group_bundle,
    dual_cyclic_bundle,
    inversion_antipode,
    sweedler_bundle,
)
from bihomcheck.twist import (
    DIRECT,
    FOUND,
    NON_UNIQUE,
    VIA_UNTWIST,
    PlainStructure,
    antipode_solve,
    yau_twist,
)

from conftest import (
    as_rational_map,
    naive_kron,
    naive_matmul,
    operand_dtypes,
    rational_matrix,
    small_fracs,
)

F7 = GF(7)


def rand_map(rng, field, dst, src, bound=5):
    if field.kind == "prime_field":
        rows = [[rng.randrange(field.modulus) for _ in range(src)] for _ in range(dst)]
    else:
        rows = [[Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
                 for _ in range(src)] for _ in range(dst)]
    return DenseMap.from_rows(field, rows)


def trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


class TestFieldTag:
    def test_prime_checked(self):
        GF(2)
        GF(101)
        with pytest.raises(ParseError):
            GF(6)
        with pytest.raises(ParseError):
            GF(1)

    def test_primality_agrees_with_trial_division(self):
        for n in range(10 ** 4):
            assert _is_prime(n) == trial_division_is_prime(n), n

    def test_large_prime_modulus_is_fast(self):
        start = time.monotonic()
        assert GF(2 ** 61 - 1).modulus == 2 ** 61 - 1
        assert time.monotonic() - start < 1

    def test_pseudoprimes_rejected(self):
        # a Carmichael number and a strong pseudoprime to bases 2, 3, 5, 7
        for n in (561, 3215031751):
            with pytest.raises(ParseError):
                GF(n)

    def test_modulus_past_exact_range_refused(self):
        with pytest.raises(ParseError, match="too large"):
            GF(2 ** 89 - 1)

    def test_rationals_have_no_modulus(self):
        with pytest.raises(ParseError):
            FieldTag("rationals", 5)

    @pytest.mark.parametrize("make", [lambda: GF(7.0), lambda: GF(True), lambda: GF(np.int64(7)),
                                      lambda: GF("7"), lambda: FieldTag("prime_field", 7.0)],
                             ids=["GF-float", "GF-bool", "GF-numpy-int", "GF-string", "tag-float"])
    def test_non_int_modulus_refused(self, make):
        with pytest.raises(ParseError, match="is not an int"):
            make()

    def test_float_modulus_refused_after_the_int_is_cached(self):
        # GF's cache is typed, so 7.0 is not served the tag cached for 7
        assert GF(7).modulus == 7
        with pytest.raises(ParseError):
            GF(7.0)
        assert FieldTag("prime_field", 7) == GF(7)

    def test_one_tag_per_modulus(self):
        assert GF(7) is GF(7) and GF(7) is not GF(11)
        by_value = FieldTag("prime_field", 7)
        assert by_value is not GF(7)
        assert by_value == GF(7) and hash(by_value) == hash(GF(7))
        # a tag built by value still meets GF's through the value comparison
        m = DenseMap.from_rows(by_value, [[2, 3], [0, 1]])
        assert compose(m, DenseMap.from_rows(GF(7), [[1, 1], [0, 1]])).rows() == [[2, 5], [0, 1]]
        with pytest.raises(FieldMismatch):
            compose(m, DenseMap.from_rows(GF(11), [[1, 1], [0, 1]]))


class TestScalar:
    def test_lowest_terms(self):
        s = Scalar.of(QQ, "2/4")
        assert s.value == Fraction(1, 2)
        assert str(s) == "1/2"

    def test_canonical_residue(self):
        assert Scalar.of(F7, 15).value == 1
        assert Scalar.of(F7, -1).value == 6

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            Scalar.of(F7, Scalar.of(QQ, 1))

    def test_malformed_fraction(self):
        with pytest.raises(ParseError):
            Scalar.of(QQ, "3/0")

    def test_floats_rejected(self):
        for value in (1.5, 2.9, 2.0, np.float64(0.5)):
            with pytest.raises(ParseError):
                DenseMap.from_rows(QQ, [[value]])
            with pytest.raises(ParseError):
                DenseMap.from_flat(F7, 1, 1, [value])
            with pytest.raises(ParseError):
                Scalar.of(QQ, value)

    def test_integers_accepted(self):
        assert DenseMap.from_rows(QQ, [[3, np.int64(-2)]]).rows() == [[3, -2]]
        assert DenseMap.from_flat(F7, 1, 2, [9, np.int64(-1)]).rows() == [[2, 6]]


@pytest.mark.parametrize("field", [QQ, F7], ids=str)
@pytest.mark.parametrize("value", [None, [1], {}, (), True, False, np.bool_(True),
                                   1j, b"1", object()],
                         ids=lambda v: "object()" if type(v) is object else repr(v))
def test_non_scalars_rejected(field, value):
    for build in (lambda: DenseMap.from_flat(field, 1, 1, [value]),
                  lambda: Scalar.of(field, value),
                  lambda: DenseMap.zero(field, 1, 1).with_entry(0, 0, value)):
        with pytest.raises(ParseError, match="is not an exact scalar"):
            build()


@pytest.mark.parametrize("field", [QQ, F7], ids=str)
@pytest.mark.parametrize("value, expected", [
    (3, 3), (np.int64(3), 3), (np.uint8(3), 3), ("3", 3), (Fraction(6, 2), 3),
    ("-4", -4), (-4, -4)])
def test_scalar_types_still_accepted(field, value, expected):
    expected = Scalar.of(field, Fraction(expected))
    assert DenseMap.from_flat(field, 1, 1, [value]).entry(0, 0) == expected
    assert Scalar.of(field, value) == expected
    assert Scalar.of(field, Scalar.of(field, value)) == expected


class TestCompose:
    def test_identity(self):
        rng = random.Random(0)
        m = rand_map(rng, QQ, 3, 4)
        assert compose(DenseMap.identity(QQ, 3), m) == m
        assert compose(m, DenseMap.identity(QQ, 4)) == m

    def test_mod7_product(self):
        a = DenseMap.from_rows(F7, [[3]])
        b = DenseMap.from_rows(F7, [[5]])
        assert compose(a, b) == DenseMap.from_rows(F7, [[1]])

    def test_against_naive_oracle(self):
        rng = random.Random(1)
        for _ in range(20):
            a = rand_map(rng, QQ, 3, 2)
            b = rand_map(rng, QQ, 2, 4)
            assert compose(a, b).rows() == naive_matmul(a.rows(), b.rows())

    def test_associativity_random_rationals(self):
        rng = random.Random(2)
        for _ in range(25):
            a, b, c = (rand_map(rng, QQ, 2, 2) for _ in range(3))
            assert compose(compose(a, b), c) == compose(a, compose(b, c))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            compose(DenseMap.identity(QQ, 2), DenseMap.identity(QQ, 3))

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            compose(DenseMap.identity(QQ, 2), DenseMap.identity(F7, 2))

    def test_results_in_lowest_terms(self):
        a = as_rational_map([[Fraction(2, 3)]])
        b = as_rational_map([[Fraction(3, 4)]])
        assert str(compose(a, b).entry(0, 0)) == "1/2"


class TestComposeAll:
    @pytest.mark.parametrize("dims", [[3, 3, 3, 3], [2, 5, 1, 4, 3, 6, 1]],
                             ids=["square-f-g-h", "six-maps"])
    def test_folds_from_the_right(self, monkeypatch, dims):
        calls = []

        def recording(f, g):
            out = compose(f, g)
            calls.append((f, g, out))
            return out

        monkeypatch.setattr(exactlin, "compose", recording)
        rng = random.Random(5)
        maps = [rand_map(rng, F7, dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
        got = compose_all(maps)
        # f.(g.h): the last two maps are multiplied first, then each map to
        # their left takes the product so far as its right operand
        assert len(calls) == len(maps) - 1
        assert calls[0][0] is maps[-2] and calls[0][1] is maps[-1]
        for (f, g, _), (_, _, so_far), m in zip(calls[1:], calls, maps[-3::-1]):
            assert f is m and g is so_far
        assert got is calls[-1][2]

    def test_leaves_no_reference_cycles(self):
        # Garbage held in cycles keeps the input maps alive until the cyclic
        # collector runs; the chain must free everything by reference counting.
        rng = random.Random(4)
        maps = [rand_map(rng, F7, 3, 2), rand_map(rng, F7, 2, 4), rand_map(rng, F7, 4, 3)]
        gc.collect()
        gc.disable()
        try:
            for _ in range(10):
                compose_all(maps)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestKron:
    def test_identity_case(self):
        assert kron(DenseMap.identity(QQ, 2), DenseMap.identity(QQ, 3)) \
            == DenseMap.identity(QQ, 6)

    def test_one_dim_identity_is_noop(self):
        rng = random.Random(3)
        m = rand_map(rng, F7, 3, 2)
        one = DenseMap.identity(F7, 1)
        assert kron(one, m) == m
        assert kron(m, one) == m

    def test_against_naive_oracle(self):
        rng = random.Random(4)
        a = rand_map(rng, QQ, 2, 3)
        b = rand_map(rng, QQ, 3, 2)
        expected = naive_kron(a.rows(), b.rows(), (2, 3), (3, 2))
        assert kron(a, b).rows() == expected

    def test_middle_four_interchange(self):
        rng = random.Random(5)
        for _ in range(15):
            a, b, c, d = (rand_map(rng, QQ, 2, 2) for _ in range(4))
            assert compose(kron(a, b), kron(c, d)) == kron(compose(a, c),
                                                           compose(b, d))

    def test_associativity_under_flattening(self):
        rng = random.Random(6)
        for _ in range(10):
            a, b, c = (rand_map(rng, F7, 2, 2) for _ in range(3))
            assert kron(kron(a, b), c) == kron(a, kron(b, c))


def dense_map(rng, field, dst, src, big=False):
    """Random entries; with big, rationals whose numerators are past 2^62."""
    if not big:
        return rand_map(rng, field, dst, src)
    return DenseMap.from_flat(field, dst, src, [
        Fraction(rng.choice([-1, 1]) * rng.randint(2 ** 62, 2 ** 66), rng.randint(1, 3))
        for _ in range(dst * src)])


def kron_compose_factor(rng, field, kind, big=False):
    """One factor of each kind kron_compose treats apart."""
    s = rng.randint(1, 3)
    if kind == "identity":
        return DenseMap.identity(field, s)
    if kind == "permutation":
        return DenseMap.permutation(field, rng.sample(range(s), s))
    return dense_map(rng, field, 1 if kind == "row" else rng.randint(1, 3), s, big)


class TestKronCompose:
    """kron_compose(field, factors, g) against compose(kron_all(field, factors), g)."""

    KINDS = ("identity", "permutation", "row", "dense")  # a row is a 1 x a counit

    @pytest.mark.parametrize("field, big", [(F7, False), (GF(2 ** 61 - 1), False),
                                            (QQ, False), (QQ, True)],
                             ids=["F_7", "F_(2^61-1)", "Q", "Q-python-ints"])
    def test_against_dense_product(self, field, big):
        rng = random.Random(f"{field} {big}")
        for _ in range(60):
            factors = [kron_compose_factor(rng, field, rng.choice(self.KINDS), big)
                       for _ in range(rng.randint(1, 4))]
            g = dense_map(rng, field, math.prod(f.src_dim for f in factors),
                          rng.randint(1, 3), big)
            seen, patch = operand_dtypes()
            with patch:
                got = kron_compose(field, factors, g)
            want = compose(kron_all(field, factors), g)
            assert got == want and got.flat_strings() == want.flat_strings()
            if any(f._src_of_dst is None for f in factors):  # a contraction ran
                python_ints = big or field.modulus == 2 ** 61 - 1
                assert seen == {np.dtype(object if python_ints else np.int64)}

    def test_empty_factor_list_is_the_identity(self):
        rng = random.Random(9)
        for field in (F7, QQ):
            g = rand_map(rng, field, 1, 4)
            assert kron_compose(field, [], g) == compose(kron_all(field, []), g) == g

    def test_shape_and_field_are_checked(self):
        f = DenseMap.identity(F7, 2)
        with pytest.raises(DimensionMismatch):
            kron_compose(F7, [f, f], DenseMap.identity(F7, 3))
        with pytest.raises(FieldMismatch):
            kron_compose(F7, [DenseMap.identity(QQ, 2)], DenseMap.identity(F7, 2))

    def test_past_budget_raises_before_allocating(self):
        tall, wide = DenseMap.zero(F7, 2 ** 14, 1), DenseMap.zero(F7, 1, 2 ** 14)
        with pytest.raises(TooLarge):
            compose(kron_all(F7, [tall]), wide)
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                kron_compose(F7, [DenseMap.identity(F7, 1), tall], wide)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_transposed_permutation_stays_an_index_array(self):
        p = DenseMap.permutation(QQ, [2, 0, 3, 1])
        t = p.transpose()
        assert t._src_of_dst is not None
        assert t == DenseMap.from_rows(QQ, [list(col) for col in zip(*p.rows())])


@given(rational_matrix(2, 2), rational_matrix(2, 2), rational_matrix(2, 2))
def test_interchange_property(a, b, c):
    assert compose(kron(a, b), kron(c, c)) == kron(compose(a, c), compose(b, c))


class TestInvert:
    def test_identity(self):
        assert invert(DenseMap.identity(F7, 4)) == DenseMap.identity(F7, 4)

    def test_singular(self):
        assert invert(DenseMap.from_rows(QQ, [[0]])) is None
        assert invert(DenseMap.from_rows(F7, [[1, 1], [1, 1]])) is None

    def test_permutation_inverse_is_transpose(self):
        rng = random.Random(7)
        for _ in range(10):
            n = rng.randint(1, 5)
            images = list(range(n))
            rng.shuffle(images)
            rows = [[1 if images[j] == i else 0 for j in range(n)]
                    for i in range(n)]
            p = DenseMap.from_rows(QQ, rows)
            pt = p.transpose()
            assert compose(p, pt) == DenseMap.identity(QQ, n)
            assert invert(p) == pt

    def test_two_sided(self):
        rng = random.Random(8)
        for field in (QQ, F7):
            for _ in range(10):
                m = rand_map(rng, field, 3, 3)
                inv = invert(m)
                if inv is not None:
                    assert compose(m, inv) == DenseMap.identity(field, 3)
                    assert compose(inv, m) == DenseMap.identity(field, 3)

    def test_not_square(self):
        with pytest.raises(NotSquare):
            invert(DenseMap.zero(QQ, 2, 3))


class TestSolveLinear:
    def test_unique(self):
        res = solve_linear([([1], 3)], 1, QQ)
        assert res.status == UNIQUE
        assert res.solution[0].value == 3

    def test_underdetermined_witness(self):
        res = solve_linear([([1, 1], 1)], 2, QQ)
        assert res.status == UNDERDETERMINED
        x, y = (s.value for s in res.solution)
        assert x + y == 1

    def test_inconsistent(self):
        res = solve_linear([([1], 0), ([1], 1)], 1, QQ)
        assert res.status == NO_SOLUTION
        assert res.solution is None

    def test_row_length_mismatch(self):
        with pytest.raises(RowLengthMismatch):
            solve_linear([([1, 2], 0)], 3, QQ)

    def test_mod_p_system(self):
        # 3x = 1 over F_7 has the unique solution x = 5
        res = solve_linear([([3], 1)], 1, F7)
        assert res.status == UNIQUE
        assert res.solution[0].value == 5

    def test_random_consistency(self):
        rng = random.Random(9)
        for _ in range(20):
            m = rand_map(rng, F7, 3, 3)
            x = [rng.randrange(7) for _ in range(3)]
            rhs = naive_matmul(m.rows(), [[v] for v in x])
            system = [(m.rows()[i], rhs[i][0]) for i in range(3)]
            res = solve_linear(system, 3, F7)
            assert res.status in (UNIQUE, UNDERDETERMINED)
            got = [s.value for s in res.solution]
            again = naive_matmul(m.rows(), [[v] for v in got])
            assert [r[0] % 7 for r in again] == [r[0] % 7 for r in rhs]


class TestLargeModulus:
    # products past the int64 bound fall back to python integers
    def test_arithmetic_over_mersenne_prime(self):
        p = 2 ** 31 - 1
        field = GF(p)
        reduce = lambda rows: [[v % p for v in row] for row in rows]
        a = DenseMap.from_rows(field, [[2 ** 30, 5], [1, p - 1]])
        b = DenseMap.from_rows(field, [[3, 0], [7, 1]])
        assert compose(a, b).rows() == reduce(naive_matmul(a.rows(), b.rows()))
        assert kron(a, b).rows() == reduce(
            naive_kron(a.rows(), b.rows(), (2, 2), (2, 2)))
        inv = invert(a)
        assert inv is not None
        assert compose(a, inv) == DenseMap.identity(field, 2)

    @pytest.mark.parametrize("p, dtype", [(1048573, np.int64), (1048583, object)])
    def test_int64_boundary_against_python_oracle(self, p, dtype):
        # the primes on either side of 2^20, where the per-call guard
        # (p-1)^2 * inner < 2^63 turns at inner 2^23
        assert [q for q in range(1048573, 1048584) if _is_prime(q)] == [1048573, 1048583]
        one = DenseMap.from_rows(GF(p), [[p - 1]])
        assert exactlin._operands((one, one), 2 ** 23)[0].dtype == dtype
        assert exactlin._operands((one, one), 9)[0].dtype == np.int64
        field = GF(p)
        rng = random.Random(p)
        reduce = lambda rows: [[v % p for v in row] for row in rows]

        def rows(dst, src):
            return [[rng.choice([p - 1, p - 2, rng.randrange(p)]) for _ in range(src)]
                    for _ in range(dst)]

        worst = [[p - 1] * 9 for _ in range(9)]  # every product is (p-1)^2
        for a_rows, b_rows in ((rows(4, 6), rows(6, 3)), (worst, worst)):
            a, b = DenseMap.from_rows(field, a_rows), DenseMap.from_rows(field, b_rows)
            assert a._num.dtype == b._num.dtype == np.int64
            assert compose(a, b).rows() == reduce(naive_matmul(a_rows, b_rows))
            assert kron(a, b).rows() == reduce(naive_kron(
                a_rows, b_rows, (a.dst_dim, a.src_dim), (b.dst_dim, b.src_dim)))
        square = rows(5, 5)
        inv = invert(DenseMap.from_rows(field, square))
        assert inv is not None
        assert reduce(naive_matmul(square, inv.rows())) == \
            [[int(i == j) for j in range(5)] for i in range(5)]

    def test_residues_canonical(self):
        field = GF(2 ** 31 - 1)
        m = DenseMap.from_rows(field, [[-1]])
        assert m.entry(0, 0).value == 2 ** 31 - 2


class TestPowers:
    def test_repeated_squaring(self):
        rng = random.Random(10)
        m = rand_map(rng, F7, 3, 3)
        by_hand = DenseMap.identity(F7, 3)
        for k in range(6):
            assert m.power(k) == by_hand
            by_hand = compose(by_hand, m)

    def test_zero_power_is_identity(self):
        assert DenseMap.zero(QQ, 2, 2).power(0) == DenseMap.identity(QQ, 2)

    @pytest.mark.parametrize("field", (F7, GF(2 ** 61 - 1), QQ), ids=str)
    @pytest.mark.parametrize("kind", ("permutation", "diagonal", "dense"))
    def test_against_k_fold_product(self, monkeypatch, field, kind):
        rng = random.Random(f"{field}-{kind}")
        if kind == "permutation":
            m = DenseMap.permutation(field, rng.sample(range(4), 4))
        elif kind == "diagonal":
            m = DenseMap.from_rows(field, [[rng.randint(-3, 3) if i == j else 0 for j in range(4)]
                                           for i in range(4)])
        else:
            m = rand_map(rng, field, 4, 4)
        calls = []
        real = exactlin.compose
        monkeypatch.setattr(exactlin, "compose", lambda f, g: calls.append(1) or real(f, g))
        by_hand = DenseMap.identity(field, 4)
        for k in range(18):
            calls.clear()
            assert m.power(k) == by_hand
            assert len(calls) <= max(k.bit_length() - 1, 0) + max(bin(k).count("1") - 1, 0)
            by_hand = real(by_hand, m)

    def test_errors(self):
        with pytest.raises(NotSquare, match="powering a non-square map"):
            DenseMap.zero(F7, 2, 3).power(2)
        with pytest.raises(ValueError, match="negative power"):
            DenseMap.identity(F7, 2).power(-1)


class TestKronAll:
    @pytest.mark.parametrize("n", range(5))
    def test_n_factors_make_n_minus_1_krons(self, monkeypatch, n):
        rng = random.Random(n)
        maps = [rand_map(rng, F7, rng.randint(1, 3), rng.randint(1, 3)) for _ in range(n)]
        calls = []
        real = exactlin.kron
        monkeypatch.setattr(exactlin, "kron", lambda f, g: calls.append(1) or real(f, g))
        want = DenseMap.identity(F7, 1)
        for m in maps:
            want = real(want, m)
        assert kron_all(F7, maps) == want
        assert len(calls) == max(n - 1, 0)

    def test_one_and_no_factors(self):
        m = rand_map(random.Random(1), QQ, 2, 3)
        assert kron_all(QQ, [m]) == m
        assert kron_all(QQ, []) == DenseMap.identity(QQ, 1)
        assert kron_all(QQ, iter([m, m])) == kron(m, m)

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_field_mismatch_at_every_position(self, n):
        for pos in range(n):
            maps = [DenseMap.identity(F7, 2) for _ in range(n)]
            maps[pos] = DenseMap.identity(QQ, 2)
            with pytest.raises(FieldMismatch):
                kron_all(F7, maps)


# Fields on both sides of the point where the int64 guard
# (p-1)^2 * inner < 2^63 turns: F_7 never crosses it, F_(2^31-1) crosses it
# between inner 2 and 3, and (p-1)^2 >= 2^63 for 3037000507 (even at inner 1)
# and for 2^64 - 59, whose residues need not fit int64 at all.
GUARD_FIELDS = (QQ, F7, GF(2 ** 31 - 1), GF(3037000507), GF(2 ** 64 - 59))

# numerators near and past 2^62, where stored maps and products leave int64
big_fracs = st.builds(
    Fraction,
    st.sampled_from([2 ** 62 - 1, 2 ** 62, 2 ** 63 + 5, 3 ** 40, 2 ** 31 + 1]).flatmap(
        lambda n: st.sampled_from([n, -n])),
    st.sampled_from([1, 1, 2, 3, 7]))


def field_entries(field):
    if field == QQ:
        return st.one_of(small_fracs, big_fracs)
    p = field.modulus
    return st.one_of(st.integers(0, p - 1), st.sampled_from([p - 1, p - 2, -1]))


@st.composite
def kernel_case(draw):
    field = draw(st.sampled_from(GUARD_FIELDS))
    dst, inner, src = (draw(st.integers(1, 4)) for _ in range(3))
    entries = field_entries(field)

    def rows(r, c):
        return draw(st.lists(st.lists(entries, min_size=c, max_size=c),
                             min_size=r, max_size=r))

    a, b, c = rows(dst, inner), rows(inner, src), rows(dst, inner)
    i, j = draw(st.integers(0, dst - 1)), draw(st.integers(0, inner - 1))
    return field, a, b, c, (i, j, draw(entries))


@settings(deadline=None, max_examples=150)
@given(kernel_case())
def test_kernel_against_fraction_reference(case):
    field, a_rows, b_rows, c_rows, (i, j, v) = case
    canon = Fraction if field == QQ else (lambda x: x % field.modulus)

    def ref(rows):
        return [[canon(x) for x in row] for row in rows]

    ra, rb, rc = ref(a_rows), ref(b_rows), ref(c_rows)
    a, b, c = (DenseMap.from_rows(field, rows) for rows in (a_rows, b_rows, c_rows))
    assert a.rows() == ra
    ab, rab = compose(a, b), ref(naive_matmul(ra, rb))
    assert ab.rows() == rab
    assert (ab + ab).rows() == [[canon(2 * x) for x in row] for row in rab]
    assert kron(a, b).rows() == ref(naive_kron(
        ra, rb, (a.dst_dim, a.src_dim), (b.dst_dim, b.src_dim)))
    assert (a + c).rows() == [[canon(x + y) for x, y in zip(r, s)] for r, s in zip(ra, rc)]
    assert (a - c).rows() == [[canon(x - y) for x, y in zip(r, s)] for r, s in zip(ra, rc)]
    assert a.transpose().rows() == [list(col) for col in zip(*ra)]
    edited = [list(row) for row in ra]
    edited[i][j] = canon(v)
    assert a.with_entry(i, j, v).rows() == edited
    assert a.scale(v).rows() == [[canon(x * canon(v)) for x in row] for row in ra]

    rebuilt = (a + c) - c
    assert rebuilt == a and hash(rebuilt) == hash(a)
    assert (a == c) == (ra == rc)
    expected = next(((r, k, str(x), str(y))
                     for r, (row_a, row_c) in enumerate(zip(ra, rc))
                     for k, (x, y) in enumerate(zip(row_a, row_c)) if x != y), None)
    assert a.first_difference(c) == expected
    if field == QQ:
        for m in (a, compose(a, b), DenseMap.identity(QQ, 2), DenseMap.zero(QQ, 1, 2)):
            assert all(type(x) is Fraction for row in m.rows() for x in row)


def test_int64_results_past_2_62_are_widened():
    # (2^31 + 1)^2 lies in [2^62, 2^63): the product runs in int64, and the
    # result must be stored as Python ints so that a sum of two is exact
    a = DenseMap.from_rows(QQ, [[2 ** 31 + 1]])
    for m in (compose(a, a), kron(a, a)):
        assert (m + m).rows() == [[2 * (2 ** 31 + 1) ** 2]]


class TestEntryBudget:
    def test_past_budget_raises_before_allocating(self):
        wide = DenseMap.zero(F7, 1, 2 ** 14)
        tall = wide.transpose()
        builds = (lambda: kron(wide, wide),                       # dense kron
                  lambda: compose(tall, wide),                    # np.dot branch
                  lambda: DenseMap.identity(F7, 2 ** 14).rows())  # dense view
        tracemalloc.start()
        try:
            for build in builds:
                with pytest.raises(TooLarge):
                    build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestProductPeak:
    def test_f7_products_reduce_in_place(self):
        # an F_p product is reduced mod p in the array it was computed in,
        # so no operation holds a second output-sized array
        rng = np.random.default_rng(11)
        tall = DenseMap.from_flat(F7, 1024, 4, rng.integers(0, 7, 4096).tolist())
        wide = tall.transpose()
        square = compose(tall, wide)
        perm = DenseMap.permutation(F7, rng.permutation(1024))
        small = DenseMap.from_flat(F7, 32, 32, rng.integers(0, 7, 1024).tolist())
        builds = (lambda: compose(tall, wide),     # np.dot branch
                  lambda: compose(perm, square),   # row gather
                  lambda: compose(square, perm),   # column gather
                  lambda: kron(small, small))      # broadcast product
        tracemalloc.start()
        try:
            for build in builds:
                tracemalloc.reset_peak()
                out = build()
                peak = tracemalloc.get_traced_memory()[1]
                assert out.dst_dim * out.src_dim >= 1 << 20
                assert peak < 1.25 * out._num.nbytes
                del out
        finally:
            tracemalloc.stop()


# The elimination behind invert and solve_linear as it was written on Fraction
# lists, kept verbatim as the reference for the fraction-free one.

def _inv_value(field: FieldTag, value):
    if field.kind == RATIONALS:
        if value == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / value
    return pow(int(value), -1, field.modulus)


def reference_row_reduce(field: FieldTag, rows: list, ncols: int) -> list:
    norm = (lambda v: v) if field.kind == RATIONALS else (lambda v: v % field.modulus)
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pinv = _inv_value(field, rows[r][col])
        rows[r] = [norm(v * pinv) for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col] != 0:
                rows[i] = [norm(x - row[col] * y) for x, y in zip(row, rows[r])]
        pivots.append(col)
    return pivots


def reference_invert(f):
    n = f.dst_dim
    rows = [row + unit for row, unit in
            zip(f.rows(), DenseMap.identity(f.field, n).rows())]
    if len(reference_row_reduce(f.field, rows, n)) < n:
        return None
    return DenseMap.from_rows(f.field, [row[n:] for row in rows])


def reference_solve(system, unknowns, field):
    rows = []
    for coeffs, rhs in system:
        rows.append([exactlin._coerce(field, c) for c in coeffs]
                    + [exactlin._coerce(field, rhs)])
    pivots = reference_row_reduce(field, rows, unknowns)
    for i in range(len(pivots), len(rows)):
        if rows[i][unknowns] != 0:
            return exactlin.SolveResult(NO_SOLUTION)
    solution = [exactlin._coerce(field, 0)] * unknowns
    for row_idx, col in enumerate(pivots):
        solution[col] = rows[row_idx][unknowns]
    status = UNIQUE if len(pivots) == unknowns else UNDERDETERMINED
    return exactlin.SolveResult(status, tuple(Scalar.of(field, v) for v in solution))


# F_(2^31 - 1) is the largest modulus eliminated on int64 residues, and
# 2147483659 the first prime past 2^31, whose residues _reduce_mod keeps as
# Python ints.
ELIMINATION_FIELDS = (QQ, GF(2), F7, GF(2 ** 31 - 1), GF(2147483659), GF(2 ** 61 - 1))


def chain_row(draw, entries, nonzero, order, t, unknowns):
    """Coefficients with a nonzero one for the unknown order[t] and otherwise
    only for unknowns earlier in order: the row holds one open coefficient
    once those are fixed, so the presolve fixes a chain of them in rounds."""
    coeffs = [0] * unknowns
    for i in order[:t]:
        coeffs[i] = draw(st.just(0) | entries)
    coeffs[order[t]] = draw(nonzero)
    return coeffs


@st.composite
def linear_system(draw, square=False, sparse=False, singletons=False,
                  fields=ELIMINATION_FIELDS):
    """A system whose rows are random, or combinations of a few base rows
    (rank-deficient), with one right-hand side optionally knocked off.  A
    sparse system has up to 12 unknowns and 0/+-1 coefficients, as the
    antipode systems have, and the right-hand sides of a drawn solution.  A
    singleton-heavy system (up to 8 unknowns) has a chain_row for each
    unknown of a drawn order, with a few left out, and the right-hand sides
    of a drawn solution; unless square, it also has single-coefficient
    duplicates of some unknowns, each with an agreeing or a conflicting
    right-hand side, zero rows with a nonzero one, and a few random rows with
    the drawn solution's right-hand sides."""
    field = draw(st.sampled_from(fields))
    unknowns = draw(st.integers(0, 12 if sparse else 8 if singletons else 4))
    n_rows = unknowns if square else draw(st.integers(unknowns, 2 * unknowns + 1) if sparse
                                          else st.integers(0, 5))
    if sparse:
        entries = st.sampled_from([0, 0, 0, 1, -1])
    else:
        entries = field_entries(field) if field == QQ else st.one_of(
            field_entries(field), st.sampled_from([2 ** 62 + 1, -(3 ** 40)]))
    width = unknowns + 1

    def row():
        return draw(st.lists(entries, min_size=width, max_size=width))

    if singletons:
        nonzero = entries.filter(lambda v: exactlin._coerce(field, v) != 0)
        x = draw(st.lists(entries, min_size=unknowns, max_size=unknowns))

        def equation(coeffs, knock=False):
            return coeffs + [sum(c * v for c, v in zip(coeffs, x)) + knock]

        order = draw(st.permutations(range(unknowns)))
        rows = [equation(chain_row(draw, entries, nonzero, order, t, unknowns))
                for t in range(unknowns)]
        left_out = draw(st.sets(st.integers(0, unknowns - 1), max_size=2)) if unknowns else ()
        if square:  # a left-out unknown's row is random, or another's single coefficient
            for t in left_out:
                rows[t] = row() if draw(st.booleans()) else equation(
                    chain_row(draw, entries, nonzero, order, 0, unknowns))
        else:
            rows = [r for t, r in enumerate(rows) if t not in left_out]
            for j in draw(st.lists(st.integers(0, unknowns - 1), max_size=3)) if unknowns else ():
                rows.append(equation(chain_row(draw, entries, nonzero, [j], 0, unknowns),
                                     draw(st.sampled_from([False, False, True]))))
            zero_rows = draw(st.sampled_from([0, 0, 1]))
            rows += [[0] * unknowns + [draw(nonzero)] for _ in range(zero_rows)]
            rows += [equation(row()[:unknowns]) for _ in range(draw(st.integers(0, 2)))]
        rows = [rows[i] for i in draw(st.permutations(range(len(rows))))]
    elif sparse:  # consistent, with the right-hand sides of a drawn solution
        x = draw(st.lists(small_fracs if field == QQ else st.integers(-3, 3),
                          min_size=unknowns, max_size=unknowns))
        rows = [r[:unknowns] + [sum(c * v for c, v in zip(r, x))] for r in
                (row() for _ in range(n_rows))]
        if rows and draw(st.booleans()):
            rows[-1][-1] += 1
    elif draw(st.booleans()):
        rows = [row() for _ in range(n_rows)]
    else:
        base = [row() for _ in range(draw(st.integers(1, 3)))]
        rows = []
        for _ in range(n_rows):
            coeffs = draw(st.lists(st.sampled_from([-1, 0, 1, 2]),
                                   min_size=len(base), max_size=len(base)))
            rows.append([sum(c * b[k] for c, b in zip(coeffs, base)) for k in range(width)])
        if rows and draw(st.booleans()):
            rows[-1][-1] += 1
    return field, unknowns, [(r[:unknowns], r[unknowns]) for r in rows]


def _typed(result):
    return result.status, result.solution and [
        (type(s.value), s.value) for s in result.solution]


@settings(deadline=None, max_examples=300)
@given(linear_system())
def test_solve_linear_against_fraction_reference(case):
    field, unknowns, system = case
    assert _typed(solve_linear(system, unknowns, field)) == \
        _typed(reference_solve(system, unknowns, field))


@settings(deadline=None, max_examples=300)
@given(linear_system(square=True))
def test_invert_against_fraction_reference(case):
    field, n, system = case
    f = DenseMap.from_flat(field, n, n, [v for coeffs, _ in system for v in coeffs])
    assert invert(f) == reference_invert(f)


@settings(deadline=None, max_examples=150)
@given(linear_system(sparse=True))
def test_sparse_solve_against_fraction_reference(case):
    field, unknowns, system = case
    assert _typed(solve_linear(system, unknowns, field)) == \
        _typed(reference_solve(system, unknowns, field))


@settings(deadline=None, max_examples=150)
@given(linear_system(square=True, sparse=True))
def test_sparse_invert_against_fraction_reference(case):
    field, n, system = case
    f = DenseMap.from_flat(field, n, n, [v for coeffs, _ in system for v in coeffs])
    assert invert(f) == reference_invert(f)


@settings(deadline=None, max_examples=300)
@given(linear_system(singletons=True))
def test_singleton_solve_against_fraction_reference(case):
    field, unknowns, system = case
    assert _typed(solve_linear(system, unknowns, field)) == \
        _typed(reference_solve(system, unknowns, field))


@settings(deadline=None, max_examples=150)
@given(linear_system(square=True, singletons=True))
def test_singleton_invert_against_fraction_reference(case):
    field, n, system = case
    f = DenseMap.from_flat(field, n, n, [v for coeffs, _ in system for v in coeffs])
    assert invert(f) == reference_invert(f)


@st.composite
def permuted_augmented_system(draw, fields=(F7, GF(2 ** 61 - 1), QQ)):
    """[C | B] over F_7, F_(2^61-1) or Q with one to three right-hand columns,
    and the same map with its rows permuted.  C has random rows, chain_rows
    that the presolve fixes in rounds (row t for the unknown t mod the
    number of unknowns, in a drawn order), or combinations of a few base
    rows (rank-deficient); B is C X for a drawn X, with one entry optionally
    knocked off, or random."""
    field = draw(st.sampled_from(fields))
    unknowns, columns, n_rows = draw(st.integers(0, 4)), draw(st.integers(1, 3)), \
        draw(st.integers(0, 6))
    entries = field_entries(field)

    def matrix(dst, src):
        return DenseMap.from_flat(field, dst, src, draw(
            st.lists(entries, min_size=dst * src, max_size=dst * src)))

    kind = draw(st.sampled_from(["random", "chains", "combinations"]))
    if kind == "random" or (kind == "chains" and not unknowns):
        c = matrix(n_rows, unknowns)
    elif kind == "chains":
        nonzero = entries.filter(lambda v: exactlin._coerce(field, v) != 0)
        order = draw(st.permutations(range(unknowns)))
        c = DenseMap.from_rows(field, [chain_row(draw, entries, nonzero, order, t % unknowns,
                                                 unknowns) for t in range(n_rows)], unknowns)
    else:
        base = draw(st.integers(1, 3))
        mix = DenseMap.from_flat(field, n_rows, base, draw(st.lists(
            st.sampled_from([-1, 0, 1, 2]), min_size=n_rows * base, max_size=n_rows * base)))
        c = compose(mix, matrix(base, unknowns))
    b = compose(c, matrix(unknowns, columns)) if draw(st.booleans()) else matrix(n_rows, columns)
    if n_rows and draw(st.booleans()):
        i, j = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, columns - 1))
        b = b.with_entry(i, j, b.entry(i, j).value + 1)
    rows = [cr + br for cr, br in zip(c.rows(), b.rows())]
    order = draw(st.permutations(range(n_rows)))
    width = unknowns + columns
    return tuple(DenseMap.from_flat(field, n_rows, width, [v for row in rs for v in row])
                 for rs in (rows, [rows[i] for i in order])) + (unknowns,)


@settings(deadline=None, max_examples=300)
@given(permuted_augmented_system())
def test_solve_ignores_row_order(case):
    # _solve reads the reduced row echelon form, which the row order leaves
    # alone: the same status, and the same solution in lowest terms
    augmented, permuted, unknowns = case

    def solved(m):
        status, num, d = exactlin._solve(m, unknowns)
        return status, num if num is None else exactlin._canonical(
            m.field, unknowns, m.src_dim - unknowns, num, d)

    assert solved(permuted) == solved(augmented)


# The fraction-free elimination over Q as it was written in exactlin, kept
# verbatim as the reference for the multimodular one.

def _row_reduce(num: np.ndarray, ncols: int):
    """Fraction-free Gauss-Jordan elimination over Q (Bareiss, Math. Comp.
    22, 1968) of the integer object array num, in place, on its first ncols
    columns, with the pivot rule of _reduce_mod.  Each other row becomes
    (pivot * row - row[col] * pivot_row) / d, an exact quotient by the
    previous pivot d.  Returns the pivot columns and the last pivot d; every
    pivot entry ends equal to d, so num / d is the reduced row echelon form."""
    pivots, d = [], 1
    for col in range(ncols):
        r = len(pivots)
        nonzero = np.flatnonzero(num[r:, col])
        if not nonzero.size:
            continue
        num[[r, r + nonzero[0]]] = num[[r + nonzero[0], r]]
        others = np.arange(len(num)) != r
        num[others] = (num[r, col] * num[others] - num[others, col:col + 1] * num[r]) // d
        d = num[r, col]
        pivots.append(col)
    return pivots, d


def bareiss_solve(augmented: DenseMap, unknowns: int):
    """_solve's (status, numerators, denominator) over Q, by _row_reduce."""
    num = augmented._num.astype(object)  # the rows scaled by the common denominator
    pivots, d = _row_reduce(num, unknowns)
    if num[len(pivots):, unknowns:].any():
        return NO_SOLUTION, None, None
    solution = np.zeros((unknowns, augmented.src_dim - unknowns), dtype=object)
    solution[pivots] = num[:len(pivots), unknowns:]
    return (UNIQUE if len(pivots) == unknowns else UNDERDETERMINED), solution, d


def fraction_solve(augmented: DenseMap, unknowns: int):
    """The status and zero-filled solution map over Q, by reference_row_reduce."""
    rows, columns = augmented.rows(), augmented.src_dim - unknowns
    pivots = reference_row_reduce(QQ, rows, unknowns)
    if any(v for row in rows[len(pivots):] for v in row[unknowns:]):
        return NO_SOLUTION, None
    solution = [[0] * columns for _ in range(unknowns)]
    for i, col in enumerate(pivots):
        solution[col] = rows[i][unknowns:]
    return ((UNIQUE if len(pivots) == unknowns else UNDERDETERMINED),
            DenseMap.from_rows(QQ, solution, columns))


def solved_map(result, unknowns: int, columns: int):
    status, num, d = result
    return status, num if num is None else exactlin._canonical(QQ, unknowns, columns, num, d)


P = exactlin._MODULAR_PRIME

# entries for which P is unlucky or too small a modulus: multiples of P, and
# numerators or denominators past sqrt(P/2), past P and past 2^62
multi_prime_entries = st.one_of(
    st.integers(-3, 3),
    st.integers(-2, 2).map(lambda k: k * P),
    st.builds(Fraction,
              st.sampled_from([1, 40000, P + 1, 2 ** 62 + 1, 10 ** 25]).flatmap(
                  lambda n: st.sampled_from([n, -n])),
              st.sampled_from([1, 3, 40000, 2 ** 31 + 1, 2 ** 63 + 5])))


@st.composite
def multi_prime_system(draw):
    """[C | B] over Q that needs more primes than P: entries from
    multi_prime_entries, and optionally a column of C that is P times
    another.  B is C X for a drawn X of the same entries, or random, with
    one entry optionally knocked off."""
    unknowns, columns = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    n_rows = draw(st.integers(1, 5))

    def matrix(dst, src):
        return draw(st.lists(st.lists(multi_prime_entries, min_size=src, max_size=src),
                             min_size=dst, max_size=dst))

    c = matrix(n_rows, unknowns)
    if unknowns > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(unknowns)))[:2]
        for row in c:
            row[j] = P * row[i]
    if draw(st.booleans()):
        x = matrix(unknowns, columns)
        b = [[sum(ci * xr[k] for ci, xr in zip(row, x)) for k in range(columns)] for row in c]
    else:
        b = matrix(n_rows, columns)
    if draw(st.booleans()):
        b[-1][-1] += 1
    return DenseMap.from_rows(QQ, [cr + br for cr, br in zip(c, b)]), unknowns


def _as_augmented(case):
    _, unknowns, system = case
    return DenseMap.from_flat(QQ, len(system), unknowns + 1,
                              [v for coeffs, rhs in system for v in (*coeffs, rhs)]), unknowns


@settings(deadline=None, max_examples=300)
@given(st.one_of(linear_system(fields=(QQ,)).map(_as_augmented),
                 permuted_augmented_system(fields=(QQ,)).map(lambda case: (case[0], case[2])),
                 multi_prime_system()))
def test_solve_over_q_against_bareiss_and_fraction_references(case):
    augmented, unknowns = case
    columns = augmented.src_dim - unknowns
    got = solved_map(exactlin._solve(augmented, unknowns), unknowns, columns)
    assert got == solved_map(bareiss_solve(augmented, unknowns), unknowns, columns)
    assert got == fraction_solve(augmented, unknowns)


@pytest.fixture
def elimination_calls(monkeypatch):
    """The primes _reduce_mod ran modulo, in order, and whether each
    rational reconstruction found an answer."""
    calls = {"primes": [], "reconstructed": []}
    reduce_mod, reconstruct = exactlin._reduce_mod, exactlin._reconstruct

    def reducing(a, p):
        calls["primes"].append(p)
        return reduce_mod(a, p)

    def reconstructing(residues, p):
        out = reconstruct(residues, p)
        calls["reconstructed"].append(out is not None)
        return out
    monkeypatch.setattr(exactlin, "_reduce_mod", reducing)
    monkeypatch.setattr(exactlin, "_reconstruct", reconstructing)
    return calls


# the primes below P, found by trial division
PRIMES = [P] + [q for q in range(P - 2, P - 100, -2) if trial_division_is_prime(q)]


def eliminated(augmented: DenseMap, unknowns: int):
    """_solve's answer by the elimination route alone, with no presolve."""
    return exactlin._eliminate(augmented._num, unknowns, augmented.field.modulus)


def inverse_system(f: DenseMap) -> DenseMap:
    """[num(f) | I], the augmented map invert hands to _solve."""
    n = f.dst_dim
    return DenseMap(f.field, n, 2 * n, np.hstack((f._num, np.identity(n, dtype=np.int64))))


class TestModularElimination:
    """Inputs on which P is unlucky or too small: the elimination route goes
    on to the primes below it, and the results equal the references.
    Reconstruction runs at 1, 2, 4, ... primes since the last better pivot
    list.  Most of these systems have a row with one nonzero coefficient,
    which the presolve of _solve solves with no elimination, so the route
    is run directly.  The test names are those of the Bareiss fallback these
    inputs once reached."""

    @pytest.mark.parametrize("system, unknowns, primes, reconstructed", [
        # det P: rank 1 mod P, then the full rank mod the next prime starts afresh
        ([([P, 0], 2 * P), ([0, 1], 3)], 2, 2, [True, True]),
        # det P, off the diagonal: x = -1/P needs four primes past P
        ([([1, 1], 1), ([P + 1, 1], 0)], 2, 5, [True, True, False, True]),
        ([([1], 40000)], 1, 2, [False, True]),           # numerator past sqrt(P/2)
        ([([40000], 1)], 1, 2, [False, True]),           # denominator past it
        ([([1], P + 1)], 1, 4, [True, False, True]),     # reconstructs as 1 mod P
        ([([1], 0), ([P], 1)], 1, 1, [True]),            # 0 = 1 mod P: a pivot in B
        ([([1], 1), ([1], P + 1)], 1, 2, [True, True]),  # consistent mod P only
    ], ids=["diagonal", "dense", "numerator", "denominator", "congruent", "inconsistent",
            "inconsistent-over-q"])
    def test_unlucky_prime_falls_back_to_bareiss(self, elimination_calls, system, unknowns,
                                                 primes, reconstructed):
        augmented = _as_augmented((QQ, unknowns, system))[0]
        got = eliminated(augmented, unknowns)
        assert elimination_calls["primes"] == PRIMES[:primes]
        assert elimination_calls["reconstructed"] == reconstructed
        assert solved_map(got, unknowns, 1) == \
            solved_map(bareiss_solve(augmented, unknowns), unknowns, 1) == \
            solved_map(exactlin._solve(augmented, unknowns), unknowns, 1)
        assert _typed(solve_linear(system, unknowns, QQ)) == \
            _typed(reference_solve(system, unknowns, QQ))

    @pytest.mark.parametrize("rows, primes, reconstructed", [
        ([[P, 0], [0, 1]], 5, [True, True, False, True]),
        ([[40000]], 2, [False, True]),
        ([[P + 1]], 4, [True, False, True]),
    ], ids=["diagonal", "denominator", "congruent"])
    def test_unlucky_inverse_falls_back_to_bareiss(self, elimination_calls, rows, primes,
                                                   reconstructed):
        f = DenseMap.from_rows(QQ, rows)
        n = f.dst_dim
        got = eliminated(inverse_system(f), n)
        assert elimination_calls["primes"] == PRIMES[:primes]
        assert elimination_calls["reconstructed"] == reconstructed
        assert solved_map(got, n, n) == solved_map(bareiss_solve(inverse_system(f), n), n, n)
        assert invert(f) == reference_invert(f)

    def test_certified_solution_skips_bareiss(self, elimination_calls):
        # one prime and one reconstruction: a unique solution with small entries
        system = [([2, 1], 1), ([1, -1], Fraction(1, 3)), ([3, 0], Fraction(4, 3))]
        augmented = _as_augmented((QQ, 2, system))[0]
        got = eliminated(augmented, 2)
        assert elimination_calls == {"primes": [P], "reconstructed": [True]}
        assert solved_map(got, 2, 1) == solved_map(bareiss_solve(augmented, 2), 2, 1)
        maps = [DenseMap.from_rows(QQ, rows)  # the inverse of num(f) is scaled by den(f)
                for rows in ([[2, 1], [Fraction(1, 2), -1]], [[Fraction(1, P + 1)]])]
        for f in maps:
            n = f.dst_dim
            got = eliminated(inverse_system(f), n)
            assert solved_map(got, n, n) == solved_map(bareiss_solve(inverse_system(f), n), n, n)
        assert elimination_calls["primes"] == [P] * 3
        assert _typed(solve_linear(system, 2, QQ)) == _typed(reference_solve(system, 2, QQ))
        for f in maps:
            assert invert(f) == reference_invert(f)

    @pytest.mark.parametrize("field", [GF(2), GF(2 ** 31 - 1), GF(2147483659), GF(2 ** 61 - 1),
                                       GF(2 ** 64 + 13)], ids=str)
    def test_prime_fields_skip_bareiss(self, elimination_calls, field):
        # over F_p one _reduce_mod per solve, modulo p itself, and no
        # reconstruction; no row has a single nonzero coefficient mod any p
        system = [([1, 1], 3), ([1, -1], 1), ([1, 3], 5)]
        got = solve_linear(system, 2, field)
        f = DenseMap.from_rows(field, [[3, 1], [1, 1]])  # singular mod 2
        inv = invert(f)
        assert elimination_calls == {"primes": [field.modulus] * 2, "reconstructed": []}
        assert _typed(got) == _typed(reference_solve(system, 2, field))
        assert inv == reference_invert(f)


class TestPresolve:
    """Systems with one nonzero coefficient per row, once the unknowns fixed
    in earlier rounds are substituted, are solved by the presolve of _solve
    with no elimination: no _reduce_mod, which _rref_over_q starts with."""

    @pytest.mark.parametrize("field", [QQ, F7], ids=str)
    @pytest.mark.parametrize("n", range(3, 7))
    @pytest.mark.parametrize("family", [cyclic_group_bundle, dual_cyclic_bundle])
    @pytest.mark.parametrize("method", [DIRECT, VIA_UNTWIST])
    def test_cyclic_antipodes(self, elimination_calls, field, n, family, method):
        # every twisting power: the antipode is the inversion i -> -i
        for e in (e for e in range(2, n) if math.gcd(e, n) == 1):
            res = antipode_solve(yau_twist(PlainStructure(family(field, n, e))), method)
            assert res.status == FOUND and res.chi == inversion_antipode(field, n)
        assert elimination_calls["primes"] == []

    @pytest.mark.parametrize("field, lam", [(QQ, Fraction(2, 5)), (QQ, 3), (F7, 3)], ids=str)
    @pytest.mark.parametrize("method", [DIRECT, VIA_UNTWIST])
    def test_sweedler_antipodes(self, elimination_calls, field, lam, method):
        # two rounds: S(g) = g, S(x) = -gx and S(gx) = x
        res = antipode_solve(yau_twist(PlainStructure(sweedler_bundle(field, lam))), method)
        assert res.status == FOUND and res.chi == DenseMap.from_rows(
            field, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
        assert elimination_calls["primes"] == []

    def test_monomial_inverse(self, elimination_calls):
        # 60-digit rationals on a diagonal, then in permuted places
        rng = random.Random(5)
        values = [Fraction(rng.randrange(10 ** 59, 10 ** 60) * rng.choice([1, -1]),
                           rng.randrange(10 ** 59, 10 ** 60)) for _ in range(16)]
        for images in (range(16), rng.sample(range(16), 16)):
            f = DenseMap.from_rows(QQ, [[values[i] if images[i] == j else 0 for j in range(16)]
                                        for i in range(16)])
            assert invert(f) == reference_invert(f)
        assert elimination_calls["primes"] == []

    def test_non_unique_antipode_is_eliminated(self, elimination_calls, monkeypatch):
        # twisted Q[C_12] with e = 2: no row has a single coefficient, and the
        # witness is that of the elimination route on the whole system
        systems = []
        monkeypatch.setattr(twist, "_solve", lambda m, u: systems.append(m) or exactlin._solve(m, u))
        res = antipode_solve(yau_twist(PlainStructure(cyclic_group_bundle(QQ, 12, 2))), DIRECT)
        assert res.status == NON_UNIQUE and elimination_calls["primes"][0] == P
        status, num, d = eliminated(systems[0], 144)
        assert status == UNDERDETERMINED
        assert res.chi == exactlin._canonical(QQ, 12, 12, num.reshape(12, 12), d)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(ELIMINATION_FIELDS), st.integers(0, 7).map(range).flatmap(st.permutations),
       st.booleans())
def test_invert_index_map_against_fraction_reference(field, images, read):
    n = len(images)
    if read:  # a 0/1 permutation matrix, read back as an index map
        f = DenseMap.from_flat(field, n, n,
                               [int(images[i] == j) for i in range(n) for j in range(n)])
    else:
        f = DenseMap.permutation(field, images)
    assert f._src_of_dst is not None
    original = exactlin._reduce_mod
    try:
        exactlin._reduce_mod = None  # no elimination may run
        got = invert(f)
    finally:
        exactlin._reduce_mod = original
    assert got._src_of_dst is not None
    assert got == reference_invert(f)


def test_elimination_edge_cases():
    for field in ELIMINATION_FIELDS:
        assert invert(DenseMap.zero(field, 0, 0)) == DenseMap.zero(field, 0, 0)
        assert solve_linear([], 0, field) == exactlin.SolveResult(UNIQUE, ())
        assert solve_linear([([], 1)], 0, field).status == NO_SOLUTION
        res = solve_linear([], 2, field)
        assert res.status == UNDERDETERMINED
        assert [s.value for s in res.solution] == [0, 0]
    # the witness sets the free unknown to zero: x + y = 1/2, 2x + 2y = 1
    res = solve_linear([([1, 1], Fraction(1, 2)), ([2, 2], 1)], 2, QQ)
    assert res.status == UNDERDETERMINED
    assert [s.value for s in res.solution] == [Fraction(1, 2), 0]


# The ingest of from_flat as it was written, one Fraction per entry over Q,
# kept as the reference for the integer path.

def reference_coerce(field: FieldTag, value):
    if isinstance(value, Scalar):
        if value.field != field:
            raise FieldMismatch(f"scalar over {value.field}, expected {field}")
        return value.value
    if isinstance(value, bool) or not isinstance(value, (int, str, Fraction)):
        kind = "float" if isinstance(value, float) else type(value).__name__
        raise ParseError(f"{kind} {value!r} is not an exact scalar")
    if isinstance(value, str):
        text = value.strip()
        if field.kind == RATIONALS:
            try:
                return Fraction(text)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad rational {text!r}: {exc}") from exc
        try:
            return int(text, 10) % field.modulus
        except ValueError as exc:
            raise ParseError(f"bad residue {text!r}: {exc}") from exc
    if field.kind == RATIONALS:
        return Fraction(value)
    if isinstance(value, Fraction):
        if value.denominator != 1:
            raise FieldMismatch(f"non-integral value {value} in {field}")
        value = value.numerator
    return int(value) % field.modulus


def reference_from_flat(field: FieldTag, dst: int, src: int, entries) -> DenseMap:
    values, den = [reference_coerce(field, v) for v in entries], 1
    if field.kind == RATIONALS:
        den = math.lcm(*(v.denominator for v in values))
        values = [v.numerator * (den // v.denominator) for v in values]
    num = np.array(values, dtype=object).reshape(dst, src)
    return exactlin._canonical(field, dst, src, num, den)


def _integer_text(n: int, style: tuple) -> str:
    sign, pad, grouped = style
    digits = f"{abs(n):_}" if grouped else str(abs(n))
    return pad + ("-" if n < 0 else sign) + digits + pad


huge_ints = st.sampled_from([2 ** 62 - 1, 2 ** 62, 2 ** 63 + 5, 3 ** 40, 10 ** 30]).flatmap(
    lambda n: st.sampled_from([n, -n]))
any_ints = st.integers(-10 ** 4, 10 ** 4) | huge_ints
integer_strings = st.builds(
    _integer_text, any_ints,
    st.tuples(st.sampled_from(["", "+"]), st.sampled_from(["", " ", "\t", "\n "]),
              st.booleans()))
ratio_strings = st.builds(lambda a, b: f"{a}/{b}", any_ints, st.integers(-3, 12))
odd_strings = st.text(alphabet="0123456789+-_/. eE١x", max_size=6)


def ingest_entries(field: FieldTag):
    fractions = st.builds(Fraction, any_ints, st.integers(1, 7))
    scalars = any_ints | fractions if field == QQ else any_ints
    return st.one_of(any_ints, integer_strings, ratio_strings, odd_strings, fractions,
                     st.sampled_from(["1.5", "-2e3", " 7/14 ", "0", "-0"]),
                     st.builds(lambda v: Scalar.of(field, v), scalars))


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_from_flat_against_fraction_ingest(data):
    field = data.draw(st.sampled_from([QQ, F7]))
    dst, src = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    entries = data.draw(st.lists(ingest_entries(field), min_size=dst * src,
                                 max_size=dst * src))
    try:
        expected = reference_from_flat(field, dst, src, entries)
    except (ParseError, FieldMismatch) as exc:
        with pytest.raises(type(exc)) as got:
            DenseMap.from_flat(field, dst, src, entries)
        assert str(got.value) == str(exc)
        return
    got = DenseMap.from_flat(field, dst, src, entries)
    assert got == expected and got._num.dtype == expected._num.dtype
    assert all(type(v) is int for v in got._num.reshape(-1).tolist())
    assert got.rows() == expected.rows()


# Values equal across types, so that a shortcut keyed on distinct values could
# confuse them, and the bounds of the int64 read and of the 2^62 storage rule.
REPEATED_POOL = [0, "0", 1, "1", " 1", "+1", "01", "1_0", True, 1.0, None, -1, "-6",
                 2 ** 62 - 1, 2 ** 62, -(2 ** 63), "-9223372036854775808", 2 ** 63]


def kept_as_index_map(m: DenseMap) -> bool:
    """The rule from_flat keeps a map as an index array by: square, integral,
    0/1 entries, and one 1 in every row and every column."""
    a = m._num
    return (m.is_square() and m._den == 1 and bool(((a == 0) | (a == 1)).all())
            and bool((a.sum(0) == 1).all()) and bool((a.sum(1) == 1).all()))


@settings(deadline=None, max_examples=400)
@given(data=st.data())
def test_from_flat_with_repeated_entries(data):
    field = data.draw(st.sampled_from([GF(2), F7, GF(2 ** 64 + 13), QQ]))
    dst = data.draw(st.integers(0, 3))
    src = data.draw(st.sampled_from([dst, dst, data.draw(st.integers(0, 3))]))
    pool = data.draw(st.lists(st.sampled_from(REPEATED_POOL), min_size=1, max_size=4))
    if data.draw(st.booleans()):
        entries = data.draw(st.lists(st.sampled_from(pool), min_size=dst * src,
                                     max_size=dst * src))
    else:  # one pool value per row and zeros elsewhere: permutations and near misses
        at = data.draw(st.lists(st.integers(0, max(src - 1, 0)), min_size=dst, max_size=dst))
        entries = [data.draw(st.sampled_from(pool if j == at[i] else [0, "0", "+0"]))
                   for i in range(dst) for j in range(src)]
    try:
        expected = reference_from_flat(field, dst, src, entries)
    except (ParseError, FieldMismatch) as exc:
        with pytest.raises(type(exc)) as got:
            DenseMap.from_flat(field, dst, src, entries)
        assert str(got.value) == str(exc)
        return
    got = DenseMap.from_flat(field, dst, src, entries)
    assert got == expected and got._den == expected._den
    assert got._num.dtype == expected._num.dtype
    assert not got._num.flags.writeable and not expected._num.flags.writeable
    assert (got._src_of_dst is not None) == kept_as_index_map(expected)


def test_integer_strings_parse_as_ints():
    assert exactlin._parse(QQ, " -1_000 ") == -1000
    assert type(exactlin._parse(QQ, "+7")) is int
    assert exactlin._parse(QQ, "2/4") == Fraction(1, 2)
    assert type(Scalar.of(QQ, "3").value) is Fraction
    assert type(Scalar.of(QQ, 3).value) is Fraction
    for text in ("3/0", "1.2.3", "", "١/0"):
        with pytest.raises(ParseError) as exc:
            exactlin._parse(QQ, text)
        with pytest.raises(ParseError) as ref:
            reference_coerce(QQ, text)
        assert str(exc.value) == str(ref.value)


def test_integral_instance_loads_without_fractions(tmp_path, monkeypatch):
    t = yau_twist(PlainStructure(cyclic_group_bundle(QQ, 4, 3)))
    path = str(tmp_path / "c4.json")
    save_instance(path, InstanceData(QQ, {"A": t.obj}, {"t": t}, {"t": "A"}, {}))
    calls = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            calls.append(args)
            return Fraction(*args, **kwargs)

    monkeypatch.setattr(exactlin, "Fraction", CountingFraction)
    assert load_instance(path).structures["t"] == t
    assert calls == []
    # the counter sees the Fractions a non-integral entry still builds
    with open(path) as fh:
        doc = json.load(fh)
    doc["objects"]["A"]["alpha"][0] = "1/2"
    with open(path, "w") as fh:
        json.dump(doc, fh)
    load_instance(path)
    assert calls
