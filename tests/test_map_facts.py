"""Facts a map already carries, used without deriving them again, against the
code that derived them.

- first_difference finds the first mismatch in one pass; the np.argwhere
  version it replaced is kept here as the reference.  Two index maps with
  equal index arrays are equal at once, with no dense array built.
- A permutation gather of a canonical map (compose with an index map on
  either side, a permutation leg of kron_compose) is kept as it stands; it
  must hold what exactlin._canonical makes of the same product on dense
  twins: the same values, denominator, dtype and read-only flag.
- is_identity is known per map; it must agree with a fresh scan.
- Two index maps compare on their index arrays; == and hash must agree with
  their dense twins.
- flip_perm and random_diagonal_endo build their maps directly; the
  Permutation.matrix and nested-rows builders they replaced are the
  references.
- An index map keeps its inverse, which points back; gathers by it must
  equal the dense product.  An identity is free: composing with one gives
  the other map itself, and the Kronecker product of two is a flagged
  identity.  A map over Q keeps its bound, which must equal a fresh scan of
  its numerators after gathers and transposes, so that _operands picks the
  same dtype.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihomcheck import exactlin
from bihomcheck.coherence import random_diagonal_endo
from bihomcheck.combinat import Permutation, flip_perm
from bihomcheck.exactlin import (
    GF,
    QQ,
    DenseMap,
    _canonical,
    _operands,
    compose,
    invert,
    kron,
    kron_all,
    kron_compose,
)

from conftest import reference_flip_images, small_fracs

F7 = GF(7)
MERSENNE_61 = GF(2 ** 61 - 1)
OBJECT_RESIDUES = GF(2 ** 64 - 59)  # a prime above 2^62: residues past it are Python ints

big_fracs = st.builds(Fraction, st.integers(-2 ** 66, 2 ** 66), st.integers(1, 7))


def field_values(field):
    if field == QQ:
        return small_fracs | big_fracs
    return st.integers(0, field.modulus - 1)


def twin(m):
    """The dense twin of m: the same numerators, kept as an array."""
    return _canonical(m.field, m._num.copy(), m._den)


# -- first_difference --------------------------------------------------------

def reference_first_difference(f, g):
    """first_difference as it was written, through np.argwhere."""
    a, b, _ = exactlin._common_denominator(f, g)
    hits = np.argwhere(a != b)
    if not len(hits):
        return None
    i, j = int(hits[0, 0]), int(hits[0, 1])
    return (i, j, str(f._value(i, j)), str(g._value(i, j)))


@st.composite
def map_pair(draw):
    """Two maps of one shape over F_7, F_(2^61-1) or Q, as equal maps, maps that
    differ only in their last entry, in a few entries or everywhere; 0 x n
    shapes included, and either map possibly a transposed (non-contiguous)
    view."""
    field = draw(st.sampled_from([F7, MERSENNE_61, QQ]))
    dst, src = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    values = field_values(field)
    lhs = draw(st.lists(values, min_size=dst * src, max_size=dst * src))
    rhs = list(lhs)
    how = draw(st.sampled_from(["equal", "last", "some", "fresh"]))
    if rhs and how == "last":
        rhs[-1] = draw(values.filter(lambda v: v != lhs[-1]))
    elif how == "some":
        for k in draw(st.lists(st.integers(0, max(len(rhs) - 1, 0)), max_size=3)):
            if rhs:
                rhs[k] = draw(values)
    elif how == "fresh":
        rhs = draw(st.lists(values, min_size=dst * src, max_size=dst * src))

    def build(entries):
        if not draw(st.booleans()):
            return DenseMap.from_flat(field, dst, src, entries)
        columns = [entries[i * src + j] for j in range(src) for i in range(dst)]
        return DenseMap.from_flat(field, src, dst, columns).transpose()

    return build(lhs), build(rhs)


@settings(deadline=None, max_examples=300)
@given(map_pair())
def test_first_difference_against_argwhere(pair):
    f, g = pair
    assert f.first_difference(g) == reference_first_difference(f, g)
    assert g.first_difference(f) == reference_first_difference(g, f)


def test_first_difference_edge_shapes():
    for field in (F7, MERSENNE_61, QQ):
        for dst, src in ((0, 0), (0, 3), (3, 0)):
            z = DenseMap.zero(field, dst, src)
            assert z.first_difference(z) is None
        wide = DenseMap.from_flat(field, 2, 3, [0, 0, 0, 0, 0, 1])
        assert wide.first_difference(DenseMap.zero(field, 2, 3)) == (1, 2, "1", "0")
        tall = wide.transpose()
        assert tall.first_difference(DenseMap.zero(field, 3, 2)) == (2, 1, "1", "0")
    half = DenseMap.from_flat(QQ, 1, 2, [Fraction(1, 2), 1])
    third = DenseMap.from_flat(QQ, 1, 2, [Fraction(1, 2), Fraction(1, 3)])
    assert half.first_difference(third) == (0, 1, "1", "1/3")


@pytest.mark.parametrize("field", [F7, QQ], ids=str)
def test_first_difference_of_equal_index_maps_builds_nothing(field):
    rng = random.Random(4)
    for n in range(6):
        perm = list(range(n))
        rng.shuffle(perm)
        f, g = DenseMap.permutation(field, perm), DenseMap.permutation(field, np.array(perm))
        assert f.first_difference(g) is None
        assert f._dense is None and g._dense is None
        if n > 1:  # unequal index arrays still go through the dense pass
            h = DenseMap.permutation(field, perm[1:] + perm[:1])
            assert f.first_difference(h) == reference_first_difference(f, h)


# -- permutation gathers stay canonical ------------------------------------

GATHER_CASES = [(F7, False), (OBJECT_RESIDUES, False), (QQ, False), (QQ, True)]
GATHER_IDS = ["F_7", "F_(2^64-59)", "Q", "Q-past-2^62"]


def random_map(rng, field, dst, src, big):
    """Random entries, kept dense even where they form a permutation matrix."""
    if field == QQ:
        top = 2 ** 66 if big else 5
        entries = [Fraction(rng.randint(-top, top), rng.randint(1, 3))
                   for _ in range(dst * src)]
    else:
        entries = [rng.randrange(field.modulus) for _ in range(dst * src)]
    return twin(DenseMap.from_flat(field, dst, src, entries))


def random_permutation(rng, field, n):
    return DenseMap.permutation(field, rng.sample(range(n), n))


def assert_same_canonical_map(got, want):
    assert got._src_of_dst is None and want._src_of_dst is None
    assert got == want and got.flat_strings() == want.flat_strings()
    assert got._den == want._den
    assert got._num.dtype == want._num.dtype
    assert not got._num.flags.writeable


@pytest.mark.parametrize("field, big", GATHER_CASES, ids=GATHER_IDS)
def test_compose_gathers_stay_canonical(field, big):
    rng = random.Random(f"compose {field} {big}")
    for _ in range(40):
        n, other = rng.randint(1, 5), rng.randint(1, 4)
        p = random_permutation(rng, field, n)
        right, left = random_map(rng, field, n, other, big), random_map(rng, field, other, n, big)
        assert_same_canonical_map(compose(p, right), compose(twin(p), right))
        assert_same_canonical_map(compose(left, p), compose(left, twin(p)))


@pytest.mark.parametrize("field, big", GATHER_CASES, ids=GATHER_IDS)
def test_kron_compose_permutation_legs_stay_canonical(field, big):
    rng = random.Random(f"kron_compose {field} {big}")
    for _ in range(40):
        legs = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        factors = [random_permutation(rng, field, s) if rng.random() < 0.7
                   else DenseMap.identity(field, s) for s in legs]
        g = random_map(rng, field, math.prod(legs), rng.randint(1, 3), big)
        got = kron_compose(factors, g)
        want = compose(kron_all(field, [twin(f) for f in factors]), g)
        if all(f.is_identity() for f in factors):
            assert got is g
        else:
            assert_same_canonical_map(got, want)


# -- identity known per map ------------------------------------------------

def identity_cases(field, rng):
    """Index maps built every way that makes them: (how, map)."""
    p = random_permutation(rng, field, 4)
    i3 = DenseMap.identity(field, 3)
    yield "identity", DenseMap.identity(field, rng.randint(0, 4))
    yield "from_flat identity", DenseMap.from_flat(field, 3, 3, [int(i == j) for i in range(3)
                                                               for j in range(3)])
    yield "from_flat", DenseMap.from_flat(field, 2, 2, [0, 1, 1, 0])
    yield "compose inverse", compose(p, p.transpose())
    yield "compose", compose(p, p)
    yield "kron identities", kron(i3, DenseMap.identity(field, 2))
    yield "kron", kron(p, i3)
    yield "transpose", p.transpose()
    yield "transpose identity", i3.transpose()
    yield "power(0)", p.power(0)
    yield "power", p.power(rng.randint(1, 5))


@pytest.mark.parametrize("field", [F7, QQ], ids=str)
def test_is_identity_agrees_with_a_fresh_scan(field):
    rng = random.Random(str(field))
    for _ in range(20):
        for how, m in identity_cases(field, rng):
            assert m._src_of_dst is not None, how
            fresh = bool((m._src_of_dst == np.arange(m.dst_dim)).all())
            assert m.is_identity() == fresh, how
            assert m.is_identity() == fresh and m._identity == fresh, how  # kept
            assert twin(m).is_identity() == fresh, how
    assert DenseMap.identity(field, 5)._identity is True


@settings(deadline=None, max_examples=100)
@given(st.sampled_from([F7, QQ]), st.integers(0, 4).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
def test_index_map_equality_and_hash_agree_with_dense_twins(field, images):
    p, q = (DenseMap.permutation(field, list(i)) for i in images)
    assert (p == q) == (twin(p) == twin(q)) == (list(images[0]) == list(images[1]))
    assert p == twin(p) and twin(p) == p
    assert hash(p) == hash(twin(p))
    if p == q:
        assert hash(p) == hash(q)
    other_field = QQ if field == F7 else F7
    assert p != DenseMap.permutation(other_field, list(images[0]))
    assert p != DenseMap.identity(field, p.dst_dim + 1)


def test_hash_builds_no_dense_view():
    # a 2^14 x 2^14 dense view is past ENTRY_BUDGET, yet == reads only the index arrays
    big, again = DenseMap.identity(F7, 2 ** 14), DenseMap.identity(F7, 2 ** 14)
    assert big == again and hash(big) == hash(again)
    assert big._dense is None and again._dense is None


# -- direct builders against the code they replaced ------------------------

@settings(deadline=None, max_examples=150)
@given(st.sampled_from([F7, QQ]), st.integers(0, 3), st.integers(0, 3), st.data())
def test_flip_perm_against_permutation_matrix(field, n, p, data):
    dims = data.draw(st.lists(st.integers(1, 3), min_size=n * p, max_size=n * p))
    got = flip_perm(n, p, dims, field)
    want = Permutation(reference_flip_images(n, p)).matrix(dims, field)
    assert got._src_of_dst is not None and not got._src_of_dst.flags.writeable
    assert np.array_equal(got._src_of_dst, want._src_of_dst)
    assert got == want and got.dst_dim == math.prod(dims)


def reference_diagonal_endo(rng, field, dim):
    """random_diagonal_endo as it was written, through nested rows."""
    if field.kind == "prime_field":
        diag = [rng.randrange(field.modulus) for _ in range(dim)]
    else:
        diag = [rng.randint(-3, 3) for _ in range(dim)]
    rows = [[diag[i] if i == j else 0 for j in range(dim)] for i in range(dim)]
    return DenseMap.from_rows(field, rows)


@pytest.mark.parametrize("field", [F7, QQ, GF(2 ** 64 + 13)], ids=str)
def test_random_diagonal_endo_against_nested_rows(field):
    identities = 0
    for seed in range(300):
        dim = seed % 4 + 1
        ours, theirs = random.Random(seed), random.Random(seed)
        got, want = random_diagonal_endo(ours, field, dim), reference_diagonal_endo(theirs, field, dim)
        assert ours.getstate() == theirs.getstate()  # the same draws, in the same order
        assert (got._src_of_dst is None) == (want._src_of_dst is None)
        assert got == want and got.flat_strings() == want.flat_strings()
        if got._src_of_dst is None:
            assert got._num.dtype == want._num.dtype and not got._num.flags.writeable
        identities += got._src_of_dst is not None
    assert identities > 0 or field.modulus == 2 ** 64 + 13


# -- facts a map keeps: inverse, identity, bound -----------------------------

FACT_FIELDS = [F7, MERSENNE_61, QQ]


@st.composite
def dense_and_permutation(draw):
    """A dense map g (rows x n) over F_7, F_(2^61-1) or Q, with numerators past
    2^62 over Q, and a permutation p of range(n)."""
    field = draw(st.sampled_from(FACT_FIELDS))
    n, rows = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    entries = draw(st.lists(field_values(field), min_size=rows * n, max_size=rows * n))
    g = twin(DenseMap.from_flat(field, rows, n, entries))  # dense even as a 0/1 permutation
    return g, DenseMap.permutation(field, draw(st.permutations(range(n))))


def fresh_bound(m):
    return int(np.abs(m._num).max(initial=0))


@settings(deadline=None, max_examples=150)
@given(dense_and_permutation())
def test_index_map_keeps_its_inverse(case):
    g, p = case
    t = p.transpose()
    assert t.transpose() is p and p.transpose() is t and invert(p) is t
    assert t == twin(p).transpose() and compose(p, t).is_identity()
    one = DenseMap.identity(g.field, p.dst_dim)
    assert one.transpose() is one and invert(one) is one


@settings(deadline=None, max_examples=150)
@given(dense_and_permutation(), st.booleans())
def test_column_gathers_equal_the_dense_product(case, inverse_first):
    g, p = case
    if inverse_first:  # the gather reads the inverse kept from an earlier transpose
        p.transpose()
    got = compose(g, p)
    assert_same_canonical_map(got, compose(g, twin(p)))
    assert_same_canonical_map(compose(p.transpose(), g.transpose()), twin(got.transpose()))


@settings(deadline=None, max_examples=150)
@given(dense_and_permutation())
def test_identities_are_free(case):
    g, p = case
    field, rows, n = g.field, g.dst_dim, g.src_dim
    left, right, one = DenseMap.identity(field, rows), DenseMap.identity(field, n), \
        DenseMap.identity(field, 1)
    assert compose(left, g) is g and compose(g, right) is g
    assert compose(right, p) is p and compose(p, right) is p
    both = kron(left, right)
    assert both._identity is True and both == kron(twin(left), twin(right))
    assert kron(one, g) is g and kron(g, one) is g and kron(one, p) is p
    assert kron(one, right) is right  # and kron(I_1, I_1) is its second factor:
    assert kron(right, one) is (right if n > 1 else one)
    fresh = DenseMap.identity(field, n)
    assert fresh.first_difference(DenseMap.identity(field, n)) is None
    assert fresh._dense is None  # no dense array was built to compare them
    assert g.first_difference(g) is None and p.first_difference(p) is None
    # a from_flat identity is an index map whose identity is not known yet
    read = DenseMap.from_flat(field, n, n, [int(i == j) for i in range(n) for j in range(n)])
    assert compose(read, g.transpose()) == g.transpose() and read._identity is None


@settings(deadline=None, max_examples=150)
@given(dense_and_permutation(), st.data())
def test_kept_bound_equals_a_fresh_scan(case, data):
    g, p = case
    field, n = g.field, g.src_dim
    q = DenseMap.permutation(field, data.draw(st.permutations(range(g.dst_dim))))
    made = {"g": g, "g.p": compose(g, p), "q.g": compose(q, g), "g^T": g.transpose(),
            "(q.g.p)^T": compose(compose(q, g), p).transpose(), "p": p, "p^T": p.transpose(),
            "legs": kron_compose([q], g),
            "twice": compose(g, p).transpose().transpose()}
    other = twin(DenseMap.from_flat(field, n, 2, data.draw(
        st.lists(field_values(field), min_size=2 * n, max_size=2 * n))))
    def scanned(m):  # the bound as _bound computed it before it was kept
        return fresh_bound(m) if field == QQ else field.modulus - 1

    for how, m in made.items():
        kept = m._bound()
        assert kept == scanned(m) and m._bound() == kept, how
        # _operands keeps the stored numerators exactly when the scanned bounds allow
        stored = all(a is b._num for a, b in zip(_operands((m, other), n), (m, other)))
        assert stored == (scanned(m) * scanned(other) * n < 1 << 63), how
