"""Diagram sides that apply their Kronecker factors leg by leg, against the
dense reference.

The (co)semigroup, (co)monoid and (co)module laws, the intertwining sides of
morphism_sides, the iterated maps delta_n/mu_n, the twist and untwist maps,
the induced module action and the canonical morphism apply every Kronecker
factor one tensor leg at a time (_Side.kron_chain, exactlin.kron_compose).
The reference is the construction they replaced: each side a compose_all
chain through the dense kron product.  Both must give the same maps, and
entries with the same names, verdicts and counterexamples, on random maps
with entries other than 0 and 1, on bases changed by a random unitriangular
map, and on perturbed maps.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihomcheck.coherence import BiHomObject, coherence_map, xi_map
from bihomcheck.combinat import Permutation
from bihomcheck.errors import NotInvertible
from bihomcheck.exactlin import GF, QQ, DenseMap, compose, compose_all, invert, kron, kron_all
from bihomcheck.fixtures import cyclic_group_bundle, dual_cyclic_bundle
from bihomcheck.structures import (
    ALTERNATIVE,
    COMONOID_SIDE,
    ITERATIVE,
    MONOID_SIDE,
    ComoduleInst,
    ModuleInst,
    StructureBundle,
    check_bimonoid,
    check_comodule,
    check_comonoid,
    check_cosemigroup,
    check_module,
    check_monoid,
    check_semigroup,
    delta_n,
    induced_module_action,
    morphism_sides,
    mu_n,
)
from bihomcheck.twist import (
    BIMONOID,
    COMONOID,
    MONOID,
    PlainStructure,
    canonical_morphism,
    untwist,
    yau_twist,
)

from conftest import chain, operand_dtypes

MERSENNE_61 = GF(2 ** 61 - 1)
FIELDS = [GF(7), MERSENNE_61, QQ]


# ---------------------------------------------------------------------------
# The dense reference
# ---------------------------------------------------------------------------

def outcome(name, lhs, rhs):
    diff = lhs.first_difference(rhs)
    return name, diff is None, diff


def ref_morphism_sides(b, name, e):
    side = COMONOID_SIDE if name in ("delta", "epsilon") else MONOID_SIDE
    f = getattr(b, name)
    if name == side.unit:
        return side.chain(e, f), f
    return side.chain(e, f), side.chain(f, kron(e, e))


def ref_morphism_entries(prefix, b, name):
    return [outcome(f"{prefix}/{name}-commutes-{ename}", *ref_morphism_sides(b, name, e))
            for ename, e in b.obj.endos().items()]


def ref_semigroup_entries(b, side):
    a, m = b.obj, getattr(b, side.mult)
    one, co = DenseMap.identity(a.field, a.dim), side.text("", "co")
    big21 = kron_all(a.field, coherence_map(side.big, [[a, a], [a]]))
    big12 = kron_all(a.field, coherence_map(side.big, [[a], [a, a]]))
    return ref_morphism_entries(f"{co}semigroup", b, side.mult) + [outcome(
        f"{co}semigroup/{co}associativity",
        chain(side, m, kron(m, one), big21), chain(side, m, kron(one, m), big12))]


def ref_unit_entries(b, side):
    a, m, u = b.obj, getattr(b, side.mult), getattr(b, side.unit)
    one, co = DenseMap.identity(a.field, a.dim), side.text("", "co")
    return ref_morphism_entries(f"{co}monoid", b, side.unit) + [
        outcome(f"{co}monoid/{co}unit-left", side.chain(m, kron(u, one)),
                kron_all(a.field, coherence_map(side.small, [[], [a]]))),
        outcome(f"{co}monoid/{co}unit-right", side.chain(m, kron(one, u)),
                kron_all(a.field, coherence_map(side.small, [[a], []])))]


def ref_action_entries(x, b, rho, side):
    a, co = b.obj, side.text("", "co")
    idx, ida = DenseMap.identity(a.field, x.dim), DenseMap.identity(a.field, a.dim)
    entries = [outcome(f"{co}module/{co}action-commutes-{name}", side.chain(ex, rho),
                       side.chain(rho, kron(ex, a.endos()[name])))
               for name, ex in x.endos().items() if name in a.endos()]
    entries.append(outcome(
        f"{co}module/{co}associativity",
        chain(side, rho, kron(idx, getattr(b, side.mult)),
              kron_all(a.field, coherence_map(side.big, [[x], [a, a]]))),
        chain(side, rho, kron(rho, ida),
              kron_all(a.field, coherence_map(side.big, [[x, a], [a]])))))
    unit = getattr(b, side.unit)
    if unit is not None:
        entries.append(outcome(f"{co}module/{co}unitality", side.chain(rho, kron(idx, unit)),
                               kron_all(a.field, coherence_map(side.small, [[x], []]))))
    return entries


def ref_iterated(b, n, variant, side):
    a, m = b.obj, getattr(b, side.mult)
    maps = [getattr(b, side.unit), DenseMap.identity(a.field, a.dim), m][:n + 1]
    for i in range(2, n):
        if variant == ITERATIVE:
            big = kron_all(a.field, coherence_map(side.big, [[a], [a] * i]))
            maps.append(chain(side, m, kron(DenseMap.identity(a.field, a.dim), maps[i]), big))
        else:
            big = kron_all(a.field, coherence_map(side.big, [[a, a]] + [[a]] * (i - 1)))
            maps.append(chain(side, maps[i], kron(m, DenseMap.identity(a.field, a.dim ** (i - 1))),
                              big))
    return maps[-1]


def ref_induced_action(mods, over):
    a, field, n = over.obj, over.obj.field, len(mods)
    carriers = [m.carrier for m in mods]
    xdim = math.prod(x.dim for x in carriers)
    spread = kron(DenseMap.identity(field, xdim), ref_iterated(over, n, ITERATIVE, COMONOID_SIDE))
    xi = xi_map([carriers, [a] * n], field)
    return compose_all([kron_all(field, [m.action for m in mods]), xi, spread])


def ref_canonical_morphism(x, y, b):
    field, a = b.obj.field, b.obj
    idx, idy, ida = (DenseMap.identity(field, d) for d in (x.carrier.dim, y.dim, a.dim))
    swap = Permutation((1, 0)).matrix([y.dim, a.dim], field)
    return compose_all([kron(kron(x.action, idy), ida), kron(kron(idx, swap), ida),
                        kron(kron(idx, idy), b.delta)])


def triples(report):
    return [(e.name, e.passed, e.counterexample) for e in report.entries]


def assert_checks_match(b):
    """Every (co)semigroup and (co)monoid check b has the maps for."""
    for side, semi, full in ((MONOID_SIDE, check_semigroup, check_monoid),
                             (COMONOID_SIDE, check_cosemigroup, check_comonoid)):
        semigroup = ref_semigroup_entries(b, side)
        assert triples(semi(b)) == sorted(semigroup)
        if getattr(b, side.unit) is not None:
            assert triples(full(b)) == sorted(semigroup + ref_unit_entries(b, side))
    for name in ("mu", "eta", "delta", "epsilon"):
        if getattr(b, name) is not None:
            for e in b.obj.endos().values():
                assert morphism_sides(b, name, e) == ref_morphism_sides(b, name, e)


def assert_iterated_match(b, top=4):
    for side, iterated in ((COMONOID_SIDE, delta_n), (MONOID_SIDE, mu_n)):
        for n in range(0 if getattr(b, side.unit) is not None else 1, top + 1):
            for variant in (ITERATIVE, ALTERNATIVE):
                assert iterated(b, n, variant) == ref_iterated(b, n, variant, side)


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------

def values(field, big):
    if field.kind == "prime_field":
        return st.integers(0, field.modulus - 1)
    if big:  # every |value| is past 2^62, so contractions take the Python-int branch
        magnitude = st.integers(2 ** 62, 2 ** 66)
        return st.builds(Fraction, magnitude | magnitude.map(lambda v: -v), st.integers(1, 3))
    return st.fractions(min_value=-4, max_value=4, max_denominator=3)


def dense_maps(draw, field, big):
    entries = values(field, big)

    def dense(dst, src):
        return DenseMap.from_flat(field, dst, src, draw(
            st.lists(entries, min_size=dst * src, max_size=dst * src)))
    return dense


def random_object(field, dense, dim):
    """An object whose four endomorphisms are polynomials in one random map r
    (so they commute): r, r^2, r + 1 and r^2 - r."""
    r = dense(dim, dim)
    one = DenseMap.identity(field, dim)
    return BiHomObject(dim, field, r, r.power(2), r + one, r.power(2) - r)


@st.composite
def bundle(draw, field, big=False):
    """Random mu, eta, delta, epsilon on a carrier of dimension 1 to 3; the
    unit and the counit are each left out now and then."""
    dense = dense_maps(draw, field, big)
    a = draw(st.integers(1, 3))
    obj = random_object(field, dense, a)
    return StructureBundle(obj, mu=dense(a, a * a), delta=dense(a * a, a),
                           eta=dense(a, 1) if draw(st.booleans()) else None,
                           epsilon=dense(1, a) if draw(st.booleans()) else None)


@st.composite
def modules(draw, field, big=False):
    """A random bundle with a random module and comodule on one random carrier."""
    b = draw(bundle(field, big))
    dense = dense_maps(draw, field, big)
    xdim, a = draw(st.integers(1, 2)), b.obj.dim
    x = random_object(field, dense, xdim)
    return b, ModuleInst(x, dense(xdim, xdim * a), b), ComoduleInst(x, dense(xdim * a, xdim), b)


def assert_modules_match(b, mod, com):
    x = mod.carrier
    assert triples(check_module(mod)) == sorted(ref_action_entries(x, b, mod.action, MONOID_SIDE))
    assert triples(check_comodule(com)) == sorted(
        ref_action_entries(x, b, com.coaction, COMONOID_SIDE))


@settings(max_examples=12, deadline=None)
@given(st.data())
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_random_bundles_match_dense(field, data):
    b = data.draw(bundle(field))
    assert_checks_match(b)
    assert_iterated_match(b)


@settings(max_examples=12, deadline=None)
@given(st.data())
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_random_modules_match_dense(field, data):
    b, mod, com = data.draw(modules(field))
    assert_modules_match(b, mod, com)
    y = random_object(field, dense_maps(data.draw, field, False), data.draw(st.integers(1, 2)))
    m, invertible = canonical_morphism(mod, y)
    want = ref_canonical_morphism(mod, y, b)
    assert m == want and invertible == (invert(want) is not None)


@settings(max_examples=6, deadline=None)
@given(st.data())
def test_big_rationals_match_dense_on_python_ints(data):
    b, mod, com = data.draw(modules(QQ, big=True))
    seen, patch = operand_dtypes()
    with patch:
        assert_checks_match(b)
        assert_iterated_match(b, top=3)
        assert_modules_match(b, mod, com)
    assert np.dtype(object) in seen


# ---------------------------------------------------------------------------
# Bimonoids: twisted fixtures in a random basis, and their perturbations
# ---------------------------------------------------------------------------

def unitriangular(rng, field, dim, big):
    """A random invertible map: ones on the diagonal, random entries above."""
    def entry():
        if field == QQ:
            v = rng.randint(2 ** 62, 2 ** 64) if big else rng.randint(-4, 4)
            return Fraction(v * rng.choice([1, -1]), rng.randint(1, 3))
        return rng.randrange(field.modulus)
    return DenseMap.from_rows(field, [[1 if i == j else entry() if i < j else 0
                                       for j in range(dim)] for i in range(dim)])


def in_basis(b, p):
    """b transported along the invertible map p."""
    q, o = invert(p), b.obj
    obj = BiHomObject(o.dim, o.field, *(compose_all([p, e, q]) for e in o.endos().values()))
    return StructureBundle(obj, mu=compose_all([p, b.mu, kron(q, q)]), eta=compose(p, b.eta),
                           delta=compose_all([kron(p, p), b.delta, q]),
                           epsilon=compose(b.epsilon, q))


def plain_fixture(make, field, rng, big, order=5):
    """The group bialgebra of C_order or its dual in a random basis, with the
    powers 1, 2, 3, 2 of g -> g^2 as alpha, beta, kappa, nu on an odd order;
    on an even order, where g -> g^2 is not invertible, with g -> g^2 in every
    slot, as in cyclic_group_bundle(field, order, 2)."""
    b = make(field, order, 1)
    phi = cyclic_group_bundle(field, order, 2).obj.alpha
    powers = (1, 2, 3, 2) if order % 2 else (1, 1, 1, 1)
    obj = BiHomObject(order, field, *(phi.power(k) for k in powers))
    return in_basis(b.replace(obj=obj), unitriangular(rng, field, order, big))


def perturbed(b, name, rng):
    m = getattr(b, name)
    i, j = rng.randrange(m.dst_dim), rng.randrange(m.src_dim)
    bump = Fraction(1, 2) if b.obj.field == QQ else 1
    return b.replace(**{name: m.with_entry(i, j, m.entry(i, j).value + bump)})


def ref_twisted(b, side, endos):
    return side.chain(getattr(b, side.mult), kron(*endos))


FIXTURES = [(cyclic_group_bundle, 5), (dual_cyclic_bundle, 5),
            (cyclic_group_bundle, 4), (cyclic_group_bundle, 6)]
CASES = [(make, order, field, big) for make, order in FIXTURES
         for field in FIELDS for big in ((False, True) if field == QQ else (False,))]
CASE_IDS = [f"{make.__name__}{'' if order == 5 else f'-{order}-power-2'}-{field}"
            f"{'-big' if big else ''}" for make, order, field, big in CASES]


@pytest.mark.parametrize("make, order, field, big", CASES, ids=CASE_IDS)
def test_twist_untwist_and_checks_on_fixtures(make, order, field, big):
    rng = random.Random(f"{make.__name__} {field} {big}")
    plain = plain_fixture(make, field, rng, big, order)
    for direction, sides in ((COMONOID, [COMONOID_SIDE]), (MONOID, [MONOID_SIDE]),
                             (BIMONOID, [COMONOID_SIDE, MONOID_SIDE])):
        got = yau_twist(PlainStructure(plain), direction)
        for side in sides:
            want = ref_twisted(plain, side, plain.obj.pair_for(side.big))
            assert getattr(got, side.mult) == want
    t = yau_twist(PlainStructure(plain), BIMONOID)
    assert check_bimonoid(t).passed
    bad = [perturbed(t, name, rng) for name in ("mu", "eta", "delta", "epsilon")]
    assert all(not check_monoid(b).passed or not check_comonoid(b).passed for b in bad)
    for b in [t] + bad:
        assert_checks_match(b)
        if order % 2 == 0:  # g -> g^2 is not invertible on an even order
            with pytest.raises(NotInvertible):
                untwist(b)
            continue
        inverses = {name: invert(e) for name, e in b.obj.endos().items()}
        back = untwist(b).bundle
        for side in (COMONOID_SIDE, MONOID_SIDE):
            want = ref_twisted(b, side, [inverses[name] for name in side.endos])
            assert getattr(back, side.mult) == want
    if order % 2:
        assert untwist(t).bundle.mu == plain.mu and untwist(t).bundle.delta == plain.delta


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_induced_module_action_on_a_twisted_fixture(field):
    rng = random.Random(str(field))
    t = yau_twist(PlainStructure(plain_fixture(dual_cyclic_bundle, field, rng, False)), BIMONOID)
    a = t.obj

    def random_module(xdim):
        def rand(dst, src):
            return DenseMap.from_rows(field, [[rng.randint(-3, 3) for _ in range(src)]
                                              for _ in range(dst)])
        one = DenseMap.identity(field, xdim)
        return ModuleInst(BiHomObject(xdim, field, one, one, one, one),
                          rand(xdim, xdim * a.dim), t)

    for mods in ([], [random_module(2)], [random_module(1), random_module(2)]):
        got = induced_module_action(mods, t)
        assert got.action == ref_induced_action(mods, t)
