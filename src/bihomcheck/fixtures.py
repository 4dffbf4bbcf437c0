"""Ready-made structure instances used by the test suite and the CLI docs.

The flagship pair is the cyclic group algebra k[C_3]: once as a classical Hopf
algebra (all endomorphisms the identity) and once twisted along the group
automorphism g -> g^2 placed in all four endomorphism slots.  A small
idempotent-monoid bialgebra provides the standard example of a bialgebra with
no antipode and a singular canonical morphism.
"""

from __future__ import annotations

from .coherence import BiHomObject
from .exactlin import GF, QQ, DenseMap, FieldTag, RawScalar
from .structures import StructureBundle
from .twist import BIMONOID, PlainStructure, yau_twist


def _basis_map(field: FieldTag, dst: int, src: int, assignments) -> DenseMap:
    """Matrix sending source basis j to the listed combinations (i, coeff)."""
    rows = [[0] * src for _ in range(dst)]
    for j, terms in assignments.items():
        for i, c in terms:
            rows[i][j] = c
    return DenseMap.from_rows(field, rows)


def group_power_endo(field: FieldTag, order: int, e: int) -> DenseMap:
    """Linearization of the group map g^i -> g^(e*i) on the cyclic group."""
    return _basis_map(field, order, order,
                      {i: [((e * i) % order, 1)] for i in range(order)})


def cyclic_group_bundle(field: FieldTag, order: int = 3,
                        endo_power: int = 1) -> StructureBundle:
    """The group bialgebra of C_order with all endomorphisms g -> g^e.

    With endo_power = 1 this is the classical Hopf algebra of the cyclic
    group; other powers coprime to the order give commuting bialgebra
    automorphisms ready for twisting.
    """
    n = order
    mu = _basis_map(field, n, n * n,
                    {i * n + j: [((i + j) % n, 1)] for i in range(n) for j in range(n)})
    eta = _basis_map(field, n, 1, {0: [(0, 1)]})
    delta = _basis_map(field, n * n, n, {i: [(i * n + i, 1)] for i in range(n)})
    epsilon = _basis_map(field, 1, n, {i: [(0, 1)] for i in range(n)})
    phi = group_power_endo(field, n, endo_power)
    obj = BiHomObject(n, field, phi, phi, phi, phi)
    return StructureBundle(obj, mu=mu, eta=eta, delta=delta, epsilon=epsilon)


def classical_c3(field: FieldTag = GF(7)) -> StructureBundle:
    return cyclic_group_bundle(field, 3, 1)


def plain_twisting_c3(field: FieldTag = GF(7)) -> PlainStructure:
    """Classical C_3 bialgebra carrying g -> g^2 in every endomorphism slot."""
    return PlainStructure(cyclic_group_bundle(field, 3, 2))


def twisted_c3(field: FieldTag = GF(7)) -> StructureBundle:
    return yau_twist(plain_twisting_c3(field), BIMONOID)


def inversion_antipode(field: FieldTag, order: int = 3) -> DenseMap:
    """The classical antipode of the cyclic group algebra: g -> g^(-1)."""
    return group_power_endo(field, order, order - 1)


def dual_cyclic_bundle(field: FieldTag, order: int = 3,
                       endo_power: int = 1) -> StructureBundle:
    """Functions on the cyclic group: the dual of the group bialgebra, read as
    its transpose on the same object, mu = delta^T, eta = epsilon^T,
    delta = mu^T and epsilon = eta^T.

    Pointwise multiplication is diagonal, the comultiplication of a delta
    function spreads over all factorizations, the unit is the constant
    function and the counit evaluates at the group identity.  Unlike the
    group algebra this comultiplication is not grouplike, which makes the
    fixture a good independent probe of the deformed laws.
    """
    g = cyclic_group_bundle(field, order, endo_power)
    return StructureBundle(g.obj, mu=g.delta.transpose(), eta=g.epsilon.transpose(),
                           delta=g.mu.transpose(), epsilon=g.eta.transpose())


def sweedler_bundle(field: FieldTag, lam: RawScalar = 1) -> StructureBundle:
    """Sweedler's four-dimensional Hopf algebra H_4, with the bialgebra
    automorphism x -> lam x (lam nonzero) in every endomorphism slot.

    Built from its table: g^2 = 1, x^2 = 0, xg = -gx, Delta g = g (x) g,
    Delta x = x (x) 1 + g (x) x, epsilon(g) = 1 and epsilon(x) = 0, on the
    basis g^a x^b at index a + 2b (1, g, x, gx).  It is neither commutative
    nor cocommutative, its maps carry -1 and its endomorphisms lam, so it
    probes signs and entries that the 0/1 cyclic fixtures never reach.
    """
    basis = [(a, b) for b in (0, 1) for a in (0, 1)]
    mu = _basis_map(field, 4, 16, {
        4 * (a + 2 * b) + c + 2 * d: [((a + c) % 2 + 2 * (b + d), (-1) ** (b * c))]
        for a, b in basis for c, d in basis if b + d < 2})  # x g^c = (-1)^c g^c x
    delta = _basis_map(field, 16, 4, {  # Delta(g^a x) = g^a x (x) g^a + g^(a+1) (x) g^a x
        a + 2 * b: [(5 * a + 8, 1), (4 * (1 - a) + a + 2, 1)] if b else [(5 * a, 1)]
        for a, b in basis})
    eta = _basis_map(field, 4, 1, {0: [(0, 1)]})
    epsilon = _basis_map(field, 1, 4, {0: [(0, 1)], 1: [(0, 1)]})
    phi = _basis_map(field, 4, 4, {i: [(i, lam if i >= 2 else 1)] for i in range(4)})
    obj = BiHomObject(4, field, phi, phi, phi, phi)
    return StructureBundle(obj, mu=mu, eta=eta, delta=delta, epsilon=epsilon)


def example_instance(field: FieldTag = GF(7)):
    """InstanceData bundling the cyclic fixtures, ready to serialize.

    Contains the classical C_3 bimonoid (identity endomorphisms), the
    untwisted classical maps sitting on the g -> g^2 endomorphisms (input of
    the twist), the twisted bimonoid, and its regular module/comodule pair.
    """
    from .cli import InstanceData, ModuleEntry

    classical = classical_c3(field)
    plain = plain_twisting_c3(field).bundle
    twisted = twisted_c3(field)
    objects = {"c3": classical.obj, "c3_sq": plain.obj}
    structures = {"classical": classical, "plain": plain, "twisted": twisted}
    structure_objects = {"classical": "c3", "plain": "c3_sq", "twisted": "c3_sq"}
    modules = {"regular": ModuleEntry("c3_sq", "twisted",
                                      action=twisted.mu, coaction=twisted.delta)}
    return InstanceData(field, objects, structures, structure_objects, modules)


def idempotent_monoid_bialgebra(field: FieldTag = QQ) -> StructureBundle:
    """The bialgebra of the two-element monoid {1, x} with x.x = x.

    Both basis elements are grouplike; x has no convolution inverse, so this
    bialgebra admits no antipode and its Galois map is singular.
    """
    mu = _basis_map(field, 2, 4, {0: [(0, 1)], 1: [(1, 1)], 2: [(1, 1)], 3: [(1, 1)]})
    eta = _basis_map(field, 2, 1, {0: [(0, 1)]})
    delta = _basis_map(field, 4, 2, {0: [(0, 1)], 1: [(3, 1)]})
    epsilon = _basis_map(field, 1, 2, {0: [(0, 1)], 1: [(0, 1)]})
    one = DenseMap.identity(field, 2)
    obj = BiHomObject(2, field, one, one, one, one)
    return StructureBundle(obj, mu=mu, eta=eta, delta=delta, epsilon=epsilon)
