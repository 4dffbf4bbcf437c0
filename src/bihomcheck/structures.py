"""BiHom structure data and exhaustive axiom checkers.

A StructureBundle attaches optional multiplication/unit/comultiplication/counit
matrices to a BiHomObject.  The checkers verify, by exact matrix equality, the
deformed (co)associativity and (co)unit laws: the comultiplication side is
governed by the object's (alpha, beta) pair, the multiplication side by
(kappa, nu).  Each comonoid law is its monoid law read in the opposite
category, so every law is written once (see _Side).  Iterated coproducts
delta_n and products mu_n are built two equivalent ways, and generalized
(co)associativity is verified for arbitrary sequences of non-negative arities.
Diagram sides apply their Kronecker factors, coherence morphisms included,
leg by leg (see _Side), and the interchange square of bimonoids and Hopf
modules is one tensor contraction of its four maps.  A dense Kronecker product
is built only where it is compared (the (co)unit, (co)unitality and bimonoid
unit squares) or as the map that leg-wise factors act on (induced_module_action).
A diagram of each distinct endomorphism is built and compared once per check;
the names of every slot holding that map share its outcome.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .coherence import (
    BIG_PHI,
    BIG_PSI,
    SMALL_PHI,
    SMALL_PSI,
    BiHomObject,
    coherence_map,
    nprod,
    xi_map,
)
from .combinat import bar, validate_index_seq
from .errors import FieldMismatch, InvariantViolation, MissingMap, MixedStructures, ShapeMismatch
from .exactlin import (
    DenseMap,
    _canonical,
    _check_budget,
    _operands,
    compose,
    kron,
    kron_all,
    kron_compose,
)
from .report import CheckEntry, CheckReport, compare_entry, make_report

ITERATIVE = "iterative"
ALTERNATIVE = "alternative"


def _expect_shape(name: str, m: DenseMap, dst: int, src: int, field):
    if m.field != field:
        raise FieldMismatch(f"{name} over {m.field}, object over {field}")
    if (m.dst_dim, m.src_dim) != (dst, src):
        raise ShapeMismatch(f"{name} is {m.dst_dim}x{m.src_dim}, expected {dst}x{src}")


# The (dst, src) shape of each structure map on an object of dimension d.
MAP_SHAPES = {"mu": lambda d: (d, d * d), "eta": lambda d: (d, 1),
              "delta": lambda d: (d * d, d), "epsilon": lambda d: (1, d)}
# The (dst, src) shape of a (co)action with carrier dimension x over dimension a.
ACTION_SHAPES = {"action": lambda x, a: (x, x * a), "coaction": lambda x, a: (x * a, x)}


@dataclass(frozen=True)
class StructureBundle:
    """Optional structure maps mu, eta, delta, epsilon on a BiHomObject."""

    obj: BiHomObject
    mu: Optional[DenseMap] = None
    eta: Optional[DenseMap] = None
    delta: Optional[DenseMap] = None
    epsilon: Optional[DenseMap] = None

    def __post_init__(self):
        for name, shape in MAP_SHAPES.items():
            m = getattr(self, name)
            if m is not None:
                _expect_shape(name, m, *shape(self.obj.dim), self.obj.field)

    def require(self, *names: str):
        for name in names:
            if getattr(self, name) is None:
                raise MissingMap(f"structure has no {name}")

    def replace(self, **kwargs) -> "StructureBundle":
        return dataclasses.replace(self, **kwargs)


@dataclass(frozen=True)
class ModuleInst:
    """A module: carrier x with action x (x) a -> x over a structure on a."""

    carrier: BiHomObject
    action: DenseMap
    over: StructureBundle

    def __post_init__(self):
        x, a = self.carrier, self.over.obj
        if x.field != a.field:
            raise FieldMismatch("module carrier and structure over different fields")
        _expect_shape("action", self.action, *ACTION_SHAPES["action"](x.dim, a.dim), x.field)


@dataclass(frozen=True)
class ComoduleInst:
    """A comodule: carrier x with coaction x -> x (x) a."""

    carrier: BiHomObject
    coaction: DenseMap
    over: StructureBundle

    def __post_init__(self):
        x, a = self.carrier, self.over.obj
        if x.field != a.field:
            raise FieldMismatch("comodule carrier and structure over different fields")
        _expect_shape("coaction", self.coaction, *ACTION_SHAPES["coaction"](x.dim, a.dim),
                      x.field)


# ---------------------------------------------------------------------------
# Elementary diagram families
# ---------------------------------------------------------------------------

def _ident(obj: BiHomObject, n: int = 1) -> DenseMap:
    return DenseMap.identity(obj.field, obj.dim ** n)


@dataclass(frozen=True)
class _Side:
    """The monoid side of a structure, or its dual comonoid side.

    A comonoid diagram is its monoid diagram read in the opposite category:
    mu, eta, Psi, psi become delta, epsilon, Phi, phi, every composite is
    taken in reverse order, and tensor products stay as they are.  So each
    law is written once, as the monoid law, and `chain` reads it on either
    side; `kron_chain` applies the Kronecker factors of a side leg by leg, so
    no side builds their product.  `endos` names the governing endomorphism pair.
    """

    co: bool
    mult: str
    unit: str
    big: str
    small: str
    endos: tuple

    def chain(self, f: DenseMap, g: DenseMap) -> DenseMap:
        return compose(g, f) if self.co else compose(f, g)

    def kron_chain(self, m: DenseMap, factors: Sequence[DenseMap]) -> DenseMap:
        """chain(m, kron_all(factors)) by kron_compose, which the monoid side
        applies to the transposed maps."""
        if self.co:
            return kron_compose(factors, m)
        return kron_compose([f.transpose() for f in factors], m.transpose()).transpose()

    def text(self, monoid: str, comonoid: str) -> str:
        return comonoid if self.co else monoid


MONOID_SIDE = _Side(False, "mu", "eta", BIG_PSI, SMALL_PSI, ("kappa", "nu"))
COMONOID_SIDE = _Side(True, "delta", "epsilon", BIG_PHI, SMALL_PHI, ("alpha", "beta"))


def morphism_sides(b: StructureBundle, name: str, e: DenseMap):
    """(lhs, rhs) of "the structure map `name` intertwines the endomorphism e"."""
    side = COMONOID_SIDE if name in ("delta", "epsilon") else MONOID_SIDE
    f = getattr(b, name)
    if name == side.unit:
        return side.chain(e, f), f
    return side.chain(e, f), side.kron_chain(f, [e, e])


def _entries_once(cases, sides) -> list:
    """compare_entry(name, law, *sides(*maps)) for each (name, law, maps) of
    cases, built and compared once per distinct maps (by identity): a later
    name on the same maps shares that outcome."""
    done, entries = {}, []
    for name, law, maps in cases:
        first = done.get(key := tuple(map(id, maps)))
        entries.append(CheckEntry(name, law, first.passed, first.counterexample) if first else
                       done.setdefault(key, compare_entry(name, law, *sides(*maps))))
    return entries


def _map_morphism_entries(prefix: str, b: StructureBundle, name: str):
    """The structure map must commute with every present endomorphism."""
    return _entries_once([(f"{prefix}/{name}-commutes-{ename}",
                           f"{name} intertwines the endomorphism {ename}", (e,))
                          for ename, e in b.obj.endos().items()],
                         lambda e: morphism_sides(b, name, e))


def _semigroup_entries(b: StructureBundle, side: _Side):
    b.require(side.mult)
    a, m = b.obj, getattr(b, side.mult)
    a.pair_for(side.big)  # demand kappa/nu up front on the monoid side
    co = side.text("", "co")
    entries = _map_morphism_entries(f"{co}semigroup", b, side.mult)
    big21 = coherence_map(side.big, [[a, a], [a]])
    big12 = coherence_map(side.big, [[a], [a, a]])
    lhs = side.kron_chain(side.kron_chain(m, [m, _ident(a)]), big21)
    rhs = side.kron_chain(side.kron_chain(m, [_ident(a), m]), big12)
    entries.append(compare_entry(
        f"{co}semigroup/{co}associativity",
        side.text("deformed associativity of the multiplication",
                  "deformed coassociativity of the comultiplication"), lhs, rhs))
    return entries


def _unit_entries(b: StructureBundle, side: _Side):
    b.require(side.mult, side.unit)
    a, m, u = b.obj, getattr(b, side.mult), getattr(b, side.unit)
    co = side.text("", "co")
    entries = _map_morphism_entries(f"{co}monoid", b, side.unit)
    left = side.kron_chain(m, [u, _ident(a)])
    right = side.kron_chain(m, [_ident(a), u])
    entries.append(compare_entry(
        f"{co}monoid/{co}unit-left",
        side.text("unit in the first leg lands on nu",
                  "counit against the first leg lands on beta"),
        left, kron_all(a.field, coherence_map(side.small, [[], [a]]))))
    entries.append(compare_entry(
        f"{co}monoid/{co}unit-right",
        side.text("unit in the second leg lands on kappa",
                  "counit against the second leg lands on alpha"),
        right, kron_all(a.field, coherence_map(side.small, [[a], []]))))
    return entries


def _interchange_rhs(b: StructureBundle, action: DenseMap, coaction: DenseMap) -> DenseMap:
    """(action (x) mu) . xi . (coaction (x) delta), acting and coacting
    factorwise through the middle interchange of x (x) a (x) a (x) a.

    It is one contraction of the four maps read as 3-tensors A[i,p,q],
    M[j,r,s], C[p,r,x], D[q,s,y]:  rhs[(i,j), (x,y)] = sum over p, q, r, s of
    A M C D.  It runs as A.C and M.D, then their product over (q, r): X^3 a^2
    + a^5 + X^2 a^4 products for carrier dimension X (the action's dst_dim),
    where the dense square costs X^3 a^5.  Over F_p the first two steps are
    reduced mod p."""
    X, a, field = action.dst_dim, b.obj.dim, b.obj.field
    maps = (action, b.mu, coaction, b.delta)
    _check_budget(X * a, X * a)
    _check_budget(a * a, a * a)
    A, M, C, D = (num.reshape(shape) for num, shape in zip(
        _operands(maps, X * a ** 3), ((X, X, a), (a, a, a), (X, a, X), (a, a, a))))

    def contract(u, v, axes):
        out = np.tensordot(u, v, axes)
        return out if field.modulus is None else out % field.modulus

    AC = contract(A, C, ([1], [0]))  # [i, q, r, x]
    MD = contract(M, D, ([2], [1]))  # [j, r, q, y]
    num = np.tensordot(AC, MD, ([1, 2], [2, 1])).transpose(0, 2, 1, 3).reshape(X * a, X * a)
    return _canonical(field, num, math.prod(m._den for m in maps))


def _interchange_entry(name: str, law: str, b: StructureBundle, action: DenseMap,
                       coaction: DenseMap):
    """Coacting on an action of a on x equals acting and coacting factorwise
    through the middle interchange (see _interchange_rhs)."""
    return compare_entry(name, law, compose(coaction, action),
                         _interchange_rhs(b, action, coaction))


def _bisemigroup_extra_entries(b: StructureBundle):
    b.require("mu", "delta")
    return [_interchange_entry(
        "bisemigroup/compatibility",
        "comultiplication of a product via the middle interchange",
        b, b.mu, b.delta)]


def _bimonoid_extra_entries(b: StructureBundle):
    b.require("mu", "eta", "delta", "epsilon")
    return [
        compare_entry(
            "bimonoid/counit-multiplicative",
            "counit compatibility square of the bimonoid laws",
            compose(b.epsilon, b.mu), kron(b.epsilon, b.epsilon)),
        compare_entry(
            "bimonoid/unit-comultiplicative",
            "unit compatibility square of the bimonoid laws",
            compose(b.delta, b.eta), kron(b.eta, b.eta)),
        compare_entry(
            "bimonoid/unit-counit",
            "counit of the unit is the identity scalar",
            compose(b.epsilon, b.eta), DenseMap.identity(b.obj.field, 1)),
    ]


def check_cosemigroup(b: StructureBundle) -> CheckReport:
    return make_report("cosemigroup", _semigroup_entries(b, COMONOID_SIDE))


def check_semigroup(b: StructureBundle) -> CheckReport:
    return make_report("semigroup", _semigroup_entries(b, MONOID_SIDE))


def check_comonoid(b: StructureBundle) -> CheckReport:
    return make_report("comonoid", _semigroup_entries(b, COMONOID_SIDE)
                       + _unit_entries(b, COMONOID_SIDE))


def check_monoid(b: StructureBundle) -> CheckReport:
    return make_report("monoid", _semigroup_entries(b, MONOID_SIDE)
                       + _unit_entries(b, MONOID_SIDE))


def check_bisemigroup(b: StructureBundle) -> CheckReport:
    return make_report("bisemigroup",
                       _semigroup_entries(b, MONOID_SIDE)
                       + _semigroup_entries(b, COMONOID_SIDE)
                       + _bisemigroup_extra_entries(b))


def check_bimonoid(b: StructureBundle) -> CheckReport:
    entries = (_semigroup_entries(b, MONOID_SIDE) + _semigroup_entries(b, COMONOID_SIDE)
               + _unit_entries(b, MONOID_SIDE) + _unit_entries(b, COMONOID_SIDE)
               + _bisemigroup_extra_entries(b) + _bimonoid_extra_entries(b))
    return make_report("bimonoid", entries)


# ---------------------------------------------------------------------------
# Iterated structure maps
# ---------------------------------------------------------------------------

def _iterated(b: StructureBundle, n: int, variant: str, side: _Side) -> list:
    """The i-fold maps for i = 0..n, each built from the one before.  Entry 0
    is the (co)unit, demanded only when n is 0 (None when b has none)."""
    if n < 0:
        raise ValueError("negative arity")
    if n == 0:
        b.require(side.unit)
    if n >= 2:
        b.require(side.mult)
    a, m = b.obj, getattr(b, side.mult)
    # the loop would stop at the first a^k x a map past ENTRY_BUDGET: refuse
    # that arity, with the same message, before building any
    for k in range(3, n + 1):
        _check_budget(a.dim ** k, a.dim)
    maps = [getattr(b, side.unit), _ident(a), m][:n + 1]
    for i in range(2, n):
        if variant == ITERATIVE:
            out = side.kron_chain(m, [_ident(a), maps[i]])
            big = coherence_map(side.big, [[a], [a] * i])
        elif variant == ALTERNATIVE:
            out = side.kron_chain(maps[i], [m, _ident(a, i - 1)])
            big = coherence_map(side.big, [[a, a]] + [[a]] * (i - 1))
        else:
            raise ValueError(f"unknown variant {variant!r}")
        maps.append(side.kron_chain(out, big))
    return maps


def delta_n(b: StructureBundle, n: int, variant: str = ITERATIVE) -> DenseMap:
    """The n-fold comultiplication a -> a^(x)n.

    n = 1 is the identity and n = 0 is the counit.  For n >= 2 the map is
    built either by splitting off one factor on the left at each step
    (iterative) or by expanding the leftmost factor (alternative); the two
    agree exactly on any valid cosemigroup.
    """
    return _iterated(b, n, variant, COMONOID_SIDE)[-1]


def mu_n(b: StructureBundle, n: int, variant: str = ITERATIVE) -> DenseMap:
    """The n-fold multiplication a^(x)n -> a (n = 1 identity, n = 0 unit)."""
    return _iterated(b, n, variant, MONOID_SIDE)[-1]


def _generalized_reports(b: StructureBundle, ks: Sequence[Sequence[int]],
                         side: _Side) -> list:
    """The generalized (co)associativity report of each sequence in ks, from
    one list of iterated maps; no a^K x a^n Kronecker product is built."""
    ks = [validate_index_seq(k) for k in ks]
    b.require(side.mult)
    if any(len(k) == 0 or 0 in k for k in ks):
        b.require(side.unit)
    a, co = b.obj, side.text("", "co")
    iterated = _iterated(b, max((sum(k) + k.count(0) for k in ks), default=1), ITERATIVE, side)
    reports = []
    for k in ks:
        groups, tag = [[a] * v for v in k], ",".join(map(str, k))
        nested = side.kron_chain(side.kron_chain(iterated[len(k)], [iterated[v] for v in k]),
                                 coherence_map(side.big, groups))
        flat = side.kron_chain(iterated[sum(k)], coherence_map(side.small, groups))
        padded = side.kron_chain(iterated[sum(k) + k.count(0)],
                                 [_ident(a, v) if v else iterated[0] for v in k])
        reports.append(make_report(f"generalized-{co}associativity", [
            compare_entry(f"{co}assoc[{tag}]/nested-vs-flat",
                          f"nested {co}products equal the flat {co}product", nested, flat),
            compare_entry(f"{co}assoc[{tag}]/nested-vs-padded",
                          f"nested {co}products equal the {co}unit-padded {co}product",
                          nested, padded),
        ]))
    return reports


def check_generalized_coassoc(b: StructureBundle, k: Sequence[int]) -> CheckReport:
    """Nested coproducts along k agree with the flat and the padded coproduct.

    k is a sequence of non-negative integers; zero entries hit the counit, so
    epsilon is required whenever k is empty or contains a zero.
    """
    return _generalized_reports(b, [k], COMONOID_SIDE)[0]


def check_generalized_assoc(b: StructureBundle, k: Sequence[int]) -> CheckReport:
    """Dual of check_generalized_coassoc: zero entries hit the unit."""
    return _generalized_reports(b, [k], MONOID_SIDE)[0]


def sweep_generalized_coassoc(b: StructureBundle, ks: Sequence[Sequence[int]]) -> list:
    """check_generalized_coassoc for every sequence in ks, in one pass."""
    return _generalized_reports(b, ks, COMONOID_SIDE)


def coassoc_sequences(max_weight: int):
    """All arity sequences whose padded length K+Z stays within max_weight."""
    out, frontier = [()], [((), 0)]
    while frontier:
        frontier = [(seq + (v,), w + bar(v)) for seq, w in frontier if w < max_weight
                    for v in range(max_weight - w + 1)]
        out.extend(seq for seq, _ in frontier)
    return out


# ---------------------------------------------------------------------------
# Modules, comodules, Hopf modules
# ---------------------------------------------------------------------------

def _action_report(x: BiHomObject, b: StructureBundle, rho: DenseMap,
                   side: _Side) -> CheckReport:
    """Deformed associativity and unitality of an action rho: x (x) a -> x."""
    a = b.obj
    b.require(side.mult)
    co = side.text("", "co")
    entries = _entries_once([(f"{co}module/{co}action-commutes-{name}",
                              f"{co}action intertwines the endomorphism {name}",
                              (x.endos()[name], a.endos()[name]))
                             for name in x.endos() if name in a.endos()],
                            lambda ex, ea: (side.chain(ex, rho), side.kron_chain(rho, [ex, ea])))
    big12 = coherence_map(side.big, [[x], [a, a]])
    big21 = coherence_map(side.big, [[x, a], [a]])
    entries.append(compare_entry(
        f"{co}module/{co}associativity",
        side.text("acting after multiplying equals acting twice",
                  "coacting then comultiplying equals coacting twice"),
        side.kron_chain(side.kron_chain(rho, [_ident(x), getattr(b, side.mult)]), big12),
        side.kron_chain(side.kron_chain(rho, [rho, _ident(a)]), big21)))
    unit = getattr(b, side.unit)
    if unit is not None:
        entries.append(compare_entry(
            f"{co}module/{co}unitality",
            side.text("acting by the unit lands on the carrier's kappa",
                      "coacting into the counit lands on the carrier's alpha"),
            side.kron_chain(rho, [_ident(x), unit]),
            kron_all(x.field, coherence_map(side.small, [[x], []]))))
    return make_report(f"{co}module", entries)


def check_module(mod: ModuleInst) -> CheckReport:
    """Deformed associativity and unitality of a module action."""
    return _action_report(mod.carrier, mod.over, mod.action, MONOID_SIDE)


def check_comodule(com: ComoduleInst) -> CheckReport:
    """Deformed coassociativity and counitality of a coaction."""
    return _action_report(com.carrier, com.over, com.coaction, COMONOID_SIDE)


def check_hopf_module(mod: ModuleInst, com: ComoduleInst) -> CheckReport:
    """Module + comodule whose action and coaction interchange over mu, delta."""
    if mod.carrier != com.carrier or mod.over != com.over:
        raise MixedStructures("module and comodule disagree on carrier or structure")
    b = mod.over
    b.require("mu", "delta")
    entries = list(check_module(mod).entries) + list(check_comodule(com).entries)
    entries.append(_interchange_entry(
        "hopf-module/compatibility", "coaction of an action via the middle interchange",
        b, mod.action, com.coaction))
    return make_report("hopf-module", entries)


def regular_module(b: StructureBundle) -> ModuleInst:
    b.require("mu")
    return ModuleInst(b.obj, b.mu, b)


def regular_comodule(b: StructureBundle) -> ComoduleInst:
    b.require("delta")
    return ComoduleInst(b.obj, b.delta, b)


def induced_module_action(mods: Sequence[ModuleInst],
                          over: Optional[StructureBundle] = None) -> ModuleInst:
    """Tensor product of modules with the comultiplication-spread action.

    All modules must live over the same bimonoid; the empty product is the
    unit carrier acted on through the counit.
    """
    mods = list(mods)
    if mods:
        over = mods[0].over
        if any(m.over != over for m in mods):
            raise MixedStructures("modules over different structures")
    elif over is None:
        raise MixedStructures("empty module list needs an explicit structure")
    report = check_bimonoid(over)
    if not report.passed:
        raise InvariantViolation(
            f"structure is not a bimonoid: {report.failures()[0].name}")

    a = over.obj
    field = a.field
    n = len(mods)
    carriers = [m.carrier for m in mods]
    product = nprod(carriers, field)
    xi = xi_map([carriers, [a] * n], field)
    act = compose(kron_all(field, [m.action for m in mods]), xi)
    spread = [DenseMap.identity(field, product.dim), delta_n(over, n)]
    return ModuleInst(product, MONOID_SIDE.kron_chain(act, spread), over)
