"""Twisting classical structures into BiHom ones and back.

A classical (co/bi)monoid whose object carries designated commuting structure
endomorphisms can be twisted: the comultiplication is post-composed with
alpha (x) beta and the multiplication pre-composed with kappa (x) nu, producing
a structure that passes the deformed axiom checkers.  When the endomorphisms
are invertible the construction is reversible, and the antipode of the
underlying classical bimonoid solves the deformed antipode equation
mu . (beta nu (x) alpha kappa) . (1 (x) chi) . delta = eta . epsilon (and its
mirror, with chi (x) 1).  Both the direct linear solve of that equation and the
route through untwisting are provided, together with the canonical Galois-style
morphism whose invertibility detects Hopf-ness in the invertible case.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coherence import BiHomObject
from .combinat import Permutation
from .errors import (
    DimensionMismatch,
    FieldMismatch,
    InvariantViolation,
    MissingMap,
    NotInvertible,
)
from .exactlin import DenseMap, _canonical, _operands, _solve, compose, invert, kron, kron_compose
from .exactlin import NO_SOLUTION, UNIQUE
from .structures import COMONOID_SIDE, MAP_SHAPES, MONOID_SIDE, ModuleInst, StructureBundle
from .structures import check_bimonoid, morphism_sides

COMONOID = "comonoid"
MONOID = "monoid"
BIMONOID = "bimonoid"

DIRECT = "direct"
VIA_UNTWIST = "untwist"

FOUND = "found"
NO_ANTIPODE = "no_antipode"
NON_UNIQUE = "non_unique"


@dataclass(frozen=True)
class PlainStructure:
    """A classical structure whose object endomorphisms are structure maps.

    The bundle's maps satisfy the ordinary (undeformed) axioms, and the
    designated endomorphisms, (alpha, beta) for the comultiplication side and
    (kappa, nu) for the multiplication side, are each endomorphisms of that
    classical structure.  This is exactly the input the twist consumes.
    """

    bundle: StructureBundle


# The sides each direction twists; the comonoid side comes first, which fixes
# the order of the checks and of the errors they raise.
_TWISTED_SIDES = {COMONOID: (COMONOID_SIDE,), MONOID: (MONOID_SIDE,),
                  BIMONOID: (COMONOID_SIDE, MONOID_SIDE)}


def validate_plain(p: PlainStructure, direction: str):
    """Raise InvariantViolation unless the designated endomorphisms are
    morphisms of the classical structure being twisted."""
    if direction not in _TWISTED_SIDES:
        raise ValueError(f"unknown twist direction {direction!r}")
    sides, b = _TWISTED_SIDES[direction], p.bundle
    b.require(*(side.mult for side in sides))
    maps = [m for m in MAP_SHAPES if any(m in (side.mult, side.unit) for side in sides)
            and getattr(b, m) is not None]
    failures, broken = [], {}  # broken: id of each distinct endomorphism -> its failing maps
    for ename in (name for side in sides for name in side.endos):
        e = b.obj.endos().get(ename)
        if e is None:
            failures.append(f"{ename} missing")
            continue
        if id(e) not in broken:
            broken[id(e)] = [m for m in maps if operator.ne(*morphism_sides(b, m, e))]
        failures += [f"{ename} is not a morphism for {m}" for m in broken[id(e)]]
    if failures:
        raise InvariantViolation("; ".join(failures))


def yau_twist(p: PlainStructure, direction: str = BIMONOID) -> StructureBundle:
    """Twist a classical structure along its endomorphisms.

    Comultiplication side: delta' = (alpha (x) beta) . delta, epsilon' = epsilon.
    Multiplication side:   mu' = mu . (kappa (x) nu), eta' = eta.
    """
    validate_plain(p, direction)
    b = p.bundle
    maps = {}
    for side in _TWISTED_SIDES[direction]:
        maps[side.mult] = side.kron_chain(getattr(b, side.mult), b.obj.pair_for(side.big))
        maps[side.unit] = getattr(b, side.unit)
    return StructureBundle(b.obj, **maps)


def _inverse_or_raise(obj: BiHomObject, name: str) -> DenseMap:
    e = obj.endos().get(name)
    if e is None:
        raise NotInvertible(f"{name} is absent")
    inv = invert(e)
    if inv is None:
        raise NotInvertible(f"{name} is singular")
    return inv


def untwist(b: StructureBundle) -> PlainStructure:
    """Invert the twist: delta~ = (alpha^-1 (x) beta^-1) . delta and
    mu~ = mu . (kappa^-1 (x) nu^-1); units and counits are untouched."""
    maps = {}
    for side in _TWISTED_SIDES[BIMONOID]:
        m = getattr(b, side.mult)
        if m is not None:
            inverses = [_inverse_or_raise(b.obj, name) for name in side.endos]
            maps[side.mult] = side.kron_chain(m, inverses)
    if not maps:
        raise MissingMap("nothing to untwist")
    return PlainStructure(b.replace(**maps))


@dataclass(frozen=True)
class AntipodeResult:
    """Outcome of an antipode solve.

    status is 'found', 'no_antipode' or 'non_unique'.  chi carries the solved
    map when found, and one explicit witness in the non-unique case (never a
    silently chosen canonical representative).  both_sided records that the
    returned map re-verified against both composites of the defining diagram.
    """

    chi: Optional[DenseMap]
    method: str
    both_sided: bool
    status: str

    @property
    def witness(self) -> Optional[DenseMap]:
        return self.chi if self.status == NON_UNIQUE else None


def _antipode_system(pre: DenseMap, delta: DenseMap, rhs: DenseMap) -> DenseMap:
    """Linear system for chi in  pre.(1 (x) chi).delta = rhs  and
    pre.(chi (x) 1).delta = rhs, as one augmented map [coefficients | rhs]:
    the d^2 rows of the first equation above those of the second.

    With pre and delta read as d x d x d arrays P and D, the coefficient of
    chi[j, k] in entry (r, c) is sum_a P[r, a, j] D[a, k, c] in the first
    equation and sum_a P[r, j, a] D[k, a, c] in the second: one tensordot
    each over the numerators."""
    field, d = delta.field, delta.src_dim
    P, D = (a.reshape(d, d, d) for a in _operands((pre, delta), d))
    coeffs = np.vstack([np.tensordot(P, D, axes).transpose(0, 3, 1, 2).reshape(d * d, d * d)
                        for axes in (([1], [0]), ([2], [1]))])
    b = np.tile(rhs._num.reshape(-1, 1), (2, 1))
    block_den = pre._den * delta._den
    den = math.lcm(block_den, rhs._den)
    if den != 1:  # both sides over one denominator, on Python ints
        coeffs = coeffs.astype(object) * (den // block_den)
        b = b.astype(object) * (den // rhs._den)
    return _canonical(field, 2 * d * d, d * d + 1, np.hstack((coeffs, b)), den)


def _verify_antipode(pre: DenseMap, delta: DenseMap, rhs: DenseMap, chi: DenseMap) -> bool:
    one = DenseMap.identity(chi.field, chi.dst_dim)
    return all(compose(pre, kron_compose(chi.field, legs, delta)) == rhs
               for legs in ([one, chi], [chi, one]))


def antipode_solve(b: StructureBundle, method: str = DIRECT) -> AntipodeResult:
    """Solve the deformed antipode equation on a bimonoid.

    The direct method poses the dim^2 unknown entries of chi against both
    composites of the defining diagram; the untwist method solves the ordinary
    convolution-inverse system of the untwisted classical bimonoid (which
    requires invertible endomorphisms) and returns the same chi.
    """
    report = check_bimonoid(b)
    if not report.passed:
        raise InvariantViolation(
            f"antipode requested on a non-bimonoid: {report.failures()[0].name}")
    obj = b.obj
    rhs = compose(b.eta, b.epsilon)
    if method == DIRECT:  # pre = mu . (beta nu (x) alpha kappa)
        kappa, nu = obj.oplax_pair()
        pre = MONOID_SIDE.kron_chain(b.mu, [compose(obj.beta, nu), compose(obj.alpha, kappa)])
        delta = b.delta
    elif method == VIA_UNTWIST:
        plain = untwist(b).bundle
        pre, delta = plain.mu, plain.delta
    else:
        raise ValueError(f"unknown method {method!r}")

    status, solution, den = _solve(_antipode_system(pre, delta, rhs), obj.dim ** 2)
    if status == NO_SOLUTION:
        return AntipodeResult(None, method, False, NO_ANTIPODE)
    chi = _canonical(obj.field, obj.dim, obj.dim, solution.reshape(obj.dim, obj.dim), den)
    if not _verify_antipode(pre, delta, rhs, chi):
        raise InvariantViolation("solved antipode failed re-verification")
    status = FOUND if status == UNIQUE else NON_UNIQUE
    return AntipodeResult(chi, method, True, status)


def canonical_morphism(x: ModuleInst, y: BiHomObject,
                       b: StructureBundle):
    """The Galois-style map on x (x) y (x) a and whether it is invertible.

    Built as (action (x) 1 (x) 1) . (1 (x) swap (x) 1) . (1 (x) 1 (x) delta),
    the first two Kronecker products applied leg by leg.
    """
    if x.over != b:
        raise DimensionMismatch("module does not live over the given structure")
    if y.field != b.obj.field:
        raise FieldMismatch("mixed fields")
    b.require("delta")
    a = b.obj
    field = a.field
    idx = DenseMap.identity(field, x.carrier.dim)
    idy = DenseMap.identity(field, y.dim)
    ida = DenseMap.identity(field, a.dim)
    swap = Permutation((1, 0)).matrix([y.dim, a.dim], field)
    m = kron(kron(idx, idy), b.delta)
    for factors in ([idx, swap, ida], [x.action, idy, ida]):
        m = kron_compose(field, factors, m)
    return m, invert(m) is not None
