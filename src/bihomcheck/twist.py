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
from .errors import (
    FieldMismatch,
    InvariantViolation,
    MissingEndomorphism,
    MissingMap,
    NotInvertible,
)
from .exactlin import DenseMap, _canonical, _operands, _solve, compose, invert, kron, kron_compose
from .exactlin import NO_SOLUTION, UNIQUE
from .structures import COMONOID_SIDE, MAP_SHAPES, MONOID_SIDE, ModuleInst, StructureBundle
from .structures import check_bimonoid, morphism_sides

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


# Each twist direction is the sides it twists.  The comonoid side comes first,
# which fixes the order of the checks and of the errors they raise.
COMONOID = (COMONOID_SIDE,)
MONOID = (MONOID_SIDE,)
BIMONOID = (COMONOID_SIDE, MONOID_SIDE)


def held_sides(b: StructureBundle, none: tuple = MONOID) -> tuple:
    """The sides of BIMONOID whose multiplication b holds; `none` if it holds
    neither, which by default makes yau_twist refuse b for having no mu."""
    return tuple(side for side in BIMONOID if getattr(b, side.mult) is not None) or none


def _twisted(b: StructureBundle, sides: tuple, pair) -> dict:
    """Each side's multiplication with the Kronecker factors pair(side) applied."""
    return {side.mult: side.kron_chain(getattr(b, side.mult), pair(side)) for side in sides}


def yau_twist(p: PlainStructure, direction: tuple = BIMONOID) -> StructureBundle:
    """Twist a classical structure along its endomorphisms, on the sides of
    direction.  Each endomorphism must be a morphism of the classical maps of
    those sides; each distinct one is checked once.

    Comultiplication side: delta' = (alpha (x) beta) . delta, epsilon' = epsilon.
    Multiplication side:   mu' = mu . (kappa (x) nu), eta' = eta.
    """
    b, endos = p.bundle, p.bundle.obj.endos()
    b.require(*(side.mult for side in direction))
    names = [name for side in direction for name in side.endos]
    missing = [f"{name} missing" for name in names if name not in endos]
    if missing:
        raise MissingEndomorphism("; ".join(missing))
    maps = [m for m in MAP_SHAPES if any(m in (side.mult, side.unit) for side in direction)
            and getattr(b, m) is not None]
    failures, broken = [], {}  # broken: id of each distinct endomorphism -> its failing maps
    for name in names:
        e = endos[name]
        if id(e) not in broken:
            broken[id(e)] = [m for m in maps if operator.ne(*morphism_sides(b, m, e))]
        failures += [f"{name} is not a morphism for {m}" for m in broken[id(e)]]
    if failures:
        raise InvariantViolation("; ".join(failures))
    units = {side.unit: getattr(b, side.unit) for side in direction}
    return StructureBundle(b.obj, **units,
                           **_twisted(b, direction, lambda side: b.obj.pair_for(side.big)))


def _inverse_or_raise(obj: BiHomObject, name: str) -> DenseMap:
    e = obj.endos().get(name)
    if e is None:
        raise MissingEndomorphism(f"{name} is absent")
    inv = invert(e)
    if inv is None:
        raise NotInvertible(f"{name} is singular")
    return inv


def untwist(b: StructureBundle) -> PlainStructure:
    """Invert the twist: delta~ = (alpha^-1 (x) beta^-1) . delta and
    mu~ = mu . (kappa^-1 (x) nu^-1); units and counits are untouched."""
    sides = held_sides(b, none=())
    if not sides:
        raise MissingMap("nothing to untwist")
    return PlainStructure(b.replace(**_twisted(
        b, sides, lambda side: [_inverse_or_raise(b.obj, name) for name in side.endos])))


@dataclass(frozen=True)
class AntipodeResult:
    """Outcome of an antipode solve.

    status is 'found', 'no_antipode' or 'non_unique'.  chi carries the solved
    map when found, and one explicit witness in the non-unique case (never a
    silently chosen canonical representative).  A returned map has re-verified
    against both composites of the defining diagram.
    """

    chi: Optional[DenseMap]
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
    return _canonical(field, np.hstack((coeffs, b)), den)


def _verify_antipode(pre: DenseMap, delta: DenseMap, rhs: DenseMap, chi: DenseMap) -> bool:
    one = DenseMap.identity(chi.field, chi.dst_dim)
    return all(compose(pre, kron_compose(legs, delta)) == rhs
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
        return AntipodeResult(None, NO_ANTIPODE)
    chi = _canonical(obj.field, solution.reshape(obj.dim, obj.dim), den)
    if not _verify_antipode(pre, delta, rhs, chi):
        raise InvariantViolation("solved antipode failed re-verification")
    status = FOUND if status == UNIQUE else NON_UNIQUE
    return AntipodeResult(chi, status)


def canonical_morphism(x: ModuleInst, y: BiHomObject):
    """The Galois-style map on x (x) y (x) a and whether it is invertible,
    for the module x over the structure b = x.over on a.

    Built as (action (x) 1 (x) 1) . (1 (x) swap (x) 1) . (1 (x) 1 (x) delta),
    the first two Kronecker products applied leg by leg.
    """
    b = x.over
    if y.field != b.obj.field:
        raise FieldMismatch("mixed fields")
    b.require("delta")
    a = b.obj
    field = a.field
    idx = DenseMap.identity(field, x.carrier.dim)
    idy = DenseMap.identity(field, y.dim)
    ida = DenseMap.identity(field, a.dim)
    swap = DenseMap.permutation(field, np.arange(y.dim * a.dim).reshape(y.dim, a.dim).T)
    m = kron(kron(idx, idy), b.delta)
    for factors in ([idx, swap, ida], [x.action, idy, ida]):
        m = kron_compose(factors, m)
    return m, invert(m) is not None
