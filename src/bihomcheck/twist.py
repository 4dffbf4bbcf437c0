"""Twisting classical structures into BiHom ones and back.

A classical (co/bi)monoid whose object carries designated commuting structure
endomorphisms can be twisted: the comultiplication is post-composed with
alpha (x) beta and the multiplication pre-composed with kappa (x) nu, producing
a structure that passes the deformed axiom checkers.  When the endomorphisms
are invertible the construction is reversible, and the antipode of the
underlying classical bimonoid solves the deformed antipode equation
mu . (beta nu (x) alpha kappa) . (1 (x) chi) . delta = eta . epsilon (and its
mirror).  Both the direct linear solve of that equation and the route through
untwisting are provided, together with the canonical Galois-style morphism
whose invertibility detects Hopf-ness in the invertible case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coherence import BIG_PHI, BIG_PSI, BiHomObject, slot_powers
from .combinat import Permutation
from .errors import (
    DimensionMismatch,
    FieldMismatch,
    InvariantViolation,
    MissingMap,
    NotInvertible,
)
from .exactlin import DenseMap, _canonical, _solve, compose, compose_all, invert, kron
from .exactlin import NO_SOLUTION, UNIQUE
from .structures import ModuleInst, StructureBundle, check_bimonoid, morphism_sides

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


def _classical_morphism_failures(b: StructureBundle, names, maps):
    failures = []
    for ename in names:
        e = b.obj.endos().get(ename)
        if e is None:
            failures.append(f"{ename} missing")
            continue
        for mname in maps:
            if getattr(b, mname) is None:
                continue
            lhs, rhs = morphism_sides(b, mname, e)
            if lhs != rhs:
                failures.append(f"{ename} is not a morphism for {mname}")
    return failures


def _designated(direction: str):
    if direction == COMONOID:
        return ("alpha", "beta"), ("delta", "epsilon")
    if direction == MONOID:
        return ("kappa", "nu"), ("mu", "eta")
    if direction == BIMONOID:
        return ("alpha", "beta", "kappa", "nu"), ("mu", "eta", "delta", "epsilon")
    raise ValueError(f"unknown twist direction {direction!r}")


def validate_plain(p: PlainStructure, direction: str):
    """Raise InvariantViolation unless the designated endomorphisms are
    morphisms of the classical structure being twisted."""
    names, maps = _designated(direction)
    b = p.bundle
    if direction in (COMONOID, BIMONOID):
        b.require("delta")
    if direction in (MONOID, BIMONOID):
        b.require("mu")
    failures = _classical_morphism_failures(b, names, maps)
    if failures:
        raise InvariantViolation("; ".join(failures))


def gamma_map(objs, which: str = COMONOID, field=None) -> DenseMap:
    """The n-ary twisting morphism on a sequence of objects.

    Factor i of n picks up first^(n-i) . second^(i-1) of the governing
    endomorphism pair: (alpha, beta) on the comultiplication side, (kappa, nu)
    on the multiplication side.  All-identity endomorphisms give the identity
    for every n.
    """
    objs = list(objs)
    if field is None:
        if not objs:
            raise ValueError("field required for the empty twist morphism")
        field = objs[0].field
    n = len(objs)
    kind = BIG_PHI if which == COMONOID else BIG_PSI
    return slot_powers(field, [(obj.pair_for(kind), (n - i, i - 1))
                               for i, obj in enumerate(objs, start=1)])


def yau_twist(p: PlainStructure, direction: str = BIMONOID) -> StructureBundle:
    """Twist a classical structure along its endomorphisms.

    Comultiplication side: delta' = (alpha (x) beta) . delta, epsilon' = epsilon.
    Multiplication side:   mu' = mu . (kappa (x) nu), eta' = eta.
    """
    validate_plain(p, direction)
    b = p.bundle
    obj = b.obj
    mu = eta = delta = epsilon = None
    if direction in (COMONOID, BIMONOID):
        delta = compose(gamma_map([obj, obj], COMONOID), b.delta)
        epsilon = b.epsilon
    if direction in (MONOID, BIMONOID):
        mu = compose(b.mu, gamma_map([obj, obj], MONOID))
        eta = b.eta
    return StructureBundle(obj, mu=mu, eta=eta, delta=delta, epsilon=epsilon)


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
    obj = b.obj
    mu = delta = None
    if b.delta is not None:
        ai = _inverse_or_raise(obj, "alpha")
        bi = _inverse_or_raise(obj, "beta")
        delta = compose(kron(ai, bi), b.delta)
    if b.mu is not None:
        ki = _inverse_or_raise(obj, "kappa")
        ni = _inverse_or_raise(obj, "nu")
        mu = compose(b.mu, kron(ki, ni))
    if mu is None and delta is None:
        raise MissingMap("nothing to untwist")
    return PlainStructure(b.replace(mu=mu, delta=delta))


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


def _antipode_system(mu: DenseMap, delta: DenseMap, rhs: DenseMap,
                     sandwich: Optional[DenseMap]) -> DenseMap:
    """Linear system for chi in  mu.[sandwich].(1 (x) chi).delta = rhs  and
    mu.[sandwich].(chi (x) 1).delta = rhs, as one augmented map
    [coefficients | rhs] whose rows alternate between the two equations.

    pre.(1 (x) chi).delta is the sum over basis columns e_i of A.chi.B with
    A = pre.(e_i (x) 1), B = (e_i^T (x) 1).delta, and the row-major vec of
    A.chi.B is (A (x) B^T).vec(chi); chi (x) 1 puts e_i in the second slot."""
    pre = compose(mu, sandwich) if sandwich is not None else mu
    field, d = delta.field, delta.src_dim
    one = DenseMap.identity(field, d)
    delta_t = delta.transpose()

    def term(select):  # A (x) B^T for A = pre.select, B^T = delta^T.select
        return kron(compose(pre, select), compose(delta_t, select))

    left = right = DenseMap.zero(field, d * d, d * d)
    for i in range(d):
        e = DenseMap.zero(field, d, 1).with_entry(i, 0, 1)
        left = left + term(kron(e, one))
        right = right + term(kron(one, e))
    den = math.lcm(left._den, right._den, rhs._den)
    num = np.empty((2 * d * d, d * d + 1), dtype=object)
    num[0::2, :-1] = left._num.astype(object) * (den // left._den)
    num[1::2, :-1] = right._num.astype(object) * (den // right._den)
    num[:, -1] = np.repeat(rhs._num.reshape(-1).astype(object) * (den // rhs._den), 2)
    return _canonical(field, 2 * d * d, d * d + 1, num, den)


def _verify_antipode(mu, delta, rhs, sandwich, chi) -> bool:
    d = chi.dst_dim
    one = DenseMap.identity(chi.field, d)
    pre = compose(mu, sandwich) if sandwich is not None else mu
    left = compose_all([pre, kron(one, chi), delta])
    right = compose_all([pre, kron(chi, one), delta])
    return left == rhs and right == rhs


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
    if method == DIRECT:
        kappa, nu = obj.oplax_pair()
        sandwich = kron(compose(obj.beta, nu), compose(obj.alpha, kappa))
        mu, delta = b.mu, b.delta
    elif method == VIA_UNTWIST:
        plain = untwist(b).bundle
        sandwich = None
        mu, delta = plain.mu, plain.delta
    else:
        raise ValueError(f"unknown method {method!r}")

    status, solution, den = _solve(_antipode_system(mu, delta, rhs, sandwich))
    if status == NO_SOLUTION:
        return AntipodeResult(None, method, False, NO_ANTIPODE)
    chi = _canonical(obj.field, obj.dim, obj.dim, solution.reshape(obj.dim, obj.dim), den)
    if not _verify_antipode(mu, delta, rhs, sandwich, chi):
        raise InvariantViolation("solved antipode failed re-verification")
    status = FOUND if status == UNIQUE else NON_UNIQUE
    return AntipodeResult(chi, method, True, status)


def canonical_morphism(x: ModuleInst, y: BiHomObject,
                       b: StructureBundle):
    """The Galois-style map on x (x) y (x) a and whether it is invertible.

    Built as (action (x) 1 (x) 1) . (1 (x) swap (x) 1) . (1 (x) 1 (x) delta).
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
    m = compose_all([
        kron(kron(x.action, idy), ida),
        kron(kron(idx, swap), ida),
        kron(kron(idx, idy), b.delta),
    ])
    return m, invert(m) is not None
