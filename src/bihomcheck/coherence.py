"""Coherence data of the concrete unbiased monoidal categories.

Objects are finite-dimensional carriers with two (or four) pairwise commuting
endomorphisms.  The n-fold product is the Kronecker product of carriers and
endomorphisms; the coherence morphisms relating nested products to flat ones
are per-slot powers of those endomorphisms with combinatorially determined
exponents, and the interchange morphisms are tensor-factor flips.  This module
builds them as concrete matrices (a coherence morphism as its per-slot
Kronecker factors), evaluates the pure-integer exponent identities that make
the pentagon-style axioms commute, and verifies the axiom figures region by
region on explicit instances.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Optional, Sequence

import numpy as np

from .combinat import IndexSeq, flip_perm, validate_double_seq, validate_index_seq
from .errors import FieldMismatch, InvariantViolation, MissingEndomorphism, ShapeMismatch
from .exactlin import DenseMap, FieldTag, _canonical, _check_budget, compose, compose_all, kron_all
from .report import CheckReport, compare_entry, make_report

BIG_PHI = "BigPhi"
SMALL_PHI = "SmallPhi"
BIG_PSI = "BigPsi"
SMALL_PSI = "SmallPsi"

_LAX_KINDS = (BIG_PHI, SMALL_PHI)
_BIG_KINDS = (BIG_PHI, BIG_PSI)


@dataclass(frozen=True)
class BiHomObject:
    """A carrier with two or four pairwise commuting endomorphisms.

    alpha and beta govern the lax coherence morphisms; kappa and nu, when
    present, govern the oplax ones.  All present endomorphisms must be square
    of the carrier dimension and commute with each other, which every object
    built here, by dataclasses.replace or from an instance file is checked for
    (a map held in two slots commutes with itself, with no product).
    nprod products and random_object's diagonal objects commute by
    construction, so _trusted builds them without the pairwise check.
    """

    dim: int
    field: FieldTag
    alpha: DenseMap
    beta: DenseMap
    kappa: Optional[DenseMap] = None
    nu: Optional[DenseMap] = None
    _factors: dict = dataclass_field(default_factory=dict, init=False, repr=False,
                                     compare=False)

    def __post_init__(self):
        endos = self.endos()
        for name, e in endos.items():
            if e.field is not self.field and e.field != self.field:
                raise FieldMismatch(f"{name} over {e.field}, object over {self.field}")
            if e.dst_dim != self.dim or e.src_dim != self.dim:
                raise ShapeMismatch(
                    f"{name} is {e.dst_dim}x{e.src_dim} on a dim-{self.dim} carrier"
                )
        names = list(endos)
        for a in range(len(names)):
            for b in range(a + 1, len(names)):
                x, y = endos[names[a]], endos[names[b]]
                if x is not y and compose(x, y) != compose(y, x):
                    raise InvariantViolation(
                        f"endomorphisms {names[a]} and {names[b]} do not commute"
                    )

    @classmethod
    def _trusted(cls, dim, field, alpha, beta, kappa=None, nu=None) -> "BiHomObject":
        """An object whose endomorphisms are square, over field and commute by
        construction (Kronecker products of commuting maps, diagonal maps),
        built without __post_init__."""
        obj = object.__new__(cls)
        obj.__dict__.update(dim=dim, field=field, alpha=alpha, beta=beta, kappa=kappa, nu=nu,
                            _factors={})
        return obj

    def endos(self) -> dict:
        out = {"alpha": self.alpha, "beta": self.beta}
        if self.kappa is not None:
            out["kappa"] = self.kappa
        if self.nu is not None:
            out["nu"] = self.nu
        return out

    def has_oplax_pair(self) -> bool:
        return self.kappa is not None and self.nu is not None

    def oplax_pair(self):
        if not self.has_oplax_pair():
            raise MissingEndomorphism("object has no kappa/nu endomorphisms")
        return self.kappa, self.nu

    def pair_for(self, which: str):
        return (self.alpha, self.beta) if which in _LAX_KINDS else self.oplax_pair()

    def factor(self, which: str, a: int, b: int) -> DenseMap:
        """x^a . y^b of the pair (x, y) that `which` governs, built once per
        object and pair (lax or oplax) and kept outside ==, hash, repr and
        dataclasses.replace.  A pair of identity index maps gives the identity
        with no power or compose, so the unit, which unit_object shares across
        calls, costs every call the same."""
        key = (which in _LAX_KINDS, a, b)
        out = self._factors.get(key)
        if out is None:
            x, y = self.pair_for(which)
            identities = all(e._src_of_dst is not None and e.is_identity() for e in (x, y))
            out = self._factors[key] = x if identities else compose(x.power(a), y.power(b))
        return out


@functools.cache
def unit_object(field: FieldTag) -> BiHomObject:
    """The monoidal unit: 1-dimensional carrier, all endomorphisms identity;
    built and verified once per field."""
    one = DenseMap.identity(field, 1)
    return BiHomObject(1, field, one, one, one, one)


def nprod(objs: Sequence[BiHomObject], field: Optional[FieldTag] = None) -> BiHomObject:
    """n-fold monoidal product: Kronecker everything; empty product is the unit.
    The factors' endomorphisms commute pairwise, so the product's do too."""
    objs = list(objs)
    if not objs:
        if field is None:
            raise ValueError("field required for the empty product")
        return unit_object(field)
    f = objs[0].field
    if any(o.field is not f and o.field != f for o in objs) or field not in (f, None):
        raise FieldMismatch("mixed fields in product")
    if len(objs) == 1:
        return objs[0]
    dim = math.prod(o.dim for o in objs)
    alpha = kron_all(f, [o.alpha for o in objs])
    beta = kron_all(f, [o.beta for o in objs])
    kappa = nu = None
    if all(o.has_oplax_pair() for o in objs):
        kappa = kron_all(f, [o.kappa for o in objs])
        nu = kron_all(f, [o.nu for o in objs])
    return BiHomObject._trusted(dim, f, alpha, beta, kappa, nu)


def phi_exponents(k: IndexSeq, which: str = BIG_PHI):
    """Per-slot exponent table of the coherence morphism for the sequence k.

    Returns one list per group; entry (i, j) is the pair (a, b) such that the
    morphism acts on slot (i, j) as first^a . second^b of the governing
    endomorphism pair.  The big morphisms weigh the neighbouring groups by
    bar(k_p) - 1, the small ones by z_of(k_p); the oplax variants use the same
    exponents on the kappa/nu pair.
    """
    return [list(group) for group in _exponent_table(validate_index_seq(k), which)]


# 256 slots keep the ~100 tables matrix trials read.  A symbolic request's ~1,200
# one-off tables cycle through them, as do a --max-K 5 sweep's 288, which all miss.
@functools.lru_cache(maxsize=256)
def _exponent_table(k: tuple, which: str) -> tuple:
    """phi_exponents of a validated sequence as tuples, built once per (k, which)."""
    if which not in (BIG_PHI, SMALL_PHI, BIG_PSI, SMALL_PSI):
        raise ValueError(f"unknown coherence kind {which!r}")
    weights = [v - 1 if v else 0 for v in k] if which in _BIG_KINDS else [0 if v else 1 for v in k]
    before = [0, *itertools.accumulate(weights)]  # bar - 1 or z_of weights of groups < i
    total = before[-1]
    return tuple(((total - before[i + 1], before[i]),) * v for i, v in enumerate(k))


def coherence_map(which: str, groups: Sequence[Sequence[BiHomObject]]) -> list[DenseMap]:
    """The coherence morphism at the given grouped objects, as its Kronecker
    factors.  Its sequence k is the groups' shape: group i holds k_i objects.
    Slot by slot, the factors are the endomorphism powers from phi_exponents(k),
    which each object builds once (BiHomObject.factor); the empty collection
    has no factors.  Diagram sides apply the factors leg by leg, and kron_all
    builds their product where that is compared.
    """
    flat = [o for g in groups for o in g]
    exps = [e for group in _exponent_table(tuple(map(len, groups)), which) for e in group]
    return [obj.factor(which, a, b) for obj, (a, b) in zip(flat, exps)]


def xi_map(grid: Sequence[Sequence[BiHomObject]], field: Optional[FieldTag] = None) -> DenseMap:
    """Interchange morphism on an n x p grid of objects: n rows of p each.

    Sends the source order (tensor over rows i < n of tensors over columns
    j < p) to the transposed order (tensor over columns of tensors over rows);
    it is the slot flip (i, j) -> (j, i) under the global flattening, i.e.
    flip_perm(p, n), kept as a permutation map (an index array, see DenseMap).
    Degenerate grids (n*p = 0) give the 1x1 identity; a ragged grid is refused.
    """
    n, p = len(grid), len(grid[0]) if grid else 0
    if any(len(row) != p for row in grid):
        raise ShapeMismatch(f"ragged grid: rows of {[len(row) for row in grid]}")
    flat = [obj for row in grid for obj in row]
    if field is None:
        if not flat:
            raise ValueError("field required for an empty grid")
        field = flat[0].field
    if any(o.field is not field and o.field != field for o in flat):
        raise FieldMismatch("mixed fields in grid")
    return flip_perm(p, n, [o.dim for o in flat], field)


# ---------------------------------------------------------------------------
# Region tables, the lax figure's maps and its exponent identities
# ---------------------------------------------------------------------------

# Region tables: (name, steps of the first path, steps of the second path),
# steps applied left to right.  Every named map below is an endomorphism of
# the full slot tensor, so paths compose without reordering for the lax
# figure; the duoidal paths carry their reorderings inside the named maps.
_LAX_REGIONS = (
    ("upper-left", ("Phi:m", "Phi:tilde"), ("Phi:rows", "Phi:KZ")),
    ("upper-right", ("phi:m", "Phi:tilde"), ("Phi:flat", "phi:KZ")),
    ("lower-left", ("phi:rows", "Phi:KZ"), ("Phi:K", "phi:hat")),
    ("lower-right", ("phi:flat", "phi:KZ"), ("phi:K", "phi:hat")),
)

_DUOIDAL_REGIONS = (
    ("upper-left", ("Phi:slotwise", "xi:flat"), ("xi:blocks", "xi:groups", "Phi:cols")),
    ("upper-right", ("phi:slotwise", "xi:flat"), ("xi:flat", "phi:cols")),
    ("lower-left", ("xi:flatT", "Psi:slotwise"), ("Psi:cols", "xi:groupsT", "xi:blocksT")),
    ("lower-right", ("xi:flatT", "psi:slotwise"), ("psi:cols", "xi:flatT")),
)

# The lax regions that exponent identities 1-4 read, in order.
_IDENTITY_REGIONS = ("upper-left", "lower-left", "upper-right", "lower-right")

# Step tags -> coherence kinds, for both figures; the lax figure reads Phi and phi.
_STEP_KINDS = {"Phi": BIG_PHI, "phi": SMALL_PHI, "Psi": BIG_PSI, "psi": SMALL_PSI}

# Each step named in _LAX_REGIONS -> (kind, shape of _lax_shapes).
_LAX_STEPS = {step: (_STEP_KINDS[tag], shape) for _, left, right in _LAX_REGIONS
              for step in left + right for tag, shape in [step.split(":")]}


def _lax_shapes(objs, prods, unit) -> dict:
    """Each shape in _LAX_STEPS as the groups of each of its coherence maps, whose
    sequences are the groups' lengths.

    objs[i][j] lists the k_ij items of slot (i, j), prods[i][j] stands for their
    product, unit for the unit; items are objects or, for the exponents, slot labels.
    An empty row is one empty group in tilde; a row with no items is [unit] and
    empty groups in hat, and an empty slot is one unit in KZ.
    """
    def cat(parts):
        return [x for part in parts for x in part]

    return {
        "m": [prods],
        "rows": objs,
        "tilde": [cat(row or [[]] for row in objs)],
        "KZ": [[cat(g or [unit] for g in row) for row in objs]],
        "K": [[cat(row) for row in objs]],
        "flat": [cat(objs)],
        "hat": [cat(row if any(row) else [[unit], *row[1:]] for row in objs)],
    }


def _lax_path_exponents(k) -> dict:
    """Slot (i, j) with k_ij > 0, 1-based -> region -> (first path, second path),
    each path's per-slot (a, b) exponents, one table pair per group, summed over its two steps."""
    k = validate_double_seq(k)
    prods = [[(i, j) for j in range(1, len(row) + 1)] for i, row in enumerate(k, 1)]
    labels = [[[slot] * v for slot, v in zip(p, row)] for p, row in zip(prods, k)]
    shapes = _lax_shapes(labels, prods, None)
    exps = {step: {x: pairs[0] for groups in shapes[shape]
                   for group, pairs in zip(groups, _exponent_table(tuple(map(len, groups)), kind))
                   for x in group}
            for step, (kind, shape) in _LAX_STEPS.items()}

    def path(steps, slot):
        (a, b), (c, d) = exps[steps[0]][slot], exps[steps[1]][slot]
        return a + c, b + d

    return {slot: {name: (path(left, slot), path(right, slot))
                   for name, left, right in _LAX_REGIONS}
            for p, row in zip(prods, k) for slot, v in zip(p, row) if v}


def exponent_identities(k) -> dict:
    """check_exponent_identities at every slot (i, j) with k_ij > 0 at once.

    Identity r is the lax region _IDENTITY_REGIONS[r - 1] read on exponents: both
    its paths give the slot equal second (plain form) and first (mirrored) exponents.
    """
    return {slot: tuple(sides[r][0] == sides[r][1] for r in _IDENTITY_REGIONS)
            for slot, sides in _lax_path_exponents(k).items()}


def check_exponent_identities(k, i: int, j: int):
    """Verify the four exponent identities at slot (i, j), both mirror forms.

    i, j are 1-based with 1 <= i <= n and 1 <= j <= m_i, where k has the n
    rows of lengths m_i.  Returns a 4-tuple of booleans, one per identity;
    each is True only if both the plain and the mirrored form hold exactly.
    The sides being compared are the accumulated endomorphism exponents of
    the objects sitting at slot (i, j), so a slot with k_ij = 0 carries no
    objects and is vacuously true.
    """
    k = validate_double_seq(k)
    if not (1 <= i <= len(k)) or not (1 <= j <= len(k[i - 1])):
        raise ShapeMismatch(f"slot ({i}, {j}) outside rows {tuple(map(len, k))}")
    if k[i - 1][j - 1] == 0:
        return (True, True, True, True)
    return exponent_identities(k)[(i, j)]


# ---------------------------------------------------------------------------
# Figure instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaxInstance:
    """Data for one lax-axiom figure check: the nested objects, objects[i][j]
    the k_ij objects of slot (i, j) of row i, so that the rows m_i and the
    entries k_ij are read off them."""

    objects: tuple
    field: FieldTag


@dataclass(frozen=True)
class DuoidalInstance:
    """Data for one duoidal-axiom figure check: p lax groups of sizes
    k_1..k_p, and objects[s][i][j] for each of the n = len(objects) oplax
    factors s, i < p, j < k_i.  k is kept because with no oplax factors the
    objects do not give it; each factor's groups must have k's sizes."""

    k: tuple
    objects: tuple
    field: FieldTag

    def __post_init__(self):
        object.__setattr__(self, "k", validate_index_seq(self.k))
        for s, row in enumerate(self.objects):
            if tuple(map(len, row)) != self.k:
                raise ShapeMismatch(f"oplax factor {s} has groups of sizes "
                                    f"{tuple(map(len, row))}, k is {self.k}")


def _region_entries(regions, maps, figure: str) -> list:
    """Compose both paths of each region (steps applied left to right) and compare."""
    return [compare_entry(f"region-{name}", f"two boundary paths of the {figure} figure",
                          compose_all([maps[s] for s in reversed(left)]),
                          compose_all([maps[s] for s in reversed(right)]))
            for name, left, right in regions]


def _lax_maps(inst: LaxInstance):
    field = inst.field
    b = [[nprod(g, field) for g in row] for row in inst.objects]
    shapes = _lax_shapes(inst.objects, b, unit_object(field))
    return {step: kron_all(field, [x for groups in shapes[shape]
                                   for x in coherence_map(kind, groups)])
            for step, (kind, shape) in _LAX_STEPS.items()}, b


def check_lax_figure(inst: LaxInstance) -> CheckReport:
    """Verify the four regions of the lax-axiom figure plus the unit triangle."""
    maps, b = _lax_maps(inst)
    entries = _region_entries(_LAX_REGIONS, maps, "coherence")

    row_objs = [nprod(row, inst.field) for row in b]
    singleton = kron_all(inst.field, coherence_map(BIG_PHI, [row_objs]))
    unary = kron_all(inst.field, coherence_map(BIG_PHI, [[o] for o in row_objs]))
    ident = DenseMap.identity(inst.field, singleton.dst_dim)
    entries.append(compare_entry(
        "unit-singleton", "coherence of the full product sequence is trivial",
        singleton, ident))
    entries.append(compare_entry(
        "unit-unary", "coherence of the all-ones sequence is trivial",
        unary, ident))
    return make_report("figure-lax", entries)


def _duoidal_maps(inst: DuoidalInstance):
    """Each map named in _DUOIDAL_REGIONS.  The coherence steps come from the
    kind table the lax figure reads: <tag>:slotwise acts slot by slot on each
    oplax factor, <tag>:cols on the products of the columns.  Only the
    interchanges xi:* are built; each reversed xi:*T is their transpose, for a
    permutation its inverse.  xi:blocks reads only the dimensions of the
    products objs[s][i], so block_dims[s][i] stands for them."""
    k, objs, field = inst.k, inst.objects, inst.field
    n, p = len(objs), len(k)
    flat_rows = [[o for g in objs[s] for o in g] for s in range(n)]
    block_dims = [[math.prod(o.dim for o in objs[s][i]) for i in range(p)] for s in range(n)]
    cols = [[nprod([objs[s][i][j] for s in range(n)], field)
             for j in range(k[i])] for i in range(p)]
    maps = {
        "xi:flat": xi_map(flat_rows, field),
        "xi:blocks": flip_perm(p, n, [d for row in block_dims for d in row], field),
        "xi:groups": kron_all(field, [xi_map([row[i] for row in objs], field)
                                      for i in range(p)]),
    }
    maps |= {f"{name}T": xi.transpose() for name, xi in maps.items()}
    for tag, which in _STEP_KINDS.items():
        maps[f"{tag}:slotwise"] = kron_all(
            field, [x for row in objs for x in coherence_map(which, row)])
        maps[f"{tag}:cols"] = kron_all(field, coherence_map(which, cols))
    return maps, block_dims


def check_duoidal_figure(inst: DuoidalInstance) -> CheckReport:
    """Verify the four interchange regions plus the two unit triangles, whose
    interchanges read only the dimensions of the row and column products."""
    maps, block_dims = _duoidal_maps(inst)
    field = inst.field
    entries = _region_entries(_DUOIDAL_REGIONS, maps, "interchange")

    tri_lax = flip_perm(1, len(block_dims), [math.prod(row) for row in block_dims], field)
    entries.append(compare_entry(
        "triangle-unary-lax", "interchange against a single lax factor is trivial",
        tri_lax, DenseMap.identity(field, tri_lax.dst_dim)))
    col_dims = [math.prod(row[i] for row in block_dims) for i in range(len(inst.k))]
    tri_oplax = flip_perm(len(inst.k), 1, col_dims, field)
    entries.append(compare_entry(
        "triangle-unary-oplax", "interchange against a single oplax factor is trivial",
        tri_oplax, DenseMap.identity(field, tri_oplax.dst_dim)))
    return make_report("figure-duoidal", entries)


# ---------------------------------------------------------------------------
# Random instances for the randomized suites
# ---------------------------------------------------------------------------

_DIM_CAP = 4096


def random_diagonal_endo(rng, field: FieldTag, dim: int) -> DenseMap:
    """A diagonal endomorphism with random entries, built from its diagonal:
    the identity index map when every entry is 1, as from_flat keeps it, and
    a dense map otherwise."""
    if field.kind == "prime_field":
        diag = [rng.randrange(field.modulus) for _ in range(dim)]
    else:
        diag = [rng.randint(-3, 3) for _ in range(dim)]
    if diag.count(1) == dim:
        return DenseMap.identity(field, dim)
    _check_budget(dim, dim)
    num = np.zeros((dim, dim), dtype=object if max(diag) >= 1 << 62 else np.int64)
    np.fill_diagonal(num, diag)
    return _canonical(field, num)


def random_object(rng, field: FieldTag, max_dim: int, four: bool) -> BiHomObject:
    dim = rng.randint(1, max_dim)
    alpha = random_diagonal_endo(rng, field, dim)
    beta = random_diagonal_endo(rng, field, dim)
    if four:
        return BiHomObject._trusted(dim, field, alpha, beta,
                                    random_diagonal_endo(rng, field, dim),
                                    random_diagonal_endo(rng, field, dim))
    return BiHomObject._trusted(dim, field, alpha, beta)


def random_lax_instance(rng, field: FieldTag, max_n: int = 2, max_m: int = 2,
                        max_k: int = 2, max_dim: int = 2) -> LaxInstance:
    while True:
        k = random_double_seq(rng, max_n, max_m, max_k)
        if max_dim ** sum(sum(r) for r in k) <= _DIM_CAP:
            break
    objects = tuple(tuple([random_object(rng, field, max_dim, four=False) for _ in range(v)]
                          for v in row) for row in k)
    return LaxInstance(objects, field)


def random_duoidal_instance(rng, field: FieldTag, max_n: int = 2, max_p: int = 2,
                            max_k: int = 2, max_dim: int = 2) -> DuoidalInstance:
    while True:
        n = rng.randint(0, max_n)
        p = rng.randint(0, max_p)
        k = tuple(rng.randint(0, max_k) for _ in range(p))
        if max_dim ** (n * sum(k)) <= _DIM_CAP:
            break
    objects = tuple(
        tuple([random_object(rng, field, max_dim, four=True)
               for _ in range(k[i])] for i in range(p))
        for _ in range(n))
    return DuoidalInstance(k, objects, field)


def random_double_seq(rng, max_n: int = 4, max_m: int = 3, max_k: int = 4) -> tuple:
    """A double sequence k: n rows, then the row lengths m_i, then the entries."""
    n = rng.randint(0, max_n)
    m = [rng.randint(0, max_m) for _ in range(n)]
    return tuple(tuple(rng.randint(0, max_k) for _ in range(row)) for row in m)
