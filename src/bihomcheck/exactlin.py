"""Exact scalar fields and linear algebra on matrices.

Every morphism handled by the kernel is a matrix over an exact field:
arbitrary-precision rationals or a prime field F_p.  Both fields share one
integer kernel (see DenseMap): numerators over a common denominator, in int64
where a per-call bound rules out overflow and in Python ints otherwise.  A
permutation map (every identity, each tensor-factor flip such as the
interchange, and every 0/1 permutation matrix that DenseMap.from_flat reads)
holds only the index array of its ones, is applied to another map by
gathering that map's rows or columns, and turns dense only when its entries
are read.  Such a gather of a canonical map is canonical as it stands, so it
is kept with no second reduction; two index maps compare on their index
arrays, and each knows, once asked, whether it is the identity.
first_difference finds the first mismatch in one pass.  Index arrays are
read-only and are checked to be bijections once, where they enter:
DenseMap.permutation checks the array, and from_flat keeps a square 0/1 matrix
with one 1 in every row and every column as one.  from_flat reads integer
entries (Python ints and integer strings below 2^63 in absolute value) once
per distinct entry, and keeps them as read when they are canonical; every
other entry goes through the per-entry parser, which words every parse error.
No operation builds a dense array of more than ENTRY_BUDGET entries; it raises
TooLarge, which the CLI reports with exit code 2.  Every exact linear system
goes through one solver, _solve, which classifies C X = B for any number of
right-hand columns; invert is _solve of [num(f) | I].  _solve first fixes
each unknown that some row holds as its only open coefficient, by exact
division, so a monomial system needs no elimination; the rest goes to one
elimination.  Over F_p it reads the reduced row echelon form mod p.  Over Q
it runs mod primes from 2^31 - 1 down, on int64 residues, and the reduced
row echelon form is rebuilt from them by rational reconstruction and kept
only after an exact integer check, which proves it is the one over Q.

Maps carry explicit source/target dimensions; a map f: V_src -> V_dst has
shape dst_dim x src_dim and composes on the left (compose(f, g) = f.g applies
g first).  Kronecker products follow the big-endian flattening convention

    index of slot (i_f, i_g) in f (x) g  =  i_f * dim_g + i_g,

fixed once and for all so that tensoring with a 1-dimensional identity is a
literal no-op on indices.  All values are immutable after construction and
every operation is pure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    NotSquare,
    ParseError,
    RowLengthMismatch,
    TooLarge,
)

RATIONALS = "rationals"
PRIME_FIELD = "prime_field"

_INT64_ENTRY_LIMIT = 1 << 62  # stored numerators below it are int64
# No operation builds a dense array of more entries (1 GiB of int64).
ENTRY_BUDGET = 1 << 27
# Elimination on int64 residues mod a prime up to _MODULAR_PRIME, the largest
# below 2^31, cannot overflow; over Q it runs mod _MODULAR_PRIME and the
# primes below it, and is certified by an exact check.
_MODULAR_PRIME = (1 << 31) - 1


# Miller-Rabin with the primes up to 41 as bases is exact below this bound.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; moduli past the exact range are refused."""
    if n >= _MILLER_RABIN_LIMIT:
        raise ParseError(f"modulus {n} is too large to test for primality")
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldTag:
    """Base field of a matrix: the rationals or F_p for a prime p."""

    kind: str
    modulus: Optional[int] = None

    def __post_init__(self):
        if self.kind == RATIONALS:
            if self.modulus is not None:
                raise ParseError("rationals carry no modulus")
        elif self.kind == PRIME_FIELD:
            if type(self.modulus) is not int:  # bool, float and numpy ints included
                raise ParseError(f"modulus {self.modulus!r} is not an int")
            if not _is_prime(self.modulus):
                raise ParseError(f"modulus {self.modulus!r} is not prime")
        else:
            raise ParseError(f"unknown field kind {self.kind!r}")

    def __str__(self):
        return "Q" if self.kind == RATIONALS else f"F_{self.modulus}"


QQ = FieldTag(RATIONALS)


@functools.lru_cache(maxsize=None, typed=True)  # one tag per modulus: checks pass by identity
def GF(p: int) -> FieldTag:
    return FieldTag(PRIME_FIELD, p)


RawScalar = Union[int, Fraction, str, "Scalar"]


def _coerce(field: FieldTag, value: RawScalar):
    """Normalize a raw value into the field: a residue mod p, or over Q a
    Python int for an int or an integer string and a Fraction otherwise."""
    if isinstance(value, Scalar):
        if value.field != field:
            raise FieldMismatch(f"scalar over {value.field}, expected {field}")
        return value.value
    if isinstance(value, str):
        return _parse(field, value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer, Fraction)):
        kind = "float" if isinstance(value, (float, np.floating)) else type(value).__name__
        raise ParseError(f"{kind} {value!r} is not an exact scalar")
    if field.kind == RATIONALS:
        return value if type(value) is int else Fraction(value)
    if isinstance(value, Fraction):
        if value.denominator != 1:
            raise FieldMismatch(f"non-integral value {value} in {field}")
        value = value.numerator
    return int(value) % field.modulus


def _parse(field: FieldTag, text: str):
    text = text.strip()
    if field.kind == RATIONALS:
        try:  # every string int() accepts, Fraction() accepts with the same value
            return int(text)
        except ValueError:
            pass
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {text!r}: {exc}") from exc
    try:
        return int(text, 10) % field.modulus
    except ValueError as exc:
        raise ParseError(f"bad residue {text!r}: {exc}") from exc


@dataclass(frozen=True)
class Scalar:
    """A field element tagged with its field."""

    field: FieldTag
    value: Union[Fraction, int]

    @staticmethod
    def of(field: FieldTag, value: RawScalar) -> "Scalar":
        v = _coerce(field, value)
        return Scalar(field, Fraction(v) if field.kind == RATIONALS else v)

    def __str__(self):
        return str(self.value)  # a Fraction prints p/q in lowest terms, or plain p


def _int64_entries(entries: Sequence[RawScalar]) -> Optional[tuple]:
    """The entries as a fresh int64 array, with the set of their values, when
    every one is a Python int or an integer string of absolute value below
    2^63, else None (-2^63 fits int64, but np.abs of it overflows).  The types
    are screened first (True == 1 as a key), then each distinct entry is read
    once; every string int() accepts, _parse accepts with the same value."""
    if not set(map(type, entries)) <= {int, str}:
        return None
    try:
        value_of = {v: int(v) for v in set(entries)}
    except ValueError:
        return None
    if all(-(1 << 63) < v < 1 << 63 for v in value_of.values()):
        return (np.fromiter(map(value_of.__getitem__, entries), np.int64, len(entries)),
                set(value_of.values()))
    return None


def _check_budget(rows: int, cols: int):
    if rows * cols > ENTRY_BUDGET:
        raise TooLarge(f"a dense {rows}x{cols} map is past the budget of "
                       f"{ENTRY_BUDGET} entries")


def _operands(maps: Sequence["DenseMap"], inner: int = 1) -> list:
    """The numerators of maps for sums of `inner` products of one entry from
    each: as stored when the product of every max|m| times inner is below
    2^63, which rules out int64 overflow, else as Python ints."""
    if math.prod(m._bound() for m in maps) * inner < 1 << 63:
        return [m._num for m in maps]
    return [m._num.astype(object) for m in maps]


def _canonical(field: FieldTag, dst_dim: int, src_dim: int,
               num: np.ndarray, den: int = 1) -> "DenseMap":
    """The map num/den, brought to canonical form: residues mod p (den is
    always 1 over F_p), or lowest terms over Q with a positive denominator;
    stored as int64 when every |numerator| < 2^62.  Over F_p num is reduced
    in place, so it must be a fresh array."""
    if field.kind == PRIME_FIELD:
        if field.modulus > _INT64_ENTRY_LIMIT:
            num = num.astype(object, copy=False)
        np.remainder(num, field.modulus, out=num)
    elif den != 1:
        g = math.gcd(den, int(np.gcd.reduce(num, axis=None))) * (1 if den > 0 else -1)
        num, den = (num // g, den // g) if num.any() else (num, 1)
    if field.kind == RATIONALS or num.dtype == object:  # residues mod p <= 2^62 fit
        small = int(np.abs(num).max(initial=0)) < _INT64_ENTRY_LIMIT
        num = num.astype(np.int64 if small else object, copy=False)
    num.flags.writeable = False
    return DenseMap(field, dst_dim, src_dim, num, den=den)


def _index_map(field: FieldTag, src_of_dst: np.ndarray) -> "DenseMap":
    """The permutation map of an index array already known to be a bijection."""
    src_of_dst.flags.writeable = False
    return DenseMap(field, src_of_dst.size, src_of_dst.size, None, src_of_dst)


def _gathered(m: "DenseMap", num: np.ndarray) -> "DenseMap":
    """The map of num, a fresh permutation gather of m's numerators: m's entries
    in new places, so canonical as m is, over m's denominator, with no reduction."""
    num.flags.writeable = False
    return DenseMap(m.field, *num.shape, num, den=m._den)


class DenseMap:
    """A linear map as a dst_dim x src_dim matrix over an exact field.

    The entries are integer numerators `_num` over one positive denominator
    `_den`, kept canonical: residues mod p over F_p (`_den` is 1), lowest
    terms over Q (so `_den` is 1 for every integral map).  `_num` is int64
    while every |numerator| < 2^62, so a sum of two cannot overflow, and
    Python ints otherwise; compose and kron work in int64 whenever
    max|A| * max|B| * inner < 2^63.  A permutation map (identities and 0/1
    permutation matrices read by from_flat included) keeps only src_of_dst
    (row i has its one in column src_of_dst[i]); its dense numerators are
    built on first read.
    """

    __slots__ = ("field", "dst_dim", "src_dim", "_dense", "_den", "_src_of_dst", "_identity")

    def __init__(self, field: FieldTag, dst_dim: int, src_dim: int,
                 array: Optional[np.ndarray], src_of_dst: Optional[np.ndarray] = None,
                 den: int = 1):
        if array is not None and array.shape != (dst_dim, src_dim):
            raise DimensionMismatch(
                f"array shape {array.shape} != ({dst_dim}, {src_dim})"
            )
        self.field = field
        self.dst_dim = dst_dim
        self.src_dim = src_dim
        self._dense = array
        self._den = den
        self._src_of_dst = src_of_dst
        self._identity = None  # whether an index map is the identity, once known

    @property
    def _num(self) -> np.ndarray:
        if self._dense is None:
            _check_budget(self.dst_dim, self.src_dim)
            arr = np.zeros((self.dst_dim, self.src_dim), dtype=np.int64)
            arr[np.arange(self.dst_dim), self._src_of_dst] = 1
            arr.flags.writeable = False
            self._dense = arr
        return self._dense

    @property
    def _a(self) -> np.ndarray:
        """The entry values; integral ones as the numerators themselves."""
        return self._num if self._den == 1 else self._values()

    def _values(self) -> np.ndarray:
        """The entries as field values: Fractions over Q, ints over F_p."""
        if self.field.kind == PRIME_FIELD:
            return self._num
        return np.frompyfunc(Fraction, 2, 1)(self._num.astype(object), self._den)

    def _bound(self) -> int:
        """An upper bound on every |numerator|; over F_p it needs no scan."""
        if self.field.kind == PRIME_FIELD:
            return self.field.modulus - 1
        return int(np.abs(self._num).max(initial=0))

    def _value(self, i: int, j: int) -> Union[Fraction, int]:
        v = int(self._num[i, j])
        return Fraction(v, self._den) if self.field.kind == RATIONALS else v

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(field: FieldTag, rows: Sequence[Sequence[RawScalar]],
                  src_dim: Optional[int] = None) -> "DenseMap":
        src = len(rows[0]) if len(rows) else (src_dim or 0)
        if src_dim is not None and src_dim != src:
            raise DimensionMismatch(f"row length {src} != src_dim {src_dim}")
        for i, row in enumerate(rows):
            if len(row) != src:
                raise RowLengthMismatch(f"row {i} has length {len(row)}, expected {src}")
        return DenseMap.from_flat(field, len(rows), src, [v for row in rows for v in row])

    @staticmethod
    def from_flat(field: FieldTag, dst_dim: int, src_dim: int,
                  entries: Sequence[RawScalar]) -> "DenseMap":
        if len(entries) != dst_dim * src_dim:
            raise DimensionMismatch(f"{len(entries)} entries for a {dst_dim}x{src_dim} map")
        found, p = _int64_entries(entries), field.modulus
        if found is None:  # the per-entry path, which also words every error
            values, den = [_coerce(field, v) for v in entries], 1
            fractions = [v for v in values if type(v) is not int]  # empty over F_p
            if fractions:
                den = math.lcm(*(v.denominator for v in fractions))
                values = [v.numerator * (den // v.denominator) for v in values]
            num = np.array(values, dtype=object).reshape(dst_dim, src_dim)
            m = _canonical(field, dst_dim, src_dim, num, den)
        else:  # canonical as read when _canonical would leave every value as it is
            num, values = found[0].reshape(dst_dim, src_dim), found[1]
            limit = min(p or _INT64_ENTRY_LIMIT, _INT64_ENTRY_LIMIT)  # residues, or |numerators|
            if all(-limit < v < limit and (v >= 0 or p is None) for v in values):
                num.flags.writeable = False
                m = DenseMap(field, dst_dim, src_dim, num)
            else:
                m = _canonical(field, dst_dim, src_dim, num)
                values = {v % p for v in values} if p else values
        # values holds m's numerators: a 0/1 permutation matrix is kept as its index array
        if dst_dim == src_dim and m._den == 1 and {0, 1}.issuperset(values):
            rows, cols = np.nonzero(m._num)  # one 1 in every row and every column
            if (rows.size == dst_dim and np.bincount(rows, minlength=dst_dim).all()
                    and np.bincount(cols, minlength=dst_dim).all()):
                return _index_map(field, cols)
        return m

    @staticmethod
    def permutation(field: FieldTag, src_of_dst) -> "DenseMap":
        """The 0/1 map whose row i has its one in column src_of_dst[i]."""
        idx = np.array(src_of_dst, dtype=np.intp).reshape(-1)
        if not np.array_equal(np.sort(idx), np.arange(idx.size)):
            raise DimensionMismatch(f"not a permutation of range({idx.size})")
        return _index_map(field, idx)

    @staticmethod
    def identity(field: FieldTag, n: int) -> "DenseMap":
        m = _index_map(field, np.arange(n))
        m._identity = True
        return m

    @staticmethod
    def zero(field: FieldTag, dst_dim: int, src_dim: int) -> "DenseMap":
        return _canonical(field, dst_dim, src_dim,
                          np.zeros((dst_dim, src_dim), dtype=np.int64))

    # -- views -------------------------------------------------------------

    def entry(self, i: int, j: int) -> Scalar:
        return Scalar(self.field, self._value(i, j))

    def rows(self):
        """Entries as nested lists of canonical raw values (row-major)."""
        return self._values().tolist()

    def value_blocks(self):
        """The entries a block of rows at a time, as (rows, values): values
        lists the field values of those rows, row-major, so that no more than
        one block is held as Python values."""
        step = max(1, (1 << 16) // max(self.src_dim, 1))
        for start in range(0, self.dst_dim, step):
            num = self._num[start:start + step]
            block = DenseMap(self.field, len(num), self.src_dim, num, den=self._den)
            yield len(num), block._a.reshape(-1).tolist()

    def flat_strings(self):
        return [str(v) for _, values in self.value_blocks() for v in values]

    @property
    def entries(self):
        return tuple(Scalar(self.field, v) for v in self._values().reshape(-1).tolist())

    def is_square(self) -> bool:
        return self.dst_dim == self.src_dim

    def is_identity(self) -> bool:
        """For an index map, computed at most once and kept."""
        if self._src_of_dst is not None:
            if self._identity is None:
                self._identity = bool((self._src_of_dst == np.arange(self.dst_dim)).all())
            return self._identity
        return self.is_square() and self == DenseMap.identity(self.field, self.dst_dim)

    def __repr__(self):
        return f"DenseMap({self.field}, {self.dst_dim}x{self.src_dim})"

    def __eq__(self, other):
        if not isinstance(other, DenseMap):
            return NotImplemented
        if (self.field, self.dst_dim, self.src_dim, self._den) != (
                other.field, other.dst_dim, other.src_dim, other._den):
            return False
        if self._src_of_dst is not None and other._src_of_dst is not None:
            return bool(np.array_equal(self._src_of_dst, other._src_of_dst))
        return bool(np.array_equal(self._num, other._num))

    def __hash__(self):
        return hash((self.field, self.dst_dim, self.src_dim, self._den,
                     tuple(self._num.reshape(-1).tolist())))

    def first_difference(self, other: "DenseMap"):
        """First (row, col, lhs, rhs) where the two maps differ, else None; one
        pass of !=, whose argmax is the first mismatch in row-major order.
        Two index maps with equal index arrays are equal, as in __eq__."""
        if self.dst_dim != other.dst_dim or self.src_dim != other.src_dim:
            raise DimensionMismatch("comparing maps of different shapes")
        if self._src_of_dst is not None and other._src_of_dst is not None and \
                np.array_equal(self._src_of_dst, other._src_of_dst):
            return None
        a, b, _ = _common_denominator(self, other)
        ne = a != b
        if not ne.any():
            return None
        i, j = divmod(int(ne.argmax()), self.src_dim)
        return (i, j, str(self._value(i, j)), str(other._value(i, j)))

    # -- algebra -----------------------------------------------------------

    def _check_field(self, other: "DenseMap"):
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __matmul__(self, other: "DenseMap") -> "DenseMap":
        return compose(self, other)

    def _entrywise(self, other: "DenseMap", op, verb: str) -> "DenseMap":
        self._check_field(other)
        if (self.dst_dim, self.src_dim) != (other.dst_dim, other.src_dim):
            raise DimensionMismatch(f"{verb} maps of different shapes")
        a, b, den = _common_denominator(self, other)
        return _canonical(self.field, self.dst_dim, self.src_dim, op(a, b), den)

    def __add__(self, other: "DenseMap") -> "DenseMap":
        return self._entrywise(other, np.add, "adding")

    def __sub__(self, other: "DenseMap") -> "DenseMap":
        return self._entrywise(other, np.subtract, "subtracting")

    def scale(self, value: RawScalar) -> "DenseMap":
        v = _coerce(self.field, value)
        return _canonical(self.field, self.dst_dim, self.src_dim,
                          self._num.astype(object) * v.numerator, self._den * v.denominator)

    def with_entry(self, i: int, j: int, value: RawScalar) -> "DenseMap":
        v = _coerce(self.field, value)
        num = self._num.astype(object) * v.denominator
        num[i, j] = v.numerator * self._den
        return _canonical(self.field, self.dst_dim, self.src_dim, num, self._den * v.denominator)

    def transpose(self) -> "DenseMap":
        if self._src_of_dst is not None:
            return _index_map(self.field, np.argsort(self._src_of_dst))
        # a read-only view: the numerators of a canonical map stay canonical
        return DenseMap(self.field, self.src_dim, self.dst_dim, self._num.T, den=self._den)

    def power(self, k: int) -> "DenseMap":
        """k-th composition power (k >= 0, square map), squaring from the top
        bit of k down: bit_length(k) - 1 squarings, popcount(k) - 1 products."""
        if not self.is_square():
            raise NotSquare("powering a non-square map")
        if k < 0:
            raise ValueError("negative power")
        if k == 0:
            return DenseMap.identity(self.field, self.dst_dim)
        result = self
        for bit in bin(k)[3:]:
            result = compose(result, result)
            if bit == "1":
                result = compose(result, self)
        return result


def _common_denominator(f: DenseMap, g: DenseMap):
    """The numerators of f and g over one denominator, and that denominator.
    Stored numerators are below 2^62, so int64 sums of two cannot overflow."""
    if f._den == g._den:
        return f._num, g._num, f._den
    return f._num.astype(object) * g._den, g._num.astype(object) * f._den, f._den * g._den


def compose(f: DenseMap, g: DenseMap) -> DenseMap:
    """Matrix product f.g (g applied first).  With an index map on either
    side it is a gather of the other's rows or columns, kept as it stands."""
    f._check_field(g)
    if f.src_dim != g.dst_dim:
        raise DimensionMismatch(
            f"compose: f is {f.dst_dim}x{f.src_dim}, g is {g.dst_dim}x{g.src_dim}"
        )
    fp, gp = f._src_of_dst, g._src_of_dst
    if fp is not None and gp is not None:
        return _index_map(f.field, gp[fp])
    if fp is not None:
        return _gathered(g, g._num[fp])
    if gp is not None:
        return _gathered(f, f._num[:, np.argsort(gp)])
    _check_budget(f.dst_dim, g.src_dim)
    num = np.dot(*_operands((f, g), f.src_dim))
    return _canonical(f.field, f.dst_dim, g.src_dim, num, f._den * g._den)


def compose_all(maps: Sequence[DenseMap]) -> DenseMap:
    """Compose a chain left to right: compose_all([f, g, h]) = f.(g.h), the
    products formed from the right.  Diagram sides apply their Kronecker
    factors leg by leg (kron_compose), so the chains left are pairs, or chains
    of square maps, on which every association order costs the same."""
    if not maps:
        raise ValueError("empty composition chain")
    out = maps[-1]
    for f in reversed(maps[:-1]):
        out = compose(f, out)
    return out


def kron(f: DenseMap, g: DenseMap) -> DenseMap:
    """Kronecker product under the global big-endian index flattening."""
    f._check_field(g)
    if f._src_of_dst is not None and g._src_of_dst is not None:
        return _index_map(
            f.field, (f._src_of_dst[:, None] * g.src_dim + g._src_of_dst).reshape(-1))
    dst_dim, src_dim = f.dst_dim * g.dst_dim, f.src_dim * g.src_dim
    _check_budget(dst_dim, src_dim)
    a, b = _operands((f, g))
    num = a[:, None, :, None] * b[None, :, None, :]
    return _canonical(f.field, dst_dim, src_dim, num.reshape(dst_dim, src_dim),
                      f._den * g._den)


def kron_all(field: FieldTag, maps: Iterable[DenseMap]) -> DenseMap:
    """Kronecker product of maps over field, folded from the first: n maps
    cost n - 1 kron calls, and the empty product is the 1x1 identity."""
    maps = list(maps)
    for m in maps:
        if m.field is not field and m.field != field:
            raise FieldMismatch(f"{field} vs {m.field}")
    return functools.reduce(kron, maps) if maps else DenseMap.identity(field, 1)


def kron_compose(field: FieldTag, factors: Sequence[DenseMap], g: DenseMap) -> DenseMap:
    """compose(kron_all(field, factors), g), without the Kronecker product:
    the rows of g form one tensor leg per factor, and each factor acts on its
    own leg (Van Loan, J. Comput. Appl. Math. 123, 2000).  Identities are
    skipped, other permutations re-index their leg by a gather kept as it
    stands, and every other factor is contracted into it under the overflow
    guard and entry budget of compose, those that shrink their leg (a counit) first."""
    for m in (*factors, g):
        if m.field is not field and m.field != field:
            raise FieldMismatch(f"{field} vs {m.field}")
    legs = [f.src_dim for f in factors]
    if math.prod(legs) != g.dst_dim:
        raise DimensionMismatch(f"kron_compose: factors on {legs}, g is {g.dst_dim}x{g.src_dim}")
    out = g
    for i in sorted(range(len(factors)), key=lambda i: factors[i].dst_dim - factors[i].src_dim):
        f, p = factors[i], factors[i]._src_of_dst
        if p is not None and f.is_identity():
            continue
        lead, trail = math.prod(legs[:i]), math.prod(legs[i + 1:]) * g.src_dim
        legs[i] = f.dst_dim
        _check_budget(rows := math.prod(legs), g.src_dim)
        if p is not None:
            num = out._num.reshape(lead, f.src_dim, trail)[:, p]
            out = _gathered(out, num.reshape(rows, g.src_dim))
        else:
            a, b = _operands((f, out), f.src_dim)
            num = (a @ b.reshape(lead, f.src_dim, trail)).reshape(rows, g.src_dim)
            out = _canonical(field, rows, g.src_dim, num, f._den * out._den)
    return out


def _reduce_mod(a: np.ndarray, p: int):
    """Gauss-Jordan elimination of the integer array a mod a prime p; the
    pivot is the first nonzero row at or below the current one.  The pivot
    row is scaled to 1 and subtracted only from the rows with a nonzero entry
    in its column; a swap, scaling or elimination that would change nothing
    is skipped.  The residues are int64 for p < 2^31, where each product of
    two of them is below 2^62 and nothing overflows, and Python ints
    otherwise.  Returns the reduced row echelon form of a mod p, as a fresh
    array, and its pivot columns."""
    num = (np.remainder(a, p).astype(np.int64, copy=False) if p <= _MODULAR_PRIME
           else np.remainder(a.astype(object), p))
    pivots = []
    for col in range(num.shape[1]):
        r = len(pivots)
        nonzero = num[r:, col].nonzero()[0]
        if not nonzero.size:
            continue
        if nonzero[0]:
            num[[r, r + nonzero[0]]] = num[[r + nonzero[0], r]]
        # rows r and below are zero left of col, so only columns col on change
        if num[r, col] != 1:
            num[r, col:] = num[r, col:] * pow(int(num[r, col]), -1, p) % p
        rows = num[:, col].nonzero()[0]
        rows = rows[rows != r]
        if rows.size:
            num[rows, col:] = (num[rows, col:] - num[rows, col:col + 1] * num[r, col:]) % p
        pivots.append(col)
    return num, pivots


def _reconstruct(residues: np.ndarray, p: int) -> Optional[DenseMap]:
    """The rationals n/d with |n|, d <= sqrt(p/2) and n = d * residue mod p,
    entrywise, as a map over Q (Wang, SYMSAC 1981: the extended Euclidean
    algorithm on (p, residue), stopped at the first remainder within the
    bound); None when some entry has no such d."""
    bound = math.isqrt(p // 2)
    r0, r1 = np.full_like(residues, p), residues.copy()
    t0, t1 = np.zeros_like(residues), np.ones_like(residues)
    while (live := r1 > bound).any():
        q = r0[live] // r1[live]
        r0[live], r1[live] = r1[live], r0[live] - q * r1[live]
        t0[live], t1[live] = t1[live], t0[live] - q * t1[live]
    den = np.abs(t1)
    if (den > bound).any():
        return None
    lcm = math.lcm(*np.unique(den).tolist())
    num = (r1 * np.sign(t1)).astype(object) * (lcm // den.astype(object))
    return _canonical(QQ, *residues.shape, num, lcm)


def _rref_over_q(a: np.ndarray):
    """The reduced row echelon form R over Q of the integer array a, as the
    numerators of its nonzero rows, its pivot columns and the numerators'
    denominator; multimodular, as FLINT's fmpz_mat_rref_mul.  a is reduced mod
    the primes from _MODULAR_PRIME down.  Rank and pivots can only get worse
    mod p, so the primes with the best pivots seen (the most, then the
    lexicographically first) are combined by the Chinese remainder theorem,
    a worse prime is skipped and a better one starts afresh.  The entries of
    R off its pivot columns are rebuilt by _reconstruct and kept once
    a[:, free] = a[:, pivots] R[:, free] holds exactly.  That check proves R
    is the reduced row echelon form over Q: its pivot columns of a, being
    independent mod p, are independent over Q.  Only finitely many primes
    are unlucky, and the Hadamard bound caps the modulus R needs, so the
    loop ends."""
    rows, width = a.shape
    best, p = None, _MODULAR_PRIME
    while True:
        num, pivots = _reduce_mod(a, p)
        rank = len(pivots)
        if pivots == best:
            step = (num[:rank, free] - residues) * pow(modulus, -1, p) % p
            residues = residues.astype(object) + modulus * step.astype(object)
            modulus, count = modulus * p, count + 1
        elif best is None or (-rank, pivots) < (-len(best), best):
            free = np.delete(np.arange(width), pivots)
            best, residues, modulus, count = pivots, num[:rank, free], p, 1
        # reconstruct at 1, 2, 4, ... primes, so that the attempts cost at
        # most about twice the last one
        if (pivots == best and count & (count - 1) == 0
                and (x := _reconstruct(residues, modulus)) is not None):
            if compose(DenseMap(QQ, rows, rank, a[:, pivots]), x) == \
                    DenseMap(QQ, rows, free.size, a[:, free]):
                break
        p = next(q for q in range(p - 2, 2, -2) if _is_prime(q))
    rref = np.zeros((rank, width), dtype=x._num.dtype if x._den < _INT64_ENTRY_LIMIT else object)
    rref[:, free] = x._num
    rref[np.arange(rank), pivots] = x._den
    return rref, pivots, x._den


def invert(f: DenseMap) -> Optional[DenseMap]:
    """Exact inverse, or None if singular: an index map by its inverse index
    array, every other map by _solve of [num(f) | I]."""
    if not f.is_square():
        raise NotSquare(f"inverting a {f.dst_dim}x{f.src_dim} map")
    if f._src_of_dst is not None:
        return f.transpose()
    n = f.dst_dim
    augmented = np.hstack((f._num, np.identity(n, dtype=np.int64)))
    status, num, d = _solve(DenseMap(f.field, n, 2 * n, augmented), n)
    if status != UNIQUE:
        return None
    inv = _canonical(f.field, n, n, num, d)  # num(f)^-1, and f^-1 = den(f) num(f)^-1
    return inv if f._den == 1 else inv.scale(f._den)


UNIQUE = "unique"
NO_SOLUTION = "none"
UNDERDETERMINED = "underdetermined"


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact linear solve.

    status is one of 'unique', 'none', 'underdetermined'; solution carries the
    unique solution, or one particular witness in the underdetermined case.
    """

    status: str
    solution: Optional[tuple] = None


def solve_linear(system: Sequence[tuple], unknowns: int,
                 field: FieldTag) -> SolveResult:
    """Classify and solve a linear system given as (coefficient-row, rhs) pairs."""
    for idx, (coeffs, _) in enumerate(system):
        if len(coeffs) != unknowns:
            raise RowLengthMismatch(
                f"row {idx} has {len(coeffs)} coefficients, expected {unknowns}"
            )
    augmented = DenseMap.from_flat(field, len(system), unknowns + 1,
                                   [v for coeffs, rhs in system for v in (*coeffs, rhs)])
    status, solution, d = _solve(augmented, unknowns)
    if status == NO_SOLUTION:
        return SolveResult(NO_SOLUTION)
    return SolveResult(status, _canonical(field, unknowns, 1, solution, d).entries)


def _eliminate(a: np.ndarray, unknowns: int, p: Optional[int]):
    """_solve of the whole augmented array a, from its reduced row echelon
    form: by _reduce_mod over F_p, certified by _rref_over_q over Q."""
    if p is None:
        num, pivots, d = _rref_over_q(a)
    else:
        (num, pivots), d = _reduce_mod(a, p), 1
    if pivots and pivots[-1] >= unknowns:
        return NO_SOLUTION, None, None
    solution = np.zeros((unknowns, a.shape[1] - unknowns), dtype=num.dtype)
    solution[pivots] = num[:len(pivots), unknowns:]
    return (UNIQUE if len(pivots) == unknowns else UNDERDETERMINED), solution, d


def _substitute(b: np.ndarray, scale: int, c: np.ndarray, x: np.ndarray, p: Optional[int]):
    """b * scale - c x, mod p over F_p; in int64 when the bounds of _operands
    (p - 1 over F_p) rule out overflow, else in Python ints."""
    top = [p - 1 if p else max(int(np.abs(m).max(initial=0)), 1) for m in (b, c, x)]
    dtype = np.int64 if top[0] * scale + top[1] * top[2] * c.shape[1] < 1 << 63 else object
    out = b.astype(dtype) * scale - c.astype(dtype) @ x.astype(dtype)
    return out if p is None else out % p


def _solve(augmented: DenseMap, unknowns: int):
    """Classify and solve C X = B from the augmented map [C | B], for every
    column of B at once.  Returns the status, then the numerators of a
    solution X as a fresh array (every free unknown zero in each column) and
    their denominator; both are None when some column has no solution.

    A presolve fixes, round after round, each unknown j that some row r (the
    first) holds as its only open coefficient: x_j = b_r / c_rj exactly, mod
    p over F_p, and over Q as numerators over one running denominator that
    also scales the right-hand sides; C[:, J] x_J leaves them, and row r and
    column j close.  Nothing is reconstructed, so nothing needs a
    certificate.  A fixed unknown has one value in every solution, so its
    column is a pivot column of the reduced row echelon form, and closing it
    with its row leaves the rest of that form as it was: a row with no open
    coefficient left must have a zero right-hand side, and _eliminate of the
    open rows and columns gives the whole system's status and witness (of
    all of it when no row has a single coefficient).  Neither status nor
    solution depends on the order of the rows."""
    p, a = augmented.field.modulus, augmented._num
    c, b = a[:, :unknowns], a[:, unknowns:]
    count = np.count_nonzero(c, axis=1)  # the open coefficients of each row
    fixed = np.zeros(unknowns, dtype=bool)
    x, den = np.zeros((unknowns, b.shape[1]), dtype=object), 1
    while (single := np.flatnonzero(count == 1)).size:
        cols, first = np.unique(((c[single] != 0) & ~fixed).argmax(axis=1), return_index=True)
        rows, pivots = single[first], c[single[first], cols].tolist()
        scale = math.lcm(*pivots) if p is None else 1
        factors = [scale // v if p is None else pow(v, -1, p) for v in pivots]
        x, den = x * scale, den * scale
        values = b[rows].astype(object) * np.array(factors, dtype=object)[:, None]
        x[cols] = values if p is None else values % p
        b = _substitute(b, scale, c[:, cols], x[cols], p)
        count -= np.count_nonzero(c[:, cols], axis=1)
        fixed[cols] = True
    if not fixed.any():
        return _eliminate(a, unknowns, p)
    if b[count == 0].any():
        return NO_SOLUTION, None, None
    if fixed.all():
        return UNIQUE, x, den
    status, y, d = _eliminate(np.hstack((c[count > 0][:, ~fixed], b[count > 0])), (~fixed).sum(), p)
    if status == NO_SOLUTION:
        return status, None, None
    x = x * d
    x[~fixed] = y
    return status, x, den * d
