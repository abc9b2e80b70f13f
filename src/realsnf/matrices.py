"""Matrices over the supported rings: Smith reduction, minors, determinants.

The Smith routine runs the classical pivot-to-smallest-size reduction.  It
has row operations only, and column work is done as row work on the
transpose, since M^T = Q^T * D^T * P^T.  A Bezout step applies the block
:func:`rings.xgcd` returns.  The divisibility chain is then enforced by the
gcd/lcm fix-up on diagonal pairs, and each diagonal entry is scaled to its
canonical associate.  :func:`smith_diagonals` reduces D alone, while
:func:`smith_normal_form` keeps two companions beside it, starting as
identities, and mirrors each row operation E on D by (E^-1)^T on the
matching companion rows, to build P and Q with M = P * D * Q.  Determinants
use fraction-free (Bareiss) elimination, which stays inside the ring;
:func:`symmetric_elimination` runs it with diagonal pivots, which are
principal minors, and hands over k x k minors from a block it left: k = n - 1
at full rank (det M is the last pivot), k = r at rank r < n.  Their ideal
holds a modulus G that d_1 * ... * d_k divides (:func:`rings.ideal_element`).
:func:`smith_diagonals`, handed the elimination (``verify`` has it from
:func:`spectrum.psd_decision`), reads d_1, ..., d_k off G when it is a unit;
otherwise, over Z and the quadratic rings, it splits off the entries that
are units modulo G by Schur complements modulo G, each a diagonal 1, and
reduces a nonzero block left modulo G; it reduces M from scratch over Q[x]
or when G = 0, which is when the elimination got stuck.  :func:`verify_snf`
certifies a result from M = P*D*Q, unimodular P and Q and the divisibility
chain, which by uniqueness of invariant factors is a proof; the exponential
:func:`minor_gcd_profile` is kept as an independent oracle for the tests.

The Bareiss update of :func:`determinant` and :func:`symmetric_elimination`
and the Schur update of :func:`_unit_pivots` keep one pivot rule for every
ring; only their entry arithmetic is a per-family fact
(:func:`_entry_arithmetic`), with the residues and inverses modulo G that
the Schur update takes: ints over Z (:class:`_IntArithmetic`); over Q[x]
packed ints, each entry of L * M as its value at x = 2**b, with L clearing
the denominators and b fixed per matrix by a bound on every minor's
coefficients (Kronecker substitution; :class:`_PackedArithmetic`), so the
same integer update runs; over the quadratic rings int pairs
(:class:`quadratic.PairArithmetic`).  Elements are built only for the
pivots, the minors handed over, the determinant and the block left.  The
product test of :func:`verify_snf` runs one loop on the same arithmetic
(:func:`_reproduces`), over Q[x] at a b bounded by the coefficients of both
sides, so that equal values prove equal entries; it builds no element.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from operator import mul
from typing import Iterable, Sequence

from . import quadratic, rings
from .errors import (
    NotSquareError,
    ParseError,
    ShapeMismatchError,
    SizeLimitError,
)
from .polynomials import (
    RatPoly,
    denominator_lcm,
    kronecker_layout,
    kronecker_pack,
    kronecker_unpack,
    row_primitive_scale,
    scaled_norm,
)
from .rings import Element
from .ringspec import RingFamily, RingSpec, parse_ring

MINOR_ENUMERATION_LIMIT = 6


@dataclass(frozen=True)
class Matrix:
    """Immutable row-major matrix with entries in a single ring: a tuple of
    nonempty, equal-length rows, from which the shape is read.  With no rows
    it is 0 x 0; an empty row is refused, since a k x 0 matrix would
    transpose to 0 x 0."""

    entries: tuple[tuple[Element, ...], ...]
    ring: RingSpec

    def __post_init__(self) -> None:
        if any(not row or len(row) != self.n_cols for row in self.entries):
            raise ShapeMismatchError("rows must be nonempty and of equal length")

    @property
    def n_rows(self) -> int:
        return len(self.entries)

    @property
    def n_cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[object]], ring: RingSpec) -> "Matrix":
        if not rows:
            raise ShapeMismatchError("a matrix needs at least one row")
        return cls(tuple(tuple(rings.coerce(v, ring) for v in row) for row in rows), ring)

    @classmethod
    def identity(cls, n: int, ring: RingSpec) -> "Matrix":
        one, zero = rings.one(ring), rings.zero(ring)
        rows = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        return cls(rows, ring)

    def __getitem__(self, key: tuple[int, int]) -> Element:
        i, j = key
        return self.entries[i][j]

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.entries)), self.ring)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ring != other.ring:
            raise ShapeMismatchError("matrix product across different rings")
        if self.n_cols != other.n_rows:
            raise ShapeMismatchError(
                f"cannot multiply {self.n_rows}x{self.n_cols} by {other.n_rows}x{other.n_cols}"
            )
        out = []
        for i in range(self.n_rows):
            row = []
            for j in range(other.n_cols):
                acc = rings.zero(self.ring)
                for k in range(self.n_cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(tuple(row))
        return Matrix(tuple(out), self.ring)

    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.n_rows)
            for j in range(i + 1, self.n_cols)
        )

    def is_diagonal(self) -> bool:
        return not any(
            self.entries[i][j] for i in range(self.n_rows) for j in range(self.n_cols) if i != j
        )

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        rows = tuple(tuple(self.entries[i][j] for j in col_idx) for i in row_idx)
        return Matrix(rows, self.ring)

    def to_json(self) -> dict:
        return {
            "ring": str(self.ring),
            "rows": self.n_rows,
            "cols": self.n_cols,
            "entries": [[str(v) for v in row] for row in self.entries],
        }


def matrix_from_json(data: object, ring: RingSpec | None = None) -> Matrix:
    """Accept either {"ring", "rows", "cols", "entries"} or a bare 2D array."""
    if isinstance(data, dict):
        declared = data.get("ring")
        if declared is not None:
            declared_ring = parse_ring(str(declared))
            if ring is not None and declared_ring != ring:
                raise ParseError(
                    f"field 'ring': {declared!r} conflicts with requested {ring}"
                )
            ring = declared_ring
        if ring is None:
            raise ParseError("field 'ring': missing and no ring was requested")
        m = _parse_entries(data.get("entries"), ring)
        for field, size in (("rows", m.n_rows), ("cols", m.n_cols)):
            value = data.get(field, size)
            if type(value) is not int or value != size:  # bool and float are not JSON integers
                raise ParseError(
                    f"field {field!r}: expected the integer {size} to match 'entries', "
                    f"got {value!r}"
                )
        return m
    if isinstance(data, list):
        if ring is None:
            raise ParseError("a bare entry array needs an explicit ring")
        return _parse_entries(data, ring)
    raise ParseError(f"matrix must be an object or 2D array, got {data!r}")


def _parse_entries(entries: object, ring: RingSpec) -> Matrix:
    """The matrix of parsed elements, built from them as they are (``from_rows``
    would check them again); errors name the offending entries[i] or entries[i][j]."""
    if not isinstance(entries, list) or not entries:
        raise ParseError(f"field 'entries': expected a nonempty 2D array, got {entries!r}")
    rows = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or not row:
            raise ParseError(f"field 'entries[{i}]': expected a nonempty array, got {row!r}")
        if len(row) != len(entries[0]):
            raise ParseError(
                f"field 'entries[{i}]': expected {len(entries[0])} entries like "
                f"entries[0], got {len(row)}"
            )
        parsed = []
        for j, v in enumerate(row):
            try:
                parsed.append(rings.parse_element(v, ring))
            except ParseError as exc:
                raise ParseError(f"field 'entries[{i}][{j}]': {exc}") from None
        rows.append(tuple(parsed))
    return Matrix(tuple(rows), ring)


# -- determinants ---------------------------------------------------------------


def determinant(m: Matrix) -> Element:
    """Exact determinant via fraction-free (Bareiss) elimination, on the ring's
    entry arithmetic (:func:`_entry_arithmetic`), with a row swap where the
    diagonal entry is zero."""
    if not m.is_square():
        raise NotSquareError(f"determinant of a {m.n_rows}x{m.n_cols} matrix")
    if not m.entries:
        return rings.one(m.ring)  # the empty product
    arithmetic = _entry_arithmetic(m)
    rows = [arithmetic.load(row) for row in m.entries]
    n = len(rows)
    sign_flip = False
    prev = None
    for k in range(n - 1):
        if not rows[k][k]:
            pivot_row = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if pivot_row is None:
                return arithmetic.elements([0], [n])[0]  # a zero column below the diagonal
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign_flip = not sign_flip
        p, pivot_row, columns = rows[k][k], rows[k], list(range(k + 1, n))
        update = arithmetic.bareiss(p, prev)
        for row in rows[k + 1 :]:
            update(row, row[k], pivot_row, columns)
        prev = p
    det = arithmetic.elements([rows[n - 1][n - 1]], [n])[0]
    return -det if sign_flip else det


@dataclass(frozen=True)
class Elimination:
    """What :func:`symmetric_elimination` finds in a symmetric n x n M.

    ``pivots`` are principal minors, all nonzero; ``stuck`` says the
    elimination stopped on a nonzero block with a zero diagonal.  Otherwise
    M has rank r = len(pivots), and ``minors`` are some of its k x k minors,
    k = ``order``, whose gcd is a multiple of d_1 * ... * d_k: at full rank
    three (n-1) x (n-1) minors (k = n - 1, and det M is the last pivot), at
    rank r < n every r x r minor in the block left before the last pivot
    (k = r).  A stuck elimination hands over none.
    """

    pivots: tuple[Element, ...]
    stuck: bool
    minors: tuple[Element, ...] = ()
    order: int = 0

    @property
    def rank(self) -> int | None:
        """The rank of M, unknown (None) when the elimination got stuck."""
        return None if self.stuck else len(self.pivots)


def _int_bareiss(p: int, prev: int | None):
    """The Bareiss round on the pivot p after the pivot prev (None in the
    first round), on ints: ``update(row, b, pivot_row, columns)`` sets each
    entry v of ``row`` in ``columns`` to (v * p - b * c) / prev, where b is
    the row's entry in the pivot column and c the pivot row's in v's."""

    def update(row: list, b: int, pivot_row: list, columns: list[int]) -> None:
        for j in columns:
            v = row[j] * p - b * pivot_row[j]
            if prev is not None and v:
                v, r = divmod(v, prev)
                if r:
                    raise ArithmeticError("Bareiss division was not exact")
            row[j] = v

    return update


class _IntArithmetic:
    """The entry arithmetic of the loops over Z: ints as they are.  ``load``
    brings elements into a loop and ``elements`` gives them back (``sizes``,
    the minor size of each value, is read over Q[x] only); ``one`` is the
    empty minor.  ``product_operands`` and ``dot`` serve :func:`_reproduces`."""

    one = 1
    bareiss = staticmethod(_int_bareiss)

    @staticmethod
    def dot(row: Sequence[int], column: Sequence[int]) -> int:
        return sum(map(mul, row, column))

    def load(self, values: Sequence[int]) -> list:
        return list(values)

    def elements(self, values: Sequence[int], sizes: Iterable[int] = ()) -> tuple[int, ...]:
        return tuple(values)

    def residues(self, values: Sequence[int], g: int) -> list:
        return [a % g for a in values]

    def inverse(self, a: int, g: int) -> int | None:
        """The inverse of a modulo g > 0, in [0, g), or None when a is not a
        unit modulo g."""
        try:
            return pow(a, -1, g)
        except ValueError:
            return None

    def clear(self, row: list, b: int, inverse: int, pivot_row: list, g: int) -> list:
        """row - b * inverse * pivot_row, each entry modulo g."""
        f = b * inverse
        return [(x - f * y) % g if y else x for x, y in zip(row, pivot_row)]

    def product_operands(self, p_rows, diag, q_rows, m_rows) -> tuple[list, list, Sequence]:
        """The rows of P * diag(d), the columns of Q, and M."""
        return [[a * d for a, d in zip(row, diag)] for row in p_rows], list(zip(*q_rows)), m_rows


class _PackedArithmetic(_IntArithmetic):
    """The Bareiss arithmetic over Q[x] (Kronecker substitution): each entry
    of L * M is packed as one int, its value at x = 2**b, with L and b from
    :func:`polynomials.kronecker_layout`.  Every value a Bareiss loop computes
    is a minor of L * M, whose coefficients lie below 2**(b-2), so its value
    at 2**b is zero exactly when the minor is, and the update runs on ints
    (:func:`_int_bareiss`): evaluation at 2**b is a ring map from Z[x], so an
    exact division of minors is an exact division of their values.  A minor
    of size s of M is unpacked from its value and divided by L**s.  The
    update and ``dot`` are those on ints; the product test packs at a b of
    its own."""

    def __init__(self, m: Matrix) -> None:
        self.scale, self.bits = kronecker_layout(m.entries)

    def load(self, values: Sequence[RatPoly]) -> list:
        scale, bits = self.scale, self.bits
        return [kronecker_pack(p, scale, bits) for p in values]

    def elements(self, values: Sequence[int], sizes: Iterable[int]) -> tuple[RatPoly, ...]:
        scale, bits = self.scale, self.bits
        return tuple(kronecker_unpack(v, bits, scale**s) for v, s in zip(values, sizes))

    def product_operands(self, p_rows, diag, q_rows, m_rows) -> tuple[list, list, list] | None:
        """The product test's operands at x = 2**b (see :func:`verify_snf`):
        each (L_i * P_ik) * (S * d_k), the columns of R * Q, each
        L_i * S * R * M_ij; None when L_i * S * R leaves M_ij a denominator."""
        scales = [denominator_lcm(row) for row in p_rows]
        s, r = denominator_lcm(diag), denominator_lcm(itertools.chain.from_iterable(q_rows))
        d_norms = [scaled_norm(d, s) for d in diag]
        q_norm = max((scaled_norm(v, r) for row in q_rows for v in row), default=0)
        bound = 0
        for row, scale, m_row in zip(p_rows, scales, m_rows):
            m_norms = [scaled_norm(v, scale * s * r) for v in m_row]
            if None in m_norms:
                return None
            product = sum(scaled_norm(a, scale) * e for a, e in zip(row, d_norms)) * q_norm
            bound = max(bound, product, *m_norms)
        bits = bound.bit_length() + 2

        def pack(rows, scales):
            return [[kronecker_pack(v, c, bits) for v in row] for row, c in zip(rows, scales)]

        d_values = pack([diag], [s])[0]
        left = [[a * v for a, v in zip(row, d_values)] for row in pack(p_rows, scales)]
        columns = list(zip(*pack(q_rows, itertools.repeat(r))))
        return left, columns, pack(m_rows, [scale * s * r for scale in scales])


def _entry_arithmetic(m: Matrix) -> _IntArithmetic | _PackedArithmetic | quadratic.PairArithmetic:
    """The entry arithmetic of the loops on M: ints over Z, packed ints over
    Q[x] (fixed per matrix), int pairs over the quadratic rings."""
    family = m.ring.family
    if family is RingFamily.QUADRATIC_INTEGERS:
        return quadratic.PairArithmetic(m.ring)
    if family is RingFamily.RATIONAL_POLYNOMIALS:
        return _PackedArithmetic(m)
    return _IntArithmetic()


def symmetric_elimination(m: Matrix) -> Elimination:
    """Fraction-free symmetric elimination of a symmetric M.

    Each round pivots on the first nonzero remaining diagonal entry, whatever
    its sign, until none is left.  After pivots on the rows S, entry (i, j) is
    det M[S+i, S+j] and the last pivot det M[S, S] (Sylvester's identity), so
    every pivot is a principal minor and each update divides exactly by the
    pivot before.  The minors handed over are the distinct entries of a block
    as it stood before a pivot: the 2 x 2 block left with two rows to go when
    all n pivots ran (for n <= 1 the one minor is the empty one, 1), else the
    block before the last pivot (for M = 0, again the empty minor).

    The entries are updated by the ring's entry arithmetic
    (:func:`_entry_arithmetic`): over Q[x] on packed ints and over the
    quadratic rings on int pairs, with elements built only for the pivots
    (pivot i a minor of size i + 1) and the minors handed over.
    """
    arithmetic = _entry_arithmetic(m)
    a = [arithmetic.load(row) for row in m.entries]
    rest = list(range(m.n_rows))
    pivots: list = []

    def handed_over(stuck: bool, minors: Sequence = (), order: int = 0) -> Elimination:
        elements = arithmetic.elements
        pivot_sizes, minor_sizes = itertools.count(1), itertools.repeat(order)
        return Elimination(
            elements(pivots, pivot_sizes), stuck, elements(minors, minor_sizes), order
        )

    block = cofactors = [arithmetic.one]
    while rest:
        k = next((i for i in rest if a[i][i]), None)
        if k is None:
            if any(a[i][j] for i in rest for j in rest):
                return handed_over(True)
            return handed_over(False, block, len(pivots))
        block = [a[i][j] for x, i in enumerate(rest) for j in rest[x:]]
        if len(rest) == 2:
            cofactors = block
        rest.remove(k)
        p, pivot_row = a[k][k], a[k]
        update = arithmetic.bareiss(p, pivots[-1] if pivots else None)
        for x, i in enumerate(rest):
            row, columns = a[i], rest[x:]
            update(row, row[k], pivot_row, columns)
            for j in columns:
                a[j][i] = row[j]
        pivots.append(p)
    return handed_over(False, cofactors, max(len(pivots) - 1, 0))


# -- minor ideals -----------------------------------------------------------------


def minor_gcd_profile(m: Matrix) -> tuple[Element, ...]:
    """Canonical gcd of all k x k minors for each k, by explicit enumeration:
    entry k-1 generates the ideal of all k x k minors (zero when they vanish).

    This is an oracle, exponential in k, and refuses matrices larger than
    6 x 6.
    """
    if max(m.n_rows, m.n_cols) > MINOR_ENUMERATION_LIMIT:
        raise SizeLimitError(
            f"minor enumeration is capped at {MINOR_ENUMERATION_LIMIT}; "
            f"got {m.n_rows}x{m.n_cols}"
        )
    ring = m.ring
    out: list[Element] = []
    for k in range(1, min(m.n_rows, m.n_cols) + 1):
        g = rings.zero(ring)
        for row_idx in itertools.combinations(range(m.n_rows), k):
            for col_idx in itertools.combinations(range(m.n_cols), k):
                minor = determinant(m.submatrix(row_idx, col_idx))
                if minor:
                    g = rings.gcd(g, minor, ring) if g else minor
        out.append(rings.canonicalize(g, ring))
    return tuple(out)


# -- Smith normal form ---------------------------------------------------------


@dataclass(frozen=True)
class SnfResult:
    """M = P * D * Q with unimodular P, Q and D = diag(d_1, ..., d_r, 0, ...);
    D is the only copy of the diagonals, and ``diagonals`` reads them off it."""

    P: Matrix
    D: Matrix
    Q: Matrix

    @property
    def diagonals(self) -> tuple[Element, ...]:
        """d_1, ..., d_r: the nonzero prefix of D's diagonal."""
        d = self.D
        return tuple(itertools.takewhile(bool, (d[k, k] for k in range(min(d.n_rows, d.n_cols)))))


class _Reduction:
    """Mutable state for the reduction: D and, on request, its two companions.

    There are no column operations: since M^T = Q^T * D^T * P^T, ``transpose``
    turns the columns of D into rows, and a second ``transpose`` restores the
    original frame.  Each row primitive applies an elementary E to D
    (D <- E * D).  With ``transforms`` set, two companions start as
    identities: ``rows`` is paired with the rows of D (rows of P^T), ``cols``
    with its columns (rows of Q).  Each primitive then applies (E^-1)^T to the
    same rows of ``rows``, which leaves P * D * Q unchanged, and ``transpose``
    swaps the companions, so M = P * D * Q holds at the end.  Without it both
    are None and the reduction builds no transform.

    The row primitives, on D and on the companions, skip an entry whose
    source entries are all zero: the sum would be the entry itself.  Before
    pivot t is placed, rows and columns t, t+1, ... are zero outside the
    block they span, so the columns left of t are clear in every row a shear
    or Bezout step at pivot t touches.  On the transpose, row t is the
    cleared column t, zero except at the pivot.  At the divisibility fix-up
    D is diagonal.  Those zeros are most of the entries, and they are left
    as they are.
    """

    def __init__(self, m: Matrix, transforms: bool, modulus: Element | None = None):
        self.ring = m.ring
        self.modulus = modulus
        self.d = [list(row) for row in m.entries]
        self.rows: list[list[Element]] | None = None
        self.cols: list[list[Element]] | None = None
        if transforms:
            one, zero = rings.one(self.ring), rings.zero(self.ring)
            self.rows = [[one if i == j else zero for j in range(self.n)] for i in range(self.n)]
            self.cols = [[one if i == j else zero for j in range(self.m)] for i in range(self.m)]
        self._scalable = self.ring.family is RingFamily.RATIONAL_POLYNOMIALS
        for i in range(self.n):
            self.normalize(i)

    @property
    def n(self) -> int:
        """The number of rows of D."""
        return len(self.d)

    @property
    def m(self) -> int:
        """The number of columns of D."""
        return len(self.d[0]) if self.d else 0

    def transpose(self) -> None:
        """D <- D^T: the rows of D now pair with the columns of the input."""
        self.d = [list(col) for col in zip(*self.d)]
        self.rows, self.cols = self.cols, self.rows

    def normalize(self, i: int) -> None:
        """Over Q[x] every nonzero constant is a unit, so row i is rescaled to
        primitive integer coefficients; without this the naive reduction
        suffers hyper-exponential fraction growth."""
        if not self._scalable:
            return
        factor = row_primitive_scale(self.d[i])
        if factor != 1:
            self.scale(i, factor, 1 / factor)

    def reduce(self, i: int, pivot: int = -1) -> None:
        """With a modulus G, take row i modulo G, all but its entry in column
        ``pivot``: a pivot taken modulo G could undo the Bezout step that
        shrank it, and the clearing would not terminate."""
        g = self.modulus
        if g is None:
            return
        ring = self.ring
        self.d[i] = [
            rings.residue(v, g, ring) if v and j != pivot else v for j, v in enumerate(self.d[i])
        ]

    def swap(self, i: int, j: int) -> None:
        self.d[i], self.d[j] = self.d[j], self.d[i]
        if self.rows is not None:
            self.rows[i], self.rows[j] = self.rows[j], self.rows[i]

    def add_multiple(self, dst: int, src: int, c: Element) -> None:
        """row_dst += c * row_src; the companion's row_src -= c * row_dst."""
        self.d[dst] = [a + c * b if b else a for a, b in zip(self.d[dst], self.d[src])]
        if self.rows is not None:
            rows = self.rows
            rows[src] = [a - c * b if b else a for a, b in zip(rows[src], rows[dst])]
        self.normalize(dst)

    def scale(self, i: int, u: Element | Fraction, inverse: Element | Fraction) -> None:
        """row_i *= u for a unit u (over Q[x] a nonzero rational); the
        companion's row_i *= u's inverse."""
        self.d[i] = [u * a if a else a for a in self.d[i]]
        if self.rows is not None:
            self.rows[i] = [inverse * a if a else a for a in self.rows[i]]

    def apply_pair(
        self, i: int, j: int, block: list[list[Element]], scale: int | Fraction = 1
    ) -> None:
        """Rows (i, j) <- block * (rows i, j) for a block of determinant 1; the
        companion's rows take (block^-1)^T = [[d, -c], [-b, a]].

        A Bezout block from :func:`rings.xgcd` is diag(scale, 1/scale) times
        the classical one.  ``normalize`` takes that factor out of a nonzero
        row; a row j that vanished is scaled by ``scale`` instead, so the
        transforms never depend on it.  Row i holds the gcd.
        """
        (a, b), (c, d) = block
        ri, rj = self.d[i], self.d[j]
        self.d[i] = [a * x + b * y if x or y else x for x, y in zip(ri, rj)]
        self.d[j] = [c * x + d * y if x or y else y for x, y in zip(ri, rj)]
        if self.rows is not None:
            ri, rj = self.rows[i], self.rows[j]
            self.rows[i] = [d * x - c * y if x or y else x for x, y in zip(ri, rj)]
            self.rows[j] = [a * y - b * x if x or y else y for x, y in zip(ri, rj)]
        self.normalize(i)
        self.normalize(j)
        if scale != 1 and not any(self.d[j]):
            self.scale(j, scale, 1 / scale)


def _min_size_position(red: _Reduction, t: int) -> tuple[int, int] | None:
    best: tuple[int, int] | None = None
    best_size = None
    for i in range(t, red.n):
        for j in range(t, red.m):
            v = red.d[i][j]
            if not v:
                continue
            s = rings.euclidean_size(v, red.ring)
            if best_size is None or s < best_size:
                best, best_size = (i, j), s
    return best


def _clear_column(red: _Reduction, t: int) -> bool:
    """Zero column t below the pivot by row operations; True if a Bezout step ran.

    Entries divisible by the pivot go by plain shears; the rest by a
    unimodular Bezout block that lands the gcd on the pivot.
    """
    ring = red.ring
    used_bezout = False
    for i in range(t + 1, red.n):
        if not red.d[i][t]:
            continue
        quotient = rings.exact_divide(red.d[i][t], red.d[t][t], ring)
        if quotient is not None:
            red.add_multiple(i, t, -quotient)
        else:
            red.apply_pair(t, i, *rings.xgcd(red.d[t][t], red.d[i][t], ring)[1:])
            red.reduce(t, pivot=t)
            used_bezout = True
        red.reduce(i)
    return used_bezout


def _clear_pivot(red: _Reduction, t: int) -> None:
    """Zero out column t and row t beyond the pivot.

    Row t is cleared as column t of the transpose; that pass and its two
    transposes are skipped when row t is already clear.  A Bezout step
    shrinks the pivot strictly, so the loop terminates, and a pass without
    one leaves everything clean.
    """
    while True:
        used_bezout = _clear_column(red, t)
        if any(red.d[t][t + 1 :]):
            red.transpose()
            used_bezout = _clear_column(red, t) or used_bezout
            red.transpose()
        rest = [red.d[i][t] for i in range(t + 1, red.n)] + red.d[t][t + 1 :]
        if not any(rest):
            return
        if not used_bezout:
            raise ArithmeticError("pivot clearing made no progress")


def _reduce(
    m: Matrix, transforms: bool, modulus: Element | None = None
) -> tuple[_Reduction, tuple[Element, ...]]:
    """Bring M to Smith form D, with P and Q when ``transforms`` is set; also
    return d_1, ..., d_rank.

    Without a modulus it reduces M from scratch: with transforms for
    :func:`smith_normal_form`, without them for :func:`smith_diagonals` when
    G = 0 (a stuck elimination) or, over Q[x], G is not a unit.  With a
    ``modulus`` G (a rational integer, over Z or a quadratic ring,
    without transforms) M must hold residues modulo G, as the block
    :func:`_unit_pivots` leaves does, and every entry but the current pivot
    is kept reduced modulo G.  That reduces some M' congruent to M modulo G
    instead, and [M' | G*I] and [M | G*I] are equivalent, so the i-th
    diagonal e_i returned (0 past the rank of M') has gcd(e_i, G) =
    gcd(d_i, G).  That gcd is the same for every associate of e_i, so e_i
    is not canonicalized.
    """
    red = _Reduction(m, transforms, modulus)
    # Every pivot is nonzero and stays so (a Bezout step replaces it by a gcd),
    # so the nonzero diagonal entries form the prefix d_1..d_rank.
    rank = 0
    while rank < min(red.n, red.m):
        pos = _min_size_position(red, rank)
        if pos is None:
            break
        red.swap(rank, pos[0])
        if pos[1] != rank:
            red.transpose()
            red.swap(rank, pos[1])
            red.transpose()
        _clear_pivot(red, rank)
        rank += 1

    _enforce_divisibility(red, rank)
    if modulus is None:
        _canonicalize_diagonal(red, rank)
    return red, tuple(red.d[k][k] for k in range(rank))


def _unit_pivots(m: Matrix, g: Element) -> tuple[int, Matrix]:
    """Split off the entries of M that are units modulo a rational integer G.

    The entries are taken modulo G.  While some entry a, in row t and column
    s, is a unit modulo G (the entry arithmetic's ``inverse``; over a
    quadratic ring a is one exactly when N(a) is), row t and column s
    are dropped and each other entry b_rc becomes the residue of
    b_rc - b_rs * a^-1 * b_tc: the row operations that clear column s modulo
    G.  The column operations that would then clear row t touch nothing
    else, and the pivot splits off R/(a, G) = 0, so [M | G*I] is equivalent
    to diag(1, ..., 1) beside [B | G*I] for the block B left.  Returns the
    number u of pivots and B, whose entries are residues modulo G.
    """
    ring = m.ring
    arithmetic = _entry_arithmetic(m)
    a = [arithmetic.residues(row, g) for row in m.entries]
    u = 0
    while True:
        pivot = next(
            (
                (t, s, inverse)
                for t, row in enumerate(a)
                for s, v in enumerate(row)
                if v and (inverse := arithmetic.inverse(v, g)) is not None
            ),
            None,
        )
        if pivot is None:
            break
        t, s, inverse = pivot
        pivot_row = a.pop(t)
        del pivot_row[s]
        for row in a:
            b = row.pop(s)
            if b:
                row[:] = arithmetic.clear(row, b, inverse, pivot_row, g)
        u += 1
    return u, Matrix(tuple(map(arithmetic.elements, a)), ring)


def smith_diagonals(m: Matrix, elimination: Elimination) -> tuple[Element, ...]:
    """The nonzero Smith diagonals d_1 | d_2 | ... of M, without P and Q.

    ``elimination`` is M's :func:`symmetric_elimination`.  Its minors of
    order k lie in the ideal of all k x k minors, generated by D_k = d_1 *
    ... * d_k, so the element G of their ideal that :func:`rings.ideal_element`
    returns is a multiple of every d_i, i <= k.  A stuck elimination hands
    over no minors, and every other one at least one nonzero minor, so G = 0
    exactly when the elimination got stuck.  Three routes follow:

    - G a unit: d_1 = ... = d_k = 1 and M is not reduced.
    - Otherwise, over Z and the quadratic rings, where G is a rational
      integer: :func:`_unit_pivots` splits off u entries that are units
      modulo G, so d_1 = ... = d_min(u,k) = 1.  A nonzero block left is
      reduced modulo G (see :func:`_reduce`), and d_(u+i) is the canonical
      gcd(e_i, G).  The rest up to d_k are G, and at full rank u can be n,
      past k: the diagonals are cut to k.
    - G = 0, or over Q[x] G not a unit: the plain reduction of M.

    At full rank k = n - 1 and d_n = det M / (d_1 * ... * d_{n-1}); at rank
    k < n the k diagonals are all.
    """
    ring = m.ring
    k = elimination.order
    g = rings.ideal_element(elimination.minors, ring)
    if rings.is_unit(g, ring):
        head = (rings.one(ring),) * k
    elif not g or ring.family is RingFamily.RATIONAL_POLYNOMIALS:
        return _reduce(m, transforms=False)[1]
    else:
        u, rest = _unit_pivots(m, g)
        head = (rings.one(ring),) * u
        if u < k and any(map(any, rest.entries)):
            e = _reduce(rest, False, modulus=g)[1][: k - u]
            head += tuple(rings.gcd(v, g, ring) for v in e)
        head = (head + (rings.canonicalize(g, ring),) * k)[:k]
    if elimination.rank == k:
        return head
    last = rings.exact_divide(elimination.pivots[-1], prod(head, start=rings.one(ring)), ring)
    if last is None:
        raise ArithmeticError("d_1 * ... * d_(n-1) does not divide det M")
    return head + (rings.canonicalize(last, ring),)


def smith_normal_form(m: Matrix) -> SnfResult:
    """Smith Normal Form with transforms: M = P * D * Q, d_k | d_{k+1}."""
    red = _reduce(m, transforms=True)[0]
    ring = m.ring
    return SnfResult(
        P=Matrix(tuple(zip(*red.rows)), ring),
        D=Matrix(tuple(map(tuple, red.d)), ring),
        Q=Matrix(tuple(map(tuple, red.cols)), ring),
    )


def _enforce_divisibility(red: _Reduction, rank: int) -> None:
    """gcd/lcm fix-up: one pass over i < j replaces (d_i, d_j) by (g, d_i*d_j/g).

    One pass suffices.  When (i, j) is fixed, every earlier pair already
    divides: each d_k before d_i divides d_i and d_j, so it divides their gcd
    g and their lcm; g divides d_i, which divided each d_k between d_i and
    d_j.  So no fix breaks an earlier pair, and a rescan from the start
    would find the same violations in the same order.
    """
    ring = red.ring
    one = rings.one(ring)
    for i in range(rank):
        for j in range(i + 1, rank):
            if rings.divides(red.d[i][i], red.d[j][j], ring):
                continue
            # diag(a, b) = L^(-1) * diag(g, a*b/g) * R^(-1) with the Bezout block
            # L = [[s, t], [-b/g, a/g]] on rows and R = [[1, -t*b/g], [1, s*a/g]]
            # on columns, applied as the row operation R^T on the transpose.
            _, block, _ = rings.xgcd(red.d[i][i], red.d[j][j], ring)
            (s, t_coef), (neg_bg, ag) = block
            red.apply_pair(i, j, block)
            red.transpose()
            red.apply_pair(i, j, [[one, one], [t_coef * neg_bg, s * ag]])
            red.transpose()


def _canonicalize_diagonal(red: _Reduction, rank: int) -> None:
    ring = red.ring
    for k in range(rank):
        v = red.d[k][k]
        canon = rings.canonicalize(v, ring)
        if canon != v:
            u = rings.exact_divide(canon, v, ring)
            inverse = rings.exact_divide(v, canon, ring)
            if u is None or inverse is None:
                raise ArithmeticError("canonical associate is not a unit multiple")
            red.scale(k, u, inverse)


# -- verification ------------------------------------------------------------------


@dataclass(frozen=True)
class SnfCheck:
    """Outcome of verify_snf; falsy when any check failed."""

    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return not self.failures


def _reproduces(m: Matrix, result: SnfResult, diag: Sequence[Element]) -> bool:
    """Whether P * diag(d) * Q = M for D's diagonal d, by one loop on the
    ring's entry arithmetic: row i of P * D times column j of Q's first
    len(d) rows.  No element is multiplied."""
    arithmetic = _entry_arithmetic(m)
    q_head = result.Q.entries[: len(diag)]
    operands = arithmetic.product_operands(result.P.entries, diag, q_head, m.entries)
    if operands is None:
        return False
    left, columns, target = operands
    return all(
        arithmetic.dot(row, column) == v
        for row, target_row in zip(left, target)
        for column, v in zip(columns, target_row)
    )


def verify_snf(m: Matrix, result: SnfResult) -> SnfCheck:
    """Check M = P*D*Q, unimodular P and Q, and D diagonal, zeros last, d_k | d_{k+1}.

    Invariant factors over a PID are unique up to associates, so passing
    proves that D is the Smith form of M.  Every check is polynomial-time.
    A P, D or Q whose shape, read off its rows, does not fit M raises
    ShapeMismatchError.

    M = P*D*Q is tested on D's diagonal on ints or int pairs
    (:func:`_reproduces`).  Over Q[x] both sides of entry (i, j) are scaled
    to integer polynomials, L_i*S*R*M_ij and sum_k (L_i*P_ik)(S*d_k)(R*Q_kj),
    and compared at x = 2**b, b = B.bit_length() + 2, where B bounds every
    coefficient of either side by l1 norms of the P, D, Q and M passed in, so
    a forged certificate is judged by its own entries.  Two integer
    polynomials with coefficients below 2**(b-2) agree at 2**b only when they
    are equal, so the test is a proof.  An M_ij that L_i*S*R leaves a
    denominator differs from the product, which that scale clears.
    """
    ring = m.ring
    failures: list[str] = []
    shapes = [(t.n_rows, t.n_cols) for t in (result.P, result.D, result.Q)]
    if shapes != [(m.n_rows, m.n_rows), (m.n_rows, m.n_cols), (m.n_cols, m.n_cols)]:
        raise ShapeMismatchError("transform shapes do not match the input matrix")

    diag = [result.D[k, k] for k in range(min(m.n_rows, m.n_cols))]
    if not _reproduces(m, result, diag):
        failures.append("P*D*Q does not reproduce the input")
    if not result.D.is_diagonal():
        failures.append("D is not diagonal")

    det_m = determinant(m) if m.is_square() else rings.zero(ring)
    if det_m:
        # With P*D*Q = M and D diagonal, det P * det Q * prod(d_i) = det M, so
        # prod(d_i) ~ det M != 0 makes det P * det Q a unit, and over a domain so
        # is each factor.  This Bareiss on M replaces two on P and Q's larger entries.
        if not rings.are_associated(prod(diag, start=rings.one(ring)), det_m, ring):
            failures.append("det(D) is not associated to det(M)")
    else:
        for name, t in (("P", result.P), ("Q", result.Q)):
            if not rings.is_unit(determinant(t), ring):
                failures.append(f"det({name}) is not a unit")

    nonzero = result.diagonals
    if any(diag[len(nonzero) :]):
        failures.append("a zero diagonal entry precedes a nonzero one")
    for k in range(len(nonzero) - 1):
        if not rings.divides(nonzero[k], nonzero[k + 1], ring):
            failures.append(f"divisibility chain broken at d_{k + 1} | d_{k + 2}")
    return SnfCheck(tuple(failures))
