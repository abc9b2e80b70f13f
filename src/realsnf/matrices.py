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
otherwise it reduces M modulo G over Z and the quadratic rings, and from
scratch over Q[x] or when the elimination got stuck.  :func:`verify_snf`
certifies a result from M = P*D*Q, unimodular P and Q and the divisibility
chain, which by uniqueness of invariant factors is a proof; the exponential
:func:`minor_gcd_profile` is kept as an independent oracle for the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Sequence

from . import rings
from .errors import (
    NotSquareError,
    ParseError,
    ShapeMismatchError,
    SizeLimitError,
)
from .polynomials import row_primitive_scale
from .rings import Element
from .ringspec import RingFamily, RingSpec, parse_ring

MINOR_ENUMERATION_LIMIT = 6


@dataclass(frozen=True)
class Matrix:
    """Immutable row-major matrix with entries in a single ring."""

    n_rows: int
    n_cols: int
    entries: tuple[tuple[Element, ...], ...]
    ring: RingSpec

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[object]], ring: RingSpec) -> "Matrix":
        if not rows or not rows[0] or any(len(r) != len(rows[0]) for r in rows):
            raise ShapeMismatchError("rows must be nonempty and of equal length")
        coerced = tuple(tuple(rings.coerce(v, ring) for v in row) for row in rows)
        return cls(len(coerced), len(coerced[0]), coerced, ring)

    @classmethod
    def identity(cls, n: int, ring: RingSpec) -> "Matrix":
        one, zero = rings.one(ring), rings.zero(ring)
        return cls.from_rows(
            [[one if i == j else zero for j in range(n)] for i in range(n)], ring
        )

    def __getitem__(self, key: tuple[int, int]) -> Element:
        i, j = key
        return self.entries[i][j]

    def transpose(self) -> "Matrix":
        return Matrix(self.n_cols, self.n_rows, tuple(zip(*self.entries)), self.ring)

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
        return Matrix(self.n_rows, other.n_cols, tuple(out), self.ring)

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
        return Matrix.from_rows(
            [[self.entries[i][j] for j in col_idx] for i in row_idx], self.ring
        )

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
    return Matrix(len(rows), len(rows[0]), tuple(rows), ring)


# -- determinants ---------------------------------------------------------------


def determinant(m: Matrix) -> Element:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if not m.is_square():
        raise NotSquareError(f"determinant of a {m.n_rows}x{m.n_cols} matrix")
    ring = m.ring
    rows = [list(row) for row in m.entries]
    n = len(rows)
    sign_flip = False
    prev = rings.one(ring)
    for k in range(n - 1):
        if not rows[k][k]:
            pivot_row = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if pivot_row is None:
                return rows[k][k]  # a zero column below the diagonal: det = 0
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign_flip = not sign_flip
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                q = rings.exact_divide(
                    rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j], prev, ring
                )
                if q is None:
                    raise ArithmeticError("Bareiss division was not exact")
                rows[i][j] = q
        prev = rows[k][k]
    det = rows[n - 1][n - 1]
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


def symmetric_elimination(m: Matrix) -> Elimination:
    """Fraction-free symmetric elimination of a symmetric M.

    Each round pivots on the first nonzero remaining diagonal entry, whatever
    its sign, until none is left.  After pivots on the rows S, entry (i, j) is
    det M[S+i, S+j] and the last pivot det M[S, S] (Sylvester's identity), so
    every pivot is a principal minor and each update divides exactly by the
    pivot before.  The minors handed over are the distinct entries of a block
    as it stood before a pivot: the 2 x 2 block left with two rows to go when
    all n pivots ran (for n = 1 the one minor is the empty one, 1), else the
    block before the last pivot (for M = 0, again the empty minor).
    """
    ring = m.ring
    a = [list(row) for row in m.entries]
    rest = list(range(m.n_rows))
    pivots: list[Element] = []
    block = cofactors = (rings.one(ring),)
    while rest:
        k = next((i for i in rest if a[i][i]), None)
        if k is None:
            if any(a[i][j] for i in rest for j in rest):
                return Elimination(tuple(pivots), True)
            return Elimination(tuple(pivots), False, block, len(pivots))
        block = tuple(a[i][j] for x, i in enumerate(rest) for j in rest[x:])
        if len(rest) == 2:
            cofactors = block
        rest.remove(k)
        p, pivot_row = a[k][k], a[k]
        prev = pivots[-1] if pivots else None
        for x, i in enumerate(rest):
            row, aik = a[i], a[i][k]
            for j in rest[x:]:
                v = row[j]
                if v:
                    v = v * p
                if aik and pivot_row[j]:
                    v = v - aik * pivot_row[j]
                if prev is not None and v:
                    v = rings.exact_divide(v, prev, ring)
                    if v is None:
                        raise ArithmeticError("Bareiss division was not exact")
                row[j] = a[j][i] = v
        pivots.append(p)
    return Elimination(tuple(pivots), False, cofactors, len(pivots) - 1)


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
        self.n = m.n_rows
        self.m = m.n_cols
        self.rows: list[list[Element]] | None = None
        self.cols: list[list[Element]] | None = None
        if transforms:
            one, zero = rings.one(self.ring), rings.zero(self.ring)
            self.rows = [[one if i == j else zero for j in range(self.n)] for i in range(self.n)]
            self.cols = [[one if i == j else zero for j in range(self.m)] for i in range(self.m)]
        self._scalable = self.ring.family is RingFamily.RATIONAL_POLYNOMIALS
        for i in range(self.n):
            self.normalize(i)
            self.reduce(i)

    def transpose(self) -> None:
        """D <- D^T: the rows of D now pair with the columns of the input."""
        self.d = [list(col) for col in zip(*self.d)]
        self.n, self.m = self.m, self.n
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
        if i == j:
            return
        self.d[i], self.d[j] = self.d[j], self.d[i]
        if self.rows is not None:
            self.rows[i], self.rows[j] = self.rows[j], self.rows[i]

    def add_multiple(self, dst: int, src: int, c: Element) -> None:
        """row_dst += c * row_src; the companion's row_src -= c * row_dst."""
        if not c:
            return
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

    With a ``modulus`` G (a rational integer, over Z or a quadratic ring,
    without transforms) every entry but the current pivot is kept reduced
    modulo G.  That reduces some M' congruent to M modulo G instead, and
    [M' | G*I] and [M | G*I] are equivalent, so the i-th diagonal e_i
    returned (0 past the rank of M') has gcd(e_i, G) = gcd(d_i, G).  That
    gcd is the same for every associate of e_i, so e_i is not canonicalized.
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


def smith_diagonals(m: Matrix, elimination: Elimination) -> tuple[Element, ...]:
    """The nonzero Smith diagonals d_1 | d_2 | ... of M, without P and Q.

    ``elimination`` is M's :func:`symmetric_elimination`.  Its minors of
    order k lie in the ideal of all k x k minors, generated by D_k = d_1 *
    ... * d_k, so the element G of their ideal that :func:`rings.ideal_element`
    returns is a multiple of every d_i, i <= k.  Three routes follow:

    - G a unit: d_1 = ... = d_k = 1 and M is not reduced.
    - Otherwise, over Z and the quadratic rings, where G is a rational
      integer: M is reduced modulo G (see :func:`_reduce`), and d_i is the
      canonical gcd(e_i, G), which is G where e_i = 0.
    - Over Q[x] with G not a unit, and for a stuck elimination: the plain
      reduction of M.

    At full rank k = n - 1 and d_n = det M / (d_1 * ... * d_{n-1}); at rank
    k < n the k diagonals are all.
    """
    ring = m.ring
    if elimination.stuck:
        return _reduce(m, transforms=False)[1]
    k = elimination.order
    g = rings.ideal_element(elimination.minors, ring)
    if rings.is_unit(g, ring):
        head = (rings.one(ring),) * k
    elif ring.family is RingFamily.RATIONAL_POLYNOMIALS:
        return _reduce(m, transforms=False)[1]
    else:
        e = _reduce(m, False, modulus=g)[1][:k]
        head = tuple(rings.gcd(v, g, ring) for v in e)
        head += (rings.canonicalize(g, ring),) * (k - len(e))
    if elimination.rank == k:
        return head
    last = rings.exact_divide(elimination.pivots[-1], prod(head, start=rings.one(ring)), ring)
    if last is None:
        raise ArithmeticError("d_1 * ... * d_(n-1) does not divide det M")
    return head + (rings.canonicalize(last, ring),)


def smith_normal_form(m: Matrix) -> SnfResult:
    """Smith Normal Form with transforms: M = P * D * Q, d_k | d_{k+1}."""
    red = _reduce(m, transforms=True)[0]
    n, k, ring = m.n_rows, m.n_cols, m.ring
    return SnfResult(
        P=Matrix(n, n, tuple(zip(*red.rows)), ring),
        D=Matrix(n, k, tuple(map(tuple, red.d)), ring),
        Q=Matrix(k, k, tuple(map(tuple, red.cols)), ring),
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
            _, block, scale = rings.xgcd(red.d[i][i], red.d[j][j], ring)
            (s, t_coef), (neg_bg, ag) = block
            red.apply_pair(i, j, block, scale)
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


def verify_snf(m: Matrix, result: SnfResult) -> SnfCheck:
    """Check M = P*D*Q, unimodular P and Q, and D diagonal, zeros last, d_k | d_{k+1}.

    Invariant factors over a PID are unique up to associates, so passing
    proves that D is the Smith form of M.  Every check is polynomial-time.
    """
    ring = m.ring
    failures: list[str] = []
    shapes = [(t.n_rows, t.n_cols) for t in (result.P, result.D, result.Q)]
    if shapes != [(m.n_rows, m.n_rows), (m.n_rows, m.n_cols), (m.n_cols, m.n_cols)]:
        raise ShapeMismatchError("transform shapes do not match the input matrix")

    # With D diagonal, P*D*Q = (P's columns scaled by D's diagonal) * (Q's matching rows).
    diag = [result.D[k, k] for k in range(min(m.n_rows, m.n_cols))]
    pd = tuple(tuple(p * d for p, d in zip(row, diag)) for row in result.P.entries)
    q_head = Matrix(len(diag), m.n_cols, result.Q.entries[: len(diag)], ring)
    if (Matrix(m.n_rows, len(diag), pd, ring) @ q_head).entries != m.entries:
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
