"""Matrices over the supported rings: Smith reduction, minors, determinants.

The Smith routine runs the classical pivot-to-smallest-size reduction on D
alone.  It has row operations only, and column work is done as row work on
the transpose, since M^T = Q^T * D^T * P^T.  The divisibility chain is then
enforced by the gcd/lcm fix-up on diagonal pairs, and each diagonal entry
is scaled to its canonical associate.  Every step is appended to a log;
:func:`smith_diagonals` reads the diagonals and discards it, while
:func:`smith_normal_form` replays it on two identities, mirroring each row
operation E on D by (E^-1)^T on the matching transform rows, to build P and
Q with M = P * D * Q.  Determinants use fraction-free (Bareiss) elimination,
which stays inside the ring.  :func:`verify_snf` certifies a result from
M = P*D*Q, unimodular P and Q and the divisibility chain, which by uniqueness
of invariant factors is a proof; the exponential :func:`minor_gcd_profile`
is kept as an independent oracle for the tests.
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
from .polynomials import primitive_scale
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
        return Matrix.from_rows(
            [[self.entries[i][j] for i in range(self.n_rows)] for j in range(self.n_cols)],
            self.ring,
        )

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
            out.append(row)
        return Matrix.from_rows(out, self.ring)

    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.n_rows)
            for j in range(i + 1, self.n_cols)
        )

    def is_diagonal(self) -> bool:
        return all(
            rings.is_zero(self.entries[i][j])
            for i in range(self.n_rows)
            for j in range(self.n_cols)
            if i != j
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
            "entries": [
                [rings.element_to_text(v, self.ring) for v in row] for row in self.entries
            ],
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
        m = Matrix.from_rows(_parse_entries(data.get("entries"), ring), ring)
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
        return Matrix.from_rows(_parse_entries(data, ring), ring)
    raise ParseError(f"matrix must be an object or 2D array, got {data!r}")


def _parse_entries(entries: object, ring: RingSpec) -> list[list[Element]]:
    """Rows of parsed elements; errors name the offending entries[i] or entries[i][j]."""
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
        rows.append(parsed)
    return rows


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
        if rings.is_zero(rows[k][k]):
            pivot_row = next(
                (i for i in range(k + 1, n) if not rings.is_zero(rows[i][k])), None
            )
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
            rows[i][k] = rows[k][k] - rows[k][k]  # typed zero
        prev = rows[k][k]
    det = rows[n - 1][n - 1]
    return -det if sign_flip else det


def principal_minor_sums(rows: Sequence[Sequence], zero, one) -> list:
    """[e_1, ..., e_n]: e_k is the sum of all k x k principal minors.

    Division-free Berkowitz charpoly (Inf. Process. Lett. 18, 1984): the
    coefficients of det(t*I - A_r) for the leading r x r block A_r follow from
    those of A_{r-1} by a Toeplitz product, using ring +, - and * only.  The
    coefficient of t^(n-k) is (-1)^k * e_k.
    """

    def dot(u, v):
        return sum((a * b for a, b in zip(u, v)), zero)

    coeffs = [one]
    for r in range(len(rows)):
        # A_{r+1} = [[A_r, C], [R, a]]: C is column r above the diagonal, R is
        # row r left of it (zip truncates rows[i] to its first r entries).
        column = [rows[i][r] for i in range(r)]
        toeplitz = [one, zero - rows[r][r]]
        for k in range(r):  # -R * A_r^k * C
            if k:
                column = [dot(rows[i], column) for i in range(r)]
            toeplitz.append(zero - dot(rows[r], column))
        coeffs = [
            sum((toeplitz[i - j] * coeffs[j] for j in range(min(i, r) + 1)), zero)
            for i in range(r + 2)
        ]
    return [c if k % 2 == 0 else zero - c for k, c in enumerate(coeffs) if k > 0]


# -- minor ideals -----------------------------------------------------------------


@dataclass(frozen=True)
class MinorGcdProfile:
    """Entry k-1 generates the ideal of all k x k minors (zero when they vanish)."""

    per_order: tuple[Element, ...]


def minor_gcd_profile(m: Matrix) -> MinorGcdProfile:
    """Canonical gcd of all k x k minors for each k, by explicit enumeration.

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
                if rings.is_zero(minor):
                    continue
                g = minor if rings.is_zero(g) else rings.gcd(g, minor, ring)
        out.append(rings.canonicalize(g, ring))
    return MinorGcdProfile(tuple(out))


# -- Smith normal form ---------------------------------------------------------


@dataclass(frozen=True)
class SnfResult:
    """M = P * D * Q with unimodular P, Q and D = diag(d_1, ..., d_r, 0, ...)."""

    P: Matrix
    D: Matrix
    Q: Matrix
    diagonals: tuple[Element, ...]


class _Reduction:
    """Mutable state for the reduction: D and the log of operations applied to it.

    There are no column operations: since M^T = Q^T * D^T * P^T, ``transpose``
    turns the columns of D into rows, and a second ``transpose`` restores the
    original frame.  Each row primitive applies an elementary E to D
    (D <- E * D) and appends one entry to ``log``; no transform is built
    during elimination.  :func:`_replay` rebuilds P and Q from the log on
    request, so M = P * D * Q holds at the end.
    """

    def __init__(self, m: Matrix):
        self.ring = m.ring
        self.d = [list(row) for row in m.entries]
        self.n = m.n_rows
        self.m = m.n_cols
        self.log: list[tuple] = []
        self._scalable = self.ring.family is RingFamily.RATIONAL_POLYNOMIALS
        for i in range(self.n):
            self.normalize(i)

    def transpose(self) -> None:
        """D <- D^T: the rows of D now pair with the columns of the input."""
        self.d = [list(col) for col in zip(*self.d)]
        self.n, self.m = self.m, self.n
        self.log.append(("transpose",))

    def normalize(self, i: int) -> None:
        """Over Q[x] every nonzero constant is a unit, so row i is rescaled to
        primitive integer coefficients; without this the naive reduction
        suffers hyper-exponential fraction growth."""
        if not self._scalable:
            return
        factor = primitive_scale([c for v in self.d[i] for c in v.coefficients])
        if factor != 1:
            self.scale(i, factor, 1 / factor)

    def swap(self, i: int, j: int) -> None:
        if i == j:
            return
        self.d[i], self.d[j] = self.d[j], self.d[i]
        self.log.append(("swap", i, j))

    def add_multiple(self, dst: int, src: int, c: Element) -> None:
        """row_dst += c * row_src."""
        if rings.is_zero(c):
            return
        self.d[dst] = [a + c * b for a, b in zip(self.d[dst], self.d[src])]
        self.log.append(("add_multiple", dst, src, c))
        self.normalize(dst)

    def scale(self, i: int, u: Element | Fraction, inverse: Element | Fraction) -> None:
        """row_i *= u for a unit u (over Q[x] a nonzero rational); the log keeps
        u's inverse for the replay."""
        self.d[i] = [u * a for a in self.d[i]]
        self.log.append(("scale", i, inverse))

    def apply_pair(
        self, i: int, j: int, block: list[list[Element]], scale: int | Fraction = 1
    ) -> None:
        """Rows (i, j) <- block * (rows i, j) for a block of determinant 1.

        A Bezout block may be diag(scale, 1/scale) times the classical one
        (see :func:`rings.xgcd`).  ``normalize`` takes that factor out of a
        nonzero row; a row j that vanished is scaled by ``scale`` instead, so
        the transforms never depend on it.  Row i holds the gcd.
        """
        (a, b), (c, d) = block
        ri, rj = self.d[i], self.d[j]
        self.d[i] = [a * x + b * y for x, y in zip(ri, rj)]
        self.d[j] = [c * x + d * y for x, y in zip(ri, rj)]
        self.log.append(("apply_pair", i, j, block))
        self.normalize(i)
        self.normalize(j)
        if scale != 1 and all(rings.is_zero(v) for v in self.d[j]):
            self.scale(j, scale, 1 / scale)


def _replay(red: _Reduction) -> tuple[list[list[Element]], list[list[Element]]]:
    """Rows of P^T and of Q, rebuilt from ``red.log``.

    Two companions start as identities: one is paired with the rows of D
    (rows of P^T), the other with its columns (rows of Q).  Each logged
    D <- E * D is mirrored by applying (E^-1)^T to the same rows of the
    companion paired with the rows of D, which leaves P * D * Q unchanged; a
    logged ``transpose`` swaps the companions.  The log leaves D in the
    input's frame, so the companions end in theirs.
    """
    ring = red.ring
    one, zero = rings.one(ring), rings.zero(ring)
    rows = [[one if i == j else zero for j in range(red.n)] for i in range(red.n)]
    cols = [[one if i == j else zero for j in range(red.m)] for i in range(red.m)]
    for kind, *args in red.log:
        if kind == "transpose":
            rows, cols = cols, rows
        elif kind == "swap":
            i, j = args
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == "add_multiple":
            dst, src, c = args
            rows[src] = [a - c * b for a, b in zip(rows[src], rows[dst])]
        elif kind == "scale":
            i, inverse = args
            rows[i] = [inverse * a for a in rows[i]]
        else:  # apply_pair: (block^-1)^T = [[d, -c], [-b, a]]
            i, j, ((a, b), (c, d)) = args
            ri, rj = rows[i], rows[j]
            rows[i] = [d * x - c * y for x, y in zip(ri, rj)]
            rows[j] = [a * y - b * x for x, y in zip(ri, rj)]
    return rows, cols


def _min_size_position(red: _Reduction, t: int) -> tuple[int, int] | None:
    best: tuple[int, int] | None = None
    best_size = None
    for i in range(t, red.n):
        for j in range(t, red.m):
            v = red.d[i][j]
            if rings.is_zero(v):
                continue
            s = rings.euclidean_size(v, red.ring)
            if best_size is None or s < best_size:
                best, best_size = (i, j), s
    return best


def _bezout_block(
    ring: RingSpec, a: Element, b: Element
) -> tuple[list[list[Element]], int | Fraction]:
    """(L, scale): L = [[s, t], [-b/g, a/g]] with L * (a, b)^T = (g, 0)^T and
    det(L) = 1, and the scale of (g, s, t) from :func:`rings.xgcd`."""
    g, s, t_coef, scale = rings.xgcd(a, b, ring)
    ag = rings.exact_divide(a, g, ring)
    bg = rings.exact_divide(b, g, ring)
    if ag is None or bg is None:
        raise ArithmeticError("gcd does not divide its arguments")
    return [[s, t_coef], [rings.zero(ring) - bg, ag]], scale


def _clear_column(red: _Reduction, t: int) -> bool:
    """Zero column t below the pivot by row operations; True if a Bezout step ran.

    Entries divisible by the pivot go by plain shears; the rest by a
    unimodular Bezout block that lands the gcd on the pivot.
    """
    ring = red.ring
    used_bezout = False
    for i in range(t + 1, red.n):
        if rings.is_zero(red.d[i][t]):
            continue
        quotient = rings.exact_divide(red.d[i][t], red.d[t][t], ring)
        if quotient is not None:
            red.add_multiple(i, t, -quotient)
        else:
            red.apply_pair(t, i, *_bezout_block(ring, red.d[t][t], red.d[i][t]))
            used_bezout = True
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
        if not all(rings.is_zero(v) for v in red.d[t][t + 1 :]):
            red.transpose()
            used_bezout = _clear_column(red, t) or used_bezout
            red.transpose()
        rest = [red.d[i][t] for i in range(t + 1, red.n)] + red.d[t][t + 1 :]
        if all(rings.is_zero(v) for v in rest):
            return
        if not used_bezout:
            raise ArithmeticError("pivot clearing made no progress")


def _reduce(m: Matrix) -> tuple[_Reduction, tuple[Element, ...]]:
    """Bring M to Smith form D, logging every step; also return d_1, ..., d_rank."""
    red = _Reduction(m)
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
    _canonicalize_diagonal(red, rank)
    return red, tuple(red.d[k][k] for k in range(rank))


def smith_diagonals(m: Matrix) -> tuple[Element, ...]:
    """The nonzero Smith diagonals d_1 | d_2 | ... of M, without P and Q."""
    return _reduce(m)[1]


def smith_normal_form(m: Matrix) -> SnfResult:
    """Smith Normal Form with transforms: M = P * D * Q, d_k | d_{k+1}."""
    red, diagonals = _reduce(m)
    rows, cols = _replay(red)
    return SnfResult(
        P=Matrix.from_rows(list(zip(*rows)), m.ring),
        D=Matrix.from_rows(red.d, m.ring),
        Q=Matrix.from_rows(cols, m.ring),
        diagonals=diagonals,
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
            block, scale = _bezout_block(ring, red.d[i][i], red.d[j][j])
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

    ok: bool
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def verify_snf(m: Matrix, result: SnfResult) -> SnfCheck:
    """Check M = P*D*Q, unimodular P and Q, D diagonal with its zeros last and
    d_k | d_{k+1}, and ``result.diagonals`` equal to D's nonzero prefix.

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
    pd = Matrix.from_rows([[p * d for p, d in zip(row, diag)] for row in result.P.entries], ring)
    if (pd @ result.Q.submatrix(range(len(diag)), range(m.n_cols))).entries != m.entries:
        failures.append("P*D*Q does not reproduce the input")
    if not result.D.is_diagonal():
        failures.append("D is not diagonal")

    det_m = determinant(m) if m.is_square() else rings.zero(ring)
    if not rings.is_zero(det_m):
        # With P*D*Q = M and D diagonal, det P * det Q * prod(d_i) = det M, so
        # prod(d_i) ~ det M != 0 makes det P * det Q a unit, and over a domain so
        # is each factor.  This Bareiss on M replaces two on P and Q's larger entries.
        if not rings.are_associated(prod(diag, start=rings.one(ring)), det_m, ring):
            failures.append("det(D) is not associated to det(M)")
    else:
        for name, t in (("P", result.P), ("Q", result.Q)):
            if not rings.is_unit(determinant(t), ring):
                failures.append(f"det({name}) is not a unit")

    nonzero = tuple(itertools.takewhile(lambda v: not rings.is_zero(v), diag))
    if not all(rings.is_zero(v) for v in diag[len(nonzero) :]):
        failures.append("a zero diagonal entry precedes a nonzero one")
    for k in range(len(nonzero) - 1):
        if not rings.divides(nonzero[k], nonzero[k + 1], ring):
            failures.append(f"divisibility chain broken at d_{k + 1} | d_{k + 2}")
    if tuple(result.diagonals) != nonzero:
        failures.append("diagonals differ from the nonzero prefix of D's diagonal")
    return SnfCheck(not failures, tuple(failures))
