"""Matrices over the supported rings: Smith reduction, minors, determinants.

The Smith routine runs the classical pivot-to-smallest-size reduction with
row and column operations mirrored into transforms P and Q so that
M = P * D * Q exactly, then enforces the divisibility chain with the
gcd/lcm fix-up on diagonal pairs, and finally scales each diagonal entry to
its canonical associate.  Determinants use fraction-free (Bareiss)
elimination, which stays inside the ring.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd, lcm as int_lcm
from typing import Callable, Sequence

from . import rings
from .errors import (
    NotSquareError,
    ParseError,
    ShapeMismatchError,
    SizeLimitError,
)
from .polynomials import RatPoly
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
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ShapeMismatchError("rows must be nonempty and of equal length")
        coerced = tuple(tuple(rings.coerce(v, ring) for v in row) for row in rows)
        return cls(len(coerced), len(coerced[0]), coerced, ring)

    @classmethod
    def identity(cls, n: int, ring: RingSpec) -> "Matrix":
        one, zero = rings.one(ring), rings.zero(ring)
        return cls.from_rows(
            [[one if i == j else zero for j in range(n)] for i in range(n)], ring
        )

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int, ring: RingSpec) -> "Matrix":
        zero = rings.zero(ring)
        return cls.from_rows([[zero] * n_cols for _ in range(n_rows)], ring)

    def __getitem__(self, key: tuple[int, int]) -> Element:
        i, j = key
        return self.entries[i][j]

    def row(self, i: int) -> tuple[Element, ...]:
        return self.entries[i]

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
                [rings.element_to_json(v, self.ring) for v in row] for row in self.entries
            ],
        }

    def __str__(self) -> str:
        rendered = [
            [rings.element_to_text(v, self.ring) for v in row] for row in self.entries
        ]
        width = max((len(s) for row in rendered for s in row), default=1)
        return "\n".join(
            "[ " + "  ".join(s.rjust(width) for s in row) + " ]" for row in rendered
        )


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
        for field in ("rows", "cols"):
            if field in data and data[field] != (m.n_rows if field == "rows" else m.n_cols):
                raise ParseError(f"field {field!r}: does not match 'entries'")
        return m
    if isinstance(data, list):
        if ring is None:
            raise ParseError("a bare entry array needs an explicit ring")
        return Matrix.from_rows(_parse_entries(data, ring), ring)
    raise ParseError(f"matrix must be an object or 2D array, got {data!r}")


def _parse_entries(entries: object, ring: RingSpec) -> list[list[Element]]:
    """Rows of parsed elements; errors name the offending entries[i] or entries[i][j]."""
    if not isinstance(entries, list):
        raise ParseError("field 'entries': expected a 2D array")
    rows = []
    for i, row in enumerate(entries):
        if not isinstance(row, list):
            raise ParseError(f"field 'entries[{i}]': expected an array, got {row!r}")
        parsed = []
        for j, v in enumerate(row):
            try:
                parsed.append(rings.parse_element(v, ring))
            except ParseError as exc:
                raise ParseError(f"field 'entries[{i}][{j}]': {exc}") from None
        rows.append(parsed)
    return rows


# -- determinants ---------------------------------------------------------------


def _bareiss(
    rows: list[list],
    one,
    is_zero: Callable,
    exact_div: Callable,
):
    """Fraction-free determinant; exact_div must be exact division in the domain."""
    n = len(rows)
    sign_flip = False
    prev = one
    for k in range(n - 1):
        if is_zero(rows[k][k]):
            pivot_row = next(
                (i for i in range(k + 1, n) if not is_zero(rows[i][k])), None
            )
            if pivot_row is None:
                return rows[k][k]  # a zero column below the diagonal: det = 0
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign_flip = not sign_flip
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = exact_div(
                    rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j], prev
                )
            rows[i][k] = rows[k][k] - rows[k][k]  # typed zero
        prev = rows[k][k]
    det = rows[n - 1][n - 1]
    return -det if sign_flip else det


def determinant(m: Matrix) -> Element:
    """Exact determinant via Bareiss elimination."""
    if not m.is_square():
        raise NotSquareError(f"determinant of a {m.n_rows}x{m.n_cols} matrix")
    ring = m.ring

    def div(a: Element, b: Element) -> Element:
        q = rings.exact_divide(a, b, ring)
        if q is None:
            raise ArithmeticError("Bareiss division was not exact")
        return q

    return _bareiss(
        [list(row) for row in m.entries], rings.one(ring), rings.is_zero, div
    )


def determinant_fractions(rows: list[list]) -> object:
    """Determinant of a matrix of Fractions (or anything with exact division)."""
    from fractions import Fraction

    return _bareiss(
        [list(r) for r in rows], Fraction(1), lambda v: v == 0, lambda a, b: a / b
    )


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
        out.append(canonical_or_zero(g, ring))
    return MinorGcdProfile(tuple(out))


def canonical_or_zero(a: Element, ring: RingSpec) -> Element:
    return a if rings.is_zero(a) else rings.canonicalize(a, ring)


# -- Smith normal form ---------------------------------------------------------


@dataclass(frozen=True)
class SnfResult:
    """M = P * D * Q with unimodular P, Q and D = diag(d_1, ..., d_r, 0, ...)."""

    P: Matrix
    D: Matrix
    Q: Matrix
    diagonals: tuple[Element, ...]


class _Reduction:
    """Mutable state for the reduction: D plus the inverse-tracking P and Q."""

    def __init__(self, m: Matrix):
        self.ring = m.ring
        self.d = [list(row) for row in m.entries]
        self.n = m.n_rows
        self.m = m.n_cols
        one, zero = rings.one(self.ring), rings.zero(self.ring)
        self.p = [[one if i == j else zero for j in range(self.n)] for i in range(self.n)]
        self.q = [[one if i == j else zero for j in range(self.m)] for i in range(self.m)]
        self._scalable = self.ring.family is RingFamily.RATIONAL_POLYNOMIALS
        for i in range(self.n):
            self.normalize_row(i)

    # D <- E*D is mirrored by P <- P*E^(-1); column ops mirror into Q rows.

    # Over Q[x] every nonzero constant is a unit, so rows and columns can be
    # rescaled to primitive integer coefficients after each operation; without
    # this the naive reduction suffers hyper-exponential fraction growth.

    def _primitive_scale(self, values: list) -> Fraction | None:
        denoms = []
        numers = []
        for v in values:
            for c in v.coefficients:
                denoms.append(c.denominator)
                numers.append(c.numerator)
        if not numers:
            return None
        common = int_lcm(*denoms)
        content = int_gcd(*(abs(n * (common // d)) for n, d in zip(numers, denoms)))
        scale = Fraction(common, content)
        return None if scale == 1 else scale

    def normalize_row(self, i: int) -> None:
        if not self._scalable:
            return
        scale = self._primitive_scale([v for v in self.d[i] if not rings.is_zero(v)])
        if scale is not None:
            self.scale_row(i, RatPoly.constant(scale))

    def normalize_col(self, j: int) -> None:
        if not self._scalable:
            return
        col = [self.d[r][j] for r in range(self.n)]
        scale = self._primitive_scale([v for v in col if not rings.is_zero(v)])
        if scale is not None:
            self.scale_col(j, RatPoly.constant(scale))

    def swap_rows(self, i: int, j: int) -> None:
        if i == j:
            return
        self.d[i], self.d[j] = self.d[j], self.d[i]
        for r in range(self.n):
            self.p[r][i], self.p[r][j] = self.p[r][j], self.p[r][i]

    def swap_cols(self, i: int, j: int) -> None:
        if i == j:
            return
        for r in range(self.n):
            self.d[r][i], self.d[r][j] = self.d[r][j], self.d[r][i]
        self.q[i], self.q[j] = self.q[j], self.q[i]

    def add_row_multiple(self, dst: int, src: int, c: Element) -> None:
        """row_dst += c * row_src on D; P gets column_src -= c * column_dst."""
        if rings.is_zero(c):
            return
        self.d[dst] = [a + c * b for a, b in zip(self.d[dst], self.d[src])]
        for r in range(self.n):
            self.p[r][src] = self.p[r][src] - self.p[r][dst] * c
        self.normalize_row(dst)

    def add_col_multiple(self, dst: int, src: int, c: Element) -> None:
        """col_dst += c * col_src on D; Q gets row_src -= c * row_dst."""
        if rings.is_zero(c):
            return
        for r in range(self.n):
            self.d[r][dst] = self.d[r][dst] + self.d[r][src] * c
        self.q[src] = [a - c * b for a, b in zip(self.q[src], self.q[dst])]
        self.normalize_col(dst)

    def scale_row(self, i: int, u: Element) -> None:
        """row_i *= u for a unit u; P column i picks up the inverse."""
        inv = rings.unit_inverse(u, self.ring)
        self.d[i] = [u * a for a in self.d[i]]
        for r in range(self.n):
            self.p[r][i] = self.p[r][i] * inv

    def scale_col(self, j: int, u: Element) -> None:
        """col_j *= u for a unit u; Q row j picks up the inverse."""
        inv = rings.unit_inverse(u, self.ring)
        for r in range(self.n):
            self.d[r][j] = self.d[r][j] * u
        self.q[j] = [inv * a for a in self.q[j]]

    def apply_row_pair(self, i: int, j: int, block: list[list[Element]], inverse: list[list[Element]]) -> None:
        """Rows (i, j) of D <- block * (rows i, j); P columns get the inverse."""
        (a11, a12), (a21, a22) = block
        ri, rj = self.d[i], self.d[j]
        self.d[i] = [a11 * x + a12 * y for x, y in zip(ri, rj)]
        self.d[j] = [a21 * x + a22 * y for x, y in zip(ri, rj)]
        (b11, b12), (b21, b22) = inverse
        for r in range(self.n):
            pi, pj = self.p[r][i], self.p[r][j]
            self.p[r][i] = pi * b11 + pj * b21
            self.p[r][j] = pi * b12 + pj * b22
        self.normalize_row(i)
        self.normalize_row(j)

    def apply_col_pair(self, i: int, j: int, block: list[list[Element]], inverse: list[list[Element]]) -> None:
        """Columns (i, j) of D <- (cols i, j) * block; Q rows get the inverse."""
        (a11, a12), (a21, a22) = block
        for r in range(self.n):
            ci, cj = self.d[r][i], self.d[r][j]
            self.d[r][i] = ci * a11 + cj * a21
            self.d[r][j] = ci * a12 + cj * a22
        (b11, b12), (b21, b22) = inverse
        qi, qj = self.q[i], self.q[j]
        self.q[i] = [b11 * x + b12 * y for x, y in zip(qi, qj)]
        self.q[j] = [b21 * x + b22 * y for x, y in zip(qi, qj)]
        self.normalize_col(i)
        self.normalize_col(j)


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


def _bezout_blocks(
    ring: RingSpec, a: Element, b: Element
) -> tuple[Element, list[list[Element]], list[list[Element]]]:
    """(g, L, L_inverse) with L * (a, b)^T = (g, 0)^T and det(L) = 1."""
    g, s, t_coef = rings.xgcd(a, b, ring)
    ag = rings.exact_divide(a, g, ring)
    bg = rings.exact_divide(b, g, ring)
    if ag is None or bg is None:
        raise ArithmeticError("gcd does not divide its arguments")
    zero = rings.zero(ring)
    block = [[s, t_coef], [zero - bg, ag]]
    inverse = [[ag, zero - t_coef], [bg, s]]
    return g, block, inverse


def _clear_pivot_row_col(red: _Reduction, t: int) -> None:
    """Zero out column t and row t beyond the pivot.

    Entries divisible by the pivot go by plain shears; the rest by a
    unimodular Bezout block that lands the gcd on the pivot.  A Bezout step
    shrinks the pivot strictly, so the outer loop terminates, and a full
    shear-only pass leaves everything clean.
    """
    ring = red.ring
    while True:
        used_bezout = False
        for i in range(t + 1, red.n):
            if rings.is_zero(red.d[i][t]):
                continue
            quotient = rings.exact_divide(red.d[i][t], red.d[t][t], ring)
            if quotient is not None:
                red.add_row_multiple(i, t, -quotient)
            else:
                _, block, inverse = _bezout_blocks(ring, red.d[t][t], red.d[i][t])
                red.apply_row_pair(t, i, block, inverse)
                used_bezout = True
        for j in range(t + 1, red.m):
            if rings.is_zero(red.d[t][j]):
                continue
            quotient = rings.exact_divide(red.d[t][j], red.d[t][t], ring)
            if quotient is not None:
                red.add_col_multiple(j, t, -quotient)
            else:
                g, block, inverse = _bezout_blocks(ring, red.d[t][t], red.d[t][j])
                # transposed arrangement: columns (t, j) <- (cols) * F
                (s, t_coef), (neg_bg, ag) = block
                col_block = [[s, neg_bg], [t_coef, ag]]
                col_inverse = [[ag, rings.zero(ring) - neg_bg], [rings.zero(ring) - t_coef, s]]
                red.apply_col_pair(t, j, col_block, col_inverse)
                used_bezout = True
        col_clean = all(rings.is_zero(red.d[i][t]) for i in range(t + 1, red.n))
        row_clean = all(rings.is_zero(red.d[t][j]) for j in range(t + 1, red.m))
        if col_clean and row_clean:
            return
        if not used_bezout:
            raise ArithmeticError("pivot clearing made no progress")


def smith_normal_form(m: Matrix) -> SnfResult:
    """Smith Normal Form with transforms: M = P * D * Q, d_k | d_{k+1}."""
    red = _Reduction(m)
    ring = red.ring
    limit = min(red.n, red.m)

    t = 0
    while t < limit:
        pos = _min_size_position(red, t)
        if pos is None:
            break
        red.swap_rows(t, pos[0])
        red.swap_cols(t, pos[1])
        _clear_pivot_row_col(red, t)
        t += 1

    _sort_zeros_last(red, limit)
    _enforce_divisibility(red, limit)
    _canonicalize_diagonal(red, limit)

    d_matrix = Matrix.from_rows(red.d, ring)
    diagonals = tuple(
        red.d[k][k] for k in range(limit) if not rings.is_zero(red.d[k][k])
    )
    return SnfResult(
        P=Matrix.from_rows(red.p, ring),
        D=d_matrix,
        Q=Matrix.from_rows(red.q, ring),
        diagonals=diagonals,
    )


def _sort_zeros_last(red: _Reduction, limit: int) -> None:
    nonzero = [k for k in range(limit) if not rings.is_zero(red.d[k][k])]
    for target, source in enumerate(nonzero):
        if source != target:
            red.swap_rows(target, source)
            red.swap_cols(target, source)


def _enforce_divisibility(red: _Reduction, limit: int) -> None:
    """gcd/lcm fix-up: repeatedly replace (d_i, d_j) by (g, d_i*d_j/g)."""
    ring = red.ring
    rank = sum(1 for k in range(limit) if not rings.is_zero(red.d[k][k]))
    while True:
        violation = None
        for i in range(rank):
            for j in range(i + 1, rank):
                if not rings.divides(red.d[i][i], red.d[j][j], ring):
                    violation = (i, j)
                    break
            if violation:
                break
        if violation is None:
            return
        i, j = violation
        a, b = red.d[i][i], red.d[j][j]
        g, s, t_coef = rings.xgcd(a, b, ring)
        ag = rings.exact_divide(a, g, ring)
        bg = rings.exact_divide(b, g, ring)
        if ag is None or bg is None:
            raise ArithmeticError("gcd does not divide its arguments")
        one = rings.one(ring)
        # diag(a, b) = L^(-1) * diag(g, a*b/g) * R^(-1) with unimodular
        # L = [[s, t], [-b/g, a/g]] and R = [[1, -t*b/g], [1, s*a/g]].
        row_block = [[s, t_coef], [rings.zero(ring) - bg, ag]]
        row_inverse = [[ag, rings.zero(ring) - t_coef], [bg, s]]
        col_block = [[one, rings.zero(ring) - t_coef * bg], [one, s * ag]]
        col_inverse = [[s * ag, t_coef * bg], [rings.zero(ring) - one, one]]
        red.apply_row_pair(i, j, row_block, row_inverse)
        red.apply_col_pair(i, j, col_block, col_inverse)


def _canonicalize_diagonal(red: _Reduction, limit: int) -> None:
    ring = red.ring
    for k in range(limit):
        v = red.d[k][k]
        if rings.is_zero(v):
            continue
        canon = rings.canonicalize(v, ring)
        if canon != v:
            u = rings.exact_divide(canon, v, ring)
            if u is None or not rings.is_unit(u, ring):
                raise ArithmeticError("canonical associate is not a unit multiple")
            red.scale_row(k, u)


# -- verification ------------------------------------------------------------------


@dataclass(frozen=True)
class SnfCheck:
    """Outcome of verify_snf; falsy when any check failed."""

    ok: bool
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def verify_snf(m: Matrix, result: SnfResult) -> SnfCheck:
    """Check M = P*D*Q, unimodularity, the chain, and the minor-gcd identity."""
    ring = m.ring
    failures: list[str] = []
    if (
        result.P.n_rows != m.n_rows
        or result.P.n_cols != m.n_rows
        or result.Q.n_rows != m.n_cols
        or result.Q.n_cols != m.n_cols
        or result.D.n_rows != m.n_rows
        or result.D.n_cols != m.n_cols
    ):
        raise ShapeMismatchError("transform shapes do not match the input matrix")

    product = result.P @ result.D @ result.Q
    if product.entries != m.entries:
        failures.append("P*D*Q does not reproduce the input")
    if not result.D.is_diagonal():
        failures.append("D is not diagonal")
    for name, t in (("P", result.P), ("Q", result.Q)):
        if not rings.is_unit(determinant(t), ring):
            failures.append(f"det({name}) is not a unit")

    diag = [result.D[k, k] for k in range(min(m.n_rows, m.n_cols))]
    seen_zero = False
    for k, v in enumerate(diag):
        if rings.is_zero(v):
            seen_zero = True
        elif seen_zero:
            failures.append(f"zero diagonal entry precedes nonzero d_{k + 1}")
    for k in range(len(diag) - 1):
        if not rings.is_zero(diag[k]) and not rings.divides(diag[k], diag[k + 1], ring):
            failures.append(f"divisibility chain broken at d_{k + 1} | d_{k + 2}")

    if max(m.n_rows, m.n_cols) <= MINOR_ENUMERATION_LIMIT:
        profile = minor_gcd_profile(m).per_order
        partial = rings.one(ring)
        for k, expected in enumerate(profile):
            partial = partial * diag[k]
            if not rings.are_associated(partial, expected, ring):
                failures.append(
                    f"product d_1..d_{k + 1} is not associated to the {k + 1}-minor gcd"
                )
    return SnfCheck(not failures, tuple(failures))
