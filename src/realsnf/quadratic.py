"""Exact arithmetic in real quadratic integer rings.

Elements are integer pairs (x, y) over the integral basis {1, w}, where
w = sqrt(d) for the Zsqrt form and w = (1+sqrt(d))/2 for the Zhalf form.
The two real embeddings send sqrt(d) to +sqrt(d) and -sqrt(d); signs under
them are decided exactly by comparing squares, never with floating point.

The fundamental unit is found by an ascending Pell search, and the norm of
that unit decides whether every sign pattern is realized by units, which in
turn decides whether every element owns a totally positive associate.

The basis rules on int pairs are written once, the product (:func:`_times`)
and the conjugate with the norm (:func:`_times_conjugate`), and
:class:`QuadElem` uses them.  So does :class:`PairArithmetic`, the entry
arithmetic that the elimination loops of ``matrices`` run on pairs, which
also holds the inverse modulo a rational integer of the unit-pivot pass.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import UnsupportedRingError, ZeroElementError
from .ringspec import RingFamily, RingSpec

_PELL_SEARCH_LIMIT = 1_000_000
_ORBIT_HARD_CAP = 100_000


def _sgn(n: int) -> int:
    return (n > 0) - (n < 0)


def _sign_with_sqrt(s: int, t: int, d: int) -> int:
    """Exact sign of s + t*sqrt(d) for integers s, t and non-square d >= 2."""
    if s == 0 and t == 0:
        return 0
    if s >= 0 and t >= 0:
        return 1
    if s <= 0 and t <= 0:
        return -1
    if s > 0:  # t < 0: positive iff s**2 > d*t**2
        return _sgn(s * s - d * t * t)
    return _sgn(d * t * t - s * s)  # s < 0, t > 0


def _round_half_to_zero(n: int, m: int) -> int:
    """Nearest integer to n/m, ties toward zero.  m must be nonzero."""
    if m < 0:
        n, m = -n, -m
    q, r = divmod(n, m)
    if 2 * r > m:
        return q + 1
    if 2 * r < m:
        return q
    return q if q >= 0 else q + 1


def _times(ax: int, ay: int, bx: int, by: int, half: bool, w2: int) -> tuple[int, int]:
    """(x, y) with x + y*w = a * b, for a = ax + ay*w, b = bx + by*w."""
    yy = ay * by
    if half:  # w**2 = w + w2
        return ax * bx + w2 * yy, ax * by + ay * bx + yy
    return ax * bx + w2 * yy, ax * by + ay * bx


def _times_conjugate(
    ax: int, ay: int, bx: int, by: int, half: bool, w2: int
) -> tuple[int, int, int]:
    """(x, y, N(b)) with x + y*w = a * conjugate(b), for a = ax + ay*w, b = bx + by*w;
    with a = 1 it is (conjugate(b), N(b))."""
    if half:  # conj(b) = (bx + by) - by*w and w**2 = w + w2
        cx = bx + by
        return ax * cx - w2 * ay * by, ay * cx - ax * by - ay * by, bx * cx - w2 * by * by
    return ax * bx - w2 * ay * by, ay * bx - ax * by, bx * bx - w2 * by * by


def _columns(x: int, y: int, half: bool, w2: int) -> tuple[int, int, int, int]:
    """(x, y, u, v) with a = x + y*w and a * w = u + v*w: multiplying by a is
    the integer map (s, t) -> s*(x, y) + t*(u, v) on pairs."""
    return (x, y, *_times(x, y, 0, 1, half, w2))


# Quotient offsets around the rounded point, tried shell by shell.  Nearest
# rounding alone does not satisfy the Euclidean bound for d in {6, 7, 11}
# (the norm form is an indefinite hyperbola, so the good lattice point can
# sit several steps away along it); the expanding search stays deterministic
# and returns the plain rounded quotient whenever that one is valid.
# Dense sweeps over fractional parts show the worst case per d: 0 for
# d in {2, 3, 5, 13}, 1 for {6, 7}, 5 for 11 (near (0, 1/2)); the cap
# leaves a wide margin.
_MAX_OFFSET_SHELL = 12


def _offset_shells(limit: int) -> list[list[tuple[int, int]]]:
    shells: list[list[tuple[int, int]]] = [[(0, 0)]]
    for radius in range(1, limit + 1):
        shell = [
            (dx, dy)
            for dx in range(-radius, radius + 1)
            for dy in range(-radius, radius + 1)
            if max(abs(dx), abs(dy)) == radius
        ]
        shell.sort(key=lambda p: (abs(p[0]) + abs(p[1]), p[0], p[1]))
        shells.append(shell)
    return shells


_QUOTIENT_SHELLS = _offset_shells(_MAX_OFFSET_SHELL)


@dataclass(frozen=True)
class SignPattern:
    """Signs of an element under the two real embeddings (+sqrt(d), -sqrt(d))."""

    at_plus: int
    at_minus: int

    @property
    def is_totally_positive(self) -> bool:
        return self.at_plus > 0 and self.at_minus > 0

    def __mul__(self, other: "SignPattern") -> "SignPattern":
        return SignPattern(self.at_plus * other.at_plus, self.at_minus * other.at_minus)


class QuadElem:
    """x + y*w, for int x and y, in a quadratic integer ring: an immutable
    value, equal to another element exactly when (x, y, ring) are equal."""

    __slots__ = ("x", "y", "ring")

    def __init__(self, x: int, y: int, ring: RingSpec) -> None:
        if ring.family is not RingFamily.QUADRATIC_INTEGERS:
            raise UnsupportedRingError("QuadElem requires a quadratic ring")
        if type(x) is not int or type(y) is not int:  # not a bool, float or Fraction
            raise UnsupportedRingError(f"QuadElem coordinates must be integers, got {x!r}, {y!r}")
        _set_x(self, x)
        _set_y(self, y)
        _set_ring(self, ring)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not QuadElem:
            return NotImplemented
        return (
            self.x == other.x
            and self.y == other.y
            and (self.ring is other.ring or self.ring == other.ring)
        )

    def __hash__(self) -> int:
        return hash((self.x, self.y, self.ring))

    def __reduce__(self):
        return QuadElem, (self.x, self.y, self.ring)

    # -- basic structure ---------------------------------------------------

    def __bool__(self) -> bool:
        return self.x != 0 or self.y != 0

    def height(self) -> int:
        return max(abs(self.x), abs(self.y))

    def _operand(self, other: "int | QuadElem") -> "QuadElem":
        if isinstance(other, QuadElem):
            if other.ring is not self.ring and other.ring != self.ring:
                raise UnsupportedRingError("mixed quadratic rings")
            return other
        if isinstance(other, int):
            return _quad(other, 0, self.ring)
        return NotImplemented  # type: ignore[return-value]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "int | QuadElem") -> "QuadElem":
        if other.__class__ is not QuadElem or other.ring is not self.ring:
            other = self._operand(other)
            if other is NotImplemented:
                return NotImplemented
        return _quad(self.x + other.x, self.y + other.y, self.ring)

    __radd__ = __add__

    def __neg__(self) -> "QuadElem":
        return _quad(-self.x, -self.y, self.ring)

    def __sub__(self, other: "int | QuadElem") -> "QuadElem":
        if other.__class__ is not QuadElem or other.ring is not self.ring:
            other = self._operand(other)
            if other is NotImplemented:
                return NotImplemented
        return _quad(self.x - other.x, self.y - other.y, self.ring)

    def __rsub__(self, other: "int | QuadElem") -> "QuadElem":
        return (-self) + other

    def __mul__(self, other: "int | QuadElem") -> "QuadElem":
        if other.__class__ is not QuadElem or other.ring is not self.ring:
            other = self._operand(other)
            if other is NotImplemented:
                return NotImplemented
        ring = self.ring
        x, y = _times(self.x, self.y, other.x, other.y, ring.uses_half_basis, ring.w2_rational)
        return _quad(x, y, ring)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QuadElem":
        if n < 0:
            raise ValueError("negative power of a quadratic integer")
        result = _quad(1, 0, self.ring)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "QuadElem":
        """Image under sqrt(d) -> -sqrt(d), in the same basis."""
        ring = self.ring
        x, y, _ = _times_conjugate(1, 0, self.x, self.y, ring.uses_half_basis, ring.w2_rational)
        return _quad(x, y, ring)

    def norm(self) -> int:
        """N(a) = a * conjugate(a), an exact rational integer."""
        ring = self.ring
        return _times_conjugate(1, 0, self.x, self.y, ring.uses_half_basis, ring.w2_rational)[2]

    # -- embeddings ---------------------------------------------------------

    def _sqrt_coordinates(self) -> tuple[int, int]:
        """(s, t) with value at the plus embedding equal to (s + t*sqrt(d)) / k."""
        if self.ring.uses_half_basis:
            return 2 * self.x + self.y, self.y  # halves: scale by 2 > 0
        return self.x, self.y

    def sign_pattern(self) -> SignPattern:
        s, t = self._sqrt_coordinates()
        d = self.ring.d
        return SignPattern(_sign_with_sqrt(s, t, d), _sign_with_sqrt(s, -t, d))

    # -- Euclidean division --------------------------------------------------

    def __divmod__(self, other: "int | QuadElem") -> tuple["QuadElem", "QuadElem"]:
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        ring = self.ring
        half, w2 = ring.uses_half_basis, ring.w2_rational
        ax, ay, bx, by = self.x, self.y, other.x, other.y
        if not (bx or by):
            raise ZeroDivisionError("division by zero in quadratic ring")
        # a / b = a * conj(b) / N(b), rounded coordinatewise
        nx, ny, nb = _times_conjugate(ax, ay, bx, by, half, w2)
        x0 = _round_half_to_zero(nx, nb)
        y0 = _round_half_to_zero(ny, nb)
        # r = a - b*(x0 + dx, y0 + dy) = r0 - dx*b - dy*(b*w), all in ints
        wx, wy = w2 * by, bx + by if half else bx  # b*w
        rx0 = ax - x0 * bx - y0 * wx
        ry0 = ay - x0 * by - y0 * wy
        bound = abs(nb)
        for shell in _QUOTIENT_SHELLS:
            for dx, dy in shell:
                rx = rx0 - dx * bx - dy * wx
                ry = ry0 - dx * by - dy * wy
                if abs(_times_conjugate(1, 0, rx, ry, half, w2)[2]) < bound:  # N(0) = 0 < bound
                    return _quad(x0 + dx, y0 + dy, ring), _quad(rx, ry, ring)
        raise ArithmeticError(
            f"no Euclidean quotient found in {ring}; d outside the verified range?"
        )

    # -- presentation --------------------------------------------------------

    def __str__(self) -> str:
        return f"{self.x}{self.y:+}w"

    def __repr__(self) -> str:
        return f"QuadElem({self.x}, {self.y}, {self.ring})"


_new_object = object.__new__
_set_x, _set_y, _set_ring = QuadElem.x.__set__, QuadElem.y.__set__, QuadElem.ring.__set__


def _quad(x: int, y: int, ring: RingSpec) -> QuadElem:
    """The element x + y*w of a ring already known to be quadratic."""
    a = _new_object(QuadElem)
    _set_x(a, x)
    _set_y(a, y)
    _set_ring(a, ring)
    return a


def coordinates_modulo(a: QuadElem, g: int) -> QuadElem:
    """a with both coordinates taken into [0, g), g > 0: a minus it is g times
    an integer of the ring, whichever integral basis the ring uses."""
    x, y = a.x % g, a.y % g
    return a if x == a.x and y == a.y else _quad(x, y, a.ring)


class PairArithmetic:
    """The entry arithmetic of ``matrices.symmetric_elimination``,
    ``matrices.determinant`` and ``matrices._unit_pivots`` over a quadratic
    ring, on int pairs (x, y) for x + y*w, with 0 for zero.  The loops load
    their entries as pairs and build QuadElems only for what they hand back
    (:meth:`elements`, which does not read the minor sizes); ``one`` is the
    empty minor."""

    one = (1, 0)

    def __init__(self, ring: RingSpec) -> None:
        self.ring = ring
        self.half, self.w2 = ring.uses_half_basis, ring.w2_rational

    def load(self, values: Sequence[QuadElem]) -> list:
        return [(a.x, a.y) if a.x or a.y else 0 for a in values]

    def elements(self, values: Sequence, sizes: Iterable[int] = ()) -> tuple[QuadElem, ...]:
        ring = self.ring
        return tuple(_quad(*(v or (0, 0)), ring) for v in values)

    def bareiss(self, p: tuple[int, int], prev: tuple[int, int] | None):
        """The Bareiss round on the pivot p after the pivot prev, as
        :func:`matrices._int_bareiss` runs it on ints.  p, conj(prev) and
        each row's b are turned into their :func:`_columns` once, so an entry
        update is integer products and two exact divisions by N(prev), whose
        remainders are checked."""
        half, w2 = self.half, self.w2
        px, py, pwx, pwy = _columns(p[0], p[1], half, w2)
        if prev is not None:
            qx, qy, norm = _times_conjugate(1, 0, prev[0], prev[1], half, w2)
            qx, qy, qwx, qwy = _columns(qx, qy, half, w2)

        def update(row: list, b, pivot_row: list, columns: list[int]) -> None:
            if b:
                bx, by, bwx, bwy = _columns(b[0], b[1], half, w2)
            for j in columns:
                x = y = 0
                v, c = row[j], pivot_row[j]
                if v:
                    vx, vy = v
                    x, y = vx * px + vy * pwx, vx * py + vy * pwy
                if b and c:
                    cx, cy = c
                    x, y = x - cx * bx - cy * bwx, y - cx * by - cy * bwy
                if not (x or y):
                    row[j] = 0
                    continue
                if prev is not None:
                    x, y = x * qx + y * qwx, x * qy + y * qwy
                    x, r = divmod(x, norm)
                    y, s = divmod(y, norm)
                    if r or s:
                        raise ArithmeticError("Bareiss division was not exact")
                row[j] = x, y

        return update

    def residues(self, values: Sequence[QuadElem], g: QuadElem) -> list:
        """The values modulo the rational integer g, as :func:`coordinates_modulo`
        takes them."""
        g = g.x
        out = []
        for a in values:
            x, y = a.x % g, a.y % g
            out.append((x, y) if x or y else 0)
        return out

    def inverse(self, v: tuple[int, int], g: QuadElem) -> tuple[int, int] | None:
        """The inverse of v modulo the rational integer g, coordinates in
        [0, g), or None when v is not a unit modulo g.  v * conj(v) = N(v),
        so v is a unit modulo g exactly when N(v) is, and conj(v) * N(v)^-1
        is then its inverse."""
        g = g.x
        cx, cy, norm = _times_conjugate(1, 0, v[0], v[1], self.half, self.w2)
        try:
            scale = pow(norm, -1, g)
        except ValueError:
            return None
        return cx * scale % g, cy * scale % g

    def clear(
        self, row: list, b: tuple[int, int], inverse: tuple[int, int], pivot_row: list, g: QuadElem
    ) -> list:
        """row - b * inverse * pivot_row, each entry modulo the rational integer g."""
        half, w2, g = self.half, self.w2, g.x
        fx, fy = _times(b[0], b[1], inverse[0], inverse[1], half, w2)
        fx, fy, fwx, fwy = _columns(fx % g, fy % g, half, w2)
        out = []
        for v, c in zip(row, pivot_row):
            if c:
                x, y = v or (0, 0)
                cx, cy = c
                x, y = (x - cx * fx - cy * fwx) % g, (y - cx * fy - cy * fwy) % g
                v = (x, y) if x or y else 0
            out.append(v)
        return out


def _is_square(n: int) -> int | None:
    r = math.isqrt(n)
    return r if r * r == n else None


@lru_cache(maxsize=None)
def fundamental_unit(ring: RingSpec) -> QuadElem:
    """Smallest unit above 1, by ascending search on the Pell equations: the
    generator of the infinite part of the unit group, larger than 1 at +sqrt(d).

    The least Y >= 1 with X**2 - d*Y**2 = +-k gives the unit (X + Y*sqrt(d))/2
    for the Zhalf form (k = 4) and X + Y*sqrt(d) for the Zsqrt form (k = 1).
    """
    _require_quadratic(ring)
    half = ring.uses_half_basis
    k = 4 if half else 1
    for y in range(1, _PELL_SEARCH_LIMIT):
        for delta in (-k, k):
            x = _is_square(ring.d * y * y + delta)
            if x is not None and x > 0:
                return QuadElem((x - y) // 2 if half else x, y, ring)
    raise ArithmeticError(f"Pell search exhausted for d={ring.d}")


def _require_quadratic(ring: RingSpec) -> None:
    if ring.family is not RingFamily.QUADRATIC_INTEGERS:
        raise UnsupportedRingError(f"{ring} is not a quadratic integer ring")


def pnri_holds(ring: RingSpec) -> bool:
    """Whether units realize mixed sign patterns: true iff N(fundamental unit) = -1."""
    return fundamental_unit(ring).norm() == -1


def positive_associate(a: QuadElem) -> QuadElem | None:
    """Some unit multiple of a that is positive at both embeddings, if one exists."""
    if not a:
        raise ZeroElementError("zero has no positive associate")
    pattern = a.sign_pattern()
    if pattern.is_totally_positive:
        return a
    if pattern.at_plus < 0 and pattern.at_minus < 0:
        return -a
    if not pnri_holds(a.ring):
        return None
    u = fundamental_unit(a.ring)  # pattern (+, -) since N(u) = -1
    candidate = a * u if pattern.at_plus > 0 else a * (-u)
    if not candidate.sign_pattern().is_totally_positive:
        raise ArithmeticError("unit of norm -1 did not flip the sign pattern")
    return candidate


def _orbit_window(a: QuadElem) -> list[QuadElem]:
    """Associates a * u0**k for k around the height minimum of the orbit."""
    u0 = fundamental_unit(a.ring)
    out = [a]
    for step in (u0, exact_divide(_quad(1, 0, a.ring), u0)):
        b = a
        best = a.height()
        worse = 0
        steps = 0
        while worse < 3:
            b = b * step
            out.append(b)
            h = b.height()
            if h < best:
                best = h
                worse = 0
            else:
                worse += 1
            steps += 1
            if steps > _ORBIT_HARD_CAP:
                raise ArithmeticError("unit orbit walk did not stabilize")
    return out


def canonical_associate(a: QuadElem) -> QuadElem:
    """Deterministic representative of the associate class of a.

    The representative is positive at the plus embedding and of minimal
    coordinate height.  Ties on height prefer the smallest |y| (so rational
    integers represent their own class), then the largest x, then the
    largest y.

    A rational integer n and a unit need no orbit walk.  Every associate
    n*u has coordinates n times those of u, so height |n|*height(u) >= |n|,
    with y = 0 only for u = +-1; the rules above therefore pick |n|, and for
    a unit (the class of 1) they pick 1.
    """
    x, y, ring = a.x, a.y, a.ring
    if not y:
        return a if x >= 0 else _quad(-x, 0, ring)
    if abs(a.norm()) == 1:
        return _quad(1, 0, ring)
    d = ring.d
    # c != 0 is never 0 at the plus embedding (sqrt(d) is irrational), so
    # exactly one of c and -c is positive there
    pool = [
        c if _sign_with_sqrt(*c._sqrt_coordinates(), d) > 0 else -c for c in _orbit_window(a)
    ]
    return min(pool, key=lambda c: (c.height(), abs(c.y), -c.x, -c.y))


def exact_divide(a: QuadElem, b: QuadElem) -> QuadElem | None:
    """a / b when b divides a exactly in the ring, else None."""
    ring = a.ring
    if not (b.x or b.y):
        raise ZeroDivisionError("division by zero in quadratic ring")
    nx, ny, nb = _times_conjugate(a.x, a.y, b.x, b.y, ring.uses_half_basis, ring.w2_rational)
    qx, rx = divmod(nx, nb)
    if rx:
        return None
    qy, ry = divmod(ny, nb)
    if ry:
        return None
    return _quad(qx, qy, ring)
