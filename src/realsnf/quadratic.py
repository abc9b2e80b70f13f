"""Exact arithmetic in real quadratic integer rings.

Elements are integer pairs (x, y) over the integral basis {1, w}, where
w = sqrt(d) for the Zsqrt form and w = (1+sqrt(d))/2 for the Zhalf form.
The two real embeddings send sqrt(d) to +sqrt(d) and -sqrt(d); signs under
them are decided exactly by comparing squares, never with floating point.

The fundamental unit is found by an ascending Pell search, and the norm of
that unit decides whether every sign pattern is realized by units, which in
turn decides whether every element owns a totally positive associate.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache

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

    def __str__(self) -> str:
        fmt = {1: "+", -1: "-", 0: "0"}
        return f"({fmt[self.at_plus]},{fmt[self.at_minus]})"


class QuadElem:
    """x + y*w in a quadratic integer ring: an immutable value, equal to another
    element exactly when (x, y, ring) are equal."""

    __slots__ = ("x", "y", "ring")

    def __init__(self, x: int, y: int, ring: RingSpec) -> None:
        if ring.family is not RingFamily.QUADRATIC_INTEGERS:
            raise UnsupportedRingError("QuadElem requires a quadratic ring")
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

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def height(self) -> int:
        return max(abs(self.x), abs(self.y))

    def _coerce(self, other: "int | QuadElem") -> "QuadElem":
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
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _quad(self.x + other.x, self.y + other.y, self.ring)

    __radd__ = __add__

    def __neg__(self) -> "QuadElem":
        return _quad(-self.x, -self.y, self.ring)

    def __sub__(self, other: "int | QuadElem") -> "QuadElem":
        if other.__class__ is not QuadElem or other.ring is not self.ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _quad(self.x - other.x, self.y - other.y, self.ring)

    def __rsub__(self, other: "int | QuadElem") -> "QuadElem":
        return (-self) + other

    def __mul__(self, other: "int | QuadElem") -> "QuadElem":
        if other.__class__ is not QuadElem or other.ring is not self.ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        ring = self.ring
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        yy = y1 * y2
        if ring.uses_half_basis:  # w**2 = w + (d-1)/4
            return _quad(x1 * x2 + ring.w2_rational * yy, x1 * y2 + y1 * x2 + yy, ring)
        return _quad(x1 * x2 + ring.w2_rational * yy, x1 * y2 + y1 * x2, ring)

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
        if self.ring.uses_half_basis:
            # conj(w) = 1 - w
            return _quad(self.x + self.y, -self.y, self.ring)
        return _quad(self.x, -self.y, self.ring)

    def norm(self) -> int:
        """N(a) = a * conjugate(a), an exact rational integer."""
        x, y, ring = self.x, self.y, self.ring
        if ring.uses_half_basis:
            return x * x + x * y - ring.w2_rational * y * y
        return x * x - ring.w2_rational * y * y

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
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero in quadratic ring")
        num = self * other.conjugate()
        nb = other.norm()
        x0 = _round_half_to_zero(num.x, nb)
        y0 = _round_half_to_zero(num.y, nb)
        bound = abs(nb)
        for shell in _QUOTIENT_SHELLS:
            for dx, dy in shell:
                q = _quad(x0 + dx, y0 + dy, self.ring)
                r = self - other * q
                if r.is_zero() or abs(r.norm()) < bound:
                    return q, r
        raise ArithmeticError(
            f"no Euclidean quotient found in {self.ring}; d outside the verified range?"
        )

    def __floordiv__(self, other: "int | QuadElem") -> "QuadElem":
        return divmod(self, other)[0]

    def __mod__(self, other: "int | QuadElem") -> "QuadElem":
        return divmod(self, other)[1]

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


@dataclass(frozen=True)
class FundamentalUnit:
    """Generator of the infinite part of the unit group, larger than 1 at +sqrt(d)."""

    unit: QuadElem
    norm: int


def _is_square(n: int) -> int | None:
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


@lru_cache(maxsize=None)
def fundamental_unit(ring: RingSpec) -> FundamentalUnit:
    """Smallest unit above 1, by ascending search on the Pell equations.

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
                unit = QuadElem((x - y) // 2 if half else x, y, ring)
                return FundamentalUnit(unit, unit.norm())
    raise ArithmeticError(f"Pell search exhausted for d={ring.d}")


def _require_quadratic(ring: RingSpec) -> None:
    if ring.family is not RingFamily.QUADRATIC_INTEGERS:
        raise UnsupportedRingError(f"{ring} is not a quadratic integer ring")


def pnri_holds(ring: RingSpec) -> bool:
    """Whether units realize mixed sign patterns: true iff N(fundamental unit) = -1."""
    return fundamental_unit(ring).norm == -1


def positive_associate(a: QuadElem) -> QuadElem | None:
    """Some unit multiple of a that is positive at both embeddings, if one exists."""
    if a.is_zero():
        raise ZeroElementError("zero has no positive associate")
    pattern = a.sign_pattern()
    if pattern.is_totally_positive:
        return a
    if pattern.at_plus < 0 and pattern.at_minus < 0:
        return -a
    if not pnri_holds(a.ring):
        return None
    u = fundamental_unit(a.ring).unit  # pattern (+, -) since N(u) = -1
    candidate = a * u if pattern.at_plus > 0 else a * (-u)
    if not candidate.sign_pattern().is_totally_positive:
        raise ArithmeticError("unit of norm -1 did not flip the sign pattern")
    return candidate


def _orbit_window(a: QuadElem) -> list[QuadElem]:
    """Associates a * u0**k for k around the height minimum of the orbit."""
    u0 = fundamental_unit(a.ring).unit
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
    """
    if a.is_zero():
        return a
    d = a.ring.d
    # c != 0 is never 0 at the plus embedding (sqrt(d) is irrational), so
    # exactly one of c and -c is positive there
    pool = [
        c if _sign_with_sqrt(*c._sqrt_coordinates(), d) > 0 else -c for c in _orbit_window(a)
    ]
    return min(pool, key=lambda c: (c.height(), abs(c.y), -c.x, -c.y))


def exact_divide(a: QuadElem, b: QuadElem) -> QuadElem | None:
    """a / b when b divides a exactly in the ring, else None."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero in quadratic ring")
    num = a * b.conjugate()
    nb = b.norm()
    if num.x % nb or num.y % nb:
        return None
    return _quad(num.x // nb, num.y // nb, a.ring)
