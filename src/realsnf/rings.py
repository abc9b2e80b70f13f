"""Ring-generic Euclidean algorithms over the three supported families.

Elements are plain ``int`` for Z, :class:`RatPoly` for Q[x], and
:class:`QuadElem` for the quadratic rings.  Only these facts dispatch on the
:class:`RingSpec` family: building and parsing elements, the Euclidean size,
exact division, the canonical associate, the primitive part (Q[x] only, in
xgcd), and pnri.  The rest is derived from them for every family: units
(1 / a exists), gcd (the canonical xgcd generator), association, and p-adic
valuations by repeated exact division.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from . import polynomials, quadratic
from .errors import (
    BothZeroError,
    ParseError,
    UnitInputError,
    UnsupportedRingError,
    ZeroElementError,
)
from .polynomials import RatPoly
from .quadratic import QuadElem
from .ringspec import RingFamily, RingSpec

Element = Union[int, RatPoly, QuadElem]


def zero(ring: RingSpec) -> Element:
    return coerce(0, ring)


def one(ring: RingSpec) -> Element:
    return coerce(1, ring)


def coerce(value: "Element | Fraction", ring: RingSpec) -> Element:
    """Bring an int (or an element of the right type) into the ring."""
    if ring.family is RingFamily.INTEGERS:
        if isinstance(value, int):
            return value
        if isinstance(value, Fraction) and value.denominator == 1:
            return int(value)
    elif ring.family is RingFamily.RATIONAL_POLYNOMIALS:
        if isinstance(value, RatPoly):
            return value
        if isinstance(value, (int, Fraction)):
            return RatPoly.constant(value)
    else:
        if isinstance(value, QuadElem):
            if value.ring is not ring and value.ring != ring:
                raise UnsupportedRingError(f"element of {value.ring} used in {ring}")
            return value
        if isinstance(value, int):
            return QuadElem(value, 0, ring)
        if isinstance(value, Fraction) and value.denominator == 1:
            return QuadElem(int(value), 0, ring)
    raise UnsupportedRingError(f"cannot interpret {value!r} as an element of {ring}")


def is_zero(a: Element) -> bool:
    if isinstance(a, int):
        return a == 0
    return a.is_zero()


def is_unit(a: Element, ring: RingSpec) -> bool:
    """True when a is nonzero and 1 / a exists in the ring."""
    return not is_zero(a) and exact_divide(1, a, ring) is not None


def euclidean_size(a: Element, ring: RingSpec) -> int:
    """|a| for Z, degree for Q[x], |N(a)| for quadratic rings.  a must be nonzero."""
    if is_zero(a):
        raise ZeroElementError("the zero element has no Euclidean size")
    if ring.family is RingFamily.INTEGERS:
        return abs(a)
    if ring.family is RingFamily.RATIONAL_POLYNOMIALS:
        return a.degree
    return abs(a.norm())


def exact_divide(a: Element, b: Element, ring: RingSpec) -> Element | None:
    """a / b when b | a exactly, else None."""
    a, b = coerce(a, ring), coerce(b, ring)
    if is_zero(b):
        raise ZeroDivisionError(f"division by zero over {ring}")
    if ring.family is RingFamily.QUADRATIC_INTEGERS:
        return quadratic.exact_divide(a, b)
    q, r = divmod(a, b)
    return q if is_zero(r) else None


def divides(b: Element, a: Element, ring: RingSpec) -> bool:
    """True when b | a (everything divides zero)."""
    if is_zero(a):
        return True
    return exact_divide(a, b, ring) is not None


def canonicalize(a: Element, ring: RingSpec) -> Element:
    """Canonical representative of the associate class of a.

    Nonnegative for Z, monic for Q[x]; for quadratic rings, positive at the
    plus embedding with minimal coordinate height.
    """
    a = coerce(a, ring)
    if is_zero(a):
        return a
    if ring.family is RingFamily.INTEGERS:
        return abs(a)
    if ring.family is RingFamily.RATIONAL_POLYNOMIALS:
        return a.monic()
    return quadratic.canonical_associate(a)


def gcd(a: Element, b: Element, ring: RingSpec) -> Element:
    """Canonical generator of the ideal (a, b); raises when both are zero."""
    return canonicalize(xgcd(a, b, ring)[0], ring)


def xgcd(
    a: Element, b: Element, ring: RingSpec
) -> tuple[Element, Element, Element, int | Fraction]:
    """(g, s, t, scale) with s*a + t*b = g; g is some generator of (a, b).

    Over Q[x] each remainder is replaced by its primitive part (a primitive
    remainder sequence, Collins 1967) and its cofactors by the same positive
    multiple, so the coefficients stay small.  g, s and t are then ``scale``
    times the values of the classical Euclidean algorithm, for a positive
    rational ``scale``; it is 1 over Z and the quadratic rings.
    """
    a, b = coerce(a, ring), coerce(b, ring)
    if is_zero(a) and is_zero(b):
        raise BothZeroError("gcd(0, 0) is undefined")
    primitive = ring.family is RingFamily.RATIONAL_POLYNOMIALS
    s0, s1 = one(ring), zero(ring)
    t0, t1 = zero(ring), one(ring)
    # a and b are scale0 and scale1 times the classical remainders, and
    # (a mod b) is scale0 times the next one.
    scale0 = scale1 = 1
    while not is_zero(b):
        q, r = divmod(a, b)
        s, t, scale = s0 - q * s1, t0 - q * t1, scale0
        if primitive and r:
            c = polynomials.primitive_scale(r.coefficients)
            r, s, t, scale = r * c, s * c, t * c, scale * c
        a, b = b, r
        s0, s1 = s1, s
        t0, t1 = t1, t
        scale0, scale1 = scale1, scale
    return a, s0, t0, scale0


def are_associated(a: Element, b: Element, ring: RingSpec) -> bool:
    """True when a = u * b for a unit u; (0, 0) counts."""
    a, b = coerce(a, ring), coerce(b, ring)
    if is_zero(a) or is_zero(b):
        return is_zero(a) and is_zero(b)
    return exact_divide(a, b, ring) is not None and exact_divide(b, a, ring) is not None


def valuation(p: Element, a: Element, ring: RingSpec) -> int:
    """Largest k with p**k | a; p irreducible (caller-asserted), a nonzero."""
    p, a = coerce(p, ring), coerce(a, ring)
    if is_zero(a):
        raise ZeroElementError("valuation of zero is not defined")
    if is_zero(p) or is_unit(p, ring):
        raise UnitInputError("valuation base must be a nonzero non-unit")
    k = 0
    while True:
        q = exact_divide(a, p, ring)
        if q is None:
            return k
        a = q
        k += 1


def pnri(ring: RingSpec) -> bool:
    """Whether every non-real irreducible owns a strictly positive associate.

    Automatic for Z and Q[x] (negate, respectively normalize monic and use
    that a rootless polynomial keeps one sign); for quadratic rings it is
    equivalent to the fundamental unit having norm -1.
    """
    if ring.family is RingFamily.QUADRATIC_INTEGERS:
        return quadratic.pnri_holds(ring)
    return True


# -- textual and JSON element forms -------------------------------------------


def element_to_text(a: Element, ring: RingSpec) -> str:
    """Text form of one element, also its JSON value: never a native number."""
    return str(coerce(a, ring))


_QUAD_TEXT = re.compile(r"^(?P<x>[+-]?\d+)(?P<y>[+-]\d+)w$")


def parse_element(data: object, ring: RingSpec) -> Element:
    """Parse the per-ring textual / JSON form of one element."""
    # An int means the same in every ring; a bool falls to its family's error.
    if isinstance(data, int) and not isinstance(data, bool):
        return coerce(data, ring)
    if ring.family is RingFamily.INTEGERS:
        if isinstance(data, str):
            try:
                return int(data.strip())
            except ValueError:
                raise ParseError(f"bad integer {data!r}") from None
        raise ParseError(f"bad integer {data!r}")
    if ring.family is RingFamily.RATIONAL_POLYNOMIALS:
        if isinstance(data, bool):
            raise ParseError(f"bad polynomial {data!r}")
        return polynomials.poly_from_json(data)
    if isinstance(data, dict):
        try:
            return QuadElem(int(str(data["x"])), int(str(data["y"])), ring)
        except (KeyError, ValueError) as exc:
            raise ParseError(f"bad quadratic element {data!r}: {exc}") from None
    if isinstance(data, str):
        text = data.replace(" ", "")
        m = _QUAD_TEXT.match(text)
        try:
            if m:
                return QuadElem(int(m.group("x")), int(m.group("y")), ring)
            return QuadElem(int(text), 0, ring)
        except ValueError as exc:
            if m:  # more digits than int() converts
                raise ParseError(f"bad quadratic element: {exc}") from None
            raise ParseError(
                f"bad quadratic element {data!r}; expected '<x>+<y>w' or an integer"
            ) from None
    raise ParseError(f"bad quadratic element {data!r}")
