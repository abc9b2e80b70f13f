"""Ring-generic Euclidean algorithms over the three supported families.

Elements are plain ``int`` for Z, :class:`RatPoly` for Q[x], and
:class:`QuadElem` for the quadratic rings.  They are plain values: an element
is zero exactly when it is falsy, and ``divmod`` is the Euclidean step.  Only
the entry points that take values from outside the package coerce them
(:func:`parse_element`, :func:`zero`, :func:`one`, :func:`is_unit`,
:func:`gcd`, :func:`are_associated`, :func:`valuation`); everything else
takes elements of the ring as they are.  Only these facts dispatch on the
:class:`RingSpec` family: building and parsing elements, the Euclidean size,
exact division, the canonical and the positive associate, the primitive part
(Q[x] only, in xgcd), a nonzero element G of the ideal some values generate
(:func:`ideal_element`, the modulus of the Smith stage of ``verify``),
residues modulo a rational integer (:func:`residue`, Z and the quadratic
rings) and pnri.  The rest is derived from them for every family: units
(1 / a exists), gcd (the canonical xgcd generator), association, p-adic
valuations by repeated exact division, and every yes/no sign question (a is
>= 0 at every ordering exactly when :func:`positive_associate` gives a).

One more per-family fact lives beside the loops that use it: the entry
arithmetic of the elimination loops of :mod:`matrices`, ints over Z and int
pairs over the quadratic rings (:class:`quadratic.PairArithmetic`), rather
than these functions.  It holds the only inverse modulo a rational integer,
which the unit-pivot pass of the Smith stage runs, and over the quadratic
rings it shares the basis rules of :mod:`quadratic` (product, conjugate and
norm) with :class:`QuadElem`.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import Sequence, Union

from . import polynomials, quadratic
from .errors import (
    BothZeroError,
    ParseError,
    UnitInputError,
    UnsupportedRingError,
    ZeroElementError,
)
from .polynomials import RatPoly, parse_int
from .quadratic import QuadElem
from .ringspec import RingFamily, RingSpec

Element = Union[int, RatPoly, QuadElem]


@functools.cache
def zero(ring: RingSpec) -> Element:
    return coerce(0, ring)


@functools.cache
def one(ring: RingSpec) -> Element:
    return coerce(1, ring)


def coerce(value: "Element | Fraction", ring: RingSpec) -> Element:
    """Bring an int (over Q[x] also a Fraction) or a ring element into the ring; never a bool."""
    if isinstance(value, bool):
        raise UnsupportedRingError(f"a bool is not an element of {ring}")
    if ring.family is RingFamily.INTEGERS:
        if isinstance(value, int):
            return value
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
    raise UnsupportedRingError(f"cannot interpret {value!r} as an element of {ring}")


def is_unit(a: Element, ring: RingSpec) -> bool:
    """True when a is nonzero and 1 / a exists in the ring."""
    a = coerce(a, ring)
    return bool(a) and exact_divide(one(ring), a, ring) is not None


def euclidean_size(a: Element, ring: RingSpec) -> int:
    """|a| for Z, degree for Q[x], |N(a)| for quadratic rings.  a must be nonzero."""
    if ring.family is RingFamily.INTEGERS:
        return abs(a)
    if ring.family is RingFamily.RATIONAL_POLYNOMIALS:
        return a.degree
    return abs(a.norm())


def exact_divide(a: Element, b: Element, ring: RingSpec) -> Element | None:
    """a / b when b | a exactly, else None."""
    if ring.family is RingFamily.QUADRATIC_INTEGERS:
        return quadratic.exact_divide(a, b)
    q, r = divmod(a, b)
    return None if r else q


def divides(b: Element, a: Element, ring: RingSpec) -> bool:
    """True when b | a (everything divides zero)."""
    if not a:
        return True
    return exact_divide(a, b, ring) is not None


def canonicalize(a: Element, ring: RingSpec) -> Element:
    """Canonical representative of the associate class of a.

    Nonnegative for Z, monic for Q[x]; for quadratic rings, positive at the
    plus embedding with minimal coordinate height.
    """
    if ring.family is RingFamily.INTEGERS:
        return abs(a)
    if ring.family is RingFamily.RATIONAL_POLYNOMIALS:
        return a.monic()
    return quadratic.canonical_associate(a)


def positive_associate(a: Element, ring: RingSpec) -> Element | None:
    """An associate of a nonzero a that is >= 0 at every ordering (a itself if a >= 0), or None."""
    if ring.family is RingFamily.INTEGERS:
        return abs(a)
    if ring.family is RingFamily.RATIONAL_POLYNOMIALS:
        return polynomials.positive_associate(a)
    return quadratic.positive_associate(a)


def gcd(a: Element, b: Element, ring: RingSpec) -> Element:
    """Canonical generator of the ideal (a, b); raises when both are zero."""
    return canonicalize(xgcd(coerce(a, ring), coerce(b, ring), ring)[0], ring)


def xgcd(
    a: Element, b: Element, ring: RingSpec
) -> tuple[Element, list[list[Element]], int | Fraction]:
    """(g, [[s, t], [u, v]], scale): a block of determinant 1 taking (a, b) to
    (g, 0), so s*a + t*b = g for a generator g of (a, b) and (u, v) = (-b/g, a/g).

    Over Q[x] each remainder is replaced by its primitive part (Collins 1967)
    and its cofactors by the same positive multiple, so coefficients stay
    small; g, s, t are then ``scale`` > 0 times the classical values (1 over Z
    and the quadratic rings).  The steps have determinants -c (c = 1 off a
    Q[x] rescale); the last cofactor row times their product's inverse is (u, v).
    """
    if not (a or b):
        raise BothZeroError("gcd(0, 0) is undefined")
    primitive = ring.family is RingFamily.RATIONAL_POLYNOMIALS
    s0, s1 = one(ring), zero(ring)
    t0, t1 = zero(ring), one(ring)
    # a and b are scale0 and scale1 times the classical remainders, and
    # (a mod b) is scale0 times the next one.
    scale0 = scale1 = inverse = 1
    first = True
    while b:
        q, r = divmod(a, b)
        if first:  # s1 = 0 and t1 = 1 need no product
            s, t, first = s0, -q, False
        else:
            s, t = s0 - q * s1, t0 - q * t1
        scale, inverse = scale0, -inverse
        if primitive and r:
            c = r.primitive_scale()
            r, s, t, scale, inverse = r * c, s * c, t * c, scale * c, inverse / c
        a, b = b, r
        s0, s1 = s1, s
        t0, t1 = t1, t
        scale0, scale1 = scale1, scale
    if primitive:
        return a, [[s0, t0], [s1 * inverse, t1 * inverse]], scale0
    # inverse is 1 or -1 over Z and the quadratic rings
    return a, [[s0, t0], [s1, t1] if inverse > 0 else [-s1, -t1]], scale0


def ideal_element(values: Sequence[Element], ring: RingSpec) -> Element:
    """A nonzero element G of the ideal the values generate, found without xgcd;
    the values must not all be zero.

    Over Z it is their gcd (``math.gcd``).  Over Q[x] it is 1 when their
    images modulo the word prime 2**31 - 1 show them coprime
    (:func:`polynomials.certify_coprime`); otherwise, an unlucky prime
    included, it is their gcd, or the gcd of a prefix once that is a nonzero
    constant, by remainder sequences over Q.  Over a quadratic ring
    it is the rational integer gcd of their norms, which lies in the ideal
    since N(v) = v * conj(v).  G is a unit only if the values are coprime;
    over a quadratic ring the converse fails: 3 + w and 3 - w in Z[sqrt(2)]
    are coprime, but both have norm 7, so G = 7.
    """
    if ring.family is RingFamily.INTEGERS:
        return math.gcd(*values)
    if ring.family is RingFamily.RATIONAL_POLYNOMIALS:
        if polynomials.certify_coprime(values):
            return one(ring)
        g = zero(ring)
        for v in values:
            g = polynomials.poly_gcd(g, v)
            if g.degree == 0:
                break
        return g
    return coerce(math.gcd(*(v.norm() for v in values)), ring)


def residue(a: Element, g: Element, ring: RingSpec) -> Element:
    """a modulo a rational integer g > 0, over Z or a quadratic ring: each
    coordinate taken into [0, g), so that a minus the result lies in g * R."""
    if ring.family is RingFamily.INTEGERS:
        return a % g
    return quadratic.coordinates_modulo(a, g.x)


def are_associated(a: Element, b: Element, ring: RingSpec) -> bool:
    """True when a = u * b for a unit u; (0, 0) counts."""
    a, b = coerce(a, ring), coerce(b, ring)
    if not (a and b):
        return not (a or b)
    return exact_divide(a, b, ring) is not None and exact_divide(b, a, ring) is not None


def valuation(p: Element, a: Element, ring: RingSpec) -> int:
    """Largest k with p**k | a; p irreducible (caller-asserted), a nonzero."""
    p, a = coerce(p, ring), coerce(a, ring)
    if not a:
        raise ZeroElementError("valuation of zero is not defined")
    if not p or is_unit(p, ring):
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


_QUAD_TEXT = re.compile(r"^(?P<x>[+-]?\d+)(?P<y>[+-]\d+)w$")


def parse_element(data: object, ring: RingSpec) -> Element:
    """Parse the per-ring textual / JSON form of one element."""
    # An int means the same in every ring; a bool falls to its family's error.
    if isinstance(data, int) and not isinstance(data, bool):
        return coerce(data, ring)
    if ring.family is RingFamily.INTEGERS:
        if isinstance(data, str):
            try:
                return parse_int(data.strip())
            except ValueError:
                raise ParseError(f"bad integer {data!r}") from None
        raise ParseError(f"bad integer {data!r}")
    if ring.family is RingFamily.RATIONAL_POLYNOMIALS:
        if isinstance(data, bool):
            raise ParseError(f"bad polynomial {data!r}")
        return polynomials.poly_from_json(data)
    if isinstance(data, dict):
        try:
            return QuadElem(parse_int(str(data["x"])), parse_int(str(data["y"])), ring)
        except (KeyError, ValueError) as exc:
            raise ParseError(f"bad quadratic element {data!r}: {exc}") from None
    if isinstance(data, str):
        text = data.replace(" ", "")
        m = _QUAD_TEXT.match(text)
        if m:
            return QuadElem(parse_int(m["x"]), parse_int(m["y"]), ring)
        try:
            return QuadElem(parse_int(text), 0, ring)
        except ValueError:
            raise ParseError(
                f"bad quadratic element {data!r}; expected '<x>+<y>w' or an integer"
            ) from None
    raise ParseError(f"bad quadratic element {data!r}")
