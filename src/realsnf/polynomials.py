"""Dense univariate polynomials with exact rational coefficients.

A polynomial is stored as a positive rational content times a primitive
integer polynomial, so arithmetic runs on integers and builds no Fraction
per coefficient (see :class:`RatPoly`).

Sign questions on the real line are decided without any numerics.  The
yes/no questions (nonnegativity on R, a real root of an irreducible) read
the positive associate: "even degree, and no real root of odd
multiplicity", then the sign of the leading coefficient.  Whether p has such
a root is decided in this order, each step running only when the one
before cannot tell:

1. an exact square test: p is a constant times a square;
2. Descartes' rule of signs on p(x) and p(-x), bisecting (0, oo) by integer
   Taylor shifts (Collins and Akritas, SYMSAC 1976) where the count is
   inconclusive;
3. one Sturm pass, starting from the Sturm chain of monic p.  When that
   chain ends in a constant, p is square-free and the chain says whether p
   changes sign.  Only when it ends in a nonconstant gcd does Yun's
   square-free decomposition (:func:`squarefree_decomposition`) run, to
   split off the odd-multiplicity part, whose one Sturm chain answers
   instead.

Only a printed negative point, the bisection that the same chain guides,
needs a root bound.  Over Z/p, for one word prime p, a gcd test shows
polynomials coprime over Q without a remainder sequence over Q
(:func:`certify_coprime`).
"""

from __future__ import annotations

import math
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import NotCertifiedIrreducibleError, ParseError, ZeroPolynomialError

Coefficient = Fraction | int


def _homogenized(coeffs: "list[int] | tuple[int, ...]", u: int, v: int) -> int:
    """sum(c[i] * u**i * v**(d-i)) = v**d * p(u/v), d = len(coeffs) - 1."""
    acc, vp = 0, 1
    for c in reversed(coeffs):
        acc = acc * u + c * vp
        vp *= v
    return acc


def eval_sign_int(coeffs: "list[int] | tuple[int, ...]", u: int, v: int) -> int:
    """Sign of p(u/v) where p has the given integer coefficients, constant first.

    Requires v > 0.  Computed as the sign of v**d * p(u/v), which shares the
    sign of p(u/v), so no Fraction is built.
    """
    acc = _homogenized(coeffs, u, v)
    return (acc > 0) - (acc < 0)


def sign_variations(values: "list[int] | tuple[int, ...]") -> int:
    """Number of sign changes in a sequence of integers, zeros skipped."""
    positive = [v > 0 for v in values if v]
    return sum(map(operator.ne, positive, positive[1:]))


class RatPoly:
    """Polynomial over Q, stored as (n/d) * P.

    P is a tuple of coprime integers, constant first, whose last entry is
    nonzero and carries the sign; n and d are coprime positive integers.
    The zero polynomial is P = () with n = d = 1.  Each polynomial has one
    such form, so equality compares the stored forms.  A product convolves
    the two P's and needs no gcd, since a product of primitive polynomials
    is primitive (Gauss's lemma); a sum takes one gcd over its integer
    result; division is pseudo-division on the P's.  ``coefficients``,
    ``[i]``, ``leading`` and calls build Fractions only when read.
    """

    __slots__ = ("_n", "_d", "_p")

    def __init__(self, coefficients: "list[Coefficient] | tuple[Coefficient, ...]" = ()):
        fractions = [Fraction(c) for c in coefficients]
        common = math.lcm(*(c.denominator for c in fractions))
        ints = [c.numerator * (common // c.denominator) for c in fractions]
        self._n, self._d, self._p = _normal_form(1, common, ints)

    # -- structure -----------------------------------------------------------

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        n, d = self._n, self._d
        return tuple(Fraction(n * c, d) for c in self._p)

    @classmethod
    def zero(cls) -> "RatPoly":
        return _raw(1, 1, ())

    @classmethod
    def constant(cls, c: Coefficient) -> "RatPoly":
        return cls((c,))

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return len(self._p) - 1

    @property
    def leading(self) -> Fraction:
        if not self._p:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return Fraction(self._n * self._p[-1], self._d)

    def is_constant(self) -> bool:
        return len(self._p) <= 1

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self._p):
            return Fraction(self._n * self._p[i], self._d)
        return Fraction(0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RatPoly((other,))
        if not isinstance(other, RatPoly):
            return NotImplemented
        return (self._p, self._n, self._d) == (other._p, other._n, other._d)

    def __hash__(self) -> int:
        # Equal objects hash equal: a constant polynomial equals its constant.
        if len(self._p) <= 1:
            return hash(self[0])
        return hash((self._p, self._n, self._d))

    def __bool__(self) -> bool:
        return bool(self._p)

    # -- arithmetic ------------------------------------------------------------

    def _operand(self, other: "RatPoly | Coefficient") -> "RatPoly":
        if isinstance(other, RatPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return RatPoly((other,))
        return NotImplemented  # type: ignore[return-value]

    def _combine(self, other: "RatPoly", sign: int) -> "RatPoly":
        """self + sign * other over the least common denominator, one gcd at the end."""
        if not other._p:
            return self
        if not self._p:
            return other if sign > 0 else -other
        na, da, nb, db = self._n, self._d, other._n, other._d
        # A prime of gcd(na, nb) divides neither da nor db, so g and l are coprime.
        g = math.gcd(na, nb)
        l = da // math.gcd(da, db) * db
        ma = na // g * (l // da)
        mb = nb // g * (l // db) * sign
        a, b = self._p, other._p
        out = [ma * x for x in a] if ma != 1 else list(a)
        if len(out) < len(b):
            out += [0] * (len(b) - len(out))
        for i, y in enumerate(b):
            out[i] += mb * y
        return _poly(g, l, out)

    def __add__(self, other: "RatPoly | Coefficient") -> "RatPoly":
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "RatPoly":
        return _raw(self._n, self._d, tuple(-c for c in self._p))

    def __sub__(self, other: "RatPoly | Coefficient") -> "RatPoly":
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other: "RatPoly | Coefficient") -> "RatPoly":
        return (-self) + other

    def __mul__(self, other: "RatPoly | Coefficient") -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        if not isinstance(other, RatPoly):
            return NotImplemented
        a, b = self._p, other._p
        if not a or not b:
            return RatPoly.zero()
        if len(a) < len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for i, y in enumerate(b):
            if y:
                for j, x in enumerate(a, i):
                    out[j] += x * y
        # Gauss's lemma: out is primitive, so only the contents are reduced.
        return _content_product(self._n, self._d, other._n, other._d, tuple(out))

    __rmul__ = __mul__

    def _scaled(self, c: Coefficient) -> "RatPoly":
        """c * self for a rational c."""
        num, den = c.numerator, c.denominator
        if not num or not self._p:
            return RatPoly.zero()
        p = self._p if num > 0 else tuple(-x for x in self._p)
        return _content_product(self._n, self._d, abs(num), den, p)

    def __pow__(self, n: int) -> "RatPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = RatPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "RatPoly | Coefficient") -> tuple["RatPoly", "RatPoly"]:
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._p:
            raise ZeroDivisionError("polynomial division by zero")
        divisor = other._p
        dd = len(divisor) - 1
        dlead = divisor[-1]
        rem = list(self._p)
        quot = [0] * max(len(rem) - dd, 0)
        # Pseudo-division with scale * self._p == quot * divisor + rem.  Each
        # step pops the leading term, which the subtraction would zero.
        scale = 1
        while len(rem) > dd:
            lead = rem.pop()
            if not lead:
                continue
            shift = len(rem) - dd
            factor, r = divmod(lead, dlead)
            if r:
                m = abs(dlead) // math.gcd(lead, dlead)
                scale *= m
                rem = [m * c for c in rem]
                quot = [m * c for c in quot]
                factor = lead * m // dlead
            quot[shift] = factor
            for i in range(dd):
                rem[shift + i] -= factor * divisor[i]
        n, d = self._n, self._d * scale
        return _poly(n * other._d, d * other._n, quot), _poly(n, d, rem)

    def __floordiv__(self, other: "RatPoly | Coefficient") -> "RatPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "RatPoly | Coefficient") -> "RatPoly":
        return divmod(self, other)[1]

    def derivative(self) -> "RatPoly":
        return _poly(self._n, self._d, [i * c for i, c in enumerate(self._p)][1:])

    def monic(self) -> "RatPoly":
        p = self._p
        if not p:
            return self
        return _raw(1, abs(p[-1]), p if p[-1] > 0 else tuple(-c for c in p))

    # -- evaluation --------------------------------------------------------------

    def __call__(self, t: Coefficient) -> Fraction:
        t = Fraction(t)
        v = t.denominator
        value = _homogenized(self._p, t.numerator, v)
        return Fraction(self._n * value, self._d * v ** max(self.degree, 0))

    def int_coefficients(self) -> list[int]:
        """The coprime integers of the primitive part c * self, c = primitive_scale() > 0.

        A positive multiple keeps the sign of self at every point and every
        rational root, so sign and root questions read these integers.
        """
        return list(self._p)

    def primitive_scale(self) -> Fraction:
        """The positive rational c that makes c * self coprime integers; 1 for zero.

        Over Q[x] the primitive part c * p is an associate of p whose
        coefficients stay small under Euclidean steps (Collins, J. ACM 14, 1967).
        """
        return Fraction(self._d, self._n)

    def sign_at(self, t: Coefficient) -> int:
        t = Fraction(t)
        return eval_sign_int(self._p, t.numerator, t.denominator)

    def sign_at_infinity(self, direction: int) -> int:
        """Sign of p(t) as t -> +oo (direction=+1) or t -> -oo (direction=-1)."""
        if not self._p:
            return 0
        s = 1 if self._p[-1] > 0 else -1
        if direction < 0 and self.degree % 2 == 1:
            s = -s
        return s

    # -- presentation ---------------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"RatPoly({list(self.coefficients)!r})"


def _raw(n: int, d: int, p: tuple[int, ...]) -> RatPoly:
    """The polynomial stored as (n, d, p), which must already be its normal form."""
    poly = RatPoly.__new__(RatPoly)
    poly._n, poly._d, poly._p = n, d, p
    return poly


def _normal_form(n: int, d: int, ints: list[int]) -> tuple[int, int, tuple[int, ...]]:
    """The stored form of (n/d) * ints for positive n and d.

    Trailing zeros are popped from ``ints`` in place, and its content moves
    into n/d.
    """
    while ints and not ints[-1]:
        ints.pop()
    content = math.gcd(*ints)
    if not content:
        return 1, 1, ()
    if content > 1:
        ints = [c // content for c in ints]
        n *= content
    g = math.gcd(n, d)
    return n // g, d // g, tuple(ints)


def _poly(n: int, d: int, ints: list[int]) -> RatPoly:
    """The polynomial (n/d) * ints for positive n and d, from an arithmetic result."""
    return _raw(*_normal_form(n, d, ints))


def _content_product(na: int, da: int, nb: int, db: int, p: tuple[int, ...]) -> RatPoly:
    """(na/da) * (nb/db) * p for a primitive p and two reduced positive fractions."""
    g1, g2 = math.gcd(na, db), math.gcd(nb, da)
    return _raw(na // g1 * (nb // g2), da // g2 * (db // g1), p)


def row_primitive_scale(row: Iterable[RatPoly]) -> Fraction:
    """The positive rational c that makes c * row coprime integers; 1 for a zero row.

    The content of the row is gcd(n_i) / lcm(d_i) over its nonzero members'
    stored contents n_i / d_i, so no coefficient is read.
    """
    nonzero = [p for p in row if p._p]
    if not nonzero:
        return Fraction(1)
    return Fraction(math.lcm(*(p._d for p in nonzero)), math.gcd(*(p._n for p in nonzero)))


def kronecker_layout(rows: Sequence[Sequence[RatPoly]]) -> tuple[int, int]:
    """(L, b) for evaluating a matrix M of polynomials at x = 2**b (Kronecker
    substitution): L is the lcm of the entries' denominators, so L * M has
    integer coefficients, and b = B.bit_length() + 2 for B, the product over
    the rows of max(1, the sum of the l1 norms of the row's entries in L * M).

    By the Leibniz sum and ||f * g||_1 <= ||f||_1 * ||g||_1, B bounds the
    absolute value of every coefficient of every minor of L * M, so a minor
    is the unique integer polynomial with coefficients in (-2**(b-1),
    2**(b-1)) that takes its value at 2**b (:func:`kronecker_unpack`), and it
    is zero exactly when that value is 0.
    """
    scale = math.lcm(*(p._d for row in rows for p in row))
    bound = 1
    for row in rows:
        bound *= max(1, sum(p._n * (scale // p._d) * sum(map(abs, p._p)) for p in row))
    return scale, bound.bit_length() + 2


def denominator_lcm(polys: Iterable[RatPoly]) -> int:
    """The least positive integer L with every L * p in Z[x]."""
    return math.lcm(*(p._d for p in polys))


def scaled_norm(p: RatPoly, scale: int) -> int | None:
    """The l1 norm of scale * p, or None when scale leaves p a denominator."""
    q, r = divmod(scale, p._d)
    return None if r else p._n * q * sum(map(abs, p._p))


def kronecker_pack(p: RatPoly, scale: int, bits: int) -> int:
    """scale * p at x = 2**bits, for a positive integer scale that clears p's
    denominator."""
    value = 0
    for c in reversed(p._p):
        value = (value << bits) + c
    return value * (p._n * (scale // p._d))


def kronecker_unpack(value: int, bits: int, denominator: int) -> RatPoly:
    """f / denominator for the integer polynomial f with f(2**bits) = value
    whose coefficients lie in [-2**(bits-1), 2**(bits-1)): its signed base
    2**bits digits, constant first."""
    digits, mask, half = [], (1 << bits) - 1, 1 << (bits - 1)
    while value:
        c = value & mask
        if c >= half:
            c -= mask + 1
        digits.append(c)
        value = (value - c) >> bits
    return _poly(1, denominator, digits)


def _remainder_sequence(a: RatPoly, b: RatPoly) -> list[RatPoly]:
    """a, then b (if nonzero) and each nonzero negated remainder, made primitive.

    The positive primitive_scale keeps every sign of the classical sequence
    while coefficients stay small (Collins, J. ACM 14, 1967; Brown and Traub,
    J. ACM 18, 1971).
    """
    seq = [a]
    while b:
        seq.append(b)
        r = a % b
        a, b = b, r * -r.primitive_scale()
    return seq


def poly_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    """Monic gcd over Q; poly_gcd(0, 0) is the zero polynomial."""
    return _remainder_sequence(a, b)[-1].monic()


# The prime of the modular coprimality test, 2**31 - 1.
MODULAR_GCD_PRIME = 2**31 - 1


def _gcd_modulo(a: list[int], b: list[int], prime: int) -> list[int]:
    """A gcd over Z/prime of two residue lists, constant first, each empty or
    with a nonzero last entry; for a nonconstant gcd it has length >= 2."""
    while b:
        inverse = pow(b[-1], -1, prime)
        b = [c * inverse % prime for c in b]  # monic
        top = len(b) - 1
        rem = list(a)
        while len(rem) > top:
            lead = rem.pop()
            if lead:
                shift = len(rem) - top
                rem[shift:] = [(c - lead * d) % prime for c, d in zip(rem[shift:], b)]
        while rem and not rem[-1]:
            rem.pop()
        a, b = b, rem
    return a


def certify_coprime(values: Iterable[RatPoly]) -> bool:
    """True only when the gcd over Q of the values is 1, shown modulo
    MODULAR_GCD_PRIME; False when that test cannot tell.

    The gcd over Q has a primitive integer form g that divides each value's
    primitive integer part in Z[x] (Gauss's lemma), so g modulo the prime
    divides each of their images.  If the prime does not divide the leading
    coefficient of one of them, it does not divide that of g either, and g
    keeps its degree modulo the prime.  So a constant gcd of the images
    proves that g is constant.  The test is one-sided (Brown, J. ACM 18,
    1971): an unlucky prime, or one that divides every leading coefficient,
    only makes it decline.
    """
    prime = MODULAR_GCD_PRIME
    images = [[c % prime for c in v._p] for v in values if v._p]
    if not any(image[-1] for image in images):
        return False
    g: list[int] = []
    for image in images:
        while image and not image[-1]:
            image.pop()
        g = _gcd_modulo(g, image, prime)
        if len(g) == 1:
            return True
    return False


# -- Sturm chains -------------------------------------------------------------


@dataclass(frozen=True)
class SturmChain:
    """p, p', then the negated remainders until a constant or gcd(p, p').

    Each member after p' is a positive rational multiple of the classical
    Sturm remainder (see _remainder_sequence), so its sign at every point,
    and every count read from the chain, is the classical one.
    """

    chain: tuple[RatPoly, ...]

    @property
    def polynomial(self) -> RatPoly:
        return self.chain[0]


def sturm_chain(p: RatPoly) -> SturmChain:
    if not p:
        raise ZeroPolynomialError("Sturm chain of the zero polynomial")
    return SturmChain(tuple(_remainder_sequence(p, p.derivative())))


def _roots_on_line(chain: SturmChain) -> int:
    """Distinct real roots of the chain's polynomial: variations at -oo minus +oo."""
    minus, plus = ([q.sign_at_infinity(d) for q in chain.chain] for d in (-1, 1))
    return sign_variations(minus) - sign_variations(plus)


def _count_roots_between(chain: list[list[int]], a: Coefficient, b: Coefficient) -> int:
    """Distinct roots in (a, b], endpoints nonzero, of a chain of int_coefficients() lists."""
    at_a, at_b = (
        sign_variations([eval_sign_int(q, t.numerator, t.denominator) for q in chain])
        for t in (a, b)
    )
    return at_a - at_b


# -- square-free decomposition ----------------------------------------------------


def squarefree_decomposition(p: RatPoly) -> tuple[Fraction, list[tuple[RatPoly, int]]]:
    """Yun decomposition p = c * prod(q_i ** m_i), q_i monic square-free, coprime."""
    if not p:
        raise ZeroPolynomialError("decomposition of the zero polynomial")
    work = p.monic()
    g = poly_gcd(work, work.derivative())
    factors: list[tuple[RatPoly, int]] = []
    c = work // g
    d = work.derivative() // g - c.derivative()
    i = 1
    while not c.is_constant():
        q = poly_gcd(c, d)
        if q.degree >= 1:
            factors.append((q, i))
        c = c // q
        d = d // q - c.derivative()
        i += 1
    return p.leading, factors


# -- positivity on the real line ------------------------------------------------


def _sign_change_chain(p: RatPoly) -> SturmChain | None:
    """Sturm chain of the odd part of a nonconstant p when p changes sign on R, else None.

    The odd part is the monic product of the square-free factors of odd
    multiplicity: p changes sign exactly at its real roots, and p / odd part
    is a constant times a square.  p and -p share it, so one pass answers the
    sign questions for both.  That pass starts with the Sturm chain of monic
    p, which ends at a multiple of gcd(p, p').  When that end is constant, p
    is square-free, its odd part is monic p, and the chain is the one wanted;
    otherwise :func:`squarefree_decomposition` splits off the odd part, and
    it gets a Sturm chain of its own.
    """
    chain = sturm_chain(p.monic())
    if not chain.chain[-1].is_constant():
        factors = squarefree_decomposition(p)[1]
        odd = math.prod((q for q, m in factors if m % 2 == 1), start=RatPoly.constant(1))
        chain = sturm_chain(odd)
    return chain if _roots_on_line(chain) > 0 else None


# Bisections of (0, oo) that Descartes' rule may take on each half-line.
DESCARTES_DEPTH = 6


def _shifted(h: list[int]) -> list[int]:
    """q(x + 1) for the q with coefficients h, highest first (Ruffini-Horner:
    each pass turns a shorter prefix into its running sums)."""
    h = list(h)
    for end in range(len(h), 1, -1):
        total = 0
        for j in range(end):
            total += h[j]
            h[j] = total
    return h


def _odd_root_above_zero(h: list[int], depth: int) -> bool | None:
    """Whether q, with coefficients h highest first and not all zero, has a
    root of odd multiplicity in [0, oo); None when Descartes' rule cannot
    tell within ``depth`` bisections.

    A root at 0 of multiplicity k is one when k is odd, and x**k is divided
    out when k is even.  The sign variations V of what is left bound its
    roots in (0, oo), counted with multiplicity, and differ from their
    number by an even count: V = 0 means no root, V = 1 one simple root.
    Otherwise (0, oo) is split at 1: q(x + 1) holds the roots above 1 and
    (x + 1)**d * q(1 / (x + 1)) those in (0, 1), both again on (0, oo).  A
    root at 1 is a root at 0 of both, of the same multiplicity.
    """
    k = 0
    while not h[-1 - k]:
        k += 1
    if k % 2:
        return True
    h = h[: len(h) - k]
    v = sign_variations(h)
    if v < 2:
        return v == 1
    if depth == 0:
        return None
    first = _odd_root_above_zero(_shifted(h), depth - 1)
    if first:
        return True
    second = _odd_root_above_zero(_shifted(h[::-1]), depth - 1)
    if second:
        return True
    return None if first is None or second is None else False


def _descartes_sign_change(c: tuple[int, ...]) -> bool | None:
    """Whether the polynomial p with integer coefficients c, constant first
    and of even degree >= 2, changes sign on R, that is, has a real root of
    odd multiplicity; None when Descartes' rule on p(x) and p(-x) cannot
    tell (see :func:`_odd_root_above_zero`)."""
    h = c[::-1]
    top = len(h) - 1
    undecided = False
    for q in (h, [-a if (top - i) % 2 else a for i, a in enumerate(h)]):
        found = _odd_root_above_zero(q, DESCARTES_DEPTH)
        if found:
            return True
        undecided = undecided or found is None
    return None if undecided else False


def _is_constant_times_square(c: tuple[int, ...]) -> bool:
    """Whether monic p = r**2 for some r in Q[x], p having the coprime integer
    coefficients c, constant first.

    By Gauss's lemma that holds exactly when +-c is the square of an integer
    polynomial s, taken with a positive leading coefficient: the lead of +-c
    is a perfect square t**2, the lead of s is t, and s is built from the top
    by exact integer divisions by 2t, then checked by s * s.
    """
    if len(c) % 2 == 0:
        return False
    h = c[::-1] if c[-1] > 0 else [-a for a in reversed(c)]
    t = math.isqrt(h[0])
    if t * t != h[0]:
        return False
    half = len(h) // 2
    s = [t]
    for k in range(1, half + 1):
        rest = h[k] - sum(s[i] * s[k - i] for i in range(1, k))
        q, r = divmod(rest, 2 * t)
        if r:
            return False
        s.append(q)
    return all(
        h[k] == sum(s[i] * s[k - i] for i in range(k - half, half + 1))
        for k in range(half + 1, len(h))
    )


def _certified_sign_change(p: RatPoly) -> bool | None:
    """Whether p, of even degree >= 2, changes sign on R, by the square test
    and then Descartes' rule; None when neither can tell.

    The square test goes first: it costs a few integer products, and
    Descartes' rule never settles c * r**2 with a real root of r (every
    interval around the double root keeps two variations), so it would
    bisect to the full depth first.
    """
    if _is_constant_times_square(p._p):
        return False
    return _descartes_sign_change(p._p)


def is_nonneg_on_reals(p: RatPoly) -> bool:
    """Exact test of p(t) >= 0 for every real t."""
    return not p or positive_associate(p) == p


def positive_associate(p: RatPoly) -> RatPoly | None:
    """c * p nonnegative on R for some rational c != 0, if that is possible; p if p >= 0.

    That is possible exactly for even degree and no real root of odd
    multiplicity.  The square test decides that first, then Descartes' rule
    with bisection, and only what they leave runs the Sturm pass.
    """
    if not p:
        raise ZeroPolynomialError("zero polynomial has no positive associate")
    if p.degree % 2 == 1:
        return None
    changes = p.degree > 0 and _certified_sign_change(p)
    if changes is None:
        changes = _sign_change_chain(p) is not None
    if changes:
        return None
    return p if p.sign_at_infinity(+1) > 0 else -p


def cauchy_root_bound(p: RatPoly) -> Fraction:
    """B with every real root of p inside (-B, B)."""
    if p.degree < 1:
        return Fraction(1)
    # The ratio is the same on the stored primitive part.
    return 1 + Fraction(max(abs(c) for c in p._p[:-1]), abs(p._p[-1]))


def _step_to_negative(
    p: RatPoly, t: Fraction, step: Fraction, lo: Fraction, hi: Fraction
) -> Fraction:
    """The first of t + step, t - step, t + step/2, ... inside (lo, hi) where p < 0."""
    ints = p.int_coefficients()
    for _ in range(200):
        for cand in (t + step, t - step):
            if lo < cand < hi and eval_sign_int(ints, cand.numerator, cand.denominator) < 0:
                return cand
        step /= 2
    raise ArithmeticError("failed to certify a negative value")


def _bisect_to_negative(chain: SturmChain) -> Fraction:
    """A rational t with h(t) < 0, for h the chain's monic even-degree polynomial.

    Both tails of h are positive, so h has at least two real roots and is
    negative between some of them.  Bisect, descending into halves that
    still hold at least two roots.
    """
    h = chain.polynomial
    ints = [q.int_coefficients() for q in chain.chain]
    bound = cauchy_root_bound(h) + 1
    lo, hi = -bound, bound
    for _ in range(10_000):
        mid = (lo + hi) / 2
        s = eval_sign_int(ints[0], mid.numerator, mid.denominator)
        if s < 0:
            return mid
        if s == 0:
            # mid is a simple root: h is negative right next to it
            return _step_to_negative(h, mid, (hi - lo) / 4, lo, hi)
        if _count_roots_between(ints, lo, mid) >= 2:
            hi = mid
        else:
            lo = mid
    raise ArithmeticError("sign search did not converge")


def find_negative_point(p: RatPoly) -> Fraction | None:
    """Some rational t with p(t) < 0, or None when p is nonnegative on R."""
    bound = cauchy_root_bound(p) + 1
    if p.sign_at_infinity(+1) < 0:
        return bound
    if p.sign_at_infinity(-1) < 0:
        return -bound
    # the ladder of positive_associate: the certificate, then the Sturm pass
    if p.degree < 2 or _certified_sign_change(p) is False:
        return None
    chain = _sign_change_chain(p)
    if chain is None:
        return None
    # Even degree, positive lead: p = odd part * (positive constant * square),
    # so p < 0 where the odd part is negative, unless the square vanishes there.
    t = _bisect_to_negative(chain)
    if p.sign_at(t) < 0:
        return t
    # The square vanished exactly at t: step away from it.  p < 0 only
    # between its roots, all inside (-bound, bound), so no candidate is lost.
    return _step_to_negative(p, t, Fraction(1, 2), -bound, bound)


# -- irreducibility ----------------------------------------------------------------


def _rational_roots_exist(p: RatPoly) -> bool:
    """Whether p has a rational root, decided by Sturm counts.

    With c the primitive integer coefficients of p and n its degree, y = c_n * t
    maps the rational roots of p onto the integer roots of the monic integer
    polynomial q(y) = c_n^(n-1) * p(y / c_n).  Those lie inside (-B, B) for
    B = |c_n| times the Cauchy bound of p, the integer |c_n| + max |c_i|.  The
    intervals of (-B, B] that hold a root of q are halved, testing each
    integer midpoint exactly, until their width is 1.
    """
    c = p.int_coefficients()
    q = RatPoly([ci * c[-1] ** (len(c) - 2 - i) for i, ci in enumerate(c[:-1])] + [1])
    chain = [r.int_coefficients() for r in sturm_chain(q).chain]
    bound = int(abs(c[-1]) * cauchy_root_bound(p))
    intervals = [(-bound, bound)]  # endpoints are never roots of q
    while intervals:
        lo, hi = intervals.pop()
        if hi - lo < 2 or _count_roots_between(chain, lo, hi) == 0:
            continue
        mid = (lo + hi) // 2
        if eval_sign_int(chain[0], mid, 1) == 0:
            return True
        intervals += [(lo, mid), (mid, hi)]
    return False


# Trial division for Eisenstein primes stops here: a cofactor left below its
# square has no smaller factor, so it is prime; a larger one is not tried.
EISENSTEIN_TRIAL_BOUND = 10**6


def _eisenstein_applies(p: RatPoly) -> bool:
    """Whether some prime q satisfies Eisenstein's criterion for p.

    q must divide every non-leading coefficient, so only the prime factors of
    their gcd are tried, by trial division up to EISENSTEIN_TRIAL_BOUND.
    Such a q cannot divide the lead, the coefficients being coprime, so it
    only remains that q**2 must not divide the constant coefficient.
    """
    coeffs = p.int_coefficients()
    g, f = math.gcd(*coeffs[:-1]), 2
    while f * f <= g:
        if f > EISENSTEIN_TRIAL_BOUND:
            return False
        if g % f == 0:
            if coeffs[0] % (f * f):
                return True
            while g % f == 0:
                g //= f
        f += 1
    return g > 1 and coeffs[0] % (g * g) != 0


def certify_irreducible(p: RatPoly) -> bool | None:
    """True / False when decidable cheaply, None when the caller must assert.

    Degrees 1 to 3 are settled by the rational root test; higher degrees only
    get an Eisenstein check, which can certify but never refute (and skips a
    gcd cofactor too large to be proven prime; see _eisenstein_applies).
    """
    if p.degree < 2:
        return p.degree == 1
    if _rational_roots_exist(p):
        return False
    return True if p.degree <= 3 or _eisenstein_applies(p) else None


def is_real_irreducible(p: RatPoly) -> bool:
    """Whether p is irreducible over Q with a real root (changes sign on R).

    Irreducibility is certified first (see :func:`certify_irreducible`); a
    reducible p, or one of degree >= 4 with no certificate, raises.
    """
    if p.degree < 1:
        raise ZeroPolynomialError("irreducibles have degree at least 1")
    certified = certify_irreducible(p)
    if certified is not True:
        status = "is reducible over Q" if certified is False else "cannot be certified irreducible"
        raise NotCertifiedIrreducibleError(f"{p} {status} (degree {p.degree})")
    return positive_associate(p) is None


# -- text and JSON forms ---------------------------------------------------------


def format_poly(p: RatPoly) -> str:
    """Render like "3/2*x^2 - x + 1", highest power first.  Coefficient i is
    n * c_i / d for the stored (n/d) * P, reduced by gcd(c_i, d) alone since
    gcd(n, d) = 1: no Fraction is built."""
    if not p:
        return "0"
    n, d = p._n, p._d
    parts: list[str] = []
    for i in range(p.degree, -1, -1):
        c = p._p[i]
        if not c:
            continue
        g = math.gcd(c, d)
        mag = f"{n * (abs(c) // g)}" + ("" if g == d else f"/{d // g}")
        if i == 0:
            body = mag
        else:
            xpow = "x" if i == 1 else f"x^{i}"
            body = xpow if mag == "1" else f"{mag}*{xpow}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{'-' if c < 0 else '+'} {body}")
    return " ".join(parts)


# A few characters of text must not allocate gigabytes of coefficients.
MAX_PARSED_DEGREE = 10_000

# The one coefficient grammar of the text and array forms: an optional sign,
# ASCII digits, and an optional /digits.
_MAGNITUDE = r"[0-9]+(?:/[0-9]+)?"
_COEFFICIENT_RE = re.compile(rf"[+-]?{_MAGNITUDE}")
_TERM_RE = re.compile(
    rf"(?P<coef>{_MAGNITUDE})?(?:(?(coef)\*?)(?P<var>x(?:\^(?P<exp>[0-9]+))?))?"
)


def _cut(text: str) -> str:
    return repr(text) if len(text) <= 20 else f"{text[:20]!r}..."


def parse_int(text: str) -> int:
    """int(text), but a short ParseError for text too long for int() to convert."""
    try:
        return int(text)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        if not 0 < limit < len(text):
            raise
        raise ParseError(f"{_cut(text)} exceeds the {limit}-digit limit for integers") from None


def _coefficient(value: object) -> Fraction:
    """A JSON integer, or a string in the coefficient grammar, as a Fraction."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if not isinstance(value, str) or not _COEFFICIENT_RE.fullmatch(value):
        raise ParseError(f"bad coefficient {value!r}: expected an integer or <integer>/<digits>")
    numerator, _, denominator = value.partition("/")
    try:
        return Fraction(parse_int(numerator), parse_int(denominator or "1"))
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in coefficient {value!r}") from None


def parse_poly(text: str) -> RatPoly:
    """Parse the textual form; accepts e.g. "3/2*x^2 - x + 1", "x", "-7"."""
    stripped = text.replace(" ", "")
    terms = re.findall(r"[+-]?[^+-]+", stripped)
    if "".join(terms) != stripped or not terms:
        raise ParseError(f"cannot tokenize polynomial {_cut(text)}")
    out = [Fraction(0)]
    for term in terms:
        # A sign without digits (as in "-x") is the coefficient -1.
        sign, body = (term[0], term[1:]) if term[0] in "+-" else ("", term)
        m = _TERM_RE.fullmatch(body)
        if not m or not (m["coef"] or m["var"]):
            raise ParseError(f"bad polynomial term {_cut(term)} in {_cut(text)}")
        try:
            coef = _coefficient(sign + (m["coef"] or "1"))
            exp = parse_int(m["exp"] or "1") if m["var"] else 0
        except ParseError as exc:
            raise ParseError(f"bad polynomial term {_cut(term)} in {_cut(text)}: {exc}") from None
        if exp > MAX_PARSED_DEGREE:
            raise ParseError(
                f"exponent in polynomial term {term!r} exceeds the limit {MAX_PARSED_DEGREE}"
            )
        out += [Fraction(0)] * (exp + 1 - len(out))
        out[exp] += coef
    return RatPoly(out)


def poly_from_json(data: object) -> RatPoly:
    """The text form, or an array of coefficients (constant first) in its grammar."""
    if isinstance(data, str):
        return parse_poly(data)
    if not isinstance(data, list):
        raise ParseError(f"polynomial must be a string or coefficient array, got {data!r}")
    if len(data) > MAX_PARSED_DEGREE + 1:
        raise ParseError(
            f"coefficient array of {len(data)} entries exceeds the limit {MAX_PARSED_DEGREE + 1}"
        )
    return RatPoly([_coefficient(c) for c in data])
