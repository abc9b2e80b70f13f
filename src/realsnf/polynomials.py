"""Dense univariate polynomials with exact rational coefficients.

Sign questions on the real line are decided without any numerics.  Sturm
chains count distinct real roots of any nonzero polynomial, square-free or
not.  Each sign question (nonnegativity on R, a constant-sign associate, a
negative point) makes one pass: one square-free (Yun) decomposition splits
off the odd-multiplicity part, whose one Sturm chain says whether p changes
sign.  Nonnegativity on all of R is then "even degree, positive leading
coefficient, no real root of the odd part", and the same chain guides the
bisection to a negative point.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotCertifiedIrreducibleError, ParseError, ZeroPolynomialError

Coefficient = Fraction | int


def eval_sign_int(coeffs: list[int], u: int, v: int) -> int:
    """Sign of p(u/v) where p has the given integer coefficients, constant first.

    Requires v > 0.  Computed as the sign of sum(c[i] * u**i * v**(d-i)),
    which equals v**d * p(u/v) and shares its sign, so no Fraction is built.
    """
    acc, vp = 0, 1
    for c in reversed(coeffs):
        acc = acc * u + c * vp
        vp *= v
    return (acc > 0) - (acc < 0)


def sign_variations(signs: list[int]) -> int:
    """Number of sign changes in a sequence, zeros skipped."""
    nonzero = [s for s in signs if s]
    return sum(a != b for a, b in zip(nonzero, nonzero[1:]))


class RatPoly:
    """Polynomial over Q, stored dense with the constant term first."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: "list[Coefficient] | tuple[Coefficient, ...]" = ()):
        coeffs = [Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs = tuple(coeffs)

    # -- structure -----------------------------------------------------------

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls(())

    @classmethod
    def constant(cls, c: Coefficient) -> "RatPoly":
        return cls((Fraction(c),))

    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return len(self._coeffs) - 1

    @property
    def leading(self) -> Fraction:
        if self.is_zero():
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    def is_constant(self) -> bool:
        return len(self._coeffs) <= 1

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return Fraction(0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RatPoly((other,))
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        # Equal objects hash equal: a constant polynomial equals its constant.
        if len(self._coeffs) <= 1:
            return hash(self._coeffs[0]) if self._coeffs else 0
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other: "RatPoly | Coefficient") -> "RatPoly":
        if isinstance(other, RatPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return RatPoly((other,))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: "RatPoly | Coefficient") -> "RatPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _poly(out)

    __radd__ = __add__

    def __neg__(self) -> "RatPoly":
        return _poly([-c for c in self._coeffs])

    def __sub__(self, other: "RatPoly | Coefficient") -> "RatPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        b = other._coeffs
        out = list(self._coeffs)
        out += [_ZERO] * (len(b) - len(out))
        for i, c in enumerate(b):
            out[i] -= c
        return _poly(out)

    def __rsub__(self, other: "RatPoly | Coefficient") -> "RatPoly":
        return (-self) + other

    def __mul__(self, other: "RatPoly | Coefficient") -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            return _poly([x * other for x in self._coeffs])
        if not isinstance(other, RatPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return _poly([])
        if len(b) == 1:
            c = b[0]
            return _poly([x * c for x in a])
        # Convolve integer numerators over each factor's common denominator,
        # so a Fraction (and its gcd) is built per output coefficient, not
        # per term product.
        da = math.lcm(*(x.denominator for x in a))
        db = math.lcm(*(y.denominator for y in b))
        na = [x.numerator * (da // x.denominator) for x in a]
        nb = [y.numerator * (db // y.denominator) for y in b]
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(na):
            if x:
                for j, y in enumerate(nb, i):
                    out[j] += x * y
        d = da * db
        return _poly([Fraction(c, d) for c in out])

    __rmul__ = __mul__

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
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        divisor = other._coeffs
        dd = len(divisor) - 1
        dlead = divisor[-1]
        rem = list(self._coeffs)
        quot = [_ZERO] * max(len(rem) - dd, 0)
        # Each step pops the leading term, which the subtraction would zero.
        while len(rem) > dd:
            lead = rem.pop()
            if not lead:
                continue
            shift = len(rem) - dd
            factor = lead / dlead
            quot[shift] = factor
            for i in range(dd):
                rem[shift + i] -= factor * divisor[i]
        return _poly(quot), _poly(rem)

    def __floordiv__(self, other: "RatPoly | Coefficient") -> "RatPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "RatPoly | Coefficient") -> "RatPoly":
        return divmod(self, other)[1]

    def derivative(self) -> "RatPoly":
        return _poly([i * c for i, c in enumerate(self._coeffs)][1:])

    def monic(self) -> "RatPoly":
        if self.is_zero():
            return self
        lead = self.leading
        return _poly([c / lead for c in self._coeffs])

    # -- evaluation --------------------------------------------------------------

    def __call__(self, t: Coefficient) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * t + c
        return acc

    def int_coefficients(self) -> list[int]:
        """The coprime integers of the primitive part c * self, c = primitive_scale > 0.

        A positive multiple keeps the sign of self at every point and every
        rational root, so sign and root questions read these integers.
        """
        scale = primitive_scale(self._coeffs)
        return [int(c * scale) for c in self._coeffs]

    def sign_at(self, t: Coefficient) -> int:
        t = Fraction(t)
        return eval_sign_int(self.int_coefficients(), t.numerator, t.denominator)

    def sign_at_infinity(self, direction: int) -> int:
        """Sign of p(t) as t -> +oo (direction=+1) or t -> -oo (direction=-1)."""
        if self.is_zero():
            return 0
        s = 1 if self.leading > 0 else -1
        if direction < 0 and self.degree % 2 == 1:
            s = -s
        return s

    # -- presentation ---------------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"RatPoly({list(self._coeffs)!r})"


_ZERO = Fraction(0)


def _poly(coeffs: list[Fraction]) -> RatPoly:
    """The polynomial of a list of Fractions, constant first.

    For arithmetic results: trailing zeros are popped from ``coeffs`` in
    place and no coefficient is re-wrapped.
    """
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    p = RatPoly.__new__(RatPoly)
    p._coeffs = tuple(coeffs)
    return p


def primitive_scale(coefficients: "tuple[Fraction, ...] | list[Fraction]") -> Fraction:
    """The positive rational c that makes c * coefficients coprime integers.

    1 when there are no nonzero coefficients.  Over Q[x] the primitive part
    c * p is an associate of p whose coefficients stay small under
    Euclidean steps (Collins, J. ACM 14, 1967).
    """
    common = math.lcm(*(c.denominator for c in coefficients))
    content = math.gcd(*(c.numerator * (common // c.denominator) for c in coefficients))
    return Fraction(common, content) if content else Fraction(1)


def _remainder_sequence(a: RatPoly, b: RatPoly) -> list[RatPoly]:
    """a, then b (if nonzero) and each nonzero negated remainder, made primitive.

    The positive primitive_scale keeps every sign of the classical sequence
    while coefficients stay small (Collins, J. ACM 14, 1967; Brown and Traub,
    J. ACM 18, 1971).
    """
    seq = [a]
    while not b.is_zero():
        seq.append(b)
        r = a % b
        a, b = b, r * -primitive_scale(r.coefficients)
    return seq


def poly_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    """Monic gcd over Q; poly_gcd(0, 0) is the zero polynomial."""
    return _remainder_sequence(a, b)[-1].monic()


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
    if p.is_zero():
        raise ZeroPolynomialError("Sturm chain of the zero polynomial")
    return SturmChain(tuple(_remainder_sequence(p, p.derivative())))


def _roots_on_line(chain: SturmChain) -> int:
    """Distinct real roots of the chain's polynomial: variations at -oo minus +oo."""
    minus, plus = ([q.sign_at_infinity(d) for q in chain.chain] for d in (-1, 1))
    return sign_variations(minus) - sign_variations(plus)


def count_real_roots(p: RatPoly) -> int:
    """Distinct real roots of a nonzero polynomial, by Sturm's theorem.

    The chain p, p', then positive multiples of -rem, ... ends at a multiple
    of gcd(p, p'), and its sign variations count distinct roots whether or
    not p is square-free.
    """
    return _roots_on_line(sturm_chain(p))


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
    if p.is_zero():
        raise ZeroPolynomialError("decomposition of the zero polynomial")
    if p.degree == 0:
        return p.leading, []
    work = p.monic()
    g = poly_gcd(work, work.derivative())
    factors: list[tuple[RatPoly, int]] = []
    if g.is_constant():
        factors.append((work, 1))
    else:
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
    """Sturm chain of the odd part of a nonzero p when p changes sign on R, else None.

    The odd part is the monic product of the square-free factors of odd
    multiplicity: p changes sign exactly at its real roots, and p / odd part
    is a constant times a square.  p and -p share it, so one pass of Yun and
    one chain answer the sign questions for both.
    """
    _, factors = squarefree_decomposition(p)
    odd = math.prod((q for q, m in factors if m % 2 == 1), start=RatPoly.constant(1))
    if odd.is_constant():
        return None
    chain = sturm_chain(odd)
    return chain if _roots_on_line(chain) > 0 else None


def is_nonneg_on_reals(p: RatPoly) -> bool:
    """Exact test of p(t) >= 0 for every real t."""
    return find_negative_point(p) is None


def positive_associate(p: RatPoly) -> RatPoly | None:
    """c * p nonnegative on R for some rational c != 0, if that is possible."""
    if p.is_zero():
        raise ZeroPolynomialError("zero polynomial has no positive associate")
    if p.degree % 2 == 1 or (p.degree > 0 and _sign_change_chain(p) is not None):
        return None
    return p if p.leading > 0 else -p


def cauchy_root_bound(p: RatPoly) -> Fraction:
    """B with every real root of p inside (-B, B)."""
    if p.is_zero() or p.degree == 0:
        return Fraction(1)
    lead = abs(p.leading)
    return 1 + max(abs(c) for c in p.coefficients[:-1]) / lead


def _step_to_negative(
    p: RatPoly, t: Fraction, step: Fraction, lo: Fraction, hi: Fraction
) -> Fraction:
    """The first of t + step, t - step, t + step/2, ... inside (lo, hi) where p < 0."""
    for _ in range(200):
        for cand in (t + step, t - step):
            if lo < cand < hi and p.sign_at(cand) < 0:
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
    chain = None if p.is_constant() else _sign_change_chain(p)
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
    B = |c_n| + max |c_i| (c_n times the Cauchy bound of p).  The intervals of
    (-B, B] that hold a root of q are halved, testing each integer midpoint
    exactly, until their width is 1.
    """
    c = p.int_coefficients()
    q = RatPoly([ci * c[-1] ** (len(c) - 2 - i) for i, ci in enumerate(c[:-1])] + [1])
    chain = [r.int_coefficients() for r in sturm_chain(q).chain]
    bound = abs(c[-1]) + max(abs(ci) for ci in c[:-1])
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
    """
    coeffs = p.int_coefficients()
    g, f = math.gcd(*coeffs[:-1]), 2
    while f * f <= g:
        if f > EISENSTEIN_TRIAL_BOUND:
            return False
        if g % f == 0:
            if _eisenstein_at(coeffs, f):
                return True
            while g % f == 0:
                g //= f
        f += 1
    return g > 1 and _eisenstein_at(coeffs, g)


def _eisenstein_at(coeffs: list[int], q: int) -> bool:
    if coeffs[-1] % q == 0:
        return False
    if any(c % q for c in coeffs[:-1]):
        return False
    return coeffs[0] % (q * q) != 0


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
    if p.is_zero() or p.degree < 1:
        raise ZeroPolynomialError("irreducibles have degree at least 1")
    certified = certify_irreducible(p)
    if certified is not True:
        status = "is reducible over Q" if certified is False else "cannot be certified irreducible"
        raise NotCertifiedIrreducibleError(f"{p} {status} (degree {p.degree})")
    return count_real_roots(p) > 0


# -- text and JSON forms ---------------------------------------------------------


def format_poly(p: RatPoly) -> str:
    """Render like "3/2*x^2 - x + 1", highest power first."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for i in range(p.degree, -1, -1):
        c = p[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            xpow = "x" if i == 1 else f"x^{i}"
            body = xpow if mag == 1 else f"{mag}*{xpow}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
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


def _coefficient(value: object) -> Fraction:
    """A JSON integer, or a string in the coefficient grammar, as a Fraction."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if not isinstance(value, str) or not _COEFFICIENT_RE.fullmatch(value):
        raise ParseError(f"bad coefficient {value!r}: expected an integer or <integer>/<digits>")
    numerator, _, denominator = value.partition("/")
    try:
        return Fraction(int(numerator), int(denominator or 1))
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in coefficient {value!r}") from None
    except ValueError as exc:  # more digits than int() converts
        raise ParseError(f"bad coefficient: {exc}") from None


def parse_poly(text: str) -> RatPoly:
    """Parse the textual form; accepts e.g. "3/2*x^2 - x + 1", "x", "-7"."""
    stripped = text.replace(" ", "")
    terms = re.findall(r"[+-]?[^+-]+", stripped)
    if "".join(terms) != stripped or not terms:
        raise ParseError(f"cannot tokenize polynomial {text!r}")
    out = [Fraction(0)]
    for term in terms:
        # A sign without digits (as in "-x") is the coefficient -1.
        sign, body = (term[0], term[1:]) if term[0] in "+-" else ("", term)
        m = _TERM_RE.fullmatch(body)
        if not m or not (m["coef"] or m["var"]):
            raise ParseError(f"bad polynomial term {term!r} in {text!r}")
        try:
            coef = _coefficient(sign + (m["coef"] or "1"))
            exp = int(m["exp"] or 1) if m["var"] else 0
        except (ParseError, ValueError) as exc:  # ValueError: more digits than int() converts
            raise ParseError(f"bad polynomial term {term!r} in {text!r}: {exc}") from None
        if exp > MAX_PARSED_DEGREE:
            raise ParseError(
                f"exponent in polynomial term {term!r} exceeds the limit {MAX_PARSED_DEGREE}"
            )
        out += [Fraction(0)] * (exp + 1 - len(out))
        out[exp] += coef
    return _poly(out)


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
    return _poly([_coefficient(c) for c in data])
