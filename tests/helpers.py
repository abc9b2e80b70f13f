"""Shared random-matrix builders, known-answer Smith instances, the elimination
PSD oracle and the ring-generic references of the elimination loops and the
determinant for the test suite."""

import itertools
import math
from fractions import Fraction

from realsnf import INTEGERS, RATIONAL_POLYNOMIALS
from realsnf.matrices import Elimination, Matrix, determinant
from realsnf.polynomials import RatPoly
from realsnf.quadratic import _QUOTIENT_SHELLS, QuadElem, exact_divide, fundamental_unit
from realsnf import rings

# Every supported ring, by its ring string.
RING_NAMES = ["Z", "Q[x]", "Zsqrt:2", "Zsqrt:3", "Zsqrt:6", "Zsqrt:7", "Zsqrt:11", "Zhalf:5", "Zhalf:13"]


def unit_power(u, k):
    """u**k for a quadratic unit u and any integer k; k < 0 raises 1 / u to -k."""
    if k < 0:
        u, k = exact_divide(QuadElem(1, 0, u.ring), u), -k
    return u**k


def _nearest_ties_to_zero(t):
    """The integer nearest the Fraction t, a tie going toward zero."""
    low = math.floor(t)
    if t - low != Fraction(1, 2):
        return math.floor(t + Fraction(1, 2))
    return low if low >= 0 else low + 1


def quad_divmod_oracle(a, b):
    """divmod(a, b) for two QuadElems, b nonzero, by the object-level candidate loop.

    It checks ``QuadElem.__divmod__``, which runs the same search on ints:
    round a / b = a * conjugate(b) / N(b) coordinatewise over Fraction, then
    try the offsets shell by shell, building q and r = a - b*q as elements,
    until |N(r)| < |N(b)|.  Returns (q, r, the shell that held q).
    """
    num, nb = a * b.conjugate(), b.norm()
    x0 = _nearest_ties_to_zero(Fraction(num.x, nb))
    y0 = _nearest_ties_to_zero(Fraction(num.y, nb))
    for radius, shell in enumerate(_QUOTIENT_SHELLS):
        for dx, dy in shell:
            q = QuadElem(x0 + dx, y0 + dy, a.ring)
            r = a - b * q
            if not r or abs(r.norm()) < abs(nb):
                return q, r, radius
    raise ArithmeticError("no Euclidean quotient in the shells")


def canonical_associate_by_orbit(a):
    """canonical_associate by walking the unit orbit of every nonzero a.

    It checks ``quadratic.canonical_associate``, which answers rational
    integers and units without a walk: the associates a * u0**k are walked
    both ways until the height has failed to improve three times running,
    each is taken with the sign that is positive at +sqrt(d), and the least
    (height, |y|, -x, -y) wins.  u0**-1 is N(u0) * conjugate(u0).
    """
    if not a:
        return a
    u0 = fundamental_unit(a.ring)
    pool = [a]
    for step in (u0, u0.conjugate() * u0.norm()):
        b, best, worse = a, a.height(), 0
        while worse < 3:
            b = b * step
            pool.append(b)
            if b.height() < best:
                best, worse = b.height(), 0
            else:
                worse += 1
    positive = [c if c.sign_pattern().at_plus > 0 else -c for c in pool]
    return min(positive, key=lambda c: (c.height(), abs(c.y), -c.x, -c.y))


def rand_matrix(rng, ring, n_rows, n_cols, height=4):
    def entry():
        if ring is INTEGERS:
            return rng.randint(-height, height)
        if ring is RATIONAL_POLYNOMIALS:
            return RatPoly([rng.randint(-height, height) for _ in range(rng.randint(1, 3))])
        return QuadElem(rng.randint(-height, height), rng.randint(-height, height), ring)

    return Matrix.from_rows([[entry() for _ in range(n_cols)] for _ in range(n_rows)], ring)


def classical_xgcd(a, b, ring):
    """The schoolbook extended Euclid, remainders left as they fall, in the
    shape of rings.xgcd: (g, [[s, t], [-b/g, a/g]], 1) with s*a + t*b = g.
    The second row comes from two exact divisions, not from the cofactors."""
    a, b = rings.coerce(a, ring), rings.coerce(b, ring)
    g, r = a, b
    s0, s1 = rings.one(ring), rings.zero(ring)
    t0, t1 = rings.zero(ring), rings.one(ring)
    while r:
        q, rem = divmod(g, r)
        g, r = r, rem
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    u = rings.zero(ring) - rings.exact_divide(b, g, ring)
    return g, [[s0, t0], [u, rings.exact_divide(a, g, ring)]], 1


def random_unimodular(rng, ring, n, steps=6):
    m = Matrix.identity(n, ring)
    rows = [list(r) for r in m.entries]
    for _ in range(steps):
        op = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if op == 0 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif op == 1 and i != j:
            if ring is INTEGERS:
                c = rng.randint(-2, 2)
            elif ring is RATIONAL_POLYNOMIALS:
                c = RatPoly([rng.randint(-2, 2), rng.randint(-1, 1)])
            else:
                c = QuadElem(rng.randint(-1, 1), rng.randint(-1, 1), ring)
            c = rings.coerce(c, ring)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        else:
            if ring is INTEGERS:
                u = -1
            elif ring is RATIONAL_POLYNOMIALS:
                u = RatPoly([rng.choice([-2, -1, 1, 2, 3])])
            else:
                u = rng.choice([-1, fundamental_unit(ring), QuadElem(-1, 0, ring)])
            u = rings.coerce(u, ring)
            rows[i] = [u * a for a in rows[i]]
    result = Matrix.from_rows(rows, ring)
    if not rings.is_unit(determinant(result), ring):
        raise ArithmeticError("a product of elementary matrices is not unimodular")
    return result


def totally_positive_non_unit(rng, ring):
    """A nonzero element >= 0 at every ordering that is not a unit: a small
    prime over Z, (x - a)**2 + b with b >= 0 over Q[x], and over a quadratic
    ring 2, 3 or the square of an element whose norm is not +-1."""
    if ring is INTEGERS:
        return rng.choice([2, 3, 5])
    if ring is RATIONAL_POLYNOMIALS:
        a, b = rng.randint(-2, 2), rng.randint(0, 2)
        return RatPoly([a * a + b, -2 * a, 1])
    if rng.random() < 0.3:
        return QuadElem(rng.choice([2, 3]), 0, ring)
    while True:
        a = QuadElem(rng.randint(-2, 2), rng.randint(-2, 2), ring)
        if abs(a.norm()) > 1:
            return a * a


def _shear_coefficient(rng, ring):
    if ring is INTEGERS:
        return rng.randint(-2, 2)
    if ring is RATIONAL_POLYNOMIALS:
        return RatPoly([rng.randint(-2, 2), rng.randint(-1, 1)])
    return QuadElem(rng.randint(-1, 1), rng.randint(-1, 1), ring)


def known_smith_congruence(rng, ring, n, cyclic, rank=None):
    """(M, d) with M = U * diag(d) * U^T for a product U of random shears.

    U is unimodular, so M has the Smith form diag(d) whenever d is a
    divisibility chain; every d_k is >= 0 at every ordering, so M is PSD and
    each nonzero d_k is its own totally positive associate.  With ``cyclic``
    the chain is (1, ..., 1, delta); otherwise d_1 is a non-unit and each
    step multiplies by a further factor half the time, so d_{n-1} is never a
    unit.  Entries past ``rank`` (default n) are zero.  No package routine
    beyond element arithmetic builds M or d.
    """
    rank = n if rank is None else rank
    one, zero = rings.one(ring), rings.zero(ring)
    d, value = [], one
    for k in range(rank):
        if (not cyclic and (k == 0 or rng.random() < 0.5)) or (cyclic and k == n - 1):
            value = value * totally_positive_non_unit(rng, ring)
        d.append(value)
    d += [zero] * (n - rank)
    rows = [[d[i] if i == j else zero for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rings.coerce(_shear_coefficient(rng, ring), ring)
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]  # row i += c * row j
        for row in rows:  # column i += c * column j
            row[i] = row[i] + c * row[j]
    return Matrix.from_rows(rows, ring), tuple(d)


def symmetric_elimination_reference(m):
    """``matrices.symmetric_elimination`` with the ring-generic entry update:
    every product, difference and exact quotient on the ring's own elements
    (QuadElem arithmetic over the quadratic rings, RatPoly arithmetic over
    Q[x]), as the package ran it before those rings moved to int pairs and
    to packed ints."""
    ring = m.ring
    a = [list(row) for row in m.entries]
    rest = list(range(m.n_rows))
    pivots = []
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
                v = row[j] * p - aik * pivot_row[j]
                if prev is not None:
                    v = rings.exact_divide(v, prev, ring)
                    if v is None:
                        raise ArithmeticError("Bareiss division was not exact")
                row[j] = a[j][i] = v
        pivots.append(p)
    return Elimination(tuple(pivots), False, cofactors, max(len(pivots) - 1, 0))


def leibniz_determinant(rows, ring):
    """The determinant of square rows as the Leibniz sum over permutations,
    on the ring's own elements: it shares no step with the elimination."""
    n = len(rows)
    total = rings.zero(ring)
    for perm in itertools.permutations(range(n)):
        term = rings.one(ring)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        total = total - term if inversions % 2 else total + term
    return total


def inverse_modulo_reference(a, g, ring):
    """The inverse of a modulo the rational integer g as a residue, or None
    when a is not a unit modulo g; it shares no step with the entry
    arithmetic's inverse.  Over Z it is ``pow``.  Over a quadratic ring
    conj(x + y*w) is x + y*conj(w), with conj(w) = -w, or 1 - w when
    w = (1 + sqrt(d))/2, N(a) = a * conj(a) is a QuadElem product, and the
    inverse is conj(a) * N(a)^-1."""
    if ring == INTEGERS:
        try:
            return pow(a, -1, g)
        except ValueError:
            return None
    conj = QuadElem(a.x + a.y, -a.y, ring) if ring.uses_half_basis else QuadElem(a.x, -a.y, ring)
    norm = a * conj
    if norm.y:
        raise ArithmeticError("a * conj(a) is not a rational integer")
    try:
        scale = pow(norm.x, -1, g.x)
    except ValueError:
        return None
    return rings.residue(conj * scale, g, ring)


def unit_pivots_reference(m, g):
    """``matrices._unit_pivots`` on the ring's own elements, with
    :func:`inverse_modulo_reference`: (u, B) for the u entries split off as
    units modulo the rational integer g and the block B left, each entry of
    which is a residue modulo g."""
    ring = m.ring
    a = [[rings.residue(v, g, ring) for v in row] for row in m.entries]
    u = 0
    while True:
        pivot = next(
            (
                (t, s, inverse)
                for t, row in enumerate(a)
                for s, v in enumerate(row)
                if v and (inverse := inverse_modulo_reference(v, g, ring)) is not None
            ),
            None,
        )
        if pivot is None:
            return u, Matrix(tuple(map(tuple, a)), ring)
        t, s, inverse = pivot
        pivot_row = a.pop(t)
        del pivot_row[s]
        for row in a:
            f = row.pop(s) * inverse
            row[:] = [rings.residue(x - f * y, g, ring) for x, y in zip(row, pivot_row)]
        u += 1


def psd_exact_ordered(rows):
    """PSD test for a symmetric matrix over Q, by exact symmetric Gaussian elimination.

    It checks the PSD decision in ``realsnf.spectrum`` and shares none of
    its code: it pivots down the diagonal over ``Fraction``, dividing by each
    pivot, where the decision stays in the ring.
    A negative pivot, or a zero pivot whose row is not zero (a 2x2 principal
    minor 0 * c - b**2 < 0), means not PSD; otherwise the pivot's row and
    column are eliminated and the test goes on with the Schur complement.
    """
    a = [[Fraction(v) for v in row] for row in rows]
    if any(len(row) != len(a) for row in a) or any(
        a[i][j] != a[j][i] for i in range(len(a)) for j in range(i)
    ):
        raise ValueError("the oracle needs a symmetric matrix")
    while a:
        pivot, row = a[0][0], a[0][1:]
        if pivot < 0 or (pivot == 0 and any(row)):
            return False
        if pivot == 0:
            a = [r[1:] for r in a[1:]]
        else:
            a = [[v - r[0] * w / pivot for v, w in zip(r[1:], row)] for r in a[1:]]
    return True


def poly_product_oracle(a, b):
    """a * b for two RatPolys by the schoolbook convolution over Fraction.

    It checks ``RatPoly.__mul__`` and shares none of its code: every term
    product is a Fraction, added into place, and the public constructor
    builds the result.
    """
    out = [Fraction(0)] * max(len(a.coefficients) + len(b.coefficients) - 1, 0)
    for i, x in enumerate(a.coefficients):
        for j, y in enumerate(b.coefficients):
            out[i + j] += x * y
    return RatPoly(out)


def poly_sum_oracle(a, b, sign=1):
    """a + sign * b for two RatPolys, coefficient by coefficient over Fraction.

    It checks ``RatPoly.__add__`` (sign 1) and ``__sub__`` (sign -1) and
    shares none of their code.
    """
    x, y = list(a.coefficients), list(b.coefficients)
    size = max(len(x), len(y))
    x += [Fraction(0)] * (size - len(x))
    y += [Fraction(0)] * (size - len(y))
    return RatPoly([u + sign * v for u, v in zip(x, y)])


def _long_division(numerator, divisor):
    """Schoolbook division of two Fraction lists, constant first: (quotient, remainder)."""
    rem = list(numerator)
    quot = [Fraction(0)] * max(len(rem) - len(divisor) + 1, 0)
    while len(rem) >= len(divisor):
        factor = rem[-1] / divisor[-1]
        shift = len(rem) - len(divisor)
        quot[shift] = factor
        for i, c in enumerate(divisor):
            rem[shift + i] -= factor * c
        rem.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def poly_divmod_oracle(a, b):
    """divmod(a, b) for two RatPolys, b nonzero, by long division over Fraction.

    It checks ``RatPoly.__divmod__`` and shares none of its code: every
    step divides by the divisor's leading Fraction, and the public
    constructor builds both results.
    """
    quot, rem = _long_division(list(a.coefficients), list(b.coefficients))
    return RatPoly(quot), RatPoly(rem)


def primitive_scale(coefficients):
    """The positive rational c that makes c * coefficients coprime integers;
    1 when there are no nonzero coefficients.

    It checks ``RatPoly.primitive_scale`` and ``row_primitive_scale``, which
    read the stored content, from the coefficients: the lcm of their
    denominators over the gcd of the numerators brought to it.
    """
    common = math.lcm(*(c.denominator for c in coefficients))
    content = math.gcd(*(c.numerator * (common // c.denominator) for c in coefficients))
    return Fraction(common, content) if content else Fraction(1)


def evaluate_poly_matrix(m, t):
    """Evaluate a Q[x] matrix entrywise at a rational point."""
    return [[entry(t) for entry in row] for row in m.entries]


def classical_sturm_chain(p):
    """The schoolbook Sturm chain of a nonzero RatPoly: p, p', then the
    negated remainders as they fall, until a constant or a zero remainder.

    It checks ``polynomials.sturm_chain`` and shares none of its code: the
    derivative and the long division are written out here over Fraction.
    """
    chain = [list(p.coefficients)]
    if len(chain[0]) >= 2:
        chain.append([i * c for i, c in enumerate(chain[0])][1:])
        while len(chain[-1]) >= 2:
            _, rem = _long_division(chain[-2], chain[-1])
            if not rem:
                break
            chain.append([-c for c in rem])
    return [RatPoly(c) for c in chain]


def count_real_roots(p):
    """Distinct real roots of a nonzero RatPoly, by Sturm's theorem.

    The classical chain ends at a multiple of gcd(p, p'), so the drop in its
    sign variations from -oo to +oo counts distinct roots whether or not p
    is square-free.  It checks the package's sign decisions and shares no
    code with them: the chain is :func:`classical_sturm_chain`.
    """
    def variations(direction):
        signs = [q.sign_at_infinity(direction) for q in classical_sturm_chain(p)]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return variations(-1) - variations(1)


def _divisors(n):
    small = [k for k in range(1, math.isqrt(n) + 1) if n % k == 0]
    return sorted(set(small + [n // k for k in small]))


def _prime_factors(n):
    primes, f = [], 2
    while f * f <= n:
        if n % f == 0:
            primes.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return primes + [n] if n > 1 else primes


def certify_irreducible_by_divisors(p):
    """certify_irreducible by the schoolbook searches, for small coefficients.

    It checks ``polynomials.certify_irreducible`` and shares none of its
    code: the rational root test tries every +-r/s with r dividing the
    constant and s the leading coefficient of the primitive integer form,
    and Eisenstein's criterion is tried at every prime factor of the
    constant, found by trial division.
    """
    if not p or p.degree < 1:
        return False
    if p.degree == 1:
        return True
    coeffs = p.int_coefficients()
    a0, an = abs(coeffs[0]), abs(coeffs[-1])
    has_root = a0 == 0 or any(
        p(Fraction(sign * r, s)) == 0
        for r in _divisors(a0)
        for s in _divisors(an)
        for sign in (1, -1)
    )
    if p.degree <= 3 or has_root:
        return not has_root
    for q in _prime_factors(a0):
        if coeffs[-1] % q and not any(c % q for c in coeffs[:-1]) and coeffs[0] % (q * q):
            return True
    return None
