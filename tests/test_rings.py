import math
import random
from fractions import Fraction

import pytest

from realsnf import INTEGERS, RATIONAL_POLYNOMIALS, parse_ring, quadratic_ring
from realsnf.errors import (
    BothZeroError,
    ParseError,
    UnitInputError,
    UnsupportedRingError,
    ZeroElementError,
)
from realsnf.matrices import Matrix, symmetric_elimination
from realsnf.polynomials import RatPoly, parse_poly
from realsnf.quadratic import PairArithmetic, QuadElem
from realsnf.ringspec import RingFamily, RingSpec
from realsnf import matrices, polynomials, quadratic, rings

from helpers import RING_NAMES, classical_xgcd, unit_power

ALL_QUADRATIC = [quadratic_ring(d) for d in (2, 3, 5, 6, 7, 11, 13)]


def random_element(rng, ring, height=6):
    if ring is INTEGERS:
        return rng.randint(-height, height)
    if ring is RATIONAL_POLYNOMIALS:
        return RatPoly([rng.randint(-height, height) for _ in range(rng.randint(1, 4))])
    return QuadElem(rng.randint(-height, height), rng.randint(-height, height), ring)


class TestRingSpecGrammar:
    def test_parse_round_trip(self):
        for text in ("Z", "Q[x]", "Zsqrt:3", "Zsqrt:2", "Zhalf:5", "Zhalf:13"):
            assert str(parse_ring(text)) == text

    def test_wrong_form_is_rejected(self):
        with pytest.raises(UnsupportedRingError):
            parse_ring("Zsqrt:5")  # d = 1 mod 4 belongs to the half form
        with pytest.raises(UnsupportedRingError):
            parse_ring("Zhalf:3")

    def test_outside_allowlist_fails_loudly(self):
        with pytest.raises(UnsupportedRingError):
            parse_ring("Zsqrt:10")
        with pytest.raises(UnsupportedRingError):
            quadratic_ring(19)

    def test_garbage(self):
        with pytest.raises(ParseError):
            parse_ring("Zroot:3")
        with pytest.raises(ParseError):
            parse_ring("Zsqrt:x")

    def test_parameter_must_match_the_family(self):
        with pytest.raises(UnsupportedRingError, match="^quadratic ring requires a parameter d$"):
            RingSpec(RingFamily.QUADRATIC_INTEGERS)
        with pytest.raises(UnsupportedRingError, match="^Z takes no parameter d$"):
            RingSpec(RingFamily.INTEGERS, 3)


class TestElementValues:
    """An element is zero exactly when it is falsy, however it was built."""

    @pytest.mark.parametrize("name", RING_NAMES)
    def test_zero_is_falsy_and_nonzero_truthy(self, name):
        ring = parse_ring(name)

        def draw():
            rng = random.Random(8)
            return [random_element(rng, ring) for _ in range(40)]

        samples, twins = draw(), draw()  # equal elements, built twice
        zeros = [rings.zero(ring), 0 * rings.one(ring)]
        zeros += [a - a for a in samples] + [a - b for a, b in zip(samples, twins)]
        if ring.family is RingFamily.RATIONAL_POLYNOMIALS:
            zeros += [RatPoly([0, 0]), RatPoly.zero(), RatPoly()]
        elif ring.family is RingFamily.QUADRATIC_INTEGERS:
            zeros.append(QuadElem(0, 0, ring))
        assert not any(zeros)
        assert all(z == rings.zero(ring) for z in zeros)
        nonzero = [a for a in samples if a != rings.zero(ring)]
        assert len(nonzero) > 30
        assert rings.one(ring) and all(nonzero)

    @pytest.mark.parametrize("name", RING_NAMES)
    def test_zero_and_one_are_built_once(self, name):
        ring = parse_ring(name)
        assert rings.zero(ring) is rings.zero(ring) and not rings.zero(ring)
        assert rings.one(ring) is rings.one(ring) and rings.one(ring)

    @pytest.mark.parametrize("name", RING_NAMES)
    def test_bool_is_not_an_element(self, name):
        ring = parse_ring(name)
        for value in (True, False):
            with pytest.raises(UnsupportedRingError):
                rings.coerce(value, ring)
        with pytest.raises(UnsupportedRingError):
            Matrix.from_rows([[True, 2], [2, False]], ring)


class TestEuclideanDivision:
    """divmod on ring elements: the Euclidean step of every ring."""

    def test_integers_schoolbook(self):
        assert divmod(rings.coerce(7, INTEGERS), rings.coerce(3, INTEGERS)) == (2, 1)

    def test_poly_long_division(self):
        q, r = divmod(parse_poly("x^2+1"), parse_poly("x"))
        assert q == parse_poly("x")
        assert r == RatPoly([1])

    def test_sqrt2_exact_quotient(self):
        ring = quadratic_ring(2)
        q, r = divmod(QuadElem(5, 1, ring), QuadElem(1, 1, ring))
        # (5+w)(1-w)/N(1+w) with N = -1 gives -3+4w, and the division is exact
        assert q == QuadElem(-3, 4, ring)
        assert not r

    def test_division_by_zero(self):
        for ring in [INTEGERS, RATIONAL_POLYNOMIALS] + ALL_QUADRATIC:
            with pytest.raises(ZeroDivisionError):
                divmod(rings.coerce(3, ring), rings.zero(ring))

    def test_sqrt6_regression(self):
        # nearest rounding alone loops forever on gcd(1+w, 2) over Zsqrt:6
        ring = quadratic_ring(6)
        assert rings.gcd(QuadElem(1, 1, ring), QuadElem(2, 0, ring), ring) == QuadElem(1, 0, ring)

    @pytest.mark.parametrize("ring", [INTEGERS, RATIONAL_POLYNOMIALS] + ALL_QUADRATIC, ids=str)
    def test_recombination_and_shrinking(self, ring):
        rng = random.Random(42)
        for _ in range(300):
            a = random_element(rng, ring)
            b = random_element(rng, ring)
            if not b:
                continue
            a, b = rings.coerce(a, ring), rings.coerce(b, ring)
            q, r = divmod(a, b)
            assert a == b * q + r
            if r:
                assert rings.euclidean_size(r, ring) < rings.euclidean_size(b, ring)


class TestGcd:
    def test_examples(self):
        assert rings.gcd(12, 18, INTEGERS) == 6
        g = rings.gcd(parse_poly("x^2-1"), parse_poly("x-1"), RATIONAL_POLYNOMIALS)
        assert g == parse_poly("x-1")
        ring = quadratic_ring(3)
        # 2+w is a unit, so the gcd is the whole ring
        assert rings.gcd(QuadElem(1, 1, ring), QuadElem(2, 1, ring), ring) == QuadElem(1, 0, ring)

    def test_both_zero(self):
        with pytest.raises(BothZeroError):
            rings.gcd(0, 0, INTEGERS)

    def test_gcd_with_zero(self):
        assert rings.gcd(0, -14, INTEGERS) == 14

    @pytest.mark.parametrize(
        "ring", [INTEGERS, quadratic_ring(2), quadratic_ring(3), quadratic_ring(5)], ids=str
    )
    def test_gcd_is_greatest_by_exhaustive_divisor_search(self, ring):
        rng = random.Random(7)
        height = 3
        if ring is INTEGERS:
            divisors = [n for n in range(-height * 3, height * 3 + 1) if n != 0]
        else:
            divisors = [
                QuadElem(x, y, ring)
                for x in range(-height, height + 1)
                for y in range(-height, height + 1)
                if not (x == 0 and y == 0)
            ]
        for _ in range(40):
            a = random_element(rng, ring, height)
            b = random_element(rng, ring, height)
            if not a and not b:
                continue
            g = rings.gcd(a, b, ring)
            assert rings.divides(g, a, ring) and rings.divides(g, b, ring)
            for c in divisors:
                if rings.divides(c, a, ring) and rings.divides(c, b, ring):
                    assert rings.divides(c, g, ring)

    @pytest.mark.parametrize("ring", [INTEGERS, RATIONAL_POLYNOMIALS, *ALL_QUADRATIC], ids=str)
    def test_xgcd_identity(self, ring):
        """The block [[s, t], [u, v]] has determinant 1 and takes (a, b) to
        (g, 0); its second row is (-b/g, a/g), here by exact division."""
        rng = random.Random(11)

        def element():
            if ring is RATIONAL_POLYNOMIALS:
                size = rng.randint(1, 4)
                return RatPoly(
                    [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(size)]
                )
            return rings.coerce(random_element(rng, ring), ring)

        zero, one = rings.zero(ring), rings.one(ring)
        pairs = [(element(), element()) for _ in range(100)]
        for a, b in pairs[:30]:  # a common factor gives the gcd a positive size
            c = element()
            pairs.append((a * c, b * c))
        nonzero = [x for x in (element() for _ in range(10)) if x]
        pairs += [(zero, x) for x in nonzero] + [(x, zero) for x in nonzero]
        for a, b in pairs:
            if not a and not b:
                continue
            g, ((s, t), (u, v)), _ = rings.xgcd(a, b, ring)
            assert s * a + t * b == g
            assert not u * a + v * b
            assert s * v - t * u == one
            assert (u, v) == (
                zero - rings.exact_divide(b, g, ring),
                rings.exact_divide(a, g, ring),
            )

    @pytest.mark.parametrize("ring", [INTEGERS, RATIONAL_POLYNOMIALS, quadratic_ring(7)], ids=str)
    def test_xgcd_is_scale_times_classical_euclid(self, ring):
        rng = random.Random(12)
        for _ in range(100):
            a, b = random_element(rng, ring), random_element(rng, ring)
            if ring is RATIONAL_POLYNOMIALS:  # products share factors, so gcds have degree
                c = random_element(rng, ring)
                a, b = a * c * random_element(rng, ring), b * c
            if not a and not b:
                continue
            g, ((s, t), (u, v)), scale = rings.xgcd(a, b, ring)
            g0, ((s0, t0), (u0, v0)), _ = classical_xgcd(a, b, ring)
            assert scale > 0 and (scale == 1 or ring is RATIONAL_POLYNOMIALS)
            assert (g, s, t) == (g0 * scale, s0 * scale, t0 * scale)
            assert (u * scale, v * scale) == (u0, v0)


class TestAssociation:
    def test_examples(self):
        assert rings.are_associated(3, -3, INTEGERS)
        assert rings.are_associated(parse_poly("2*x"), parse_poly("x"), RATIONAL_POLYNOMIALS)
        ring = quadratic_ring(3)
        q = QuadElem(1, 1, ring)
        assert rings.are_associated(q, q * QuadElem(2, 1, ring), ring)

    def test_zero_pairs(self):
        assert rings.are_associated(0, 0, INTEGERS)
        assert not rings.are_associated(0, 5, INTEGERS)

    @pytest.mark.parametrize("ring", [INTEGERS, RATIONAL_POLYNOMIALS, quadratic_ring(2)], ids=str)
    def test_equivalence_relation(self, ring):
        rng = random.Random(3)
        sample = [random_element(rng, ring, 4) for _ in range(12)]
        for a in sample:
            assert rings.are_associated(a, a, ring)
        for a in sample:
            for b in sample:
                assert rings.are_associated(a, b, ring) == rings.are_associated(b, a, ring)
        for a in sample:
            for b in sample:
                for c in sample:
                    if rings.are_associated(a, b, ring) and rings.are_associated(b, c, ring):
                        assert rings.are_associated(a, c, ring)


def unit_examples(ring):
    """(units, non-units) of a ring: the units include the inverses of the others."""
    if ring is INTEGERS:
        return [1, -1], [0, 2, -3]
    if ring is RATIONAL_POLYNOMIALS:
        units = [RatPoly([c]) for c in (1, -1, Fraction(1, 2), Fraction(-7, 3))]
        return units, [RatPoly([]), parse_poly("x"), parse_poly("x+1"), parse_poly("2*x")]
    eps = quadratic.fundamental_unit(ring)
    units = [sign * unit_power(eps, k) for k in range(-2, 3) for sign in (1, -1)]
    big_norm = QuadElem(3, 1, ring)
    assert abs(big_norm.norm()) > 1
    return units, [QuadElem(0, 0, ring), QuadElem(2, 0, ring), big_norm, 2 * eps]


class TestIsUnit:
    @pytest.mark.parametrize("ring", [INTEGERS, RATIONAL_POLYNOMIALS] + ALL_QUADRATIC, ids=str)
    def test_units_and_non_units(self, ring):
        units, non_units = unit_examples(ring)
        for u in units:
            assert rings.is_unit(u, ring), u
        for a in non_units:
            assert not rings.is_unit(a, ring), a

    def test_accepts_plain_ints(self):
        assert rings.is_unit(-1, quadratic_ring(5))
        assert rings.is_unit(3, RATIONAL_POLYNOMIALS)
        assert not rings.is_unit(2, quadratic_ring(2))


PRIME = polynomials.MODULAR_GCD_PRIME


class TestIdealElement:
    def test_modular_images_prove_coprime(self):
        # the prime divides the lead of prime * x + 1 but not that of x, whose
        # image keeps its degree; the images 1 and x are coprime
        values = [parse_poly(f"{PRIME}*x + 1"), parse_poly("x")]
        assert polynomials.certify_coprime(values)
        assert rings.ideal_element(values, RATIONAL_POLYNOMIALS) == RatPoly([1])

    def test_unlucky_prime_falls_back_to_the_gcd(self, monkeypatch):
        # x and x + prime are coprime over Q, but both are x modulo the prime
        values = [parse_poly("x"), parse_poly(f"x + {PRIME}"), parse_poly("x")]
        assert not polynomials.certify_coprime(values)
        gcds = []
        original = polynomials.poly_gcd

        def counted(a, b):
            gcds.append((a, b))
            return original(a, b)

        monkeypatch.setattr(polynomials, "poly_gcd", counted)
        assert rings.ideal_element(values, RATIONAL_POLYNOMIALS) == RatPoly([1])
        assert gcds  # decided over Q

    def test_prime_dividing_every_lead_declines(self):
        # g = prime * x + 1 divides both values, but modulo the prime it is the
        # constant 1, and the images x and x + 1 are coprime
        g = parse_poly(f"{PRIME}*x + 1")
        values = [g * parse_poly("x"), g * parse_poly("x + 1")]
        assert not polynomials.certify_coprime(values)
        assert rings.ideal_element(values, RATIONAL_POLYNOMIALS) == g.monic()

    def test_equals_the_gcd_on_seeded_minors(self):
        # the minors the elimination hands over for N * N^T, entries of degree
        # (i + j) mod 3 and height 3, times a common factor a third of the time
        rng = random.Random(53)
        certified = set()
        for trial in range(60):
            n = rng.randint(2, 5)
            k = rng.randint(1, n)
            entries = [
                [RatPoly([rng.randint(-3, 3) for _ in range((i + j) % 3)] + [rng.choice([-3, -1, 2])])
                 for j in range(k)]
                for i in range(n)
            ]
            m = Matrix.from_rows(entries, RATIONAL_POLYNOMIALS)
            m = m @ m.transpose()
            if trial % 3 == 0:
                c = RatPoly([rng.randint(-3, 3), rng.randint(1, 2)])
                m = Matrix.from_rows([[c * v for v in row] for row in m.entries], RATIONAL_POLYNOMIALS)
            elimination = symmetric_elimination(m)
            if elimination.stuck:
                continue
            expected = RatPoly.zero()
            for v in elimination.minors:
                expected = polynomials.poly_gcd(expected, v)
            assert rings.ideal_element(elimination.minors, RATIONAL_POLYNOMIALS) == expected
            certified.add(polynomials.certify_coprime(elimination.minors))
        assert certified == {True, False}


def prime_kind(ring, p):
    """How p splits in a quadratic ring, from the roots of w's minimal
    polynomial modulo p: none (inert), one double root (ramified) or two."""
    if ring.uses_half_basis:
        roots = {r for r in range(p) if (r * r - r - ring.w2_rational) % p == 0}
    else:
        roots = {r for r in range(p) if (r * r - ring.d) % p == 0}
    return ("inert", "ramified", "split")[len(roots)]


class TestInverseModulo:
    """The inverse modulo G of the unit-pivot pass, on ints over Z and on int
    pairs over the quadratic rings: a * a^-1 = 1 modulo G, and None exactly
    when N(a) and G share a factor; the moduli G = 1 to 30 take in even G
    and, in every ring, a ramified, an inert and a split prime."""

    MODULI = range(1, 31)

    def test_integers(self):
        arithmetic = matrices._IntArithmetic()
        for g in self.MODULI:
            for a in range(-40, 41):
                inverse = arithmetic.inverse(a, g)
                if math.gcd(a, g) != 1:
                    assert inverse is None
                else:
                    assert 0 <= inverse < g and (a * inverse - 1) % g == 0

    @pytest.mark.parametrize("ring", ALL_QUADRATIC, ids=str)
    def test_quadratic(self, ring):
        kinds = {prime_kind(ring, p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)}
        assert kinds == {"inert", "ramified", "split"}
        one, arithmetic = rings.one(ring), PairArithmetic(ring)
        for g in self.MODULI:
            modulus = rings.coerce(g, ring)
            for x in range(-6, 7):
                for y in range(-6, 7):
                    a = QuadElem(x, y, ring)
                    inverse = arithmetic.inverse((x, y), modulus)
                    if math.gcd(a.norm(), g) != 1:
                        assert inverse is None
                    else:
                        inverse = QuadElem(*inverse, ring)
                        assert rings.residue(inverse, modulus, ring) == inverse
                        assert not rings.residue(a * inverse - one, modulus, ring)


class TestPositiveAssociate:
    def test_examples_over_z_and_qx(self):
        p = parse_poly("2*x^2 - 4*x + 3")  # 2 * (x - 1)**2 + 1
        q = parse_poly("x^2 - 1")
        ring = RATIONAL_POLYNOMIALS
        assert rings.positive_associate(p.monic(), ring) == p.monic()
        assert rings.positive_associate(-p, ring) == p
        assert rings.positive_associate(q, ring) is None
        assert rings.positive_associate(5, INTEGERS) == 5
        assert rings.positive_associate(-2, INTEGERS) == 2

    def test_canonical_form_over_a_quadratic_ring_may_be_mixed(self):
        # 2 + w is >= 0 at both embeddings of Z[sqrt(2)], but its canonical
        # form w is negative at the minus embedding; its positive associate
        # is 2 + w, through the unit 1 + w of norm -1
        a = QuadElem(2, 1, quadratic_ring(2))
        w = rings.canonicalize(a, a.ring)
        assert w == QuadElem(0, 1, a.ring)
        assert rings.positive_associate(w, a.ring) == a
        assert rings.positive_associate(a, a.ring) == a


class TestValuation:
    def test_examples(self):
        assert rings.valuation(2, 12, INTEGERS) == 2
        assert (
            rings.valuation(parse_poly("x"), parse_poly("x^3+x^2"), RATIONAL_POLYNOMIALS) == 2
        )
        ring = quadratic_ring(3)
        # (1+w)^2 * 5 = 20+10w
        a = QuadElem(20, 10, ring)
        assert rings.valuation(QuadElem(1, 1, ring), a, ring) == 2

    def test_qx_examples(self):
        x = parse_poly("x")
        assert rings.valuation(x, parse_poly("x^3+x^2"), RATIONAL_POLYNOMIALS) == 2
        p = parse_poly("x^2+1")
        assert rings.valuation(p, p**3 * x, RATIONAL_POLYNOMIALS) == 3
        assert rings.valuation(x, RatPoly([5]), RATIONAL_POLYNOMIALS) == 0

    def test_errors(self):
        with pytest.raises(ZeroElementError):
            rings.valuation(2, 0, INTEGERS)
        with pytest.raises(UnitInputError):
            rings.valuation(1, 12, INTEGERS)

    def test_qx_errors(self):
        x = parse_poly("x")
        with pytest.raises(ZeroElementError):
            rings.valuation(x, RatPoly([]), RATIONAL_POLYNOMIALS)
        with pytest.raises(UnitInputError):
            rings.valuation(RatPoly([3]), x, RATIONAL_POLYNOMIALS)

    @pytest.mark.parametrize("ring", [INTEGERS, quadratic_ring(3)], ids=str)
    def test_additivity(self, ring):
        rng = random.Random(5)
        if ring is INTEGERS:
            primes = [2, 3, 5]
        else:
            # 1+w and w are primes of Zsqrt:3 (norms -2 and -3); 5 is inert
            primes = [QuadElem(1, 1, ring), QuadElem(0, 1, ring), QuadElem(5, 0, ring)]
        for _ in range(60):
            p = rng.choice(primes)
            a = random_element(rng, ring, 8)
            b = random_element(rng, ring, 8)
            if not a or not b:
                continue
            ab = rings.coerce(a, ring) * rings.coerce(b, ring)
            assert rings.valuation(p, ab, ring) == rings.valuation(p, a, ring) + rings.valuation(
                p, b, ring
            )


class TestElementText:
    def test_quadratic_forms(self):
        ring = quadratic_ring(3)
        assert str(QuadElem(1, 1, ring)) == "1+1w"
        assert str(QuadElem(-5, 0, ring)) == "-5+0w"
        assert rings.parse_element("2-3w", ring) == QuadElem(2, -3, ring)
        assert rings.parse_element("7", ring) == QuadElem(7, 0, ring)
        assert rings.parse_element({"x": "4", "y": "-1"}, ring) == QuadElem(4, -1, ring)

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            rings.parse_element("w+1", quadratic_ring(3))
        with pytest.raises(ParseError):
            rings.parse_element("3.5", INTEGERS)

    def test_mixed_ring_rejected(self):
        a = QuadElem(1, 1, quadratic_ring(3))
        with pytest.raises(UnsupportedRingError):
            rings.coerce(a, quadratic_ring(2))

    def test_float_entry_rejected(self):
        with pytest.raises(UnsupportedRingError, match="^cannot interpret 1.5 as an element of Z$"):
            Matrix.from_rows([[1.5]], INTEGERS)
