import math
import random
from fractions import Fraction

import pytest

from realsnf import polynomials
from realsnf.errors import NotCertifiedIrreducibleError, ParseError, ZeroPolynomialError
from realsnf.polynomials import (
    MAX_PARSED_DEGREE,
    RatPoly,
    certify_irreducible,
    count_real_roots,
    eval_sign_int,
    find_negative_point,
    format_poly,
    is_nonneg_on_reals,
    is_real_irreducible,
    parse_poly,
    poly_from_json,
    poly_gcd,
    positive_associate,
    primitive_scale,
    sign_variations,
    squarefree_decomposition,
    sturm_chain,
)

from helpers import certify_irreducible_by_divisors, classical_sturm_chain, poly_product_oracle

X = RatPoly([0, 1])


def rand_poly(rng, max_degree=6, height=5, nonzero=False):
    while True:
        coeffs = [rng.randint(-height, height) for _ in range(rng.randint(0, max_degree) + 1)]
        p = RatPoly(coeffs)
        if not nonzero or not p.is_zero():
            return p


# Prime, prime-power and composite denominators: most pairs are coprime,
# some share a factor, so common denominators are lcms, not products.
DENOMINATORS = (1, 2, 3, 4, 5, 7, 9, 11, 12, 35, 64, 97)


def rand_rat_poly(rng, max_degree=8, height=9):
    """A seeded Q[x] factor of degree -1 (zero) to max_degree: rational
    coefficients, about 30% of those below the leading one zero, a leading
    coefficient of either sign."""
    degree = rng.randint(-1, max_degree)

    def coeff(allow_zero):
        numerator = rng.randint(1, height) * rng.choice((-1, 1))
        if allow_zero and rng.random() < 0.3:
            numerator = 0
        return Fraction(numerator, rng.choice(DENOMINATORS))

    coeffs = [coeff(True) for _ in range(degree)]
    if degree >= 0:
        coeffs.append(coeff(False))
    return RatPoly(coeffs)


class TestArithmetic:
    def test_product_matches_schoolbook_oracle(self):
        rng = random.Random(14)
        fixed = [
            RatPoly.zero(),
            RatPoly([Fraction(-2, 3)]),
            RatPoly([Fraction(1, 3), Fraction(1, 2)]),
            RatPoly([Fraction(-1, 7), 0, 0, Fraction(-1, 5)]),
            RatPoly([Fraction(5, 64), 0, Fraction(3, 35), 0, Fraction(-9, 97)]),
        ]
        factors = fixed + [rand_rat_poly(rng) for _ in range(60)]
        assert {p.degree for p in factors} == set(range(-1, 9))
        for a in factors:
            for b in factors:
                product = a * b
                assert product == poly_product_oracle(a, b)
                coeffs = product.coefficients
                assert all(type(c) is Fraction for c in coeffs)
                assert not coeffs or coeffs[-1] != 0
        # (1/3*x + 1/2) * (-1/7*x + 1/5), expanded by hand.
        a = RatPoly([Fraction(1, 2), Fraction(1, 3)])
        b = RatPoly([Fraction(1, 5), Fraction(-1, 7)])
        expected = RatPoly([Fraction(1, 10), Fraction(-1, 210), Fraction(-1, 21)])
        assert a * b == poly_product_oracle(a, b) == expected

    def test_constant_hashes_like_its_constant(self):
        """Equal objects hash equal, so dict and set lookups agree with ==."""
        half = Fraction(1, 2)
        for p, c in ((RatPoly([1]), 1), (RatPoly([half]), half), (RatPoly([-7]), -7), (RatPoly.zero(), 0)):
            assert p == c and hash(p) == hash(c)
            assert {p: "p"}.get(c) == "p" and {c: "c"}.get(p) == "c"
            assert len({p, c}) == 1
        assert hash(RatPoly([1, 2])) == hash(RatPoly([Fraction(2, 2), Fraction(4, 2)]))

    def test_divmod_round_trip(self):
        rng = random.Random(1)
        for _ in range(200):
            a = rand_poly(rng)
            b = rand_poly(rng, nonzero=True)
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero() or r.degree < b.degree

    def test_degree_conventions(self):
        assert RatPoly([]).degree == -1
        assert RatPoly([3]).degree == 0
        assert RatPoly([0, 0, 1]).degree == 2
        assert RatPoly([1, 0, 0]).degree == 0  # trailing zeros dropped

    def test_results_are_stored_like_public_ones(self):
        """Arithmetic builds results without the public constructor: they must
        still hold Fractions and no trailing zero."""
        rng = random.Random(3)
        for _ in range(200):
            a, b = rand_poly(rng), rand_poly(rng, nonzero=True)
            results = [a + b, a - b, a - a, -a, a * b, a * 0, a * Fraction(2, 3), b.derivative()]
            results += [*divmod(a, b), b.monic()]
            for r in results:
                assert RatPoly(list(r.coefficients)).coefficients == r.coefficients
                assert all(type(c) is Fraction for c in r.coefficients)
        assert (X + 1) - X == RatPoly([1]) and (X - X).degree == -1

    def test_scalar_product_matches_constant_polynomial(self):
        rng = random.Random(6)
        for _ in range(100):
            p = rand_poly(rng)
            for c in (0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 9))):
                assert p * c == p * RatPoly.constant(c)
                assert c * p == p * c
                assert all(type(v) is Fraction for v in (p * c).coefficients)
        assert (X + 1) * 0 == RatPoly.zero() and ((X + 1) * 0).coefficients == ()
        assert 0 * (X + 1) == RatPoly.zero() and (Fraction(0) * X).coefficients == ()

    def test_evaluation_matches_sign_kernel(self):
        rng = random.Random(2)
        for _ in range(100):
            p = rand_poly(rng)
            t = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            value = p(t)
            sign = (value > 0) - (value < 0)
            assert p.sign_at(t) == sign


class TestSignKernels:
    def test_against_fraction_reference(self):
        rng = random.Random(1)
        for _ in range(300):
            coeffs = [rng.randint(-50, 50) for _ in range(rng.randint(1, 9))]
            u = rng.randint(-30, 30)
            v = rng.randint(1, 12)
            value = sum(c * Fraction(u, v) ** i for i, c in enumerate(coeffs))
            expected = (value > 0) - (value < 0)
            assert eval_sign_int(coeffs, u, v) == expected

    def test_batch_matches_single(self):
        rng = random.Random(2)
        for _ in range(50):
            p = rand_poly(rng, max_degree=6, height=9)
            numerators = [rng.randint(-100, 100) for _ in range(20)]
            v = rng.randint(1, 999)
            coeffs = p.int_coefficients()
            batch = [eval_sign_int(coeffs, u, v) for u in numerators]
            assert batch == [p.sign_at(Fraction(u, v)) for u in numerators]

    def test_zero_polynomial(self):
        assert eval_sign_int([], 3, 2) == 0
        assert RatPoly.zero().sign_at(Fraction(3, 2)) == 0

    def test_sign_variations(self):
        assert sign_variations([]) == 0
        assert sign_variations([1, 1, 1]) == 0
        assert sign_variations([1, -1, 1]) == 2
        assert sign_variations([1, 0, -1, 0, -1, 1]) == 2
        assert sign_variations([0, 0, -1]) == 0


class TestPrimitiveScale:
    def test_examples(self):
        assert primitive_scale([Fraction(1, 2), Fraction(1, 3)]) == 6
        assert primitive_scale([Fraction(4), Fraction(0), Fraction(6)]) == Fraction(1, 2)
        assert primitive_scale([Fraction(-3, 4)]) == Fraction(4, 3)
        assert primitive_scale([]) == primitive_scale([Fraction(0)]) == 1

    def test_scaled_coefficients_are_coprime_integers(self):
        rng = random.Random(4)
        for _ in range(100):
            coeffs = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(4)]
            if not any(coeffs):
                continue
            c = primitive_scale(coeffs)
            scaled = [c * v for v in coeffs]
            assert c > 0 and all(v.denominator == 1 for v in scaled)
            assert math.gcd(*(v.numerator for v in scaled)) == 1

    def test_int_coefficients_are_the_primitive_part(self):
        assert RatPoly([Fraction(2, 3), Fraction(4, 3)]).int_coefficients() == [1, 2]
        assert RatPoly([6, 0, -4]).int_coefficients() == [3, 0, -2]
        assert RatPoly.zero().int_coefficients() == []
        rng = random.Random(7)
        for _ in range(100):
            p = rand_poly(rng, nonzero=True) * Fraction(rng.randint(1, 30), rng.randint(1, 30))
            scale = primitive_scale(p.coefficients)
            assert p.int_coefficients() == [c * scale for c in p.coefficients]

    def test_gcd_is_the_monic_classical_gcd(self):
        rng = random.Random(5)
        for _ in range(100):
            common = rand_poly(rng, max_degree=3)
            a = rand_poly(rng, max_degree=4) * common
            b = rand_poly(rng, max_degree=4) * common
            x, y = a, b
            while not y.is_zero():
                x, y = y, x % y
            assert poly_gcd(a, b) == (x.monic() if x else x)


class TestSturm:
    def test_chain_for_quadratic(self):
        chain = sturm_chain(parse_poly("x^2 - 2")).chain
        assert list(chain) == [parse_poly("x^2-2"), parse_poly("2*x"), RatPoly([1])]

    def test_chain_coefficients_stay_small(self):
        # Dense monic degree 80: the classical chain peaks near 40,000 bits,
        # the primitive one near 1,100.
        rng = random.Random(2)
        p = RatPoly([rng.randint(-9, 9) for _ in range(80)] + [1])
        for member in sturm_chain(p).chain:
            for c in member.coefficients:
                assert c.numerator.bit_length() < 2000 and c.denominator.bit_length() < 2000

    def test_chain_for_linear_and_constant(self):
        assert list(sturm_chain(X).chain) == [X, RatPoly([1])]
        assert list(sturm_chain(RatPoly([5])).chain) == [RatPoly([5])]

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            sturm_chain(RatPoly([]))

    def test_chain_is_the_classical_chain_up_to_positive_scaling(self):
        # Repeated factors, rational coefficients, degrees 0-12: each member
        # is a positive rational multiple of the schoolbook member, so every
        # sign, and with it every Sturm count, is the classical one.
        rng = random.Random(12)
        checked = 0
        while checked < 150:
            p = rand_rat_poly(rng, max_degree=4)
            for _ in range(rng.randint(0, 2)):
                p = p * rand_rat_poly(rng, max_degree=3) ** rng.randint(1, 3)
            if p.is_zero() or p.degree > 12:
                continue
            chain, oracle = sturm_chain(p).chain, classical_sturm_chain(p)
            assert len(chain) == len(oracle), str(p)
            for member, expected in zip(chain, oracle):
                assert member.degree == expected.degree, str(p)
                ratio = member.leading / expected.leading
                assert ratio > 0 and member == expected * ratio, str(p)
            checked += 1

    def test_root_counts(self):
        assert count_real_roots(parse_poly("x^2-2")) == 2
        assert count_real_roots(parse_poly("x^2+1")) == 0
        assert count_real_roots(X) == 1

    def test_repeated_roots_count_once(self):
        assert count_real_roots(parse_poly("x^2")) == 1
        assert count_real_roots(parse_poly("x-1") ** 3 * parse_poly("x+2") ** 2) == 2
        assert count_real_roots(parse_poly("x^2+1") ** 2) == 0

    def test_root_counts_against_constructions(self):
        rng = random.Random(3)
        for _ in range(60):
            roots = rng.sample(range(-12, 13), rng.randint(0, 4))
            p = RatPoly.constant(1)
            for r in roots:
                p = p * RatPoly([-r, 1]) ** rng.randint(1, 3)
            for _ in range(rng.randint(0, 2)):
                # strictly positive definite quadratic factor adds no roots
                b = rng.randint(-3, 3)
                c = rng.randint(1, 6) + b * b  # discriminant 4b^2-4c < 0
                p = p * RatPoly([c, 2 * b, 1]) ** rng.randint(1, 2)
            assert count_real_roots(p) == len(roots)


class TestSquarefreeDecomposition:
    def test_example(self):
        p = parse_poly("x-1") ** 2 * parse_poly("x+2")
        constant, factors = squarefree_decomposition(p)
        assert constant == 1
        assert sorted((str(q), m) for q, m in factors) == [("x + 2", 1), ("x - 1", 2)]

    def test_trivial_and_power(self):
        _, factors = squarefree_decomposition(parse_poly("x^2+1"))
        assert factors == [(parse_poly("x^2+1"), 1)]
        _, factors = squarefree_decomposition(parse_poly("x^2-2") ** 3)
        assert factors == [(parse_poly("x^2-2"), 3)]

    def test_re_expansion_exact(self):
        rng = random.Random(4)
        for _ in range(60):
            p = rand_poly(rng, max_degree=4, nonzero=True)
            if p.degree < 1:
                continue
            constant, factors = squarefree_decomposition(p)
            rebuilt = RatPoly([constant])
            for q, m in factors:
                assert poly_gcd(q, q.derivative()).is_constant()
                rebuilt = rebuilt * q**m
            assert rebuilt == p


class TestNonnegativity:
    def test_examples(self):
        assert is_nonneg_on_reals(parse_poly("x^2+1"))
        assert not is_nonneg_on_reals(parse_poly("x^3-x"))
        assert not is_nonneg_on_reals(parse_poly("x-1") ** 2 * X)

    def test_zero_and_constants(self):
        assert is_nonneg_on_reals(RatPoly([]))
        assert is_nonneg_on_reals(RatPoly([Fraction(3, 7)]))
        assert not is_nonneg_on_reals(RatPoly([-1]))

    def test_squares_are_nonneg(self):
        rng = random.Random(5)
        for _ in range(40):
            p = rand_poly(rng, max_degree=3)
            assert is_nonneg_on_reals(p * p)

    def test_agrees_with_sampling(self):
        rng = random.Random(6)
        numerators = list(range(-40, 41))
        for _ in range(150):
            p = rand_poly(rng, max_degree=6)
            verdict = is_nonneg_on_reals(p)
            sampled = [p.sign_at(Fraction(u, 4)) for u in numerators]
            if verdict:
                assert all(s >= 0 for s in sampled)
                assert p.sign_at_infinity(1) >= 0 and p.sign_at_infinity(-1) >= 0

    def test_positive_associate(self):
        assert positive_associate(-parse_poly("x^2+1")) == parse_poly("x^2+1")
        assert positive_associate(parse_poly("x^2-2")) is None
        assert positive_associate(RatPoly([7])) == RatPoly([7])
        with pytest.raises(ZeroPolynomialError):
            positive_associate(RatPoly([]))

    def test_find_negative_point(self):
        rng = random.Random(7)
        found = 0
        for _ in range(400):
            p = rand_poly(rng, max_degree=6)
            if p.is_zero() or is_nonneg_on_reals(p):
                continue
            t = find_negative_point(p)
            assert p(t) < 0
            found += 1
        assert found > 100

    def test_find_negative_point_interior_dip(self):
        # positive leading coefficient, even degree, dips below zero inside
        p = parse_poly("x^2-2") * parse_poly("x^2-3") * parse_poly("x^2+1")
        t = find_negative_point(p)
        assert p(t) < 0


def rand_product(rng):
    """A nonzero product of random factors, each raised to a power 1..3."""
    p = RatPoly.constant(rng.choice([-2, -1, 1, 3]))
    for _ in range(rng.randint(0, 4)):
        factor = rand_poly(rng, max_degree=2, height=4)
        if not factor.is_zero():
            p = p * factor ** rng.randint(1, 3)
    return p


class TestOnePassSignQuestions:
    def test_answers_agree_on_products_with_multiplicities(self):
        rng = random.Random(11)
        for _ in range(300):
            p = rand_product(rng)
            associate = positive_associate(p)
            if is_nonneg_on_reals(p):
                assert associate == p
            elif is_nonneg_on_reals(-p):
                assert associate == -p
            else:
                assert associate is None
            t = find_negative_point(p)
            assert (t is None) == is_nonneg_on_reals(p)
            if t is not None:
                assert p(t) < 0

    def test_one_decomposition_and_one_chain_per_question(self, monkeypatch):
        calls = {"squarefree_decomposition": 0, "sturm_chain": 0}
        for name in calls:
            original = getattr(polynomials, name)

            def counted(p, name=name, original=original):
                calls[name] += 1
                return original(p)

            monkeypatch.setattr(polynomials, name, counted)
        rng = random.Random(12)
        checked = 0
        while checked < 200:
            p = rand_product(rng)
            if p.is_constant():
                continue
            for question in (is_nonneg_on_reals, positive_associate, find_negative_point):
                for name in calls:
                    calls[name] = 0
                question(p)
                assert max(calls.values()) <= 1, (question.__name__, str(p), calls)
            checked += 1


class TestIrreducibility:
    def test_real_irreducible(self):
        assert not is_real_irreducible(parse_poly("x^2+1"))
        assert is_real_irreducible(parse_poly("x^2-2"))
        assert is_real_irreducible(parse_poly("x-5"))

    def test_non_real_irreducibles_are_positivizable(self):
        # an irreducible with no real root keeps one sign, so a constant
        # multiple is nonnegative on all of R
        rng = random.Random(77)
        for _ in range(60):
            b = rng.randint(-6, 6)
            c = rng.randint(1, 9) + b * b  # discriminant 4b^2 - 4c < 0
            lead = rng.choice([-3, -1, 1, 2])
            q = RatPoly([c * lead, 2 * b * lead, lead])
            assert not is_real_irreducible(q.monic())
            assert positive_associate(q) is not None

    def test_certification_low_degree(self):
        assert certify_irreducible(parse_poly("x^2-2")) is True
        assert certify_irreducible(parse_poly("x^2-1")) is False
        assert certify_irreducible(parse_poly("x^3-x")) is False
        assert certify_irreducible(parse_poly("x^3+x+1")) is True

    def test_certification_eisenstein(self):
        assert certify_irreducible(parse_poly("x^4+2")) is True
        assert certify_irreducible(parse_poly("x^5 - 4*x + 2")) is True
        # x^4+4 factors as (x^2+2x+2)(x^2-2x+2): no certificate either way
        assert certify_irreducible(parse_poly("x^4+4")) is None

    def test_certification_matches_the_divisor_search(self):
        # Products of small rational factors (rational roots), multiples of a
        # small prime below a unit-like lead (Eisenstein), and plain integer
        # polynomials; degrees 1-7.
        rng = random.Random(31)
        seen = set()
        for k in range(300):
            degree = rng.randint(1, 7)
            if k % 3 == 0:
                p = RatPoly([1])
                while p.degree < degree:
                    p = p * (rand_rat_poly(rng, max_degree=2, height=6) or X)
            elif k % 3 == 1:
                q = rng.choice([2, 3, 5, 7])
                lead = rng.choice([1, -1, 2, 3])
                p = RatPoly([q * rng.randint(-5, 5) for _ in range(degree)] + [lead])
            else:
                lead = rng.randint(-12, 12) or 1
                p = RatPoly([rng.randint(-30, 30) for _ in range(degree)] + [lead])
            if p.is_zero() or p.degree < 1:
                continue
            expected = certify_irreducible_by_divisors(p)
            assert certify_irreducible(p) is expected, str(p)
            seen.add(expected)
        assert seen == {True, False, None}

    def test_large_constants_are_certified_quickly(self):
        # The old divisor search trial-divided these constants up to their
        # square roots (about 10**15 and 10**20 steps).
        big = 10**30
        assert certify_irreducible(parse_poly(f"x^2 - {big + 7}")) is True
        assert certify_irreducible(parse_poly(f"x^2 - {big}")) is False
        assert certify_irreducible(parse_poly(f"x^4 - {10**39 + 6}")) is True
        assert certify_irreducible(parse_poly(f"3*x^3 - {3 * big + 1}*x^2 + {big}*x")) is False
        assert certify_irreducible(parse_poly(f"3*x^3 - {3 * big + 1}*x^2 + {big}")) is True
        assert certify_irreducible(parse_poly(f"{big}*x^3 - 1")) is False  # root 10^-10

    def test_rational_root_search_reads_each_chain_member_once(self, monkeypatch):
        # A Sturm count reads every chain member at every interval endpoint;
        # the integer coefficients are built once per chain, not per point.
        p = parse_poly(f"x^2 - {10**30 + 7}")
        chain_length = len(sturm_chain(p).chain)
        original = RatPoly.int_coefficients
        calls = []

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(RatPoly, "int_coefficients", counting)
        assert certify_irreducible(p) is True
        assert len(calls) <= chain_length + 1

    def test_certified_mode_raises_when_unknown(self):
        with pytest.raises(NotCertifiedIrreducibleError):
            is_real_irreducible(parse_poly("x^4+4"))
        assert is_real_irreducible(parse_poly("x^2-2"))

    def test_reducible_with_real_root_is_refused(self):
        # x^3 + x = x * (x^2 + 1) has a real root but is not irreducible
        with pytest.raises(NotCertifiedIrreducibleError, match="reducible"):
            is_real_irreducible(parse_poly("x^3+x"))
        # irreducible with real roots, but no rational root test or Eisenstein prime applies
        with pytest.raises(NotCertifiedIrreducibleError, match="cannot be certified"):
            is_real_irreducible(parse_poly("x^4-10*x^2+1"))


class TestTextForms:
    def test_format(self):
        assert format_poly(parse_poly("3/2*x^2 - x + 1")) == "3/2*x^2 - x + 1"
        assert format_poly(RatPoly([])) == "0"
        assert format_poly(RatPoly([0, -1])) == "-x"
        assert format_poly(RatPoly([2, 0, 0, 1])) == "x^3 + 2"

    def test_parse_variants(self):
        assert parse_poly("x") == X
        assert parse_poly("-x") == -X
        assert parse_poly("2x") == RatPoly([0, 2])
        assert parse_poly("-7") == RatPoly([-7])
        assert parse_poly("x^2 + x + x") == RatPoly([0, 2, 1])

    def test_round_trip(self):
        rng = random.Random(8)
        for _ in range(100):
            p = RatPoly(
                [
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                    for _ in range(rng.randint(1, 6))
                ]
            )
            assert parse_poly(format_poly(p)) == p

    def test_parse_errors(self):
        for bad in ("", "x^-1", "3*", "x**2", "2//3", "y+1"):
            with pytest.raises(ParseError):
                parse_poly(bad)

    def test_array_form_shares_the_text_grammar(self):
        expected = parse_poly("1/4*x^3 + 3/2*x^2 - 2*x + 3")
        assert poly_from_json(["3", -2, "3/2", "+1/4"]) == expected
        assert poly_from_json([]) == RatPoly.zero()
        for bad in ("1.5", 1.5, "1_0", "1e5", "1e500000000", " 3", "3/-2", "x", True, None, [1]):
            with pytest.raises(ParseError, match="bad coefficient"):
                poly_from_json([1, bad])
        with pytest.raises(ParseError, match="zero denominator"):
            poly_from_json(["1/0"])
        for bad in ("1.5*x", "1e5", "1_0*x", "x^1_0"):
            with pytest.raises(ParseError):
                parse_poly(bad)

    def test_array_form_has_the_degree_cap(self):
        assert poly_from_json([0] * MAX_PARSED_DEGREE + [1]).degree == MAX_PARSED_DEGREE
        with pytest.raises(ParseError, match="exceeds the limit"):
            poly_from_json([0] * (MAX_PARSED_DEGREE + 1) + [1])
        with pytest.raises(ParseError, match="exceeds the limit"):
            parse_poly(f"x^{MAX_PARSED_DEGREE + 1}")

    def test_zero_denominator_names_the_term(self):
        with pytest.raises(ParseError, match=r"term '\+1/0\*x'"):
            parse_poly("x^2 + 1/0*x")
