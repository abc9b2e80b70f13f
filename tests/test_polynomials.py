import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from realsnf import polynomials
from realsnf.errors import NotCertifiedIrreducibleError, ParseError, ZeroPolynomialError
from realsnf.polynomials import (
    MAX_PARSED_DEGREE,
    RatPoly,
    certify_irreducible,
    eval_sign_int,
    find_negative_point,
    format_poly,
    is_nonneg_on_reals,
    is_real_irreducible,
    parse_poly,
    poly_from_json,
    poly_gcd,
    positive_associate,
    row_primitive_scale,
    sign_variations,
    squarefree_decomposition,
    sturm_chain,
)

from helpers import (
    certify_irreducible_by_divisors,
    classical_sturm_chain,
    count_real_roots,
    format_poly_reference,
    poly_divmod_oracle,
    poly_product_oracle,
    poly_sum_oracle,
    primitive_scale,
)

X = RatPoly([0, 1])


def rand_poly(rng, max_degree=6, height=5, nonzero=False):
    while True:
        coeffs = [rng.randint(-height, height) for _ in range(rng.randint(0, max_degree) + 1)]
        p = RatPoly(coeffs)
        if not nonzero or p:
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
        rng = random.Random(15)
        for _ in range(200):
            p = rand_rat_poly(rng)
            for r in (p, p * Fraction(-3, 7), p - p, p.monic()):
                twin = RatPoly(list(r.coefficients))
                assert r == twin and hash(r) == hash(twin)
                if r.is_constant():
                    assert r == r[0] and hash(r) == hash(r[0])

    def test_divmod_round_trip(self):
        rng = random.Random(1)
        for _ in range(200):
            a = rand_poly(rng)
            b = rand_poly(rng, nonzero=True)
            q, r = divmod(a, b)
            assert q * b + r == a
            assert not r or r.degree < b.degree

    def test_divmod_matches_schoolbook_oracle(self):
        # Divisors with leading coefficients of either sign, rarely units of
        # Z after clearing denominators, so pseudo-division rescales often.
        rng = random.Random(16)
        fixed = [
            RatPoly([Fraction(-2, 3)]),
            RatPoly([1, 0, -3]),
            RatPoly([Fraction(1, 2), 0, 0, Fraction(-6, 5)]),
            RatPoly([Fraction(5, 64), Fraction(3, 35), 0, 0, 4]),
        ]
        divisors = fixed + [rand_rat_poly(rng) for _ in range(50)]
        divisors = [b for b in divisors if b]
        assert {b.int_coefficients()[-1] < -1 for b in divisors} == {True, False}
        dividends = [RatPoly.zero()] + [rand_rat_poly(rng, max_degree=12) for _ in range(50)]
        for a in dividends:
            for b in divisors:
                q, r = divmod(a, b)
                assert (q, r) == poly_divmod_oracle(a, b)
                assert q * b + r == a

    def test_sum_and_difference_match_schoolbook_oracle(self):
        rng = random.Random(17)
        operands = [RatPoly.zero()] + [rand_rat_poly(rng) for _ in range(50)]
        # Equal leading terms cancel, so sums also drop in degree.
        operands += [p + X ** (p.degree + 1) for p in operands[:10]]
        operands += [-p for p in operands[-10:]]
        for a in operands:
            for b in operands:
                assert a + b == poly_sum_oracle(a, b)
                assert a - b == poly_sum_oracle(a, b, -1)

    def test_degree_conventions(self):
        assert RatPoly([]).degree == -1
        assert RatPoly([3]).degree == 0
        assert RatPoly([0, 0, 1]).degree == 2
        assert RatPoly([1, 0, 0]).degree == 0  # trailing zeros dropped

    def test_results_are_stored_like_public_ones(self):
        """Arithmetic builds results without the public constructor: each must
        equal, and hash like, the polynomial the constructor builds from its
        coefficients, whatever route built it.  Equality compares stored
        forms, so a result left in another form fails here."""
        rng = random.Random(3)
        for _ in range(200):
            a, b = rand_rat_poly(rng), rand_rat_poly(rng) or RatPoly([Fraction(-4, 9)])
            c = rand_rat_poly(rng, max_degree=3)
            results = [a + b, a - b, a - a, -a, a * b, a * 0, a * Fraction(2, 3), b.derivative()]
            results += [*divmod(a, b), b.monic(), (a * b) // b, (a + b) - b, (c * a).monic()]
            for r in results:
                twin = RatPoly(list(r.coefficients))
                assert r == twin and hash(r) == hash(twin)
                assert twin.coefficients == r.coefficients
                assert all(type(c) is Fraction for c in r.coefficients)
            assert (a * b) // b == a and (a + b) - b == a
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
        assert RatPoly([Fraction(1, 2), Fraction(1, 3)]).primitive_scale() == 6
        assert RatPoly([4, 0, 6]).primitive_scale() == Fraction(1, 2)
        assert RatPoly([Fraction(-3, 4)]).primitive_scale() == Fraction(4, 3)
        assert RatPoly([]).primitive_scale() == RatPoly([0]).primitive_scale() == 1
        row = [RatPoly([4]), RatPoly([]), RatPoly([0, Fraction(6, 5)])]
        assert row_primitive_scale(row) == Fraction(5, 2)
        assert row_primitive_scale([RatPoly([]), RatPoly([])]) == row_primitive_scale([]) == 1

    def test_stored_scale_matches_the_coefficient_oracle(self):
        rng = random.Random(8)
        polys = [rand_rat_poly(rng) for _ in range(100)]
        for p in polys:
            assert p.primitive_scale() == primitive_scale(p.coefficients)
        for _ in range(100):
            row = rng.sample(polys, rng.randint(1, 5))
            coefficients = [c for p in row for c in p.coefficients]
            assert row_primitive_scale(row) == primitive_scale(coefficients)

    def test_scaled_coefficients_are_coprime_integers(self):
        rng = random.Random(4)
        for _ in range(100):
            coeffs = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(4)]
            if not any(coeffs):
                continue
            c = RatPoly(coeffs).primitive_scale()
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
            scale = p.primitive_scale()
            assert scale == primitive_scale(p.coefficients)
            assert p.int_coefficients() == [c * scale for c in p.coefficients]

    def test_gcd_is_the_monic_classical_gcd(self):
        rng = random.Random(5)
        for _ in range(100):
            common = rand_poly(rng, max_degree=3)
            a = rand_poly(rng, max_degree=4) * common
            b = rand_poly(rng, max_degree=4) * common
            x, y = a, b
            while y:
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
            if not p or p.degree > 12:
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
            if not p or is_nonneg_on_reals(p):
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

    def test_step_away_from_a_double_root_reads_p_once(self, monkeypatch):
        # The bisection on x^2 - 1/10^6 lands on 0, a root of the square x^2,
        # and the step search then tries 19 candidates before 1/1024.
        p = parse_poly("x^4 - 1/1000000*x^2")
        chain_length = len(sturm_chain(parse_poly("x^2 - 1/1000000")).chain)
        original = RatPoly.int_coefficients
        calls = []

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(RatPoly, "int_coefficients", counting)
        assert find_negative_point(p) == Fraction(1, 1024)
        assert len(calls) <= chain_length + 2


def rand_product(rng):
    """A nonzero product of random factors, each raised to a power 1..3."""
    p = RatPoly.constant(rng.choice([-2, -1, 1, 3]))
    for _ in range(rng.randint(0, 4)):
        factor = rand_poly(rng, max_degree=2, height=4)
        if factor:
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
        """A question builds the Sturm chain of p once, and a second one, of
        its odd part, only when p is not square-free."""
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
            chains = 1 if poly_gcd(p, p.derivative()).is_constant() else 2
            for question in (is_nonneg_on_reals, positive_associate, find_negative_point):
                for name in calls:
                    calls[name] = 0
                question(p)
                assert calls["squarefree_decomposition"] <= 1, (question.__name__, str(p), calls)
                assert calls["sturm_chain"] <= chains, (question.__name__, str(p), calls)
            checked += 1


    def test_square_free_input_runs_one_remainder_sequence(self, monkeypatch):
        """The remainder sequence that shows p square-free is the Sturm chain
        of its odd part, so a question needs that one sequence and no other.
        Where the certificate decides, positive_associate needs none, and so
        does find_negative_point when p is nonnegative; a sign change still
        needs the chain to locate the point."""

        def two_pass_chain(p):  # Yun first, then the odd part's own chain
            _, factors = squarefree_decomposition(p)
            odd = math.prod((q for q, m in factors if m % 2), start=RatPoly.constant(1))
            if odd.is_constant() or count_real_roots(odd) == 0:
                return None
            return sturm_chain(odd)

        rng = random.Random(13)
        cases = []
        while len(cases) < 120:
            p = rand_poly(rng, max_degree=6, height=6)
            if p.degree < 2 or p.degree % 2 or poly_gcd(p, p.derivative()).degree > 0:
                continue
            # even degree and a positive lead: both questions reach the chain
            p = p if p.sign_at_infinity(+1) > 0 else -p
            cases.append(RatPoly([Fraction(c, rng.choice(DENOMINATORS)) for c in p.coefficients]))
        # real roots too close together for Descartes at depth 6: 1/65 and
        # 1/64, 100 and 101, and -7 and -15/2 beside a conjugate pair
        cases += [
            parse_poly("65*x - 1") * parse_poly("64*x - 1"),
            parse_poly("x - 100") * parse_poly("x - 101") * parse_poly("x^2 + 1"),
            parse_poly("x + 7") * parse_poly("2*x + 15") * parse_poly("x^2 - x + 1"),
        ]
        questions = (positive_associate, find_negative_point)
        with monkeypatch.context() as patched:
            patched.setattr(polynomials, "_sign_change_chain", two_pass_chain)
            patched.setattr(polynomials, "_certified_sign_change", lambda p: None)
            expected = [[question(p) for question in questions] for p in cases]
        certified = [polynomials._certified_sign_change(p) is not None for p in cases]

        calls = []
        original = polynomials._remainder_sequence

        def counted(a, b):
            calls.append(a)
            return original(a, b)

        monkeypatch.setattr(polynomials, "_remainder_sequence", counted)
        for p, answers, decided in zip(cases, expected, certified):
            for question, answer in zip(questions, answers):
                calls.clear()
                assert question(p) == answer, (question.__name__, str(p))
                want = 0 if decided and (question is positive_associate or answer is None) else 1
                assert len(calls) == want, (question.__name__, str(p), len(calls))
        assert any(certified) and not all(certified)
        # find_negative_point skips the chain on some cases, and runs it on others
        assert any(d and t is None for d, (_, t) in zip(certified, expected))
        assert any(d and t is not None for d, (_, t) in zip(certified, expected))
        assert any(a is None for a, _ in expected) and any(t is None for _, t in expected)
        assert any(a is not None for a, _ in expected) and any(t is not None for _, t in expected)


def rand_root(rng):
    return Fraction(rng.randint(-30, 30), rng.choice(DENOMINATORS))


def rand_certificate_case(rng):
    """An even-degree product built to stress the sign certificate: repeated
    real roots, conjugate pairs, real roots closer than 1/64, roots at 0 and
    at the split points 1 and -1, c * r**2 with c of either sign, and the
    near-squares r**2 + 1 and r**2 - 1."""
    kind = rng.randrange(6)
    if kind == 0:  # real roots with multiplicities
        p = RatPoly.constant(rng.choice([-2, 1, 3]))
        for _ in range(rng.randint(1, 4)):
            p = p * RatPoly([-rand_root(rng), 1]) ** rng.randint(1, 3)
    elif kind == 1:  # conjugate pairs, a real pair or none
        p = RatPoly.constant(rng.choice([-1, 1, Fraction(5, 2)]))
        for _ in range(rng.randint(1, 3)):
            a, b = rand_root(rng), rand_root(rng) or Fraction(1, 3)
            p = p * RatPoly([a * a + b * b, -2 * a, 1]) ** rng.randint(1, 2)
        if rng.random() < 0.5:
            r = rand_root(rng)
            p = p * RatPoly([-r, 1]) * RatPoly([-r - Fraction(1, 7), 1])
    elif kind == 2:  # two real roots closer than 1/64
        r, gap = rand_root(rng), Fraction(1, rng.choice([65, 100, 1000, 10**6]))
        p = RatPoly([-r, 1]) * RatPoly([-r - gap, 1]) ** rng.choice([1, 3])
        p = p * RatPoly([rng.randint(1, 9), rng.randint(-2, 2), 1]) ** rng.randint(0, 2)
    elif kind == 3:  # roots at 0, 1 and -1
        p = RatPoly.constant(rng.choice([-1, 2]))
        for root in rng.sample([0, 1, -1], rng.randint(1, 3)):
            p = p * RatPoly([-root, 1]) ** rng.randint(1, 4)
        if rng.random() < 0.5:
            p = p * RatPoly([-rand_root(rng), 1])
    else:  # c * r**2 (kind 4) and r**2 +- 1 (kind 5)
        r = RatPoly.constant(1)
        for _ in range(rng.randint(1, 3)):
            r = r * RatPoly([-rand_root(rng), 1]) ** rng.randint(1, 2)
        if kind == 4:
            p = r * r * rng.choice([Fraction(1, 3), 1, 7, -1, -4, Fraction(-9, 2)])
        else:
            p = r * r + rng.choice([1, -1])
    return p if p.degree % 2 == 0 else p * RatPoly([-rand_root(rng), 1])


class TestSignCertificate:
    def test_agrees_with_the_witness_search_and_the_root_count(self):
        rng = random.Random(29)
        routes = set()
        for _ in range(400):
            p = rand_certificate_case(rng)
            if p.degree < 2:
                continue
            _, factors = squarefree_decomposition(p)
            odd = math.prod((q for q, m in factors if m % 2), start=RatPoly.constant(1))
            changes = not odd.is_constant() and count_real_roots(odd) > 0
            witnessed = find_negative_point(p) is not None and find_negative_point(-p) is not None
            assert changes == witnessed, str(p)
            verdict = polynomials._certified_sign_change(p)
            assert verdict in (None, changes), str(p)
            assert (positive_associate(p) is None) == changes, str(p)
            square = polynomials._is_constant_times_square(p.int_coefficients())
            assert not (square and changes), str(p)
            routes.add("square" if square else verdict)
        assert routes == {"square", True, False, None}

    def test_square_test_reads_the_leading_coefficient(self):
        # c * r**2 for any rational c != 0, and nothing else
        for text in ("x^2", "-x^2", "4*x^2 - 4*x + 1", "-3*x^2 + 6*x - 3", "1/2*x^4 - x^2 + 1/2"):
            assert polynomials._is_constant_times_square(parse_poly(text).int_coefficients())
        for text in ("2*x^2 - 4*x + 1", "x^2 - 4*x + 1", "4*x^4 + 4*x^3 + x^2 + 1", "x^4 + 2*x^2 + 3"):
            assert not polynomials._is_constant_times_square(parse_poly(text).int_coefficients())


# The points where Descartes' bisection strips a root: 0, where
# _odd_root_above_zero is entered, 1 and -1, the first split point of p(x)
# and of p(-x), and 2 and 1/2, the split points one bisection down.
SPLIT_ROOTS = (X, X - 1, X + 1, X - 2, 2 * X - 1)


@st.composite
def split_point_polynomials(draw):
    """A product of linear factors at a nonempty set of SPLIT_ROOTS, each of
    multiplicity 1 to 4, and up to two random factors of degree <= 2, times
    one more linear factor when that degree is odd, with a positive lead."""
    p = RatPoly.constant(1)
    for i in draw(st.lists(st.integers(0, len(SPLIT_ROOTS) - 1), min_size=1, unique=True)):
        p = p * SPLIT_ROOTS[i] ** draw(st.integers(1, 4))
    for coefficients in draw(st.lists(st.lists(st.integers(-3, 3), max_size=3), max_size=2)):
        factor = RatPoly(coefficients)
        if factor:
            p = p * factor
    if p.degree % 2:
        p = p * (X - draw(st.integers(-3, 3)))
    return p if p.sign_at_infinity(+1) > 0 else -p


@settings(max_examples=300, deadline=None, derandomize=True)
@given(split_point_polynomials())
def test_descartes_rule_strips_the_roots_at_split_points(p):
    """Where Descartes' rule decides, it says whether p changes sign on R as
    the root count of p's odd part does, and as the witness search does."""
    found = polynomials._descartes_sign_change(p.int_coefficients())
    if found is None:
        return
    _, factors = squarefree_decomposition(p)
    odd = math.prod((q for q, m in factors if m % 2), start=RatPoly.constant(1))
    changes = not odd.is_constant() and count_real_roots(odd) > 0
    assert found == changes == (find_negative_point(p) is not None), str(p)


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
        # both prime factors of g exceed EISENSTEIN_TRIAL_BOUND, so the trial
        # division stops before finding either: no certificate
        g = 1000003 * 1000033
        assert certify_irreducible(parse_poly(f"x^4 + {g}*x + {g}")) is None

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
            if not p or p.degree < 1:
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

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.sampled_from([0, 0, 1, -1])
            | st.builds(Fraction, st.sampled_from([1, -1]), st.integers(2, 60))
            | st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
            | st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
            max_size=8,
        )
    )
    @example([Fraction(7, 3)])
    @example([1, 0, 0, Fraction(-1, 5)])
    @example([Fraction(-(10**40) + 1, 10**39), 0, Fraction(6, 4), -1])
    def test_format_matches_the_fraction_reference(self, coefficients):
        """The text read off the stored ints is the text of the Fractions:
        +-1 and +-1/d, zero gaps, constants, a leading coefficient of either
        sign and numerators and denominators of 130 bits; and it parses back."""
        p = RatPoly(coefficients)
        assert format_poly(p) == format_poly_reference(p)
        assert parse_poly(format_poly(p)) == p

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
