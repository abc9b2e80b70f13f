"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every expected value is either a frozen independently computed
constant or an identity checked by a second, independent code path.
"""

import math
import random
import time
from fractions import Fraction

from helpers import count_real_roots, random_unimodular
from realsnf import INTEGERS, RATIONAL_POLYNOMIALS, quadratic_ring
from realsnf.matrices import Matrix, minor_gcd_profile, smith_normal_form, verify_snf
from realsnf.polynomials import (
    RatPoly,
    is_nonneg_on_reals,
    parse_poly,
    poly_gcd,
)
from realsnf.quadratic import (
    QuadElem,
    SignPattern,
    fundamental_unit,
    pnri_holds,
    positive_associate,
)
from realsnf import rings
from realsnf.spectrum import is_psd_on_spectrum
from realsnf.verify import (
    Conclusion,
    TrialConfig,
    build_counterexample,
    builtin_counterexample_recipe,
    check_valuation_lemma,
    derive_seed,
    random_matrix,
    run_property_suite,
    verify_main_theorem,
)

R2 = quadratic_ring(2)
R3 = quadratic_ring(3)
MASTER_SEED = 20260808


def report(criterion, detail, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {criterion} exceeded its {budget}s budget"
    print(f"PASS criterion {criterion}: {detail} ({elapsed:.2f}s)")


def test_criterion_1_quadratic_ring_constants():
    started = time.perf_counter()
    u3 = fundamental_unit(R3)
    assert u3 == QuadElem(2, 1, R3) and u3.norm() == 1
    u2 = fundamental_unit(R2)
    assert u2 == QuadElem(1, 1, R2) and u2.norm() == -1
    q = QuadElem(1, 1, R3)
    assert q.norm() == -2
    assert q.sign_pattern() == SignPattern(1, -1)
    assert pnri_holds(R2)
    for d in (3, 7, 11):
        assert not pnri_holds(quadratic_ring(d))
    report(1, "fundamental units, norms, sign patterns, pnri flags", started, 1.0)


def test_criterion_2_counterexample_regression():
    started = time.perf_counter()
    matrix = build_counterexample(builtin_counterexample_recipe())
    assert is_psd_on_spectrum(matrix).is_psd
    result = smith_normal_form(matrix)
    q = QuadElem(1, 1, R3)
    assert rings.are_associated(result.diagonals[0], q, R3)
    assert positive_associate(result.diagonals[0]) is None
    theorem = verify_main_theorem(matrix)
    assert theorem.conclusion is Conclusion.THEOREM_FAILS_PNRI_FAILS
    report(2, "stock Zsqrt:3 matrix is PSD yet not positivizable", started, 1.0)


def test_criterion_3_field_identity():
    started = time.perf_counter()
    # (1+sqrt(3))^2 = 1/2 + (r + sqrt(3)/r)^2 + residual in Q(sqrt(3)), both
    # sides as rational part + sqrt(3) part: the left side is 4 + 2*sqrt(3).
    def residual(r):
        return Fraction(7, 2) - (r**4 + 3) / (r * r)

    assert residual(Fraction(4, 3)) == Fraction(5, 144)
    rng = random.Random(MASTER_SEED)
    randoms = [
        Fraction(rng.randint(1, 200), rng.randint(1, 200)) * rng.choice([1, -1]) for _ in range(10)
    ]
    for r in [Fraction(4, 3), Fraction(1), Fraction(2), *randoms]:
        rhs = (Fraction(1, 2) + r * r + 3 / (r * r) + residual(r), 2 * r * (1 / r))
        assert rhs == (4, 2)
    report(3, "identity at 4/3 (residual 5/144), 1, 2 and 10 random rationals", started, 1.0)


def test_criterion_4_main_theorem_property_suite():
    started = time.perf_counter()
    holds = 0
    for ring in (INTEGERS, RATIONAL_POLYNOMIALS, R2):
        cfg = TrialConfig(
            ring=ring,
            matrix_size=4,
            entry_height_bound=3,
            trial_count=100,
            seed=MASTER_SEED,
            max_degree=2,
        )
        summary = run_property_suite(cfg)
        assert summary.ok, summary.breaches
        assert summary.conclusion_counts == {"TheoremHolds": 100}
        holds += summary.conclusion_counts["TheoremHolds"]
    assert holds == 300
    report(4, "300/300 TheoremHolds over Z, Q[x], Zsqrt:2; zero breaches", started, 60.0)


def test_criterion_5_snf_oracle_equivalence():
    started = time.perf_counter()
    lanes = [INTEGERS, RATIONAL_POLYNOMIALS, R3]
    checked = 0
    for index in range(200):
        ring = lanes[index % 3]
        cfg = TrialConfig(
            ring=ring,
            matrix_size=4,
            entry_height_bound=3,
            trial_count=1,
            seed=derive_seed(MASTER_SEED, index),
            max_degree=2,
        )
        m = random_matrix(cfg)
        result = smith_normal_form(m)
        check = verify_snf(m, result)
        assert check, check.failures
        profile = minor_gcd_profile(m)
        partial = rings.one(ring)
        for k, expected in enumerate(profile):
            partial = partial * result.D[k, k]
            assert rings.are_associated(partial, expected, ring)
        checked += 1
    assert checked == 200
    report(5, "200 seeded matrices: transforms verified, minor-gcd products match", started, 60.0)


def test_criterion_6_unimodular_invariance():
    started = time.perf_counter()
    lanes = [INTEGERS, RATIONAL_POLYNOMIALS, R3]
    rng = random.Random(MASTER_SEED)
    for index in range(50):
        ring = lanes[index % 3]
        cfg = TrialConfig(
            ring=ring,
            matrix_size=4,
            entry_height_bound=3,
            trial_count=1,
            seed=derive_seed(MASTER_SEED + 1, index),
            max_degree=2,
        )
        m = random_matrix(cfg)
        p = random_unimodular(rng, ring, m.n_rows)
        q = random_unimodular(rng, ring, m.n_cols)
        before = smith_normal_form(m).diagonals
        after = smith_normal_form(p @ m @ q).diagonals
        assert len(before) == len(after)
        for x, y in zip(before, after):
            assert rings.are_associated(x, y, ring)
    report(6, "50 seeded matrices keep their diagonals under unimodular P, Q", started, 60.0)


def test_criterion_7_valuation_lemma_suite():
    started = time.perf_counter()
    rng = random.Random(MASTER_SEED)
    real_irreducibles = [
        parse_poly("x"),
        parse_poly("x-1"),
        parse_poly("x+2"),
        parse_poly("x^2-2"),
        parse_poly("x^2-3"),
    ]
    done = 0
    while done < 100:
        b = RatPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
        s = RatPoly([rng.randint(-2, 2) for _ in range(rng.randint(1, 2))])
        t = RatPoly([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
        a = b * b * (s * s + 1) + t * t
        if not a:
            continue
        p = rng.choice(real_irreducibles)
        assert check_valuation_lemma(a, b, p)
        done += 1
    report(7, "100 generated instances satisfy the valuation inequality", started, 30.0)


def test_criterion_8_sturm_and_nonnegativity_oracle():
    started = time.perf_counter()
    rng = random.Random(MASTER_SEED)
    # 1000 rational sample points spanning [-10, 10]
    numerators = [-9990 + 20 * j for j in range(1000)]
    denominator = 999
    disagreements = 0
    for _ in range(200):
        p = RatPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 9))])
        if not p:
            p = RatPoly([1])
        verdict = is_nonneg_on_reals(p)
        signs = [p.sign_at(Fraction(u, denominator)) for u in numerators]
        sampled_negative = (
            any(s < 0 for s in signs)
            or p.sign_at_infinity(1) < 0
            or p.sign_at_infinity(-1) < 0
        )
        # sampling can refute nonnegativity but never contradict the verdict
        if verdict and sampled_negative:
            disagreements += 1
    assert disagreements == 0

    counted = 0
    while counted < 100:
        roots = rng.sample(range(-10, 11), rng.randint(0, 5))
        p = math.prod((RatPoly([-r, 1]) for r in roots), start=RatPoly([1]))
        for _ in range(rng.randint(0, 2)):
            b = rng.randint(-3, 3)
            c = rng.randint(1, 5) + b * b  # irreducible: discriminant < 0
            p = p * RatPoly([c, 2 * b, 1])
        if not poly_gcd(p, p.derivative()).is_constant():
            continue
        assert count_real_roots(p) == len(roots)
        counted += 1
    report(8, "sampling never refutes the exact verdict; 100 root counts match", started, 30.0)


def test_criterion_9_fixed_concrete_snf():
    started = time.perf_counter()
    m = Matrix.from_rows([[2, 4], [4, 2]], INTEGERS)
    assert smith_normal_form(m).diagonals == (2, 6)
    poly_m = Matrix.from_rows(
        [[parse_poly("x^2"), parse_poly("x")], [parse_poly("x"), RatPoly([1])]],
        RATIONAL_POLYNOMIALS,
    )
    result = smith_normal_form(poly_m)
    assert result.diagonals == (RatPoly([1]),)
    assert not result.D[1, 1]
    report(9, "[[2,4],[4,2]] -> (2,6); poly matrix has rank 1 with d1 = 1", started, 1.0)
