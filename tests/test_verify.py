import random
from fractions import Fraction

import pytest

from helpers import rand_matrix
from realsnf import INTEGERS, RATIONAL_POLYNOMIALS, quadratic_ring
from realsnf.errors import (
    CounterexampleConditionError,
    NotCertifiedIrreducibleError,
    NotSymmetricError,
    PreconditionFailedError,
)
from realsnf import matrices
from realsnf.matrices import Matrix, smith_normal_form
from realsnf.polynomials import RatPoly, parse_poly
from realsnf.quadratic import QuadElem, positive_associate
from realsnf import rings
from realsnf.verify import (
    MAX_TRIAL_COUNT,
    MAX_TRIAL_DEGREE,
    MAX_TRIAL_HEIGHT,
    Conclusion,
    CounterexampleRecipe,
    SplitMix64,
    TrialConfig,
    build_counterexample,
    builtin_counterexample_recipe,
    check_valuation_lemma,
    derive_seed,
    random_psd_matrix,
    recipe_from_json,
    run_property_suite,
    verify_main_theorem,
)

R2 = quadratic_ring(2)
R3 = quadratic_ring(3)


class TestVerifyMainTheorem:
    def test_already_positive_diagonal(self):
        report = verify_main_theorem(Matrix.from_rows([[2, 0], [0, 6]], INTEGERS))
        assert report.conclusion is Conclusion.THEOREM_HOLDS
        assert report.input_psd and report.pnri
        assert report.positivizable == (True, True)

    def test_gram_over_sqrt2(self):
        rng = random.Random(100)
        for _ in range(10):
            n = rng.randint(1, 3)
            m = rand_matrix(rng, R2, n, n, height=3)
            report = verify_main_theorem(m @ m.transpose())
            assert report.conclusion is Conclusion.THEOREM_HOLDS

    def test_not_psd_input(self):
        report = verify_main_theorem(Matrix.from_rows([[-1, 0], [0, 1]], INTEGERS))
        assert report.conclusion is Conclusion.NOT_APPLICABLE_NOT_PSD
        assert not report.input_psd

    @pytest.mark.parametrize("ring", [INTEGERS, RATIONAL_POLYNOMIALS, R3], ids=str)
    def test_verdict_does_not_replay_the_transforms(self, ring, monkeypatch):
        n = rand_matrix(random.Random(5), ring, 3, 3, height=3)
        m = n @ n.transpose()
        expected = smith_normal_form(m).diagonals

        class Replayed(Exception):
            pass

        def refuse(red):
            raise Replayed

        monkeypatch.setattr(matrices, "_replay", refuse)
        with pytest.raises(Replayed):
            smith_normal_form(m)
        report = verify_main_theorem(m)
        assert report.input_psd
        assert report.snf_diagonals == expected

    def test_requires_symmetry(self):
        with pytest.raises(NotSymmetricError):
            verify_main_theorem(Matrix.from_rows([[1, 2], [0, 1]], INTEGERS))

    def test_rejects_a_precomputed_snf(self):
        # the verdict computes its own diagonals: a Smith form passed in would
        # be trusted unchecked, whatever matrix it came from
        m = Matrix.from_rows([[-1, 0], [0, -3]], INTEGERS)
        with pytest.raises(TypeError):
            verify_main_theorem(m, snf=smith_normal_form(Matrix.identity(3, INTEGERS)))

    def test_counterexample_matrix_fails_as_predicted(self):
        matrix = build_counterexample(builtin_counterexample_recipe())
        report = verify_main_theorem(matrix)
        assert report.conclusion is Conclusion.THEOREM_FAILS_PNRI_FAILS
        assert report.input_psd and not report.pnri
        assert not all(report.positivizable)

    def test_json_round_trip_values_are_strings(self):
        report = verify_main_theorem(Matrix.from_rows([[2, 0], [0, 6]], INTEGERS))
        payload = report.to_json()
        assert payload["snf_diagonals"] == ["2", "6"]
        assert payload["conclusion"] == "TheoremHolds"


class TestCounterexampleRecipe:
    def test_builtin_recipe_takes_no_ring(self):
        # the recipe holds only over Zsqrt:3, so no ring can be passed in
        with pytest.raises(TypeError):
            builtin_counterexample_recipe(quadratic_ring(2))
        assert builtin_counterexample_recipe().ring == R3

    def test_builtin_matrix_values(self):
        matrix = build_counterexample(builtin_counterexample_recipe())
        q = QuadElem(1, 1, R3)
        e = QuadElem(2, 1, R3)
        assert matrix.entries == (
            (q * q, q * e),
            (q * e, q * q * e),
        )

    def test_builtin_first_diagonal_is_the_sign_changer(self):
        matrix = build_counterexample(builtin_counterexample_recipe())
        result = smith_normal_form(matrix)
        q = QuadElem(1, 1, R3)
        assert rings.are_associated(result.diagonals[0], q, R3)
        assert result.diagonals[0] == q  # canonical representative
        assert positive_associate(result.diagonals[0]) is None

    def test_first_diagonal_matches_d1_gcd_a_b(self):
        recipe = builtin_counterexample_recipe()
        matrix = build_counterexample(recipe)
        result = smith_normal_form(matrix)
        expected = recipe.d1 * rings.gcd(recipe.a, recipe.b, R3)
        assert rings.are_associated(result.diagonals[0], expected, R3)

    def test_degenerate_identity_recipe(self):
        recipe = CounterexampleRecipe(
            ring=INTEGERS, a=1, b=0, c=1, d1=1, e1=1, epsilon=1
        )
        assert build_counterexample(recipe).entries == ((1, 0), (0, 1))

    def test_epsilon_must_be_a_unit(self):
        recipe = CounterexampleRecipe(
            ring=INTEGERS, a=2, b=0, c=1, d1=1, e1=1, epsilon=2
        )
        with pytest.raises(CounterexampleConditionError, match="unit"):
            build_counterexample(recipe)

    def test_determinant_identity_checked(self):
        recipe = CounterexampleRecipe(
            ring=INTEGERS, a=1, b=1, c=1, d1=1, e1=1, epsilon=1
        )
        with pytest.raises(CounterexampleConditionError, match="epsilon"):
            build_counterexample(recipe)

    def test_positivity_conditions_checked(self):
        q = QuadElem(1, 1, R3)
        recipe = CounterexampleRecipe(
            ring=R3,
            a=QuadElem(1, 0, R3),
            b=QuadElem(0, 0, R3),
            c=QuadElem(1, 0, R3),
            d1=q,
            e1=QuadElem(1, 0, R3),
            epsilon=QuadElem(1, 0, R3),
        )
        with pytest.raises(CounterexampleConditionError, match="a\\*d1"):
            build_counterexample(recipe)

    def test_rational_half_is_not_a_ring_element(self):
        # the textbook variant sets epsilon = 1/2, which is not integral
        with pytest.raises(CounterexampleConditionError, match="epsilon"):
            recipe_from_json(
                {"a": "1+1w", "b": "1", "c": "1+1w", "d1": "1+1w", "e1": "2+1w", "epsilon": "1/2"},
                R3,
            )

    def test_library_fault_is_not_reported_as_bad_input(self, monkeypatch):
        def broken(data, ring):
            raise RuntimeError("library fault")

        monkeypatch.setattr(rings, "parse_element", broken)
        with pytest.raises(RuntimeError, match="library fault"):
            recipe_from_json(builtin_counterexample_recipe().to_json(), R3)


class TestFieldIdentity:
    """(1+sqrt(3))^2 = 1/2 + (r + sqrt(3)/r)^2 + residual in Q(sqrt(3)).

    residual = 7/2 - (r^4+3)/r^2.  Both sides are compared as (rational part,
    sqrt(3) part); the left side is 4 + 2*sqrt(3).  The identity holds for
    every nonzero rational r; the residual is nonnegative only for r close
    enough to 3**(1/4).
    """

    @staticmethod
    def residual(r):
        return Fraction(7, 2) - (r**4 + 3) / (r * r)

    def test_close_enough_rational(self):
        r = Fraction(4, 3)
        assert self.residual(r) == Fraction(5, 144)
        assert Fraction(1, 2) + r * r + 3 / (r * r) + self.residual(r) == 4

    def test_identity_holds_but_residual_sign_varies(self):
        assert self.residual(Fraction(1)) == Fraction(-1, 2)
        assert self.residual(Fraction(2)) == Fraction(7, 2) - Fraction(19, 4) < 0
        for r in (Fraction(1), Fraction(2)):
            assert Fraction(1, 2) + r * r + 3 / (r * r) + self.residual(r) == 4

    def test_holds_for_random_rationals(self):
        rng = random.Random(200)
        for _ in range(10):
            r = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 50))
            rhs = (Fraction(1, 2) + r * r + 3 / (r * r) + self.residual(r), 2 * r * (1 / r))
            assert rhs == (4, 2)


class TestValuationLemma:
    def test_equality_case(self):
        assert check_valuation_lemma(parse_poly("x^2"), parse_poly("x"), parse_poly("x"))

    def test_strict_case(self):
        a = parse_poly("x^2") * parse_poly("x^2+1")
        assert check_valuation_lemma(a, parse_poly("x"), parse_poly("x"))

    def test_difference_must_be_nonneg(self):
        with pytest.raises(PreconditionFailedError, match="a - b\\^2"):
            check_valuation_lemma(parse_poly("x^3+x^2"), parse_poly("x"), parse_poly("x"))

    def test_p_must_be_real(self):
        with pytest.raises(PreconditionFailedError, match="real"):
            check_valuation_lemma(parse_poly("x^2"), parse_poly("x"), parse_poly("x^2+1"))

    def test_reducible_p_is_refused_not_refuted(self):
        # nu_p(x^4+x^2) = 0 <= 2 * nu_p(x) = 2 would read as a false refutation
        with pytest.raises(NotCertifiedIrreducibleError, match="reducible"):
            check_valuation_lemma(parse_poly("x^4+x^2"), parse_poly("x"), parse_poly("x^3+x"))
        with pytest.raises(NotCertifiedIrreducibleError, match="cannot be certified"):
            check_valuation_lemma(parse_poly("x^2"), parse_poly("x"), parse_poly("x^4-10*x^2+1"))

    def test_zero_cases_hold_vacuously(self):
        assert check_valuation_lemma(RatPoly([]), RatPoly([]), parse_poly("x"))
        assert check_valuation_lemma(parse_poly("x^2"), RatPoly([]), parse_poly("x"))

    def test_generated_instances(self):
        # a = b^2 * s + t with s, t nonnegative on R always satisfies the bound
        rng = random.Random(300)
        reals = [parse_poly("x"), parse_poly("x-1"), parse_poly("x^2-2"), parse_poly("x+3")]
        for _ in range(60):
            b = RatPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
            s_base = RatPoly([rng.randint(-2, 2) for _ in range(rng.randint(1, 2))])
            t_base = RatPoly([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
            a = b * b * (s_base * s_base + 1) + t_base * t_base
            if a.is_zero():
                continue
            p = rng.choice(reals)
            assert check_valuation_lemma(a, b, p)


class TestSplitMix:
    def test_reference_vectors(self):
        g = SplitMix64(0)
        assert [g.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_bounded_draws_documented_rule(self):
        g1, g2 = SplitMix64(99), SplitMix64(99)
        for _ in range(50):
            lo, hi = -5, 5
            assert g1.next_int(lo, hi) == lo + g2.next_u64() % (hi - lo + 1)

    def test_derive_seed_is_stable(self):
        assert derive_seed(42, 0) == 13679457532755275413
        assert derive_seed(42, 1) == 2949826092126892291


class TestRandomMatrices:
    def test_determinism(self):
        cfg = TrialConfig(ring=INTEGERS, matrix_size=4, entry_height_bound=5, seed=77)
        assert random_psd_matrix(cfg).entries == random_psd_matrix(cfg).entries

    def test_gram_and_symmetric(self):
        for ring in (INTEGERS, RATIONAL_POLYNOMIALS, R2, R3):
            cfg = TrialConfig(ring=ring, matrix_size=4, entry_height_bound=3, seed=5)
            m = random_psd_matrix(cfg)
            assert m.is_symmetric()
            from realsnf.spectrum import is_psd_on_spectrum

            assert is_psd_on_spectrum(m).is_psd

    def test_size_one(self):
        cfg = TrialConfig(ring=INTEGERS, matrix_size=1, entry_height_bound=5, seed=3)
        m = random_psd_matrix(cfg)
        assert m.n_rows == 1
        assert m[0, 0] >= 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(ring=INTEGERS, matrix_size=9)
        for field, value in (
            ("trial_count", MAX_TRIAL_COUNT + 1),
            ("entry_height_bound", MAX_TRIAL_HEIGHT + 1),
            ("max_degree", MAX_TRIAL_DEGREE + 1),
            ("max_degree", -1),
        ):
            with pytest.raises(ValueError, match=field):
                TrialConfig(ring=RATIONAL_POLYNOMIALS, **{field: value})
        TrialConfig(
            ring=RATIONAL_POLYNOMIALS,
            trial_count=MAX_TRIAL_COUNT,
            entry_height_bound=MAX_TRIAL_HEIGHT,
            max_degree=MAX_TRIAL_DEGREE,
        )


class TestPropertySuite:
    def test_small_runs_hold(self):
        for ring in (INTEGERS, RATIONAL_POLYNOMIALS, R2):
            cfg = TrialConfig(
                ring=ring, matrix_size=3, entry_height_bound=3, trial_count=15, seed=1
            )
            summary = run_property_suite(cfg)
            assert summary.ok
            assert summary.conclusion_counts == {"TheoremHolds": 15}

    def test_sqrt3_mixes_without_breaches(self):
        cfg = TrialConfig(ring=R3, matrix_size=4, entry_height_bound=3, trial_count=40, seed=9)
        summary = run_property_suite(cfg)
        assert summary.ok
        assert sum(summary.conclusion_counts.values()) == 40
        assert set(summary.conclusion_counts) <= {"TheoremHolds", "TheoremFailsPnriFails"}

    def test_reports_match_counts(self):
        cfg = TrialConfig(ring=INTEGERS, matrix_size=3, entry_height_bound=4, trial_count=10, seed=2)
        summary = run_property_suite(cfg)
        assert len(summary.reports) == 10
        assert summary.to_json()["ok"] is True
