import json
import random
from pathlib import Path

import pytest

from realsnf import INTEGERS, RATIONAL_POLYNOMIALS, parse_ring, quadratic_ring
from realsnf.errors import NotSquareError, ShapeMismatchError, SizeLimitError
from realsnf import matrices
from realsnf.matrices import (
    Matrix,
    SnfResult,
    determinant,
    minor_gcd_profile,
    smith_diagonals,
    smith_normal_form,
    verify_snf,
)
from realsnf.polynomials import RatPoly, parse_poly
from realsnf.quadratic import QuadElem
from realsnf import rings

from helpers import classical_xgcd, rand_matrix, random_unimodular

R2 = quadratic_ring(2)
R3 = quadratic_ring(3)
ALL_RINGS = [INTEGERS, RATIONAL_POLYNOMIALS, R2, R3, quadratic_ring(5)]
RING_TEXTS = (
    "Z", "Q[x]", "Zsqrt:2", "Zsqrt:3", "Zsqrt:6", "Zsqrt:7", "Zsqrt:11", "Zhalf:5", "Zhalf:13",
)


def rank_deficient(rng, ring, n_rows, n_cols, rank):
    left = rand_matrix(rng, ring, n_rows, rank, height=2)
    return left @ rand_matrix(rng, ring, rank, n_cols, height=2)


class TestFixedInstances:
    def test_integer_two_by_two(self):
        m = Matrix.from_rows([[2, 4], [4, 2]], INTEGERS)
        result = smith_normal_form(m)
        assert result.diagonals == (2, 6)
        assert verify_snf(m, result)

    def test_identity(self):
        for ring in ALL_RINGS:
            m = Matrix.identity(3, ring)
            result = smith_normal_form(m)
            assert result.diagonals == tuple([rings.one(ring)] * 3)
            assert verify_snf(m, result)

    @pytest.mark.parametrize("rows", [[[]], [[], []]])
    def test_zero_width_rows_rejected(self, rows):
        with pytest.raises(ShapeMismatchError):
            Matrix.from_rows(rows, INTEGERS)

    def test_poly_diagonal_stays(self):
        m = Matrix.from_rows(
            [[parse_poly("x"), RatPoly([])], [RatPoly([]), parse_poly("x^2")]],
            RATIONAL_POLYNOMIALS,
        )
        result = smith_normal_form(m)
        assert result.diagonals == (parse_poly("x"), parse_poly("x^2"))

    def test_poly_rank_one(self):
        m = Matrix.from_rows(
            [[parse_poly("x^2"), parse_poly("x")], [parse_poly("x"), RatPoly([1])]],
            RATIONAL_POLYNOMIALS,
        )
        result = smith_normal_form(m)
        assert result.diagonals == (RatPoly([1]),)
        assert result.D[1, 1].is_zero()
        assert verify_snf(m, result)

    def test_zero_matrix(self):
        m = Matrix.from_rows([[0, 0, 0], [0, 0, 0]], INTEGERS)
        result = smith_normal_form(m)
        assert result.diagonals == ()
        assert verify_snf(m, result)

    def test_single_zero_entry(self):
        m = Matrix.from_rows([[0]], INTEGERS)
        result = smith_normal_form(m)
        assert result.diagonals == ()
        assert verify_snf(m, result)


def golden_snf_input(name):
    cases = json.loads((Path(__file__).parent / "data" / "snf_golden.json").read_text())
    case = next(c for c in cases if c["name"] == name)
    return matrices.matrix_from_json(case["input"], parse_ring(case["ring"]))


def coefficient_bits(polys):
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length())
         for p in polys for c in p.coefficients),
        default=0,
    )


class TestPolyBezoutSteps:
    def test_cofactors_stay_small(self, monkeypatch):
        """A seeded 5x5 N*N^T over Q[x] needs a gcd of a degree-15 and a
        degree-33 entry; classical Euclid cofactors there reach 2,600 bits."""
        original = matrices._bezout_block
        seen = []

        def wrapped(ring, a, b):
            block, scale = original(ring, a, b)
            seen.append((b.degree, coefficient_bits(block[0])))
            return block, scale

        monkeypatch.setattr(matrices, "_bezout_block", wrapped)
        smith_normal_form(golden_snf_input("qx-5x5-seeded-full-rank"))
        assert max(degree for degree, _ in seen) >= 30
        assert max(bits for _, bits in seen) < 1000

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_transforms_do_not_depend_on_the_gcd_scale(self, monkeypatch, rank):
        """P, D and Q are those of the classical Euclid's Bezout blocks, also
        when a Bezout step leaves a zero row (rank-deficient inputs)."""
        rng = random.Random(20 + rank)
        for _ in range(15):
            n_rows, n_cols = rng.randint(rank, 4), rng.randint(rank, 4)
            m = rank_deficient(rng, RATIONAL_POLYNOMIALS, n_rows, n_cols, rank)
            with monkeypatch.context() as patch:
                patch.setattr(rings, "xgcd", classical_xgcd)
                want = smith_normal_form(m)
            got = smith_normal_form(m)
            assert (got.P, got.D, got.Q) == (want.P, want.D, want.Q)


class TestMinorProfile:
    def test_example(self):
        m = Matrix.from_rows([[2, 4], [4, 2]], INTEGERS)
        assert minor_gcd_profile(m).per_order == (2, 12)

    def test_identity_and_zero(self):
        assert minor_gcd_profile(Matrix.identity(4, INTEGERS)).per_order == (1, 1, 1, 1)
        assert minor_gcd_profile(Matrix.from_rows([[0, 0], [0, 0]], INTEGERS)).per_order == (0, 0)

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            minor_gcd_profile(Matrix.identity(7, INTEGERS))

    def test_chain_divisibility(self):
        rng = random.Random(1)
        for ring in ALL_RINGS:
            m = rand_matrix(rng, ring, 3, 3, height=3)
            profile = minor_gcd_profile(m).per_order
            for k in range(len(profile) - 1):
                if not rings.is_zero(profile[k]) and not rings.is_zero(profile[k + 1]):
                    assert rings.divides(profile[k], profile[k + 1], ring)


class TestVerifySnf:
    @staticmethod
    def forged(rows, p_rows, d_rows, diagonals):
        """An SnfResult with the given P and D, Q = I, over Z."""
        n_cols = len(rows[0])
        m = Matrix.from_rows(rows, INTEGERS)
        result = SnfResult(
            P=Matrix.from_rows(p_rows, INTEGERS),
            D=Matrix.from_rows(d_rows, INTEGERS),
            Q=Matrix.identity(n_cols, INTEGERS),
            diagonals=diagonals,
        )
        assert result.P @ result.D @ result.Q == m  # only unimodularity is forged
        return m, result

    def test_rejects_diagonals_not_from_d(self):
        m = Matrix.from_rows([[2, 4], [6, 8]], INTEGERS)
        honest = smith_normal_form(m)
        assert verify_snf(m, honest)
        check = verify_snf(m, SnfResult(P=honest.P, D=honest.D, Q=honest.Q, diagonals=(7,)))
        assert not check
        assert check.failures == ("diagonals differ from the nonzero prefix of D's diagonal",)

    def test_nonsingular_rejects_non_unimodular_p(self):
        m, forged = self.forged([[2, 0], [0, 2]], [[2, 0], [0, 1]], [[1, 0], [0, 2]], (1, 2))
        check = verify_snf(m, forged)
        assert not check
        assert check.failures == ("det(D) is not associated to det(M)",)

    @pytest.mark.parametrize(
        "rows, d_rows, diagonals",
        [
            ([[2, 0], [0, 0]], [[1, 0], [0, 0]], (1,)),
            ([[2, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 1, 0]], (1, 1)),
        ],
        ids=["singular", "rectangular"],
    )
    def test_fallback_rejects_non_unimodular_p(self, rows, d_rows, diagonals):
        m, forged = self.forged(rows, [[2, 0], [0, 1]], d_rows, diagonals)
        check = verify_snf(m, forged)
        assert not check
        assert check.failures == ("det(P) is not a unit",)

    @pytest.mark.parametrize(
        "rows, d_rows, diagonals",
        [
            ([[1, 1], [0, 1]], [[1, 1], [0, 1]], (1, 1)),
            ([[2, 0], [3, 0]], [[2, 0], [3, 0]], (2,)),
        ],
        ids=["nonsingular", "singular"],
    )
    def test_rejects_non_diagonal_d(self, rows, d_rows, diagonals):
        # P*D*Q = M holds with P = Q = I, so only D's shape gives the forgery away
        m, forged = self.forged(rows, [[1, 0], [0, 1]], d_rows, diagonals)
        check = verify_snf(m, forged)
        assert not check
        assert "D is not diagonal" in check.failures

    def test_never_enumerates_minors(self, monkeypatch):
        def refuse(m):
            raise AssertionError("verify_snf enumerated minors")

        monkeypatch.setattr(matrices, "minor_gcd_profile", refuse)
        rng = random.Random(6)
        inputs = [
            rand_matrix(rng, INTEGERS, 6, 6),
            rand_matrix(rng, R2, 6, 6),
            rand_matrix(rng, RATIONAL_POLYNOMIALS, 6, 6, height=2),
            rank_deficient(rng, R2, 6, 6, 4),
        ]
        for m in inputs:
            check = verify_snf(m, smith_normal_form(m))
            assert check, check.failures

    def test_rejects_wrong_diagonals(self):
        m = Matrix.from_rows([[2, 0], [0, 2]], INTEGERS)
        honest = smith_normal_form(m)
        forged = honest.__class__(
            P=honest.P,
            D=Matrix.from_rows([[1, 0], [0, 4]], INTEGERS),
            Q=honest.Q,
            diagonals=(1, 4),
        )
        check = verify_snf(m, forged)
        assert not check
        assert check.failures

    def test_shape_mismatch(self):
        m = Matrix.from_rows([[2, 0], [0, 2]], INTEGERS)
        other = smith_normal_form(Matrix.identity(3, INTEGERS))
        with pytest.raises(ShapeMismatchError):
            verify_snf(m, other)

    @pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
    def test_round_trip_randomized(self, ring):
        rng = random.Random(99)
        for _ in range(30):
            n_rows = rng.randint(1, 4)
            n_cols = rng.randint(1, 4)
            m = rand_matrix(rng, ring, n_rows, n_cols)
            result = smith_normal_form(m)
            check = verify_snf(m, result)
            assert check, check.failures
            assert smith_diagonals(m) == result.diagonals


class TestMinorGcdOracle:
    """d_1 * ... * d_k generates the ideal of the k x k minors, for every k."""

    @pytest.mark.parametrize("ring_text", RING_TEXTS)
    def test_diagonal_products_match_minor_gcds(self, ring_text):
        ring = parse_ring(ring_text)
        rng = random.Random(f"oracle {ring_text}")
        if ring is RATIONAL_POLYNOMIALS:
            full = [(4, 4), (3, 4), (4, 2)]
            deficient = [(4, 4, 2), (4, 3, 2)]
        else:
            full = [(5, 6), (4, 4), (2, 3)]
            deficient = [(6, 5, 3), (3, 4, 2)]
        inputs = [rand_matrix(rng, ring, r, c, height=3) for r, c in full]
        inputs += [rank_deficient(rng, ring, r, c, k) for r, c, k in deficient]
        for m in inputs:
            result = smith_normal_form(m)
            check = verify_snf(m, result)
            assert check, check.failures
            partial = rings.one(ring)
            for k, expected in enumerate(minor_gcd_profile(m).per_order):
                partial = partial * result.D[k, k]
                assert rings.are_associated(partial, expected, ring), (m.entries, k)


class TestUniqueness:
    @pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
    def test_unimodular_invariance(self, ring):
        rng = random.Random(7)
        for _ in range(10):
            n = rng.randint(1, 3)
            m = rand_matrix(rng, ring, n, n, height=3)
            p = random_unimodular(rng, ring, n)
            q = random_unimodular(rng, ring, n)
            before = smith_normal_form(m).diagonals
            after = smith_normal_form(p @ m @ q).diagonals
            assert len(before) == len(after)
            for x, y in zip(before, after):
                assert rings.are_associated(x, y, ring)

    @pytest.mark.parametrize("ring", [INTEGERS, R3], ids=str)
    def test_minor_ideals_shrink_under_right_factor(self, ring):
        # the k-minor ideal of N*P sits inside that of N
        rng = random.Random(8)
        for _ in range(10):
            n = rng.randint(2, 3)
            left = rand_matrix(rng, ring, n, n, height=2)
            right = rand_matrix(rng, ring, n, n, height=2)
            of_left = minor_gcd_profile(left).per_order
            of_product = minor_gcd_profile(left @ right).per_order
            for k in range(n):
                if rings.is_zero(of_product[k]):
                    continue
                assert rings.divides(of_left[k], of_product[k], ring)


class TestDeterminant:
    def test_examples(self):
        assert determinant(Matrix.from_rows([[2, 4], [4, 2]], INTEGERS)) == -12
        assert determinant(Matrix.identity(4, INTEGERS)) == 1

    def test_quadratic_symbolic_instance(self):
        q = QuadElem(1, 1, R3)
        e = QuadElem(2, 1, R3)
        m = Matrix.from_rows([[q * q, q * e], [q * e, q * q * e]], R3)
        assert determinant(m) == q * q * e * (q * q - e)
        assert q * q - e == e  # the instance was built so that q^2 - e = 2+w

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            determinant(Matrix.from_rows([[0, 0, 0], [0, 0, 0]], INTEGERS))

    @pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
    def test_multiplicative(self, ring):
        rng = random.Random(10)
        for _ in range(15):
            n = rng.randint(1, 3)
            a = rand_matrix(rng, ring, n, n, height=3)
            b = rand_matrix(rng, ring, n, n, height=3)
            assert determinant(a @ b) == determinant(a) * determinant(b)

    def test_planted_divisor_divides_determinant(self):
        # p dividing the block {rows 1..r} x {cols r..n} forces p | det
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(2, 5)
            r = rng.randint(1, n)
            p = rng.choice([2, 3, 5, 7])
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            for i in range(r):
                for j in range(r - 1, n):
                    rows[i][j] *= p
            det = determinant(Matrix.from_rows(rows, INTEGERS))
            assert det % p == 0

    def test_planted_divisor_quadratic(self):
        rng = random.Random(12)
        p = QuadElem(1, 1, R3)
        for _ in range(10):
            n = rng.randint(2, 4)
            r = rng.randint(1, n)
            rows = [
                [QuadElem(rng.randint(-3, 3), rng.randint(-3, 3), R3) for _ in range(n)]
                for _ in range(n)
            ]
            for i in range(r):
                for j in range(r - 1, n):
                    rows[i][j] = rows[i][j] * p
            det = determinant(Matrix.from_rows(rows, R3))
            if det.is_zero():
                continue
            assert rings.valuation(p, det, R3) >= 1
