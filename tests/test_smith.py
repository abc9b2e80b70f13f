import itertools
import json
import random
from pathlib import Path

import pytest

from realsnf import (
    INTEGERS,
    RATIONAL_POLYNOMIALS,
    parse_ring,
    polynomials,
    quadratic,
    quadratic_ring,
    spectrum,
)
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
from realsnf.ringspec import RingFamily
from realsnf.verify import Conclusion, verify_main_theorem
from realsnf import rings

from helpers import (
    classical_xgcd,
    known_smith_congruence,
    leibniz_determinant,
    rand_matrix,
    random_unimodular,
    symmetric_elimination_reference,
    totally_positive_non_unit,
)

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

    def test_shape_is_read_off_the_rows(self):
        for rows in (((1, 2), (3,)), ((), ())):
            with pytest.raises(ShapeMismatchError):
                Matrix(rows, INTEGERS)
        empty = Matrix((), INTEGERS)
        assert (empty.n_rows, empty.n_cols) == (0, 0)

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
        assert not result.D[1, 1]
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

    @pytest.mark.parametrize("name", ["Z", "Q[x]", "Zsqrt:2"])
    def test_empty_matrix(self, name):
        # the block _unit_pivots leaves when every row is a unit pivot
        ring = parse_ring(name)
        m = Matrix((), ring)
        assert determinant(m) == rings.one(ring)  # the empty product
        elimination = matrices.symmetric_elimination(m)
        assert (elimination.rank, elimination.order) == (0, 0)
        assert elimination == symmetric_elimination_reference(m)
        assert smith_diagonals(m, elimination) == ()
        result = smith_normal_form(m)
        assert [t.entries for t in (result.P, result.D, result.Q)] == [(), (), ()]
        assert verify_snf(m, result)
        report = verify_main_theorem(m)
        assert report.snf_diagonals == ()
        assert report.conclusion is Conclusion.THEOREM_HOLDS


class TestMatrixFromJson:
    @pytest.mark.parametrize(
        "ring_text, entries",
        [
            ("Z", [[2, "-3", 0], ["4", 5, "7"]]),
            ("Q[x]", [["x^2 - 1/2", "3", 0], [1, "x", "-2/3*x"]]),
            ("Zsqrt:2", [["1+1w", {"x": 2, "y": -1}, "0"], ["3", 0, "0-1w"]]),
        ],
        ids=["Z", "Qx", "Zsqrt2"],
    )
    def test_builds_without_from_rows(self, monkeypatch, ring_text, entries):
        """The entries are checked and parsed once; the matrix is built from
        them without Matrix.from_rows checking and coercing them again."""
        ring = parse_ring(ring_text)
        inputs = (entries, {"ring": ring_text, "rows": 2, "cols": 3, "entries": entries})
        want = [matrices.matrix_from_json(data, ring) for data in inputs]

        def refuse(cls, rows, ring):
            raise AssertionError("matrix_from_json went through Matrix.from_rows")

        monkeypatch.setattr(Matrix, "from_rows", classmethod(refuse))
        assert [matrices.matrix_from_json(data, ring) for data in inputs] == want


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
        original = rings.xgcd
        seen = []

        def wrapped(a, b, ring):
            g, block, scale = original(a, b, ring)
            seen.append((b.degree, coefficient_bits(block[0])))
            return g, block, scale

        monkeypatch.setattr(rings, "xgcd", wrapped)
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
        assert minor_gcd_profile(m) == (2, 12)

    def test_identity_and_zero(self):
        assert minor_gcd_profile(Matrix.identity(4, INTEGERS)) == (1, 1, 1, 1)
        assert minor_gcd_profile(Matrix.from_rows([[0, 0], [0, 0]], INTEGERS)) == (0, 0)

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            minor_gcd_profile(Matrix.identity(7, INTEGERS))

    def test_chain_divisibility(self):
        rng = random.Random(1)
        for ring in ALL_RINGS:
            m = rand_matrix(rng, ring, 3, 3, height=3)
            profile = minor_gcd_profile(m)
            for k in range(len(profile) - 1):
                if profile[k] and profile[k + 1]:
                    assert rings.divides(profile[k], profile[k + 1], ring)


class TestVerifySnf:
    @staticmethod
    def forged(rows, p_rows, d_rows):
        """An SnfResult with the given P and D, Q = I, over Z."""
        n_cols = len(rows[0])
        m = Matrix.from_rows(rows, INTEGERS)
        result = SnfResult(
            P=Matrix.from_rows(p_rows, INTEGERS),
            D=Matrix.from_rows(d_rows, INTEGERS),
            Q=Matrix.identity(n_cols, INTEGERS),
        )
        assert result.P @ result.D @ result.Q == m  # only unimodularity is forged
        return m, result

    def test_nonsingular_rejects_non_unimodular_p(self):
        m, forged = self.forged([[2, 0], [0, 2]], [[2, 0], [0, 1]], [[1, 0], [0, 2]])
        check = verify_snf(m, forged)
        assert not check
        assert check.failures == ("det(D) is not associated to det(M)",)

    @pytest.mark.parametrize(
        "rows, d_rows",
        [
            ([[2, 0], [0, 0]], [[1, 0], [0, 0]]),
            ([[2, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 1, 0]]),
        ],
        ids=["singular", "rectangular"],
    )
    def test_fallback_rejects_non_unimodular_p(self, rows, d_rows):
        m, forged = self.forged(rows, [[2, 0], [0, 1]], d_rows)
        check = verify_snf(m, forged)
        assert not check
        assert check.failures == ("det(P) is not a unit",)

    @pytest.mark.parametrize(
        "rows, d_rows",
        [
            ([[1, 1], [0, 1]], [[1, 1], [0, 1]]),
            ([[2, 0], [3, 0]], [[2, 0], [3, 0]]),
        ],
        ids=["nonsingular", "singular"],
    )
    def test_rejects_non_diagonal_d(self, rows, d_rows):
        # P*D*Q = M holds with P = Q = I, so only D's shape gives the forgery away
        m, forged = self.forged(rows, [[1, 0], [0, 1]], d_rows)
        check = verify_snf(m, forged)
        assert not check
        assert "D is not diagonal" in check.failures

    @pytest.mark.parametrize(
        "rows, failure",
        [
            ([[0, 0], [0, 1]], "a zero diagonal entry precedes a nonzero one"),
            ([[2, 0], [0, 3]], "divisibility chain broken at d_1 | d_2"),
        ],
        ids=["zero-first", "2-does-not-divide-3"],
    )
    def test_rejects_a_broken_chain(self, rows, failure):
        # D = M with P = Q = I: every check but the order of D's diagonal passes
        m, forged = self.forged(rows, [[1, 0], [0, 1]], rows)
        assert verify_snf(m, forged).failures == (failure,)

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
        )
        check = verify_snf(m, forged)
        assert not check
        assert check.failures

    def test_diagonals_are_read_off_d(self):
        m, forged = self.forged([[2, 0, 0], [0, 0, 0]], [[1, 0], [0, 1]], [[2, 0, 0], [0, 0, 0]])
        assert forged.diagonals == (2,)
        assert verify_snf(m, forged)

    def test_shape_mismatch(self):
        m = Matrix.from_rows([[2, 0], [0, 2]], INTEGERS)
        other = smith_normal_form(Matrix.identity(3, INTEGERS))
        with pytest.raises(ShapeMismatchError):
            verify_snf(m, other)

    def test_q_with_an_extra_column_is_refused(self):
        # Q padded to rows of length 3 is 2 x 3, and the certificate reads that shape
        m = Matrix.from_rows([[2, 4], [6, 8]], INTEGERS)
        result = smith_normal_form(m)
        q = Matrix(tuple(row + (7,) for row in result.Q.entries), INTEGERS)
        assert (q.n_rows, q.n_cols) == (2, 3)
        with pytest.raises(ShapeMismatchError):
            verify_snf(m, SnfResult(result.P, result.D, q))

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
            assert matrices._reduce(m, False)[1] == result.diagonals


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
            for k, expected in enumerate(minor_gcd_profile(m)):
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
            of_left = minor_gcd_profile(left)
            of_product = minor_gcd_profile(left @ right)
            for k in range(n):
                if not of_product[k]:
                    continue
                assert rings.divides(of_left[k], of_product[k], ring)


def certification_inputs(rng, ring, n):
    """Symmetric inputs of size n for the routes of the Smith stage: a
    full-rank Gram matrix and a rank-deficient one (mostly a unit G) and, for
    a non-unit G, a non-unit times one, plus at n = 2 diag(2, 2) and, over a
    quadratic ring, diag(t, conj(t)) for a totally positive t, whose norms
    are equal.  Two not-PSD variants of the Gram matrix G follow: one
    off-diagonal pair raised to g_ij + g_ii + g_jj + 1, which exceeds
    sqrt(g_ii * g_jj) at every ordering, and one diagonal entry lowered to
    -g_ii - 1."""
    full = rand_matrix(rng, ring, n, n, height=2)
    g = full @ full.transpose()
    gram = [list(r) for r in g.entries]
    yield g
    if n > 1:
        low = rand_matrix(rng, ring, n, n - 1, height=2)
        yield low @ low.transpose()
    c = rings.coerce(totally_positive_non_unit(rng, ring), ring)
    yield Matrix.from_rows([[c * v for v in row] for row in gram], ring)
    if n == 2:
        yield Matrix.from_rows([[2, 0], [0, 2]], ring)
        if ring.family is RingFamily.QUADRATIC_INTEGERS:
            t = totally_positive_non_unit(rng, ring)
            yield Matrix.from_rows([[t, 0], [0, t.conjugate()]], ring)
    one = rings.one(ring)
    if n > 1:
        i, j = rng.sample(range(n), 2)
        raised = [row[:] for row in gram]
        raised[i][j] = raised[j][i] = gram[i][j] + gram[i][i] + gram[j][j] + one
        yield Matrix.from_rows(raised, ring)
    i = rng.randrange(n)
    lowered = [row[:] for row in gram]
    lowered[i][i] = -gram[i][i] - one
    yield Matrix.from_rows(lowered, ring)


class TestCertifiedDiagonals:
    """Smith diagonals read off the PSD elimination's modulus G, on each of
    its routes (G a unit; modulo G: unit pivots split off, then a reduction
    of the block left modulo G where it is nonzero; the plain reduction),
    against the plain reduction and against planted Smith forms."""

    @staticmethod
    def recording_reduce(monkeypatch):
        """Patch matrices._reduce to append each call's modulus (None for the
        plain reduction) to the list returned."""
        reduce, moduli = matrices._reduce, []

        def recording(m, transforms, modulus=None):
            moduli.append(modulus)
            return reduce(m, transforms, modulus)

        monkeypatch.setattr(matrices, "_reduce", recording)
        return moduli

    @pytest.mark.parametrize("name", RING_TEXTS)
    def test_agrees_with_the_reduction(self, name, monkeypatch):
        ring = parse_ring(name)
        rng = random.Random(46)
        reduce = matrices._reduce
        moduli = self.recording_reduce(monkeypatch)
        passes = TestUnitPivots.recording_pass(monkeypatch)
        routes = set()

        def diagonals_on_a_route(m):
            psd, elimination = spectrum.psd_decision(m)
            moduli.clear()
            passes.clear()
            diagonals = smith_diagonals(m, elimination)
            if moduli == [None]:
                assert not passes
                route = "plain"
            elif not passes:
                assert not moduli
                route = "unit"
            else:
                [(u, _)] = passes
                assert moduli in ([], [rings.ideal_element(elimination.minors, ring)])
                route = "unit pivots" if u else "no unit pivot"
                if moduli:
                    route += ", then modulo"
            routes.add((psd, route))
            assert diagonals == reduce(m, False)[1]
            return diagonals

        for n in range(1, 9):
            for m in certification_inputs(rng, ring, n):
                diagonals_on_a_route(m)
            for rank in range(max(n - 2, 0), n + 1):
                for cyclic in (True, False):
                    m, d = known_smith_congruence(rng, ring, n, cyclic, rank)
                    planted = [v for v in d if v]
                    diagonals = diagonals_on_a_route(m)
                    assert len(diagonals) == len(planted)
                    for got, want in zip(diagonals, planted):
                        assert rings.are_associated(got, want, ring)
        # a zero diagonal with a nonzero entry: the elimination is stuck
        a, b, c = (totally_positive_non_unit(rng, ring) for _ in range(3))
        diagonals_on_a_route(Matrix.from_rows([[0, a, b], [a, 0, c], [b, c, 0]], ring))
        expected = {"unit", "plain"}
        if ring.family is not RingFamily.RATIONAL_POLYNOMIALS:
            expected |= {"unit pivots", "unit pivots, then modulo", "no unit pivot, then modulo"}
        if ring is INTEGERS:
            expected.add("no unit pivot")  # diag(2, 2) is zero modulo G = 2
        assert {route for _, route in routes} == expected
        assert (False, "unit") in routes  # a not-PSD input read off the elimination

    def test_declines_minors_it_cannot_prove_coprime(self, monkeypatch):
        # 3 + w and 3 - w in Z[sqrt(2)] are coprime, but both have norm 7:
        # G = 7 is not a unit, so M is reduced modulo 7, not from scratch
        m = Matrix.from_rows([[QuadElem(3, 1, R2), 0], [0, QuadElem(3, -1, R2)]], R2)
        elimination = spectrum.psd_decision(m)[1]
        assert elimination.pivots[-1] == QuadElem(7, 0, R2)
        g = rings.ideal_element(elimination.minors, R2)
        assert g == QuadElem(7, 0, R2) and not rings.is_unit(g, R2)
        moduli = self.recording_reduce(monkeypatch)
        assert smith_diagonals(m, elimination) == (QuadElem(1, 0, R2), QuadElem(7, 0, R2))
        assert moduli == [g]  # one reduction, modulo G, and no full one

    def test_a_zero_determinant_is_never_read_off(self):
        # coprime minors but det M = 0: rank 1, not (1, 0)
        m = Matrix.from_rows([[1, 1], [1, 1]], INTEGERS)
        elimination = matrices.symmetric_elimination(m)
        assert elimination.rank == elimination.order == 1
        assert smith_diagonals(m, elimination) == matrices._reduce(m, False)[1] == (1,)


class TestUnitPivots:
    """The modulo-G route splits off entries that are units modulo G before
    any Euclid step; it is compared with the plain reduction on Z and the
    seven quadratic rings."""

    @staticmethod
    def recording_pass(monkeypatch):
        """Patch matrices._unit_pivots to append each call's (u, block left)."""
        split, passes = matrices._unit_pivots, []

        def recording(m, g):
            passes.append(split(m, g))
            return passes[-1]

        monkeypatch.setattr(matrices, "_unit_pivots", recording)
        return passes

    @staticmethod
    def inputs(rng, ring):
        """For n = 1 to 6: N * N^T and a rank-deficient L * L^T, each also
        times a non-unit c (no entry is then a unit modulo G, which c
        divides), and planted chains of rank n and n - 1, cyclic and not.
        Then 80 symmetric matrices of entry height 4 at each of n = 3 and 4:
        among them a few (2 to 7 per ring) whose every pivot is a unit
        modulo G although G is not a unit."""
        for n in range(1, 7):
            for width in range(n, n - 2, -1):
                if width:
                    low = rand_matrix(rng, ring, n, width, height=2)
                    g = low @ low.transpose()
                    c = rings.coerce(totally_positive_non_unit(rng, ring), ring)
                    yield g
                    yield Matrix.from_rows([[c * v for v in row] for row in g.entries], ring)
            for rank in (n, n - 1):
                for cyclic in (True, False):
                    yield known_smith_congruence(rng, ring, n, cyclic, rank)[0]
        for n in (3, 4) * 80:
            rows = [list(row) for row in rand_matrix(rng, ring, n, n).entries]
            for i, j in itertools.combinations(range(n), 2):
                rows[j][i] = rows[i][j]
            yield Matrix.from_rows(rows, ring)

    @pytest.mark.parametrize("name", [t for t in RING_TEXTS if t != "Q[x]"])
    def test_agrees_with_the_reduction(self, name, monkeypatch):
        ring = parse_ring(name)
        rng = random.Random(33)
        passes = self.recording_pass(monkeypatch)
        seen = set()
        for m in self.inputs(rng, ring):
            n = m.n_rows
            elimination = matrices.symmetric_elimination(m)
            passes.clear()
            assert smith_diagonals(m, elimination) == matrices._reduce(m, False)[1]
            if not passes:  # a unit G, or a stuck elimination
                continue
            [(u, rest)] = passes
            g = rings.ideal_element(elimination.minors, ring)
            assert u + rest.n_rows == n and rest.n_rows == rest.n_cols
            assert all(rings.residue(v, g, ring) == v for row in rest.entries for v in row)
            k, left = elimination.order, any(map(any, rest.entries))
            if u == n:  # only at full rank, where k = n - 1
                assert u > k
                seen.add("every pivot a unit, u > k")
            elif u and left:
                seen.add("unit pivots and a block left")
            elif not u:
                seen.add("no unit")
            if elimination.rank < n:
                seen.add("rank deficient")
        assert seen >= {
            "every pivot a unit, u > k",
            "unit pivots and a block left",
            "no unit",
            "rank deficient",
        }

    def test_one_unit_pivot_then_a_zero_block(self, monkeypatch):
        # G = 3: the pivot 2 is a unit modulo 3, and its Schur complement
        # [[2 - 1 * 2 * 1, 0], [0, 6]] is zero modulo 3, so no reduction runs
        m = Matrix.from_rows([[2, 1, 0], [1, 2, 0], [0, 0, 6]], INTEGERS)
        elimination = matrices.symmetric_elimination(m)
        assert rings.ideal_element(elimination.minors, INTEGERS) == 3
        u, rest = matrices._unit_pivots(m, 3)
        assert u == 1 and rest.entries == ((0, 0), (0, 0))
        moduli = TestCertifiedDiagonals.recording_reduce(monkeypatch)
        assert smith_diagonals(m, elimination) == (1, 3, 6)
        assert moduli == []


class TestPairArithmetic:
    """Over the quadratic rings the elimination loops run on int pairs and
    build QuadElems only for what they hand back."""

    def test_elements_are_built_only_at_the_boundary(self, monkeypatch):
        ring = parse_ring("Zhalf:13")
        low = rand_matrix(random.Random(1), ring, 8, 8, height=2)
        m = low @ low.transpose()
        g = rings.ideal_element(matrices.symmetric_elimination(m).minors, ring)
        build, built = quadratic._quad, []

        def counting(x, y, r):
            built.append((x, y))
            return build(x, y, r)

        monkeypatch.setattr(quadratic, "_quad", counting)
        elimination = matrices.symmetric_elimination(m)
        assert len(built) <= len(elimination.pivots) + len(elimination.minors)
        built.clear()
        u, rest = matrices._unit_pivots(m, g)
        assert g == QuadElem(27, 0, ring) and u == 5 and any(map(any, rest.entries))
        assert len(built) <= rest.n_rows * rest.n_cols


class TestPackedArithmetic:
    """Over Q[x] the elimination loops run on ints, each entry of L * M packed
    as its value at 2**b, and build RatPolys only for what they hand back."""

    # Coefficients of at most 8 bits over the denominators 2, 3 and 7, whose
    # minors reach 44 bits: b must come from the minors' bound, not from the
    # largest entry, and each minor of size s is the unpacked one over L**s.
    WIDE_MINORS = [
        ["65*x^2 - 66/7*x - 67", "-123/2*x^2 + 30*x + 55", "-26*x^2 + 3*x - 157/7",
         "124*x^2 + 27*x - 137/2"],
        ["-123/2*x^2 + 30*x + 55", "-101*x^2 - 174*x + 88", "110/7*x^2 - 13/7*x + 166/3",
         "194/3*x^2 + 119*x - 53/7"],
        ["-26*x^2 + 3*x - 157/7", "110/7*x^2 - 13/7*x + 166/3", "-48*x^2 - 186/7*x - 206",
         "-40/7*x^2 + 143/3*x + 239/7"],
        ["124*x^2 + 27*x - 137/2", "194/3*x^2 + 119*x - 53/7", "-40/7*x^2 + 143/3*x + 239/7",
         "22*x^2 + 18/7*x + 38/3"],
    ]

    def test_minors_far_wider_than_the_entries_come_back_exactly(self):
        m = matrices.matrix_from_json(self.WIDE_MINORS, RATIONAL_POLYNOMIALS)
        got, want = matrices.symmetric_elimination(m), symmetric_elimination_reference(m)
        assert coefficient_bits(v for row in m.entries for v in row) == 8
        assert coefficient_bits(want.pivots[-1:]) == 44
        assert got.pivots == want.pivots
        assert got.minors == want.minors
        assert (got.stuck, got.order) == (want.stuck, want.order) == (False, 3)
        assert determinant(m) == leibniz_determinant(m.entries, m.ring) == want.pivots[-1]

    def test_no_polynomial_arithmetic_inside_the_loops(self, monkeypatch):
        low = rand_matrix(random.Random(5), RATIONAL_POLYNOMIALS, 5, 5)
        m = low @ low.transpose()
        calls, built = [], []
        for name in ("__mul__", "__divmod__"):
            original = getattr(RatPoly, name)

            def counting(self, other, original=original, name=name):
                calls.append(name)
                return original(self, other)

            monkeypatch.setattr(RatPoly, name, counting)
        raw, init = polynomials._raw, RatPoly.__init__

        def counting_raw(n, d, p):
            built.append(p)
            return raw(n, d, p)

        def counting_init(self, coefficients=()):
            built.append(coefficients)
            init(self, coefficients)

        monkeypatch.setattr(polynomials, "_raw", counting_raw)
        monkeypatch.setattr(RatPoly, "__init__", counting_init)
        elimination = matrices.symmetric_elimination(m)
        det = determinant(m)
        assert calls == []
        assert len(built) == len(elimination.pivots) + len(elimination.minors) + 1
        assert elimination.rank == 5 and det == elimination.pivots[-1]


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

    @pytest.mark.parametrize("name", RING_TEXTS)
    def test_matches_the_permutation_expansion(self, name):
        # the Leibniz sum shares no step with the elimination; zeroing the
        # top of column 0 on every other input forces a row swap first
        ring = parse_ring(name)
        rng = random.Random(13)
        for trial in range(12):
            n = rng.randint(1, 4)
            rows = [list(r) for r in rand_matrix(rng, ring, n, n, height=3).entries]
            if trial % 2:
                for i in range(rng.randint(1, n)):
                    rows[i][0] = rings.zero(ring)
            assert determinant(Matrix.from_rows(rows, ring)) == leibniz_determinant(rows, ring)

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
            if not det:
                continue
            assert rings.valuation(p, det, R3) >= 1
