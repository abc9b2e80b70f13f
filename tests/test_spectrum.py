import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from realsnf import (
    INTEGERS,
    RATIONAL_POLYNOMIALS,
    matrices,
    polynomials,
    quadratic_ring,
    rings,
    spectrum,
)
from realsnf.errors import NotSymmetricError, SizeLimitError
from realsnf.matrices import Matrix, determinant
from realsnf.polynomials import RatPoly, is_nonneg_on_reals, is_real_irreducible, parse_poly
from realsnf.quadratic import QuadElem
from realsnf.ringspec import RingFamily, parse_ring
from helpers import (
    RING_NAMES,
    evaluate_poly_matrix,
    psd_exact_ordered,
    rand_matrix,
    random_unimodular,
)
from realsnf.spectrum import PSD_SIZE_LIMIT, element_is_nonneg, is_psd_on_spectrum
from realsnf.verify import verify_main_theorem

R2 = quadratic_ring(2)
R3 = quadratic_ring(3)


def max_size(ring):
    """Largest n the oracle tests use: each Q[x] minor costs a Sturm chain."""
    return 3 if ring is RATIONAL_POLYNOMIALS else 4


def every_minor_nonneg(m):
    """The oracle: all 2**n - 1 principal minors, one by one."""
    return all(
        element_is_nonneg(determinant(m.submatrix(idx, idx)), m.ring)
        for k in range(1, m.n_rows + 1)
        for idx in itertools.combinations(range(m.n_rows), k)
    )


def invertible_square(rng, ring, n):
    while True:
        m = rand_matrix(rng, ring, n, n, height=3)
        if determinant(m):
            return m


def negative_somewhere(ring, embedding):
    """Negative at the named ordering only: -1 over Z, x over Q[x] (x < 0),
    and +-w over a quadratic ring (w > 0 at "plus", w < 0 at "minus")."""
    if ring.family is RingFamily.INTEGERS:
        return -1
    if ring.family is RingFamily.RATIONAL_POLYNOMIALS:
        return parse_poly("x")
    return QuadElem(0, 1 if embedding == "minus" else -1, ring)


def sign_at_ordering(a, ring, embedding=None, point=None):
    """The sign of a at an ordering named as a PsdWitness names it: Z has
    one, Q[x] one per rational point, a quadratic ring two embeddings."""
    if ring.family is RingFamily.INTEGERS:
        value = a
    elif ring.family is RingFamily.RATIONAL_POLYNOMIALS:
        value = a(point)
    else:
        pattern = a.sign_pattern()
        return {"plus": pattern.at_plus, "minus": pattern.at_minus}[embedding]
    return (value > 0) - (value < 0)


class TestElementNonneg:
    def test_examples(self):
        assert element_is_nonneg(QuadElem(2, 1, R3), R3)
        assert not element_is_nonneg(QuadElem(1, 1, R3), R3)
        assert element_is_nonneg(parse_poly("x^2+1"), RATIONAL_POLYNOMIALS)

    def test_integers(self):
        assert element_is_nonneg(0, INTEGERS)
        assert element_is_nonneg(7, INTEGERS)
        assert not element_is_nonneg(-1, INTEGERS)

    def test_squares_random(self):
        rng = random.Random(1)
        for ring in (INTEGERS, RATIONAL_POLYNOMIALS, R2, R3):
            for _ in range(40):
                if ring is INTEGERS:
                    a = rng.randint(-9, 9)
                elif ring is RATIONAL_POLYNOMIALS:
                    a = RatPoly([rng.randint(-4, 4) for _ in range(3)])
                else:
                    a = QuadElem(rng.randint(-6, 6), rng.randint(-6, 6), ring)
                assert element_is_nonneg(a * a, ring)


def sign_question_cases(rng, ring):
    """Zero and constants, then per family: integers; over Q[x] odd degrees,
    c * r**2 and c * r**2 * s for r a product of rational linear factors
    (repeated real roots) and s a monic quadratic with or without real roots;
    and elements of a quadratic ring, whose two embeddings often differ in sign."""
    cases = [rings.zero(ring)] + [rings.coerce(c, ring) for c in (-3, -1, 1, 2)]
    for _ in range(60):
        if ring.family is RingFamily.INTEGERS:
            cases.append(rng.randint(-9, 9))
        elif ring.family is RingFamily.RATIONAL_POLYNOMIALS:
            odd = [rng.randint(-4, 4) for _ in range(2 * rng.randint(0, 2) + 1)]
            roots = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
            r = math.prod((RatPoly([-t, 1]) for t in roots), start=RatPoly([1]))
            s = RatPoly([rng.randint(-4, 4), rng.randint(-2, 2), 1])
            c = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
            cases += [RatPoly(odd + [rng.choice([-2, -1, 1, 3])]), r * r * c, r * r * s * c]
        else:
            cases.append(QuadElem(rng.randint(-6, 6), rng.randint(-6, 6), ring))
    return cases


class TestSignQuestionsReadThePositiveAssociate:
    """a >= 0 exactly when its positive associate is a itself; where a is
    negative is looked for only to print a witness."""

    @pytest.mark.parametrize("name", RING_NAMES)
    def test_nonneg_agrees_with_the_witness_search(self, name):
        # an element the decision rejects is negative at the ordering the
        # witness search names; one it accepts is >= 0 at every ordering
        ring, rng = parse_ring(name), random.Random(61)
        answers, mixed = set(), set()
        for a in sign_question_cases(rng, ring):
            nonneg = element_is_nonneg(a, ring)
            if not nonneg:
                where = spectrum.negative_ordering(a, ring)
                assert sign_at_ordering(a, ring, **where) < 0, str(a)
            elif ring.family is RingFamily.RATIONAL_POLYNOMIALS:
                assert polynomials.find_negative_point(a) is None, str(a)
            else:
                assert min(sign_at_ordering(a, ring, e) for e in ("plus", "minus")) >= 0, str(a)
            answers.add(nonneg)
            if not a:
                continue
            associate = rings.positive_associate(a, ring)
            assert (associate == a) is nonneg, str(a)
            if associate is not None:
                assert element_is_nonneg(associate, ring)
                assert rings.are_associated(associate, a, ring)
            if ring.family is RingFamily.QUADRATIC_INTEGERS:
                pattern = a.sign_pattern()
                mixed.add(pattern.at_plus != pattern.at_minus)
        assert answers == {True, False}
        if ring.family is RingFamily.QUADRATIC_INTEGERS:
            assert mixed == {True, False}

    @pytest.mark.parametrize("name", RING_NAMES)
    def test_witness_is_the_first_minor_the_decision_rejects(self, name, monkeypatch):
        # the witness search decides nothing: its minor is the first, by size
        # and then lexicographic order, that element_is_nonneg rejects, and
        # over Q[x] a negative point is looked for once, on that minor only
        ring, rng = parse_ring(name), random.Random(67)
        search, searched = polynomials.find_negative_point, []

        def searching(p):
            searched.append(p)
            return search(p)

        monkeypatch.setattr(polynomials, "find_negative_point", searching)
        sizes = set()
        for n in range(1, max_size(ring) + 1):
            for _ in range(3):
                a = rand_matrix(rng, ring, n, n, height=3)
                gram = [list(r) for r in (a @ a.transpose()).entries]
                if n > 1:  # breaks the 2 x 2 minor on rows i, j at every ordering
                    i, j = rng.sample(range(n), 2)
                    gram[i][j] = gram[j][i] = gram[i][i] + gram[j][j] + rings.one(ring)
                both_ways = [[a[i, j] + a[j, i] for j in range(n)] for i in range(n)]
                for rows in (gram, both_ways):
                    m = Matrix.from_rows(rows, ring)
                    minors = (
                        (idx, determinant(m.submatrix(idx, idx)))
                        for k in range(1, n + 1)
                        for idx in itertools.combinations(range(n), k)
                    )
                    first = next(((i, d) for i, d in minors if not element_is_nonneg(d, ring)), None)
                    searched.clear()
                    report = is_psd_on_spectrum(m)
                    if first is None:
                        assert report.is_psd and searched == []
                        continue
                    idx, minor = first
                    witness = report.witness
                    assert witness.minor_rows == tuple(i + 1 for i in idx)
                    assert sign_at_ordering(minor, ring, witness.embedding, witness.point) < 0
                    qx = ring.family is RingFamily.RATIONAL_POLYNOMIALS
                    assert searched == ([minor] if qx else [])
                    sizes.add(len(idx))
        assert {1, 2} <= sizes

    def test_qx_decisions_never_search_for_a_negative_point(self, monkeypatch):
        def searching(p):
            raise AssertionError(f"searched for a negative point of {p}")

        monkeypatch.setattr(polynomials, "find_negative_point", searching)
        qx = RATIONAL_POLYNOMIALS
        for rows, psd, stuck in (
            ((("x^2", "x"), ("x", "1")), True, False),
            ((("x^2+1", "x"), ("x", "2")), True, False),
            ((("x^2", "1"), ("1", "1")), False, False),  # second pivot x^2 - 1
            ((("0", "x"), ("x", "0")), False, True),
        ):
            m = Matrix.from_rows([[parse_poly(e) for e in row] for row in rows], qx)
            decided, elimination = spectrum.psd_decision(m)
            assert (decided, elimination.stuck) == (psd, stuck)
            assert verify_main_theorem(m).input_psd is psd
        for text, nonneg in (
            ("0", True), ("3", True), ("x^2 - 2*x + 1", True),
            ("x^2 - 1", False), ("-x^2", False), ("x^3", False), ("-2", False),
        ):
            assert element_is_nonneg(parse_poly(text), qx) is nonneg, text
            assert is_nonneg_on_reals(parse_poly(text)) is nonneg, text
        for text, real in (("x^2 - 2", True), ("x - 5", True), ("x^2 + 1", False), ("-x^2 - x - 1", False)):
            assert is_real_irreducible(parse_poly(text)) is real, text


class TestPsdOnSpectrum:
    def test_diagonal_integers(self):
        report = is_psd_on_spectrum(Matrix.from_rows([[2, 0], [0, 3]], INTEGERS))
        assert report.is_psd and report.witness is None

    def test_poly_gram(self):
        m = Matrix.from_rows(
            [[parse_poly("x^2"), parse_poly("x")], [parse_poly("x"), RatPoly([1])]],
            RATIONAL_POLYNOMIALS,
        )
        assert is_psd_on_spectrum(m).is_psd

    def test_quadratic_counterexample_matrix_is_psd(self):
        q = QuadElem(1, 1, R3)
        e = QuadElem(2, 1, R3)
        m = Matrix.from_rows([[q * q, q * e], [q * e, q * q * e]], R3)
        assert is_psd_on_spectrum(m).is_psd

    def test_sign_change_witness(self):
        m = Matrix.from_rows([[QuadElem(1, 1, R3), QuadElem(0, 0, R3)],
                              [QuadElem(0, 0, R3), QuadElem(1, 0, R3)]], R3)
        report = is_psd_on_spectrum(m)
        assert not report.is_psd
        assert report.witness.minor_rows == (1,)  # 1-based
        assert report.witness.embedding == "minus"

    def test_poly_witness_point_reevaluates_negative(self):
        m = Matrix.from_rows(
            [[parse_poly("x"), RatPoly([])], [RatPoly([]), RatPoly([1])]],
            RATIONAL_POLYNOMIALS,
        )
        report = is_psd_on_spectrum(m)
        assert not report.is_psd
        rows = [i - 1 for i in report.witness.minor_rows]
        minor = determinant(m.submatrix(rows, rows))
        assert minor(report.witness.point) < 0

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetricError):
            is_psd_on_spectrum(Matrix.from_rows([[1, 2], [3, 4]], INTEGERS))

    def test_congruence_invariance_quadratic(self):
        rng = random.Random(2)
        for _ in range(15):
            n = rng.randint(1, 3)
            m = rand_matrix(rng, R3, n, n, height=3)
            sym = m @ m.transpose()
            s = random_unimodular(rng, R3, n)
            congruent = s.transpose() @ sym @ s
            assert is_psd_on_spectrum(sym).is_psd == is_psd_on_spectrum(congruent).is_psd

    def test_gram_always_psd(self):
        rng = random.Random(3)
        for ring in (INTEGERS, RATIONAL_POLYNOMIALS, R2, R3, quadratic_ring(13)):
            for _ in range(10):
                n = rng.randint(1, 3)
                m = rand_matrix(rng, ring, n, n, height=3)
                assert is_psd_on_spectrum(m @ m.transpose()).is_psd


class TestCharpolyDecision:
    """PSD verdicts agree with the minor enumeration, on every ring."""

    @pytest.mark.parametrize("name", RING_NAMES)
    def test_full_rank_psd(self, name):
        ring = parse_ring(name)
        rng = random.Random(30)
        for n in range(1, max_size(ring) + 1):
            a = invertible_square(rng, ring, n)
            m = a @ a.transpose()
            assert every_minor_nonneg(m)
            assert is_psd_on_spectrum(m).is_psd

    @pytest.mark.parametrize("name", RING_NAMES)
    def test_rank_deficient_psd(self, name):
        ring = parse_ring(name)
        rng = random.Random(31)
        for n in range(2, max_size(ring) + 1):
            a = rand_matrix(rng, ring, n, n - 1, height=3)
            m = a @ a.transpose()
            assert not determinant(m)  # rank < n
            assert every_minor_nonneg(m)
            assert is_psd_on_spectrum(m).is_psd

    @pytest.mark.parametrize(
        "name, embedding",
        [("Z", None), ("Q[x]", None)]
        + [(name, e) for name in RING_NAMES[2:] for e in ("plus", "minus")],
    )
    def test_broken_at_one_ordering(self, name, embedding):
        # A * diag(1, .., 1, s, .., s) * A^T with 1 or 2 entries s that are
        # negative at one ordering only; with two, det stays >= 0 there
        ring = parse_ring(name)
        rng = random.Random(32)
        s = rings.coerce(negative_somewhere(ring, embedding), ring)
        for n in range(1, max_size(ring) + 1):
            for negatives in range(1, min(n, 2) + 1):
                a = invertible_square(rng, ring, n)
                diag = [[rings.zero(ring)] * n for _ in range(n)]
                for i in range(n):
                    diag[i][i] = s if i >= n - negatives else rings.one(ring)
                m = a @ Matrix.from_rows(diag, ring) @ a.transpose()
                assert not every_minor_nonneg(m)
                report = is_psd_on_spectrum(m)
                assert not report.is_psd
                assert report.witness.embedding == embedding

    @pytest.mark.parametrize("name", RING_NAMES)
    def test_broken_by_a_two_by_two_minor(self, name):
        # the diagonal of a Gram matrix is nonnegative everywhere; an
        # off-diagonal pair set to m_ii + m_jj + 1 breaks the 2x2 minor on
        # rows i, j at every ordering
        ring = parse_ring(name)
        rng = random.Random(33)
        for n in range(2, max_size(ring) + 1):
            a = rand_matrix(rng, ring, n, n, height=3)
            rows = [list(r) for r in (a @ a.transpose()).entries]
            i, j = rng.sample(range(n), 2)
            rows[i][j] = rows[j][i] = rows[i][i] + rows[j][j] + rings.one(ring)
            m = Matrix.from_rows(rows, ring)
            assert not every_minor_nonneg(m)
            report = is_psd_on_spectrum(m)
            assert not report.is_psd and len(report.witness.minor_rows) == 2

    @pytest.mark.parametrize("name", RING_NAMES)
    def test_zero_matrix_is_psd(self, name):
        ring = parse_ring(name)
        m = Matrix.from_rows([[rings.zero(ring)] * 3 for _ in range(3)], ring)
        assert is_psd_on_spectrum(m) == spectrum.PsdReport(None)

    def test_witness_is_the_smallest_minor_not_the_first_failing_sum(self):
        report = is_psd_on_spectrum(Matrix.from_rows([[-1, 0], [0, 2]], INTEGERS))
        assert not report.is_psd
        assert report.witness.minor_rows == (1,)

    def test_only_a_middle_sum_fails(self):
        m = Matrix.from_rows([[-1, 0, 0], [0, -1, 0], [0, 0, 5]], INTEGERS)
        assert is_psd_on_spectrum(m).witness.minor_rows == (1,)
        assert not psd_exact_ordered([list(r) for r in m.entries])

    def test_a_positive_trace_does_not_hide_a_negative_entry(self):
        m = Matrix.from_rows([[-1, 0], [0, 2]], INTEGERS)
        assert is_psd_on_spectrum(m) == spectrum.PsdReport(spectrum.PsdWitness((1,)))


def every_minor_nonneg_at(m, embedding):
    """The oracle at one embedding of a quadratic ring: all principal minors."""
    def sign(a):
        pattern = a.sign_pattern()
        return pattern.at_plus if embedding == "plus" else pattern.at_minus

    return all(
        sign(determinant(m.submatrix(idx, idx))) >= 0
        for k in range(1, m.n_rows + 1)
        for idx in itertools.combinations(range(m.n_rows), k)
    )


def elimination_inputs(rng, ring, trials, max_n=5):
    """Symmetric inputs for the elimination route, each kind in turn:
    N * N^T of rank < n; the same with one diagonal entry lowered by an
    element that may be negative at some orderings only; and a zero diagonal
    with one nonzero off-diagonal pair, so every pivot candidate is zero."""
    if ring is INTEGERS:
        lowerings = [1, 2, 3]
    elif ring is RATIONAL_POLYNOMIALS:
        lowerings = [parse_poly(p) for p in ("1", "2", "x", "-x", "x^2+x", "-x^2")]
    else:
        lowerings = [
            QuadElem(x, y, ring) for x, y in ((1, 0), (2, 0), (0, 1), (0, -1), (1, 1), (1, -1))
        ]
    for trial in range(trials):
        n = rng.randint(2, max_n)
        a = rand_matrix(rng, ring, n, rng.randint(1, n - 1), height=3)
        rows = [list(r) for r in (a @ a.transpose()).entries]
        kind = trial % 3
        if kind == 1:
            i = rng.randrange(n)
            rows[i][i] = rows[i][i] - rings.coerce(rng.choice(lowerings), ring)
        elif kind == 2:
            rows = [[rings.zero(ring)] * n for _ in range(n)]
            i, j = rng.sample(range(n), 2)
            rows[i][j] = rows[j][i] = rings.coerce(rng.choice(lowerings), ring)
        yield Matrix.from_rows(rows, ring)


class TestEliminationDecision:
    """PSD is decided by fraction-free elimination on every ring; it agrees
    with oracles that share no code with it."""

    def test_integers_agree_with_the_fraction_oracle(self):
        verdicts = set()
        for m in elimination_inputs(random.Random(40), INTEGERS, 150):
            verdict = is_psd_on_spectrum(m).is_psd
            assert verdict == psd_exact_ordered([list(r) for r in m.entries])
            verdicts.add(verdict)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("name", RING_NAMES[2:])
    def test_quadratic_rings_agree_with_the_minors_at_both_embeddings(self, name):
        ring = parse_ring(name)
        verdicts, one_embedding_only = set(), 0
        for m in elimination_inputs(random.Random(41), ring, 45):
            at_plus, at_minus = every_minor_nonneg_at(m, "plus"), every_minor_nonneg_at(m, "minus")
            verdict = is_psd_on_spectrum(m).is_psd
            assert verdict == (at_plus and at_minus)
            verdicts.add(verdict)
            one_embedding_only += at_plus != at_minus
        assert verdicts == {True, False}
        assert one_embedding_only

    def test_polynomials_agree_with_the_minors(self):
        # each input again times c^2, c = x + k: then every pivot has a real
        # double root, where the verdict rests on PSD being a closed condition
        ring = RATIONAL_POLYNOMIALS
        rng = random.Random(43)
        verdicts = set()
        for m in elimination_inputs(rng, ring, 60, max_n=4):
            c = RatPoly([rng.randint(-3, 3), 1])
            scaled = Matrix.from_rows([[v * c * c for v in row] for row in m.entries], ring)
            for case in (m, scaled):
                verdict = is_psd_on_spectrum(case).is_psd
                assert verdict == every_minor_nonneg(case)
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_zero_diagonal_with_a_nonzero_entry_is_not_psd(self):
        report = is_psd_on_spectrum(Matrix.from_rows([[0, 1], [1, 0]], INTEGERS))
        assert report == spectrum.PsdReport(spectrum.PsdWitness((1, 2)))

    @pytest.mark.parametrize("name", ["Z", "Q[x]", "Zsqrt:2"])
    def test_psd_input_enumerates_no_minor(self, name, monkeypatch):
        def no_minors(m):
            raise AssertionError("a principal minor was enumerated")

        for module in list(sys.modules.values()):
            if getattr(module, "__dict__", {}).get("determinant") is matrices.determinant:
                monkeypatch.setattr(module, "determinant", no_minors)
        ring = parse_ring(name)
        rng = random.Random(42)
        for n in range(1, PSD_SIZE_LIMIT + 1):
            a = rand_matrix(rng, ring, n, rng.randint(1, n), height=3)
            assert is_psd_on_spectrum(a @ a.transpose()).is_psd

    @pytest.mark.parametrize("name", ["Z", "Q[x]", "Zsqrt:2"])
    @pytest.mark.parametrize("decide", [is_psd_on_spectrum, verify_main_theorem])
    def test_the_size_cap_comes_after_the_symmetry_check(self, name, decide, monkeypatch):
        # past the cap no elimination runs; a non-symmetric input is refused
        # as such whatever its size
        def no_elimination(m):
            raise AssertionError("the elimination ran past the size cap")

        monkeypatch.setattr(spectrum, "symmetric_elimination", no_elimination)
        ring, n = parse_ring(name), PSD_SIZE_LIMIT + 1
        with pytest.raises(SizeLimitError):
            decide(Matrix.identity(n, ring))
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        rows[0][1] = 1
        with pytest.raises(NotSymmetricError):
            decide(Matrix.from_rows(rows, ring))

    @pytest.mark.parametrize("name", ["Z", "Q[x]", "Zsqrt:2"])
    def test_disagreement_with_the_enumeration_raises(self, name, monkeypatch):
        # a fake negative pivot: the enumeration then finds no negative minor
        fake = lambda m: matrices.Elimination((rings.coerce(-1, m.ring),), False)
        monkeypatch.setattr(spectrum, "symmetric_elimination", fake)
        with pytest.raises(ArithmeticError):
            is_psd_on_spectrum(Matrix.from_rows([[1]], parse_ring(name)))

    @pytest.mark.parametrize("name", ["Z", "Q[x]", "Zhalf:13"])
    def test_pivots_are_the_leading_principal_minors(self, name):
        # with no zero pivot the elimination pivots on rows 1, 2, .. in turn,
        # whatever their signs, and the k-th pivot is det M[1..k, 1..k]
        ring = parse_ring(name)
        rng = random.Random(44)
        signs = set()
        for n in range(1, max_size(ring) + 2):
            a = rand_matrix(rng, ring, n, n, height=3)
            both_ways = [[a[i, j] + a[j, i] for j in range(n)] for i in range(n)]
            for m in (a @ a.transpose(), Matrix.from_rows(both_ways, ring)):
                leading = [determinant(m.submatrix(range(k), range(k))) for k in range(1, n + 1)]
                if not all(leading):
                    continue
                elimination = matrices.symmetric_elimination(m)
                assert list(elimination.pivots) == leading
                assert not elimination.stuck
                assert elimination.pivots[-1] == determinant(m)
                # the 2 x 2 block left after pivots on rows 1..n-2: (n-1)-minors
                assert (elimination.rank, elimination.order) == (n, n - 1)
                block = [rings.one(ring)]  # for n = 1, the empty minor
                if n > 1:
                    head, last = list(range(n - 2)), [n - 2, n - 1]
                    block = [
                        determinant(m.submatrix(head + [i], head + [j]))
                        for x, i in enumerate(last)
                        for j in last[x:]
                    ]
                assert list(elimination.minors) == block
                signs.update(element_is_nonneg(p, ring) for p in elimination.pivots[:-1])
        # some pivot negative somewhere was not the last: the elimination ran past it
        assert signs == {True, False}

    @pytest.mark.parametrize("name", ["Z", "Q[x]", "Zsqrt:2"])
    def test_sign_tests_stop_at_the_first_negative_pivot(self, name, monkeypatch):
        # diag(1, .., 1, -1, 1, ..) has pivot k as its first negative one, so
        # the decision makes k sign tests; a stuck elimination makes none
        ring = parse_ring(name)
        original, tested = spectrum.element_is_nonneg, []

        def recording(a, ring):
            tested.append(a)
            return original(a, ring)

        monkeypatch.setattr(spectrum, "element_is_nonneg", recording)
        n = 4
        for k in range(1, n + 1):
            rows = [[(-1 if i == k - 1 else 1) if i == j else 0 for j in range(n)] for i in range(n)]
            tested.clear()
            assert not spectrum.psd_decision(Matrix.from_rows(rows, ring))[0]
            assert len(tested) == k
        tested.clear()
        assert not spectrum.psd_decision(Matrix.from_rows([[0, 1], [1, 0]], ring))[0]
        assert tested == []


class TestExactOrderedPsd:
    """The elimination oracle from ``helpers``, which shares no code with the decision."""

    def test_examples(self):
        assert not psd_exact_ordered([[1, 2], [2, 1]])  # det = -3
        assert psd_exact_ordered([[0, 0], [0, 0]])
        assert psd_exact_ordered([[2, 1], [1, 2]])

    def test_fractions(self):
        assert psd_exact_ordered([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 2)]])

    def test_zero_pivots(self):
        assert not psd_exact_ordered([[0, 1], [1, 0]])  # zero pivot, row not zero
        assert psd_exact_ordered([[0, 0], [0, 1]])  # zero pivot, zero row
        assert psd_exact_ordered([[1, 1], [1, 1]])  # Schur complement is zero
        assert not psd_exact_ordered([[1, 1, 0], [1, 1, 1], [0, 1, 1]])  # zero pivot after a step

    def test_agrees_with_minor_enumeration(self):
        # Gram matrices of n x k factors, full rank and rank-deficient, half
        # of them with a constant taken off one diagonal entry
        rng = random.Random(34)
        verdicts = set()
        for _ in range(120):
            n = rng.randint(1, 5)
            a = rand_matrix(rng, INTEGERS, n, rng.randint(1, n), height=3)
            rows = [list(r) for r in (a @ a.transpose()).entries]
            if rng.random() < 0.5:
                i = rng.randrange(n)
                rows[i][i] -= rng.randint(1, 4)
            m = Matrix.from_rows(rows, INTEGERS)
            scaled = [[Fraction(v, 7) for v in row] for row in rows]
            verdict = psd_exact_ordered(scaled)
            assert verdict == every_minor_nonneg(m)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_needs_all_principal_minors(self):
        # leading minors alone would pass this one: PSD fails only on the
        # trailing 1x1 minor
        assert not psd_exact_ordered([[0, 0], [0, -1]])


SAMPLE_POINTS = [Fraction(k, 10) for k in range(-100, 100)]


def sampling_checks(seed, trials):
    """(PSD verdict, whether the elimination oracle agrees) per Q[x] input.

    Inputs are N * N^T, half of them with a constant taken off one diagonal
    entry.  A PSD verdict must survive the oracle at every sample point; a
    not-PSD verdict must be refuted by the oracle at its witness point.
    """
    rng = random.Random(seed)
    checks = []
    for _ in range(trials):
        n = rng.randint(1, 3)
        a = rand_matrix(rng, RATIONAL_POLYNOMIALS, n, n, height=3)
        rows = [list(r) for r in (a @ a.transpose()).entries]
        if rng.random() < 0.5:
            i = rng.randrange(n)
            rows[i][i] = rows[i][i] - RatPoly([rng.randint(1, 4)])
        m = Matrix.from_rows(rows, RATIONAL_POLYNOMIALS)
        report = is_psd_on_spectrum(m)
        if report.is_psd:
            agrees = all(psd_exact_ordered(evaluate_poly_matrix(m, t)) for t in SAMPLE_POINTS)
        else:
            agrees = not psd_exact_ordered(evaluate_poly_matrix(m, report.witness.point))
        checks.append((report.is_psd, agrees))
    return checks


class TestSamplingAgreement:
    def test_poly_psd_never_contradicted_by_evaluation(self):
        # evaluation can refute a PSD verdict, never certify one, so any
        # sampled violation is a failure here
        assert len(SAMPLE_POINTS) == 200
        checks = sampling_checks(seed=4, trials=60)
        assert all(agrees for _, agrees in checks)
        assert {is_psd for is_psd, _ in checks} == {True, False}

    def test_non_psd_matrices_get_refuted_somewhere(self):
        m = Matrix.from_rows(
            [[parse_poly("x"), RatPoly([])], [RatPoly([]), RatPoly([1])]],
            RATIONAL_POLYNOMIALS,
        )
        report = is_psd_on_spectrum(m)
        assert not report.is_psd
        assert not psd_exact_ordered(evaluate_poly_matrix(m, report.witness.point))

    def test_oracle_catches_a_decision_that_drops_the_determinant(self, monkeypatch):
        # a broken decision that reads only the 1x1 principal minors; the
        # oracle must then refute some PSD verdict at a sample point
        def diagonal_only(m):
            return matrices.Elimination(tuple(m[i, i] for i in range(m.n_rows)), False)

        monkeypatch.setattr(spectrum, "symmetric_elimination", diagonal_only)
        assert any(is_psd and not agrees for is_psd, agrees in sampling_checks(seed=4, trials=60))
