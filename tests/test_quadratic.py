import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realsnf import INTEGERS, RingFamily, RingSpec, parse_ring, quadratic_ring, rings
from realsnf.errors import UnsupportedRingError, ZeroElementError
from realsnf.quadratic import (
    QuadElem,
    SignPattern,
    canonical_associate,
    exact_divide,
    fundamental_unit,
    pnri_holds,
    positive_associate,
)

from helpers import canonical_associate_by_orbit, quad_divmod_oracle, unit_power

R2 = quadratic_ring(2)
R3 = quadratic_ring(3)
R5 = quadratic_ring(5)
R13 = quadratic_ring(13)
ALL_RINGS = [quadratic_ring(d) for d in (2, 3, 5, 6, 7, 11, 13)]


def rand_elem(rng, ring, h=8):
    return QuadElem(rng.randint(-h, h), rng.randint(-h, h), ring)


class TestValueSemantics:
    def test_equality_and_hash_across_separately_built_rings(self):
        built = RingSpec(RingFamily.QUADRATIC_INTEGERS, 2)
        parsed = parse_ring("Zsqrt:2")
        a, b = QuadElem(3, -4, built), QuadElem(3, -4, parsed)
        assert built == parsed and hash(built) == hash(parsed)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert QuadElem(3, -4, R2) != QuadElem(3, 4, R2)
        assert QuadElem(3, -4, R2) != QuadElem(-4, 3, R2)
        assert QuadElem(1, 1, R2) != QuadElem(1, 1, R3)
        assert a + b == QuadElem(6, -8, parsed)

    def test_never_equal_to_an_int(self):
        assert (QuadElem(1, 0, R2) == 1) is False
        assert (1 == QuadElem(1, 0, R2)) is False
        assert QuadElem(0, 0, R2) != 0

    @pytest.mark.parametrize("name", ["x", "y", "ring"])
    def test_immutable(self, name):
        a = QuadElem(1, 2, R2)
        with pytest.raises(AttributeError):
            setattr(a, name, R3 if name == "ring" else 7)
        with pytest.raises(AttributeError):
            delattr(a, name)
        b = a * a  # arithmetic results are just as frozen
        with pytest.raises(AttributeError):
            setattr(b, name, R3 if name == "ring" else 7)
        assert (a.x, a.y, a.ring) == (1, 2, R2)

    def test_non_quadratic_ring_rejected(self):
        with pytest.raises(UnsupportedRingError):
            QuadElem(1, 0, INTEGERS)

    @pytest.mark.parametrize("bad", [1.5, True, Fraction(1, 2)], ids=repr)
    def test_non_integer_coordinates_rejected(self, bad):
        for x, y in ((bad, 0), (0, bad)):
            with pytest.raises(UnsupportedRingError):
                QuadElem(x, y, R2)
        a = QuadElem(-3, 2, R2)
        assert (a.x, a.y) == (-3, 2)

    def test_mixed_rings_rejected(self):
        a, b = QuadElem(1, 1, R2), QuadElem(1, 1, R3)
        for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: divmod(a, b)):
            with pytest.raises(UnsupportedRingError):
                op()
        with pytest.raises(UnsupportedRingError):
            rings.coerce(a, R3)
        assert rings.coerce(a, parse_ring("Zsqrt:2")) is a

    def test_int_on_either_side(self):
        a = QuadElem(2, 3, R5)
        assert a + 4 == 4 + a == QuadElem(6, 3, R5)
        assert a - 4 == QuadElem(-2, 3, R5)
        assert 4 - a == QuadElem(2, -3, R5)
        assert a * 4 == 4 * a == QuadElem(8, 12, R5)
        assert divmod(a, 2) == (QuadElem(1, 1, R5), QuadElem(0, 1, R5))

    def test_copy_and_pickle_round_trip(self):
        a = QuadElem(-5, 8, R13)
        for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert b == a and hash(b) == hash(a)

    def test_repr_and_str(self):
        assert repr(QuadElem(-3, 0, R2)) == "QuadElem(-3, 0, Zsqrt:2)"
        assert repr(QuadElem(1, -2, R13)) == "QuadElem(1, -2, Zhalf:13)"
        assert str(QuadElem(-3, 0, R2)) == "-3+0w"
        assert str(QuadElem(0, 5, R5)) == "0+5w"
        assert str(QuadElem(7, -1, R5) * 1) == "7-1w"


class TestBasicArithmetic:
    def test_conjugate(self):
        assert QuadElem(1, 1, R3).conjugate() == QuadElem(1, -1, R3)
        assert QuadElem(5, 0, R3).conjugate() == QuadElem(5, 0, R3)
        # half form: conj((1+sqrt5)/2) = (1-sqrt5)/2 = 1 - w
        assert QuadElem(0, 1, R5).conjugate() == QuadElem(1, -1, R5)

    def test_norm(self):
        assert QuadElem(1, 1, R3).norm() == -2
        assert QuadElem(2, 1, R3).norm() == 1
        assert QuadElem(1, 1, R2).norm() == -1

    def test_norm_is_product_with_conjugate(self):
        rng = random.Random(1)
        for ring in ALL_RINGS:
            for _ in range(50):
                a = rand_elem(rng, ring)
                assert a * a.conjugate() == QuadElem(a.norm(), 0, ring)

    def test_norm_multiplicative(self):
        rng = random.Random(2)
        for ring in ALL_RINGS:
            for _ in range(50):
                a, b = rand_elem(rng, ring), rand_elem(rng, ring)
                assert (a * b).norm() == a.norm() * b.norm()

    def test_half_form_multiplication_table(self):
        # w^2 = w + (d-1)/4 in the half-integer basis
        for ring in (R5, R13):
            w = QuadElem(0, 1, ring)
            assert w * w == QuadElem((ring.d - 1) // 4, 1, ring)


class TestSignPattern:
    def test_examples(self):
        assert QuadElem(1, 1, R3).sign_pattern() == SignPattern(1, -1)
        assert QuadElem(2, 1, R3).sign_pattern() == SignPattern(1, 1)
        assert QuadElem(0, 0, R3).sign_pattern() == SignPattern(0, 0)

    def test_half_form_golden_ratio(self):
        # (1+sqrt5)/2 > 0, (1-sqrt5)/2 < 0
        assert QuadElem(0, 1, R5).sign_pattern() == SignPattern(1, -1)

    def test_multiplicative(self):
        rng = random.Random(3)
        for ring in ALL_RINGS:
            for _ in range(60):
                a, b = rand_elem(rng, ring), rand_elem(rng, ring)
                if not a or not b:
                    continue
                assert (a * b).sign_pattern() == a.sign_pattern() * b.sign_pattern()

    def test_nonzero_elements_have_nonzero_signs(self):
        rng = random.Random(4)
        for ring in ALL_RINGS:
            for _ in range(40):
                a = rand_elem(rng, ring)
                if not a:
                    continue
                pattern = a.sign_pattern()
                assert pattern.at_plus != 0 and pattern.at_minus != 0


class TestFundamentalUnit:
    EXPECTED = {
        2: (1, 1, -1),
        3: (2, 1, 1),
        5: (0, 1, -1),
        6: (5, 2, 1),
        7: (8, 3, 1),
        11: (10, 3, 1),
        13: (1, 1, -1),
    }

    @pytest.mark.parametrize("d", sorted(EXPECTED))
    def test_values(self, d):
        x, y, norm = self.EXPECTED[d]
        ring = quadratic_ring(d)
        unit = fundamental_unit(ring)
        assert unit == QuadElem(x, y, ring)
        assert unit.norm() == norm

    @pytest.mark.parametrize("d", [2, 3, 6, 7, 11])
    def test_minimality_against_brute_pell(self, d):
        # independent check: no Pell solution with smaller y
        ring = quadratic_ring(d)
        y0 = fundamental_unit(ring).y
        for y in range(1, y0):
            for delta in (-1, 1):
                x2 = d * y * y + delta
                assert x2 < 0 or math.isqrt(x2) ** 2 != x2

    def test_unit_exceeds_one_at_plus_embedding(self):
        for ring in ALL_RINGS:
            u = fundamental_unit(ring)
            assert (u - 1).sign_pattern().at_plus > 0


class TestUnitSigns:
    def test_pnri(self):
        assert pnri_holds(R2)
        assert pnri_holds(R5)
        assert pnri_holds(R13)
        for d in (3, 6, 7, 11):
            assert not pnri_holds(quadratic_ring(d))

    def test_achievable_patterns(self):
        # the sign patterns of +-u0^k; a unit with pattern (+, -) exists
        # exactly when pnri holds (N(u0) = -1)
        def unit_patterns(ring):
            u0 = fundamental_unit(ring)
            return frozenset(
                (unit_power(u0, k) * sign).sign_pattern()
                for k in range(-3, 4)
                for sign in (1, -1)
            )

        same_signs = frozenset({SignPattern(1, 1), SignPattern(-1, -1)})
        every = same_signs | {SignPattern(1, -1), SignPattern(-1, 1)}
        assert unit_patterns(R2) == every
        assert unit_patterns(R3) == same_signs
        for ring in ALL_RINGS:
            assert unit_patterns(ring) == (every if pnri_holds(ring) else same_signs)

    def test_unit_pattern_law(self):
        # sign_pattern(u) = (s, s * norm(u)) for any unit
        for ring in ALL_RINGS:
            u0 = fundamental_unit(ring)
            for k in range(-3, 4):
                for sign in (1, -1):
                    u = unit_power(u0, k) * sign
                    pattern = u.sign_pattern()
                    assert pattern.at_minus == pattern.at_plus * u.norm()

    def test_unit_pattern_periodicity(self):
        for ring in ALL_RINGS:
            u0 = fundamental_unit(ring)
            for k in range(-3, 2):
                assert unit_power(u0, k).sign_pattern() == unit_power(u0, k + 2).sign_pattern()


class TestPositiveAssociate:
    def test_negative_rational(self):
        assert positive_associate(QuadElem(-5, 0, R3)) == QuadElem(5, 0, R3)

    def test_mixed_without_pnri_is_stuck(self):
        assert positive_associate(QuadElem(1, 1, R3)) is None

    @pytest.mark.parametrize(
        "name, x, y, pattern",
        [
            ("Zsqrt:2", 1, 1, (1, -1)),
            ("Zsqrt:2", 1, -1, (-1, 1)),
            ("Zhalf:5", 0, 1, (1, -1)),
            ("Zhalf:5", 1, -1, (-1, 1)),
            ("Zhalf:13", 0, 1, (1, -1)),
            ("Zhalf:13", 1, -1, (-1, 1)),
        ],
    )
    def test_mixed_with_pnri(self, name, x, y, pattern):
        # every pnri ring, both mixed patterns: 1 +- w, and w, 1 - w for the
        # Zhalf rings (no Smith diagonal reaches this branch on Zhalf:5)
        a = QuadElem(x, y, parse_ring(name))
        assert pnri_holds(a.ring) and a.sign_pattern() == SignPattern(*pattern)
        result = positive_associate(a)
        assert result is not None
        assert result.sign_pattern() == SignPattern(1, 1)
        assert exact_divide(result, a) is not None and exact_divide(a, result) is not None

    def test_zero_rejected(self):
        with pytest.raises(ZeroElementError):
            positive_associate(QuadElem(0, 0, R3))

    def test_absence_is_exhaustive_over_unit_patterns(self):
        # when no positive associate exists, +-a*u0^k never reaches (+,+)
        a = QuadElem(1, 1, R3)
        u0 = fundamental_unit(R3)
        for k in range(-3, 4):
            for sign in (1, -1):
                assert (a * unit_power(u0, k) * sign).sign_pattern() != SignPattern(1, 1)


class TestCanonicalAssociate:
    def test_counterexample_diagonal_representative(self):
        q = QuadElem(1, 1, R3)
        u = QuadElem(2, 1, R3)
        for variant in (q, -q, q * u, -(q * u), q * u * u):
            assert canonical_associate(variant) == q

    def test_rational_integer_class(self):
        assert canonical_associate(QuadElem(-5, 0, R3)) == QuadElem(5, 0, R3)

    def test_unit_class_is_one(self):
        for ring in ALL_RINGS:
            u0 = fundamental_unit(ring)
            assert canonical_associate(u0 * u0 * -1) == QuadElem(1, 0, ring)

    def test_invariant_under_unit_multiplication(self):
        rng = random.Random(9)
        for ring in (R2, R3, R13):
            u0 = fundamental_unit(ring)
            for _ in range(25):
                a = rand_elem(rng, ring, 5)
                if not a:
                    continue
                assert canonical_associate(a * u0) == canonical_associate(a)
                assert canonical_associate(-a) == canonical_associate(a)


class TestFastPathsAgainstOracles:
    @pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
    def test_divmod_matches_candidate_loop(self, ring):
        rng = random.Random(100 + ring.d)
        w = QuadElem(0, 1, ring)
        shells = set()
        for k in range(800):
            b = rand_elem(rng, ring, 30)
            if not b:
                continue
            if k % 4 == 0:  # a / (2b) near (x, y + 1/2), plus a small offset
                a = 2 * b * rand_elem(rng, ring, 9) + b * w + rand_elem(rng, ring, 1)
                b = 2 * b
            elif k % 4 == 1:  # the same for a rational integer 2n, passed as an int
                n = rng.randint(1, 500)
                a = QuadElem(rng.randint(-3, 3), n + rng.randint(-3, 3), ring)
                b = QuadElem(2 * n, 0, ring)
                assert divmod(a, 2 * n) == quad_divmod_oracle(a, b)[:2]
            elif k % 4 == 2:
                a = b * rand_elem(rng, ring, 9)  # an exact multiple
            else:
                a = rand_elem(rng, ring, 10**6)
            q, r, shell = quad_divmod_oracle(a, b)
            assert divmod(a, b) == (q, r), (a, b)
            assert exact_divide(a, b) == (None if r else q)
            shells.add(shell)
        if ring.d == 11:
            assert max(shells) >= 1  # quotients that the plain rounding misses

    @pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
    def test_canonical_associate_matches_orbit_walk_on_units_and_integers(self, ring):
        u0 = fundamental_unit(ring)
        for k in range(-8, 9):
            u = unit_power(u0, k)
            for n in (1, -1, 2, -3, 7, -12):
                a = u * n
                assert canonical_associate(a) == canonical_associate_by_orbit(a) == QuadElem(
                    abs(n), 0, ring
                ), (k, n)

    @pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
    def test_canonical_associate_matches_orbit_walk_on_non_units(self, ring):
        rng = random.Random(200 + ring.d)
        u0 = fundamental_unit(ring)
        checked = 0
        while checked < 150:
            a = rand_elem(rng, ring, 12)
            if a.y == 0 or abs(a.norm()) <= 1:
                continue
            a = a * unit_power(u0, rng.randint(-5, 5))
            assert canonical_associate(a) == canonical_associate_by_orbit(a), a
            checked += 1


class TestSignAgainstFloats:
    def test_float_embedding_never_contradicts_exact_sign(self):
        # floats are a refutation-only oracle: skip near-zero values where
        # rounding could lie
        rng = random.Random(21)
        for ring in ALL_RINGS:
            root = math.sqrt(ring.d)
            for _ in range(300):
                a = rand_elem(rng, ring, 50)
                if not a:
                    continue
                if ring.uses_half_basis:
                    plus = a.x + a.y * (1 + root) / 2
                    minus = a.x + a.y * (1 - root) / 2
                else:
                    plus = a.x + a.y * root
                    minus = a.x - a.y * root
                pattern = a.sign_pattern()
                if abs(plus) > 1e-6:
                    assert pattern.at_plus == (1 if plus > 0 else -1)
                if abs(minus) > 1e-6:
                    assert pattern.at_minus == (1 if minus > 0 else -1)


class TestCanonicalScaling:
    def test_huge_coordinates_stay_fast_and_stable(self):
        q = QuadElem(1, 1, R3)
        u = QuadElem(2, 1, R3)
        big = q * u**40  # coordinates with dozens of digits
        assert big.height() > 10**20
        assert canonical_associate(big) == q
        assert canonical_associate(-big * u**3) == q


class TestEuclideanShells:
    def test_sqrt11_needs_wide_offsets(self):
        # fractional part (0, 1/2): the valid quotient sits 5 steps away in x
        ring = quadratic_ring(11)
        b = QuadElem(2, 0, ring)
        a = QuadElem(0, 1, ring)  # a/b = (0, 1/2)
        q, r = divmod(a, b)
        assert a == b * q + r
        assert not r or abs(r.norm()) < abs(b.norm())

    @pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
    def test_division_contract_random(self, ring):
        rng = random.Random(ring.d)
        for _ in range(800):
            a = rand_elem(rng, ring, 60)
            b = rand_elem(rng, ring, 60)
            if not b:
                continue
            q, r = divmod(a, b)
            assert a == b * q + r
            assert not r or abs(r.norm()) < abs(b.norm())


_COORD = 10**30
_coords = st.integers(-_COORD, _COORD)


@st.composite
def _divisors(draw, ring):
    """A nonzero divisor: general, a rational integer, or a unit +-u0**k."""
    kind = draw(st.sampled_from(["general", "rational", "unit"]))
    if kind == "unit":
        u = unit_power(fundamental_unit(ring), draw(st.integers(-6, 6)))
        return u if draw(st.booleans()) else -u
    y = 0 if kind == "rational" else draw(_coords)
    x = draw(_coords.filter(lambda v: v != 0) if y == 0 else _coords)
    return QuadElem(x, y, ring)


class TestEuclideanProperty:
    @pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_divmod_and_exact_divide(self, ring, data):
        b = data.draw(_divisors(ring))
        a = QuadElem(data.draw(_coords), data.draw(_coords), ring)
        if data.draw(st.booleans()):
            a = a * b  # an exact multiple
        q, r = divmod(a, b)
        assert a == b * q + r
        assert not r or abs(r.norm()) < abs(b.norm())
        assert exact_divide(a, b) == (None if r else q)
