"""Properties of ``verify``'s Smith stage over Z and the seven quadratic
rings, and of the elimination loops over the quadratic rings and Q[x].

The Smith diagonals it reads off the PSD elimination equal those of the
plain reduction.  Over the quadratic rings the elimination loops, which run
on int pairs, equal the ring-generic references on QuadElem arithmetic, and
so does the unit-pivot pass over Z, whose reference has its own inverse
modulo G; over Q[x] the elimination and the determinant, which run on
packed ints, equal the reference on RatPoly arithmetic and the Leibniz sum.

Inputs are n x n with n <= 4, of four kinds:

- planted chains U * diag(d) * U^T (``known_smith_congruence``);
- symmetric matrices with small entries, and N * N^T, each times c in
  {1, 2, 3, 6}: the modulus G is then often not a unit, and no entry is a
  unit modulo G when c shares a factor with it;
- [[p * A, B^T], [B, C]] with 2 x 2 blocks and a prime p.  The minors the
  elimination hands over are multiples of p, since det(p * A) = p^2 * det A,
  but M is invertible modulo p when det B is not a multiple of p: often
  every pivot is a unit modulo G, four of them for k = 3.

``verify_snf``'s test of M = P * D * Q, which runs on ints, int pairs and
ints packed at x = 2**b, agrees with the element product on all nine rings,
for honest certificates and forged ones.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from realsnf import INTEGERS, RATIONAL_POLYNOMIALS, matrices, parse_ring, rings
from realsnf.matrices import (
    Matrix,
    SnfResult,
    determinant,
    smith_diagonals,
    smith_normal_form,
    symmetric_elimination,
    verify_snf,
)
from realsnf.polynomials import RatPoly
from realsnf.quadratic import PairArithmetic, QuadElem

from helpers import (
    RING_NAMES as ALL_RING_NAMES,
    element_product_reproduces,
    known_smith_congruence,
    leibniz_determinant,
    symmetric_elimination_reference,
    unit_pivots_reference,
)

RING_NAMES = ["Z", "Zsqrt:2", "Zsqrt:3", "Zsqrt:6", "Zsqrt:7", "Zsqrt:11", "Zhalf:5", "Zhalf:13"]
QUADRATIC_NAMES = RING_NAMES[1:]


def symmetric(upper, n):
    """The symmetric n x n rows whose upper triangle is ``upper[i, j]``, i <= j."""
    return [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]


@st.composite
def symmetric_inputs(draw):
    ring = parse_ring(draw(st.sampled_from(RING_NAMES)))
    kind = draw(st.sampled_from(["planted", "symmetric", "gram", "blocks"]))
    n = 4 if kind == "blocks" else draw(st.integers(1, 4))
    if kind == "planted":
        rank = draw(st.integers(0, n))
        rng = random.Random(draw(st.integers(0, 2**16)))
        return known_smith_congruence(rng, ring, n, draw(st.booleans()), rank)[0]
    if ring is INTEGERS:
        entry = st.integers(-6, 6)
    else:
        entry = st.builds(QuadElem, st.integers(-3, 3), st.integers(-3, 3), st.just(ring))
    upper = {(i, j): draw(entry) for i in range(n) for j in range(i, n)}
    if kind == "blocks":
        p = draw(st.sampled_from([2, 3, 5]))
        for i, j in ((0, 0), (0, 1), (1, 1)):
            upper[i, j] = p * upper[i, j]
        return Matrix.from_rows(symmetric(upper, n), ring)
    if kind == "symmetric":
        m = Matrix.from_rows(symmetric(upper, n), ring)
    else:
        low = Matrix.from_rows([[draw(entry) for _ in range(n)] for _ in range(n)], ring)
        m = low @ low.transpose()
    c = rings.coerce(draw(st.just(1) | st.sampled_from([2, 3, 6])), ring)
    return Matrix.from_rows([[c * v for v in row] for row in m.entries], ring)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(symmetric_inputs())
def test_smith_diagonals_equal_the_plain_reduction(m):
    assert smith_diagonals(m, symmetric_elimination(m)) == matrices._reduce(m, False)[1]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(symmetric_inputs())
def test_unit_pivots_leave_a_block_of_residues(m):
    elimination = symmetric_elimination(m)
    if elimination.stuck:
        return
    ring = m.ring
    g = rings.ideal_element(elimination.minors, ring)
    u, rest = matrices._unit_pivots(m, g)
    assert u + rest.n_rows == m.n_rows and rest.n_rows == rest.n_cols
    assert all(rings.residue(v, g, ring) == v for row in rest.entries for v in row)


def sqrt_d(ring):
    """sqrt(d) in the integral basis: w, or 2w - 1 when w = (1 + sqrt(d)) / 2."""
    return QuadElem(-1, 2, ring) if ring.uses_half_basis else QuadElem(0, 1, ring)


@st.composite
def quadratic_inputs(draw):
    """Symmetric n x n over the seven quadratic rings, n = 1 to 8, entries of
    height 3, of five kinds:

    - M = 0;
    - symmetric, with no structure;
    - stuck: [[A, 0], [0, Z]] with Z of size >= 2, zero on its diagonal and
      not zero, so that no pivot on A touches it;
    - rank < n: N * N^T with N of width k < n (0 for k = 0);
    - not PSD at one embedding: N * N^T minus s*t*sqrt(d) on one diagonal entry
      a = x + y*w, s = +-1 and t = |x| + |y| + 1 > |a| / sqrt(d) at both
      embeddings, so the entry goes negative at one embedding only, and M
      stays PSD at the other.
    """
    ring = parse_ring(draw(st.sampled_from(QUADRATIC_NAMES)))
    kind = draw(st.sampled_from(["zero", "symmetric", "stuck", "rank < n", "not PSD"]))
    n = draw(st.integers(2 if kind == "stuck" else 1, 8))
    entry = st.builds(QuadElem, st.integers(-3, 3), st.integers(-3, 3), st.just(ring))
    zero = rings.zero(ring)
    if kind == "zero":
        return Matrix.from_rows([[zero] * n for _ in range(n)], ring)
    upper = {(i, j): draw(entry) for i in range(n) for j in range(i, n)}
    if kind == "symmetric":
        return Matrix.from_rows(symmetric(upper, n), ring)
    if kind == "stuck":
        h = draw(st.integers(0, n - 2))
        for i, j in upper:
            if i < h <= j or i == j >= h:
                upper[i, j] = zero
        upper[h, h + 1] = draw(entry.filter(bool))
        return Matrix.from_rows(symmetric(upper, n), ring)
    k = draw(st.integers(0, n - 1)) if kind == "rank < n" else n
    if not k:
        return Matrix.from_rows([[zero] * n for _ in range(n)], ring)
    low = Matrix.from_rows([[draw(entry) for _ in range(k)] for _ in range(n)], ring)
    rows = [list(row) for row in (low @ low.transpose()).entries]
    if kind == "not PSD":
        i = draw(st.integers(0, n - 1))
        a = rows[i][i]
        rows[i][i] = a - draw(st.sampled_from([1, -1])) * (abs(a.x) + abs(a.y) + 1) * sqrt_d(ring)
    return Matrix.from_rows(rows, ring)


@st.composite
def integer_inputs(draw):
    """Symmetric n x n over Z, n = 1 to 8, entries in [-6, 6], every diagonal
    entry times 6: modulo a G that shares a factor with 6, as most of the
    moduli 2 to 30 do, no diagonal entry is a unit, so the first unit, if
    any, is off the diagonal."""
    n = draw(st.integers(1, 8))
    upper = {
        (i, j): draw(st.integers(-6, 6)) * (6 if i == j else 1) for i in range(n) for j in range(i, n)
    }
    return Matrix.from_rows(symmetric(upper, n), INTEGERS)


@settings(max_examples=400, deadline=None, derandomize=True)
@example(Matrix.from_rows([[4, -2, -2], [-2, 4, -5], [-2, -5, -2]], INTEGERS), 30)
@given(quadratic_inputs() | integer_inputs(), st.integers(2, 30))
def test_pair_arithmetic_equals_the_element_reference(m, modulus):
    """symmetric_elimination field by field, and _unit_pivots (u and the block
    left) modulo the drawn modulus and the G of the minors handed over, over
    the quadratic rings on int pairs and over Z on ints.  The example has
    G = 12, whose first unit is the off-diagonal -5."""
    got, want = symmetric_elimination(m), symmetric_elimination_reference(m)
    assert got.pivots == want.pivots
    assert got.stuck == want.stuck
    assert got.minors == want.minors
    assert got.order == want.order
    moduli = {modulus}
    if not got.stuck:
        g = rings.ideal_element(got.minors, m.ring)
        moduli.add(g if m.ring == INTEGERS else g.x)
    for g in sorted(moduli):
        g = rings.coerce(g, m.ring)
        assert matrices._unit_pivots(m, g) == unit_pivots_reference(m, g)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from(QUADRATIC_NAMES), st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 60)
)
def test_inverse_modulo_is_an_inverse_among_the_residues(name, x, y, g):
    """The inverse modulo G that _unit_pivots runs over a quadratic ring, on
    int pairs: a residue with a * a^-1 = 1 modulo G, and None exactly when
    N(a) and G share a factor."""
    ring = parse_ring(name)
    a, modulus = QuadElem(x, y, ring), rings.coerce(g, ring)
    inverse = PairArithmetic(ring).inverse((x, y), modulus)
    if math.gcd(a.norm(), g) != 1:
        assert inverse is None
    else:
        inverse = QuadElem(*inverse, ring)
        assert rings.residue(inverse, modulus, ring) == inverse
        assert not rings.residue(a * inverse - rings.one(ring), modulus, ring)


@st.composite
def polynomial_inputs(draw):
    """Symmetric n x n over Q[x], n = 1 to 6, of four kinds: symmetric with
    no structure; stuck, as in :func:`quadratic_inputs`; rank < n, N * N^T
    with N of width k < n; and not PSD, N * N^T with one diagonal entry a,
    >= 0 on R, replaced by -a - 1.  Entries have degree <= 2 and rational
    coefficients with denominators 1, 2, 3 or 7 and numerators up to 3 or up
    to 2**64, so zero, constant entries and negative leading coefficients
    occur."""
    ring = RATIONAL_POLYNOMIALS
    kind = draw(st.sampled_from(["symmetric", "stuck", "rank < n", "not PSD"]))
    n = draw(st.integers(2 if kind == "stuck" else 1, 6))
    numerator = st.integers(-3, 3) | st.integers(-(2**64), 2**64)
    coefficient = st.builds(Fraction, numerator, st.sampled_from([1, 2, 3, 7]))
    entry = st.builds(RatPoly, st.lists(coefficient, max_size=3))
    zero = rings.zero(ring)
    if kind in ("symmetric", "stuck"):
        upper = {(i, j): draw(entry) for i in range(n) for j in range(i, n)}
        if kind == "stuck":
            h = draw(st.integers(0, n - 2))
            for i, j in upper:
                if i < h <= j or i == j >= h:
                    upper[i, j] = zero
            upper[h, h + 1] = draw(entry.filter(bool))
        return Matrix.from_rows(symmetric(upper, n), ring)
    k = draw(st.integers(0, n - 1)) if kind == "rank < n" else n
    if not k:
        return Matrix.from_rows([[zero] * n for _ in range(n)], ring)
    low = Matrix.from_rows([[draw(entry) for _ in range(k)] for _ in range(n)], ring)
    rows = [list(row) for row in (low @ low.transpose()).entries]
    if kind == "not PSD":
        i = draw(st.integers(0, n - 1))
        rows[i][i] = -rows[i][i] - 1
    return Matrix.from_rows(rows, ring)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(polynomial_inputs())
def test_packed_arithmetic_equals_the_element_reference(m):
    """symmetric_elimination field by field, and determinant (with row swaps
    on a stuck input's zero diagonal)."""
    got, want = symmetric_elimination(m), symmetric_elimination_reference(m)
    assert got.pivots == want.pivots
    assert got.stuck == want.stuck
    assert got.minors == want.minors
    assert got.order == want.order
    assert determinant(m) == leibniz_determinant(m.entries, m.ring)


def _lcm_of_denominators(polys):
    return math.lcm(*(c.denominator for p in polys for c in p.coefficients))


def _l1(p, scale):
    return sum(abs(c * scale) for c in p.coefficients)


def product_test_scales(result):
    """L_i for each row of P, S and R over Q[x]: the lcms of the
    denominators of P's row i, of D's diagonal and of Q's first k rows."""
    d = result.D
    k = min(d.n_rows, d.n_cols)
    diag = [d[i, i] for i in range(k)]
    rows = [_lcm_of_denominators(row) for row in result.P.entries]
    return rows, _lcm_of_denominators(diag), _lcm_of_denominators(sum(result.Q.entries[:k], ()))


def product_test_bounds(m, result):
    """The two parts of B in the product test over Q[x], from Fractions:
    max_i sum_k ||L_i P_ik|| * ||S d_k|| * max ||R Q_kj|| and
    max ||L_i S R M_ij||, in l1 norms; b = B.bit_length() + 2."""
    rows, s, r = product_test_scales(result)
    k = min(m.n_rows, m.n_cols)
    diag = [result.D[i, i] for i in range(k)]
    q_norm = max(_l1(v, r) for v in sum(result.Q.entries[:k], ()))
    left = max(
        sum(_l1(a, scale) * _l1(e, s) for a, e in zip(row, diag)) * q_norm
        for row, scale in zip(result.P.entries, rows)
    )
    target = max(
        _l1(v, scale * s * r) for row, scale in zip(m.entries, rows) for v in row
    )
    return int(left), int(target)


def _replaced(t, i, j, value):
    rows = [list(row) for row in t.entries]
    rows[i][j] = value
    return Matrix(tuple(map(tuple, rows)), t.ring)


def _entry(draw, ring):
    if ring == INTEGERS:
        return draw(st.integers(-6, 6))
    if ring == RATIONAL_POLYNOMIALS:
        coefficient = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3, 7]))
        return RatPoly(draw(st.lists(coefficient, max_size=3)))
    return QuadElem(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)), ring)


def _off_by_one(draw, v, ring):
    """v with one coefficient (over Q[x]) or coordinate moved by 1."""
    if ring == INTEGERS:
        return v + 1
    if ring == RATIONAL_POLYNOMIALS:
        return v + RatPoly([0] * draw(st.integers(0, v.degree + 1)) + [1])
    return v + draw(st.sampled_from([QuadElem(1, 0, ring), QuadElem(0, 1, ring)]))


@st.composite
def certificates(draw, ring):
    """(M, P, D, Q) over the ring: the smith_normal_form of a random M of up
    to 3 x 3, as it is or forged in one of five ways, or, over
    Q[x], a forgery whose product differs from M by x - 2**t:

    - one coefficient of an entry of P or Q off by 1;
    - one entry of Q times 2**k, over Q[x] with k within 3 of the b of the
      honest certificate;
    - over Q[x], one entry of Q plus x - 2**k, with k within 1 of the b that
      the bound on M's side alone would give: the product then moves by a
      multiple of x - 2**k, which the b of the whole bound, above k, sees;
    - over Q[x], an entry of M plus 1 / (2 * L_i * S * R), a denominator the
      scales leave;
    - two diagonals of D swapped;
    - P = D = I, Q = I but Q_00 = 2**(t-1), and M = I but M_00 = x -
      2**(t-1): the difference is 2**t - x, which vanishes at x = 2**t,
      while B = 2**(t-1) + 1, so the b of the bound lies above t.
    """
    qx = ring == RATIONAL_POLYNOMIALS
    kinds = ["honest", "off by one", "scaled", "swapped"]
    kinds += ["shifted", "uncleared", "collision"] if qx else []
    kind = draw(st.sampled_from(kinds))
    if kind == "collision":
        n, t = draw(st.integers(1, 3)), draw(st.integers(1, 200))
        one = Matrix.identity(n, ring)
        q = _replaced(one, 0, 0, RatPoly([2 ** (t - 1)]))
        return _replaced(one, 0, 0, RatPoly([-(2 ** (t - 1)), 1])), SnfResult(one, one, q)
    n_rows, n_cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    m = Matrix.from_rows([[_entry(draw, ring) for _ in range(n_cols)] for _ in range(n_rows)], ring)
    result = smith_normal_form(m)
    p, d, q = result.P, result.D, result.Q
    if kind == "off by one":
        name = draw(st.sampled_from(["P", "Q"]))
        t = p if name == "P" else q
        i, j = draw(st.integers(0, t.n_rows - 1)), draw(st.integers(0, t.n_cols - 1))
        t = _replaced(t, i, j, _off_by_one(draw, t[i, j], ring))
        result = SnfResult(t, d, q) if name == "P" else SnfResult(p, d, t)
    elif kind in ("scaled", "shifted"):
        # k near the b of the whole bound (scaled) or of M's side alone (shifted)
        left, target = product_test_bounds(m, result) if qx else (2**33, 0)
        near = (max(left, target) if kind == "scaled" else target).bit_length() + 2
        spread = [0, -1, 1, -2, 2, -3, 3][: 7 if kind == "scaled" else 3]
        k = max(1, near + draw(st.sampled_from(spread)))
        i, j = draw(st.integers(0, n_cols - 1)), draw(st.integers(0, n_cols - 1))
        v = q[i, j] * 2**k if kind == "scaled" else q[i, j] + RatPoly([-(2**k), 1])
        result = SnfResult(p, d, _replaced(q, i, j, v))
    elif kind == "uncleared":
        rows, s, r = product_test_scales(result)
        i, j = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_cols - 1))
        m = _replaced(m, i, j, m[i, j] + RatPoly([Fraction(1, 2 * rows[i] * s * r)]))
    elif kind == "swapped" and min(n_rows, n_cols) >= 2:
        index = st.integers(0, min(n_rows, n_cols) - 1)
        a, b = draw(st.lists(index, min_size=2, max_size=2, unique=True))
        d = _replaced(_replaced(d, a, a, d[b, b]), b, b, d[a, a])
        result = SnfResult(p, d, q)
    return m, result


@pytest.mark.parametrize("name", ALL_RING_NAMES)
@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_product_test_agrees_with_the_element_product(name, data):
    """verify_snf reports that P * D * Q does not reproduce M exactly when
    (P * diag D) @ Q_head, on element arithmetic, differs from M."""
    m, result = data.draw(certificates(parse_ring(name)))
    failed = "P*D*Q does not reproduce the input" in verify_snf(m, result).failures
    assert failed == (not element_product_reproduces(m, result))
