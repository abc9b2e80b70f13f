"""Property: the Smith diagonals ``verify`` reads off the PSD elimination
equal those of the plain reduction, over Z and the seven quadratic rings.

Inputs are n x n with n <= 4, of four kinds:

- planted chains U * diag(d) * U^T (``known_smith_congruence``);
- symmetric matrices with small entries, and N * N^T, each times c in
  {1, 2, 3, 6}: the modulus G is then often not a unit, and no entry is a
  unit modulo G when c shares a factor with it;
- [[p * A, B^T], [B, C]] with 2 x 2 blocks and a prime p.  The minors the
  elimination hands over are multiples of p, since det(p * A) = p^2 * det A,
  but M is invertible modulo p when det B is not a multiple of p: often
  every pivot is a unit modulo G, four of them for k = 3.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from realsnf import INTEGERS, matrices, parse_ring, rings
from realsnf.matrices import Matrix, smith_diagonals, symmetric_elimination
from realsnf.quadratic import QuadElem

from helpers import known_smith_congruence

RING_NAMES = ["Z", "Zsqrt:2", "Zsqrt:3", "Zsqrt:6", "Zsqrt:7", "Zsqrt:11", "Zhalf:5", "Zhalf:13"]


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
