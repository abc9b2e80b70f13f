"""Shared random-matrix builders for the test suite."""

from realsnf import INTEGERS, RATIONAL_POLYNOMIALS
from realsnf.matrices import Matrix, determinant
from realsnf.polynomials import RatPoly
from realsnf.quadratic import QuadElem, exact_divide, fundamental_unit
from realsnf import rings


def unit_power(u, k):
    """u**k for a quadratic unit u and any integer k; k < 0 raises 1 / u to -k."""
    if k < 0:
        u, k = exact_divide(QuadElem(1, 0, u.ring), u), -k
    return u**k


def rand_matrix(rng, ring, n_rows, n_cols, height=4):
    def entry():
        if ring is INTEGERS:
            return rng.randint(-height, height)
        if ring is RATIONAL_POLYNOMIALS:
            return RatPoly([rng.randint(-height, height) for _ in range(rng.randint(1, 3))])
        return QuadElem(rng.randint(-height, height), rng.randint(-height, height), ring)

    return Matrix.from_rows([[entry() for _ in range(n_cols)] for _ in range(n_rows)], ring)


def random_unimodular(rng, ring, n, steps=6):
    m = Matrix.identity(n, ring)
    rows = [list(r) for r in m.entries]
    for _ in range(steps):
        op = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if op == 0 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif op == 1 and i != j:
            if ring is INTEGERS:
                c = rng.randint(-2, 2)
            elif ring is RATIONAL_POLYNOMIALS:
                c = RatPoly([rng.randint(-2, 2), rng.randint(-1, 1)])
            else:
                c = QuadElem(rng.randint(-1, 1), rng.randint(-1, 1), ring)
            c = rings.coerce(c, ring)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        else:
            if ring is INTEGERS:
                u = -1
            elif ring is RATIONAL_POLYNOMIALS:
                u = RatPoly([rng.choice([-2, -1, 1, 2, 3])])
            else:
                u = rng.choice([-1, fundamental_unit(ring).unit, QuadElem(-1, 0, ring)])
            u = rings.coerce(u, ring)
            rows[i] = [u * a for a in rows[i]]
    result = Matrix.from_rows(rows, ring)
    assert rings.is_unit(determinant(result), ring)
    return result
