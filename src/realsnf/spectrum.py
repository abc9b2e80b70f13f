"""Exact positivity on the real spectrum of the active ring.

For Z there is a single ordering; for Q[x] positivity means pointwise
nonnegativity of polynomial functions on R; for a real quadratic ring it
means nonnegativity under both real embeddings.  Every ring is decided the
same way, exactly in the ring, so no embedding is ever evaluated with
floating point: one fraction-free symmetric elimination (Bareiss, Math.
Comp. 22, 1968), whose every entry is a ratio of principal minors and whose
every division is exact, with one sign test per pivot.  The only per-family
fact it reads is where an element is negative (`negative_ordering`).

The principal minors are enumerated only on a not-PSD verdict, and only when
the caller asks for the witness.  On a full-rank PSD verdict the elimination
also hands over det M (its last pivot) and three (n-1) x (n-1) minors (the
2 x 2 block left before the last two pivots), which the Smith stage of
``verify`` reads instead of reducing M again.

This is the package's only PSD decision.  The oracles that cross-check it
(minor enumeration, and exact elimination over Q at rational points) live
in the test suite, so they share no code with it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import polynomials, rings
from .errors import NotSymmetricError, SizeLimitError
from .matrices import Matrix, determinant
from .rings import Element
from .ringspec import RingFamily, RingSpec

PSD_SIZE_LIMIT = 8


def negative_ordering(a: Element, ring: RingSpec) -> dict | None:
    """PsdWitness fields naming where a < 0 (plus embedding first), or None if a >= 0."""
    if ring.family is RingFamily.INTEGERS:
        return {} if a < 0 else None
    if ring.family is RingFamily.RATIONAL_POLYNOMIALS:
        point = polynomials.find_negative_point(a)
        return None if point is None else {"point": point}
    pattern = a.sign_pattern()
    if pattern.at_plus < 0:
        return {"embedding": "plus"}
    return {"embedding": "minus"} if pattern.at_minus < 0 else None


def element_is_nonneg(a: Element, ring: RingSpec) -> bool:
    """a >= 0 at every point of the real spectrum."""
    return negative_ordering(rings.coerce(a, ring), ring) is None


@dataclass(frozen=True)
class PsdWitness:
    """A principal minor that goes negative; rows are 1-based indices.

    ``embedding`` ("plus"/"minus") is set for quadratic rings, ``point`` for
    Q[x]; neither is needed over Z.
    """

    minor_rows: tuple[int, ...]
    embedding: str | None = None
    point: Fraction | None = None

    def to_json(self) -> dict:
        return {
            "minor_rows": list(self.minor_rows),
            "embedding": self.embedding,
            "point": None if self.point is None else str(self.point),
        }


@dataclass(frozen=True)
class PsdReport:
    """The verdict and its witness.  ``minors`` is det M followed by three
    (n-1) x (n-1) minors of M when the elimination ran all n pivots (a
    full-rank PSD input), and empty otherwise; it is left out of equality
    and JSON."""

    is_psd: bool
    witness: PsdWitness | None
    minors: tuple[Element, ...] = field(default=(), compare=False, repr=False)

    def to_json(self) -> dict:
        return {
            "is_psd": self.is_psd,
            "witness": None if self.witness is None else self.witness.to_json(),
        }


def _principal_index_sets(n: int):
    for k in range(1, n + 1):
        yield from itertools.combinations(range(n), k)


def _psd_by_elimination(m: Matrix) -> tuple[bool, tuple[Element, ...]]:
    """PSD at every ordering of the ring: Z, Q[x] or a real quadratic ring.

    Returns the verdict and, when all n pivots ran, det M followed by the
    three distinct entries of the 2 x 2 block left with two rows to go,
    which are (n-1) x (n-1) minors of M (for n = 2 that block is M; for
    n = 1 the one minor is the empty one, 1).  Otherwise the tuple is empty.

    After pivots on the rows S, entry (i, j) is det M[S+i, S+j], and the
    last pivot is det M[S, S] (Sylvester's identity), so each update divides
    exactly by the pivot before.  Each round pivots on the first nonzero
    remaining diagonal entry and tests only that pivot's sign:

    - A pivot negative at some ordering is a negative principal minor, so M
      is not PSD.
    - Otherwise every pivot is >= 0 everywhere.  Take an ordering t at which
      no pivot vanishes: over Z and the quadratic rings that is every
      ordering, over Q[x] every real point but finitely many.  At t, M is
      congruent to the pivots, all > 0, plus the remaining block.  If the
      loop empties, M(t) is PSD.  If it stops because every remaining
      diagonal entry is zero, det M[S+i+j] = -a_ij**2 / det M[S, S], which
      is < 0 wherever a_ij != 0; so M is PSD exactly when the rest is zero.
    - Over Q[x] a PSD verdict at all but finitely many points is a verdict
      at every point, because PSD is a closed condition.
    """
    ring = m.ring
    a = [list(row) for row in m.entries]
    rest = list(range(m.n_rows))
    prev = None
    cofactors = (rings.one(ring),)
    while rest:
        if len(rest) == 2:
            i, j = rest
            cofactors = (a[i][i], a[i][j], a[j][j])
        k = next((i for i in rest if a[i][i]), None)
        if k is None:
            return not any(a[i][j] for i in rest for j in rest), ()
        if negative_ordering(a[k][k], ring) is not None:
            return False, ()
        rest.remove(k)
        p, pivot_row = a[k][k], a[k]
        for x, i in enumerate(rest):
            row, aik = a[i], a[i][k]
            for j in rest[x:]:
                v = row[j]
                if v:
                    v = v * p
                if aik and pivot_row[j]:
                    v = v - aik * pivot_row[j]
                if prev is not None and v:
                    v = rings.exact_divide(v, prev, ring)
                    if v is None:
                        raise ArithmeticError("Bareiss division was not exact")
                row[j] = a[j][i] = v
        prev = p
    return True, (prev, *cofactors)


def is_psd_on_spectrum(m: Matrix, witness: bool = True) -> PsdReport:
    """Positive semidefiniteness over the whole real spectrum, exactly.

    One fraction-free symmetric elimination decides every ring.  Only when
    it fails, and ``witness`` is set, are the principal minors enumerated,
    to report the first negative one (smallest size, then lexicographic) as
    the witness; ``verify`` reads only the verdict and passes False.  The
    size cap stays because that witness search is exponential.
    """
    if not m.is_symmetric():
        raise NotSymmetricError("the matrix is not symmetric")
    if m.n_rows > PSD_SIZE_LIMIT:
        raise SizeLimitError(f"PSD test is capped at {PSD_SIZE_LIMIT}x{PSD_SIZE_LIMIT}")
    is_psd, minors = _psd_by_elimination(m)
    if is_psd:
        return PsdReport(True, None, minors)
    if not witness:
        return PsdReport(False, None)
    ring = m.ring
    for idx in _principal_index_sets(m.n_rows):
        where = negative_ordering(determinant(m.submatrix(idx, idx)), ring)
        if where is not None:
            return PsdReport(False, PsdWitness(tuple(i + 1 for i in idx), **where))
    raise ArithmeticError("the PSD test failed but no principal minor is negative")
