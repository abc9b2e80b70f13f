"""Exact positivity on the real spectrum of the active ring.

For Z there is a single ordering; for Q[x] positivity means pointwise
nonnegativity of polynomial functions on R; for a real quadratic ring it
means nonnegativity under both real embeddings.  Every ring is decided the
same way, exactly in the ring, so no embedding is ever evaluated with
floating point: the pivots of one fraction-free symmetric elimination
(:func:`matrices.symmetric_elimination`), which are principal minors, get
one sign test each, up to the first negative one: a >= 0 exactly when its
positive associate (:func:`rings.positive_associate`) is a itself.

:func:`psd_decision` returns the verdict with the elimination, whose minors
give the Smith stage of ``verify`` a modulus G (see
:func:`matrices.smith_diagonals`).  :func:`is_psd_on_spectrum` adds the
witness of a not-PSD verdict: only then are principal minors enumerated and
tested, and :func:`negative_ordering` locates where the first failing one is negative.

This is the package's only PSD decision.  The oracles that cross-check it
(minor enumeration, and exact elimination over Q at rational points) live
in the test suite, so they share no code with it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import polynomials, rings
from .errors import NotSymmetricError, SizeLimitError
from .matrices import Elimination, Matrix, determinant, symmetric_elimination
from .rings import Element
from .ringspec import RingFamily, RingSpec

PSD_SIZE_LIMIT = 8
# The Q[x] caps of psd_decision.  The Sturm chain that may decide a pivot's
# sign takes roughly degree^4 * bits^2.5; the README gives the times
# measured at the caps.
PSD_DEGREE_LIMIT = 176
PSD_PIVOT_COST_LIMIT = 10**6


def negative_ordering(a: Element, ring: RingSpec) -> dict:
    """PsdWitness fields naming where a, which :func:`element_is_nonneg`
    rejects, is negative (the plus embedding first)."""
    if ring.family is RingFamily.INTEGERS:
        return {}
    if ring.family is RingFamily.RATIONAL_POLYNOMIALS:
        return {"point": polynomials.find_negative_point(a)}
    return {"embedding": "plus" if a.sign_pattern().at_plus < 0 else "minus"}


def element_is_nonneg(a: Element, ring: RingSpec) -> bool:
    """a >= 0 at every point of the real spectrum."""
    a = rings.coerce(a, ring)
    return not a or rings.positive_associate(a, ring) == a


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
    """The witness :func:`is_psd_on_spectrum` found that M is not PSD, if any;
    ``is_psd`` is read off it."""

    witness: PsdWitness | None

    @property
    def is_psd(self) -> bool:
        return self.witness is None

    def to_json(self) -> dict:
        return {
            "is_psd": self.is_psd,
            "witness": None if self.witness is None else self.witness.to_json(),
        }


def _principal_index_sets(n: int):
    for k in range(1, n + 1):
        yield from itertools.combinations(range(n), k)


def psd_decision(m: Matrix) -> tuple[bool, Elimination]:
    """Whether M is PSD over the whole real spectrum, exactly, and the
    :func:`matrices.symmetric_elimination` of M the verdict was read from.

    The pivots of the elimination are principal minors, tested in order up
    to the first negative one:

    - A pivot negative at some ordering is a negative principal minor: not PSD.
    - Otherwise every pivot is >= 0 everywhere.  Take an ordering t at which
      no pivot vanishes: over Z and the quadratic rings that is every
      ordering, over Q[x] every real point but finitely many.  At t, M is
      congruent to the pivots, all > 0, plus the remaining block.  If the
      elimination ran out of rows or left a zero block, M(t) is PSD.  If it
      is stuck after pivots on the rows S, on a nonzero block (a_ij) with a
      zero diagonal, det M[S+i+j] = -a_ij**2 / det M[S, S] < 0 wherever
      a_ij != 0, so M is not PSD.
    - Over Q[x] a PSD verdict at all but finitely many points is a verdict
      at every point, because PSD is a closed condition.

    The 8 x 8 cap bounds the witness search of :func:`is_psd_on_spectrum`,
    which is exponential, and ``verify``'s Smith stage on the inputs it
    still reduces from scratch, stuck ones and Q[x] ones whose modulus G is
    not a unit (an N * N^T input at n = 40 over Zsqrt:2 once took over 150 s).
    Over Q[x] an input is refused past PSD_DEGREE_LIMIT, or when a pivot
    of degree d with b-bit primitive coefficients has d^2 * b past
    PSD_PIVOT_COST_LIMIT: an 8 x 8 N * N^T input with pivots of degree about
    400 ran for minutes in the Sturm chain of one pivot.
    """
    if not m.is_symmetric():
        raise NotSymmetricError("the matrix is not symmetric")
    n = m.n_rows
    if n > PSD_SIZE_LIMIT:
        raise SizeLimitError(f"PSD test is capped at {PSD_SIZE_LIMIT}x{PSD_SIZE_LIMIT}")
    q_x = m.ring.family is RingFamily.RATIONAL_POLYNOMIALS
    if q_x:
        degree = max((e.degree for row in m.entries for e in row), default=0)
        if n * degree > PSD_DEGREE_LIMIT:
            raise SizeLimitError(
                f"Q[x] PSD test is capped at n * (max entry degree) = {PSD_DEGREE_LIMIT};"
                f" this input has {n} * {degree} = {n * degree}"
            )
    elimination = symmetric_elimination(m)
    if q_x:
        for i, p in enumerate(elimination.pivots, 1):
            bits = max(map(abs, p.int_coefficients()), default=0).bit_length()
            if p.degree**2 * bits > PSD_PIVOT_COST_LIMIT:
                raise SizeLimitError(
                    "Q[x] PSD test is capped at degree^2 * (coefficient bits)"
                    f" = {PSD_PIVOT_COST_LIMIT} per pivot; pivot {i} of this input has"
                    f" {p.degree}^2 * {bits} = {p.degree**2 * bits}"
                )
    psd = not elimination.stuck and all(element_is_nonneg(p, m.ring) for p in elimination.pivots)
    return psd, elimination


def is_psd_on_spectrum(m: Matrix) -> PsdReport:
    """Positive semidefiniteness over the whole real spectrum, exactly, as
    :func:`psd_decision` decides it.

    Only when M is not PSD are the principal minors enumerated, to report
    the first one (smallest size, then lexicographic) that is not >= 0 as
    the witness, with an ordering where it is negative.
    """
    if psd_decision(m)[0]:
        return PsdReport(None)
    for idx in _principal_index_sets(m.n_rows):
        minor = determinant(m.submatrix(idx, idx))
        if not element_is_nonneg(minor, m.ring):
            where = negative_ordering(minor, m.ring)
            return PsdReport(PsdWitness(tuple(i + 1 for i in idx), **where))
    raise ArithmeticError("the PSD test failed but no principal minor is negative")
