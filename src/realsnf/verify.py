"""End-to-end positivity verification and the randomized falsification harness.

The pipeline for a symmetric matrix is: decide positive semidefiniteness on
the real spectrum, compute the Smith Normal Form, and try to replace every
nonzero diagonal by a totally positive associate.  :class:`TheoremReport`
holds those facts, and its ``conclusion`` combines them with the ring's
unit-sign capability (see :func:`realsnf.rings.pnri`) into a verdict:

* ``TheoremHolds``            PSD input and every diagonal positivizable;
* ``TheoremFailsPnriFails``   PSD input, some diagonal stuck with mixed
                              signs, and the ring's units cannot fix signs;
* ``NotApplicableNotPsd``     the input was not PSD to begin with.

A PSD input over a ring whose units do realize all sign patterns must always
land in ``TheoremHolds``; a report that says otherwise cannot be built (it
raises :class:`TheoremConsistencyError`), because it would mean this
library is broken, not the input.

Randomness is a splitmix64 stream (documented in :class:`SplitMix64`), so
trial data is reproducible across platforms and implementations.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from . import polynomials, rings, spectrum
from .errors import (
    CounterexampleConditionError,
    PreconditionFailedError,
    RealSnfError,
    TheoremConsistencyError,
)
from .matrices import Matrix, smith_diagonals
from .polynomials import RatPoly
from .quadratic import QuadElem
from .rings import Element
from .ringspec import RATIONAL_POLYNOMIALS, RingFamily, RingSpec, quadratic_ring


class Conclusion(str, Enum):
    THEOREM_HOLDS = "TheoremHolds"
    THEOREM_FAILS_PNRI_FAILS = "TheoremFailsPnriFails"
    NOT_APPLICABLE_NOT_PSD = "NotApplicableNotPsd"


def _sign_data(a: Element, associate: Element | None, ring: RingSpec) -> dict:
    """The JSON sign data of a nonzero diagonal a with the given positive associate."""
    if ring.family is RingFamily.INTEGERS:
        return {"sign": str((a > 0) - (a < 0))}
    if ring.family is RingFamily.RATIONAL_POLYNOMIALS:
        # a != 0, so a and -a are not both nonnegative on R
        return {"nonneg_on_reals": associate == a, "negation_nonneg": associate == -a}
    pattern = a.sign_pattern()
    return {"at_plus": str(pattern.at_plus), "at_minus": str(pattern.at_minus)}


@dataclass(frozen=True)
class TheoremReport:
    """Per-matrix facts of the positivity pipeline; ``conclusion`` applies the
    theorem's rule to them, and a report whose facts breach it cannot be built."""

    ring: RingSpec
    input_psd: bool
    snf_diagonals: tuple[Element, ...]
    positive_associates: tuple[Element | None, ...]

    def __post_init__(self) -> None:
        self.conclusion  # raises TheoremConsistencyError on a breach

    @property
    def sign_data(self) -> tuple[dict, ...]:
        pairs = zip(self.snf_diagonals, self.positive_associates)
        return tuple(_sign_data(d, a, self.ring) for d, a in pairs)

    @property
    def positivizable(self) -> tuple[bool, ...]:
        return tuple(a is not None for a in self.positive_associates)

    @property
    def pnri(self) -> bool:
        return rings.pnri(self.ring)

    @property
    def conclusion(self) -> Conclusion:
        if not self.input_psd:
            return Conclusion.NOT_APPLICABLE_NOT_PSD
        if all(self.positivizable):
            return Conclusion.THEOREM_HOLDS
        if not self.pnri:
            return Conclusion.THEOREM_FAILS_PNRI_FAILS
        raise TheoremConsistencyError(
            f"PSD input over {self.ring} (units realize every sign pattern) produced "
            f"a diagonal with no totally positive associate: "
            f"{[str(d) for d in self.snf_diagonals]}"
        )

    def to_json(self) -> dict:
        return {
            "ring": str(self.ring),
            "input_psd": self.input_psd,
            "snf_diagonals": [str(d) for d in self.snf_diagonals],
            "sign_data": list(self.sign_data),
            "positivizable": list(self.positivizable),
            "positive_associates": [
                None if a is None else str(a) for a in self.positive_associates
            ],
            "pnri": self.pnri,
            "conclusion": self.conclusion.value,
        }


def verify_main_theorem(m: Matrix) -> TheoremReport:
    """Run the full pipeline on a symmetric matrix and assemble its report."""
    ring = m.ring
    # one elimination feeds both stages: its pivots decide PSD, and its
    # minors give the Smith stage a modulus G, and with it the diagonals at
    # once or modulo G; no witness is looked for
    psd, elimination = spectrum.psd_decision(m)
    diagonals = smith_diagonals(m, elimination)
    associates = tuple(rings.positive_associate(d, ring) for d in diagonals)
    return TheoremReport(ring, psd, diagonals, associates)


# -- the 2x2 counterexample template ---------------------------------------------


@dataclass(frozen=True)
class CounterexampleRecipe:
    """Ingredients a, b, c, d1, e1, epsilon for the 2x2 construction.

    Valid recipes satisfy a*c - b**2*e1 = epsilon with epsilon a unit, and
    a*d1 >= 0, c*d1*e1 >= 0, d1**2*e1 >= 0 on the whole real spectrum.  The
    resulting matrix [[a*d1, b*d1*e1], [b*d1*e1, c*d1*e1]] is then PSD while
    its first Smith diagonal is an associate of d1 * gcd(a, b).
    """

    ring: RingSpec
    a: Element
    b: Element
    c: Element
    d1: Element
    e1: Element
    epsilon: Element

    def to_json(self) -> dict:
        return {
            "ring": str(self.ring),
            **{name: str(getattr(self, name)) for name in ("a", "b", "c", "d1", "e1", "epsilon")},
        }


def builtin_counterexample_recipe() -> CounterexampleRecipe:
    """The stock failing configuration over Z[sqrt(3)].

    d1 = a = c = 1+sqrt(3) changes sign at the two embeddings, e1 = epsilon
    = 2+sqrt(3) is the (totally positive) fundamental unit, and the identity
    (1+sqrt(3))**2 - (2+sqrt(3)) = 2+sqrt(3) makes the determinant condition
    hold with a genuine unit.
    """
    ring = quadratic_ring(3)
    q = QuadElem(1, 1, ring)
    u = QuadElem(2, 1, ring)
    return CounterexampleRecipe(
        ring=ring, a=q, b=rings.one(ring), c=q, d1=q, e1=u, epsilon=u
    )


def recipe_from_json(data: dict, ring: RingSpec) -> CounterexampleRecipe:
    values = {}
    for name in ("a", "b", "c", "d1", "e1", "epsilon"):
        if name not in data:
            raise CounterexampleConditionError(f"recipe field {name!r} is missing")
        try:
            values[name] = rings.parse_element(data[name], ring)
        except RealSnfError as exc:
            raise CounterexampleConditionError(
                f"recipe field {name!r} is not an element of {ring}: {exc}"
            ) from None
    return CounterexampleRecipe(ring=ring, **values)


def build_counterexample(recipe: CounterexampleRecipe) -> Matrix:
    """Validate the recipe conditions and return the 2x2 symmetric matrix."""
    ring = recipe.ring
    a, b, c = recipe.a, recipe.b, recipe.c
    d1, e1, eps = recipe.d1, recipe.e1, recipe.epsilon

    if a * c - b * b * e1 != eps:
        raise CounterexampleConditionError("a*c - b^2*e1 does not equal epsilon")
    if not rings.is_unit(eps, ring):
        raise CounterexampleConditionError(
            f"epsilon = {eps} is not a unit of {ring}"
        )
    conditions = {
        "a*d1": a * d1,
        "c*d1*e1": c * d1 * e1,
        "d1^2*e1": d1 * d1 * e1,
    }
    for label, value in conditions.items():
        if not spectrum.element_is_nonneg(value, ring):
            raise CounterexampleConditionError(
                f"{label} is not nonnegative on the real spectrum"
            )
    off = b * d1 * e1
    return Matrix.from_rows([[a * d1, off], [off, c * d1 * e1]], ring)


# -- valuation inequality check -----------------------------------------------------


def check_valuation_lemma(a: RatPoly, b: RatPoly, p: RatPoly) -> bool:
    """For a - b^2 >= 0 on R and p a real irreducible: nu_p(a) <= 2*nu_p(b).

    Both preconditions are checked and reported; p must be certified
    irreducible (see :func:`realsnf.polynomials.is_real_irreducible`), so a
    reducible or uncertifiable p raises.  The inequality holds
    vacuously when a or b is zero, since nu_p of the zero polynomial is
    +infinity.
    """
    diff = a - b * b
    if not polynomials.is_nonneg_on_reals(diff):
        raise PreconditionFailedError(
            f"a - b^2 is negative at t = {polynomials.find_negative_point(diff)}"
            " (it must be nonnegative on R)"
        )
    if p.degree < 1:
        raise PreconditionFailedError(
            f"p = {p} has degree {p.degree}; an irreducible has degree at least 1"
        )
    if not polynomials.is_real_irreducible(p):
        raise PreconditionFailedError(
            f"p = {p} is not a real irreducible (it needs a real root)"
        )
    if not (a and b):
        return True
    nu_a = rings.valuation(p, a, RATIONAL_POLYNOMIALS)
    return nu_a <= 2 * rings.valuation(p, b, RATIONAL_POLYNOMIALS)


# -- seeded pseudo-random generation -----------------------------------------------


_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """The splitmix64 generator, fixed here as the cross-language random source.

    state <- state + 0x9E3779B97F4A7C15 (mod 2^64), then the output is
    mix(state) with mix(z): z ^= z >> 30; z *= 0xBF58476D1CE4E5B9;
    z ^= z >> 27; z *= 0x94D049BB133111EB; z ^= z >> 31 (all mod 2^64).
    Bounded draws are lo + next_u64() % (hi - lo + 1).
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix64(self._state)

    def next_int(self, lo: int, hi: int) -> int:
        if lo > hi:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)


def derive_seed(master_seed: int, index: int) -> int:
    """Per-trial seed: mix(master + (index+1) * golden), documented and fixed."""
    return _mix64((master_seed + (index + 1) * _GOLDEN) & _MASK)


# Inclusive upper limits of a suite.  At the degree and height limits the
# slowest of 60 seeded Q[x] trials of size 5 took 1.3 s on one shared Xeon
# core (CPython 3.11); the cost grows fast with both, and degree 8 at height
# 10**6 reached 77 s.
MAX_TRIAL_SIZE = 5
MAX_TRIAL_COUNT = 10_000
MAX_TRIAL_HEIGHT = 100
MAX_TRIAL_DEGREE = 4
# (TrialConfig field, the suite flag that sets it, lowest, highest value)
TRIAL_LIMITS = (
    ("matrix_size", "--size", 1, MAX_TRIAL_SIZE),
    ("entry_height_bound", "--height", 1, MAX_TRIAL_HEIGHT),
    ("trial_count", "--trials", 0, MAX_TRIAL_COUNT),
    ("max_degree", "--degree", 0, MAX_TRIAL_DEGREE),
)


@dataclass(frozen=True)
class TrialConfig:
    """Deterministic generation parameters; equal configs give equal data.

    ``matrix_size`` is the maximum size (each trial draws 1..matrix_size);
    ``max_degree`` only matters over Q[x].
    """

    ring: RingSpec
    matrix_size: int = 4
    entry_height_bound: int = 3
    trial_count: int = 100
    seed: int = 0
    max_degree: int = 2

    def __post_init__(self) -> None:
        for name, _, low, high in TRIAL_LIMITS:
            if not low <= getattr(self, name) <= high:
                raise ValueError(f"{name} must be between {low} and {high}")


def _random_entry(rng: SplitMix64, cfg: TrialConfig) -> Element:
    h = cfg.entry_height_bound
    family = cfg.ring.family
    if family is RingFamily.INTEGERS:
        return rng.next_int(-h, h)
    if family is RingFamily.RATIONAL_POLYNOMIALS:
        degree = rng.next_int(0, cfg.max_degree)
        return RatPoly([rng.next_int(-h, h) for _ in range(degree + 1)])
    return QuadElem(rng.next_int(-h, h), rng.next_int(-h, h), cfg.ring)


def random_matrix(cfg: TrialConfig) -> Matrix:
    """Square matrix from the documented stream: size first, then row-major entries."""
    rng = SplitMix64(cfg.seed)
    size = rng.next_int(1, cfg.matrix_size)
    rows = [[_random_entry(rng, cfg) for _ in range(size)] for _ in range(size)]
    return Matrix.from_rows(rows, cfg.ring)


def random_psd_matrix(cfg: TrialConfig) -> Matrix:
    """N * N^T for a seeded random N: symmetric and PSD by construction."""
    n = random_matrix(cfg)
    return n @ n.transpose()


@dataclass(frozen=True)
class SuiteSummary:
    """Aggregate of a falsification run; any breach means the library is broken.

    ``outcomes[i]`` is trial i's report, or the consistency error it raised.
    """

    outcomes: tuple[TheoremReport | TheoremConsistencyError, ...]

    @property
    def reports(self) -> tuple[TheoremReport, ...]:
        return tuple(o for o in self.outcomes if isinstance(o, TheoremReport))

    @property
    def breaches(self) -> tuple[str, ...]:
        pairs = enumerate(self.outcomes)
        return tuple(f"trial {i}: {o}" for i, o in pairs if not isinstance(o, TheoremReport))

    @property
    def conclusion_counts(self) -> dict[str, int]:
        return dict(Counter(r.conclusion.value for r in self.reports))

    @property
    def ok(self) -> bool:
        return not self.breaches

    def to_json(self) -> dict:
        return {
            "trials": len(self.outcomes),
            "conclusions": self.conclusion_counts,
            "breaches": list(self.breaches),
            "ok": self.ok,
        }


def run_property_suite(cfg: TrialConfig) -> SuiteSummary:
    """Generate PSD matrices, run the pipeline, and keep each trial's outcome.

    A consistency breach is kept as that trial's outcome rather than raised,
    so a run always produces a summary.
    """
    outcomes: list[TheoremReport | TheoremConsistencyError] = []
    for index in range(cfg.trial_count):
        trial_cfg = dataclasses.replace(cfg, seed=derive_seed(cfg.seed, index))
        try:
            outcomes.append(verify_main_theorem(random_psd_matrix(trial_cfg)))
        except TheoremConsistencyError as exc:
            outcomes.append(exc)
    return SuiteSummary(tuple(outcomes))
