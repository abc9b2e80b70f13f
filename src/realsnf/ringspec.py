"""Ring selection: the rational integers, Q[x], or a real quadratic integer ring.

The quadratic rings are restricted to norm-Euclidean discriminants so that the
division-based algorithms (gcd, Smith reduction) terminate:

    Zsqrt:<d>   Z[sqrt(d)]          with d in {2, 3, 6, 7, 11}
    Zhalf:<d>   Z[(1+sqrt(d))/2]    with d in {5, 13}

Anything outside the allowlist fails loudly instead of silently running
non-Euclidean arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import ParseError, UnsupportedRingError
from .polynomials import _cut, parse_int

SQRT_FORM_ALLOWED = frozenset({2, 3, 6, 7, 11})
HALF_FORM_ALLOWED = frozenset({5, 13})


def _d_text(d: int) -> str:
    """d for an error message; a long one is cut like any other echoed input."""
    text = str(d)
    return text if len(text) <= 20 else _cut(text)


class RingFamily(Enum):
    INTEGERS = "Z"
    RATIONAL_POLYNOMIALS = "Q[x]"
    QUADRATIC_INTEGERS = "quadratic"


@dataclass(frozen=True)
class RingSpec:
    """A ring, compared by value; ``quadratic_ring`` shares one spec per d."""

    family: RingFamily
    d: int | None = None
    # Derived from d once, for quadratic arithmetic: w**2 = w2_rational + w
    # when uses_half_basis (w = (1+sqrt(d))/2), else w**2 = w2_rational = d.
    uses_half_basis: bool = field(init=False, repr=False, compare=False)
    w2_rational: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        half, w2 = False, None
        if self.family is RingFamily.QUADRATIC_INTEGERS:
            if self.d is None:
                raise UnsupportedRingError("quadratic ring requires a parameter d")
            if self.d not in SQRT_FORM_ALLOWED and self.d not in HALF_FORM_ALLOWED:
                raise UnsupportedRingError(
                    f"d={_d_text(self.d)} is outside the norm-Euclidean allowlist "
                    f"{sorted(SQRT_FORM_ALLOWED)} (sqrt form) / "
                    f"{sorted(HALF_FORM_ALLOWED)} (half-integer form)"
                )
            half = self.d % 4 == 1
            w2 = (self.d - 1) // 4 if half else self.d
        elif self.d is not None:
            raise UnsupportedRingError(f"{self.family.value} takes no parameter d")
        object.__setattr__(self, "uses_half_basis", half)
        object.__setattr__(self, "w2_rational", w2)

    def __str__(self) -> str:
        if self.family is RingFamily.INTEGERS:
            return "Z"
        if self.family is RingFamily.RATIONAL_POLYNOMIALS:
            return "Q[x]"
        if self.uses_half_basis:
            return f"Zhalf:{self.d}"
        return f"Zsqrt:{self.d}"


INTEGERS = RingSpec(RingFamily.INTEGERS)
RATIONAL_POLYNOMIALS = RingSpec(RingFamily.RATIONAL_POLYNOMIALS)


_QUADRATIC_RINGS = {
    d: RingSpec(RingFamily.QUADRATIC_INTEGERS, d)
    for d in sorted(SQRT_FORM_ALLOWED | HALF_FORM_ALLOWED)
}


def quadratic_ring(d: int) -> RingSpec:
    """The one shared spec for d; building one for a d outside the allowlist raises."""
    return _QUADRATIC_RINGS.get(d) or RingSpec(RingFamily.QUADRATIC_INTEGERS, d)


def parse_ring(text: str) -> RingSpec:
    """Parse "Z", "Q[x]", "Zsqrt:<d>" or "Zhalf:<d>"."""
    if not isinstance(text, str):
        raise ParseError(f"ring must be a string, got {text!r}")
    text = text.strip()
    if text == "Z":
        return INTEGERS
    if text == "Q[x]":
        return RATIONAL_POLYNOMIALS
    for prefix, half in (("Zsqrt:", False), ("Zhalf:", True)):
        if text.startswith(prefix):
            body = text[len(prefix):]
            try:
                d = parse_int(body)
            except ValueError:
                raise ParseError(f"ring parameter {_cut(body)} is not an integer") from None
            except ParseError as exc:
                raise ParseError(f"ring parameter {exc}") from None
            if half != (d % 4 == 1):
                form = "Zhalf" if d % 4 == 1 else "Zsqrt"
                raise UnsupportedRingError(
                    f"d={_d_text(d)} belongs to the {form} form, not {prefix[:-1]}"
                )
            return quadratic_ring(d)
    raise ParseError(f"unknown ring {_cut(text)}; expected Z, Q[x], Zsqrt:<d> or Zhalf:<d>")
