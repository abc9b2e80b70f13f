"""Independent exact arithmetic for building inputs and checking outputs.

The benchmark does not trust the program it measures: it builds every input
matrix with the arithmetic below, and re-derives what it checks (products,
signs at an embedding or a point, norms) the same way.  Nothing here imports
``realsnf``; elements cross into the program only as the documented JSON
text forms.

Elements per ring:

* ``Z``: ``int``;
* ``Q[x]``: a tuple of ``Fraction`` coefficients, constant term first,
  without trailing zeros (the zero polynomial is ``()``);
* ``Zsqrt:d`` / ``Zhalf:d``: an integer pair ``(x, y)`` meaning x + y*w,
  with w = sqrt(d), respectively w = (1+sqrt(d))/2.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

PNRI_TRUE_D = frozenset({2, 5, 13})


def _sgn(v) -> int:
    return (v > 0) - (v < 0)


class IntRing:
    name = "Z"
    zero = 0

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def is_zero(self, a) -> bool:
        return a == 0

    def to_json(self, a) -> str:
        return str(a)

    def parse(self, text: str):
        return int(text)


class PolyRing:
    name = "Q[x]"
    zero = ()
    one = (Fraction(1),)

    @staticmethod
    def _trim(coeffs) -> tuple:
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return tuple(coeffs)

    def from_ints(self, coeffs) -> tuple:
        return self._trim(Fraction(c) for c in coeffs)

    def add(self, a, b):
        n = max(len(a), len(b))
        return self._trim(
            (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
        )

    def neg(self, a):
        return tuple(-c for c in a)

    def mul(self, a, b):
        if not a or not b:
            return ()
        # Convolve integer numerators over a common denominator: far fewer
        # gcds than multiplying Fractions term by term.
        da = math.lcm(*(c.denominator for c in a))
        db = math.lcm(*(c.denominator for c in b))
        ia = [int(c * da) for c in a]
        ib = [int(c * db) for c in b]
        out = [0] * (len(ia) + len(ib) - 1)
        for i, x in enumerate(ia):
            if x:
                for j, y in enumerate(ib):
                    out[i + j] += x * y
        den = da * db
        return self._trim(Fraction(c, den) for c in out)

    def is_zero(self, a) -> bool:
        return not a

    def evaluate(self, a, t: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(a):
            acc = acc * t + c
        return acc

    def to_json(self, a) -> list[str]:
        return [str(c) for c in a] if a else ["0"]

    _TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*?)?(x(?:\^(\d+))?)?$")

    def parse(self, text: str) -> tuple:
        """Read the program's text form, e.g. "3/2*x^2 - x + 1"."""
        body = text.replace(" ", "")
        if body == "0":
            return ()
        terms = re.findall(r"[+-]?[^+-]+", body)
        if "".join(terms) != body:
            raise ValueError(f"cannot read polynomial {text!r}")
        coeffs: dict[int, Fraction] = {}
        for term in terms:
            sign = -1 if term[0] == "-" else 1
            m = self._TERM.match(term.lstrip("+-"))
            if not m or (m.group(1) is None and m.group(2) is None):
                raise ValueError(f"cannot read term {term!r} of {text!r}")
            coef = Fraction(m.group(1)) if m.group(1) else Fraction(1)
            exp = (int(m.group(3)) if m.group(3) else 1) if m.group(2) else 0
            coeffs[exp] = coeffs.get(exp, Fraction(0)) + sign * coef
        out = [Fraction(0)] * (max(coeffs) + 1)
        for e, c in coeffs.items():
            out[e] = c
        return self._trim(out)


class QuadRing:
    zero = (0, 0)
    one = (1, 0)

    def __init__(self, d: int):
        self.d = d
        self.half = d % 4 == 1
        self.c = (d - 1) // 4
        self.name = f"{'Zhalf' if self.half else 'Zsqrt'}:{d}"

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def neg(self, a):
        return (-a[0], -a[1])

    def mul(self, a, b):
        x1, y1 = a
        x2, y2 = b
        if self.half:  # w**2 = w + (d-1)/4
            return (x1 * x2 + self.c * y1 * y2, x1 * y2 + y1 * x2 + y1 * y2)
        return (x1 * x2 + self.d * y1 * y2, x1 * y2 + y1 * x2)

    def is_zero(self, a) -> bool:
        return a == (0, 0)

    def norm(self, a) -> int:
        x, y = a
        if self.half:
            return x * x + x * y - self.c * y * y
        return x * x - self.d * y * y

    def sign_at(self, a, embedding: str) -> int:
        """Sign of a under sqrt(d) -> +sqrt(d) ("plus") or -sqrt(d) ("minus")."""
        x, y = a
        s, t = (2 * x + y, y) if self.half else (x, y)  # value = (s + t*sqrt(d)) / k
        if embedding == "minus":
            t = -t
        elif embedding != "plus":
            raise ValueError(f"unknown embedding {embedding!r}")
        if s >= 0 and t >= 0:
            return 1 if (s or t) else 0
        if s <= 0 and t <= 0:
            return -1
        return _sgn(s * s - self.d * t * t) if s > 0 else _sgn(self.d * t * t - s * s)

    def sqrt_d_times(self, t: int):
        """The element t*sqrt(d); sqrt(d) = 2w - 1 in the half basis."""
        return (-t, 2 * t) if self.half else (0, t)

    def height_bound(self, a) -> int:
        """An integer at least |a| under both embeddings."""
        x, y = a
        return abs(x) + abs(y) * (math.isqrt(self.d) + 1)

    def to_json(self, a) -> str:
        return f"{a[0]}{a[1]:+}w"

    _TEXT = re.compile(r"^([+-]?\d+)([+-]\d+)w$")

    def parse(self, text: str):
        m = self._TEXT.match(text.replace(" ", ""))
        if m:
            return (int(m.group(1)), int(m.group(2)))
        return (int(text), 0)


def ring_for(name: str):
    if name == "Z":
        return IntRing()
    if name == "Q[x]":
        return PolyRing()
    family, _, d = name.partition(":")
    if family not in ("Zsqrt", "Zhalf"):
        raise ValueError(f"unknown ring {name!r}")
    return QuadRing(int(d))


def pnri_expected(ring) -> bool:
    """Units realize every sign pattern: always over Z and Q[x]; for quadratic
    rings exactly when the fundamental unit has norm -1 (d = 2, 5, 13 here)."""
    return not isinstance(ring, QuadRing) or ring.d in PNRI_TRUE_D


# -- matrices as lists of rows --------------------------------------------------


def matmul(ring, a: list[list], b: list[list]) -> list[list]:
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = ring.zero
            for k, v in enumerate(row):
                if not ring.is_zero(v) and not ring.is_zero(b[k][j]):
                    acc = ring.add(acc, ring.mul(v, b[k][j]))
            out_row.append(acc)
        out.append(out_row)
    return out


def transpose(a: list[list]) -> list[list]:
    return [list(col) for col in zip(*a)]


def leibniz_det(ring, rows: list[list]):
    """Determinant by the permutation expansion; for the small witness minors."""
    n = len(rows)
    total = ring.zero
    for perm in itertools.permutations(range(n)):
        term = ring.one
        for i, j in enumerate(perm):
            term = ring.mul(term, rows[i][j])
        inversions = sum(1 for i in range(n) for k in range(i + 1, n) if perm[i] > perm[k])
        total = ring.add(total, ring.neg(term) if inversions % 2 else term)
    return total


def witness_minor_sign(ring, matrix: list[list], rows: list[int], embedding, point) -> int:
    """Sign of the principal minor on 1-based ``rows`` at the named embedding
    (quadratic rings) or the rational point (Q[x])."""
    idx = [r - 1 for r in rows]
    det = leibniz_det(ring, [[matrix[i][j] for j in idx] for i in idx])
    if isinstance(ring, PolyRing):
        return _sgn(ring.evaluate(det, Fraction(point)))
    return ring.sign_at(det, embedding)
