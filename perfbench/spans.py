"""Spans around the program's layers, recorded from outside the program.

A :class:`Tracer` replaces each target function with a wrapper at every
attribute of a loaded ``realsnf`` module (or class) that holds it, so a call
is seen whichever binding the pipeline uses (``spectrum`` and ``matrices``
both bind ``determinant``; ``verify`` and ``cli`` bind ``smith_normal_form``).
:meth:`Tracer.remove` puts the originals back, so untraced runs execute the
program unmodified.

Each span records its name, start, end and parent.  Spans are kept in memory
for one matrix and reduced to per-name counts, inclusive time and self time
(the span's duration minus the time its child spans cover) when the matrix
is done.
"""

from __future__ import annotations

import re
import sys
import time
from dataclasses import dataclass

# (module, attribute path, span name, what to keep for size statistics)
TARGETS = (
    ("verify", "verify_main_theorem", "verify.verify_main_theorem", None),
    ("spectrum", "is_psd_on_spectrum", "spectrum.is_psd_on_spectrum", None),
    ("matrices", "determinant", "matrices.determinant", None),
    ("matrices", "smith_normal_form", "matrices.smith_normal_form", "result"),
    ("matrices", "minor_gcd_profile", "matrices.minor_gcd_profile", None),
    ("matrices", "verify_snf", "matrices.verify_snf", None),
    ("matrices", "matrix_from_json", "cli.parse", None),
    ("cli", "_load_input", "cli.parse", None),
    ("cli", "_emit", "cli.emit", None),
    ("rings", "xgcd", "rings.xgcd", None),
    ("rings", "gcd", "rings.gcd", None),
    ("rings", "exact_divide", "rings.exact_divide", None),
    ("rings", "canonicalize", "rings.canonicalize", None),
    ("polynomials", "is_nonneg_on_reals", "polynomials.is_nonneg_on_reals", "args"),
    ("polynomials", "squarefree_decomposition", "polynomials.squarefree_decomposition", None),
    ("polynomials", "sturm_chain", "polynomials.sturm_chain", "result"),
    ("polynomials", "find_negative_point", "polynomials.find_negative_point", None),
    ("polynomials", "positive_associate", "polynomials.positive_associate", None),
    ("polynomials", "RatPoly.__mul__", "polynomials.RatPoly.mul", None),
    ("polynomials", "RatPoly.__divmod__", "polynomials.RatPoly.divmod", None),
    ("polynomials", "RatPoly.sign_at", "polynomials.sign_at", None),
    ("quadratic", "QuadElem.__divmod__", "quadratic.QuadElem.divmod", None),
    ("quadratic", "canonical_associate", "quadratic.canonical_associate", None),
    ("quadratic", "positive_associate", "quadratic.positive_associate", None),
    ("quadratic", "exact_divide", "quadratic.exact_divide", None),
)

SPAN_NAMES = tuple(dict.fromkeys(t[2] for t in TARGETS))
_ID = {name: i for i, name in enumerate(SPAN_NAMES)}
_PSD = _ID["spectrum.is_psd_on_spectrum"]
_DET = _ID["matrices.determinant"]


def _program_modules():
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "realsnf" or name.startswith("realsnf."))
    ]


def _resolve(module_name: str, path: str):
    """(owner, original) for ``path`` inside realsnf.<module_name>, or None."""
    owner = sys.modules.get(f"realsnf.{module_name}")
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    original = getattr(owner, parts[-1], None) if owner is not None else None
    if original is None:
        return None
    return owner, original


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = [-1]
        self.kept: list = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        for module_name, path, span_name, keep in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            owner, original = found
            wrapper = self._wrap(_ID[span_name], original, keep)
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = _program_modules()
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, attr, original))
                        setattr(holder, attr, wrapper)

    def remove(self) -> None:
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    def _wrap(self, nid: int, fn, keep):
        spans, stack, kept = self.spans, self.stack, self.kept
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (nid, start, clock(), parent)
                stack.pop()
            if keep == "result":
                kept.append((nid, result))
            elif keep == "args":
                kept.append((nid, args))
            return result

        return wrapper

    # -- per matrix -------------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.kept.clear()
        del self.stack[1:]

    def collect(self) -> "MatrixTrace":
        """Reduce the spans of the call just finished, then forget them."""
        spans = self.spans
        k = len(SPAN_NAMES)
        calls, incl, self_s = [0] * k, [0.0] * k, [0.0] * k
        child = [0.0] * len(spans)
        for nid, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        under_psd = [False] * len(spans)
        minors = 0
        for i, (nid, start, end, parent) in enumerate(spans):
            d = end - start
            calls[nid] += 1
            incl[nid] += d
            self_s[nid] += d - child[i]
            inside = parent >= 0 and under_psd[parent]
            under_psd[i] = inside or nid == _PSD
            if nid == _DET and inside:
                minors += 1
        trace = MatrixTrace(calls, incl, self_s, minors, list(self.kept))
        self.reset()
        return trace


@dataclass
class MatrixTrace:
    calls: list[int]
    incl: list[float]
    self_s: list[float]
    minors: int
    kept: list


_EXPONENT = re.compile(r"\^\d+")
_INTEGER = re.compile(r"\d+")


def max_bits(text: str) -> int:
    """Largest integer (numerator, denominator or coordinate) in element text."""
    return max(
        (int(m).bit_length() for m in _INTEGER.findall(_EXPONENT.sub("", text))),
        default=0,
    )


def size_stats(trace: MatrixTrace) -> dict[str, float]:
    """Coefficient sizes of the values kept while tracing, computed after the
    timed call so they cost the traced run nothing."""
    transform_bits = diagonal_bits = poly_bits = 0
    chain_lengths: list[int] = []
    for nid, value in trace.kept:
        name = SPAN_NAMES[nid]
        if name == "matrices.smith_normal_form":
            for m in (getattr(value, "P", None), getattr(value, "Q", None)):
                for row in m.to_json()["entries"] if m is not None else ():
                    transform_bits = max(transform_bits, *(max_bits(v) for v in row))
            diagonal_bits = max(
                diagonal_bits, *(max_bits(str(d)) for d in value.diagonals), 0
            )
        elif name == "polynomials.sturm_chain":
            chain_lengths.append(len(value.chain))
            poly_bits = max(poly_bits, *(max_bits(str(p)) for p in value.chain))
        elif name == "polynomials.is_nonneg_on_reals":
            poly_bits = max(poly_bits, max_bits(str(value[0])))
    return {
        "matrices.transform_bits": transform_bits,
        "matrices.diagonal_bits": diagonal_bits,
        "polynomials.peak_coeff_bits": poly_bits,
        "polynomials.sturm_chain.length": (
            sum(chain_lengths) / len(chain_lengths) if chain_lengths else 0
        ),
    }
