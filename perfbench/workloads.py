"""Seeded workloads: inputs built from a splitmix64 stream, and output checks.

Case ``i`` of a workload is fixed by (workload, seed, i): its class (ring,
size, kind) comes from a fixed rotation, and its entries from a splitmix64
stream seeded with ``case_seed(seed, i)``.  Runs stop only at the end of a
rotation, so every run holds the same mix of classes and the spread between
seeds comes from the entries alone.

Kinds of input:

* ``psd``: N * N^T with N an n x k matrix (k < n makes it rank-deficient).
  It is PSD at every ordering, so ``input_psd`` must be true.
* ``not_psd``: the same, then broken on purpose.  Over Q[x] a constant c is
  added to the entries (i, j) and (j, i), large enough that the 2x2
  principal minor on rows i, j is negative at x = 0; no other minor of size
  1 or 2 changes, so the first failing minor is exactly (i+1, j+1).  Over a
  quadratic ring t*sqrt(d) is subtracted from (or added to) the diagonal
  entry i, so that entry is negative at the plus (or minus) embedding and
  the matrix stays PSD at the other one: the witness is (i+1,) at that
  embedding, and a PSD test that skips an embedding gets the verdict wrong.
* ``general``: a random square matrix (not symmetric), for ``snf``.

Entries have height at most 3.  Over Q[x] an entry in position (i, j) has
degree (i + j) mod 3 with a nonzero leading coefficient: every matrix of a
class then has the same degree profile, which keeps the cost of one class
from spreading over a factor of ten between seeds.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

from exact import (
    PolyRing,
    QuadRing,
    matmul,
    pnri_expected,
    ring_for,
    transpose,
    witness_minor_sign,
)

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """splitmix64; bounded draws are lo + next_u64() % (hi - lo + 1)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix64(self._state)

    def next_int(self, lo: int, hi: int) -> int:
        return lo + self.next_u64() % (hi - lo + 1)


def case_seed(seed: int, index: int) -> int:
    return _mix64((seed + (index + 1) * _GOLDEN) & _MASK)


@dataclass(frozen=True)
class CaseClass:
    ring: str
    n: int
    kind: str  # "psd", "not_psd" or "general"
    k: int = 0  # columns of N for psd / not_psd


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "verify" or "snf"
    rotation: tuple[CaseClass, ...]


def _qx(n, kind, k=None):
    return CaseClass("Q[x]", n, kind, n if k is None else k)


# qx_verify: n in {4, 5}; 2 of 10 not PSD, 2 of 10 rank-deficient.  Full-rank
# PSD 4 x 4 is the most common class and sits in the middle by cost, so the
# median falls inside one class; PSD 5 x 5 takes half of the time.
_Q4 = _qx(4, "psd")
QX_VERIFY = Workload(
    "qx_verify",
    "verify",
    (
        _qx(5, "psd"), _Q4, _qx(5, "not_psd"), _Q4, _qx(4, "psd", 2),
        _qx(5, "psd"), _Q4, _qx(4, "not_psd"), _Q4, _qx(5, "psd", 3),
    ),
)

QUAD_RINGS = ("Zsqrt:2", "Zsqrt:3", "Zsqrt:6", "Zsqrt:7", "Zsqrt:11", "Zhalf:5", "Zhalf:13")

# quad_verify: n = 8 over all seven rings; every fourth pass is not PSD (1 in 4).
QUAD_VERIFY = Workload(
    "quad_verify",
    "verify",
    tuple(
        CaseClass(ring, 8, "not_psd" if rnd == 3 else "psd", 8)
        for rnd in range(4)
        for ring in QUAD_RINGS
    ),
)

# snf_certified: `realsnf snf` on both sides of the minor-enumeration limit
# (6): the oracle runs at n <= 6 only.  Nine classes, so the median falls
# inside the quadratic n = 5 pair rather than between two classes.
SNF_CERTIFIED = Workload(
    "snf_certified",
    "snf",
    (
        CaseClass("Z", 6, "general"), CaseClass("Z", 8, "general"),
        CaseClass("Zsqrt:2", 5, "general"), CaseClass("Zsqrt:2", 7, "general"),
        CaseClass("Zhalf:13", 5, "general"), CaseClass("Zhalf:13", 7, "general"),
        CaseClass("Q[x]", 6, "general"), CaseClass("Q[x]", 7, "general"),
        CaseClass("Q[x]", 7, "general"),
    ),
)

WORKLOADS = {w.name: w for w in (QX_VERIFY, QUAD_VERIFY, SNF_CERTIFIED)}


@dataclass(frozen=True)
class Case:
    workload: str
    seed: int
    index: int
    case_seed: int
    cls: CaseClass
    rows: list  # entries in the benchmark's own arithmetic
    witness_rows: tuple[int, ...] | None  # expected first failing minor (1-based)
    witness_embedding: str | None  # where it is negative, over a quadratic ring

    @property
    def expect_psd(self) -> bool:
        return self.cls.kind == "psd"

    def entries_json(self) -> list:
        ring = ring_for(self.cls.ring)
        return [[ring.to_json(v) for v in row] for row in self.rows]

    def replay_hint(self) -> str:
        return (
            f"python3 perfbench/run.py --workload {self.workload} "
            f"--seed {self.seed} --replay {self.index}"
        )


HEIGHT = 3
MAX_DEGREE = 2


def _random_entry(ring, rng: SplitMix64, i: int, j: int):
    h = HEIGHT
    if isinstance(ring, PolyRing):
        degree = (i + j) % (MAX_DEGREE + 1)
        lead = rng.next_int(1, h) * (1 - 2 * rng.next_int(0, 1))
        return ring.from_ints([rng.next_int(-h, h) for _ in range(degree)] + [lead])
    if isinstance(ring, QuadRing):
        return (rng.next_int(-h, h), rng.next_int(-h, h))
    return rng.next_int(-h, h)


def make_case(workload: Workload, seed: int, index: int) -> Case:
    cls = workload.rotation[index % len(workload.rotation)]
    cseed = case_seed(seed, index)
    rng = SplitMix64(cseed)
    ring = ring_for(cls.ring)
    witness = embedding = None
    if cls.kind == "general":
        rows = [[_random_entry(ring, rng, i, j) for j in range(cls.n)] for i in range(cls.n)]
    else:
        n_mat = [[_random_entry(ring, rng, i, j) for j in range(cls.k)] for i in range(cls.n)]
        rows = matmul(ring, n_mat, transpose(n_mat))
        if cls.kind == "not_psd" and isinstance(ring, QuadRing):
            i = rng.next_int(0, cls.n - 1)
            embedding = ("plus", "minus")[rng.next_int(0, 1)]
            # |a_ii| <= t - 1 at both embeddings, and sqrt(d) > 1.
            t = ring.height_bound(rows[i][i]) + 1
            rows[i][i] = ring.add(rows[i][i], ring.sqrt_d_times(-t if embedding == "plus" else t))
            witness = (i + 1,)
        elif cls.kind == "not_psd":
            i = rng.next_int(0, cls.n - 2)
            j = rng.next_int(i + 1, cls.n - 1)
            # |a_ij + c| > |a_ii| + |a_jj| >= 2*sqrt(a_ii * a_jj) at x = 0.
            c = sum(abs(v[0]) if v else 0 for v in (rows[i][i], rows[j][j], rows[i][j])) + 1
            rows[i][j] = rows[j][i] = ring.add(rows[i][j], ring.from_ints([c]))
            witness = (i + 1, j + 1)
    return Case(workload.name, seed, index, cseed, cls, rows, witness, embedding)


# -- running one case ---------------------------------------------------------


class Api:
    """The program's entry points, looked up at call time through their modules
    so that the tracer's wrappers are seen."""

    def __init__(self):
        import realsnf
        import realsnf.cli
        import realsnf.matrices
        import realsnf.spectrum
        import realsnf.verify

        self.package = realsnf
        self.cli = realsnf.cli
        self.matrices = realsnf.matrices
        self.spectrum = realsnf.spectrum
        self.verify = realsnf.verify
        self.parse_ring = realsnf.parse_ring


def prepare(api: Api, case: Case):
    """What the timed call needs, built before the clock starts."""
    if case.cls.kind == "general":
        payload = json.dumps(case.entries_json())
        return ["snf", "--ring", case.cls.ring, "--input", payload]
    return api.matrices.matrix_from_json(case.entries_json(), api.parse_ring(case.cls.ring))


def run_timed(api: Api, case: Case, prepared, clock) -> tuple[float, object]:
    if case.cls.kind == "general":
        buf = io.StringIO()
        start = clock()
        with redirect_stdout(buf):
            code = api.cli.main(prepared)
        elapsed = clock() - start
        return elapsed, (code, buf.getvalue())
    start = clock()
    report = api.verify.verify_main_theorem(prepared)
    elapsed = clock() - start
    return elapsed, report


def canonical_output(case: Case, raw) -> str:
    if case.cls.kind == "general":
        code, text = raw
        return f"exit={code}\n{text}"
    return json.dumps(raw.to_json(), sort_keys=True)


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(hashlib.sha256(t.encode()).digest())
    return h.hexdigest()[:16]


def json_bytes(case: Case, raw) -> int:
    """Size of the JSON the snf command printed; 0 for verify."""
    return len(raw[1].encode()) if case.cls.kind == "general" else 0


def verdict(case: Case, raw) -> str:
    """The conclusion of a verify report, or the exit code of snf."""
    if case.cls.kind == "general":
        return f"snf exit {raw[0]}"
    return raw.to_json()["conclusion"]


# -- checks that do not trust the program --------------------------------------


def check(api: Api, case: Case, prepared, raw) -> list[str]:
    try:
        if case.cls.kind == "general":
            return _check_snf(case, raw)
        return _check_verify(api, case, prepared, raw.to_json())
    except Exception as exc:  # a malformed output is a failed check
        return [f"check raised {type(exc).__name__}: {exc}"]


def _check_verify(api: Api, case: Case, matrix, report: dict) -> list[str]:
    ring = ring_for(case.cls.ring)
    bad = []
    if report["input_psd"] is not case.expect_psd:
        bad.append(f"input_psd {report['input_psd']}, built {case.cls.kind}")
    if report["pnri"] is not pnri_expected(ring):
        bad.append(f"pnri {report['pnri']} over {ring.name}")
    conclusion = report["conclusion"]
    if not case.expect_psd:
        if conclusion != "NotApplicableNotPsd":
            bad.append(f"not-PSD input gave {conclusion}")
        bad += _check_witness(api, case, ring, matrix)
        return bad
    if pnri_expected(ring):
        if conclusion != "TheoremHolds":
            bad.append(f"PSD input over a pnri ring gave {conclusion}")
    elif isinstance(ring, QuadRing):
        # Units all have norm +1, so d has a totally positive associate
        # exactly when N(d) > 0.
        diagonals = [ring.parse(t) for t in report["snf_diagonals"]]
        holds = all(ring.norm(v) > 0 for v in diagonals)
        want = "TheoremHolds" if holds else "TheoremFailsPnriFails"
        if conclusion != want:
            bad.append(f"gave {conclusion}, diagonal norms say {want}")
    if isinstance(ring, QuadRing) and conclusion == "TheoremHolds":
        for d_text, a_text in zip(report["snf_diagonals"], report["positive_associates"]):
            d, a = ring.parse(d_text), ring.parse(a_text)
            if min(ring.sign_at(a, "plus"), ring.sign_at(a, "minus")) <= 0:
                bad.append(f"associate {a_text} is not totally positive")
            if abs(ring.norm(a)) != abs(ring.norm(d)):
                bad.append(f"associate {a_text} is not associated to {d_text}")
    return bad


def _check_witness(api: Api, case: Case, ring, matrix) -> list[str]:
    report = api.spectrum.is_psd_on_spectrum(matrix).to_json()
    witness = report["witness"]
    if report["is_psd"] or witness is None:
        return ["not-PSD input has no witness"]
    rows = tuple(witness["minor_rows"])
    bad = []
    if rows != case.witness_rows:
        bad.append(f"witness rows {rows}, built {case.witness_rows}")
    if witness["embedding"] != case.witness_embedding:
        bad.append(f"witness at {witness['embedding']}, built {case.witness_embedding}")
    point = witness["point"]
    sign = witness_minor_sign(
        ring,
        case.rows,
        list(rows),
        witness["embedding"],
        None if point is None else Fraction(point),
    )
    if sign >= 0:
        where = witness["embedding"] or point
        bad.append(f"witness minor {rows} is not negative at {where}")
    return bad


def _check_snf(case: Case, raw) -> list[str]:
    code, text = raw
    if code != 0:
        return [f"snf exited {code}"]
    out = json.loads(text)
    ring = ring_for(case.cls.ring)
    bad = []
    if out["verified"] is not True:
        bad.append("snf reported verified != true")
    if out["ring"] != ring.name:
        bad.append(f"ring {out['ring']}")
    n = case.cls.n
    p, d, q = ([[ring.parse(v) for v in row] for row in out[k]["entries"]] for k in "PDQ")
    if any(len(m) != n or any(len(r) != n for r in m) for m in (p, d, q)):
        return bad + ["transform shapes"]
    diagonals = [ring.parse(v) for v in out["diagonals"]]
    if out["rank"] != len(diagonals):
        bad.append("rank differs from the number of diagonals")
    want_diag = diagonals + [ring.zero] * (n - len(diagonals))
    for i in range(n):
        for j in range(n):
            want = want_diag[i] if i == j else ring.zero
            if d[i][j] != want:
                bad.append(f"D[{i}][{j}] is not the listed diagonal")
                break
    if matmul(ring, matmul(ring, p, d), q) != case.rows:
        bad.append("P*D*Q does not reproduce the input")
    return bad
