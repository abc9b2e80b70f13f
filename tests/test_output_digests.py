"""Digests of the CLI's `snf`, `verify` and `psd` output on seeded matrices, per ring.

Every ring gets the same mix of inputs from its own seeded ``random.Random``:
shapes 1x1 to 5x5 (rectangular for `snf`), entries zero at rates 0 to 0.85,
matrices whose last row is a combination of two others (rank-deficient), and
symmetric inputs both arbitrary and of the form N * N^T (PSD by construction).
The whole stdout of each command is hashed, so a change to any P, D, Q,
verdict, witness or JSON byte changes a digest.

``python tests/test_output_digests.py`` prints the digests in the form of
``data/output_digests.json``.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from realsnf.cli import main
from realsnf.matrices import Matrix, matrix_from_json
from realsnf.ringspec import parse_ring

from helpers import RING_NAMES

ZERO_RATES = (0.0, 0.3, 0.6, 0.85)
GOLDEN = Path(__file__).parent / "data" / "output_digests.json"


def _entry(rng, ring_name, zero_rate):
    """One entry in its JSON form; zero with probability zero_rate."""
    if rng.random() < zero_rate:
        return 0
    if ring_name == "Z":
        return rng.randint(-9, 9)
    if ring_name == "Q[x]":
        coefficients = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.2:
            coefficients[0] = f"{rng.randint(-3, 3)}/{rng.randint(2, 4)}"
        return coefficients
    return f"{rng.randint(-4, 4)}{rng.randint(-3, 3):+d}w"


def _matrix(rng, ring_name, n_rows, n_cols):
    zero_rate = rng.choice(ZERO_RATES)
    rows = [[_entry(rng, ring_name, zero_rate) for _ in range(n_cols)] for _ in range(n_rows)]
    m = matrix_from_json(rows, parse_ring(ring_name))
    if n_rows >= 3 and rng.random() < 0.3:
        c = m.entries[1][0] or m.entries[2][0]
        last = [a * c + b for a, b in zip(m.entries[0], m.entries[1])]
        m = Matrix.from_rows([*m.entries[:-1], last], m.ring)
    return m


def _symmetric(rng, ring_name, n):
    if rng.random() < 0.5:
        m = _matrix(rng, ring_name, n, rng.randint(1, n))
        return m @ m.transpose()
    m = _matrix(rng, ring_name, n, n)
    return Matrix.from_rows(
        [[m.entries[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)], m.ring
    )


def _stdout(command, ring_name, m):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, "--ring", ring_name, "--input", json.dumps(m.to_json())])
    return f"{code}\n{out.getvalue()}"


def ring_digests(ring_name):
    """{"snf": ..., "verify": ..., "psd": ...}: sha256 prefixes of every output in turn."""
    rng = random.Random(RING_NAMES.index(ring_name))
    hashes = {command: hashlib.sha256() for command in ("snf", "verify", "psd")}
    for n_rows in range(1, 6):
        for n_cols in range(1, 6):
            for _ in range(3):
                m = _matrix(rng, ring_name, n_rows, n_cols)
                hashes["snf"].update(_stdout("snf", ring_name, m).encode())
    for n in range(1, 6):
        for _ in range(10):
            m = _symmetric(rng, ring_name, n)
            for command in ("verify", "psd"):
                hashes[command].update(_stdout(command, ring_name, m).encode())
    return {command: h.hexdigest()[:16] for command, h in hashes.items()}


@pytest.mark.parametrize("ring_name", RING_NAMES)
def test_outputs_match_the_recorded_digests(ring_name):
    assert ring_digests(ring_name) == json.loads(GOLDEN.read_text())[ring_name]


if __name__ == "__main__":
    json.dump({name: ring_digests(name) for name in RING_NAMES}, sys.stdout, indent=2)
    print()
