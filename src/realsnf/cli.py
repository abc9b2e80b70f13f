"""Command-line interface: every pipeline as a subcommand with JSON output.

All exact values in the JSON are decimal strings so nothing is ever rounded.
Exit codes: 0 success, 1 the mathematical verdict was not the one demanded
by --expect-holds, 2 input errors, 3 internal consistency breach.

``main(argv)`` returns the exit code instead of exiting, and may be called
any number of times in one process: the parser is built on the first call
and reused.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from pathlib import Path
from typing import Callable, Sequence

from . import matrices, quadratic, rings, spectrum, verify
from .errors import ParseError, RealSnfError, TheoremConsistencyError
from .matrices import Matrix, matrix_from_json, smith_normal_form
from .polynomials import _cut, parse_int, poly_from_json
from .ringspec import RATIONAL_POLYNOMIALS, RingFamily, RingSpec, parse_ring

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2
EXIT_BREACH = 3


def _emit(payload: object, pretty: bool) -> None:
    print(json.dumps(payload, indent=2 if pretty else None, sort_keys=False))


def _load_input(text: str) -> object:
    """Inline JSON (starts with '[', '{' or '"') or a path to a JSON file."""
    stripped = text.strip()
    if stripped and stripped[0] in "[{\"":
        try:
            return json.loads(stripped)
        except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
            raise ParseError(f"inline JSON is malformed: {exc}") from None
    shown = _cut(text)
    try:
        return json.loads(Path(text).read_text())
    except FileNotFoundError:
        raise ParseError(f"input {shown} is neither inline JSON nor an existing file") from None
    except OSError as exc:  # a directory, an unreadable file, a name too long
        raise ParseError(f"input {shown} cannot be read: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise ParseError(f"file {shown} is not valid JSON: {exc}") from None


def _ring_of(args: argparse.Namespace) -> RingSpec | None:
    return parse_ring(args.ring) if args.ring else None


def _require_ring(args: argparse.Namespace) -> RingSpec:
    if not args.ring:
        raise ParseError("this subcommand needs --ring")
    return parse_ring(args.ring)


def _read_matrix(args: argparse.Namespace, what: str) -> Matrix:
    if args.input is None:
        raise ParseError(f"{args.command} needs --input with {what}")
    return matrix_from_json(_load_input(args.input), _ring_of(args))


def _verdict(args: argparse.Namespace, holds: bool) -> int:
    """The exit code: EXIT_VERDICT only when --expect-holds was passed and failed."""
    return EXIT_VERDICT if args.expect_holds and not holds else EXIT_OK


def _unit_fields(ring: RingSpec) -> dict:
    unit = quadratic.fundamental_unit(ring)
    return {"unit": str(unit), "norm": str(unit.norm())}


def _cmd_snf(args: argparse.Namespace) -> int:
    m = _read_matrix(args, "a matrix")
    result = smith_normal_form(m)
    check = matrices.verify_snf(m, result)
    _emit(
        {
            "ring": str(m.ring),
            "diagonals": [str(d) for d in result.diagonals],
            "rank": len(result.diagonals),
            "D": result.D.to_json(),
            "P": result.P.to_json(),
            "Q": result.Q.to_json(),
            "verified": bool(check),
        },
        args.pretty,
    )
    return EXIT_OK if check else EXIT_BREACH


def _cmd_psd(args: argparse.Namespace) -> int:
    report = spectrum.is_psd_on_spectrum(_read_matrix(args, "a symmetric matrix"))
    _emit(report.to_json(), args.pretty)
    return _verdict(args, report.is_psd)


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify.verify_main_theorem(_read_matrix(args, "a symmetric matrix"))
    _emit(report.to_json(), args.pretty)
    return _verdict(args, report.conclusion is verify.Conclusion.THEOREM_HOLDS)


def _cmd_pnri(args: argparse.Namespace) -> int:
    ring = _require_ring(args)
    payload: dict = {"ring": str(ring), "pnri": rings.pnri(ring)}
    if ring.family is RingFamily.QUADRATIC_INTEGERS:
        payload.update(_unit_fields(ring))
    _emit(payload, args.pretty)
    return EXIT_OK


def _cmd_unit(args: argparse.Namespace) -> int:
    ring = _require_ring(args)
    _emit({"ring": str(ring), **_unit_fields(ring)}, args.pretty)
    return EXIT_OK


def _cmd_counterexample(args: argparse.Namespace) -> int:
    ring = _ring_of(args)
    builtin = verify.builtin_counterexample_recipe()
    if args.input is None:
        if ring is not None and ring != builtin.ring:
            raise ParseError(
                f"--ring {ring}: the built-in recipe is over {builtin.ring}; "
                f"pass --input with a recipe over {ring}"
            )
        recipe = builtin
    else:
        data = _load_input(args.input)
        if not isinstance(data, dict):
            raise ParseError("counterexample input must be a JSON object")
        recipe = verify.recipe_from_json(data, ring or builtin.ring)
    matrix = verify.build_counterexample(recipe)
    report = verify.verify_main_theorem(matrix)
    _emit(
        {
            "recipe": recipe.to_json(),
            "matrix": matrix.to_json(),
            "report": report.to_json(),
        },
        args.pretty,
    )
    return _verdict(args, report.conclusion is verify.Conclusion.THEOREM_HOLDS)


def _cmd_valuation_lemma(args: argparse.Namespace) -> int:
    data = None if args.input is None else _load_input(args.input)
    if not isinstance(data, dict):
        raise ParseError("valuation-lemma needs --input '{\"a\":..., \"b\":..., \"p\":...}'")
    polys = {}
    for name in ("a", "b", "p"):
        if name not in data:
            raise ParseError(f"field {name!r} is missing")
        try:
            polys[name] = poly_from_json(data[name])
        except ParseError as exc:
            raise ParseError(f"field {name!r}: {exc}") from None
    a, b, p = polys["a"], polys["b"], polys["p"]
    holds = verify.check_valuation_lemma(a, b, p)
    payload = {
        "holds": holds,
        "valuation_a": str(rings.valuation(p, a, RATIONAL_POLYNOMIALS)) if a else None,
        "valuation_b": str(rings.valuation(p, b, RATIONAL_POLYNOMIALS)) if b else None,
    }
    _emit(payload, args.pretty)
    return EXIT_OK


def _cmd_suite(args: argparse.Namespace) -> int:
    ring = _require_ring(args)
    for _, flag, low, high in verify.TRIAL_LIMITS:
        value = getattr(args, flag[2:])
        if not low <= value <= high:
            raise ParseError(
                f"flag {flag}: must be between {low} and {high}, got {_cut(str(value))}"
            )
    cfg = verify.TrialConfig(
        ring=ring,
        matrix_size=args.size,
        entry_height_bound=args.height,
        trial_count=args.trials,
        seed=args.seed,
        max_degree=args.degree,
    )
    summary = verify.run_property_suite(cfg)
    for index, outcome in enumerate(summary.outcomes):
        if isinstance(outcome, verify.TheoremReport):
            print(json.dumps({"trial": index, **outcome.to_json()}))
    _emit(summary.to_json(), args.pretty)
    if not summary.ok:
        return EXIT_BREACH
    return _verdict(
        args, all(r.conclusion is verify.Conclusion.THEOREM_HOLDS for r in summary.reports)
    )


def _int_flag(text: str) -> int:
    """An integer flag's value; argparse would echo a rejected value whole."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_cut(text)}") from None
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later ``main``."""
    parser = argparse.ArgumentParser(
        prog="realsnf",
        description=(
            "Exact Smith Normal Forms and real-spectrum positivity over Z, Q[x], "
            "and real quadratic integer rings."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(
        name: str,
        handler: Callable[[argparse.Namespace], int],
        help: str,
        ring: bool = True,
        needs_input: bool = True,
        verdict: bool = False,
    ) -> argparse.ArgumentParser:
        """A subcommand bound to its handler, with only the shared options it reads."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if ring:
            p.add_argument("--ring", help="Z, Q[x], Zsqrt:<d> or Zhalf:<d>")
        if needs_input:
            p.add_argument("--input", help="inline JSON or a path to a JSON file")
        p.add_argument("--pretty", action="store_true", help="indent the JSON output")
        if verdict:
            p.add_argument(
                "--expect-holds",
                action="store_true",
                help="exit 1 unless the mathematical verdict is fully positive",
            )
        return p

    command("snf", _cmd_snf, "Smith Normal Form of a matrix")
    command("psd", _cmd_psd, "positive semidefiniteness on the real spectrum", verdict=True)
    command("verify", _cmd_verify, "full positivity pipeline on a matrix", verdict=True)
    command("pnri", _cmd_pnri, "whether units realize every sign pattern", needs_input=False)
    command("unit", _cmd_unit, "fundamental unit of a quadratic ring", needs_input=False)
    command("counterexample", _cmd_counterexample, "build and judge a 2x2 recipe", verdict=True)
    command("valuation-lemma", _cmd_valuation_lemma, "check the valuation inequality", ring=False)

    suite = command(
        "suite", _cmd_suite, "seeded randomized falsification run", needs_input=False, verdict=True
    )
    for flag, default, help in (
        ("--trials", 100, "number of trials"),
        ("--size", 4, "maximum matrix size"),
        ("--height", 3, "entry height bound"),
        ("--degree", 2, "entry degree bound (Q[x])"),
        ("--seed", 0, "master seed"),
    ):
        suite.add_argument(flag, type=_int_flag, default=default, metavar="N", help=help)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand and return its exit code; safe to call repeatedly."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except TheoremConsistencyError as exc:
        print(f"consistency breach: {exc}", file=sys.stderr)
        return EXIT_BREACH
    except (RealSnfError, ZeroDivisionError) as exc:
        # parse errors, unsupported rings, violated recipe conditions, failed
        # preconditions, division by a zero input: all problems with the input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:  # a crash must not look like a mathematical verdict
        traceback.print_exc()
        return EXIT_BREACH


if __name__ == "__main__":
    sys.exit(main())
