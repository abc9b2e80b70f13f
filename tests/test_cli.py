import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from realsnf import INTEGERS, verify
from realsnf.cli import main
from realsnf.errors import TheoremConsistencyError
from realsnf.verify import MAX_TRIAL_COUNT, MAX_TRIAL_DEGREE, MAX_TRIAL_HEIGHT


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(out):
    return json.loads(out.strip().splitlines()[-1])


def load_golden(name):
    return json.loads((Path(__file__).parent / "data" / f"{name}_golden.json").read_text())


def run_golden(capsys, command, case):
    """Run one golden case and compare its whole stdout byte for byte."""
    argv = [command, "--ring", case["ring"], "--input", json.dumps(case["input"])]
    code, out, _ = run(capsys, *argv)
    assert code == case["exit"]
    assert out == json.dumps(case["output"]) + "\n"


GOLDEN_SNF = load_golden("snf")
GOLDEN_PSD = load_golden("psd")
GOLDEN_VERIFY = load_golden("verify")
# A well-formed integer past Python's integer string conversion limit.
OVERLONG = ("field 'entries[0][0]'", "digit limit")


class TestSnfCommand:
    @pytest.mark.parametrize("case", GOLDEN_SNF, ids=[c["name"] for c in GOLDEN_SNF])
    def test_golden_output(self, capsys, case):
        """The full JSON, transforms included, is pinned byte for byte."""
        run_golden(capsys, "snf", case)

    def test_integer_example(self, capsys):
        code, out, _ = run(capsys, "snf", "--ring", "Z", "--input", "[[2,4],[4,2]]")
        assert code == 0
        payload = json.loads(out)
        assert payload["diagonals"] == ["2", "6"]
        assert payload["verified"] is True

    def test_poly_matrix(self, capsys):
        code, out, _ = run(
            capsys,
            "snf",
            "--ring",
            "Q[x]",
            "--input",
            '[["x^2", "x"], ["x", "1"]]',
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["diagonals"] == ["1"]
        assert payload["rank"] == 1

    def test_object_input_with_ring_field(self, capsys):
        matrix = {"ring": "Z", "rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "5"]]}
        code, out, _ = run(capsys, "snf", "--input", json.dumps(matrix))
        assert code == 0
        assert json.loads(out)["diagonals"] == ["1", "5"]

    def test_ring_conflict_is_input_error(self, capsys):
        matrix = {"ring": "Z", "entries": [["1"]]}
        code, _, err = run(capsys, "snf", "--ring", "Q[x]", "--input", json.dumps(matrix))
        assert code == 2
        assert "ring" in err

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('[[2,0],[0,2]]')
        code, out, _ = run(capsys, "snf", "--ring", "Z", "--input", str(path))
        assert code == 0
        assert json.loads(out)["diagonals"] == ["2", "2"]


class TestPnriAndUnit:
    def test_pnri_sqrt2(self, capsys):
        code, out, _ = run(capsys, "pnri", "--ring", "Zsqrt:2")
        assert code == 0
        assert json.loads(out) == {
            "ring": "Zsqrt:2",
            "pnri": True,
            "unit": "1+1w",
            "norm": "-1",
        }

    def test_pnri_polynomials(self, capsys):
        code, out, _ = run(capsys, "pnri", "--ring", "Q[x]")
        assert code == 0
        assert json.loads(out) == {"ring": "Q[x]", "pnri": True}

    def test_unit_sqrt3(self, capsys):
        code, out, _ = run(capsys, "unit", "--ring", "Zsqrt:3")
        assert code == 0
        assert json.loads(out) == {"ring": "Zsqrt:3", "unit": "2+1w", "norm": "1"}

    def test_unsupported_ring(self, capsys):
        code, _, err = run(capsys, "pnri", "--ring", "Zsqrt:15")
        assert code == 2
        assert "allowlist" in err


class TestPsdAndVerify:
    @pytest.mark.parametrize("case", GOLDEN_PSD, ids=[c["name"] for c in GOLDEN_PSD])
    def test_psd_golden_output(self, capsys, case):
        """Not-PSD verdicts with their witnesses are pinned byte for byte."""
        run_golden(capsys, "psd", case)

    @pytest.mark.parametrize("case", GOLDEN_VERIFY, ids=[c["name"] for c in GOLDEN_VERIFY])
    def test_verify_golden_output(self, capsys, case):
        """Every verdict, with diagonals, signs and associates, is pinned byte for byte."""
        run_golden(capsys, "verify", case)

    def test_psd_true(self, capsys):
        code, out, _ = run(capsys, "psd", "--ring", "Z", "--input", "[[2,1],[1,2]]")
        assert code == 0
        assert json.loads(out) == {"is_psd": True, "witness": None}

    def test_psd_witness(self, capsys):
        code, out, _ = run(capsys, "psd", "--ring", "Zsqrt:3", "--input", '[["1+1w"]]')
        assert code == 0
        payload = json.loads(out)
        assert payload["is_psd"] is False
        assert payload["witness"]["minor_rows"] == [1]
        assert payload["witness"]["embedding"] == "minus"

    def test_psd_expect_holds_failure(self, capsys):
        code, _, _ = run(
            capsys, "psd", "--ring", "Z", "--input", "[[-1]]", "--expect-holds"
        )
        assert code == 1

    def test_verify_holds(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--ring", "Z", "--input", "[[2,0],[0,6]]", "--expect-holds"
        )
        assert code == 0
        assert json.loads(out)["conclusion"] == "TheoremHolds"

    @pytest.mark.parametrize("command", ["psd", "verify"])
    def test_over_the_size_cap_is_input_error(self, capsys, command):
        identity = [[int(i == j) for j in range(9)] for i in range(9)]
        code, out, err = run(capsys, command, "--ring", "Z", "--input", json.dumps(identity))
        assert code == 2
        assert out == "" and "capped at 8x8" in err

    def test_not_symmetric_is_input_error(self, capsys):
        code, _, err = run(capsys, "verify", "--ring", "Z", "--input", "[[1,2],[3,4]]")
        assert code == 2
        assert "symmetric" in err


class TestCounterexampleCommand:
    def test_builtin_recipe(self, capsys):
        code, out, _ = run(capsys, "counterexample", "--ring", "Zsqrt:3")
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["conclusion"] == "TheoremFailsPnriFails"
        assert payload["matrix"]["entries"][0][0] == "4+2w"
        assert payload["recipe"]["epsilon"] == "2+1w"

    def test_expect_holds_fails_as_documented(self, capsys):
        code, _, _ = run(capsys, "counterexample", "--ring", "Zsqrt:3", "--expect-holds")
        assert code == 1

    def test_custom_recipe_with_bad_epsilon(self, capsys):
        recipe = {"a": "1+1w", "b": "1", "c": "1+1w", "d1": "1+1w", "e1": "2+1w", "epsilon": "1/2"}
        code, _, err = run(
            capsys, "counterexample", "--ring", "Zsqrt:3", "--input", json.dumps(recipe)
        )
        assert code == 2
        assert "epsilon" in err


class TestValuationLemmaCommand:
    def test_holds(self, capsys):
        payload = {"a": "x^2", "b": "x", "p": "x"}
        code, out, _ = run(capsys, "valuation-lemma", "--input", json.dumps(payload))
        assert code == 0
        result = json.loads(out)
        assert result == {"holds": True, "valuation_a": "2", "valuation_b": "1"}

    def test_precondition_failure(self, capsys):
        payload = {"a": "x^3+x^2", "b": "x", "p": "x"}
        code, _, err = run(capsys, "valuation-lemma", "--input", json.dumps(payload))
        assert code == 2
        assert "a - b^2" in err

    def test_reducible_p_exits_2(self, capsys):
        payload = {"a": "x^4+x^2", "b": "x", "p": "x^3+x"}
        code, out, err = run(capsys, "valuation-lemma", "--input", json.dumps(payload))
        assert (code, out) == (2, "")
        assert "reducible" in err

    def test_uncertifiable_p_exits_2(self, capsys):
        payload = {"a": "x^2", "b": "x", "p": "x^4-10*x^2+1"}
        code, out, err = run(capsys, "valuation-lemma", "--input", json.dumps(payload))
        assert (code, out) == (2, "")
        assert "cannot be certified" in err

    @pytest.mark.parametrize("p, degree", [("2", 0), ("0", -1)])
    def test_constant_p_names_its_degree(self, capsys, p, degree):
        payload = {"a": "1", "b": "0", "p": p}
        code, out, err = run(capsys, "valuation-lemma", "--input", json.dumps(payload))
        assert (code, out) == (2, "")
        assert f"has degree {degree}" in err and "real root" not in err

    @pytest.mark.parametrize(
        "p",
        ["x^2 - 1000000000000000000000000000007", "x^4 - 1000000000000000000000000000000000000006"],
    )
    def test_large_constant_p_finishes(self, p):
        # The old divisor search trial-divided these constants up to their
        # square roots and did not finish; pytest-timeout is not a dependency,
        # so the time limit is the subprocess's.
        src = str(Path(__file__).resolve().parents[1] / "src")
        payload = json.dumps({"a": "1", "b": "0", "p": p})
        done = subprocess.run(
            [sys.executable, "-m", "realsnf.cli", "valuation-lemma", "--input", payload],
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {"holds": True, "valuation_a": "0", "valuation_b": None}


class TestSuiteCommand:
    def test_small_run_emits_jsonl_and_summary(self, capsys):
        code, out, _ = run(
            capsys,
            "suite",
            "--ring",
            "Z",
            "--trials",
            "5",
            "--size",
            "3",
            "--seed",
            "123",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6  # 5 trial lines + summary
        summary = json.loads(lines[-1])
        assert summary["trials"] == 5
        assert summary["ok"] is True
        trial = json.loads(lines[0])
        assert trial["trial"] == 0

    def test_breach_keeps_every_report_on_its_own_trial(self, capsys, monkeypatch):
        """With trial 1 of 4 breaching, the report lines are trials 0, 2 and 3,
        and each is the verdict on its own trial's seed."""
        original = verify.verify_main_theorem
        seen = []

        def breach_on_trial_1(m):
            seen.append(m)
            if len(seen) == 2:
                raise TheoremConsistencyError("forced")
            return original(m)

        monkeypatch.setattr(verify, "verify_main_theorem", breach_on_trial_1)
        code, out, _ = run(capsys, "suite", "--ring", "Z", "--trials", "4")
        *lines, summary = (json.loads(line) for line in out.strip().splitlines())
        assert [line.pop("trial") for line in lines] == [0, 2, 3]
        for index, line in zip((0, 2, 3), lines):
            trial_cfg = verify.TrialConfig(ring=INTEGERS, seed=verify.derive_seed(0, index))
            assert line == original(verify.random_psd_matrix(trial_cfg)).to_json()
        assert summary["trials"] == 4
        assert summary["breaches"] == ["trial 1: forced"]
        assert summary["ok"] is False
        assert code == 3

    def test_expect_holds_on_sqrt3(self, capsys):
        code, out, _ = run(
            capsys,
            "suite",
            "--ring",
            "Zsqrt:3",
            "--trials",
            "25",
            "--seed",
            "9",
            "--expect-holds",
        )
        summary = last_json(out)
        if "TheoremFailsPnriFails" in summary["conclusions"]:
            assert code == 1
        else:
            assert code == 0


class TestInputErrors:
    def test_malformed_json(self, capsys):
        code, _, err = run(capsys, "snf", "--ring", "Z", "--input", "[[2,")
        assert code == 2
        assert "malformed" in err

    def test_bad_entry_names_field(self, capsys):
        code, _, err = run(capsys, "snf", "--ring", "Z", "--input", '[["2.5"]]')
        assert code == 2
        assert "2.5" in err

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["snf", "--ring", "Z", "--input", '["12","34"]'], "entries[0]"),
            (["snf", "--ring", "Z", "--input", "[1,2]"], "entries[0]"),
            (["snf", "--input", '{"ring": "Z", "entries": [[1], 2]}'], "entries[1]"),
            (["suite", "--ring", "Z", "--size", "9"], "--size"),
            (["suite", "--ring", "Z", "--trials", "-1"], "--trials"),
            (["suite", "--ring", "Z", "--height", "0"], "--height"),
            (["suite", "--ring", "Q[x]", "--degree", "-1"], "--degree"),
            (["suite", "--ring", "Q[x]", "--trials", "1", "--degree", "100000"], "--degree"),
            (["suite", "--ring", "Z", "--trials", str(MAX_TRIAL_COUNT + 1)], "--trials"),
            (["suite", "--ring", "Z", "--height", str(MAX_TRIAL_HEIGHT + 1)], "--height"),
            (["suite", "--ring", "Q[x]", "--degree", str(MAX_TRIAL_DEGREE + 1)], "--degree"),
            (["snf", "--ring", "Z", "--input", "{tmp_path}"], "cannot be read"),
            (["verify", "--ring", "Q[x]", "--input", '[[["1e500000000"]]]'], "entries[0][0]"),
            (["snf", "--ring", "Q[x]", "--input", '[[["1.5", "1"]]]'], "entries[0][0]"),
            (["snf", "--ring", "Q[x]", "--input", '[[[1, 1.5]]]'], "entries[0][0]"),
            (["snf", "--ring", "Q[x]", "--input", "[[[" + "0," * 300000 + "1]]]"], "entries[0][0]"),
            (["snf", "--ring", "Q[x]", "--input", '[["x", "1/0"]]'], "entries[0][1]"),
            (["snf", "--ring", "Q[x]", "--input", '[["x^100000"]]'], "x^100000"),
            (["snf", "--ring", "Z", "--input", "[[" + "9" * 5000 + "]]"], "malformed"),
            (["snf", "--ring", "Z", "--input", "[]"], "entries"),
            (["snf", "--ring", "Z", "--input", "[[]]"], "entries[0]"),
            (["snf", "--ring", "Z", "--input", "[[1,2],[3]]"], "entries[1]"),
            (["snf", "--input", '{"ring":"Z","rows":true,"cols":1,"entries":[[3]]}'], "'rows'"),
            (["snf", "--input", '{"ring":"Z","rows":1.0,"cols":1,"entries":[[3]]}'], "'rows'"),
            (["snf", "--input", '{"ring":"Z","rows":1,"cols":true,"entries":[[3]]}'], "'cols'"),
            (["counterexample", "--ring", "Z"], "--ring Z: the built-in recipe is over Zsqrt:3"),
            (["counterexample", "--ring", "Zsqrt:2"], "--ring Zsqrt:2: the built-in recipe"),
            (["valuation-lemma", "--input", '{"a":"1.5","b":"0","p":"x"}'], "field 'a'"),
            (["snf", "--ring", "Zsqrt:2", "--input", '[["' + "1" * 5000 + '+1w"]]'], OVERLONG),
            (["snf", "--ring", "Z", "--input", '[["' + "1" * 5000 + '"]]'], OVERLONG),
            (["snf", "--ring", "Zsqrt:2", "--input", '[["' + "1" * 5000 + '"]]'], OVERLONG),
            (["snf", "--ring", "Q[x]", "--input", '[["' + "1" * 5000 + '"]]'], OVERLONG),
            (
                ["valuation-lemma", "--input", '{"a":"' + "1" * 5000 + '","b":"0","p":"x"}'],
                ("field 'a'", "digit limit"),
            ),
            (
                ["snf", "--ring", "Zsqrt:" + "1" * 5000, "--input", "[[1]]"],
                ("ring parameter", "digit limit"),
            ),
            (["snf", "--ring", "W" + "1" * 5000, "--input", "[[1]]"], "unknown ring"),
            (["snf", "--ring", "Zsqrt:" + "3" * 4000, "--input", "[[1]]"], "Zhalf form"),
            (["snf", "--ring", "Zhalf:" + "3" * 4000, "--input", "[[1]]"], "allowlist"),
            (["snf", "--input", '{"ring":"W' + "1" * 5000 + '","entries":[[1]]}'], "unknown ring"),
            (["suite", "--ring", "Z", "--size", "2" * 4000], "--size"),
        ],
        ids=[
            "row-is-string",
            "row-is-number",
            "object-row-is-number",
            "suite-size",
            "suite-trials",
            "suite-height",
            "suite-degree",
            "suite-huge-degree",
            "suite-trials-over-limit",
            "suite-height-over-limit",
            "suite-degree-over-limit",
            "input-is-directory",
            "coefficient-exponent-notation",
            "coefficient-decimal-string",
            "coefficient-json-float",
            "coefficient-array-over-degree-cap",
            "zero-denominator",
            "huge-exponent",
            "overlong-integer",
            "empty-entries",
            "empty-row",
            "ragged-row",
            "rows-is-bool",
            "rows-is-float",
            "cols-is-bool",
            "counterexample-builtin-over-Z",
            "counterexample-builtin-over-Zsqrt2",
            "valuation-lemma-bad-polynomial",
            "quadratic-overlong-integer",
            "overlong-integer-string",
            "quadratic-overlong-plain-integer",
            "polynomial-text-overlong-integer",
            "valuation-lemma-overlong-integer",
            "ring-parameter-overlong-integer",
            "ring-name-overlong",
            "ring-parameter-overlong-wrong-form",
            "ring-parameter-overlong-outside-allowlist",
            "ring-field-overlong",
            "suite-size-long-integer",
        ],
    )
    def test_bad_input_names_field(self, capsys, tmp_path, argv, field):
        """Exit 2 with a short message naming the field; a long input is not echoed whole."""
        code, out, err = run(capsys, *(a.replace("{tmp_path}", str(tmp_path)) for a in argv))
        assert code == 2
        assert out == ""
        for fragment in (field,) if isinstance(field, str) else field:
            assert fragment in err
        assert err.startswith("error: ")
        assert "Traceback" not in err and "Fraction(" not in err
        assert len(err.encode()) < 300

    def test_missing_input(self, capsys):
        for command, what in (
            ("snf", "a matrix"),
            ("psd", "a symmetric matrix"),
            ("verify", "a symmetric matrix"),
        ):
            code, out, err = run(capsys, command, "--ring", "Z")
            assert code == 2 and out == ""
            assert err == f"error: {command} needs --input with {what}\n"

    @pytest.mark.parametrize("flag", ["--seed", "--trials", "--size", "--height", "--degree"])
    def test_overlong_integer_flag_gets_a_short_message(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["suite", "--ring", "Z", "--trials", "1", flag, "1" * 5000])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"argument {flag}:" in err and "digit limit" in err
        assert len(err.encode()) < 300

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["snf", "--ring", "Z", "--frobnicate"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["snf", "--ring", "Z", "--input", "[[2]]", "--expect-holds"],
            ["pnri", "--ring", "Zsqrt:3", "--expect-holds"],
            ["unit", "--ring", "Zsqrt:3", "--expect-holds"],
            ["valuation-lemma", "--input", '{"a": "x^2", "b": "x", "p": "x"}', "--expect-holds"],
            ["valuation-lemma", "--ring", "Z", "--input", '{"a": "x^2", "b": "x", "p": "x"}'],
        ],
        ids=["snf-expect-holds", "pnri-expect-holds", "unit-expect-holds",
             "valuation-lemma-expect-holds", "valuation-lemma-ring"],
    )
    def test_options_a_command_never_reads_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_pretty_output(self, capsys):
        code, out, _ = run(capsys, "pnri", "--ring", "Z", "--pretty")
        assert code == 0
        assert out.startswith("{\n")


class TestInProcessCalls:
    """main() is called many times in one process, by tests and by ``snf`` workloads."""

    def test_consecutive_calls_share_one_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if self.prog == "realsnf":
                built.append(self)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run(capsys, "unit", "--ring", "Zsqrt:2")[0] == 0
        assert run(capsys, "snf", "--ring", "Z", "--input", "[[2]]")[0] == 0
        assert len(built) <= 1

    def test_import_builds_no_parser(self):
        script = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting_init(self, *a, **k):\n"
            "    init(self, *a, **k)\n"
            "    built.append(self.prog)\n"
            "argparse.ArgumentParser.__init__ = counting_init\n"
            "import realsnf.cli\n"
            "print(built.count('realsnf'))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        ).stdout
        assert out == "0\n"
