import io
import json
import math
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import reference_parse
import strongrev.canonical as canonical_module
import strongrev.matrices as matrices_module
from strongrev.cli import MAX_DIMENSION, MAX_ENTRY_LENGTH, MAX_SELFTEST_N, _json_text, main, witness_text
from strongrev.canonical import JordanSpec, jordan_matrix
from strongrev.matrices import ExactMatrix
from strongrev.scalars import GaussianRational

G = GaussianRational


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def spec_file(tmp_path, blocks, name="spec.json"):
    payload = {"blocks": [{"eigenvalue": e, "size": s} for e, s in blocks]}
    return write_json(tmp_path / name, payload)


def matrix_file(tmp_path, matrix, name):
    return write_json(tmp_path / name, matrix.to_json_dict())


class TestClassify:
    def test_three_doubled_blocks_reversible_only(self, tmp_path, capsys):
        path = spec_file(tmp_path, [("1", 2)] * 3)
        code = main(["classify", "--input", path, "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["reversible"] and not out["strongly_reversible"]
        assert out["parity_value"] == 3

    def test_minus_one_cube_strongly_reversible(self, tmp_path, capsys):
        path = spec_file(tmp_path, [("-1", 3)])
        code = main(["classify", "--input", path, "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["odd_block_present"]

    def test_unmatched_blocks_not_reversible(self, tmp_path, capsys):
        path = spec_file(tmp_path, [("2", 2), ("1/2", 3)])
        code = main(["classify", "--input", path, "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["failure_witness"] is not None

    def test_text_mode_prints_young_diagram(self, tmp_path, capsys):
        path = spec_file(tmp_path, [("1", 2)] * 3)
        code = main(["classify", "--input", path])
        out = capsys.readouterr().out
        assert code == 1
        assert "[][]" in out
        assert "strongly reversible: no" in out

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["classify", "--input", str(bad)]) == 3

    def test_invalid_spec(self, tmp_path):
        path = write_json(tmp_path / "zero.json", {"blocks": [{"eigenvalue": "0", "size": 1}]})
        assert main(["classify", "--input", path]) == 3

    def test_exit_code_independent_of_format(self, tmp_path, capsys):
        path = spec_file(tmp_path, [("1", 2)] * 3)
        json_code = main(["classify", "--input", path, "--format", "json"])
        capsys.readouterr()
        text_code = main(["classify", "--input", path, "--format", "text"])
        capsys.readouterr()
        assert json_code == text_code == 1


class TestWitness:
    def test_involutive_success(self, tmp_path, capsys):
        path = spec_file(tmp_path, [("1", 4)])
        code = main(["witness", "--input", path, "--involutive", "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        verification = out["verification"]
        assert verification["reverses"] and verification["involution"]
        assert verification["determinant"] == "1"

    def test_involutive_refusal_cites_forced_sign(self, tmp_path, capsys):
        path = spec_file(tmp_path, [("1", 2)])
        code = main(["witness", "--input", path, "--involutive"])
        err = capsys.readouterr().err
        assert code == 1
        assert "-1" in err

    def test_sl_only_on_doubled_block(self, tmp_path, capsys):
        path = spec_file(tmp_path, [("1", 2)])
        code = main(["witness", "--input", path, "--sl-only", "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["g"]["entries"] == [["i", "0"], ["0", "-i"]]
        assert out["verification"]["determinant"] == "1"
        assert not out["verification"]["involution"]

    def test_sl_only_text_notes_square(self, tmp_path, capsys):
        path = spec_file(tmp_path, [("1", 2)])
        code = main(["witness", "--input", path, "--sl-only"])
        out = capsys.readouterr().out
        assert code == 0
        assert "g squares to -I" in out

    @pytest.mark.parametrize(
        "blocks, note",
        [
            ([("1", 6)], True),
            ([("-1", 2), ("i", 3), ("-i", 3), ("2", 1), ("1/2", 1)], True),
            ([("1", 6), ("-1", 4)], False),
            ([("1", 2), ("2", 2), ("1/2", 2)], False),
        ],
    )
    def test_sl_only_text_notes_square_only_when_minus_identity(
        self, tmp_path, capsys, blocks, note
    ):
        # g^2 is -I on the +-1 blocks of size 2 mod 4 and on odd pairs, I elsewhere
        path = spec_file(tmp_path, blocks)
        assert main(["witness", "--input", path, "--sl-only"]) == 0
        assert ("note: g squares to -I" in capsys.readouterr().out) == note

    def test_minus_identity_note_without_reversal(self):
        # a payload whose g does not reverse a: the note comes from the dense square
        payload = {
            "spec": {"blocks": [{"eigenvalue": "2", "size": 1}, {"eigenvalue": "1", "size": 1}]},
            "mode": "sl-only",
            "a": ExactMatrix([[2, 0], [0, 1]]).to_json_dict(),
            "g": ExactMatrix([[0, 1], [-1, 0]]).to_json_dict(),
            "verification": {"reverses": False, "involution": False, "determinant": "1"},
            "transcript": [],
        }
        assert "note: g squares to -I" in witness_text(payload).splitlines()

    def test_not_reversible_exit(self, tmp_path, capsys):
        path = spec_file(tmp_path, [("2", 1)])
        assert main(["witness", "--input", path, "--involutive"]) == 2

    def test_default_mode_is_involutive(self, tmp_path, capsys):
        path = spec_file(tmp_path, [("1", 2)])
        assert main(["witness", "--input", path]) == 1

    def test_round_trip_through_verify(self, tmp_path, capsys):
        path = spec_file(tmp_path, [("2", 2), ("1/2", 2)])
        code = main(["witness", "--input", path, "--involutive", "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        a_path = write_json(tmp_path / "a.json", out["a"])
        g_path = write_json(tmp_path / "g.json", out["g"])
        code = main(["verify", "--matrix-a", a_path, "--matrix-g", g_path, "--format", "json"])
        report = json.loads(capsys.readouterr().out)["report"]
        assert code == 0
        assert report == out["verification"]


class TestTallEntries:
    """The n = 24 witness of J(10^200, 12) + J(10^-200, 12) has entries with
    more digits than CPython converts between int and text by default."""

    DEFAULT_LIMIT = 4300

    @pytest.fixture
    def digit_limit(self):
        get = getattr(sys, "get_int_max_str_digits", None)
        if get is None:  # Python 3.10.0 to 3.10.6 have no limit
            yield lambda: None
            return
        saved = get()
        sys.set_int_max_str_digits(self.DEFAULT_LIMIT)
        try:
            yield get
        finally:
            sys.set_int_max_str_digits(saved)

    def test_witness_and_verify_round_trip(self, tmp_path, capsys, digit_limit):
        limit = digit_limit()
        big = str(10**200)
        path = spec_file(tmp_path, [(big, 12), ("1/" + big, 12)])
        assert main(["witness", "--input", path, "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert digit_limit() == limit
        longest = max((e for key in "ag" for row in out[key]["entries"] for e in row), key=len)
        assert len(longest) > self.DEFAULT_LIMIT
        assert out["verification"]["reverses"] and out["verification"]["involution"]

        assert main(["witness", "--input", path, "--format", "text"]) == 0
        assert longest in capsys.readouterr().out
        assert digit_limit() == limit

        a_path = write_json(tmp_path / "a.json", out["a"])
        g_path = write_json(tmp_path / "g.json", out["g"])
        assert main(["verify", "--matrix-a", a_path, "--matrix-g", g_path, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["report"] == out["verification"]
        assert digit_limit() == limit

    def test_limit_restored_after_a_failed_command(self, tmp_path, capsys, digit_limit):
        limit = digit_limit()
        assert main(["classify", "--input", str(tmp_path / "missing.json")]) == 3
        assert digit_limit() == limit


class TestVerify:
    def test_identity_pair(self, tmp_path, capsys):
        eye = ExactMatrix.identity(2)
        a = matrix_file(tmp_path, eye, "a.json")
        g = matrix_file(tmp_path, eye, "g.json")
        assert main(["verify", "--matrix-a", a, "--matrix-g", g]) == 0

    def test_failing_reverser(self, tmp_path, capsys):
        spec = JordanSpec([(G(1), 2)])
        a = matrix_file(tmp_path, jordan_matrix(spec), "a.json")
        g = matrix_file(tmp_path, ExactMatrix.identity(2), "g.json")
        code = main(["verify", "--matrix-a", a, "--matrix-g", g, "--format", "json"])
        report = json.loads(capsys.readouterr().out)["report"]
        assert code == 1
        assert not report["reverses"]
        assert report["residuals"][0]["check"] == "reverses"

    def test_dimension_mismatch(self, tmp_path, capsys):
        a = matrix_file(tmp_path, ExactMatrix.identity(2), "a.json")
        g = matrix_file(tmp_path, ExactMatrix.identity(3), "g.json")
        assert main(["verify", "--matrix-a", a, "--matrix-g", g]) == 3

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 1, 0], [0, 0, 1], [0, 0, 2]],  # upper bidiagonal: read from its diagonal
            [[1, 1, 0], [1, 1, 0], [0, 0, 1]],  # eliminated
        ],
    )
    def test_singular_first_matrix_exits_3(self, tmp_path, capsys, rows):
        a = matrix_file(tmp_path, ExactMatrix(rows), "a.json")
        g = matrix_file(tmp_path, ExactMatrix.identity(3), "g.json")
        assert main(["verify", "--matrix-a", a, "--matrix-g", g]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: first matrix must be invertible: matrix is singular\n"

    def test_shaped_six_by_six_reverser(self, tmp_path, capsys):
        def expand(row):
            return [0, -row[0], 0, -row[2], 0, -row[4]]

        row1 = [1, 2, 3, 4, 5, 6]
        row3 = [7, 8, 9, 10, 11, 12]
        row5 = [13, 14, 15, 16, 18, 20]
        g = ExactMatrix([row1, expand(row1), row3, expand(row3), row5, expand(row5)])
        a = jordan_matrix(JordanSpec([(G(1), 2)] * 3))
        a_path = matrix_file(tmp_path, a, "a.json")
        g_path = matrix_file(tmp_path, g, "g.json")
        code = main(["verify", "--matrix-a", a_path, "--matrix-g", g_path, "--format", "json"])
        report = json.loads(capsys.readouterr().out)["report"]
        assert code == 1  # reverses but is not an involution in SL
        assert report["reverses"] and not report["involution"]


class TestWeyr:
    def test_structure_442(self, tmp_path, capsys):
        path = spec_file(tmp_path, [("1", 4), ("1", 4), ("1", 2)])
        code = main(["weyr", "--input", path, "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["structures"] == [{"eigenvalue": "1", "sizes": [3, 3, 2, 2]}]
        weyr = ExactMatrix.from_json_dict(out["matrix"])
        assert weyr.rows == 10

    def test_single_block_structure(self, tmp_path, capsys):
        path = spec_file(tmp_path, [("2", 4)])
        code = main(["weyr", "--input", path, "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["structures"] == [{"eigenvalue": "2", "sizes": [1, 1, 1, 1]}]

    def test_semisimple_weyr_is_jordan(self, tmp_path, capsys):
        path = spec_file(tmp_path, [("2", 1), ("1/2", 1)])
        code = main(["weyr", "--input", path, "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        spec = JordanSpec([(G(2), 1), (G(Fraction(1, 2)), 1)])
        assert ExactMatrix.from_json_dict(out["matrix"]) == jordan_matrix(spec)
        assert out["permutation"] == [1, 2]

    def test_text_mode(self, tmp_path, capsys):
        path = spec_file(tmp_path, [("1", 4), ("1", 4), ("1", 2)])
        code = main(["weyr", "--input", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "Weyr structure [3, 3, 2, 2]" in out
        assert "[][][]" in out


class TestMalformedSpec:
    @pytest.mark.parametrize(
        "block",
        [
            pytest.param({"eigenvalue": 2, "size": 2}, id="numeric-eigenvalue"),
            pytest.param({"eigenvalue": "1", "size": 2.5}, id="fractional-size"),
            pytest.param({"eigenvalue": "1", "size": True}, id="boolean-size"),
            pytest.param({"eigenvalue": "1", "size": 2, "extra": 1}, id="unknown-key"),
            pytest.param(["1", 2], id="array-block"),
        ],
    )
    def test_rejected_with_exit_3(self, tmp_path, capsys, block):
        path = write_json(tmp_path / "bad.json", {"blocks": [block]})
        for command in ("classify", "witness", "weyr"):
            assert main([command, "--input", path, "--format", "json"]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "invalid Jordan spec" in captured.err


class TestSelftest:
    def test_trivial(self, capsys):
        assert main(["selftest", "--max-n", "1", "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["total_failures"] == 0

    def test_corrupted_classifier_fails_selftest(self, capsys, monkeypatch):
        import dataclasses

        import strongrev.reversal as reversal_module

        real = reversal_module.classify

        def corrupted(spec):
            report = real(spec)
            return dataclasses.replace(
                report, strongly_reversible=not report.strongly_reversible
            )

        monkeypatch.setattr(reversal_module, "classify", corrupted)
        code = main(["selftest", "--max-n", "2", "--format", "json"])
        out = json.loads(capsys.readouterr().out)  # summary stays serializable
        assert code == 1
        assert out["total_failures"] > 0


class TestMalformedMatrix:
    @pytest.mark.parametrize(
        "matrix",
        [
            pytest.param({"rows": 1, "cols": 1, "entries": [[1]]}, id="numeric-entry"),
            pytest.param({"rows": True, "cols": 1, "entries": [["1"]]}, id="boolean-rows"),
            pytest.param({"rows": 1, "cols": 2, "entries": ["12"]}, id="string-row"),
            pytest.param({"rows": 1, "cols": 1, "entries": [["1"]], "note": "x"}, id="unknown-key"),
            pytest.param([["1"]], id="array"),
        ],
    )
    def test_rejected_with_exit_3(self, tmp_path, capsys, matrix):
        bad = write_json(tmp_path / "bad.json", matrix)
        good = matrix_file(tmp_path, ExactMatrix.identity(1), "good.json")
        for a, g in ((bad, good), (good, bad)):
            assert main(["verify", "--matrix-a", a, "--matrix-g", g, "--format", "json"]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "invalid matrix" in captured.err


class TestDimensionLimit:
    """Inputs that would need a dense matrix over MAX_DIMENSION are refused
    before one is built; classify builds none and is not limited."""

    def assert_refused(self, argv, capsys):
        assert main(argv + ["--format", "json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert f"exceeds the limit {MAX_DIMENSION}" in captured.err

    @pytest.mark.parametrize("command", ["witness", "weyr"])
    @pytest.mark.parametrize("size", [MAX_DIMENSION + 1, 6000])
    def test_spec_refused(self, tmp_path, capsys, command, size):
        path = spec_file(tmp_path, [("1", size)])
        self.assert_refused([command, "--input", path], capsys)

    @pytest.mark.parametrize("rows, cols", [(MAX_DIMENSION + 1,) * 2, (1, 6000)])
    def test_matrix_refused_before_entries_are_read(self, tmp_path, capsys, rows, cols):
        # a numeric entry would be "invalid matrix" if it were parsed
        big = write_json(tmp_path / "big.json", {"rows": rows, "cols": cols, "entries": [[1]]})
        good = matrix_file(tmp_path, ExactMatrix.identity(1), "good.json")
        for a, g in ((big, good), (good, big)):
            self.assert_refused(["verify", "--matrix-a", a, "--matrix-g", g], capsys)

    def test_both_sizes_checked_before_any_entry_is_read(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", {"rows": 1, "cols": 1, "entries": [["x"]]})
        g = write_json(tmp_path / "g.json", {"rows": 10**9, "cols": 1, "entries": [["1"]]})
        assert main(["verify", "--matrix-a", a, "--matrix-g", g]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {g}: matrix dimension {10**9} exceeds the limit {MAX_DIMENSION}\n"
        )

    def test_classify_takes_any_size(self, tmp_path, capsys):
        path = spec_file(tmp_path, [("1", 6000)])
        assert main(["classify", "--input", path, "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n"] == 6000 and out["strongly_reversible"]


    def test_classify_text_omits_an_oversized_young_diagram(self, tmp_path, capsys):
        path = spec_file(tmp_path, [("1", 10_000_000)])
        assert main(["classify", "--input", path, "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert len(out.encode()) < 2048
        assert f"omitted (largest part 10000000 exceeds {MAX_DIMENSION})" in out
        assert "[][]" not in out

    def test_classify_text_draws_a_diagram_at_the_limit(self, tmp_path, capsys):
        path = spec_file(tmp_path, [("-1", MAX_DIMENSION), ("-1", 1)])
        assert main(["classify", "--input", path, "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "[]" * MAX_DIMENSION + "\n[]\n" in out and "omitted" not in out


class TestEntryLengthLimit:
    """verify refuses an entry text longer than MAX_ENTRY_LENGTH before it
    parses any entry of either file."""

    def one_by_one(self, tmp_path, name, text):
        return write_json(tmp_path / name, {"rows": 1, "cols": 1, "entries": [[text]]})

    def test_entry_at_the_limit_is_read(self, tmp_path, capsys):
        # g = 10^(L-1) reverses a = 1 but is no involution: a verdict, not a refusal
        a = self.one_by_one(tmp_path, "a.json", "1")
        g = self.one_by_one(tmp_path, "g.json", "1" + "0" * (MAX_ENTRY_LENGTH - 1))
        assert main(["verify", "--matrix-a", a, "--matrix-g", g, "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["reverses"] and not report["involution"]

    def test_longer_entry_refused_before_any_entry_is_parsed(self, tmp_path, capsys, monkeypatch):
        def refuse(text):
            raise AssertionError("an entry was parsed")

        monkeypatch.setattr(matrices_module, "parse", refuse)
        a = self.one_by_one(tmp_path, "a.json", "x")
        g = self.one_by_one(tmp_path, "g.json", "1" * (MAX_ENTRY_LENGTH + 1))
        assert main(["verify", "--matrix-a", a, "--matrix-g", g]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {g}: matrix entry of {MAX_ENTRY_LENGTH + 1} characters "
            f"exceeds the limit {MAX_ENTRY_LENGTH}\n"
        )

    def test_a_megabyte_entry_is_refused_at_once(self, tmp_path, capsys):
        a = self.one_by_one(tmp_path, "a.json", "1")
        g = self.one_by_one(tmp_path, "g.json", "9" * 10**6)
        assert main(["verify", "--matrix-a", a, "--matrix-g", g]) == 3
        assert f"exceeds the limit {MAX_ENTRY_LENGTH}" in capsys.readouterr().err


class TestSpecAndIntegerLengthLimit:
    """Every command refuses a spec eigenvalue text or a JSON integer literal
    longer than MAX_ENTRY_LENGTH before converting it.  The literals are
    written as text: json.dumps refuses ints this long outside the CLI."""

    def spec_text(self, tmp_path, eigenvalue="1", size="1"):
        path = tmp_path / "spec.json"
        path.write_text(f'{{"blocks": [{{"eigenvalue": "{eigenvalue}", "size": {size}}}]}}')
        return str(path)

    def test_eigenvalue_and_size_at_the_limit_are_read(self, tmp_path, capsys):
        tall = "1" + "0" * (MAX_ENTRY_LENGTH - 1)
        # J(10^9999, 1) has no partner block: a verdict, not a refusal
        assert main(["classify", "--input", self.spec_text(tmp_path, eigenvalue=tall)]) == 2
        assert f"spec: J({tall},1)" in capsys.readouterr().out
        # J(1, 10^9999) is strongly reversible
        assert main(["classify", "--input", self.spec_text(tmp_path, size=tall)]) == 0
        assert f"(n = {tall})" in capsys.readouterr().out

    def test_longer_eigenvalue_refused_before_any_block_is_parsed(
        self, tmp_path, capsys, monkeypatch
    ):
        def refuse(text):
            raise AssertionError("an eigenvalue was parsed")

        monkeypatch.setattr(canonical_module, "parse", refuse)
        path = tmp_path / "spec.json"
        long = "1" * (MAX_ENTRY_LENGTH + 1)
        blocks = [{"eigenvalue": "x", "size": 1}, {"eigenvalue": long, "size": 1}]
        path.write_text(json.dumps({"blocks": blocks}))
        assert main(["classify", "--input", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: eigenvalue of {MAX_ENTRY_LENGTH + 1} characters "
            f"exceeds the limit {MAX_ENTRY_LENGTH}\n"
        )

    def test_longer_size_refused(self, tmp_path, capsys):
        path = self.spec_text(tmp_path, size="1" * (MAX_ENTRY_LENGTH + 1))
        assert main(["classify", "--input", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: JSON integer of {MAX_ENTRY_LENGTH + 1} characters "
            f"exceeds the limit {MAX_ENTRY_LENGTH}\n"
        )

    @pytest.mark.parametrize(
        "argv, field",
        [
            ([command, "--input", "{path}"], field)
            for command in ("classify", "witness", "weyr")
            for field in ("eigenvalue", "size")
        ]
        + [(["verify", "--matrix-a", "{path}", "--matrix-g", "{path}"], "rows")],
    )
    def test_a_megabyte_text_is_refused_at_once(self, tmp_path, capsys, argv, field):
        digits = "7" * 10**6
        if field == "rows":
            path = tmp_path / "matrix.json"
            path.write_text(f'{{"rows": {digits}, "cols": 1, "entries": [["1"]]}}')
            path = str(path)
        else:
            path = self.spec_text(tmp_path, **{field: digits})
        start = time.perf_counter()
        assert main([a.format(path=path) for a in argv]) == 3
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ")
        assert captured.err.endswith(f"of {10**6} characters exceeds the limit {MAX_ENTRY_LENGTH}\n")


class TestExitCodes:
    def test_usage_error_is_not_a_verdict(self, capsys):
        assert main(["classify"]) == 3
        assert main(["no-such-command"]) == 3

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "classify" in capsys.readouterr().out

    def test_internal_error_exits_4(self, tmp_path, capsys, monkeypatch):
        import strongrev.reversal as reversal_module

        def broken(spec):
            raise RuntimeError("classifier broke")

        monkeypatch.setattr(reversal_module, "classify", broken)
        path = spec_file(tmp_path, [("1", 2)])
        assert main(["classify", "--input", path]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: RuntimeError('classifier broke')\n"

    def test_undecodable_file_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff{}")
        good = matrix_file(tmp_path, ExactMatrix.identity(1), "good.json")
        for argv in (
            ["classify", "--input", str(bad)],
            ["verify", "--matrix-a", str(bad), "--matrix-g", good],
        ):
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {bad}: ")

    @pytest.mark.parametrize("max_n", ["0", "-3"])
    def test_selftest_max_n_below_1_exits_3(self, capsys, max_n):
        assert main(["selftest", "--max-n", max_n]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --max-n must be at least 1, got {max_n}\n"

    @pytest.mark.parametrize("max_n", [MAX_SELFTEST_N + 1, 40])
    def test_selftest_max_n_above_limit_exits_3(self, capsys, max_n):
        assert MAX_SELFTEST_N == 10
        assert main(["selftest", "--max-n", str(max_n)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --max-n must be at most 10, got {max_n}\n"

    def test_failing_text_renderer_leaves_stdout_empty(self, tmp_path, capsys, monkeypatch):
        import strongrev.cli as cli_module

        def broken(text):
            raise RuntimeError("renderer broke")

        monkeypatch.setattr(cli_module, "format_grid", broken)
        path = spec_file(tmp_path, [("1", 2)] * 3)
        assert main(["witness", "--input", path, "--sl-only"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: RuntimeError('renderer broke')\n"


class TestJsonReader:
    """Input JSON that the decoder would take is still refused when it is
    nested too deeply or repeats a key: exit 3, one error line, no stdout."""

    def assert_refused(self, argv, capsys, message):
        assert main(argv + ["--format", "json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err

    def every_input(self, tmp_path, bad):
        good = matrix_file(tmp_path, ExactMatrix.identity(1), "good.json")
        return [
            ["classify", "--input", bad],
            ["witness", "--input", bad],
            ["weyr", "--input", bad],
            ["verify", "--matrix-a", bad, "--matrix-g", good],
            ["verify", "--matrix-a", good, "--matrix-g", bad],
        ]

    def test_deep_nesting_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100_000 + "]" * 100_000)
        for argv in self.every_input(tmp_path, str(bad)):
            self.assert_refused(argv, capsys, f"{bad}: JSON nested too deeply")

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"blocks": [{"eigenvalue": "1", "size": 2}], "blocks": []}', "blocks"),
            ('{"blocks": [{"eigenvalue": "1", "size": 2, "size": 3}]}', "size"),
        ],
        ids=["top-level", "in-block"],
    )
    def test_duplicate_key_in_spec_exits_3(self, tmp_path, capsys, text, key):
        bad = tmp_path / "dup.json"
        bad.write_text(text)
        for command in ("classify", "witness", "weyr"):
            self.assert_refused([command, "--input", str(bad)], capsys, f'duplicate key "{key}"')

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"rows": 1, "cols": 1, "entries": [["1"]], "rows": 1}', "rows"),
            ('{"rows": 1, "cols": 1, "entries": [["2"]], "entries": [["1"]]}', "entries"),
        ],
        ids=["rows", "entries"],
    )
    def test_duplicate_key_in_matrix_exits_3(self, tmp_path, capsys, text, key):
        bad = tmp_path / "dup.json"
        bad.write_text(text)
        for argv in self.every_input(tmp_path, str(bad))[3:]:
            self.assert_refused(argv, capsys, f'duplicate key "{key}"')


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(tree=st.recursive(
        st.none()
        | st.booleans()
        | st.integers()
        | st.integers(-(10**80), 10**80)
        | st.floats()
        | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
        | st.text(max_size=8)
        | st.sampled_from(['"', "\\", '\\"', "\x00\x1f\n\t", "é", " ", "\U0001f600"]),
        lambda inner: st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=6), inner, max_size=4)
        | st.lists(st.text(max_size=6) | st.sampled_from(['"', "\\", "é", "1/2+3/4i"]), max_size=6),
        max_leaves=24,
    ))
    def test_writes_what_json_dumps_writes(self, tree):
        assert _json_text(tree) == json.dumps(tree, indent=2)

    class Text(str):
        pass

    @pytest.mark.parametrize(
        "value",
        [
            ["a", "b", 3],
            [None, "a", "b"],
            {"rows": [["1", "2"], ["3", [4.5, "6"]]]},
            [Text("x"), Text('"')],
            ["é", "\U0001f600", "ünï"],
            ['"', "\\"],
            ["1/2", "-i", '"'],
            ["1", "\x7f", "2"],
        ],
        ids=[
            "last-not-text", "first-not-text", "nested", "str-subclass", "non-ascii", "escapes",
            "plain-then-quote", "delete-character",
        ],
    )
    def test_list_paths_write_what_json_dumps_writes(self, value):
        assert _json_text(value) == json.dumps(value, indent=2)


class TestModuleExecution:
    def test_python_m_runs_the_cli(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        path = spec_file(tmp_path, [("1", 2)] * 3)
        result = subprocess.run(
            [sys.executable, "-m", "strongrev.cli", "classify", "--input", path],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 1
        assert "strongly reversible: no" in result.stdout


# ---------------------------------------------------------------- malformed

NON_INT_SCALARS = st.none() | st.booleans() | st.floats() | st.text(max_size=8)
JSON_SCALARS = NON_INT_SCALARS | st.integers(-(10**6), 10**6)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
JSON_LISTS = st.lists(JSON_VALUES, max_size=3)
JSON_DICTS = st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=3)
NOT_DICT = JSON_SCALARS | JSON_LISTS
NOT_LIST = JSON_SCALARS | JSON_DICTS
NOT_INT = NON_INT_SCALARS | JSON_LISTS | JSON_DICTS
NOT_STR = st.none() | st.booleans() | st.floats() | st.integers(-(10**6), 10**6) | JSON_LISTS | JSON_DICTS


def _not_a_scalar(text: str) -> bool:
    # Whether the text parses, not whether it parses to nonzero: "0" is a scalar.
    try:
        reference_parse(text)
    except ValueError:
        return True
    return False


GOOD_SCALARS = st.sampled_from(["1", "-1", "2", "1/2", "i", "-i", "3-2/5i"])
BAD_SCALARS = st.text(alphabet="0123456789+-/i .e", max_size=8).filter(_not_a_scalar) | NOT_STR
# A zero scalar is a valid matrix entry but not a valid eigenvalue.
BAD_EIGENVALUES = BAD_SCALARS | st.sampled_from(["0", "-0", "0/3", " 0 ", "0i", "0+0i"])


GOOD_BLOCKS = st.fixed_dictionaries({"eigenvalue": GOOD_SCALARS, "size": st.integers(1, 4)})
BAD_BLOCKS = st.one_of(
    NOT_DICT,
    st.fixed_dictionaries({"eigenvalue": GOOD_SCALARS}),
    st.fixed_dictionaries({"size": st.integers(1, 4)}),
    st.fixed_dictionaries({"eigenvalue": BAD_EIGENVALUES, "size": st.integers(1, 4)}),
    st.fixed_dictionaries({"eigenvalue": GOOD_SCALARS, "size": NOT_INT | st.integers(-(10**6), 0)}),
)
MALFORMED_SPECS = st.one_of(
    NOT_DICT,
    st.dictionaries(st.text(max_size=6).filter(lambda k: k != "blocks"), JSON_VALUES, max_size=3),
    st.fixed_dictionaries({"blocks": NOT_LIST}),
    st.builds(
        lambda before, bad, after: {"blocks": before + [bad] + after},
        st.lists(GOOD_BLOCKS, max_size=2),
        BAD_BLOCKS,
        st.lists(GOOD_BLOCKS, max_size=2),
    ),
    st.just({"blocks": []}),
)


@st.composite
def malformed_matrices(draw):
    """Matrix JSON with exactly one kind of defect."""
    n = draw(st.integers(1, 3))
    good = {"rows": n, "cols": n, "entries": [[draw(GOOD_SCALARS) for _ in range(n)] for _ in range(n)]}
    defect = draw(st.sampled_from(["shape", "missing", "count", "big", "entries", "row", "entry"]))
    if defect == "shape":
        return draw(NOT_DICT)
    if defect == "missing":
        del good[draw(st.sampled_from(sorted(good)))]
    elif defect == "count":
        good[draw(st.sampled_from(["rows", "cols"]))] = draw(
            NOT_INT | st.integers(-(10**6), 10**6).filter(lambda k: k != n)
        )
    elif defect == "big":
        good[draw(st.sampled_from(["rows", "cols"]))] = draw(st.integers(MAX_DIMENSION + 1, 10**9))
    elif defect == "entries":
        good["entries"] = draw(NOT_LIST | JSON_LISTS.filter(lambda v: len(v) != n))
    elif defect == "row":
        good["entries"][draw(st.integers(0, n - 1))] = draw(
            NOT_LIST | JSON_LISTS.filter(lambda v: len(v) != n)
        )
    else:
        good["entries"][draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(BAD_SCALARS)
    return good


def _refused(argv, files: dict) -> None:
    """Run main on argv with the named JSON files written to a fresh
    directory; it must refuse with exit 3, one error line and no stdout."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, payload in files.items():
            (Path(tmp) / name).write_text(json.dumps(payload))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([Path(tmp, a).as_posix() if a in files else a for a in argv])
    assert code == 3, (code, err.getvalue())
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


class TestMalformedInputProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        spec=MALFORMED_SPECS,
        command=st.sampled_from(["classify", "witness", "weyr"]),
        fmt=st.sampled_from(["json", "text"]),
    )
    def test_malformed_spec_exits_3(self, spec, command, fmt):
        _refused([command, "--input", "spec.json", "--format", fmt], {"spec.json": spec})

    @settings(max_examples=60, deadline=None)
    @given(matrix=malformed_matrices(), bad_first=st.booleans(), fmt=st.sampled_from(["json", "text"]))
    def test_malformed_matrix_exits_3(self, matrix, bad_first, fmt):
        good = ExactMatrix.identity(2).to_json_dict()
        a, g = (matrix, good) if bad_first else (good, matrix)
        argv = ["verify", "--matrix-a", "a.json", "--matrix-g", "g.json", "--format", fmt]
        _refused(argv, {"a.json": a, "g.json": g})
