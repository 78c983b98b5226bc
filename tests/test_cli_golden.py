"""Byte-exact CLI outputs: every case runs ``main(argv)`` on the small input
files in ``tests/golden/`` and must reproduce the recorded stdout bytes
(``<case>.out``) and the recorded exit code and stderr (``expected.json``).
Error messages name input files relative to ``tests/golden/``, so the
recordings do not depend on where the checkout lives.

The recordings are the equivalence check for refactors that must not
change behaviour.  To record them again, on the commit whose outputs are
the reference, run ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from strongrev.cli import _build_parser, main

GOLDEN = Path(__file__).parent / "golden"


def _formats(name: str, argv: list[str]) -> list[tuple[str, list[str]]]:
    return [(f"{name}-{fmt}", argv + ["--format", fmt]) for fmt in ("json", "text")]


CASES = dict(
    _formats("classify-strong", ["classify", "--input", "strong.json"])
    + _formats("classify-reversible-only", ["classify", "--input", "reversible_only.json"])
    + _formats("classify-not-reversible", ["classify", "--input", "not_reversible.json"])
    + _formats("classify-not-reversible-units", ["classify", "--input", "not_reversible_units.json"])
    + _formats("witness-involutive-pairs", ["witness", "--involutive", "--input", "pairs.json"])
    + _formats("witness-involutive-flip", ["witness", "--involutive", "--input", "flip.json"])
    + _formats("witness-involutive-refused-1", ["witness", "--involutive", "--input", "reversible_only.json"])
    + _formats("witness-involutive-refused-2", ["witness", "--involutive", "--input", "not_reversible.json"])
    + _formats("witness-sl-only-minus-i", ["witness", "--sl-only", "--input", "sl_only.json"])
    + _formats("witness-sl-only-strong", ["witness", "--sl-only", "--input", "strong.json"])
    + _formats("witness-sl-only-refused-2", ["witness", "--sl-only", "--input", "not_reversible.json"])
    + _formats("weyr", ["weyr", "--input", "weyr.json"])
    + _formats("verify-pass", ["verify", "--matrix-a", "pass_a.json", "--matrix-g", "pass_g.json"])
    + _formats("verify-fail", ["verify", "--matrix-a", "fail_a.json", "--matrix-g", "fail_g.json"])
    + _formats("classify-malformed-real-denominator", ["classify", "--input", "bad_real_denominator.json"])
    + _formats("classify-malformed-imag-denominator", ["classify", "--input", "bad_imag_denominator.json"])
    + _formats("classify-malformed-double-slash", ["classify", "--input", "bad_double_slash.json"])
    + _formats("classify-malformed-duplicate-key", ["classify", "--input", "duplicate_key.json"])
    + _formats("verify-malformed-entry", ["verify", "--matrix-a", "bad_entry_a.json", "--matrix-g", "pass_g.json"])
    + _formats("verify-long-entry", ["verify", "--matrix-a", "pass_a.json", "--matrix-g", "long_entry_g.json"])
    + _formats("classify-long-eigenvalue", ["classify", "--input", "long_eigenvalue.json"])
    + _formats("classify-long-size", ["classify", "--input", "long_size.json"])
    + _formats("classify-malformed-unknown-block-key", ["classify", "--input", "unknown_block_key.json"])
    + _formats("classify-malformed-unknown-spec-key", ["classify", "--input", "unknown_spec_key.json"])
    + _formats("classify-malformed-blocks-object", ["classify", "--input", "blocks_object.json"])
    + _formats("classify-malformed-top-level-array", ["classify", "--input", "top_level_array.json"])
    + _formats("verify-malformed-unknown-key", ["verify", "--matrix-a", "pass_a.json", "--matrix-g", "unknown_matrix_key.json"])
    + _formats("selftest-max-n-2", ["selftest", "--max-n", "2"])
)


def run_case(argv: list[str]) -> tuple[int, str, str]:
    resolved = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolved)
    return code, out.getvalue(), err.getvalue().replace(f"{GOLDEN}{os.sep}", "")


def test_every_case_is_recorded():
    assert set(json.loads((GOLDEN / "expected.json").read_text())) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_recording(case):
    expected = json.loads((GOLDEN / "expected.json").read_text())[case]
    code, out, err = run_case(CASES[case])
    assert out.encode() == (GOLDEN / f"{case}.out").read_bytes()
    assert code == expected["exit"]
    assert err == expected["stderr"]


def _recorded_output(case: str) -> bool:
    """Whether the case has a nonempty recording; a case not yet recorded
    has none, so the recorder below can still import this file."""
    path = GOLDEN / f"{case}.out"
    return path.is_file() and path.stat().st_size > 0


TEXT_CASES = sorted(case for case in CASES if case.endswith("-text") and _recorded_output(case))


@pytest.mark.parametrize("case", TEXT_CASES)
def test_text_is_rendered_from_json(case):
    """The text recording is the subcommand's renderer applied to the parsed
    JSON output of the same request."""
    _, out, _ = run_case(CASES[case.removesuffix("-text") + "-json"])
    render = _build_parser().parse_args(CASES[case]).render
    text = render(json.loads(out)) + "\n"
    assert text.encode() == (GOLDEN / f"{case}.out").read_bytes()


if __name__ == "__main__":
    expected = {}
    for case, argv in sorted(CASES.items()):
        code, out, err = run_case(argv)
        (GOLDEN / f"{case}.out").write_bytes(out.encode())
        expected[case] = {"exit": code, "stderr": err}
    (GOLDEN / "expected.json").write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
