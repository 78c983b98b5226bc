"""Command line surface.

Subcommands: classify, witness, verify, weyr, selftest.  Input is Jordan
data as JSON except for ``verify``, which takes raw matrices.  Exit codes
encode the mathematical verdict, never the formatting: 0, 1 and 2 are
verdicts, 3 is a usage or input error and 4 an internal error.

Each ``cmd_*`` returns ``(payload, exit code)``, and ``main`` prints the
payload once: as JSON, or as the text its subcommand's ``*_text`` renderer
makes of it.  The payload is None when a refusal is already on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import accumulate

from . import reversal, verify
from .canonical import JordanSpec, weyr_form
from .matrices import ExactMatrix, SingularMatrixError, format_grid
from .partitions import Partition
from .scalars import MINUS_ONE, ZERO, as_int, echo, json_fields, parse

__all__ = ["main", "entrypoint"]

# witness, weyr and verify refuse (exit 3) an input whose dense matrix would
# have more rows or columns than this, before building it; classify builds none.
MAX_DIMENSION = 512

# Each input file is refused (exit 3) for a JSON integer literal longer than
# this, or a spec eigenvalue or verify's matrix entry whose text is longer,
# before any of them is converted: CPython converts between int and text in
# time that grows faster than the digit count.  The tallest entries a witness
# prints in the tests and CI have about 4 400 characters.
MAX_ENTRY_LENGTH = 10_000

# An error line echoes at most scalars.MAX_ECHO_LENGTH characters of a key
# or value it names, then that text's length (scalars.echo).

# selftest refuses (exit 3) a larger --max-n: its exhaustive sweep grows
# quickly with n, and --max-n 9 already takes seconds.
MAX_SELFTEST_N = 10


class CliInputError(Exception):
    """Unreadable or invalid input file."""


def _unique_keys(pairs: list) -> dict:
    """object_pairs_hook that refuses a key given twice in one object."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {echo(json.dumps(key))}")
            seen.add(key)
    return obj


def _load_json(path: str):
    def bounded_int(text: str) -> int:
        _check_lengths(path, "JSON integer", [text])
        return int(text)

    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=_unique_keys, parse_int=bounded_int)
    except (OSError, ValueError) as exc:  # ValueError covers JSON and text decode errors
        raise CliInputError(f"{path}: {exc}") from exc
    except RecursionError:
        raise CliInputError(f"{path}: JSON nested too deeply") from None


def _check_lengths(path: str, what: str, values) -> None:
    """Refuse a text among values that is longer than MAX_ENTRY_LENGTH."""
    longest = max((len(v) for v in values if isinstance(v, str)), default=0)
    if longest > MAX_ENTRY_LENGTH:
        raise CliInputError(
            f"{path}: {what} of {longest} characters exceeds the limit {MAX_ENTRY_LENGTH}"
        )


def _load_spec(path: str) -> JordanSpec:
    """The spec of a file; its eigenvalue texts are checked before any is parsed."""
    data = _load_json(path)
    blocks = data.get("blocks") if isinstance(data, dict) else None
    if isinstance(blocks, list):
        eigenvalues = [b.get("eigenvalue") for b in blocks if isinstance(b, dict)]
        _check_lengths(path, "eigenvalue", eigenvalues)
    try:
        return JordanSpec.from_json_dict(data)
    except (TypeError, ValueError) as exc:
        raise CliInputError(f"{path}: invalid Jordan spec: {exc}") from exc


def _check_dimension(path: str, n: int) -> None:
    if n > MAX_DIMENSION:
        raise CliInputError(f"{path}: matrix dimension {n} exceeds the limit {MAX_DIMENSION}")


def _matrix_json(path: str) -> dict:
    """The JSON of a matrix file, with its keys checked, its rows and cols
    against MAX_DIMENSION and the length of each entry text against
    MAX_ENTRY_LENGTH; no entry is parsed.  An entries grid of any other
    shape is left for the matrix reader to refuse."""
    data = _load_json(path)
    try:
        rows, cols, entries = json_fields(data, ("rows", "cols", "entries"), "the matrix")
        _check_dimension(path, max(as_int(rows), as_int(cols)))
    except (TypeError, ValueError) as exc:
        raise CliInputError(f"{path}: invalid matrix: {exc}") from exc
    if isinstance(entries, list) and all(isinstance(row, list) for row in entries):
        _check_lengths(path, "matrix entry", (v for row in entries for v in row))
    return data


def _read_matrix(path: str, data: dict) -> ExactMatrix:
    try:
        return ExactMatrix.from_json_dict(data)
    except (TypeError, ValueError) as exc:
        raise CliInputError(f"{path}: invalid matrix: {exc}") from exc


_quote = json.encoder.encode_basestring_ascii


def _write(value, newline: str, out: list) -> None:
    """Append the text of value to out, laid out as json.dumps(value,
    indent=2) lays it out at the depth whose line break is newline."""
    if isinstance(value, str):
        out.append(_quote(value))
        return
    if type(value) is int:
        out.append(int.__repr__(value))
        return
    if value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
        return
    if not value or not isinstance(value, (dict, list, tuple)):
        out.append(json.dumps(value))
        return
    inner = newline + "  "
    if isinstance(value, dict):
        sep = "{" + inner
        for key, item in value.items():
            out.append(sep + _quote(key) + ": ")
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
        return
    try:  # a list of text in one join; join and _quote raise TypeError on anything else
        text = "".join(value)
        if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
            # no entry needs escaping, so each is quoted as it stands
            out.append("[" + inner + '"' + ('",' + inner + '"').join(value) + '"' + newline + "]")
        else:
            out.append("[" + inner + ("," + inner).join(map(_quote, value)) + newline + "]")
    except TypeError:
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")


def _json_text(payload) -> str:
    """json.dumps(payload, indent=2), byte for byte.  With indent set,
    json.dumps runs its pure-Python encoder; this writer quotes strings with
    the C quoting function and writes a list of strings in one join."""
    out: list = []
    _write(payload, "\n", out)
    return "".join(out)


def _block_json(block) -> dict:
    eig, size = block
    return {"eigenvalue": str(eig), "size": size}


def cmd_classify(args) -> tuple[dict, int]:
    spec = _load_spec(args.input)
    report = reversal.classify(spec)
    payload = {
        "spec": spec.to_json_dict(),
        "n": spec.n,
        "reversible": report.reversible,
        "pairing": {
            "pairs": [
                [_block_json(spec.blocks[i]), _block_json(spec.blocks[j])]
                for i, j in report.pairs
            ],
            "singletons": [_block_json(spec.blocks[i]) for i in report.singletons],
        },
        "failure_witness": (
            _block_json(report.failure_witness) if report.failure_witness else None
        ),
        "strongly_reversible": report.strongly_reversible,
        "plus_one_multiplicity": sum(report.plus_sizes),
        "minus_one_multiplicity": sum(report.minus_sizes),
        "plus_one_partition": list(Partition(report.plus_sizes).parts),
        "minus_one_partition": list(Partition(report.minus_sizes).parts),
        "odd_block_present": report.odd_block_present,
        "parity_value": report.parity_value,
        "parity_even": report.parity_even,
    }
    return payload, 0 if report.strongly_reversible else 1 if report.reversible else 2


def cmd_witness(args) -> tuple[dict | None, int]:
    spec = _load_spec(args.input)
    _check_dimension(args.input, spec.n)
    try:
        if args.sl_only:
            bundle = reversal.sl_reverser_witness(spec)
        else:
            bundle = reversal.involutive_witness(spec)
    except (reversal.NotStronglyReversibleError, reversal.NotReversibleError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return None, 1 if isinstance(exc, reversal.NotStronglyReversibleError) else 2
    payload = {
        "spec": spec.to_json_dict(),
        "mode": "sl-only" if args.sl_only else "involutive",
        "a": bundle.a.to_json_dict(),
        "g": bundle.g.to_json_dict(),
        "verification": bundle.report.to_json_dict(),
        "transcript": list(bundle.transcript),
    }
    return payload, 0


def cmd_verify(args) -> tuple[dict, int]:
    # Both files' sizes are checked before either file's entries are read.
    data_a, data_g = _matrix_json(args.matrix_a), _matrix_json(args.matrix_g)
    a = _read_matrix(args.matrix_a, data_a)
    g = _read_matrix(args.matrix_g, data_g)
    try:
        report = verify.check_witness(a, g)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    except SingularMatrixError as exc:
        raise CliInputError(f"first matrix must be invertible: {exc}") from exc
    return {"report": report.to_json_dict()}, 0 if report.all_good() else 1


def cmd_weyr(args) -> tuple[dict, int]:
    spec = _load_spec(args.input)
    _check_dimension(args.input, spec.n)
    wf = weyr_form(spec)
    payload = {
        "spec": spec.to_json_dict(),
        "structures": [
            {"eigenvalue": str(w.eigenvalue), "sizes": list(w.sizes)}
            for w in wf.structures
        ],
        "matrix": wf.matrix.to_json_dict(),
        "permutation": list(wf.permutation.images),
    }
    return payload, 0


def cmd_selftest(args) -> tuple[dict, int]:
    if args.max_n < 1:
        raise CliInputError(f"--max-n must be at least 1, got {args.max_n}")
    if args.max_n > MAX_SELFTEST_N:
        raise CliInputError(f"--max-n must be at most {MAX_SELFTEST_N}, got {args.max_n}")
    summary = verify.run_selftest(max_n=args.max_n, seed=args.seed)
    return summary, 0 if summary["total_failures"] == 0 else 1


def _block_text(block: dict) -> str:
    return f"J({block['eigenvalue']},{block['size']})"


def _spec_text(spec: dict) -> str:
    return " + ".join(map(_block_text, spec["blocks"]))


def _yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


def _report_text(report: dict) -> str:
    return (
        f"reverses: {report['reverses']}, involution: {report['involution']}, "
        f"determinant: {report['determinant']}"
    )


def classify_text(p: dict) -> str:
    lines = [
        f"spec: {_spec_text(p['spec'])}   (n = {p['n']})",
        f"reversible: {_yes_no(p['reversible'])}",
    ]
    pairing = p["pairing"]
    lines += [f"  pair: {_block_text(x)} with {_block_text(y)}" for x, y in pairing["pairs"]]
    lines += [f"  singleton: {_block_text(b)}" for b in pairing["singletons"]]
    if p["failure_witness"]:
        lines.append(f"  unmatched block: {_block_text(p['failure_witness'])}")
    plus, minus = p["plus_one_partition"], p["minus_one_partition"]
    lines += [
        f"strongly reversible: {_yes_no(p['strongly_reversible'])}",
        f"  +1 multiplicity {p['plus_one_multiplicity']}, block partition {plus}",
        f"  -1 multiplicity {p['minus_one_multiplicity']}, block partition {minus}",
        f"  odd block at eigenvalue +-1: {_yes_no(p['odd_block_present'])}",
        f"  parity value: {p['parity_value']} ({'even' if p['parity_even'] else 'odd'})",
    ]
    for sign, parts in (("+1", plus), ("-1", minus)):
        if parts:
            lines.append(f"Young diagram of the {sign} structure:")
            if max(parts) > MAX_DIMENSION:
                lines.append(f"omitted (largest part {max(parts)} exceeds {MAX_DIMENSION})")
            else:
                lines.append(Partition(parts).young_diagram())
    return "\n".join(lines)


def _squares_to_minus_identity(p: dict) -> bool:
    """g^2 = -I for the g of a witness payload, read from its text, one
    column of g^2 at a time: column q is formed from column q of g and the
    columns of g that its nonzeros reach, and only those are parsed.

    If g reverses a, g^2 commutes with a (the lemma of check_witness).  The
    a of a payload is the Jordan matrix of its spec, and within a block
    e_{j-1} is (a - a_jj) e_j, so a column q of g^2 equal to -e_q at the
    block's end makes the whole block -I; only those columns are formed.
    Otherwise every column is."""
    entries = p["g"]["entries"]
    ends = range(len(entries))
    if p["verification"]["reverses"]:
        ends = [q - 1 for q in accumulate(b["size"] for b in p["spec"]["blocks"])]
    for q in ends:
        square = [ZERO] * len(entries)  # column q of g^2
        for k, row in enumerate(entries):
            x = parse(row[q])
            if x:
                square = [t + parse(r[k]) * x for t, r in zip(square, entries)]
        if any(t != (MINUS_ONE if i == q else ZERO) for i, t in enumerate(square)):
            return False
    return True


def witness_text(p: dict) -> str:
    report = p["verification"]
    lines = [
        f"spec: {_spec_text(p['spec'])}   (mode: {p['mode']})",
        "A =",
        format_grid(p["a"]["entries"]),
        "g =",
        format_grid(p["g"]["entries"]),
        _report_text(report),
    ]
    if not report["involution"] and _squares_to_minus_identity(p):
        lines.append("note: g squares to -I")
    lines += [f"  {line}" for line in p["transcript"]]
    return "\n".join(lines)


def verify_text(p: dict) -> str:
    report = p["report"]
    special = "in" if report["in_special"] else "not in"
    lines = [f"{_report_text(report)} ({special} the special linear group)"]
    for residual in report["residuals"]:
        pos = residual["position"]
        where = f" first difference at {tuple(pos)}" if pos else ""
        lines.append(f"  failed: {residual['check']}{where}")
    return "\n".join(lines)


def weyr_text(p: dict) -> str:
    blocks = p["spec"]["blocks"]
    lines = [f"spec: {_spec_text(p['spec'])}   (n = {sum(b['size'] for b in blocks)})"]
    for w in p["structures"]:
        jordan = Partition(b["size"] for b in blocks if b["eigenvalue"] == w["eigenvalue"])
        lines += [
            f"eigenvalue {w['eigenvalue']}:",
            f"  Jordan structure {list(jordan.parts)}:",
            jordan.young_diagram(),
            f"  Weyr structure {w['sizes']}:",
            Partition(w["sizes"]).young_diagram(),
        ]
    lines += [
        "Weyr matrix =",
        format_grid(p["matrix"]["entries"]),
        f"basis permutation (Jordan position -> Weyr position, 1-based): {p['permutation']}",
    ]
    return "\n".join(lines)


def selftest_text(summary: dict) -> str:
    lines = []
    for suite in summary["suites"]:
        failures = suite["failures"]
        status = f"{len(failures)} FAILURES" if failures else "ok"
        lines.append(f"{suite['name']}: {suite['cases']} cases, {status}")
        lines += [f"  {failure}" for failure in failures]
    lines.append(f"total failures: {summary['total_failures']}")
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strongrev",
        description=(
            "Decide reversibility and strong reversibility of SL(n) Jordan "
            "forms over Q(i), construct reversing witnesses, and verify them "
            "exactly."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "text"), default="text")

    p_classify = sub.add_parser("classify", help="classify a Jordan spec")
    p_classify.add_argument("--input", required=True, help="JordanSpec JSON file")
    add_format(p_classify)
    p_classify.set_defaults(func=cmd_classify, render=classify_text)

    p_witness = sub.add_parser("witness", help="construct a reversing witness")
    p_witness.add_argument("--input", required=True, help="JordanSpec JSON file")
    group = p_witness.add_mutually_exclusive_group()
    group.add_argument(
        "--involutive",
        action="store_true",
        help="require an involutive witness (the default)",
    )
    group.add_argument(
        "--sl-only",
        action="store_true",
        help="only require determinant one, not an involution",
    )
    add_format(p_witness)
    p_witness.set_defaults(func=cmd_witness, render=witness_text)

    p_verify = sub.add_parser("verify", help="verify a user-supplied reverser")
    p_verify.add_argument("--matrix-a", required=True, help="matrix JSON file")
    p_verify.add_argument("--matrix-g", required=True, help="matrix JSON file")
    add_format(p_verify)
    p_verify.set_defaults(func=cmd_verify, render=verify_text)

    p_weyr = sub.add_parser("weyr", help="display Weyr data of a Jordan spec")
    p_weyr.add_argument("--input", required=True, help="JordanSpec JSON file")
    add_format(p_weyr)
    p_weyr.set_defaults(func=cmd_weyr, render=weyr_text)

    p_selftest = sub.add_parser("selftest", help="run the verification suites")
    p_selftest.add_argument("--max-n", type=int, default=6)
    p_selftest.add_argument("--seed", type=int, default=0)
    add_format(p_selftest)
    p_selftest.set_defaults(func=cmd_selftest, render=selftest_text)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error; 2 is a verdict
        return 0 if exc.code == 0 else 3
    # Exact entries can have more digits than CPython converts between int
    # and text by default (4300), so the command runs with that limit lifted
    # and restored after it; Python 3.10.0 to 3.10.6 have no such limit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        payload, code = args.func(args)
        if payload is not None:
            print(_json_text(payload) if args.format == "json" else args.render(payload))
        return code
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
