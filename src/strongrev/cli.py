"""Command line surface.

Subcommands: classify, witness, verify, weyr, selftest.  Input is Jordan
data as JSON except for ``verify``, which takes raw matrices.  Exit codes
encode the mathematical verdict, never the formatting: 0, 1 and 2 are
verdicts, 3 is a usage or input error and 4 an internal error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import reversal, verify
from .canonical import JordanSpec, weyr_form
from .matrices import ExactMatrix, SingularMatrixError
from .partitions import Partition
from .scalars import ScalarParseError

__all__ = ["main", "entrypoint"]


class CliInputError(Exception):
    """Unreadable or invalid input file."""


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliInputError(f"{path}: {exc}") from exc


def _load_spec(path: str) -> JordanSpec:
    data = _load_json(path)
    try:
        return JordanSpec.from_json_dict(data)
    except (KeyError, TypeError, ValueError, ScalarParseError) as exc:
        raise CliInputError(f"{path}: invalid Jordan spec: {exc}") from exc


def _load_matrix(path: str) -> ExactMatrix:
    data = _load_json(path)
    try:
        return ExactMatrix.from_json_dict(data)
    except (KeyError, TypeError, ValueError, ScalarParseError) as exc:
        raise CliInputError(f"{path}: invalid matrix: {exc}") from exc


def _block_json(block) -> dict:
    eig, size = block
    return {"eigenvalue": str(eig), "size": size}


def _emit(payload: dict, args) -> None:
    print(json.dumps(payload, indent=2))


def _spec_text(spec: JordanSpec) -> str:
    return " + ".join(f"J({eig},{size})" for eig, size in spec.blocks)


def cmd_classify(args) -> int:
    spec = _load_spec(args.input)
    report = reversal.classify(spec)
    pairing = report.pairing
    payload = {
        "spec": spec.to_json_dict(),
        "n": spec.n,
        "reversible": report.reversible,
        "pairing": {
            "pairs": [
                [_block_json(spec.blocks[i]), _block_json(spec.blocks[j])]
                for i, j in pairing.pairs
            ],
            "singletons": [_block_json(spec.blocks[i]) for i in pairing.singletons],
        },
        "failure_witness": (
            _block_json(pairing.failure_witness) if pairing.failure_witness else None
        ),
        "strongly_reversible": report.strongly_reversible,
        "plus_one_multiplicity": report.p,
        "minus_one_multiplicity": report.q,
        "plus_one_partition": list(report.partition_plus.parts),
        "minus_one_partition": list(report.partition_minus.parts),
        "odd_block_present": report.odd_block_present,
        "parity_value": report.parity_value,
        "parity_even": report.parity_even,
    }
    if args.format == "json":
        _emit(payload, args)
    else:
        print(f"spec: {_spec_text(spec)}   (n = {spec.n})")
        print(f"reversible: {'yes' if report.reversible else 'no'}")
        for i, j in pairing.pairs:
            ei, si = spec.blocks[i]
            ej, sj = spec.blocks[j]
            print(f"  pair: J({ei},{si}) with J({ej},{sj})")
        for i in pairing.singletons:
            eig, size = spec.blocks[i]
            print(f"  singleton: J({eig},{size})")
        if pairing.failure_witness:
            eig, size = pairing.failure_witness
            print(f"  unmatched block: J({eig},{size})")
        print(f"strongly reversible: {'yes' if report.strongly_reversible else 'no'}")
        print(f"  +1 multiplicity {report.p}, block partition {list(report.partition_plus.parts)}")
        print(f"  -1 multiplicity {report.q}, block partition {list(report.partition_minus.parts)}")
        print(f"  odd block at eigenvalue +-1: {'yes' if report.odd_block_present else 'no'}")
        parity = "even" if report.parity_even else "odd"
        print(f"  parity value: {report.parity_value} ({parity})")
        if report.partition_plus.parts:
            print("Young diagram of the +1 structure:")
            print(report.partition_plus.young_diagram())
        if report.partition_minus.parts:
            print("Young diagram of the -1 structure:")
            print(report.partition_minus.young_diagram())
    if report.strongly_reversible:
        return 0
    if report.reversible:
        return 1
    return 2


def cmd_witness(args) -> int:
    spec = _load_spec(args.input)
    mode = "sl-only" if args.sl_only else "involutive"
    try:
        if args.sl_only:
            bundle = reversal.sl_reverser_witness(spec)
        else:
            bundle = reversal.involutive_witness(spec)
    except reversal.NotStronglyReversibleError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except reversal.NotReversibleError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    report = bundle.report
    payload = {
        "spec": spec.to_json_dict(),
        "mode": mode,
        "a": bundle.a.to_json_dict(),
        "g": bundle.g.to_json_dict(),
        "verification": report.to_json_dict(),
        "transcript": list(bundle.transcript),
    }
    if args.format == "json":
        _emit(payload, args)
    else:
        print(f"spec: {_spec_text(spec)}   (mode: {mode})")
        print("A =")
        print(str(bundle.a))
        print("g =")
        print(str(bundle.g))
        print(
            f"reverses: {report.reverses}, involution: {report.involution}, "
            f"determinant: {report.determinant}"
        )
        if not report.involution:
            square = bundle.g * bundle.g
            if square == ExactMatrix.identity(square.rows).scale(-1):
                print("note: g squares to -I")
        for line in bundle.transcript:
            print(f"  {line}")
    return 0


def cmd_verify(args) -> int:
    a = _load_matrix(args.matrix_a)
    g = _load_matrix(args.matrix_g)
    try:
        report = verify.check_witness(a, g)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SingularMatrixError as exc:
        print(f"error: first matrix must be invertible: {exc}", file=sys.stderr)
        return 3
    payload = {"report": report.to_json_dict()}
    if args.format == "json":
        _emit(payload, args)
    else:
        print(
            f"reverses: {report.reverses}, involution: {report.involution}, "
            f"determinant: {report.determinant} "
            f"({'in' if report.in_special else 'not in'} the special linear group)"
        )
        for name, pos in report.residuals:
            where = f" first difference at {pos}" if pos else ""
            print(f"  failed: {name}{where}")
    return 0 if report.all_good() else 1


def cmd_weyr(args) -> int:
    spec = _load_spec(args.input)
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
    if args.format == "json":
        _emit(payload, args)
    else:
        print(f"spec: {_spec_text(spec)}   (n = {spec.n})")
        for (eig, jordan_partition), w in zip(spec.structures(), wf.structures):
            print(f"eigenvalue {eig}:")
            print(f"  Jordan structure {list(jordan_partition.parts)}:")
            print(jordan_partition.young_diagram())
            print(f"  Weyr structure {list(w.sizes)}:")
            print(Partition(w.sizes).young_diagram())
        print("Weyr matrix =")
        print(str(wf.matrix))
        print(f"basis permutation (Jordan position -> Weyr position, 1-based): "
              f"{list(wf.permutation.images)}")
    return 0


def cmd_selftest(args) -> int:
    summary = verify.run_selftest(max_n=args.max_n, seed=args.seed)
    if args.format == "json":
        _emit(summary, args)
    else:
        for suite in summary["suites"]:
            status = "ok" if not suite["failures"] else f"{len(suite['failures'])} FAILURES"
            print(f"{suite['name']}: {suite['cases']} cases, {status}")
            for failure in suite["failures"]:
                print(f"  {failure}")
        print(f"total failures: {summary['total_failures']}")
    return 0 if summary["total_failures"] == 0 else 1


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
    p_classify.set_defaults(func=cmd_classify)

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
    p_witness.set_defaults(func=cmd_witness)

    p_verify = sub.add_parser("verify", help="verify a user-supplied reverser")
    p_verify.add_argument("--matrix-a", required=True, help="matrix JSON file")
    p_verify.add_argument("--matrix-g", required=True, help="matrix JSON file")
    add_format(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_weyr = sub.add_parser("weyr", help="display Weyr data of a Jordan spec")
    p_weyr.add_argument("--input", required=True, help="JordanSpec JSON file")
    add_format(p_weyr)
    p_weyr.set_defaults(func=cmd_weyr)

    p_selftest = sub.add_parser("selftest", help="run the verification suites")
    p_selftest.add_argument("--max-n", type=int, default=6)
    p_selftest.add_argument("--seed", type=int, default=0)
    add_format(p_selftest)
    p_selftest.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error; 2 is a verdict
        return 0 if exc.code == 0 else 3
    try:
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
