"""Fast self-check of the benchmark on tiny workloads.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout.  It confirms that BENCHMARK.json's
metric names and units are the ones run.py reports with either trace
setting, that the oracle gets the README examples right, that every count
metric repeats exactly between two traced runs of one seed, and that the
benchmark refuses to run without the program's sources.  Exits 1 on the
first mismatch.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import exact as qi  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402

TINY = {
    "witness-dense": lambda seed, out: wl.witness_dense(
        random.Random(seed), out, (("pm", (4,), (2, 1), ()), ("pairs", (2,), (2,), ()), ("pm", (6,), (), (1,)))
    ),
    "sweep": lambda seed, out: wl.sweep(seed, max_n=3),
    "cli-mix": lambda seed, out: wl.cli_mix(random.Random(seed), out, repeats=1, n_range=(6, 8)),
}
COUNT_SUFFIXES = (".calls", ".n3", ".count", ".errors", "g_height_bits", "g_nnz", "reversible_ratio",
                  "per_witness", "output_bytes")


def fail(message: str) -> None:
    print(f"selfcheck FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def tiny_run(workload: str, seed: int, trace: bool) -> dict:
    out = HERE / "out" / f"selfcheck-{workload}"
    with contextlib.redirect_stdout(io.StringIO()):
        result = run.run(workload, seed, 0.01, trace, out, TINY[workload])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["attempted"] < 1:
        fail(f"{workload}: malformed result {sorted(result)}")
    if not result["correct"]:
        fail(f"{workload}: an output check failed")
    return result


def check_names(label: str, metrics: dict, declared: list) -> None:
    got = {name: m["unit"] for name, m in metrics.items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        fail(f"{label}: reported {sorted(set(got.items()) ^ set(want.items()))[:6]} differ from BENCHMARK.json")


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} != {
        name: (unit, better) for name, (unit, better, _) in END_TO_END.items()
    }:
        fail("BENCHMARK.json end_to_end differs from metrics.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != [p[:3] for p in PER_LAYER]:
        fail("BENCHMARK.json per_layer differs from metrics.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(wl.WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    two = qi.scalar(2)
    for blocks, want in (
        ([(qi.ONE, 2)] * 2, qi.STRONG),
        ([(qi.ONE, 2)] * 3, qi.REVERSIBLE_ONLY),
        ([(two, 1)], qi.NOT_REVERSIBLE),
        ([(two, 1), (qi.inv(two), 1)], qi.REVERSIBLE_ONLY),
        ([(two, 1), (qi.inv(two), 2)], qi.NOT_REVERSIBLE),
    ):
        if qi.verdict(blocks)[0] != want:
            fail(f"oracle gives {qi.verdict(blocks)} for {blocks}, expected {want}")

    sys.path.insert(0, str(run.SRC))
    for workload in wl.WORKLOADS:
        check_names(f"{workload} trace 0", tiny_run(workload, 3, False)["metrics"], spec["end_to_end"])
        first = tiny_run(workload, 3, True)["metrics"]
        check_names(f"{workload} trace 1", first, spec["per_layer"])
        second = tiny_run(workload, 3, True)["metrics"]
        for name, m in first.items():
            if name.endswith(COUNT_SUFFIXES) and m["value"] != second[name]["value"]:
                fail(f"{workload}: count {name} read {m['value']} then {second[name]['value']}")
        print(f"{workload}: ok (matrices.inverse.per_witness = {first['matrices.inverse.per_witness']['value']})")

    bare = HERE / "out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("run.py did not refuse to run without the program's sources")
    print("bare checkout: refused as required")
    return 0


if __name__ == "__main__":
    sys.exit(main())
