"""strongrev benchmark.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a source checkout; strongrev is imported from its
``src/``.  One single-threaded client drives the program in-process as a
closed loop: the next request starts when the previous one has returned and
been checked, and only the program's time counts as busy time.  Whole rounds
of the seeded workload run until ``--seconds`` of busy time have passed.
Reported times are rescaled to the host's unloaded speed (see HostSpeed).

With ``--trace 0`` the last stdout line holds the end-to-end metrics of
metrics.END_TO_END; the line before it holds the per-workload metrics named
in metrics.PER_LAYER's mapping.  With ``--trace 1`` the run serves one round
untraced and the same round traced, so every count repeats exactly for a
seed, and reports metrics.PER_LAYER; spans are written to
``perfbench/out/spans-<workload>-seed<seed>.jsonl.gz``.

Any output that disagrees with the benchmark's own oracle makes the run
print the problems to stderr, report ``"correct": false`` and exit 1.  A
malformed request that is not refused with exit 3 is counted as failed.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
import exact as qi  # noqa: E402
from metrics import PER_LAYER, PER_LAYER_UNITS  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SETUP_REPEATS = 9
PROBE_EVERY_S = 0.25
PROBE_REF_S = 0.015  # the probe's time on an unloaded 2-vCPU x86-64 VM, CPython 3.11
# The workload's first request, included in setup_s.
WARMUP = {
    "witness-dense": lambda out: wl.witness_op([(wl.ONE, 3), (wl.MINUS_ONE, 2)], out / "warmup.json", False),
    "cli-mix": lambda out: wl.Op(
        "classify",
        ["classify", "--format", "json", "--input", wl.write_json(out / "warmup.json", wl.spec_json([(wl.ONE, 2)] * 3))],
        wl.check_classify([(wl.ONE, 2)] * 3),
    ),
    "sweep": lambda out: wl.sweep(0, max_n=2)[0],
}


@dataclass
class Record:
    op: wl.Op
    slot: int
    start: float
    end: float
    raw: object
    problem: str | None = None
    seconds: float = 0.0  # busy time, probes excluded
    norm_s: float = 0.0  # busy time at the host's unloaded speed, see HostSpeed


class HostSpeed:
    """Rescales busy time to the host's unloaded speed.

    Other tenants of a shared host slow this process by up to 2x, in phases
    that last from a fraction of a second to minutes, and the slowdown never
    shows in CPU time.  So a fixed exact-arithmetic probe (the benchmark's
    own determinant of a 14 x 14 Gaussian-rational matrix) runs whenever
    PROBE_EVERY_S have passed: between requests, and between the specs of a
    sweep.  Work between two probes is scaled by PROBE_REF_S over their
    mean; the probes' own time is not work.
    """

    def __init__(self):
        rng = random.Random(0)
        self.matrix = [
            [qi.scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
             for _ in range(14)]
            for _ in range(14)
        ]
        self.marks: list[tuple[float, float]] = []  # (start, end) of every probe
        for _ in range(3):
            self.probe()

    def probe(self) -> None:
        start = time.perf_counter()
        qi.det(self.matrix)
        self.marks.append((start, time.perf_counter()))

    def maybe_probe(self) -> None:
        if time.perf_counter() - self.marks[-1][1] >= PROBE_EVERY_S:
            self.probe()

    def rescale(self, records: list[Record]) -> None:
        """Set each record's busy and rescaled time; probe after the last."""
        self.probe()
        ends = [end for _, end in self.marks]
        for r in records:
            r.seconds = r.norm_s = 0.0
            k = max(bisect.bisect_right(ends, r.start) - 1, 0)
            for (s0, e0), (s1, e1) in zip(self.marks[k:], self.marks[k + 1:]):
                if s0 >= r.end:
                    break
                span = min(r.end, s1) - max(r.start, e0)
                if span > 0:
                    r.seconds += span
                    r.norm_s += span * PROBE_REF_S / ((e0 - s0 + e1 - s1) / 2)

    def probe_s(self) -> list[float]:
        return [end - start for start, end in self.marks]


def fresh_import() -> dict:
    """Import strongrev as a new process would, and return its modules."""
    for name in [n for n in sys.modules if n == "strongrev" or n.startswith("strongrev.")]:
        del sys.modules[name]
    package = importlib.import_module("strongrev")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"strongrev was imported from {package.__file__}, not from {SRC}")
    importlib.import_module("strongrev.cli")
    return {name: sys.modules[f"strongrev.{name}"] for name in LAYERS}


def setup(warmup: wl.Op, speed: HostSpeed) -> tuple[dict, float]:
    """Median over SETUP_REPEATS of import plus the first request."""
    records = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        modules = fresh_import()
        raw = wl.Client(modules).call(warmup)
        records.append(Record(warmup, 0, start, time.perf_counter(), raw))
        speed.maybe_probe()
        problem = wl.problem_of(warmup, raw)
        if problem:
            raise RuntimeError(f"first request failed: {problem}")
    speed.rescale(records)
    return modules, statistics.median(r.norm_s for r in records)


def drive(client: wl.Client, ops: list, checked: dict, speed: HostSpeed, seconds: float | None = None,
          rounds: int | None = None, tracer: Tracer | None = None) -> list[Record]:
    """Serve whole rounds of ops until ``seconds`` of busy time or ``rounds``
    rounds.  Each distinct output is checked once; a repeat of an output
    already checked for the same op reuses that verdict.  A fixed number of
    rounds (the traced run and its untraced twin) probes only between
    requests, so no probe falls inside a span."""
    pace = speed.maybe_probe if rounds is None else None
    records, busy, done = [], 0.0, 0
    while (rounds is not None and done < rounds) or (seconds is not None and busy < seconds):
        for index, op in enumerate(ops):
            if tracer:
                tracer.request = len(records) + 1
            start = time.perf_counter()
            raw = client.call(op, pace)
            record = Record(op, index, start, time.perf_counter(), raw)
            if tracer:
                tracer.request = 0
            speed.maybe_probe()
            busy += record.end - record.start
            if checked.get(index, (None,))[0] != raw:
                checked[index] = (raw, wl.problem_of(op, raw))
            record.problem = checked[index][1]
            record.raw = compact(raw)
            records.append(record)
        done += 1
    speed.rescale(records)
    return records


def compact(raw):
    """What the metrics need of an output, so records stay small: exit code
    and stdout bytes of a CLI request, verdict counts of a sweep."""
    if isinstance(raw, dict):
        return {k: v for k, v in raw.items() if k != "failures"}
    code, out = raw
    return code, len(out.encode())


def percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank percentile, or None unless 10 samples lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    if len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


def outcome(records: list[Record]) -> tuple[bool, int, int]:
    """(correct, attempted, failed), printing every problem to stderr."""
    correct, failed = True, 0
    seen = set()
    for r in records:
        if r.problem:
            failed += r.op.units
            correct = correct and r.op.malformed
            if (id(r.op), r.problem) not in seen:
                seen.add((id(r.op), r.problem))
                label = "malformed request not refused" if r.op.malformed else "WRONG OUTPUT"
                print(f"{label}: {r.op.kind} {r.op.argv or r.op.pool}: {r.problem}", file=sys.stderr)
    return correct, sum(r.op.units for r in records), failed


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, records: list[Record], ops: list, setup_s: float) -> tuple[dict, dict]:
    """(end-to-end metrics, per-workload detail metrics).

    Each slot of the round is timed by the median of its rescaled times over
    the rounds served, and a round takes the sum of those medians.
    """
    per_slot = defaultdict(list)
    for r in records:
        per_slot[r.slot].append(r.norm_s)
    slot_s = [statistics.median(per_slot[i]) for i in range(len(ops))]
    round_s = sum(slot_s)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    main = {
        "setup_s": metric(setup_s, "s"),
        "throughput_per_s": metric(sum(op.units for op in ops) / round_s, "1/s"),
        "latency_p50_s": metric(statistics.median(slot_s), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    detail = {"setup_s": main["setup_s"], "peak_rss_mb": main["peak_rss_mb"]}
    if workload == "witness-dense":
        detail["witness_per_s"] = metric(len(ops) / round_s, "1/s")
        detail["witness_p50_s"] = main["latency_p50_s"]
    elif workload == "sweep":
        detail["sweep_specs_per_s"] = main["throughput_per_s"]
    else:
        detail["requests_per_s"] = main["throughput_per_s"]
        for kind in ("witness", "verify", "classify"):
            kind_s = [t for op, t in zip(ops, slot_s) if op.kind == kind]
            detail[f"{kind}_p50_s"] = metric(statistics.median(kind_s), "s")
            p90 = percentile([r.norm_s for r in records if r.op.kind == kind], 0.9)
            if kind != "classify" and p90 is not None:
                detail[f"{kind}_p90_s"] = metric(p90, "s")
    failed = sum(r.op.units for r in records if r.problem)
    detail["failed_ratio"] = metric(failed / sum(r.op.units for r in records), "ratio")
    samples = dict(Counter(r.op.kind for r in records))
    return main, {"rounds": len(records) // len(ops), "samples": samples, "detail": detail}


def layer_metrics(tracer: Tracer, records: list[Record], untraced: list[Record]) -> dict:
    values = tracer.metrics()
    witness_requests = {
        i + 1 for i, r in enumerate(records) if r.op.kind == "witness" and r.raw[0] == 0
    }
    inverses = tracer.calls_in("matrices.inverse", witness_requests)
    values["matrices.inverse.per_witness"] = inverses / len(witness_requests) if witness_requests else 0
    gs = list({id(b.g): b.g for b in tracer.witnesses}.values())
    values["matrices.g_nnz"] = sum(1 for g in gs for row in g.entries for v in row if v) / len(gs) if gs else 0
    values["scalars.g_height_bits"] = max(
        (qi.height_bits((v.re, v.im)) for g in gs for row in g.entries for v in row), default=0
    )
    sweeps = [r.raw for r in records if r.op.kind == "sweep"]
    useful = sum(s["strongly_reversible"] + s["reversible_only"] for s in sweeps)
    values["verify.sweep.reversible_ratio"] = useful / sum(s["cases"] for s in sweeps) if sweeps else 0
    cli = [r.raw for r in records if r.op.kind != "sweep"]
    values["cli.output_bytes"] = sum(size for code, size in cli if code is not None)
    for code in (0, 1, 2, 3):
        values[f"cli.exit.{code}.count"] = sum(1 for c, _ in cli if c == code)
    values["cli.exit.raised.count"] = sum(1 for c, _ in cli if c is None)
    values["trace.overhead_ratio"] = sum(r.norm_s for r in records) / sum(r.norm_s for r in untraced)
    missing = set(PER_LAYER_UNITS) ^ set(values)
    if missing:
        raise RuntimeError(f"layer metrics out of step with metrics.PER_LAYER: {sorted(missing)}")
    return {name: metric(values[name], unit) for name, unit, _, _ in PER_LAYER}


def run(workload: str, seed: int, seconds: float, trace: bool, out: Path, make_ops=None) -> dict:
    """One benchmark run; ``make_ops(seed, out)`` builds the round, by
    default the named workload's."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ops = (make_ops or wl.WORKLOADS[workload])(seed, out)
    speed = HostSpeed()
    modules, setup_s = setup(WARMUP[workload](out), speed)
    client, checked = wl.Client(modules), {}
    if not trace:
        records = drive(client, ops, checked, speed, seconds=seconds)
        main, extra = end_to_end(workload, records, ops, setup_s)
        correct, attempted, failed = outcome(records)
        busy = {
            "busy_s": sum(r.seconds for r in records),
            "rescaled_busy_s": sum(r.norm_s for r in records),
            "probe_s": {f: getattr(statistics, f)(speed.probe_s()) for f in ("median", "mean")},
        }
        print(json.dumps({"workload": workload, "seed": seed, **busy, **extra}))
        return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": main}
    untraced = drive(client, ops, checked, speed, rounds=1)
    tracer = Tracer()
    tracer.install()
    traced = drive(client, ops, checked, speed, rounds=1, tracer=tracer)
    spans_path = out.parent / f"spans-{workload}-seed{seed}.jsonl.gz"
    tracer.write(spans_path)
    print(f"{len(tracer.spans)} spans written to {spans_path}", file=sys.stderr)
    correct, attempted, failed = outcome(untraced + traced)
    metrics = layer_metrics(tracer, traced, untraced)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "strongrev" / "__init__.py").is_file():
        print(f"error: no strongrev sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out = HERE / "out" / f"{args.workload}-seed{args.seed}"
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), out)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
