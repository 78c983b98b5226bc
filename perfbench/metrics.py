"""Metric names, units and the end-to-end metric each layer metric should move.

BENCHMARK.json lists the same names and units; ``selfcheck.py`` keeps the two
in step.  End-to-end metrics are measured with tracing off and reported on
every workload; layer metrics come from the traced run only.
"""

# name: (unit, better, meaning per workload)
END_TO_END = {
    "setup_s": ("s", "lower", "median of 5 fresh imports of strongrev plus the workload's first request"),
    "throughput_per_s": (
        "1/s",
        "higher",
        "witness requests/s (witness-dense), exhaustive-set specs settled/s (sweep), requests/s (cli-mix)",
    ),
    "latency_p50_s": (
        "s",
        "lower",
        "median witness request (witness-dense), full exhaustive sweep (sweep), request of any kind (cli-mix)",
    ),
    "peak_rss_mb": ("MB", "lower", "peak resident set of the workload process"),
}

WD, SW, CM = "witness-dense", "sweep", "cli-mix"

# (name, unit, better, [(metric, workload), ...] it should move); the metric
# names are the per-workload ones run.py prints on its `detail` line.
PER_LAYER = [
    ("matrices.inverse.calls", "count", "lower", [("witness_per_s", WD), ("verify_p50_s", CM)]),
    ("matrices.inverse.self_s", "s", "lower", [("witness_per_s", WD), ("verify_p50_s", CM)]),
    ("matrices.inverse.n3", "count", "lower", [("witness_per_s", WD), ("verify_p50_s", CM)]),
    ("matrices.inverse.per_witness", "count", "lower", [("witness_per_s", WD)]),
    ("matrices.det.calls", "count", "lower", [("witness_per_s", WD)]),
    ("matrices.det.self_s", "s", "lower", [("witness_per_s", WD)]),
    ("matrices.det.n3", "count", "lower", [("witness_per_s", WD)]),
    ("matrices.mul.calls", "count", "lower", [("witness_per_s", WD)]),
    ("matrices.mul.self_s", "s", "lower", [("witness_per_s", WD)]),
    ("matrices.mul.n3", "count", "lower", [("witness_per_s", WD)]),
    ("matrices.construct.calls", "count", "lower", [("witness_per_s", WD), ("sweep_specs_per_s", SW)]),
    ("matrices.construct.self_s", "s", "lower", [("witness_per_s", WD), ("sweep_specs_per_s", SW)]),
    ("matrices.first_difference.calls", "count", "lower", [("verify_p50_s", CM)]),
    ("matrices.first_difference.self_s", "s", "lower", [("verify_p50_s", CM)]),
    ("matrices.g_nnz", "count", "lower", [("witness_per_s", WD), ("sweep_specs_per_s", SW)]),
    ("matrices.errors", "count", "lower", [("failed_ratio", CM)]),
    ("scalars.mul.calls", "count", "lower", [("witness_per_s", WD), ("sweep_specs_per_s", SW)]),
    ("scalars.add.calls", "count", "lower", [("witness_per_s", WD), ("sweep_specs_per_s", SW)]),
    ("scalars.sub.calls", "count", "lower", [("witness_per_s", WD), ("sweep_specs_per_s", SW)]),
    ("scalars.inverse.calls", "count", "lower", [("witness_per_s", WD), ("sweep_specs_per_s", SW)]),
    ("scalars.g_height_bits", "bits", "lower", [("witness_per_s", WD), ("sweep_specs_per_s", SW)]),
    ("scalars.parse.calls", "count", "lower", [("verify_p50_s", CM)]),
    ("scalars.parse.self_s", "s", "lower", [("verify_p50_s", CM)]),
    ("scalars.errors", "count", "lower", [("failed_ratio", CM)]),
    ("partitions.construct.calls", "count", "lower", [("sweep_specs_per_s", SW)]),
    ("partitions.construct.self_s", "s", "lower", [("sweep_specs_per_s", SW)]),
    ("partitions.conjugate.calls", "count", "lower", [("requests_per_s", CM)]),
    ("partitions.conjugate.self_s", "s", "lower", [("requests_per_s", CM)]),
    ("partitions.parity_sets.calls", "count", "lower", [("sweep_specs_per_s", SW), ("classify_p50_s", CM)]),
    ("partitions.parity_sets.self_s", "s", "lower", [("sweep_specs_per_s", SW), ("classify_p50_s", CM)]),
    ("partitions.errors", "count", "lower", [("failed_ratio", CM)]),
    ("canonical.construct.calls", "count", "lower", [("sweep_specs_per_s", SW)]),
    ("canonical.construct.self_s", "s", "lower", [("sweep_specs_per_s", SW)]),
    ("canonical.jordan_matrix.calls", "count", "lower", [("requests_per_s", CM)]),
    ("canonical.jordan_matrix.self_s", "s", "lower", [("requests_per_s", CM)]),
    ("canonical.weyr_form.calls", "count", "lower", [("requests_per_s", CM)]),
    ("canonical.weyr_form.self_s", "s", "lower", [("requests_per_s", CM)]),
    ("canonical.errors", "count", "lower", [("failed_ratio", CM)]),
    ("reversal.classify.calls", "count", "lower", [("sweep_specs_per_s", SW), ("classify_p50_s", CM)]),
    ("reversal.classify.self_s", "s", "lower", [("sweep_specs_per_s", SW), ("classify_p50_s", CM)]),
    ("reversal.witness.calls", "count", "lower", [("witness_per_s", WD)]),
    ("reversal.witness.self_s", "s", "lower", [("witness_per_s", WD)]),
    ("reversal.jordan_reverser.calls", "count", "lower", [("witness_per_s", WD)]),
    ("reversal.jordan_reverser.self_s", "s", "lower", [("witness_per_s", WD)]),
    ("reversal.assemble.calls", "count", "lower", [("witness_per_s", WD), ("sweep_specs_per_s", SW)]),
    ("reversal.assemble.self_s", "s", "lower", [("witness_per_s", WD), ("sweep_specs_per_s", SW)]),
    ("reversal.refused.count", "count", "lower", [("witness_per_s", WD), ("witness_p50_s", CM)]),
    ("reversal.errors", "count", "lower", [("failed_ratio", CM)]),
    ("verify.check_witness.calls", "count", "lower", [("witness_per_s", WD), ("sweep_specs_per_s", SW), ("verify_p50_s", CM)]),
    ("verify.check_witness.self_s", "s", "lower", [("witness_per_s", WD), ("sweep_specs_per_s", SW), ("verify_p50_s", CM)]),
    ("verify.specs.calls", "count", "lower", [("sweep_specs_per_s", SW)]),
    ("verify.specs.self_s", "s", "lower", [("sweep_specs_per_s", SW)]),
    ("verify.sweep.calls", "count", "lower", [("sweep_specs_per_s", SW)]),
    ("verify.sweep.self_s", "s", "lower", [("sweep_specs_per_s", SW)]),
    ("verify.sweep.reversible_ratio", "ratio", "higher", [("sweep_specs_per_s", SW)]),
    ("verify.errors", "count", "lower", [("failed_ratio", CM)]),
    ("cli.main.calls", "count", "lower", [("classify_p50_s", CM), ("requests_per_s", CM)]),
    ("cli.main.self_s", "s", "lower", [("classify_p50_s", CM), ("requests_per_s", CM)]),
    ("cli.output_bytes", "bytes", "lower", [("classify_p50_s", CM), ("requests_per_s", CM)]),
    ("cli.exit.0.count", "count", "higher", [("requests_per_s", CM)]),
    ("cli.exit.1.count", "count", "lower", [("requests_per_s", CM)]),
    ("cli.exit.2.count", "count", "lower", [("requests_per_s", CM)]),
    ("cli.exit.3.count", "count", "lower", [("requests_per_s", CM)]),
    ("cli.exit.raised.count", "count", "lower", [("requests_per_s", CM)]),
    ("cli.errors", "count", "lower", [("failed_ratio", CM)]),
    ("trace.overhead_ratio", "ratio", "lower", []),
]

PER_LAYER_UNITS = {name: unit for name, unit, _, _ in PER_LAYER}
