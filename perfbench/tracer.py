"""Spans and counters around strongrev's public calls, installed from outside.

Each wrapped call records a span (id, parent id, name, request id, start and
end in ns) in memory; self time is the span's duration minus the time its
child spans cover.  Scalar operations get count-only wrappers, because a
timed wrapper would cost more than the operation it measures.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import time
from collections import defaultdict

# (metric prefix, object inside strongrev, attribute); one span per call.
TIMED = (
    ("scalars.parse", "scalars", "parse"),
    ("matrices.construct", "matrices.ExactMatrix", "__init__"),
    ("matrices.mul", "matrices.ExactMatrix", "__mul__"),
    ("matrices.det", "matrices.ExactMatrix", "det"),
    ("matrices.inverse", "matrices.ExactMatrix", "inverse"),
    ("matrices.first_difference", "matrices.ExactMatrix", "first_difference"),
    ("partitions.construct", "partitions.Partition", "__init__"),
    ("partitions.conjugate", "partitions.Partition", "conjugate"),
    ("partitions.parity_sets", "partitions", "parity_sets"),
    ("canonical.construct", "canonical.JordanSpec", "__init__"),
    ("canonical.jordan_matrix", "canonical", "jordan_matrix"),
    ("canonical.weyr_form", "canonical", "weyr_form"),
    ("reversal.classify", "reversal", "classify"),
    ("reversal.witness", "reversal", "involutive_witness"),
    ("reversal.witness", "reversal", "sl_reverser_witness"),
    ("reversal.jordan_reverser", "reversal", "jordan_reverser"),
    ("reversal.assemble", "reversal", "assemble_block_reverser"),
    ("verify.check_witness", "verify", "check_witness"),
    ("verify.sweep", "verify", "classification_sweep"),
    ("cli.main", "cli", "main"),
)
# Generator methods: one span per item drawn.
GENERATORS = (("verify.specs", "verify.SpecGenerator", "specs"),)
# Count-only wrappers.
COUNTED = (
    ("scalars.mul", "scalars.GaussianRational", ("__mul__", "__rmul__")),
    ("scalars.add", "scalars.GaussianRational", ("__add__", "__radd__")),
    ("scalars.sub", "scalars.GaussianRational", ("__sub__", "__rsub__")),
    ("scalars.inverse", "scalars.GaussianRational", ("inverse",)),
)


def _cube(m, *_):
    return m.rows**3


def _mul_work(a, b, *_):
    return a.rows * a.cols * b.cols if hasattr(b, "cols") else 0


# Work counted per call, reported as `<name>.n3`.
WORK = {"matrices.mul": _mul_work, "matrices.det": _cube, "matrices.inverse": _cube}
LAYERS = ("scalars", "matrices", "partitions", "canonical", "reversal", "verify", "cli")
REFUSALS = ("NotReversibleError", "NotStronglyReversibleError")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list[int]] = []  # open spans: [span id, ns covered by children]
        self.ids = itertools.count(1)
        self.request = 0
        self.stats: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.counts: dict[str, list[int]] = defaultdict(lambda: [0])
        self.escapes: dict[int, tuple[BaseException, set]] = {}
        self.witnesses: list = []

    def _escaped(self, layer: str, exc: BaseException) -> None:
        """Count each exception once per layer it escapes from."""
        if isinstance(exc, StopIteration):
            return
        _, layers = self.escapes.setdefault(id(exc), (exc, set()))
        layers.add(layer)

    def timed(self, name: str, fn, keep: list | None = None):
        stat, work = self.stats[name], WORK.get(name)
        layer = name.split(".")[0]
        stack, spans, ids, clock = self.stack, self.spans, self.ids, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [next(ids), 0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._escaped(layer, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                stat[0] += 1
                stat[1] += end - start - frame[1]
                if work:
                    stat[2] += work(*args)
                if stack:
                    stack[-1][1] += end - start
                spans.append((frame[0], parent, name, self.request, start, end))
            if keep is not None:
                keep.append(result)
            return result

        return wrapper

    def timed_generator(self, name: str, fn):
        step = self.timed(name, next)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)

            def traced():
                while True:
                    try:
                        item = step(items)
                    except StopIteration:
                        return
                    yield item

            return traced()

        return wrapper

    def counted(self, name: str, fn):
        cell = self.counts[name]

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def install(self, package: str = "strongrev") -> None:
        """Replace every traced callable in the imported package, including
        names other modules imported with ``from ... import``."""
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]

        def owner(path: str):
            module, _, cls = path.partition(".")
            obj = sys.modules[f"{package}.{module}"]
            return getattr(obj, cls) if cls else obj

        def replace(obj, attr: str, wrapper) -> None:
            original = getattr(obj, attr)
            setattr(obj, attr, wrapper)
            if not isinstance(obj, type):
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

        for name, path, attr in TIMED:
            obj = owner(path)
            keep = self.witnesses if name == "reversal.witness" else None
            replace(obj, attr, self.timed(name, getattr(obj, attr), keep))
        for name, path, attr in GENERATORS:
            obj = owner(path)
            replace(obj, attr, self.timed_generator(name, getattr(obj, attr)))
        for name, path, attrs in COUNTED:
            obj = owner(path)
            for attr in attrs:
                replace(obj, attr, self.counted(name, getattr(obj, attr)))

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (calls, self_ns, work) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_ns / 1e9
            if name in WORK:
                out[f"{name}.n3"] = work
        for name, (calls,) in self.counts.items():
            out[f"{name}.calls"] = calls
        errors = dict.fromkeys(LAYERS, 0)
        refused = 0
        for exc, layers in self.escapes.values():
            if type(exc).__name__ in REFUSALS:
                refused += 1
            else:
                for layer in layers:
                    errors[layer] += 1
        out.update({f"{layer}.errors": count for layer, count in errors.items()})
        out["reversal.refused.count"] = refused
        return out

    def calls_in(self, name: str, requests: set[int]) -> int:
        return sum(1 for span in self.spans if span[2] == name and span[3] in requests)

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(["id", "parent", "name", "request", "start_ns", "end_ns"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
