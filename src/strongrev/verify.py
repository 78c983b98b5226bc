"""Verification engine: direct matrix-identity checks, the spec enumerator,
and sweeps binding the classifier to explicit constructions.

Everything here re-derives its verdicts from raw matrix arithmetic (or an
independent restatement of a special case), so a bug in the construction
path cannot silently agree with itself.
"""

from __future__ import annotations

import bisect
import random
from collections import Counter
from fractions import Fraction
from typing import Iterator, Sequence

from . import reversal
from .canonical import (
    JordanSpec,
    WeyrStructure,
    _random_scalar,
    basic_weyr_matrix,
    homogeneous_weyr,
    jordan_block,
    jordan_matrix,
    matches_centralizer_pattern,
    sample_centralizer,
    weyr_form,
)
from .matrices import (
    ExactMatrix,
    PermutationMap,
    VerificationReport,
    check_witness,
)
from .partitions import Partition, parity_sets
from .scalars import GaussianRational, MINUS_ONE, ONE, as_int, as_scalar, inverse_triple
from .scalars import I as IMAGINARY

__all__ = [
    "VerificationReport",
    "check_witness",
    "SpecGenerator",
    "iter_involutive_reversers",
    "iter_partitions",
    "classification_sweep",
    "class_counts",
    "homogeneous_det_check",
    "cross_path_check",
    "general_strong_verdict",
    "semisimple_strong_verdict",
    "sign_eigenvalue_strong_verdict",
    "single_pair_strong_verdict",
    "run_selftest",
    "DEFAULT_POOL",
]

DEFAULT_POOL: tuple[GaussianRational, ...] = (
    ONE,
    MINUS_ONE,
    GaussianRational(2),
    GaussianRational(Fraction(1, 2)),
    IMAGINARY,
    -IMAGINARY,
)


def iter_partitions(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n with parts bounded by max_part, largest part first."""
    if n == 0:
        yield ()
        return
    cap = n if max_part is None else min(n, max_part)
    for first in range(cap, 0, -1):
        for rest in iter_partitions(n - first, first):
            yield (first,) + rest


def _checked_max_n_and_pool(max_n: int, pool: Sequence) -> tuple[int, tuple[GaussianRational, ...]]:
    """``max_n`` as a positive int and ``pool`` as distinct nonzero scalars;
    anything else raises TypeError or ValueError."""
    max_n = as_int(max_n)
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    pool = tuple(as_scalar(v) for v in pool)
    if not all(pool):
        raise ValueError("pool values must be nonzero (the matrix is invertible)")
    if len({v.triple for v in pool}) != len(pool):
        raise ValueError("pool values must be distinct")
    return max_n, pool


class SpecGenerator:
    """Every Jordan spec over an eigenvalue pool with total size <= max_n,
    each multiset of (eigenvalue, size) pairs exactly once.

    Pool values must be distinct and nonzero, and ``max_n`` a positive int;
    anything else is refused here, before any spec is built.
    """

    def __init__(self, max_n: int, pool: Sequence):
        self.max_n, self.pool = _checked_max_n_and_pool(max_n, pool)

    def specs(self) -> Iterator[JordanSpec]:
        """Each spec once, in the order of a depth-first recursion over the
        items (eigenvalue, size) in pool order, sizes ascending, each item at
        or after the last one picked; the walk keeps its own stack of picks."""
        m = self.max_n
        items = [(eig, size) for eig in self.pool for size in range(1, m + 1)]
        # A spec's blocks are its picks in canonical order: keys holds the
        # canonical positions of the picks, sorted, and chosen the picks in
        # the same order, so every spec is built from a canonical tuple.
        position = {block: k for k, block in enumerate(JordanSpec(items).blocks)}
        order = [position[item] for item in items]
        build = JordanSpec._from_canonical
        keys, chosen, stack = [], [], []  # stack: (item, budget, place in keys)
        idx, budget = 0, m
        while idx < len(items) or stack:
            if idx == len(items):
                idx, budget, at = stack.pop()
                del keys[at], chosen[at]
                idx += 1
            elif (size := idx % m + 1) > budget:
                idx += m - size + 1  # larger sizes fit no better: next eigenvalue
            else:
                at = bisect.bisect(keys, order[idx])
                keys.insert(at, order[idx])
                chosen.insert(at, items[idx])
                yield build(tuple(chosen))
                stack.append((idx, budget, at))
                budget -= size


def iter_involutive_reversers(
    spec: JordanSpec, report: reversal.StrongReversibilityReport
) -> Iterator[ExactMatrix]:
    """Every blockwise involutive reverser the harness knows how to build:
    all +-1 sign patterns on singleton blocks, and every pair scaled by
    (u, 1/u) for the units u in 1, -1, i, -i, each R(lam, d) and unit
    multiple built once per call."""
    return reversal._involutive_reversers(spec, report, reversal._Reversers())


def _new_summary(name: str) -> dict:
    return {"name": name, "cases": 0, "failures": []}


def _fail(summary: dict, **record) -> None:
    summary["failures"].append(record)


def classification_sweep(gen: SpecGenerator) -> dict:
    """For every generated spec: a strongly reversible verdict must come with
    a verified involutive SL witness, and a reversible-only verdict must
    match general_strong_verdict, which reads block counts alone, and every
    harness-constructible involutive reverser must then have determinant -1.

    Only ``gen.specs()`` is read, so any object with that method can feed
    the sweep, and every spec it yields is counted.  Each spec is classified
    once, and its witness or reversers are assembled from one table of each
    R(lam, d) and unit multiple, built once per call."""
    cases = not_reversible = strong = only = witnesses = checked = 0
    failures: list[dict] = []
    reversers = reversal._Reversers()

    def fail(problem: str, **extra) -> None:  # a failure of the current spec
        failures.append(dict(spec=spec.to_json_dict(), problem=problem, **extra))

    for spec in gen.specs():
        cases += 1
        try:
            report = reversal.classify(spec)
            if not report.reversible:
                not_reversible += 1
            elif report.strongly_reversible:
                strong += 1
                scales, _ = reversal._involutive_scales(spec, report)
                # raises unless the witness passes check_witness
                reversal._checked(spec, report, scales, reversers, True)
                witnesses += 1
            else:
                only += 1
                verdict = general_strong_verdict(spec)
                if verdict is not False:
                    fail(f"reversible-only verdict, general verdict {verdict}")
                    continue
                a = jordan_matrix(spec)
                for g in reversal._involutive_reversers(spec, report, reversers):
                    checked += 1
                    vr = check_witness(a, g)
                    if not (vr.reverses and vr.involution):
                        fail("harness reverser failed basic checks", report=vr.to_json_dict())
                        break
                    if vr.determinant != MINUS_ONE:
                        fail(f"involutive reverser with det {vr.determinant}")
                        break
        except Exception as exc:  # a crash is a failure, not an abort
            fail(repr(exc))
    return {
        "name": "classification_sweep", "cases": cases, "failures": failures,
        "not_reversible": not_reversible, "strongly_reversible": strong, "reversible_only": only,
        "witnesses_verified": witnesses, "involutive_reversers_checked": checked,
    }


def _partition_series(n: int, step: int) -> list[int]:
    """Coefficients of x^0..x^n in P(x^step), where P counts partitions."""
    series = [1] + [0] * n
    for part in range(step, n + 1, step):
        for m in range(part, n + 1):
            series[m] += series[m - part]
    return series


def _series_product(n: int, factors: list[list[int]]) -> list[int]:
    """Product of power series, truncated after x^n."""
    out = [1] + [0] * n
    for factor in factors:
        out = [sum(out[i] * factor[m - i] for i in range(m + 1)) for m in range(n + 1)]
    return out


def class_counts(max_n: int, pool: Sequence) -> dict[str, int]:
    """Verdict tallies over every spec of total size 1..max_n with
    eigenvalues from the inversion-closed pool, counted from partitions
    alone, without building or classifying a spec.

    With s values +-1 and t pairs {lam, 1/lam} in the pool, a reversible
    spec is a partition at each +-1 and one partition of some j for each
    pair, used at lam and at 1/lam (size 2j).  By the n mod 4 corollary it
    is reversible-only exactly when no +-1 part is odd and n is 2 mod 4, so
    those are the coefficients of P(x^2)^(s+t) at n = 2 mod 4.  ``max_n``
    and ``pool`` are refused as SpecGenerator refuses them.
    """
    n, pool = _checked_max_n_and_pool(max_n, pool)
    others = [v for v in pool if v != ONE and v != MINUS_ONE]
    if any(v.inverse() not in others for v in others):
        raise ValueError("pool must be closed under inversion")
    s, t = len(pool) - len(others), len(others) // 2
    plain = _partition_series(n, 1)
    doubled = _partition_series(n, 2)
    total = sum(_series_product(n, [plain] * len(pool))[1:])
    rev = sum(_series_product(n, [plain] * s + [doubled] * t)[1:])
    only = sum(_series_product(n, [doubled] * (s + t))[2::4])
    return {
        "cases": total,
        "not_reversible": total - rev,
        "strongly_reversible": rev - only,
        "reversible_only": only,
    }


def _random_matrix(rows: int, cols: int, rng: random.Random) -> ExactMatrix:
    return ExactMatrix([[_random_scalar(rng) for _ in range(cols)] for _ in range(rows)])


def _random_invertible(n: int, rng: random.Random) -> ExactMatrix:
    while True:
        candidate = _random_matrix(n, n, rng)
        if candidate.det():
            return candidate


def _random_involution(n: int, rng: random.Random) -> ExactMatrix:
    basis = _random_invertible(n, rng)
    signs = ExactMatrix.diagonal([rng.choice((1, -1)) for _ in range(n)])
    return basis * signs * basis.inverse()


def _block_toeplitz(blocks: Sequence[ExactMatrix]) -> ExactMatrix:
    m = len(blocks)
    k = blocks[0].rows
    return ExactMatrix.from_blocks(
        m * k, [(bi * k, bj * k, blocks[bj - bi]) for bi in range(m) for bj in range(bi, m)]
    )


def homogeneous_det_check(k: int, m: int, trials: int, seed: int) -> dict:
    """Determinant law for k equal unipotent blocks of even size 2m.

    Reversers of the homogeneous Weyr form are block-Toeplitz centralizer
    elements c times a fixed blocked reverser; an involution forces the
    top-left k x k block of c to square to I, which pins the determinant to
    (-1)**(m*k).  Samples draw that block as a random exact involution and
    the other blocks at random, so most samples are reversers that are not
    involutions.  Each must reverse the Weyr form and have the pinned
    determinant.  Since det(c) = det(top_left)**(2m) = 1, every sample has
    the determinant of the base reverser, so the determinant comparison
    re-checks only that base reverser.
    """
    summary = _new_summary(f"homogeneous_det_check(k={k},m={m})")
    structure = (k,) * (2 * m)
    weyr = homogeneous_weyr(ONE, k, 2 * m)
    base = reversal.blocked_jordan_reverser(ONE, structure)
    expected = GaussianRational(1 if (m * k) % 2 == 0 else -1)
    rng = random.Random(seed)
    for _ in range(trials):
        summary["cases"] += 1
        top_left = _random_involution(k, rng)
        blocks = [top_left] + [_random_matrix(k, k, rng) for _ in range(2 * m - 1)]
        report = check_witness(weyr, _block_toeplitz(blocks) * base)
        if not report.reverses:
            _fail(summary, k=k, m=m, problem="sample does not reverse the Weyr form")
        elif report.determinant != expected:
            _fail(summary, k=k, m=m, problem=f"det {report.determinant}, expected {expected}")
    return summary


def semisimple_strong_verdict(spec: JordanSpec) -> bool | None:
    """Strong reversibility of a semisimple spec, decided by the dedicated
    diagonal argument: None when the spec is not semisimple or not
    reversible; otherwise, strongly reversible iff +-1 occurs as an
    eigenvalue or n is not 2 mod 4."""
    if any(size != 1 for _, size in spec.blocks):
        return None
    counts = Counter(eig for eig, _ in spec.blocks)
    for eig, count in counts.items():
        if eig == ONE or eig == MINUS_ONE:
            continue
        if count != counts.get(eig.inverse(), 0):
            return None
    if ONE in counts or MINUS_ONE in counts:
        return True
    return spec.n % 4 != 2


def sign_eigenvalue_strong_verdict(spec: JordanSpec, mu: GaussianRational) -> bool | None:
    """Strong reversibility when every eigenvalue is mu, +1 or -1: some odd
    block size, or the total multiplicity of sizes 2 mod 4 is even.  None
    when another eigenvalue occurs."""
    if any(eig != mu for eig, _ in spec.blocks):
        return None
    sets = parity_sets(Partition(size for _, size in spec.blocks))
    return bool(sets.odd_sizes) or sets.singly_even_weight % 2 == 0


def single_pair_strong_verdict(spec: JordanSpec) -> bool | None:
    """Strong reversibility for eigenvalues {lam, 1/lam} only, lam != +-1:
    defined (and reversible) when both have the same block structure, and
    then strongly reversible iff the multiplicity of lam is even."""
    eigs = spec.eigenvalues()
    if len(eigs) != 2:
        return None
    first, second = eigs
    if first == ONE or first == MINUS_ONE or second != first.inverse():
        return None
    sizes_first = sorted(size for eig, size in spec.blocks if eig == first)
    sizes_second = sorted(size for eig, size in spec.blocks if eig == second)
    if sizes_first != sizes_second:
        return None
    return sum(sizes_first) % 2 == 0


def general_strong_verdict(spec: JordanSpec) -> bool | None:
    """Strong reversibility of any spec by the n mod 4 corollary, read from
    block counts alone: None unless each (lam, d) occurs as often as
    (1/lam, d); otherwise strongly reversible iff some +-1 block has odd
    size or n is not 2 mod 4."""
    counts = Counter((eig.triple, size) for eig, size in spec.blocks)
    units = (ONE.triple, MINUS_ONE.triple)
    odd_unit_block = False
    for (triple, size), count in counts.items():
        if triple in units:
            odd_unit_block |= size % 2 == 1
        elif count != counts.get((inverse_triple(*triple), size), 0):
            return None
    return odd_unit_block or spec.n % 4 != 2


def _compare(
    summary: dict, spec: JordanSpec, report: reversal.StrongReversibilityReport, verdict: bool | None, label: str
) -> None:
    """Count one case and record a failure unless the verdict (None meaning
    "not reversible") agrees with the classifier's report on the spec."""
    summary["cases"] += 1
    if report.reversible != (verdict is not None):
        _fail(summary, spec=spec.to_json_dict(), path=label, problem="reversibility disagreement")
    elif verdict is not None and verdict != report.strongly_reversible:
        _fail(
            summary,
            spec=spec.to_json_dict(),
            path=label,
            problem=f"{label} verdict {verdict} vs classifier {report.strongly_reversible}",
        )


def cross_path_check(max_n: int) -> dict:
    """Classifier verdicts must match the general n mod 4 verdict on every
    spec over DEFAULT_POOL of size <= max_n, and each special-case argument
    on the specs of its family: semisimple specs, unipotent specs,
    eigenvalue -1 specs, and specs whose eigenvalues are exactly one pair
    lam, 1/lam (lam = 2 and i).  Each spec is classified once."""
    summary = _new_summary("cross_path_check")
    pairs = [{lam.triple, lam.inverse().triple} for lam in (GaussianRational(2), IMAGINARY)]
    for spec in SpecGenerator(max_n, DEFAULT_POOL).specs():
        report = reversal.classify(spec)
        _compare(summary, spec, report, general_strong_verdict(spec), "general")
        if spec.n == len(spec.blocks):
            _compare(summary, spec, report, semisimple_strong_verdict(spec), "semisimple")
        eigs = {eig.triple for eig, _ in spec.blocks}
        if eigs == {ONE.triple}:
            _compare(summary, spec, report, sign_eigenvalue_strong_verdict(spec, ONE), "unipotent")
        elif eigs == {MINUS_ONE.triple}:
            verdict = sign_eigenvalue_strong_verdict(spec, MINUS_ONE)
            _compare(summary, spec, report, verdict, "eigenvalue -1")
        elif eigs in pairs:
            _compare(summary, spec, report, single_pair_strong_verdict(spec), "single pair")
    return summary


def suite_scalar_laws(seed: int) -> dict:
    """Field axioms and power additivity on random Gaussian rationals."""
    summary = _new_summary("scalar_laws")
    rng = random.Random(seed)

    def draw() -> GaussianRational:
        return GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )

    for _ in range(1000):
        summary["cases"] += 1
        a, b, c = draw(), draw(), draw()
        ok = (
            (a + b) + c == a + (b + c)
            and (a * b) * c == a * (b * c)
            and a + b == b + a
            and a * b == b * a
            and a * (b + c) == a * b + a * c
        )
        if not ok:
            _fail(summary, triple=[str(a), str(b), str(c)], problem="field law violated")
    for _ in range(100):
        summary["cases"] += 1
        a = draw()
        if not a:
            a = ONE
        mm, nn = rng.randint(-20, 20), rng.randint(-20, 20)
        if a ** (mm + nn) != (a**mm) * (a**nn):
            _fail(summary, value=str(a), exponents=[mm, nn], problem="power law violated")
    return summary


def suite_matrix_laws(seed: int) -> dict:
    """Inverse identity, determinant multiplicativity, permutation signs."""
    summary = _new_summary("matrix_laws")
    rng = random.Random(seed)
    for _ in range(200):
        summary["cases"] += 1
        n = rng.randint(1, 8)
        a = _random_invertible(n, rng)
        if not (a * a.inverse()).is_identity():
            _fail(summary, problem=f"inverse law violated at size {n}")
    for _ in range(50):
        summary["cases"] += 1
        n = rng.randint(1, 5)
        a = _random_matrix(n, n, rng)
        b = _random_matrix(n, n, rng)
        if (a * b).det() != a.det() * b.det():
            _fail(summary, problem=f"det multiplicativity violated at size {n}")
    for _ in range(50):
        summary["cases"] += 1
        n = rng.randint(1, 8)
        images = list(range(1, n + 1))
        rng.shuffle(images)
        perm = PermutationMap(images)
        if perm.matrix().det() != GaussianRational(perm.sign()):
            _fail(summary, problem=f"permutation sign mismatch for {images}")
    return summary


def _random_partition(rng: random.Random, max_n: int) -> Partition:
    """Partition of a random n in 1..max_n, built by drawing parts no larger
    than what remains."""
    parts = []
    remaining = rng.randint(1, max_n)
    while remaining:
        part = rng.randint(1, remaining)
        parts.append(part)
        remaining -= part
    return Partition(parts)


def suite_partition_laws(seed: int) -> dict:
    """Conjugation is an involution and both conjugation code paths agree."""
    summary = _new_summary("partition_laws")
    rng = random.Random(seed)
    for _ in range(500):
        summary["cases"] += 1
        p = _random_partition(rng, 40)
        conj = p.conjugate()
        ok = (
            conj.total == p.total
            and conj.conjugate() == p
            and p.conjugate_from_multiplicities() == conj
        )
        if not ok:
            _fail(summary, partition=list(p.parts), problem="conjugation law violated")
        shuffled = list(p.parts)
        rng.shuffle(shuffled)
        if parity_sets(Partition(shuffled)) != parity_sets(p):
            _fail(summary, partition=list(p.parts), problem="parity data not order-invariant")
    return summary


def _random_specs(max_n: int, pool: Sequence, seed: int, count: int) -> Iterator[JordanSpec]:
    """``count`` specs of total size 1..max_n with eigenvalues from pool,
    drawn deterministically from ``seed``."""
    rng = random.Random(seed)
    for _ in range(count):
        blocks = []
        remaining = rng.randint(1, max_n)
        while remaining:
            size = rng.randint(1, remaining)
            blocks.append((rng.choice(pool), size))
            remaining -= size
        yield JordanSpec(blocks)


def suite_canonical_laws(seed: int) -> dict:
    """Weyr duality on random specs and centralizer samples on random structures."""
    summary = _new_summary("canonical_laws")
    for spec in _random_specs(10, DEFAULT_POOL, seed, 200):
        summary["cases"] += 1
        try:
            wf = weyr_form(spec)  # verifies the conjugation internally
        except RuntimeError as exc:
            _fail(summary, spec=spec.to_json_dict(), problem=repr(exc))
            continue
        for (eig, jordan_partition), w in zip(spec.structures(), wf.structures):
            if jordan_partition.conjugate().parts != w.sizes:
                _fail(summary, spec=spec.to_json_dict(), problem="structure is not the conjugate partition")
    rng = random.Random(seed + 1)
    for _ in range(200):
        summary["cases"] += 1
        parts = _random_partition(rng, 8).parts
        structure = WeyrStructure(rng.choice(DEFAULT_POOL), parts)
        sample = sample_centralizer(structure, rng.randrange(2**63))
        weyr = basic_weyr_matrix(structure)
        if sample * weyr != weyr * sample:
            _fail(summary, structure=list(structure.sizes), problem="sample does not commute")
        elif not matches_centralizer_pattern(structure, sample):
            _fail(summary, structure=list(structure.sizes), problem="sample fails pattern check")
        elif not sample.det():
            _fail(summary, structure=list(structure.sizes), problem="sample is singular")
    return summary


def _random_nonzero_scalar(rng: random.Random) -> GaussianRational:
    while True:
        value = GaussianRational(
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        )
        if value:
            return value


def suite_reverser_laws(seed: int) -> dict:
    """Closed form vs recurrence, the inverse law, involutivity at +-1, and
    the reversal identity for Toeplitz-scaled reversers."""
    summary = _new_summary("reverser_laws")
    rng = random.Random(seed)
    for n in range(1, 13):
        for _ in range(20):
            summary["cases"] += 1
            lam = _random_nonzero_scalar(rng)
            closed = reversal.jordan_reverser(lam, n)
            if closed != reversal.jordan_reverser_recurrence(lam, n):
                _fail(summary, n=n, lam=str(lam), problem="closed form != recurrence")
            elif not reversal.inverse_law_holds(lam, n):
                _fail(summary, n=n, lam=str(lam), problem="inverse law violated")
        summary["cases"] += 1
        for mu in (ONE, MINUS_ONE):
            r = reversal.jordan_reverser(mu, n)
            if not (r * r).is_identity():
                _fail(summary, n=n, problem=f"reverser at {mu} is not an involution")
    for n in range(1, 11):
        for _ in range(20):
            summary["cases"] += 1
            lam = _random_nonzero_scalar(rng)
            values = [_random_nonzero_scalar(rng)] + [_random_scalar(rng) for _ in range(n - 1)]
            g = reversal.jordan_reverser_general(lam, values)
            lhs = g * jordan_block(lam.inverse(), n)
            rhs = jordan_block(lam, n).inverse() * g
            if lhs != rhs:
                _fail(summary, n=n, lam=str(lam), problem="reversal identity violated")
    return summary


def run_selftest(max_n: int, seed: int) -> dict:
    """Run every invariant suite plus the classification sweeps over
    DEFAULT_POOL; the result has total_failures == 0 exactly when everything
    holds, the sweep's verdict tallies equalling class_counts included."""
    sweep = classification_sweep(SpecGenerator(max_n, DEFAULT_POOL))
    expected = class_counts(max_n, DEFAULT_POOL)
    tallies = {key: sweep[key] for key in expected}
    if tallies != expected:
        _fail(sweep, problem=f"verdict tallies {tallies}, class counts {expected}")
    suites = [
        suite_scalar_laws(seed),
        suite_matrix_laws(seed + 1),
        suite_partition_laws(seed + 2),
        suite_canonical_laws(seed + 3),
        suite_reverser_laws(seed + 4),
        sweep,
        cross_path_check(max_n),
    ]
    budget = max(1, max_n // 2)
    for k in range(1, budget + 1):
        for m in range(1, budget // k + 1):
            suites.append(homogeneous_det_check(k, m, trials=8, seed=seed + 64 * k + m))
    total = sum(len(s["failures"]) for s in suites)
    return {
        "max_n": max_n,
        "seed": seed,
        "pool": [str(v) for v in DEFAULT_POOL],
        "suites": suites,
        "total_failures": total,
    }
