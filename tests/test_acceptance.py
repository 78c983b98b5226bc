"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison is exact (no tolerances anywhere); each criterion also
carries a wall-clock budget that is asserted.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import random
import time
from fractions import Fraction

from oracles import class_counts, random_nonzero_scalar
from strongrev.canonical import JordanSpec, jordan_block, jordan_matrix, weyr_form
from strongrev.matrices import ExactMatrix, direct_sum
from strongrev.reversal import (
    classify,
    involutive_witness,
    jordan_reverser,
    jordan_reverser_general,
    jordan_reverser_recurrence,
    pair_reverser,
)
from strongrev.scalars import GaussianRational, I, MINUS_ONE, ONE
from strongrev.verify import (
    DEFAULT_POOL,
    SpecGenerator,
    check_witness,
    classification_sweep,
    cross_path_check,
    homogeneous_det_check,
    suite_canonical_laws,
    suite_partition_laws,
)

G = GaussianRational
HALF = G(Fraction(1, 2))

WEYR_3322_DISPLAY = ExactMatrix(
    [
        [1, 0, 0, 1, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 1, 0, 1],
        [0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    ]
)


def run_criterion(number, description, budget_seconds, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[FAIL] criterion {number}: {description} ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed < budget_seconds
    status = "PASS" if within else "FAIL"
    print(
        f"[{status}] criterion {number}: {description} "
        f"({elapsed:.2f}s of {budget_seconds}s budget)"
    )
    assert within, f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"


def test_criterion_1_paper_worked_examples():
    def body():
        # (a) three doubled unipotent blocks: reversible, not strongly
        report6 = classify(JordanSpec([(ONE, 2)] * 3))
        assert report6.reversible and not report6.strongly_reversible

        # (b) unipotent (4,4,2): not strongly reversible
        spec10 = JordanSpec([(ONE, 4), (ONE, 4), (ONE, 2)])
        report10 = classify(spec10)
        assert report10.reversible and not report10.strongly_reversible

        # (c) Weyr structure (3,3,2,2) with the exact 10x10 matrix
        wf = weyr_form(spec10)
        assert wf.structures[0].sizes == (3, 3, 2, 2)
        assert wf.matrix == WEYR_3322_DISPLAY
        assert wf.permutation.conjugate(jordan_matrix(spec10)) == WEYR_3322_DISPLAY

        # (d) the reversal identity at size 4 for 20 random eigenvalues
        rng = random.Random(2024)
        for _ in range(20):
            lam = random_nonzero_scalar(rng)
            r = jordan_reverser(lam, 4)
            assert r * jordan_block(lam.inverse(), 4) == jordan_block(lam, 4).inverse() * r

    run_criterion(1, "paper worked examples reproduce bit-exactly", 5.0, body)


def test_criterion_2_exhaustive_theorem_check():
    def body():
        summary = classification_sweep(SpecGenerator(8, DEFAULT_POOL))
        assert summary["failures"] == []
        expected = class_counts(8, DEFAULT_POOL)
        assert {key: summary[key] for key in expected} == expected
        assert summary["strongly_reversible"] + summary["reversible_only"] == 1001
        assert summary["reversible_only"] == 44
        assert summary["strongly_reversible"] == summary["witnesses_verified"]
        assert summary["reversible_only"] > 0
        assert summary["involutive_reversers_checked"] > 0

    run_criterion(2, "exhaustive classification and witness check, n <= 8", 300.0, body)


def test_criterion_3_reverser_laws():
    def body():
        rng = random.Random(3)
        for n in range(1, 13):
            for _ in range(20):
                lam = random_nonzero_scalar(rng)
                closed = jordan_reverser(lam, n)
                assert closed == jordan_reverser_recurrence(lam, n)
                assert closed.inverse() == jordan_reverser(lam.inverse(), n)
            for mu in (ONE, MINUS_ONE):
                r = jordan_reverser(mu, n)
                assert (r * r).is_identity()

    run_criterion(3, "closed form, recurrence, inverse and involution laws", 30.0, body)


def test_criterion_4_determinant_lemma_suite():
    def body():
        # sign table for single blocks at +-1, over both unit scalings
        for n in range(1, 13):
            for mu in (ONE, MINUS_ONE):
                dets = set()
                for x1 in (ONE, MINUS_ONE):
                    g = jordan_reverser_general(mu, [x1] + [G(0)] * (n - 1))
                    assert (g * g).is_identity()
                    j = jordan_block(mu, n)
                    assert g * j * g == j.inverse()
                    det = g.det()
                    assert det == x1**n * MINUS_ONE ** (n * (n - 1) // 2)
                    dets.add(det)
                if n % 4 == 0:
                    assert dets == {ONE}
                elif n % 4 == 2:
                    assert dets == {MINUS_ONE}
                else:
                    assert dets == {ONE, MINUS_ONE}

        # pair reversers have determinant (-1)^n, over unit scale choices
        rng = random.Random(4)
        unit_scales = ((ONE, ONE), (MINUS_ONE, MINUS_ONE), (I, -I), (-I, I))
        for n in range(1, 9):
            for _ in range(2):
                lam = random_nonzero_scalar(rng)
                while lam == ONE or lam == MINUS_ONE:
                    lam = random_nonzero_scalar(rng)
                a = direct_sum([jordan_block(lam, n), jordan_block(lam.inverse(), n)])
                base = pair_reverser(lam, n)
                assert base.det() == MINUS_ONE**n
                for x1, y1 in unit_scales:
                    grid = [
                        [
                            x1 * base[i, j] if i < n <= j else
                            y1 * base[i, j] if j < n <= i else base[i, j]
                            for j in range(2 * n)
                        ]
                        for i in range(2 * n)
                    ]
                    g = ExactMatrix(grid)
                    assert (g * g).is_identity()
                    assert g * a * g == a.inverse()
                    assert g.det() == MINUS_ONE**n

        # homogeneous unipotent law via the Weyr parameterization
        seed = 5
        for k in range(1, 9):
            for m in range(1, 9):
                if k * m > 8:
                    continue
                summary = homogeneous_det_check(k, m, trials=50, seed=seed)
                seed += 1
                assert summary["failures"] == [], (k, m)

    run_criterion(4, "determinant lemma suite", 120.0, body)


def test_criterion_5_cross_path_agreement():
    def body():
        summary = cross_path_check(max_n=10)
        assert summary["failures"] == []
        assert summary["cases"] > 1000

    run_criterion(5, "classifier agrees with all special-case arguments, n <= 10", 120.0, body)


def test_criterion_6_duality_and_centralizer():
    def body():
        partitions = suite_partition_laws(seed=6, trials=500)
        assert partitions["failures"] == []
        canonical = suite_canonical_laws(seed=7, trials=200)
        assert canonical["failures"] == []

    run_criterion(6, "partition duality and Weyr centralizer checks", 60.0, body)


def test_criterion_7_decisive_ambiguity_case():
    def body():
        spec = JordanSpec([(ONE, 2), (ONE, 2)])
        report = classify(spec)
        assert report.strongly_reversible
        bundle = involutive_witness(spec)
        verification = check_witness(bundle.a, bundle.g)
        assert verification.reverses and verification.involution and verification.in_special

    run_criterion(7, "doubled J(1,2) pair is strongly reversible with witness", 1.0, body)
