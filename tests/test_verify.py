import dataclasses
import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from oracles import class_counts
import strongrev.reversal as reversal_module
import strongrev.verify as verify_module
from strongrev.canonical import JordanSpec, jordan_block, jordan_matrix
from strongrev.matrices import ExactMatrix, SingularMatrixError, direct_sum
from strongrev.reversal import (
    classify,
    involutive_witness,
    jordan_reverser,
    sl_reverser_witness,
)
from strongrev.scalars import GaussianRational, I, MINUS_ONE, ONE, ZERO
from strongrev.verify import (
    DEFAULT_POOL,
    SpecGenerator,
    check_witness,
    classification_sweep,
    cross_path_check,
    homogeneous_det_check,
    iter_involutive_reversers,
    iter_partitions,
    negative_one_strong_verdict,
    run_selftest,
    semisimple_cross_check,
    semisimple_strong_verdict,
    single_pair_strong_verdict,
    unipotent_strong_verdict,
)

G = GaussianRational
HALF = G(Fraction(1, 2))

# Denominators 1, 3 and 2 in both parts; 2i and -i/2 are inverse to each other.
MIXED_POOL = (ONE, MINUS_ONE, G(3), G(Fraction(1, 3)), G(0, 2), G(0, Fraction(-1, 2)))


class TestCheckWitness:
    def test_doubled_pair_witness(self):
        r = jordan_reverser(G(1), 2)
        a = direct_sum([jordan_block(G(1), 2), jordan_block(G(1), 2)])
        g = direct_sum([r, MINUS_ONE * r])
        report = check_witness(a, g)
        assert report.reverses and report.involution
        assert report.determinant == ONE and report.in_special
        assert report.residuals == ()

    def test_identity_on_identity(self):
        eye = ExactMatrix.identity(3)
        report = check_witness(eye, eye)
        assert report.all_good()

    def test_identity_fails_to_reverse_jordan_block(self):
        report = check_witness(jordan_block(G(1), 2), ExactMatrix.identity(2))
        assert not report.reverses and report.involution
        assert ("reverses", (1, 2)) in report.residuals

    def test_singular_candidate(self):
        report = check_witness(ExactMatrix.identity(2), ExactMatrix([[1, 1], [1, 1]]))
        assert not report.reverses
        assert ("reverses", None) in report.residuals
        assert report.determinant == G(0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            check_witness(ExactMatrix.identity(2), ExactMatrix.identity(3))

    def test_singular_base_matrix(self):
        with pytest.raises(SingularMatrixError):
            check_witness(ExactMatrix([[1, 1], [1, 1]]), ExactMatrix.identity(2))

    def test_shaped_reverser_of_three_doubled_blocks(self):
        # general solution of g A = A^{-1} g for three J(1,2) blocks: each
        # 2x2 block has the form [[p, q], [0, -p]]
        def expand(row):
            return [0, -row[0], 0, -row[2], 0, -row[4]]

        row1 = [1, 2, 3, 4, 5, 6]
        row3 = [7, 8, 9, 10, 11, 12]
        row5 = [13, 14, 15, 16, 18, 20]
        g = ExactMatrix([row1, expand(row1), row3, expand(row3), row5, expand(row5)])
        a = jordan_matrix(JordanSpec([(G(1), 2)] * 3))
        report = check_witness(a, g)
        assert report.reverses
        assert not report.involution


class TestInvolutionResiduals:
    """g*g is compared with the identity entry by entry; a miss reports the
    first differing position, 1-based, row by row."""

    @staticmethod
    def residuals(a, g):
        return check_witness(ExactMatrix(a), ExactMatrix(g)).residuals

    def test_twice_the_identity(self):
        report = check_witness(ExactMatrix.identity(2), ExactMatrix([[2, 0], [0, 2]]))
        assert report.reverses and not report.involution
        assert report.residuals == (("involution", (1, 1)),)
        assert report.determinant == G(4) and not report.in_special

    def test_square_with_a_denominator(self):
        # g*g = [[1, 2/3], [0, 1]]: over the denominator 3 the diagonal
        # numerators are 3, so the first miss is off the diagonal
        third = G(Fraction(1, 3))
        assert self.residuals([[1, 0], [0, 1]], [[1, third], [0, 1]]) == (("involution", (1, 2)),)
        # g*g = diag(1, 1/4) misses on the diagonal, in the second row
        assert self.residuals([[1, 0], [0, 1]], [[1, 0], [0, HALF]]) == (("involution", (2, 2)),)
        # a reverser of J(1, 2) that squares to I/4
        a = jordan_block(ONE, 2)
        g = ExactMatrix([[HALF, 1], [0, -HALF]])
        report = check_witness(a, g)
        assert report.reverses and report.residuals == (("involution", (1, 1)),)

    def test_square_with_a_denominator_that_is_the_identity(self):
        # [[1, 1/2], [0, -1]] squares to the identity through cancellation
        assert self.residuals([[1, 0], [0, 1]], [[1, HALF], [0, -1]]) == ()

    def test_complex_off_diagonal_miss(self):
        # g*g = [[1, 0, 0], [0, 1, 2i], [0, 0, 1]]: the real parts agree, the
        # imaginary part of entry (2, 3) does not
        g = [[1, 0, 0], [0, 1, I], [0, 0, 1]]
        assert self.residuals([[1, 0, 0], [0, 1, 0], [0, 0, 1]], g)[-1] == ("involution", (2, 3))
        # g*g = -I through complex entries
        assert self.residuals([[1, 0], [0, 1]], [[0, I], [I, 0]])[-1] == ("involution", (1, 1))
        # g*g = I through complex entries
        assert self.residuals([[1, 0], [0, 1]], [[0, I], [-I, 0]]) == ()

    def test_one_by_one(self):
        report = check_witness(ExactMatrix([[1]]), ExactMatrix([[-1]]))
        assert report.reverses and report.involution and report.determinant == MINUS_ONE
        assert self.residuals([[1]], [[I]]) == (("involution", (1, 1)),)
        assert self.residuals([[2]], [[1]]) == (("reverses", (1, 1)),)
        assert self.residuals([[HALF]], [[HALF]]) == (
            ("reverses", (1, 1)),
            ("involution", (1, 1)),
        )


class TestBundlesReverify:
    def test_no_stale_flags(self):
        specs = [
            JordanSpec([(G(1), 4)]),
            JordanSpec([(G(1), 2), (G(1), 2)]),
            JordanSpec([(G(2), 2), (HALF, 2)]),
            JordanSpec([(G(-1), 3), (G(1), 1)]),
        ]
        for spec in specs:
            bundle = involutive_witness(spec)
            report = check_witness(bundle.a, bundle.g)
            assert report.reverses == bundle.reverses
            assert report.involution == bundle.is_involution
            assert report.determinant == bundle.determinant
        for spec in [JordanSpec([(G(1), 2)]), JordanSpec([(G(2), 1), (HALF, 1)])]:
            bundle = sl_reverser_witness(spec)
            report = check_witness(bundle.a, bundle.g)
            assert report.reverses and report.determinant == ONE
            assert report.involution == bundle.is_involution

    @pytest.mark.parametrize(
        "construct, blocks",
        [
            (involutive_witness, [(G(1), 3), (G(2), 2), (HALF, 2)]),
            (sl_reverser_witness, [(G(1), 2), (G(2), 2), (HALF, 2)]),
        ],
    )
    def test_bundle_carries_its_report(self, construct, blocks):
        bundle = construct(JordanSpec(blocks))
        assert bundle.report == check_witness(bundle.a, bundle.g)


class TestInverseFreeVerification:
    SPEC = JordanSpec([(G(1), 3), (G(2), 2), (HALF, 2)])

    def test_passing_path_inverts_nothing(self, monkeypatch):
        def refuse(self):
            raise AssertionError("inverse() called on the passing path")

        monkeypatch.setattr(ExactMatrix, "inverse", refuse)
        for construct in (involutive_witness, sl_reverser_witness):
            bundle = construct(self.SPEC)
            assert bundle.report.all_good()
            assert check_witness(bundle.a, bundle.g).all_good()
        bundle = sl_reverser_witness(JordanSpec([(G(1), 2)]))
        assert bundle.reverses and not bundle.is_involution

    def test_failing_residual_position_is_unchanged(self):
        # g A g^{-1} vs A^{-1} first differs at (1, 6); A g A vs g would
        # differ at (1, 1), so the reported position keeps the original formula
        bundle = involutive_witness(self.SPEC)
        rows = [list(row) for row in bundle.g.entries]
        rows[0][0] = rows[0][0] + 1
        report = check_witness(bundle.a, ExactMatrix(rows))
        assert not report.reverses
        assert report.residuals[0] == ("reverses", (1, 6))


class TestSpecGenerator:
    def test_exhaustive_counts_two_colors(self):
        # colored partition counts for two eigenvalues: 2, 5, 10, 20 for n = 1..4
        gen = SpecGenerator(4, (ONE, MINUS_ONE))
        specs = list(gen.specs())
        assert len(specs) == 2 + 5 + 10 + 20
        assert len(set(specs)) == len(specs)
        assert all(1 <= spec.n <= 4 for spec in specs)

    def test_exhaustive_single_eigenvalue_matches_partitions(self):
        gen = SpecGenerator(6, (ONE,))
        specs = set(gen.specs())
        expected = set()
        for n in range(1, 7):
            for parts in iter_partitions(n):
                expected.add(JordanSpec((ONE, d) for d in parts))
        assert specs == expected

    def test_max_block_size_restricts(self):
        gen = SpecGenerator(4, (ONE, G(2)), max_block_size=1)
        assert all(size == 1 for spec in gen.specs() for _, size in spec.blocks)

    def test_random_mode_deterministic(self):
        gen_a = SpecGenerator(6, DEFAULT_POOL, mode="random", seed=5, count=25)
        gen_b = SpecGenerator(6, DEFAULT_POOL, mode="random", seed=5, count=25)
        assert list(gen_a.specs()) == list(gen_b.specs())
        assert all(spec.n <= 6 for spec in gen_a.specs())

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            SpecGenerator(3, (ONE,), mode="fuzz")

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_n": 7.9}, {"count": 2.5}, {"max_block_size": 1.0}, {"max_n": True}],
        ids=repr,
    )
    def test_rejects_non_integer_sizes(self, kwargs):
        args = {"max_n": 3, "pool": (ONE,), **kwargs}
        with pytest.raises(TypeError):
            SpecGenerator(**args)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_n": 0, "mode": "random", "count": 2},
            {"max_n": -2},
            {"max_block_size": 0},
            {"max_block_size": -1, "mode": "random", "count": 2},
            {"count": -3, "mode": "random"},
        ],
        ids=repr,
    )
    def test_rejects_out_of_range_sizes(self, kwargs):
        args = {"max_n": 3, "pool": DEFAULT_POOL, **kwargs}
        with pytest.raises(ValueError, match="must be"):
            SpecGenerator(**args)

    def test_rejects_repeated_pool_value(self):
        with pytest.raises(ValueError, match="distinct"):
            SpecGenerator(2, [ONE, ONE])
        with pytest.raises(ValueError, match="distinct"):
            SpecGenerator(2, [HALF, G(1) / 2, MINUS_ONE])

    def test_rejects_zero_in_pool(self):
        with pytest.raises(ValueError, match="nonzero"):
            SpecGenerator(2, [ONE, ZERO])

    @pytest.mark.parametrize(
        "pool, max_block_size",
        [
            (DEFAULT_POOL, None),
            (MIXED_POOL, None),
            (DEFAULT_POOL, 2),
            (MIXED_POOL, 2),
        ],
        ids=["default", "mixed", "default-max2", "mixed-max2"],
    )
    def test_exhaustive_yields_checked_canonical_specs_in_recursion_order(
        self, pool, max_block_size
    ):
        specs = list(SpecGenerator(6, pool, max_block_size=max_block_size).specs())
        for spec in specs:
            assert spec == JordanSpec(spec.blocks)
        assert specs == _recursion_specs(6, pool, max_block_size)


def _recursion_specs(max_n, pool, max_block_size=None) -> list[JordanSpec]:
    """Every multiset of (eigenvalue, size) items with total size <= max_n,
    in the order of a depth-first recursion over the items in pool order,
    each spec built and sorted by the public constructor."""
    limit = max_n if max_block_size is None else min(max_n, max_block_size)
    items = [(eig, size) for eig in pool for size in range(1, limit + 1)]
    out = []

    def rec(start, budget, acc):
        for idx in range(start, len(items)):
            size = items[idx][1]
            if size <= budget:
                acc.append(items[idx])
                out.append(JordanSpec(acc))
                rec(idx, budget - size, acc)
                acc.pop()

    rec(0, max_n, [])
    return out


class TestIterPartitions:
    def test_counts(self):
        known = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22}
        for n, expected in known.items():
            parts = list(iter_partitions(n))
            assert len(parts) == expected
            assert len(set(parts)) == expected
            assert all(sum(p) == n for p in parts)


def _scale_by_scale_reversers(spec, pairing) -> list[ExactMatrix]:
    """The involutive reverser family rebuilt for every choice of scales:
    scales[idx] * R(lam, d) for each block idx = (lam, d), placed at
    (idx, partner), over the +-1 signs of the singletons and the unit pairs
    (u, 1/u) of the pairs."""
    partner = {idx: idx for idx in pairing.singletons}
    for i, j in pairing.pairs:
        partner[i], partner[j] = j, i
    starts = [sum(size for _, size in spec.blocks[:idx]) for idx in range(len(spec.blocks))]
    scales = [ONE] * len(spec.blocks)
    out = []
    for signs in itertools.product((ONE, MINUS_ONE), repeat=len(pairing.singletons)):
        for idx, sign in zip(pairing.singletons, signs):
            scales[idx] = sign
        for combo in itertools.product((ONE, MINUS_ONE, I, -I), repeat=len(pairing.pairs)):
            for (i, j), u in zip(pairing.pairs, combo):
                scales[i], scales[j] = u, u.inverse()
            placements = [
                (starts[idx], starts[partner[idx]], scales[idx] * jordan_reverser(eig, size))
                for idx, (eig, size) in enumerate(spec.blocks)
            ]
            out.append(ExactMatrix.from_blocks(spec.n, placements))
    return out


def test_reverser_family_matches_scale_by_scale_construction():
    checked = 0
    for spec in SpecGenerator(6, DEFAULT_POOL).specs():
        report = classify(spec)
        if not report.reversible or report.strongly_reversible:
            continue
        # materialized before comparing, so a row shared between two
        # yielded matrices would show up as a mismatch
        family = list(iter_involutive_reversers(spec, report.pairing))
        assert family == _scale_by_scale_reversers(spec, report.pairing)
        checked += len(family)
    assert checked > 0


class TestClassificationSweep:
    def test_small_pool_zero_failures(self):
        summary = classification_sweep(SpecGenerator(6, (ONE, MINUS_ONE, G(2), HALF)))
        assert summary["failures"] == []
        assert summary["strongly_reversible"] == summary["witnesses_verified"]
        assert summary["reversible_only"] > 0

    def test_unipotent_pool_reproduces_dedicated_classifier(self):
        gen = SpecGenerator(6, (ONE,))
        assert classification_sweep(gen)["failures"] == []
        for spec in gen.specs():
            assert unipotent_strong_verdict(spec) == classify(spec).strongly_reversible

    def test_two_half_pool_at_n_two(self):
        summary = classification_sweep(SpecGenerator(2, (G(2), HALF)))
        assert summary["failures"] == []
        assert summary["reversible_only"] == 1
        assert summary["strongly_reversible"] == 0

    def test_inversion_closed_pool_matches_class_counts(self):
        pool = (ONE, MINUS_ONE, G(3), G(Fraction(1, 3)), G(0, 2), G(0, Fraction(-1, 2)))
        summary = classification_sweep(SpecGenerator(7, pool))
        assert summary["failures"] == []
        expected = class_counts(7, pool)
        assert {key: summary[key] for key in expected} == expected

    def test_unipotent_class_counts_match_classifier_per_n(self):
        previous = class_counts(0, (ONE,))
        for n in range(1, 17):
            counts = class_counts(n, (ONE,))
            verdicts = [classify(JordanSpec((ONE, d) for d in parts)) for parts in iter_partitions(n)]
            only = sum(r.reversible and not r.strongly_reversible for r in verdicts)
            assert counts["reversible_only"] - previous["reversible_only"] == only
            assert counts["cases"] - previous["cases"] == len(verdicts)
            previous = counts

    def test_corrupted_classifier_is_detected(self, monkeypatch):
        real = reversal_module.classify

        def corrupted(spec):
            report = real(spec)
            return dataclasses.replace(
                report, strongly_reversible=not report.strongly_reversible
            )

        monkeypatch.setattr(reversal_module, "classify", corrupted)
        summary = classification_sweep(SpecGenerator(4, (ONE,)))
        assert summary["failures"]


class TestClassCounts:
    @pytest.mark.parametrize("pool", [DEFAULT_POOL, MIXED_POOL], ids=["default", "mixed"])
    def test_matches_generating_function_oracle(self, pool):
        for n in range(17):
            assert verify_module.class_counts(n, pool) == class_counts(n, pool)

    def test_refuses_a_pool_not_closed_under_inversion(self):
        with pytest.raises(ValueError, match="closed under inversion"):
            verify_module.class_counts(4, (ONE, G(2)))

    def test_selftest_flags_tallies_that_differ_from_the_count(self, monkeypatch):
        real = verify_module.class_counts

        def off_by_one(max_n, pool):
            counts = real(max_n, pool)
            counts["reversible_only"] += 1
            return counts

        monkeypatch.setattr(verify_module, "class_counts", off_by_one)
        summary = run_selftest(max_n=2, seed=0)
        sweep = next(s for s in summary["suites"] if s["name"] == "classification_sweep")
        assert summary["total_failures"] == 1
        assert "class counts" in sweep["failures"][0]["problem"]


class TestHomogeneousDetCheck:
    def test_three_blocks_of_two(self):
        summary = homogeneous_det_check(3, 1, trials=10, seed=1)
        assert summary["failures"] == [] and summary["cases"] == 10

    def test_single_block_of_two(self):
        assert homogeneous_det_check(1, 1, trials=10, seed=2)["failures"] == []

    def test_two_blocks_of_two(self):
        assert homogeneous_det_check(2, 1, trials=10, seed=3)["failures"] == []

    def test_block_of_four(self):
        assert homogeneous_det_check(1, 2, trials=10, seed=4)["failures"] == []


class TestLemmaOracles:
    def test_semisimple_examples(self):
        third = G(Fraction(1, 3))
        assert semisimple_strong_verdict(
            JordanSpec([(G(2), 1), (HALF, 1), (G(3), 1), (third, 1)])
        ) is True
        assert semisimple_strong_verdict(JordanSpec([(G(2), 1), (HALF, 1)])) is False
        assert semisimple_strong_verdict(
            JordanSpec([(ONE, 1), (G(2), 1), (HALF, 1)])
        ) is True
        assert semisimple_strong_verdict(JordanSpec([(G(2), 1)])) is None
        assert semisimple_strong_verdict(JordanSpec([(G(2), 2)])) is None

    def test_unipotent_examples(self):
        assert unipotent_strong_verdict(JordanSpec([(ONE, 2)] * 3)) is False
        assert unipotent_strong_verdict(JordanSpec([(ONE, 2)] * 2)) is True
        assert unipotent_strong_verdict(JordanSpec([(ONE, 3)])) is True
        assert unipotent_strong_verdict(JordanSpec([(MINUS_ONE, 2)])) is None

    def test_negative_one_examples(self):
        assert negative_one_strong_verdict(JordanSpec([(MINUS_ONE, 3)])) is True
        assert negative_one_strong_verdict(JordanSpec([(MINUS_ONE, 2)])) is False
        assert negative_one_strong_verdict(JordanSpec([(ONE, 2)])) is None

    def test_single_pair_examples(self):
        assert single_pair_strong_verdict(JordanSpec([(G(2), 2), (HALF, 2)])) is True
        assert single_pair_strong_verdict(JordanSpec([(G(2), 1), (HALF, 1)])) is False
        assert single_pair_strong_verdict(JordanSpec([(G(2), 1), (HALF, 2)])) is None
        assert single_pair_strong_verdict(JordanSpec([(ONE, 1), (G(2), 1)])) is None


class TestCrossChecks:
    def test_semisimple_cross_check(self):
        gen = SpecGenerator(8, DEFAULT_POOL, max_block_size=1)
        summary = semisimple_cross_check(gen)
        assert summary["failures"] == [] and summary["cases"] > 100

    def test_cross_path_small(self):
        summary = cross_path_check(max_n=8)
        assert summary["failures"] == [] and summary["cases"] > 0


class TestRunSelftest:
    def test_trivial_max_n(self):
        summary = run_selftest(max_n=1, seed=0)
        assert summary["total_failures"] == 0


class TestExhaustiveModuleInvariant:
    def test_eight_eigenvalue_pool(self):
        # classifier/constructor agreement and obstruction soundness over the
        # full eight-value pool, every spec with n <= 8
        pool = (
            ONE,
            MINUS_ONE,
            G(2),
            HALF,
            G(3),
            G(Fraction(1, 3)),
            I,
            -I,
        )
        summary = classification_sweep(SpecGenerator(8, pool))
        assert summary["failures"] == []
        assert summary["strongly_reversible"] == summary["witnesses_verified"]
        assert summary["reversible_only"] > 0


def _report_fields(report) -> dict:
    witness = report.pairing.failure_witness
    return {
        "reversible": report.reversible,
        "strongly_reversible": report.strongly_reversible,
        "p": report.p,
        "q": report.q,
        "plus": list(report.partition_plus.parts),
        "minus": list(report.partition_minus.parts),
        "odd": report.odd_block_present,
        "parity_value": report.parity_value,
        "parity_even": report.parity_even,
        "pairs": [list(pair) for pair in report.pairing.pairs],
        "singletons": list(report.pairing.singletons),
        "witness": None if witness is None else [str(witness[0]), witness[1]],
    }


# SHA-256 over every spec of SpecGenerator(7, DEFAULT_POOL) and its classify
# report, recorded before spec construction and pairing moved to integer
# triples; block order, pairing and every verdict must stay byte-identical.
SWEEP_7_DIGEST = "540cd9c57602200b011debe9b33df6b3db63163e2c49c5cb1f9bb959425483bc"


def test_sweep_specs_and_reports_are_byte_identical():
    digest = hashlib.sha256()
    count = 0
    for spec in SpecGenerator(7, DEFAULT_POOL).specs():
        count += 1
        record = [spec.to_json_dict(), _report_fields(classify(spec))]
        digest.update(json.dumps(record, sort_keys=True).encode())
        digest.update(b"\n")
    assert count == 10228
    assert digest.hexdigest() == SWEEP_7_DIGEST


def test_sweep_classifies_each_spec_once(monkeypatch):
    calls = 0
    real = reversal_module.classify

    def counting(spec):
        nonlocal calls
        calls += 1
        return real(spec)

    monkeypatch.setattr(reversal_module, "classify", counting)
    summary = classification_sweep(SpecGenerator(6, DEFAULT_POOL))
    assert summary["failures"] == []
    assert calls == summary["cases"]


def _bundle_record(construct, spec) -> list:
    try:
        bundle = construct(spec)
    except (reversal_module.NotReversibleError, reversal_module.NotStronglyReversibleError) as exc:
        return [type(exc).__name__, str(exc)]
    return [
        bundle.a.to_json_dict(),
        bundle.g.to_json_dict(),
        bundle.report.to_json_dict(),
        list(bundle.transcript),
    ]


# SHA-256 over both witness constructors' bundles (or refusals) for every
# reversible spec of SpecGenerator(6, DEFAULT_POOL), recorded before the
# sweep handed its classification to the constructors.
WITNESS_6_DIGEST = "c98fbec0808ca9a53efd25a7995761d5f161bcba92b69c5f3c14153e58a4fee2"


def test_witness_bundles_are_byte_identical():
    digest = hashlib.sha256()
    count = 0
    for spec in SpecGenerator(6, DEFAULT_POOL).specs():
        if not classify(spec).reversible:
            continue
        count += 1
        record = [spec.to_json_dict()] + [
            _bundle_record(construct, spec)
            for construct in (involutive_witness, sl_reverser_witness)
        ]
        digest.update(json.dumps(record, sort_keys=True).encode())
        digest.update(b"\n")
    assert count > 0
    assert digest.hexdigest() == WITNESS_6_DIGEST
