import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import random_nonzero_scalar
from strongrev.canonical import JordanSpec, jordan_block, jordan_matrix
from strongrev.matrices import ExactMatrix, direct_sum
from strongrev.reversal import (
    NotReversibleError,
    NotStronglyReversibleError,
    StrongReversibilityReport,
    classify,
    involution_det_sign,
    involutive_witness,
    inverse_law_holds,
    jordan_reverser,
    jordan_reverser_general,
    jordan_reverser_recurrence,
    pair_reverser,
    sample_reverser,
    sl_reverser_witness,
    upper_toeplitz,
)
from strongrev.scalars import GaussianRational, I, MINUS_ONE, ONE, ZERO, from_triple, key_pair

G = GaussianRational
HALF = G(Fraction(1, 2))


def spec_of(*blocks):
    return JordanSpec([(G(e) if not isinstance(e, GaussianRational) else e, s) for e, s in blocks])


class TestClosedForm:
    def test_size_four_display_at_two(self):
        expected = ExactMatrix(
            [
                [Fraction(-1, 64), Fraction(-1, 16), Fraction(-1, 16), 0],
                [0, Fraction(1, 16), Fraction(1, 8), 0],
                [0, 0, Fraction(-1, 4), 0],
                [0, 0, 0, 1],
            ]
        )
        assert jordan_reverser(G(2), 4) == expected

    def test_size_five_at_one(self):
        r = jordan_reverser(G(1), 5)
        assert [r[0, j] for j in range(5)] == [G(1), G(3), G(3), G(1), ZERO]
        assert [r[i, i] for i in range(5)] == [G(1), G(-1), G(1), G(-1), G(1)]

    def test_size_one(self):
        assert jordan_reverser(G(7, 3), 1) == ExactMatrix([[1]])

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            jordan_reverser(G(0), 3)

    def test_reversal_product_display_at_one(self):
        r = jordan_reverser(G(1), 4)
        j = jordan_block(G(1), 4)
        product = ExactMatrix(
            [[-1, -3, -3, -1], [0, 1, 2, 1], [0, 0, -1, -1], [0, 0, 0, 1]]
        )
        assert r * j == product
        assert j.inverse() * r == product


class TestRecurrence:
    def test_matches_closed_form(self):
        rng = random.Random(71)
        for n in range(1, 13):
            for _ in range(20):
                lam = random_nonzero_scalar(rng)
                assert jordan_reverser_recurrence(lam, n) == jordan_reverser(lam, n)

    def test_size_two_unrolled(self):
        assert jordan_reverser_recurrence(G(1), 2) == ExactMatrix([[-1, 0], [0, 1]])

    def test_involution_at_unit_eigenvalues(self):
        for mu in (ONE, MINUS_ONE):
            for n in range(1, 13):
                r = jordan_reverser_recurrence(mu, n)
                assert (r * r).is_identity()


class TestInverseLaw:
    def test_two_size_six(self):
        assert inverse_law_holds(G(2), 6)

    def test_unit_eigenvalue_restates_involution(self):
        for n in range(1, 9):
            assert inverse_law_holds(G(1), n)
            assert inverse_law_holds(G(-1), n)

    def test_imaginary_size_five_product(self):
        product = jordan_reverser(I, 5) * jordan_reverser(I.inverse(), 5)
        assert product.is_identity()

    def test_matrix_inverse_equals_closed_form_at_inverse_eigenvalue(self):
        rng = random.Random(72)
        for n in range(1, 9):
            lam = random_nonzero_scalar(rng)
            assert jordan_reverser(lam, n).inverse() == jordan_reverser(lam.inverse(), n)


class TestToeplitz:
    def test_scalar_case(self):
        xs = [G(5)] + [ZERO] * 4
        assert upper_toeplitz(xs) == ExactMatrix.diagonal([G(5)] * 5)

    def test_product_display(self):
        xs = [G(2), G(3), G(5), G(7), G(11)]
        expected = ExactMatrix(
            [
                [2, 3, 5, -3, 11],
                [0, -2, -1, -4, 7],
                [0, 0, 2, -1, 5],
                [0, 0, 0, -2, 3],
                [0, 0, 0, 0, 2],
            ]
        )
        assert upper_toeplitz(xs) * jordan_reverser(G(1), 5) == expected
        assert jordan_reverser_general(G(1), xs) == expected

    def test_commutes_with_jordan_block(self):
        rng = random.Random(73)
        for n in range(1, 9):
            lam = random_nonzero_scalar(rng)
            xs = [random_nonzero_scalar(rng) for _ in range(n)]
            t = upper_toeplitz(xs)
            j = jordan_block(lam, n)
            assert t * j == j * t


class TestGeneralReverser:
    def test_last_column_is_reversed_data(self):
        rng = random.Random(74)
        n = 6
        xs = [random_nonzero_scalar(rng) for _ in range(n)]
        g = jordan_reverser_general(G(2), xs)
        for i in range(n):
            assert g[i, n - 1] == xs[n - 1 - i]

    def test_unit_vector_recovers_base_reverser(self):
        lam = G(Fraction(3, 4), Fraction(-1, 2))
        xs = [ONE] + [ZERO] * 5
        assert jordan_reverser_general(lam, xs) == jordan_reverser(lam, 6)

    def test_diagonal_entries(self):
        rng = random.Random(75)
        n = 7
        lam = random_nonzero_scalar(rng)
        xs = [random_nonzero_scalar(rng) for _ in range(n)]
        g = jordan_reverser_general(lam, xs)
        for i in range(n):
            power = n - 1 - i
            assert g[i, i] == xs[0] * (MINUS_ONE**power) * lam ** (-2 * power)

    def test_reversal_identity(self):
        rng = random.Random(76)
        for n in range(1, 11):
            for _ in range(20):
                lam = random_nonzero_scalar(rng)
                xs = [random_nonzero_scalar(rng)] + [
                    G(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n - 1)
                ]
                g = jordan_reverser_general(lam, xs)
                assert g * jordan_block(lam.inverse(), n) == jordan_block(lam, n).inverse() * g

    def test_zero_leading_coefficient_rejected(self):
        with pytest.raises(ValueError):
            jordan_reverser_general(G(1), [ZERO, ONE])


class TestInvolutionReverser:
    def test_size_two_hand_check(self):
        g = jordan_reverser(ONE, 2)
        assert g == ExactMatrix([[-1, 0], [0, 1]])
        j = jordan_block(G(1), 2)
        # frozen hand computation: g J g^{-1} = [[1,-1],[0,1]] = J^{-1}
        assert g * j * g == ExactMatrix([[1, -1], [0, 1]])
        assert g * j * g == j.inverse()

    def test_always_involution(self):
        for mu in (ONE, MINUS_ONE):
            for n in range(1, 13):
                g = jordan_reverser(mu, n)
                assert (g * g).is_identity()


class TestPairReverser:
    def test_size_one_swap(self):
        g = pair_reverser(G(2), 1)
        assert g == ExactMatrix([[0, 1], [1, 0]])
        a = ExactMatrix.diagonal([G(2), HALF])
        assert g * a * g.inverse() == a.inverse()

    def test_involution_for_random_eigenvalues(self):
        rng = random.Random(77)
        for n in range(1, 9):
            lam = random_nonzero_scalar(rng)
            while lam == ONE or lam == MINUS_ONE:
                lam = random_nonzero_scalar(rng)
            g = pair_reverser(lam, n)
            assert (g * g).is_identity()
            a = direct_sum([jordan_block(lam, n), jordan_block(lam.inverse(), n)])
            assert g * a * g == a.inverse()
            assert g.det() == MINUS_ONE**n

    def test_rejects_unit_eigenvalues(self):
        for bad in (G(0), ONE, MINUS_ONE):
            with pytest.raises(ValueError):
                pair_reverser(bad, 2)


def reference_pair_blocks(spec):
    """The block pairing of classify as written on GaussianRational keys,
    with == and inverse(): (reversible, pairs, singletons, failure_witness)."""
    waiting = {}
    pairs = []
    singletons = []
    for idx, (eig, size) in enumerate(spec.blocks):
        if eig == ONE or eig == MINUS_ONE:
            singletons.append(idx)
            continue
        partner_key = (eig.inverse(), size)
        queue = waiting.get(partner_key)
        if queue:
            pairs.append((queue.pop(0), idx))
        else:
            waiting.setdefault((eig, size), []).append(idx)
    leftover = [idx for queue in waiting.values() for idx in queue]
    if leftover:
        witness_idx = min(leftover)
        return False, tuple(pairs), tuple(singletons), spec.blocks[witness_idx]
    return True, tuple(pairs), tuple(singletons), None


_PAIRABLE = [
    G(2), G(-3), G(Fraction(1, 2), 1), G(Fraction(1, 2), -1), G(Fraction(-2, 3)), I, G(0, 2)
]
# Values with their inverses, so pairs form often, plus the +-1 singletons.
PAIRING_BLOCKS = st.lists(
    st.tuples(
        st.sampled_from([ONE, MINUS_ONE] + _PAIRABLE + [v.inverse() for v in _PAIRABLE]),
        st.integers(min_value=1, max_value=3),
    ),
    min_size=1,
    max_size=12,
)


class TestPairBlocks:
    @given(PAIRING_BLOCKS, st.randoms(use_true_random=False))
    def test_matches_reference_pairing(self, blocks, rnd):
        rnd.shuffle(blocks)
        spec = JordanSpec(blocks)
        report = classify(spec)
        fields = (report.reversible, report.pairs, report.singletons, report.failure_witness)
        assert fields == reference_pair_blocks(spec)

    def test_simple_pair(self):
        report = classify(spec_of((2, 2), (HALF, 2)))
        assert report.reversible
        assert len(report.pairs) == 1 and not report.singletons

    def test_size_mismatch(self):
        report = classify(spec_of((2, 2), (HALF, 3)))
        assert not report.reversible
        assert report.failure_witness in ((G(2), 2), (HALF, 3))

    def test_unit_blocks_are_singletons(self):
        report = classify(spec_of((-1, 3), (1, 1)))
        assert report.reversible
        assert len(report.singletons) == 2 and not report.pairs

    def test_imaginary_pairing(self):
        report = classify(JordanSpec([(I, 2), (-I, 2)]))
        assert report.reversible and len(report.pairs) == 1

    def test_repeated_blocks_all_pair(self):
        report = classify(spec_of((2, 1), (2, 1), (HALF, 1), (HALF, 1)))
        assert report.reversible and len(report.pairs) == 2


def reference_classify(spec):
    """classify restated on reference_pair_blocks, with == on values."""
    reversible, pairs, singletons, failure_witness = reference_pair_blocks(spec)
    plus = tuple(size for eig, size in spec.blocks if eig == ONE)
    minus = tuple(size for eig, size in spec.blocks if eig == MINUS_ONE)
    odd = any(size % 2 for size in plus + minus)
    parity_value = sum(size % 4 == 2 for size in plus + minus) + (spec.n - sum(plus + minus)) // 2
    return StrongReversibilityReport(
        reversible=reversible,
        strongly_reversible=reversible and (odd or parity_value % 2 == 0),
        pairs=pairs,
        singletons=singletons,
        failure_witness=failure_witness,
        plus_sizes=plus,
        minus_sizes=minus,
        odd_block_present=odd,
        parity_value=parity_value,
        parity_even=parity_value % 2 == 0,
    )


class TestClassify:
    @given(PAIRING_BLOCKS, st.randoms(use_true_random=False))
    def test_matches_reference_on_separate_equal_eigenvalues(self, blocks, rnd):
        # every block gets its own eigenvalue object, so runs of equal
        # eigenvalues are found by value, not by identity
        rnd.shuffle(blocks)
        spec = JordanSpec((G(eig.re, eig.im), size) for eig, size in blocks)
        report = classify(spec)
        assert report == reference_classify(spec)
        assert hash(report) == hash(reference_classify(spec))

    @given(PAIRING_BLOCKS, st.randoms(use_true_random=False))
    def test_same_report_on_shared_and_separate_equal_eigenvalues(self, blocks, rnd):
        # the pool values are shared objects with kept key pairs; the copies
        # are fresh, some with their pair read before classify, through
        # key_pair or through inverse_key, and the rest unread
        rnd.shuffle(blocks)
        copies = [(G(eig.re, eig.im), size) for eig, size in blocks]
        for eig, _ in copies:
            read = rnd.choice([key_pair, lambda z: z.inverse_key, None])
            if read is not None:
                read(eig)
        assert classify(JordanSpec(copies)) == classify(JordanSpec(blocks))

    @pytest.mark.parametrize("read_first", [False, True])
    def test_only_blocks_at_one_and_minus_one_are_unit_blocks(self, read_first):
        # equal triples tell a +-1 block: i and -i are each other's inverse,
        # 2 and 1/2 likewise, and 2/2 and -3/3 are 1 and -1 built unreduced
        eigs = [G(Fraction(2, 2)), from_triple(-3, 0, 3), I, -I, G(2), G(Fraction(1, 2))]
        if read_first:
            for eig in eigs:
                key_pair(eig)
        spec = JordanSpec(zip(eigs, [3, 2, 1, 1, 4, 4]))
        report = classify(spec)
        assert report.plus_sizes == (3,) and report.minus_sizes == (2,)
        assert {spec.blocks[idx] for idx in report.singletons} == {(MINUS_ONE, 2), (ONE, 3)}
        paired = {frozenset((spec.blocks[i][0], spec.blocks[j][0])) for i, j in report.pairs}
        assert paired == {frozenset((I, -I)), frozenset((G(2), G(Fraction(1, 2))))}
        assert report.reversible and report == reference_classify(spec)

    def test_reports_are_frozen(self):
        report = classify(spec_of((1, 2), (2, 1), (HALF, 1)))
        for name in ("parity_value", "pairs"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(report, name, None)

    def test_three_doubled_unipotent_blocks(self):
        report = classify(spec_of((1, 2), (1, 2), (1, 2)))
        assert report.reversible and not report.strongly_reversible
        assert report.parity_value == 3 and not report.parity_even
        assert not report.odd_block_present
        assert report.plus_sizes == (2, 2, 2) and report.minus_sizes == ()

    def test_unipotent_442(self):
        report = classify(spec_of((1, 4), (1, 4), (1, 2)))
        assert report.reversible and not report.strongly_reversible
        assert report.parity_value == 1

    def test_decisive_doubled_pair(self):
        report = classify(spec_of((1, 2), (1, 2)))
        assert report.strongly_reversible
        assert report.parity_value == 2 and report.parity_even

    def test_semisimple_two_and_half(self):
        report = classify(spec_of((2, 1), (HALF, 1)))
        assert report.reversible and not report.strongly_reversible
        assert report.parity_value == 1

    def test_minus_one_cube(self):
        report = classify(spec_of((-1, 3)))
        assert report.strongly_reversible and report.odd_block_present

    def test_not_reversible(self):
        report = classify(spec_of((2, 1)))
        assert not report.reversible and not report.strongly_reversible


class TestDetSignPrediction:
    def test_forced_minus_for_three_doubled_blocks(self):
        assert involution_det_sign(spec_of((1, 2), (1, 2), (1, 2))) == {-1}

    def test_forced_minus_for_semisimple_pair(self):
        assert involution_det_sign(spec_of((2, 1), (HALF, 1))) == {-1}

    def test_free_for_odd_unit_block(self):
        assert involution_det_sign(spec_of((1, 3))) == {-1, 1}

    def test_forced_plus(self):
        assert involution_det_sign(spec_of((1, 4))) == {1}

    def test_requires_reversible(self):
        with pytest.raises(NotReversibleError):
            involution_det_sign(spec_of((2, 1)))

    def test_matches_every_blockwise_reverser(self):
        # every reversible spec with n <= 6 over DEFAULT_POOL: the
        # determinants of all its blockwise involutive reversers are exactly
        # the predicted set
        from strongrev.matrices import check_witness
        from strongrev.verify import DEFAULT_POOL, SpecGenerator, iter_involutive_reversers

        sign = {ONE: 1, MINUS_ONE: -1}
        seen = {}
        for spec in SpecGenerator(6, DEFAULT_POOL).specs():
            report = classify(spec)
            if not report.reversible:
                continue
            a = jordan_matrix(spec)
            dets = set()
            for g in iter_involutive_reversers(spec, report):
                check = check_witness(a, g)
                assert check.reverses and check.involution, spec
                dets.add(sign[check.determinant])
            predicted = involution_det_sign(spec)
            assert dets == predicted, spec
            key = tuple(sorted(predicted))
            seen[key] = seen.get(key, 0) + 1
        # free, forced -1 and forced +1 specs all occur
        assert seen == {(-1, 1): 206, (-1,): 44, (1,): 14}


class TestInvolutiveWitness:
    def test_single_even_block(self):
        bundle = involutive_witness(spec_of((1, 4)))
        report = bundle.report
        assert report.reverses and report.involution and report.determinant == ONE
        # both signs of the scale give determinant +1 here
        for scale in (ONE, MINUS_ONE):
            g = scale * jordan_reverser(G(1), 4)
            assert g.det() == ONE

    def test_decisive_doubled_pair_explicit(self):
        # independent hand construction: R(1,2) on one block, -R(1,2) on the other
        r = jordan_reverser(G(1), 2)
        g0 = direct_sum([r, MINUS_ONE * r])
        a = jordan_matrix(spec_of((1, 2), (1, 2)))
        assert (g0 * g0).is_identity()
        assert g0 * a * g0 == a.inverse()
        assert g0.det() == ONE
        bundle = involutive_witness(spec_of((1, 2), (1, 2)))
        report = bundle.report
        assert report.reverses and report.involution and report.determinant == ONE

    def test_pair_of_doubled_blocks(self):
        bundle = involutive_witness(spec_of((2, 2), (HALF, 2)))
        assert bundle.report.determinant == ONE and bundle.report.involution
        assert bundle.g.det() == ONE

    def test_odd_block_sign_rule(self):
        bundle = involutive_witness(spec_of((1, 3)))
        # d(d-1)/2 = 3 is odd, so the scale is -1 and g = -R(1,3)
        assert bundle.g == MINUS_ONE * jordan_reverser(G(1), 3)
        assert bundle.report.determinant == ONE

    def test_flip_absorbs_forced_sign(self):
        # one odd block alongside a pair of odd size: forced sign -1, flipped
        bundle = involutive_witness(spec_of((1, 1), (2, 1), (HALF, 1)))
        assert bundle.report.determinant == ONE and bundle.report.involution
        assert any("flipped" in line for line in bundle.transcript)

    def test_mixed_spec(self):
        bundle = involutive_witness(spec_of((1, 3), (-1, 2), (2, 2), (HALF, 2), (1, 4)))
        report = bundle.report
        assert report.reverses and report.involution and report.determinant == ONE

    def test_refuses_non_strongly_reversible(self):
        with pytest.raises(NotStronglyReversibleError) as info:
            involutive_witness(spec_of((1, 2)))
        assert str(info.value) == (
            "no involutive reverser with determinant 1 exists: every involutive "
            "reverser of this form has determinant -1"
        )

    def test_refuses_non_reversible(self):
        with pytest.raises(NotReversibleError):
            involutive_witness(spec_of((3, 1)))


class TestSlReverserWitness:
    def test_single_doubled_unipotent_block(self):
        bundle = sl_reverser_witness(spec_of((1, 2)))
        assert bundle.g == ExactMatrix([[I, ZERO], [ZERO, -I]])
        assert bundle.g == (-I) * jordan_reverser(G(1), 2)
        assert bundle.report.determinant == ONE and bundle.report.reverses
        assert not bundle.report.involution
        square = bundle.g * bundle.g
        assert square == MINUS_ONE * ExactMatrix.identity(2)

    def test_semisimple_pair_scaled_swap(self):
        bundle = sl_reverser_witness(spec_of((2, 1), (HALF, 1)))
        assert bundle.g == ExactMatrix([[0, 1], [-1, 0]])
        assert bundle.report.determinant == ONE and bundle.report.reverses

    def test_strongly_reversible_reuses_involutive(self):
        bundle = sl_reverser_witness(spec_of((1, 3)))
        assert bundle.report.involution and bundle.report.determinant == ONE

    def test_every_reversible_spec_gets_a_witness(self):
        rng = random.Random(78)
        pool = [G(1), G(-1), G(2), HALF, I, -I]
        count = 0
        while count < 30:
            n = rng.randint(1, 8)
            blocks = []
            remaining = n
            while remaining:
                size = rng.randint(1, remaining)
                blocks.append((rng.choice(pool), size))
                remaining -= size
            spec = JordanSpec(blocks)
            if not classify(spec).reversible:
                continue
            count += 1
            bundle = sl_reverser_witness(spec)
            assert bundle.report.reverses and bundle.report.determinant == ONE

    def test_refuses_non_reversible(self):
        with pytest.raises(NotReversibleError):
            sl_reverser_witness(spec_of((2, 2)))


class TestSampleReverser:
    def test_samples_reverse_exactly(self):
        specs = [
            spec_of((1, 2), (1, 2), (1, 2)),
            spec_of((1, 4), (1, 4), (1, 2)),
            spec_of((2, 2), (HALF, 2), (1, 3)),
            spec_of((-1, 2), (-1, 2)),
            JordanSpec([(I, 1), (-I, 1), (G(1), 2)]),
        ]
        for spec in specs:
            a = jordan_matrix(spec)
            for seed in range(3):
                r = sample_reverser(spec, seed)
                assert r * a * r.inverse() == a.inverse()

    def test_single_block_samples_have_toeplitz_shape(self):
        for mu in (ONE, MINUS_ONE):
            spec = JordanSpec([(mu, 5)])
            for seed in range(5):
                r = sample_reverser(spec, seed)
                xs = [r[5 - 1 - i, 5 - 1] for i in range(5)]
                assert xs[0]
                assert r == jordan_reverser_general(mu, xs)

    def test_coset_property(self):
        spec = spec_of((1, 2), (2, 2), (HALF, 2))
        a = jordan_matrix(spec)
        r1 = sample_reverser(spec, 11)
        r2 = sample_reverser(spec, 12)
        product = r1 * r2
        assert product * a == a * product

    def test_scaling_closure(self):
        spec = spec_of((1, 3), (-1, 1))
        a = jordan_matrix(spec)
        r = sample_reverser(spec, 4)
        for c in (G(3), G(Fraction(-2, 7)), G(1, 1), I):
            scaled = c * r
            assert scaled * a * scaled.inverse() == a.inverse()

    def test_requires_reversible(self):
        with pytest.raises(NotReversibleError):
            sample_reverser(spec_of((2, 3)), 0)


class TestHomogeneousUnipotentDetLaw:
    def test_odd_products_force_minus_one(self):
        from strongrev.verify import iter_involutive_reversers

        for k, m in [(1, 1), (1, 3), (3, 1), (1, 5), (5, 1)]:
            if k * m > 6:
                continue
            spec = JordanSpec([(G(1), 2 * m)] * k)
            report = classify(spec)
            assert report.reversible and not report.strongly_reversible
            a = jordan_matrix(spec)
            for g in iter_involutive_reversers(spec, report):
                assert (g * g).is_identity()
                assert g * a * g == a.inverse()
                assert g.det() == MINUS_ONE

    def test_pair_scalings(self):
        from strongrev.matrices import check_witness
        from strongrev.verify import iter_involutive_reversers

        spec = spec_of((1, 2), (1, 2), (2, 1), (HALF, 1))
        report = classify(spec)
        assert report.reversible and not report.strongly_reversible
        assert len(report.singletons) == 2 and len(report.pairs) == 1
        a = jordan_matrix(spec)
        reversers = list(iter_involutive_reversers(spec, report))
        assert len(reversers) == 16 and len(set(reversers)) == 16
        for g in reversers:
            vr = check_witness(a, g)
            assert vr.reverses and vr.involution
            assert vr.determinant == MINUS_ONE
