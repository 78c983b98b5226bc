import dataclasses
import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from oracles import (
    class_counts,
    dense_square_difference,
    random_nonzero_scalar,
    random_scalar,
    reference_check_witness,
)
import strongrev.matrices as matrices_module
import strongrev.reversal as reversal_module
import strongrev.verify as verify_module
from strongrev.canonical import JordanSpec, jordan_block, jordan_matrix
from strongrev.matrices import (
    ExactMatrix,
    PermutationMap,
    SingularMatrixError,
    _read_a,
    _square_difference,
    direct_sum,
    offsets,
)
from strongrev.partitions import Partition
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
    general_strong_verdict,
    homogeneous_det_check,
    iter_involutive_reversers,
    iter_partitions,
    run_selftest,
    semisimple_strong_verdict,
    sign_eigenvalue_strong_verdict,
    single_pair_strong_verdict,
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
            assert check_witness(bundle.a, bundle.g) == bundle.report
        for spec in [JordanSpec([(G(1), 2)]), JordanSpec([(G(2), 1), (HALF, 1)])]:
            bundle = sl_reverser_witness(spec)
            report = check_witness(bundle.a, bundle.g)
            assert report.reverses and report.determinant == ONE
            assert report == bundle.report

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
        assert bundle.report.reverses and not bundle.report.involution

    def test_failing_residual_position_is_unchanged(self):
        # g A g^{-1} vs A^{-1} first differs at (1, 6); A g A vs g would
        # differ at (1, 1), so the reported position keeps the original formula
        bundle = involutive_witness(self.SPEC)
        rows = [list(row) for row in bundle.g.entries]
        rows[0][0] = rows[0][0] + 1
        report = check_witness(bundle.a, ExactMatrix(rows))
        assert not report.reverses
        assert report.residuals[0] == ("reverses", (1, 6))


def _polynomial(a: ExactMatrix, coeffs) -> ExactMatrix:
    """coeffs[0] + coeffs[1] a + coeffs[2] a^2 + ..., by Horner's rule."""
    eye = ExactMatrix.identity(a.rows)
    out = eye.scale(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        out = out * a + eye.scale(c)
    return out


def _block_swap(spec: JordanSpec, i: int, j: int) -> ExactMatrix:
    """Permutation matrix exchanging the equal Jordan blocks i and j."""
    sizes = [size for _, size in spec.blocks]
    offs = offsets(sizes)
    images = list(range(1, spec.n + 1))
    for t in range(sizes[i]):
        images[offs[i] + t], images[offs[j] + t] = offs[j] + t + 1, offs[i] + t + 1
    return PermutationMap(images).matrix()


def _twisted_reversers(spec: JordanSpec, rng: random.Random):
    """(a, g) for a = jordan_matrix(spec) and g = g0*c or c*g0, where g0 is
    the SL reverser of spec and c a polynomial in a, a scalar on each Jordan
    block or a swap of two equal Jordan blocks; each such c commutes with a,
    so g reverses a whenever c is invertible."""
    a = jordan_matrix(spec)
    g0 = sl_reverser_witness(spec).g
    cs = [
        _polynomial(
            a, [random_nonzero_scalar(rng, 3, 2), random_scalar(rng, 3, 2), random_scalar(rng, 3, 2)]
        )
        for _ in range(2)
    ]
    scalars = [random_nonzero_scalar(rng, 2, 1) for _ in spec.blocks]
    per_index = [x for x, (_, size) in zip(scalars, spec.blocks) for _ in range(size)]
    cs.append(ExactMatrix.diagonal(per_index))
    cs += [
        _block_swap(spec, i, j)
        for i, j in itertools.combinations(range(len(spec.blocks)), 2)
        if spec.blocks[i] == spec.blocks[j]
    ]
    yield a, g0
    for c in cs:
        yield a, g0 * c
        yield a, c * g0


def _rescaled(a: ExactMatrix, g: ExactMatrix, rng: random.Random):
    """D a D^-1 and D g D^-1 for a random complex diagonal D: the
    superdiagonal of a Jordan matrix becomes non-unit."""
    d = [random_nonzero_scalar(rng, 3, 3) for _ in range(a.rows)]
    dm, dinv = ExactMatrix.diagonal(d), ExactMatrix.diagonal([x.inverse() for x in d])
    return dm * a * dinv, dm * g * dinv


class TestRunEndInvolutionCheck:
    """When g reverses an upper bidiagonal a, check_witness decides g^2 = I
    from the rows of g^2 at the starts of a's runs; the flag and the
    residual must be those of the dense oracle."""

    @staticmethod
    def agrees(a, g):
        report = check_witness(a, g)
        pos = dense_square_difference(g)
        assert report.involution == (pos is None)
        expected = () if pos is None else (("involution", (pos[0] + 1, pos[1] + 1)),)
        assert tuple(r for r in report.residuals if r[0] == "involution") == expected
        return report

    def tally(self, pairs):
        counts = {"reverses": 0, "not_involution": 0}
        for a, g in pairs:
            report = self.agrees(a, g)
            if report.reverses:
                counts["reverses"] += 1
                counts["not_involution"] += not report.involution
        return counts

    def test_twisted_reversers_of_small_specs(self):
        rng = random.Random(16)
        specs = [s for s in SpecGenerator(5, MIXED_POOL).specs() if classify(s).reversible]
        pairs = [p for spec in specs for p in _twisted_reversers(spec, rng)]
        counts = self.tally(pairs + [_rescaled(a, g, rng) for a, g in pairs])
        assert counts["reverses"] >= 1700 and counts["not_involution"] >= 1100

    @pytest.mark.parametrize(
        "blocks",
        [
            [(G(1), 3), (G(1), 3), (G(-1), 2), (G(2), 2), (HALF, 2)],
            [(G(-1), 2), (G(-1), 2), (G(1), 1), (G(1), 1), (I, 3), (-I, 3)],
            [(G(1), 6), (G(-1), 2), (G(-1), 1)],
        ],
    )
    def test_twisted_reversers_of_larger_specs(self, blocks):
        rng = random.Random(len(blocks))
        pairs = list(_twisted_reversers(JordanSpec(blocks), rng))
        counts = self.tally(pairs + [_rescaled(a, g, rng) for a, g in pairs])
        assert counts["reverses"] == 2 * len(pairs)

    def test_one_run_with_distinct_eigenvalues(self):
        # An upper bidiagonal a with nonzero superdiagonal and the distinct
        # eigenvalues i, -i, 1, 2, 1/2 on its diagonal: one run, and
        # a_jj - a_ii is nonzero off the diagonal.  a = P L P^-1 for the
        # upper triangular eigenvector matrix P, and g = P s P^-1 reverses a
        # for every s that swaps the eigenvalues of L with their inverses.
        rng = random.Random(7)
        values = [I, -I, ONE, G(2), HALF]
        partner = [1, 0, 2, 4, 3]
        for _ in range(30):
            sup = [random_nonzero_scalar(rng, 3, 2) for _ in range(4)]
            a = ExactMatrix(
                [
                    [values[i] if j == i else sup[i] if j == i + 1 else ZERO for j in range(5)]
                    for i in range(5)
                ]
            )
            # column k of P: e_k, then (a_ii - lam) v_i + a_i,i+1 v_i+1 = 0 upwards
            cols = []
            for k, lam in enumerate(values):
                v = [ZERO] * 5
                v[k] = ONE
                for i in range(k - 1, -1, -1):
                    v[i] = -(sup[i] * v[i + 1]) / (values[i] - lam)
                cols.append(v)
            p = ExactMatrix([[cols[k][i] for k in range(5)] for i in range(5)])
            scales = [random_nonzero_scalar(rng, 2, 1) for _ in range(5)]
            if rng.random() < 0.3:  # an involution: the scales of a swap multiply to 1
                x, y = scales[0], scales[3]
                scales = [x, x.inverse(), rng.choice([ONE, MINUS_ONE]), y, y.inverse()]
            s = ExactMatrix(
                [[scales[k] if i == partner[k] else ZERO for k in range(5)] for i in range(5)]
            )
            g = p * s * p.inverse()
            assert self.agrees(a, g).reverses
            assert _square_difference(g, -1, _read_a(a)[0]) == dense_square_difference(
                g, MINUS_ONE
            )

    @pytest.mark.parametrize(
        "blocks",
        [
            [(G(1), 2)],
            [(G(1), 6), (G(-1), 4)],
            [(G(1), 2), (G(2), 2), (HALF, 2)],
            [(G(-1), 2), (I, 3), (-I, 3), (G(2), 1), (HALF, 1)],
        ],
    )
    def test_sl_witnesses_that_square_to_minus_identity_on_blocks(self, blocks):
        # reversible-only specs: g^2 is -I on the +-1 blocks of size 2 mod 4
        # and on the odd pairs, I elsewhere
        bundle = sl_reverser_witness(JordanSpec(blocks))
        assert bundle.report.reverses and not bundle.report.involution
        self.agrees(bundle.a, bundle.g)
        for a, g in [(bundle.a, bundle.g), _rescaled(bundle.a, bundle.g, random.Random(1))]:
            assert _square_difference(g, -1, _read_a(a)[0]) == dense_square_difference(
                g, MINUS_ONE
            )

    def test_diagonal_a_with_dense_g(self):
        # g commutes with a = a^-1, so it reverses a; every index of a
        # diagonal a starts a run, so every row of g^2 is computed
        rng = random.Random(3)
        a = ExactMatrix.diagonal([1, 1, 1, -1, -1])
        for _ in range(20):
            blocks = [
                ExactMatrix([[random_scalar(rng) for _ in range(k)] for _ in range(k)])
                for k in (3, 2)
            ]
            if not all(b.det() for b in blocks):
                continue
            signs = [
                ExactMatrix.diagonal([rng.choice([1, -1]) for _ in range(b.rows)]) for b in blocks
            ]
            for g in (
                direct_sum(blocks),
                direct_sum([b * s * b.inverse() for b, s in zip(blocks, signs)]),
            ):
                assert self.agrees(a, g).reverses

    def test_non_bidiagonal_a(self):
        # P a P^-1 and P g P^-1 for P = I + t E_ij, above and below the
        # diagonal: g still reverses a, but a is not upper bidiagonal
        rng = random.Random(5)
        spec = JordanSpec([(G(1), 2), (G(1), 2), (G(2), 2), (HALF, 2)])
        for a, g in _twisted_reversers(spec, rng):
            for i, j in [(1, 2), (2, 1), (0, 3), (4, 3), (7, 0)]:
                p = ExactMatrix.identity(spec.n)
                t = ExactMatrix([[random_nonzero_scalar(rng)]])
                e = ExactMatrix.from_blocks(spec.n, [(i, j, t)])
                p, pinv = p + e, p - e
                self.agrees(p * a * pinv, p * g * pinv)

    def test_non_bidiagonal_a_whose_run_ends_do_not_generate(self):
        # b = P a P^-1 for a = J(1,2) + J(1,1) + J(1,1) has superdiagonal
        # (1, 0, 1), so the runs would start at indices 0 and 2 and end at
        # indices 1 and 3 as for a bidiagonal matrix; but b is not
        # bidiagonal, and h^2 has identity columns at the run ends and
        # identity rows at the run starts without being the identity
        a = direct_sum([jordan_block(ONE, 2), ExactMatrix.identity(2)])
        g = direct_sum([jordan_reverser(ONE, 2), ExactMatrix([[1, 0], [HALF, 1]])])
        p = ExactMatrix([[1, 0, 0, 0], [0, 1, 0, -1], [1, 0, 1, 0], [0, 0, 0, 1]])
        pinv = p.inverse()
        b, h = p * a * pinv, p * g * pinv
        assert [b[i, i + 1] for i in range(3)] == [ONE, ZERO, ONE]
        square = h * h
        assert all(square[i, j] == (ONE if i == j else ZERO) for i in range(4) for j in (1, 3))
        assert all(square[i, j] == (ONE if i == j else ZERO) for i in (0, 2) for j in range(4))
        assert _read_a(b)[0] is None
        report = self.agrees(b, h)
        assert report.reverses and not report.involution

    def test_involutive_witness_is_not_squared_densely(self, monkeypatch):
        # the number of rows of each product of g with itself: the left
        # factor's rows and the right factor's _columns both start with row 0
        squares = []
        product = matrices_module._product

        def counting(a_re, a_im, b):
            if a_re[0] is g._re[0] and b[0][0][1] is g._re[0]:
                squares.append(len(a_re))
            return product(a_re, a_im, b)

        bundle = involutive_witness(JordanSpec([(G(1), 5), (G(-1), 3), (G(2), 2), (HALF, 2)]))
        g = bundle.g
        monkeypatch.setattr(matrices_module, "_product", counting)
        assert check_witness(bundle.a, g).all_good()
        assert squares == [4]  # one row per Jordan block
        # 2 g + I does not reverse a, and every row of its square is computed
        g = g.scale(2) + ExactMatrix.identity(12)
        assert not check_witness(bundle.a, g).reverses
        assert squares == [4, 12]

    def test_rows_are_scanned_for_columns_once_per_check(self, monkeypatch):
        # the nonzero columns of g's rows are found once and serve A G and
        # the rows of g^2; those of a Jordan a are read from its diagonals
        scanned = []
        columns = matrices_module._columns

        def counting(re, im):
            scanned.append(len(re))
            return columns(re, im)

        bundle = involutive_witness(JordanSpec([(G(1), 5), (G(-1), 3), (G(2), 2), (HALF, 2)]))
        sl_only = sl_reverser_witness(JordanSpec([(G(1), 6), (G(2), 2), (HALF, 2)]))
        monkeypatch.setattr(matrices_module, "_columns", counting)
        assert check_witness(bundle.a, bundle.g).all_good()
        assert scanned == [12]
        # a reverser with g^2 != I: its determinant is eliminated, not multiplied
        report = check_witness(sl_only.a, sl_only.g)
        assert report.reverses and not report.involution
        assert scanned == [12, 10]


def _sweep_reversers(max_n: int, pool):
    """(a, g) for every involutive reverser a sweep checks: the witness of
    each strongly reversible spec and iter_involutive_reversers of each
    reversible-only spec; and the --sl-only witness bundle of each
    reversible-only spec."""
    involutive, sl_only = [], []
    for spec in SpecGenerator(max_n, pool).specs():
        report = classify(spec)
        if report.strongly_reversible:
            bundle = involutive_witness(spec)
            involutive.append((bundle.a, bundle.g))
        elif report.reversible:
            a = jordan_matrix(spec)
            involutive += [(a, g) for g in iter_involutive_reversers(spec, report)]
            sl_only.append(sl_reverser_witness(spec))
    return involutive, sl_only


class TestCheckWitnessMatchesReference:
    """check_witness decides reversal first, reads det g from the trace of
    an involution and the nonsingularity of an upper bidiagonal a from its
    diagonal; every report must be that of the reference check, which
    eliminates for both determinants and squares g densely."""

    @pytest.fixture(scope="class")
    def reversers(self):
        return _sweep_reversers(5, MIXED_POOL)

    @staticmethod
    def same(a, g):
        report = check_witness(a, g)
        assert report == reference_check_witness(a, g)
        return report

    @staticmethod
    def conjugated(a, g, rng):
        """P a P^-1 and P g P^-1 for a random permutation P."""
        images = list(range(1, a.rows + 1))
        rng.shuffle(images)
        p = PermutationMap(images)
        return p.conjugate(a), p.conjugate(g)

    def test_sweep_reversers_and_their_conjugates(self, reversers):
        involutive, _ = reversers
        rng = random.Random(18)
        assert len(involutive) == 132
        bidiagonal = 0
        for a, g in involutive:
            report = self.same(a, g)
            assert report.reverses and report.involution
            b, h = self.conjugated(a, g, rng)
            bidiagonal += _read_a(b)[0] is not None
            assert self.same(b, h) == report
        # most conjugates are not upper bidiagonal, so a's determinant is eliminated
        assert bidiagonal < len(involutive) // 2

    def test_sl_only_witnesses_that_square_to_minus_identity(self, reversers):
        rng = random.Random(6)
        bundles = reversers[1] + [sl_reverser_witness(JordanSpec([(ONE, 6)]))]
        for bundle in bundles:
            assert _square_difference(bundle.g, -1) is None
            report = self.same(bundle.a, bundle.g)
            assert report.reverses and not report.involution and report.determinant == ONE
            self.same(*self.conjugated(bundle.a, bundle.g, rng))

    def test_copies_with_one_entry_changed(self, reversers):
        involutive, sl_only = reversers
        rng = random.Random(9)
        pairs = involutive + [(b.a, b.g) for b in sl_only]
        failed = {"reverses": 0, "involution": 0}
        for a, g in pairs:
            i, j = rng.randrange(g.rows), rng.randrange(g.cols)
            delta = rng.choice([ONE, MINUS_ONE, I, HALF])
            rows = [list(row) for row in g.entries]
            rows[i][j] = rows[i][j] + delta
            report = self.same(a, ExactMatrix(rows))
            failed["reverses"] += not report.reverses
            failed["involution"] += not report.involution
            rows = [list(row) for row in a.entries]
            rows[i][j] = rows[i][j] + delta
            changed = ExactMatrix(rows)
            try:
                self.same(changed, g)
            except SingularMatrixError:
                with pytest.raises(SingularMatrixError):
                    reference_check_witness(changed, g)
        assert failed["reverses"] >= 90 and failed["involution"] >= 100

    @pytest.mark.parametrize(
        "a, g",
        [
            (ExactMatrix.identity(2), ExactMatrix([[0, 1], [0, 0]])),
            (ExactMatrix.identity(2), ExactMatrix([[0, 0], [0, 0]])),
            (jordan_block(ONE, 2), ExactMatrix([[0, 1], [0, 0]])),
        ],
    )
    def test_singular_g_with_a_g_a_equal_to_g(self, a, g):
        assert a * g * a == g
        report = self.same(a, g)
        assert not report.reverses and report.determinant == ZERO
        assert report.residuals == (("reverses", None), ("involution", (1, 1)))


# Eigenvalues with a zero real part (i, -i, 3i/2 and its inverse -2i/3) and
# with a zero imaginary part (1, -1, 2, 1/2).
BIDIAGONAL_POOL = (ONE, MINUS_ONE, G(2), HALF, I, -I, G(0, Fraction(3, 2)), G(0, Fraction(-2, 3)))


class TestCheckWitnessAgainstInverseOracle:
    """check_witness on seeded upper bidiagonal a = D J D^-1, for a Jordan
    matrix J and a complex diagonal D, must decide reversal as the inverse
    identity g a g^-1 = a^-1 does and the involution as the dense square
    does.  The nonzero columns of such an a are read from its two diagonals,
    whose entries here may lack a real or an imaginary part, or be zero at a
    run break."""

    @staticmethod
    def agrees(a, g, counts):
        report = check_witness(a, g)
        reverses = bool(g.det()) and g * a * g.inverse() == a.inverse()
        assert report.reverses == reverses
        assert report.involution == (dense_square_difference(g) is None)
        counts[report.reverses, report.involution] += 1

    @staticmethod
    def covered(a, counts):
        entries = [(a[i, i], "diagonal") for i in range(a.rows)]
        entries += [(a[i, i + 1], "superdiagonal") for i in range(a.rows - 1)]
        for value, where in entries:
            re, im, _ = value.triple
            kind = "real" if not im else "imaginary" if not re else "complex"
            counts[where, kind if value else "zero"] += 1

    def test_seeded_bidiagonal_a(self):
        rng = random.Random(26)
        specs = [s for s in SpecGenerator(6, BIDIAGONAL_POOL).specs() if classify(s).reversible]
        counts, entries = Counter(), Counter()
        for spec in rng.sample(specs, 40):
            d = [random_nonzero_scalar(rng, 3, 3) for _ in range(spec.n)]
            dm, dinv = ExactMatrix.diagonal(d), ExactMatrix.diagonal([x.inverse() for x in d])
            a = dm * jordan_matrix(spec) * dinv
            self.covered(a, entries)
            reversers = list(itertools.islice(iter_involutive_reversers(spec, classify(spec)), 3))
            reversers.append(sl_reverser_witness(spec).g)
            for g0 in reversers:
                g = dm * g0 * dinv
                self.agrees(a, g, counts)
                # one entry changed
                i, j = rng.randrange(g.rows), rng.randrange(g.cols)
                rows = [list(row) for row in g.entries]
                rows[i][j] = rows[i][j] + rng.choice([ONE, MINUS_ONE, I, HALF])
                self.agrees(a, ExactMatrix(rows), counts)
                # conjugated by a polynomial in a, which commutes with a, and
                # by an elementary matrix, which in general does not
                p = _polynomial(a, [random_nonzero_scalar(rng, 3, 2), random_scalar(rng, 3, 2)])
                k, m = rng.sample(range(spec.n), 2) if spec.n > 1 else (0, 0)
                t = ExactMatrix([[random_nonzero_scalar(rng)]])
                e = ExactMatrix.identity(spec.n) + ExactMatrix.from_blocks(spec.n, [(k, m, t)])
                for h in (p, e):
                    if h.det():
                        self.agrees(a, h * g * h.inverse(), counts)
        assert entries["diagonal", "real"] and entries["diagonal", "imaginary"]
        assert entries["superdiagonal", "complex"] and entries["superdiagonal", "zero"]
        assert not entries["diagonal", "zero"]
        assert all(counts[key] >= 20 for key in itertools.product((True, False), repeat=2)), counts


class TestEliminations:
    """Which checks still run an elimination."""

    @pytest.fixture
    def eliminations(self, monkeypatch):
        calls = []
        eliminate, det = matrices_module._eliminate, ExactMatrix.det

        def counting_eliminate(*args):
            calls.append("eliminate")
            return eliminate(*args)

        def counting_det(self):
            calls.append("det")
            return det(self)

        monkeypatch.setattr(matrices_module, "_eliminate", counting_eliminate)
        monkeypatch.setattr(ExactMatrix, "det", counting_det)
        return calls

    def test_involution_on_a_bidiagonal_a_eliminates_nothing(self, eliminations):
        bundle = involutive_witness(JordanSpec([(G(1), 5), (G(-1), 3), (G(2), 2), (HALF, 2)]))
        eliminations.clear()
        assert check_witness(bundle.a, bundle.g).all_good()
        assert eliminations == []
        # a diagonal a is upper bidiagonal too
        report = check_witness(ExactMatrix.diagonal([1, -1]), ExactMatrix.diagonal([1, -1]))
        assert report.involution and report.determinant == MINUS_ONE
        assert eliminations == []

    def test_non_involution_and_non_bidiagonal_a_still_eliminate(self, eliminations):
        bundle = sl_reverser_witness(JordanSpec([(ONE, 6)]))
        eliminations.clear()
        # g^2 = -I: det g is eliminated, a's diagonal decides that a is invertible
        report = check_witness(bundle.a, bundle.g)
        assert report.reverses and not report.involution and report.determinant == ONE
        assert eliminations == ["det", "eliminate"]
        # the reversed order makes a lower bidiagonal: det a is eliminated,
        # det g still comes from the trace
        witness = involutive_witness(JordanSpec([(ONE, 3), (G(2), 2), (HALF, 2)]))
        p = PermutationMap(range(7, 0, -1))
        eliminations.clear()
        assert check_witness(p.conjugate(witness.a), p.conjugate(witness.g)).all_good()
        assert eliminations == ["det", "eliminate"]

    def test_singular_bidiagonal_a_raises_before_any_work_on_g(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("work beyond reading the diagonal of a")

        monkeypatch.setattr(matrices_module, "_eliminate", refuse)
        monkeypatch.setattr(matrices_module, "_columns", refuse)
        monkeypatch.setattr(matrices_module, "_product", refuse)
        monkeypatch.setattr(ExactMatrix, "__mul__", refuse)
        for a in (
            ExactMatrix([[1, 1, 0], [0, 0, 1], [0, 0, 2]]),
            ExactMatrix([[1, I, 0], [0, 2, 0], [0, 0, 0]]),
            ExactMatrix.diagonal([0, 1, 1]),
        ):
            for g in (ExactMatrix.identity(3), PermutationMap([3, 2, 1]).matrix()):
                with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
                    check_witness(a, g)


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

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_n": 7.9}, {"max_n": True}],
        ids=repr,
    )
    def test_rejects_non_integer_sizes(self, kwargs):
        args = {"max_n": 3, "pool": (ONE,), **kwargs}
        with pytest.raises(TypeError):
            SpecGenerator(**args)

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_n": 0}, {"max_n": -2}],
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

    @pytest.mark.parametrize("pool", [DEFAULT_POOL, MIXED_POOL], ids=["default", "mixed"])
    def test_exhaustive_yields_checked_canonical_specs_in_recursion_order(self, pool):
        specs = list(SpecGenerator(6, pool).specs())
        for spec in specs:
            assert spec == JordanSpec(spec.blocks)
        assert specs == _recursion_specs(6, pool)


def test_random_specs_are_deterministic():
    specs = list(verify_module._random_specs(6, DEFAULT_POOL, 5, 25))
    assert specs == list(verify_module._random_specs(6, DEFAULT_POOL, 5, 25))
    assert len(specs) == 25 and all(1 <= spec.n <= 6 for spec in specs)


def _recursion_specs(max_n, pool) -> list[JordanSpec]:
    """Every multiset of (eigenvalue, size) items with total size <= max_n,
    in the order of a depth-first recursion over the items in pool order,
    each spec built and sorted by the public constructor."""
    items = [(eig, size) for eig in pool for size in range(1, max_n + 1)]
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


def _scale_by_scale_reversers(spec, report) -> list[ExactMatrix]:
    """The involutive reverser family rebuilt for every choice of scales:
    scales[idx] * R(lam, d) for each block idx = (lam, d), placed at
    (idx, partner), over the +-1 signs of the singletons and the unit pairs
    (u, 1/u) of the pairs."""
    partner = {idx: idx for idx in report.singletons}
    for i, j in report.pairs:
        partner[i], partner[j] = j, i
    starts = [sum(size for _, size in spec.blocks[:idx]) for idx in range(len(spec.blocks))]
    scales = [ONE] * len(spec.blocks)
    out = []
    for signs in itertools.product((ONE, MINUS_ONE), repeat=len(report.singletons)):
        for idx, sign in zip(report.singletons, signs):
            scales[idx] = sign
        for combo in itertools.product((ONE, MINUS_ONE, I, -I), repeat=len(report.pairs)):
            for (i, j), u in zip(report.pairs, combo):
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
        family = list(iter_involutive_reversers(spec, report))
        assert family == _scale_by_scale_reversers(spec, report)
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
            assert sign_eigenvalue_strong_verdict(spec, ONE) == classify(spec).strongly_reversible

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

    @pytest.mark.parametrize(
        "spec, verdict",
        [(JordanSpec([(ONE, 1)]), True), (JordanSpec([(G(2), 1)]), None)],
        ids=["strongly-reversible", "not-reversible"],
    )
    def test_records_a_reversible_only_report_without_forced_minus(self, monkeypatch, spec, verdict):
        # a reversible-only verdict on a spec that general_strong_verdict,
        # reading no report field, finds strongly reversible or not reversible
        real = reversal_module.classify
        monkeypatch.setattr(
            reversal_module,
            "classify",
            lambda s: dataclasses.replace(real(s), reversible=True, strongly_reversible=False),
        )

        class Feed:
            def specs(self):
                return iter([spec])

        summary = classification_sweep(Feed())
        assert summary["reversible_only"] == 1
        assert summary["involutive_reversers_checked"] == 0
        assert summary["failures"] == [
            {"spec": spec.to_json_dict(), "problem": f"reversible-only verdict, general verdict {verdict}"}
        ]

    # Three reversible-only specs among two strongly reversible ones and one
    # that is not reversible; only those three reach the reverser loop.
    REVERSIBLE_ONLY = [
        JordanSpec([(ONE, 2)]),
        JordanSpec([(G(2), 1), (HALF, 1)]),
        JordanSpec([(MINUS_ONE, 2), (ONE, 4)]),
    ]
    MIXED_SPECS = REVERSIBLE_ONLY[:2] + [
        JordanSpec([(ONE, 1)]),
        JordanSpec([(G(2), 1)]),
        JordanSpec([(MINUS_ONE, 3)]),
        REVERSIBLE_ONLY[2],
    ]

    def _sweep_with_identities(self, monkeypatch):
        """The sweep over MIXED_SPECS with two identity matrices in place of
        each spec's involutive reversers."""

        def identities(spec, report, reversers):
            for _ in range(2):
                yield ExactMatrix.identity(spec.n)

        class Feed:
            def specs(self):
                return iter(TestClassificationSweep.MIXED_SPECS)

        monkeypatch.setattr(reversal_module, "_involutive_reversers", identities)
        summary = classification_sweep(Feed())
        tallies = {key: summary[key] for key in (
            "cases", "not_reversible", "strongly_reversible", "reversible_only",
            "witnesses_verified", "involutive_reversers_checked",
        )}
        # one reverser checked per reversible-only spec: the loop stops at the first failure
        assert tallies == {
            "cases": 6, "not_reversible": 1, "strongly_reversible": 2, "reversible_only": 3,
            "witnesses_verified": 2, "involutive_reversers_checked": 3,
        }
        return summary["failures"]

    def test_records_a_reverser_that_fails_basic_checks(self, monkeypatch):
        # the identity reverses no Jordan matrix other than an involution
        failures = self._sweep_with_identities(monkeypatch)
        assert failures == [
            {
                "spec": spec.to_json_dict(),
                "problem": "harness reverser failed basic checks",
                "report": check_witness(jordan_matrix(spec), ExactMatrix.identity(spec.n)).to_json_dict(),
            }
            for spec in self.REVERSIBLE_ONLY
        ]
        assert all(not f["report"]["reverses"] for f in failures)

    def test_shared_reading_of_a_skips_no_reverser(self, monkeypatch):
        # each spec's real first reverser passes; the identity after it is
        # checked against the same reading of a and must still fail
        real = reversal_module._involutive_reversers

        def first_then_identity(spec, report, reversers):
            yield next(real(spec, report, reversers))
            yield ExactMatrix.identity(spec.n)

        class Feed:
            def specs(self):
                return iter(TestClassificationSweep.MIXED_SPECS)

        monkeypatch.setattr(reversal_module, "_involutive_reversers", first_then_identity)
        summary = classification_sweep(Feed())
        assert summary["involutive_reversers_checked"] == 2 * len(self.REVERSIBLE_ONLY)
        assert summary["failures"] == [
            {
                "spec": spec.to_json_dict(),
                "problem": "harness reverser failed basic checks",
                "report": check_witness(jordan_matrix(spec), ExactMatrix.identity(spec.n)).to_json_dict(),
            }
            for spec in self.REVERSIBLE_ONLY
        ]

    def test_records_an_involutive_reverser_with_det_plus_one(self, monkeypatch):
        # Every involutive reverser of a reversible-only Jordan matrix has
        # det -1, so the sweep checks the identity against the identity.
        monkeypatch.setattr(verify_module, "jordan_matrix", lambda spec: ExactMatrix.identity(spec.n))
        failures = self._sweep_with_identities(monkeypatch)
        assert failures == [
            {"spec": spec.to_json_dict(), "problem": "involutive reverser with det 1"}
            for spec in self.REVERSIBLE_ONLY
        ]


class TestClassCounts:
    @pytest.mark.parametrize("pool", [DEFAULT_POOL, MIXED_POOL], ids=["default", "mixed"])
    def test_matches_generating_function_oracle(self, pool):
        for n in range(1, 41):
            assert verify_module.class_counts(n, pool) == class_counts(n, pool)

    def test_reversible_only_counts(self):
        # reversible-only specs occur only at n = 2 mod 4, so n = 11 and 12 add none
        counts = [verify_module.class_counts(n, DEFAULT_POOL)["reversible_only"] for n in (10, 12, 14)]
        assert counts == [296, 296, 1536]

    @pytest.mark.parametrize("max_n", [7.9, True], ids=repr)
    def test_rejects_non_integer_max_n(self, max_n):
        with pytest.raises(TypeError):
            verify_module.class_counts(max_n, DEFAULT_POOL)

    @pytest.mark.parametrize("max_n", [0, -2])
    def test_rejects_max_n_below_one(self, max_n):
        with pytest.raises(ValueError, match="must be at least 1"):
            verify_module.class_counts(max_n, DEFAULT_POOL)

    @pytest.mark.parametrize(
        "pool",
        [[ONE, ONE], [G(2), HALF, G(2) / 4], [HALF, G(1) / 2, MINUS_ONE]],
        ids=["one-twice", "half-twice", "half-twice-unit"],
    )
    def test_rejects_repeated_pool_value(self, pool):
        with pytest.raises(ValueError, match="distinct"):
            verify_module.class_counts(3, pool)

    def test_rejects_zero_in_pool(self):
        with pytest.raises(ValueError, match="nonzero"):
            verify_module.class_counts(2, [ONE, ZERO])

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

    def test_records_a_sample_that_does_not_reverse(self, monkeypatch):
        # With the identity as the fixed reverser a sample is a centralizer
        # element T, and weyr T weyr = T weyr^2 differs from T.
        monkeypatch.setattr(
            reversal_module, "blocked_jordan_reverser", lambda eig, sizes: ExactMatrix.identity(sum(sizes))
        )
        summary = homogeneous_det_check(2, 1, trials=3, seed=5)
        assert summary["cases"] == 3
        assert summary["failures"] == [{"k": 2, "m": 1, "problem": "sample does not reverse the Weyr form"}] * 3

    @pytest.mark.parametrize(
        "k, m, problem",
        [(1, 1, "det -4, expected -1"), (2, 1, "det 16, expected 1"), (1, 2, "det 16, expected 1")],
    )
    def test_records_a_determinant_off_the_law(self, monkeypatch, k, m, problem):
        # 2I in place of the top-left involution: every sample still reverses
        # the Weyr form, and its determinant is det(2I)^(2m) = 2^(2mk) times
        # the law's (-1)^(mk), which the fixed reverser carries alone.
        monkeypatch.setattr(verify_module, "_random_involution", lambda n, rng: ExactMatrix.diagonal([2] * n))
        summary = homogeneous_det_check(k, m, trials=3, seed=6)
        assert summary["cases"] == 3
        assert summary["failures"] == [{"k": k, "m": m, "problem": problem}] * 3


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
        assert sign_eigenvalue_strong_verdict(JordanSpec([(ONE, 2)] * 3), ONE) is False
        assert sign_eigenvalue_strong_verdict(JordanSpec([(ONE, 2)] * 2), ONE) is True
        assert sign_eigenvalue_strong_verdict(JordanSpec([(ONE, 3)]), ONE) is True
        assert sign_eigenvalue_strong_verdict(JordanSpec([(MINUS_ONE, 2)]), ONE) is None

    def test_negative_one_examples(self):
        assert sign_eigenvalue_strong_verdict(JordanSpec([(MINUS_ONE, 3)]), MINUS_ONE) is True
        assert sign_eigenvalue_strong_verdict(JordanSpec([(MINUS_ONE, 2)]), MINUS_ONE) is False
        assert sign_eigenvalue_strong_verdict(JordanSpec([(ONE, 2)]), MINUS_ONE) is None

    def test_single_pair_examples(self):
        assert single_pair_strong_verdict(JordanSpec([(G(2), 2), (HALF, 2)])) is True
        assert single_pair_strong_verdict(JordanSpec([(G(2), 1), (HALF, 1)])) is False
        assert single_pair_strong_verdict(JordanSpec([(G(2), 1), (HALF, 2)])) is None
        assert single_pair_strong_verdict(JordanSpec([(ONE, 1), (G(2), 1)])) is None


class TestGeneralVerdict:
    @pytest.mark.parametrize(
        "max_n, pool", [(8, DEFAULT_POOL), (7, MIXED_POOL)], ids=["default", "mixed"]
    )
    def test_n_mod_4_corollary(self, max_n, pool):
        # With every +-1 block even, p + q = 2k (mod 4) for the k parts that
        # are 2 mod 4, so 2 * parity_value = 2k + (n - p - q) = n (mod 4).
        checked = 0
        for spec in SpecGenerator(max_n, pool).specs():
            report = classify(spec)
            if report.reversible and not report.odd_block_present:
                checked += 1
                assert spec.n % 4 in (0, 2)
                assert report.parity_value % 2 == (spec.n // 2) % 2
        assert checked > 0

    def test_reads_no_classifier_output(self, monkeypatch):
        specs = list(SpecGenerator(6, MIXED_POOL).specs())
        expected = [
            report.strongly_reversible if report.reversible else None
            for report in map(classify, specs)
        ]

        def refuse(spec):
            raise AssertionError("general_strong_verdict called the classifier")

        monkeypatch.setattr(reversal_module, "classify", refuse)
        assert [general_strong_verdict(spec) for spec in specs] == expected
        assert general_strong_verdict(JordanSpec([(ONE, 2), (MINUS_ONE, 4)])) is False
        assert general_strong_verdict(JordanSpec([(ONE, 2), (G(2), 1), (HALF, 1)])) is True
        assert general_strong_verdict(JordanSpec([(G(2), 1), (HALF, 2)])) is None

    def test_catches_a_flip_outside_the_special_families(self, monkeypatch):
        # J(1,2) + J(2,1) + J(1/2,1) is neither semisimple nor supported on
        # one eigenvalue or one pair, so only the general verdict sees it.
        target = JordanSpec([(ONE, 2), (G(2), 1), (HALF, 1)])
        real = reversal_module.classify

        def flipped(spec):
            report = real(spec)
            if spec == target:
                return dataclasses.replace(report, strongly_reversible=not report.strongly_reversible)
            return report

        monkeypatch.setattr(reversal_module, "classify", flipped)
        assert cross_path_check(max_n=4)["failures"] == [
            {
                "spec": target.to_json_dict(),
                "path": "general",
                "problem": "general verdict True vs classifier False",
            }
        ]


class TestCrossChecks:
    def test_cross_path_small(self):
        # every one of the 25 753 specs against the general verdict, plus
        # 3 002 semisimple specs, 66 unipotent, 66 with eigenvalue -1 only
        # and 602 supported on {2, 1/2} or {i, -i}
        summary = cross_path_check(max_n=8)
        assert summary["failures"] == [] and summary["cases"] == 29489


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
    witness = report.failure_witness
    return {
        "reversible": report.reversible,
        "strongly_reversible": report.strongly_reversible,
        "p": sum(report.plus_sizes),
        "q": sum(report.minus_sizes),
        "plus": list(Partition(report.plus_sizes).parts),
        "minus": list(Partition(report.minus_sizes).parts),
        "odd": report.odd_block_present,
        "parity_value": report.parity_value,
        "parity_even": report.parity_even,
        "pairs": [list(pair) for pair in report.pairs],
        "singletons": list(report.singletons),
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


def test_sweep_summary_is_pinned():
    # Measured before the sweep shared one reverser table between its specs;
    # a table that skipped or merged a reverser would move a count.
    assert classification_sweep(SpecGenerator(7, DEFAULT_POOL)) == {
        "name": "classification_sweep",
        "cases": 10228,
        "failures": [],
        "not_reversible": 9712,
        "strongly_reversible": 472,
        "reversible_only": 44,
        "witnesses_verified": 472,
        "involutive_reversers_checked": 744,
    }


def test_sweep_builds_each_block_reverser_once(monkeypatch):
    built = Counter()
    real = reversal_module.jordan_reverser

    def counting(eigenvalue, n):
        built[eigenvalue.triple, n] += 1
        return real(eigenvalue, n)

    monkeypatch.setattr(reversal_module, "jordan_reverser", counting)
    gen = SpecGenerator(6, MIXED_POOL)
    assert classification_sweep(gen)["failures"] == []
    blocks = {
        (eig.triple, size)
        for spec in gen.specs() if classify(spec).reversible
        for eig, size in spec.blocks
    }
    assert built == Counter(dict.fromkeys(blocks, 1))


def _record_assemblies(monkeypatch) -> list:
    """The spec of every later assemble_block_reverser call, in order."""
    calls = []
    real = reversal_module.assemble_block_reverser

    def recording(spec, report, blocks):
        calls.append(spec)
        return real(spec, report, blocks)

    monkeypatch.setattr(reversal_module, "assemble_block_reverser", recording)
    return calls


def test_sweep_assembles_every_reverser_through_the_one_assembler(monkeypatch):
    calls = _record_assemblies(monkeypatch)
    summary = classification_sweep(SpecGenerator(7, DEFAULT_POOL))
    assert summary["failures"] == []
    checked = summary["witnesses_verified"] + summary["involutive_reversers_checked"]
    assert len(calls) == checked == 472 + 744


@pytest.mark.parametrize(
    "construct, spec",
    [
        (involutive_witness, JordanSpec([(ONE, 3), (G(2), 2), (HALF, 2)])),
        (sl_reverser_witness, JordanSpec([(ONE, 3), (G(2), 2), (HALF, 2)])),
        (sl_reverser_witness, JordanSpec([(ONE, 2), (G(2), 1), (HALF, 1)])),
    ],
    ids=["involutive", "sl-strong", "sl-reversible-only"],
)
def test_witness_constructors_assemble_once(monkeypatch, construct, spec):
    calls = _record_assemblies(monkeypatch)
    construct(spec)
    assert calls == [spec]


@pytest.mark.parametrize("pool", [DEFAULT_POOL, MIXED_POOL], ids=["default", "mixed"])
def test_sweep_checks_the_involutive_witness(monkeypatch, pool):
    """The g the sweep checks for each strongly reversible spec, from its
    shared table, is the g of involutive_witness(spec)."""
    swept = []
    real = reversal_module.check_witness

    def recording(a, g):
        swept.append(g)
        return real(a, g)

    monkeypatch.setattr(reversal_module, "check_witness", recording)
    gen = SpecGenerator(6, pool)
    summary = classification_sweep(gen)
    monkeypatch.undo()
    assert summary["failures"] == []
    expected = [involutive_witness(spec).g for spec in gen.specs() if classify(spec).strongly_reversible]
    assert len(expected) == summary["witnesses_verified"] > 0
    assert swept == expected


def test_rejected_witness_raises_and_the_sweep_records_it(monkeypatch):
    """A constructed witness that check_witness rejects never reaches a
    caller: both constructors raise, and the sweep records the raise as a
    failure of its spec instead of counting a verified witness.  The message
    names the spec."""
    real = reversal_module.check_witness

    def rejecting(a, g):
        return dataclasses.replace(real(a, g), reverses=False)

    monkeypatch.setattr(reversal_module, "check_witness", rejecting)
    message = "internal error: constructed witness failed verification"
    strong, reversible_only = JordanSpec([(ONE, 3)]), JordanSpec([(ONE, 2)])
    for construct, spec in (
        (involutive_witness, strong),
        (sl_reverser_witness, strong),
        (sl_reverser_witness, reversible_only),
    ):
        with pytest.raises(RuntimeError, match=message) as raised:
            construct(spec)
        assert str(raised.value).endswith(f" for {spec!r}")

    gen = SpecGenerator(4, (ONE, MINUS_ONE, G(2), HALF))
    strong_specs = [s for s in gen.specs() if classify(s).strongly_reversible]
    summary = classification_sweep(gen)
    assert summary["strongly_reversible"] == len(strong_specs) > 0
    assert summary["witnesses_verified"] == 0
    assert [f["spec"] for f in summary["failures"]] == [s.to_json_dict() for s in strong_specs]
    for failure, spec in zip(summary["failures"], strong_specs):
        assert failure["problem"].startswith(f"RuntimeError('{message}")
        assert repr(spec) in failure["problem"]


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
