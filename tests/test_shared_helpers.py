"""The helpers each concept is built from exactly once: scalar coercion,
size checking, block offsets, block placement and block inflation."""

import random
from fractions import Fraction

import pytest

from strongrev.canonical import JordanSpec, WeyrStructure
from strongrev.matrices import ExactMatrix, PermutationMap, inflate, offsets
from strongrev.partitions import Partition
from strongrev.reversal import jordan_reverser, upper_toeplitz
from strongrev.scalars import GaussianRational, I, ONE, ZERO, as_scalar
from strongrev.verify import SpecGenerator

G = GaussianRational

SCALAR_TAKERS = {
    "GaussianRational": lambda v: G(v),
    "JordanSpec": lambda v: JordanSpec([(v, 1)]),
    "jordan_reverser": lambda v: jordan_reverser(v, 2),
    "upper_toeplitz": lambda v: upper_toeplitz([ONE, v]),
    "ExactMatrix": lambda v: ExactMatrix([[v]]),
    "SpecGenerator pool": lambda v: SpecGenerator(2, [ONE, v]),
}


class TestAsScalar:
    def test_exact_values_are_accepted(self):
        assert as_scalar(I) is I
        assert as_scalar(2) == G(2)
        assert as_scalar(Fraction(1, 2)) == G(Fraction(1, 2))

    @pytest.mark.parametrize("value", ["2", 0.5, None], ids=["text", "float", "none"])
    @pytest.mark.parametrize("taker", sorted(SCALAR_TAKERS))
    def test_inexact_values_are_rejected(self, taker, value):
        with pytest.raises(TypeError):
            SCALAR_TAKERS[taker](value)

    def test_arithmetic_with_text_raises(self):
        with pytest.raises(TypeError):
            G(1) + "x"
        with pytest.raises(TypeError):
            "x" * G(1)
        assert (G(1) == "1") is False


SIZE_TAKERS = {
    "JordanSpec": lambda v: JordanSpec([(ONE, v)]),
    "Partition": lambda v: Partition([v, 1]),
    "WeyrStructure": lambda v: WeyrStructure(ONE, (v, 1)),
    "PermutationMap": lambda v: PermutationMap([v, 1]),
}


class TestSizes:
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2", Fraction(2)], ids=repr)
    @pytest.mark.parametrize("taker", sorted(SIZE_TAKERS))
    def test_non_integers_are_rejected(self, taker, value):
        with pytest.raises(TypeError):
            SIZE_TAKERS[taker](value)


class TestOffsets:
    def test_starts(self):
        assert offsets([3, 1, 2]) == (0, 3, 4)
        assert offsets([]) == ()


class TestFromBlocks:
    def test_off_diagonal_rectangular_placements(self):
        wide = ExactMatrix([[1, 2, 3]])
        tall = ExactMatrix([[I], [-I]])
        m = ExactMatrix.from_blocks(4, [(0, 1, wide), (2, 0, tall)])
        assert m == ExactMatrix(
            [
                [0, 1, 2, 3],
                [0, 0, 0, 0],
                [I, 0, 0, 0],
                [-I, 0, 0, 0],
            ]
        )

    def test_block_must_fit(self):
        with pytest.raises(ValueError):
            ExactMatrix.from_blocks(2, [(2, 0, ExactMatrix([[1, 2]]))])
        with pytest.raises(ValueError):
            ExactMatrix.from_blocks(2, [(0, 1, ExactMatrix([[1, 2]]))])

    @pytest.mark.parametrize("seed", range(40))
    def test_fields_equal_the_entrywise_constructor(self, seed):
        # Blocks over denominators 1, 2 and 3 (and so 6), some of them
        # sharing rows, some zero; the result is built without normalizing
        # and must have the fields of the same matrix built entry by entry.
        rng = random.Random(seed)
        sizes = [rng.randint(1, 3) for _ in range(3)]
        starts, n = offsets(sizes), sum(sizes)
        grid = [[ZERO] * n for _ in range(n)]
        placements = []
        for bi, bj in rng.sample([(i, j) for i in range(3) for j in range(3)], rng.randint(1, 5)):
            den = rng.choice((1, 2, 3))
            block = [
                [G(Fraction(rng.randint(-4, 4), den), Fraction(rng.randint(-1, 1) * den, den))
                 for _ in range(sizes[bj])]
                for _ in range(sizes[bi])
            ]
            placements.append((starts[bi], starts[bj], ExactMatrix(block)))
            for r, row in enumerate(block):
                grid[starts[bi] + r][starts[bj]:starts[bj] + sizes[bj]] = row
        m, expected = ExactMatrix.from_blocks(n, placements), ExactMatrix(grid)
        assert (m.rows, m.cols, m._re, m._im, m._d) == (
            expected.rows, expected.cols, expected._re, expected._im, expected._d
        )

    def test_block_over_a_nonzero_entry_is_refused(self):
        one, half = ExactMatrix([[1, 0], [0, 1]]), ExactMatrix([[G(Fraction(1, 2))]])
        assert ExactMatrix.from_blocks(2, [(0, 0, one), (0, 1, ExactMatrix([[0]]))]) == one
        assert ExactMatrix.from_blocks(2, [(0, 1, half), (0, 0, half)]) == ExactMatrix(
            [[G(Fraction(1, 2)), G(Fraction(1, 2))], [0, 0]]
        )
        with pytest.raises(ValueError, match="overlaps"):
            ExactMatrix.from_blocks(2, [(0, 0, one), (1, 1, half)])


class TestInflate:
    def test_rectangular_identity_blocks(self):
        coeffs = ExactMatrix([[2, 3], [0, 5]])
        assert inflate(coeffs, (2, 1)) == ExactMatrix(
            [
                [2, 0, 3],
                [0, 2, 0],
                [0, 0, 5],
            ]
        )

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            inflate(ExactMatrix([[ZERO]]), (1, 1))
