import random
from fractions import Fraction

import pytest

from oracles import laplace_det
from strongrev.canonical import jordan_block
from strongrev.matrices import (
    ExactMatrix,
    PermutationMap,
    SingularMatrixError,
    direct_sum,
)
from strongrev.reversal import jordan_reverser
from strongrev.scalars import GaussianRational, MINUS_ONE, ONE, ZERO

G = GaussianRational


def random_matrix(rng, rows, cols):
    return ExactMatrix(
        [[G(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)]
    )


def random_invertible(rng, n):
    while True:
        m = random_matrix(rng, n, n)
        if m.det():
            return m


class TestMultiplication:
    def test_identity_acts_trivially(self):
        rng = random.Random(0)
        m = random_matrix(rng, 3, 3)
        assert ExactMatrix.identity(3) * m == m

    def test_jordan_block_square(self):
        j = jordan_block(G(1), 2)
        assert j * j == ExactMatrix([[1, 2], [0, 1]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            random_matrix(random.Random(0), 2, 3) * random_matrix(random.Random(1), 2, 3)

    def test_scalar_multiple(self):
        m = ExactMatrix([[1, 2], [3, 4]])
        assert 2 * m == ExactMatrix([[2, 4], [6, 8]])
        assert G(0, 1) * m == ExactMatrix([[G(0, 1), G(0, 2)], [G(0, 3), G(0, 4)]])


class TestInverse:
    def test_jordan_block_inverse_closed_form(self):
        # entry (i, j) of J(lam, 4)^-1 is (-1)^(j-i) lam^-(j-i+1) for j >= i
        lam = G(Fraction(3, 2), Fraction(1, 2))
        expected = ExactMatrix(
            [
                [
                    (MINUS_ONE ** (j - i)) * lam ** (-(j - i + 1)) if j >= i else ZERO
                    for j in range(4)
                ]
                for i in range(4)
            ]
        )
        assert jordan_block(lam, 4).inverse() == expected

    def test_identity(self):
        assert ExactMatrix.identity(5).inverse() == ExactMatrix.identity(5)

    def test_diagonal(self):
        m = ExactMatrix.diagonal([G(2), G(Fraction(1, 2))])
        assert m.inverse() == ExactMatrix.diagonal([G(Fraction(1, 2)), G(2)])

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            ExactMatrix([[1, 2], [2, 4]]).inverse()

    def test_random_inverse_law(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randint(1, 8)
            m = random_invertible(rng, n)
            assert (m * m.inverse()).is_identity()
            assert (m.inverse() * m).is_identity()


class TestDeterminant:
    def test_base_reverser_det_matches_cofactor_oracle(self):
        # hardcoded display of the size-4 reverser at eigenvalue 1
        display = ExactMatrix([[-1, -2, -1, 0], [0, 1, 1, 0], [0, 0, -1, 0], [0, 0, 0, 1]])
        assert laplace_det(display) == ONE  # frozen from the oracle
        assert jordan_reverser(G(1), 4) == display
        assert display.det() == ONE

    def test_antidiagonal_identity_blocks(self):
        for n in range(1, 6):
            grid = [[ZERO] * (2 * n) for _ in range(2 * n)]
            for i in range(n):
                grid[i][n + i] = ONE
                grid[n + i][i] = ONE
            m = ExactMatrix(grid)
            assert m.det() == (MINUS_ONE**n)

    def test_identity(self):
        assert ExactMatrix.identity(7).det() == ONE

    def test_multiplicative_and_matches_oracle(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(1, 5)
            a = random_matrix(rng, n, n)
            b = random_matrix(rng, n, n)
            assert (a * b).det() == a.det() * b.det()
            assert a.det() == laplace_det(a)


class TestDirectSum:
    def test_three_unipotent_blocks(self):
        j = jordan_block(G(1), 2)
        expected = ExactMatrix(
            [
                [1, 1, 0, 0, 0, 0],
                [0, 1, 0, 0, 0, 0],
                [0, 0, 1, 1, 0, 0],
                [0, 0, 0, 1, 0, 0],
                [0, 0, 0, 0, 1, 1],
                [0, 0, 0, 0, 0, 1],
            ]
        )
        assert direct_sum([j, j, j]) == expected

    def test_single_block(self):
        m = ExactMatrix([[1, 2], [3, 4]])
        assert direct_sum([m]) == m

    def test_two_scalars(self):
        assert direct_sum([ExactMatrix([[G(2)]]), ExactMatrix([[G(3)]])]) == ExactMatrix.diagonal(
            [G(2), G(3)]
        )

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            direct_sum([ExactMatrix([[1, 2]])])


class TestPermutationMap:
    def test_identity_fixes_everything(self):
        rng = random.Random(2)
        m = random_matrix(rng, 4, 4)
        assert PermutationMap.identity(4).conjugate(m) == m

    def test_swap_on_diagonal(self):
        m = ExactMatrix.diagonal([G(5), G(7)])
        swap = PermutationMap([2, 1])
        assert swap.conjugate(m) == ExactMatrix.diagonal([G(7), G(5)])

    def test_conjugation_matches_matrix_product(self):
        rng = random.Random(4)
        for _ in range(25):
            n = rng.randint(1, 6)
            images = list(range(1, n + 1))
            rng.shuffle(images)
            perm = PermutationMap(images)
            m = random_matrix(rng, n, n)
            p = perm.matrix()
            assert perm.conjugate(m) == p * m * p.inverse()

    def test_det_is_sign(self):
        rng = random.Random(9)
        for _ in range(50):
            n = rng.randint(1, 8)
            images = list(range(1, n + 1))
            rng.shuffle(images)
            perm = PermutationMap(images)
            assert perm.matrix().det() == G(perm.sign())

    def test_inverse(self):
        perm = PermutationMap([3, 1, 2])
        assert perm.inverse().images == (2, 3, 1)
        assert (perm.matrix() * perm.inverse().matrix()).is_identity()

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            PermutationMap([1, 1, 3])


class TestJson:
    def test_round_trip(self):
        rng = random.Random(8)
        m = random_matrix(rng, 3, 5)
        assert ExactMatrix.from_json_dict(m.to_json_dict()) == m

    def test_schema(self):
        m = ExactMatrix([[G(Fraction(1, 2), Fraction(3, 4)), G(0, -1)]])
        assert m.to_json_dict() == {
            "rows": 1,
            "cols": 2,
            "entries": [["1/2+3/4i", "-i"]],
        }

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ExactMatrix.from_json_dict({"rows": 2, "cols": 1, "entries": [["1"]]})


class TestImmutability:
    def test_setattr_blocked(self):
        m = ExactMatrix.identity(2)
        with pytest.raises(AttributeError):
            m.rows = 3

    def test_operations_do_not_mutate(self):
        m = ExactMatrix([[1, 2], [3, 4]])
        before = m.to_json_dict()
        m.inverse()
        m.det()
        m * m
        -m
        assert m.to_json_dict() == before


class TestRowViews:
    def test_entries_and_rows_are_tuples(self):
        m = ExactMatrix([[1, 2], [3, G(0, 1)]])
        assert type(m.entries) is tuple
        assert all(type(row) is tuple for row in m.entries)
        assert type(m.row(1)) is tuple and m.row(1) == (G(3), G(0, 1))

    def test_nothing_reached_through_them_changes_the_matrix(self):
        grid = [[1, 2], [3, 4]]
        m = ExactMatrix(grid)
        before = ExactMatrix([[1, 2], [3, 4]])
        grid[0][0] = 9
        grid.append([5, 6])
        with pytest.raises(TypeError):
            m.entries[0] = (G(9), G(9))
        with pytest.raises(TypeError):
            m.row(0)[0] = G(9)
        rows = [list(row) for row in m.entries]
        rows[1][1] = G(9)
        assert m == before and hash(m) == hash(before)
        assert m.entries == ((G(1), G(2)), (G(3), G(4)))
