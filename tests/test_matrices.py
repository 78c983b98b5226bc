import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import laplace_det
from strongrev import matrices
from strongrev.canonical import JordanSpec, jordan_block, jordan_matrix
from strongrev.matrices import (
    ExactMatrix,
    PermutationMap,
    SingularMatrixError,
    _columns,
    _eliminate,
    _read_a,
    direct_sum,
    inflate,
    offsets,
)
from strongrev.reversal import jordan_reverser, jordan_reverser_recurrence
from strongrev.scalars import GaussianRational, MINUS_ONE, ONE, ZERO, parse

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


class TestIsIdentity:
    def test_identity_fields(self):
        for n in (1, 2, 5):
            eye = ExactMatrix.identity(n)
            assert eye == ExactMatrix([[int(i == j) for j in range(n)] for i in range(n)])
            assert eye.is_identity()

    def test_one_by_one(self):
        assert ExactMatrix([[1]]).is_identity()
        for value in (-1, 2, G(0, 1), G(Fraction(1, 2)), 0):
            assert not ExactMatrix([[value]]).is_identity()

    def test_non_square_is_not_identity(self):
        assert not ExactMatrix([[1, 0]]).is_identity()
        assert not ExactMatrix([[1], [0]]).is_identity()
        assert not ExactMatrix([[1, 0, 0], [0, 1, 0]]).is_identity()

    def test_normalized_numerators(self):
        # 2I/2 is stored as I; a matrix over a denominator is not
        assert ExactMatrix.from_numerators([[2, 0], [0, 2]], [[0, 0], [0, 0]], 2).is_identity()
        half = G(Fraction(1, 2))
        assert not ExactMatrix([[1, half], [0, 1]]).is_identity()
        assert not ExactMatrix([[1, 0], [0, half]]).is_identity()

    def test_misses_in_every_position(self):
        for i, j in itertools.product(range(3), repeat=2):
            for value in (G(0, 1), G(Fraction(1, 3)), G(1, 1)):
                rows = [[int(r == c) for c in range(3)] for r in range(3)]
                rows[i][j] = value if i != j else rows[i][j] + value
                assert not ExactMatrix(rows).is_identity()


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


def reference_reading(a):
    """_read_a restated: the run starts read entry by entry from the
    superdiagonal, or None when a nonzero lies off the diagonal and
    superdiagonal, and the columns that _columns finds in a's rows."""
    n, entries = a.rows, a.entries
    if any(entries[i][j] for i in range(n) for j in range(n) if j not in (i, i + 1)):
        return None, _columns(a._re, a._im)
    return [0] + [j for j in range(1, n) if not entries[j - 1][j]], _columns(a._re, a._im)


class TestRunStarts:
    """The run starts of _read_a: the first index of each run of nonzero
    superdiagonal entries of an upper bidiagonal matrix, None for any other
    matrix."""

    def test_diagonal_starts_everywhere(self):
        assert _read_a(ExactMatrix.diagonal([1, -1, 2, G(0, 1)]))[0] == [0, 1, 2, 3]

    def test_jordan_blocks(self):
        blocks = [(G(1), 3), (G(2), 2), (G(Fraction(1, 2)), 2)]
        a = direct_sum([jordan_block(lam, size) for lam, size in blocks])
        assert _read_a(a)[0] == [0, 3, 5]
        # the canonical order puts 1/2 first
        assert _read_a(jordan_matrix(JordanSpec(blocks)))[0] == [0, 2, 5]

    def test_zero_superdiagonal_entry_splits_a_block(self):
        rows = [list(row) for row in jordan_block(G(3), 5).entries]
        rows[1][2] = ZERO
        assert _read_a(ExactMatrix(rows))[0] == [0, 2]
        rows[0][1] = G(0, 2)  # a non-unit superdiagonal still joins
        assert _read_a(ExactMatrix(rows))[0] == [0, 2]

    def test_not_upper_bidiagonal(self):
        lower = ExactMatrix([[1, 0, 0], [1, 1, 0], [0, 1, 1]])
        assert _read_a(lower)[0] is None
        assert _read_a(ExactMatrix([[1, 1, 1], [0, 1, 1], [0, 0, 1]]))[0] is None
        assert _read_a(random_matrix(random.Random(4), 4, 4))[0] is None
        # only an upper bidiagonal matrix is read for singularity: a zero on
        # the diagonal of any other matrix is left to its determinant
        assert _read_a(ExactMatrix([[0, 1, 1], [0, 1, 0], [1, 0, 1]]))[0] is None
        with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
            _read_a(ExactMatrix([[0, 1, 1], [0, 1, 0], [0, 0, 1]]))

    def test_zero_diagonal_entry_is_singular(self):
        for rows in ([[0]], [[1, 1, 0], [0, 0, 1], [0, 0, 1]], [[1, 0], [0, 0]]):
            with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
                _read_a(ExactMatrix(rows))


class TestReadA:
    """_read_a against reference_reading: the run starts and the columns of
    a's numerators, from one scan of a's rows."""

    @pytest.mark.parametrize(
        "a",
        [
            ExactMatrix.diagonal([1, -1, 2, G(0, 1)]),
            ExactMatrix.diagonal([G(Fraction(1, 2)), G(0, -1), 3]),
            ExactMatrix.diagonal([1, 2, -1]),
            jordan_matrix(JordanSpec([(ONE, 3), (MINUS_ONE, 2), (ONE, 1)])),
            jordan_matrix(JordanSpec([(G(0, 1), 2), (G(0, -1), 2), (ONE, 1)])),
            jordan_matrix(JordanSpec([(G(2), 3), (G(Fraction(1, 2)), 3), (MINUS_ONE, 2)])),
            jordan_matrix(JordanSpec([(G(0, Fraction(3, 2)), 2), (G(0, Fraction(-2, 3)), 2)])),
            ExactMatrix([[2, G(0, 3), 0], [0, 2, 0], [0, 0, G(1, 1)]]),  # imaginary superdiagonal
            ExactMatrix([[G(0, 1), 0, 0], [0, G(0, 1), 1], [0, 0, G(0, 1)]]),  # zero inside
        ],
        ids=[
            "diagonal-1-i", "diagonal-half-minus-i", "diagonal-real", "jordan-plus-minus-one",
            "jordan-i-pair", "jordan-2-half", "jordan-3i-half", "imaginary-superdiagonal",
            "zero-superdiagonal-inside",
        ],
    )
    def test_bidiagonal_matches_reference(self, a, monkeypatch):
        def refuse(self):
            raise AssertionError("an upper bidiagonal a is read from its diagonals")

        monkeypatch.setattr(ExactMatrix, "det", refuse)
        assert _read_a(a) == reference_reading(a)
        assert _read_a(a)[0] is not None

    def test_off_band_entry_has_no_starts_and_checks_the_determinant(self, monkeypatch):
        dets = []
        det = ExactMatrix.det

        def counting(self):
            dets.append(self)
            return det(self)

        monkeypatch.setattr(ExactMatrix, "det", counting)
        for i, j in [(1, 0), (0, 2), (3, 1)]:
            rows = [list(row) for row in jordan_matrix(JordanSpec([(G(0, 1), 2), (G(2), 2)])).entries]
            rows[i][j] = G(1, -1)
            a = ExactMatrix(rows)
            dets.clear()
            assert _read_a(a) == reference_reading(a)
            assert _read_a(a)[0] is None and dets == [a, a]

    @given(
        st.lists(
            st.tuples(st.sampled_from([ONE, MINUS_ONE, G(0, 1), G(0, -1), G(2), G(Fraction(1, 2))]),
                      st.sampled_from([ZERO, ONE, G(0, 2), G(Fraction(-1, 3), 1)])),
            min_size=1,
            max_size=7,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_any_band_matches_reference(self, band):
        n = len(band)
        a = ExactMatrix(
            [
                [band[i][0] if j == i else band[i][1] if j == i + 1 else ZERO for j in range(n)]
                for i in range(n)
            ]
        )
        assert _read_a(a) == reference_reading(a)


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


GOOD_TEXTS = st.sampled_from(["0", "1", "-1", "1/2", "2/4", " 3 ", "i", "-i", "3-2/5i", "-0"]) | st.builds(
    lambda a, b, d: str(G(Fraction(a, d), Fraction(b, d))),
    st.integers(-(10**40), 10**40),
    st.integers(-9, 9),
    st.integers(1, 12),
)
BAD_ENTRIES = st.sampled_from(["", "x", "1//2", "1/0", "i/2", "1.5"]) | st.sampled_from(
    [None, True, False, 0, 1, 1.0, [], ["1"], {}, {"1": "1"}]
)


@st.composite
def repeated_text_grids(draw):
    """An entry grid drawn from a pool of at most four good texts, so most
    texts repeat."""
    entry = st.sampled_from(draw(st.lists(GOOD_TEXTS, min_size=1, max_size=4)))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


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

    @pytest.mark.parametrize(
        "data, message",
        [
            ([["1"]], "the matrix must be a JSON object"),
            ({"rows": 1, "cols": 1, "entries": [["1"]], "note": "x"}, 'unknown key "note" in the matrix'),
            ({"rows": 1, "entries": [["1"]]}, 'missing key "cols" in the matrix'),
        ],
    )
    def test_other_shapes_and_keys_rejected(self, data, message):
        with pytest.raises(ValueError, match=message):
            ExactMatrix.from_json_dict(data)

    def test_parses_each_distinct_text_once(self, monkeypatch):
        calls = []

        def counting_parse(text):
            calls.append(text)
            return parse(text)

        monkeypatch.setattr(matrices, "parse", counting_parse)
        entries = [["0", "1/2", "0"], ["i", "0", "1/2"], ["0", "0", "-3+i"]]
        m = ExactMatrix.from_json_dict({"rows": 3, "cols": 3, "entries": entries})
        assert calls == ["0", "1/2", "i", "-3+i"]
        assert m == ExactMatrix([[parse(v) for v in row] for row in entries])

    @settings(max_examples=300, deadline=None)
    @given(entries=repeated_text_grids())
    def test_reader_matches_parsing_every_entry(self, entries):
        m = ExactMatrix.from_json_dict(
            {"rows": len(entries), "cols": len(entries[0]), "entries": entries}
        )
        assert_normalized(m)
        assert m == ExactMatrix([[parse(v) for v in row] for row in entries])

    @settings(max_examples=300, deadline=None)
    @given(
        entries=repeated_text_grids(),
        bad=st.lists(BAD_ENTRIES, min_size=1, max_size=2),
        data=st.data(),
    )
    def test_reader_raises_what_parsing_every_entry_raises(self, entries, bad, data):
        cells = [(i, j) for i in range(len(entries)) for j in range(len(entries[0]))]
        if len(cells) > 1:
            entries[cells[1][0]][cells[1][1]] = entries[0][0]
        # The first bad entry follows the repeated text where the grid
        # allows; bad entries, the same or another, may follow it.
        first = data.draw(st.integers(min(2, len(cells) - 1), len(cells) - 1))
        later = st.tuples(st.sampled_from(cells[first:]), st.sampled_from(bad))
        for (i, j), value in [(cells[first], bad[0])] + data.draw(st.lists(later, max_size=3)):
            entries[i][j] = value
        with pytest.raises(Exception) as expected:
            ExactMatrix([[parse(v) for v in row] for row in entries])
        with pytest.raises(Exception) as got:
            ExactMatrix.from_json_dict(
                {"rows": len(entries), "cols": len(entries[0]), "entries": entries}
            )
        assert (got.type, str(got.value)) == (expected.type, str(expected.value))


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


# Differential tests of the integer layer: every operation is compared with a
# reference that works entry by entry on GaussianRational grids, written here
# without the matrix code, and every result is checked to be normalized.
def ref_mul(x, y):
    return [
        [sum((x[i][k] * y[k][j] for k in range(len(y))), ZERO) for j in range(len(y[0]))]
        for i in range(len(x))
    ]


def ref_eliminate(grid):
    """Rational Gaussian elimination with the library's pivot rule (first
    nonzero entry at or below the diagonal, rows with a zero skipped)."""
    rows = [list(row) for row in grid]
    n = len(rows)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, n):
            if rows[r][col]:
                ratio = rows[r][col] / rows[col][col]
                rows[r] = [a - ratio * b for a, b in zip(rows[r], rows[col])]
    return rows


def ref_inverse(grid):
    n = len(grid)
    rows = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(grid)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        scale = rows[col][col].inverse()
        rows[col] = [scale * v for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                ratio = rows[r][col]
                rows[r] = [a - ratio * b for a, b in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def assert_normalized(m):
    assert m._d > 0
    assert len(m._re) == len(m._im) == m.rows
    assert all(len(row) == m.cols for row in m._re + m._im)
    assert gcd(m._d, *itertools.chain(*m._re, *m._im)) == 1


def grid_of(m):
    return [list(row) for row in m.entries]


small_fractions = st.fractions(min_value=-12, max_value=12, max_denominator=9)
ENTRY_KINDS = {
    "gaussian_integer": st.builds(G, st.integers(-9, 9), st.integers(-9, 9)),
    "real": st.builds(G, small_fractions),
    "mixed": st.builds(G, small_fractions, small_fractions),
}


@st.composite
def grids(draw, rows=None, cols=None):
    """Grids of one entry kind, with zero entries and whole zero rows."""
    rows = rows or draw(st.integers(1, 4))
    cols = cols or draw(st.integers(1, 4))
    entry = st.one_of(st.just(ZERO), ENTRY_KINDS[draw(st.sampled_from(sorted(ENTRY_KINDS)))])
    zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=rows))
    return [
        [ZERO] * cols if i in zero_rows else [draw(entry) for _ in range(cols)]
        for i in range(rows)
    ]


@st.composite
def same_shape(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return draw(grids(rows, cols)), draw(grids(rows, cols))


@st.composite
def chained(draw):
    rows, inner, cols = (draw(st.integers(1, 4)) for _ in range(3))
    return draw(grids(rows, inner)), draw(grids(inner, cols))


@st.composite
def square(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    return draw(grids(n, n))


HUGE = 10**40


@st.composite
def mixed_grids(draw, rows=None, cols=None):
    """Grids up to 10 x 10 that mix zero rows, real rows and complex rows,
    over denominator 1 (Gaussian-integer entries) or above, with negative
    and huge parts."""
    rows = rows or draw(st.integers(1, 10))
    cols = cols or draw(st.integers(1, 10))
    part = st.integers(-9, 9) | st.integers(-HUGE, HUGE)
    if draw(st.booleans()):
        part = part | st.builds(Fraction, part, st.integers(1, 12))
    real = st.just(ZERO) | st.builds(G, part)
    complex_ = real | st.builds(G, part, part)
    kinds = {"zero": st.just(ZERO), "real": real, "complex": complex_}
    return [
        [draw(kinds[kind]) for _ in range(cols)]
        for kind in draw(st.lists(st.sampled_from(sorted(kinds)), min_size=rows, max_size=rows))
    ]


@st.composite
def mixed_chained(draw):
    rows, inner, cols = (draw(st.integers(1, 10)) for _ in range(3))
    return draw(mixed_grids(rows, inner)), draw(mixed_grids(inner, cols))


# Zero, real and complex rows in one matrix, over denominator 1 and above.
INTEGRAL_MIX = [[1, -HUGE, 0], [ZERO] * 3, [G(0, 1), G(3, -4), -7]]
RATIONAL_MIX = [[G(Fraction(1, 2)), HUGE, -3], [G(Fraction(-1, 3), 2), ZERO, ZERO], [ZERO] * 3]


class TestIntegerLayer:
    @given(grid=grids() | mixed_grids())
    @example(grid=INTEGRAL_MIX)
    @example(grid=RATIONAL_MIX)
    def test_construction_entries_and_json(self, grid):
        m = ExactMatrix(grid)
        assert_normalized(m)
        assert (m.rows, m.cols) == (len(grid), len(grid[0]))
        assert grid_of(m) == grid
        assert all(m[i, j] == grid[i][j] for i in range(m.rows) for j in range(m.cols))
        assert m.row(m.rows - 1) == tuple(grid[-1])
        assert m.to_json_dict()["entries"] == [[str(v) for v in row] for row in grid]
        back = ExactMatrix.from_json_dict(m.to_json_dict())
        assert back == m and hash(back) == hash(m)
        assert hash(m) == hash((m.rows, m.cols, tuple(map(tuple, grid))))

    @given(pair=chained() | mixed_chained())
    @example(pair=(INTEGRAL_MIX, RATIONAL_MIX))
    @example(pair=(RATIONAL_MIX, INTEGRAL_MIX))
    @example(pair=(INTEGRAL_MIX, INTEGRAL_MIX))
    def test_product(self, pair):
        x, y = pair
        product = ExactMatrix(x) * ExactMatrix(y)
        assert_normalized(product)
        assert grid_of(product) == ref_mul(x, y)

    @given(pair=same_shape(), c=st.one_of(*ENTRY_KINDS.values(), st.just(ZERO)))
    def test_sum_difference_and_scale(self, pair, c):
        x, y = pair
        a, b = ExactMatrix(x), ExactMatrix(y)
        for result, expected in (
            (a + b, [[u + v for u, v in zip(p, q)] for p, q in zip(x, y)]),
            (a - b, [[u - v for u, v in zip(p, q)] for p, q in zip(x, y)]),
            (-a, [[-u for u in p] for p in x]),
            (a.scale(c), [[c * u for u in p] for p in x]),
            (c * a, [[c * u for u in p] for p in x]),
        ):
            assert_normalized(result)
            assert grid_of(result) == expected

    @given(pair=same_shape())
    def test_equality_hash_and_first_difference(self, pair):
        x, y = pair
        a, b = ExactMatrix(x), ExactMatrix(y)
        assert (a == b) == (x == y)
        differences = [(i, j) for i, row in enumerate(x) for j, v in enumerate(row) if v != y[i][j]]
        assert a.first_difference(b) == (differences[0] if differences else None)
        # the same value reached by arithmetic is equal and hashes alike
        again = (a + b) - b
        assert again == a and hash(again) == hash(a)
        assert a.first_difference(again) is None

    @given(grid=square())
    def test_det_and_inverse(self, grid):
        m = ExactMatrix(grid)
        det = m.det()
        assert det == laplace_det(m)
        expected = ref_inverse(grid)
        assert (expected is None) == (not det)
        if expected is None:
            with pytest.raises(SingularMatrixError):
                m.inverse()
        else:
            inverse = m.inverse()
            assert_normalized(inverse)
            assert grid_of(inverse) == expected

    @given(grid=square(max_n=5))
    def test_elimination_rows_are_normalized_rational_rows(self, grid):
        m = ExactMatrix(grid)
        re, im = m._numerator_rows()
        den = [1] * m.rows
        sign = _eliminate(re, im, den, m.rows)
        expected = ref_eliminate(grid)
        assert (sign == 0) == (expected is None)
        if expected is None:
            return
        im = im or [[0] * m.cols for _ in range(m.rows)]
        for r, e in enumerate(den):
            # each row is held as (re + im*i)/den, normalized, at the scale
            # of rational elimination (numerators of M = d*A)
            assert e > 0 and gcd(e, *re[r], *im[r]) == 1
            assert [G(Fraction(a, e), Fraction(b, e)) for a, b in zip(re[r], im[r])] == [
                m._d * v for v in expected[r]
            ]

    def test_first_difference_with_equal_numerators_over_other_denominators(self):
        half = ExactMatrix([[G(Fraction(1, 2)), ONE]])
        assert half.first_difference(ExactMatrix([[1, 1]])) == (0, 0)
        assert ExactMatrix([[1, 1]]).first_difference(half) == (0, 0)

    def test_zero_and_one_by_one(self):
        zero = ExactMatrix([[0, 0], [0, 0]])
        assert_normalized(zero)
        assert zero._d == 1
        assert zero.det() == ZERO
        one = ExactMatrix([[G(Fraction(2, 3), Fraction(-1, 6))]])
        assert one.det() == one[0, 0]
        assert one.inverse()[0, 0] == one[0, 0].inverse()
        assert (one * one.inverse()).is_identity()


class TestJsonWriter:
    @settings(max_examples=200, deadline=None)
    @given(entries=grids())
    @example(entries=[[G(3), ZERO, G(-7)], [ZERO, G(0, 1), ZERO], [ZERO, ZERO, ZERO]])
    def test_entry_text_is_str_of_each_entry(self, entries):
        # the writer formats only nonzero entries; the reference formats all
        m = ExactMatrix(entries)
        assert m.to_json_dict()["entries"] == [[str(v) for v in row] for row in m.entries]


# Every construction route must end in the one normal form: d > 0, no prime
# dividing d and every numerator, and so the fields that from_numerators
# gives for the same values over any common denominator.  Each route returns
# its matrix and the values it stands for, worked out entry by entry.
def scalars_over(dens=(1, 2, 3)):
    """Values (a + b*i)/e with e drawn from dens."""
    part = st.integers(-6, 6)
    return st.builds(lambda a, b, e: G(Fraction(a, e), Fraction(b, e)), part, part, st.sampled_from(dens))


def drawn_grid(data, rows=None, cols=None, dens=(1, 2, 3)):
    """A grid of zeros and values over the denominators dens."""
    rows = rows or data.draw(st.integers(1, 3))
    cols = cols or data.draw(st.integers(1, 3))
    entry = st.just(ZERO) | scalars_over(dens)
    return [[data.draw(entry) for _ in range(cols)] for _ in range(rows)]


def nonzero_scalar(data):
    return data.draw(scalars_over().filter(bool))


def fields(m):
    return m.rows, m.cols, m._re, m._im, m._d


def from_numerators_of(values, factor):
    """from_numerators on the values, over factor times their least common
    denominator."""
    d = factor * lcm(*(v.triple[2] for row in values for v in row))
    return ExactMatrix.from_numerators(
        [[v.triple[0] * (d // v.triple[2]) for v in row] for row in values],
        [[v.triple[1] * (d // v.triple[2]) for v in row] for row in values],
        d,
    )


def placed(n, placements):
    """The n x n values that are zero but for each (row0, col0, grid)."""
    values = [[ZERO] * n for _ in range(n)]
    for row0, col0, grid in placements:
        for i, row in enumerate(grid):
            values[row0 + i][col0 : col0 + len(row)] = row
    return values


def jordan_values(blocks):
    n = sum(size for _, size in blocks)
    tops = offsets(size for _, size in blocks)
    values = placed(n, [])
    for k, (lam, size) in zip(tops, blocks):
        for i in range(k, k + size):
            values[i][i] = lam
            if i + 1 < k + size:
                values[i][i + 1] = ONE
    return values


def route_constructor(data):
    grid = drawn_grid(data)
    return ExactMatrix(grid), grid


def route_from_numerators_with_a_common_factor(data):
    grid = drawn_grid(data)
    return from_numerators_of(grid, data.draw(st.integers(2, 6))), grid


def route_from_json_dict(data):
    grid = drawn_grid(data)
    entries = [[str(v) for v in row] for row in grid]
    payload = {"rows": len(grid), "cols": len(grid[0]), "entries": entries}
    return ExactMatrix.from_json_dict(payload), grid


def route_from_blocks(data):
    # x and y share rows; each block is over its own denominator
    p, q = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    den = st.sampled_from([1, 2, 3])
    x, y, z = (drawn_grid(data, r, c, (data.draw(den),)) for r, c in ((p, p), (p, q), (q, q)))
    placements = [(0, 0, x), (0, p, y), (p, p, z)]
    m = ExactMatrix.from_blocks(p + q, [(r, c, ExactMatrix(b)) for r, c, b in placements])
    return m, placed(p + q, placements)


def route_jordan_matrix(data):
    count = data.draw(st.integers(1, 3))
    spec = JordanSpec((nonzero_scalar(data), data.draw(st.integers(1, 3))) for _ in range(count))
    return jordan_matrix(spec), jordan_values(spec.blocks)


def route_jordan_block(data):
    lam, size = nonzero_scalar(data), data.draw(st.integers(1, 4))
    return jordan_block(lam, size), jordan_values([(lam, size)])


def route_product(data):
    rows, inner, cols = (data.draw(st.integers(1, 3)) for _ in range(3))
    x, y = drawn_grid(data, rows, inner), drawn_grid(data, inner, cols)
    return ExactMatrix(x) * ExactMatrix(y), ref_mul(x, y)


def route_sum(data):
    x = drawn_grid(data)
    y = drawn_grid(data, len(x), len(x[0]))
    return ExactMatrix(x) + ExactMatrix(y), [[u + v for u, v in zip(a, b)] for a, b in zip(x, y)]


def route_difference(data):
    x = drawn_grid(data)
    y = drawn_grid(data, len(x), len(x[0]))
    return ExactMatrix(x) - ExactMatrix(y), [[u - v for u, v in zip(a, b)] for a, b in zip(x, y)]


def route_scale(data):
    x, (c,) = drawn_grid(data), drawn_grid(data, 1, 1)[0]
    return ExactMatrix(x).scale(c), [[c * u for u in row] for row in x]


def route_inverse(data):
    n = data.draw(st.integers(1, 3))
    grid = drawn_grid(data, n, n)
    expected = ref_inverse(grid)
    assume(expected is not None)
    return ExactMatrix(grid).inverse(), expected


def route_inflate(data):
    r = data.draw(st.integers(1, 3))
    coeffs, sizes = drawn_grid(data, r, r), [data.draw(st.integers(1, 3)) for _ in range(r)]
    starts = offsets(sizes)
    values = placed(sum(sizes), [])
    for i, j in itertools.product(range(r), repeat=2):
        for t in range(min(sizes[i], sizes[j])):
            values[starts[i] + t][starts[j] + t] = coeffs[i][j]
    return inflate(ExactMatrix(coeffs), sizes), values


def route_direct_sum(data):
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    grids = [drawn_grid(data, k, k) for k in sizes]
    values = placed(sum(sizes), [(k, k, grid) for k, grid in zip(offsets(sizes), grids)])
    return direct_sum([ExactMatrix(grid) for grid in grids]), values


def route_conjugate(data):
    n = data.draw(st.integers(1, 4))
    grid, images = drawn_grid(data, n, n), data.draw(st.permutations(range(1, n + 1)))
    # P a P^{-1} moves entry (i, j) of a to (images[i], images[j])
    values = placed(n, [])
    for i, j in itertools.product(range(n), repeat=2):
        values[images[i] - 1][images[j] - 1] = grid[i][j]
    return PermutationMap(images).conjugate(ExactMatrix(grid)), values


def route_jordan_reverser(data):
    lam, n = nonzero_scalar(data), data.draw(st.integers(1, 4))
    return jordan_reverser(lam, n), grid_of(jordan_reverser_recurrence(lam, n))


ROUTES = {name.removeprefix("route_"): f for name, f in globals().items() if name.startswith("route_")}


class TestNormalForm:
    @pytest.mark.parametrize("route", sorted(ROUTES))
    @settings(deadline=None)
    @given(data=st.data())
    def test_every_route_gives_the_normal_form(self, route, data):
        m, values = ROUTES[route](data)
        assert_normalized(m)
        assert fields(m) == fields(from_numerators_of(values, 6))
