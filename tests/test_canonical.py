import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from strongrev.canonical import (
    JordanSpec,
    WeyrStructure,
    basic_weyr_matrix,
    homogeneous_weyr,
    jordan_block,
    jordan_matrix,
    matches_centralizer_pattern,
    sample_centralizer,
    weyr_form,
)
from strongrev.matrices import ExactMatrix, direct_sum
from strongrev.partitions import Partition
from strongrev.scalars import GaussianRational, ONE, ZERO

G = GaussianRational

# Repeated values, equal real parts, negatives and fractions, plus random
# Gaussian rationals with small heights and with large numerators and
# denominators.
EIGENVALUES = st.one_of(
    st.sampled_from(
        [G(1), G(-1), G(2), G(-2), G(Fraction(1, 2)), G(Fraction(1, 2), 1),
         G(Fraction(1, 2), -1), G(Fraction(-3, 4)), G(0, 1), G(0, -1)]
    ),
    st.builds(
        G,
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    ).filter(bool),
    st.builds(
        G,
        st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**6),
        st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**6),
    ).filter(bool),
)
BLOCK_LISTS = st.lists(
    st.tuples(EIGENVALUES, st.integers(min_value=1, max_value=5)), min_size=1, max_size=12
)

# the 10x10 Jordan matrix with structure (4,4,2) at eigenvalue 1
JORDAN_442 = ExactMatrix(
    [
        [1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 1, 1],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    ]
)

# its Weyr form, structure (3,3,2,2)
WEYR_3322 = ExactMatrix(
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


def centralizer_example_matrix():
    """The commuting matrix pattern for structure (3,3,2,2) with its 26 free
    slots instantiated as 1..26 (a..z, then 26 for the last letter)."""
    a, b, c, d, e, f, g = 1, 2, 3, 4, 5, 6, 7
    h, i, j, k, l, m, n = 8, 9, 10, 11, 12, 13, 14
    p, q, r, s, t, u = 15, 16, 17, 18, 19, 20
    v, w, x, y, z, alpha = 21, 22, 23, 24, 25, 26
    return ExactMatrix(
        [
            [a, b, e, h, i, l, p, q, v, w],
            [c, d, f, j, k, m, r, s, x, y],
            [0, 0, g, 0, 0, n, t, u, z, alpha],
            [0, 0, 0, a, b, e, h, i, p, q],
            [0, 0, 0, c, d, f, j, k, r, s],
            [0, 0, 0, 0, 0, g, 0, 0, t, u],
            [0, 0, 0, 0, 0, 0, a, b, h, i],
            [0, 0, 0, 0, 0, 0, c, d, j, k],
            [0, 0, 0, 0, 0, 0, 0, 0, a, b],
            [0, 0, 0, 0, 0, 0, 0, 0, c, d],
        ]
    )


class TestJordanSpec:
    def test_canonical_ordering(self):
        spec = JordanSpec([(G(2), 1), (G(Fraction(1, 2)), 1), (G(2), 3)])
        assert spec.blocks == ((G(Fraction(1, 2)), 1), (G(2), 3), (G(2), 1))

    @given(BLOCK_LISTS, st.randoms(use_true_random=False))
    def test_canonical_order_matches_reference_sort(self, blocks, rnd):
        shuffled = list(blocks)
        rnd.shuffle(shuffled)
        expected = sorted(blocks, key=lambda b: ((b[0].re, b[0].im), -b[1]))
        assert JordanSpec(shuffled).blocks == tuple(expected)

    def test_equal_classes_equal_specs(self):
        a = JordanSpec([(G(1), 2), (G(-1), 3), (G(1), 4)])
        b = JordanSpec([(G(1), 4), (G(1), 2), (G(-1), 3)])
        assert a == b and hash(a) == hash(b)

    def test_rejects_zero_eigenvalue(self):
        with pytest.raises(ValueError):
            JordanSpec([(G(0), 2)])

    def test_rejects_empty_and_bad_sizes(self):
        with pytest.raises(ValueError):
            JordanSpec([])
        with pytest.raises(ValueError):
            JordanSpec([(G(1), 0)])

    def test_structures_and_multiplicity(self):
        spec = JordanSpec([(G(1), 4), (G(1), 2), (G(-1), 3)])
        structures = spec.structures()
        assert structures[0][0] == G(-1) and structures[0][1] == Partition([3])
        assert structures[1][0] == G(1) and structures[1][1] == Partition([4, 2])
        assert spec.multiplicity(G(1)) == 6
        assert spec.multiplicity(G(7)) == 0

    def test_json_round_trip(self):
        spec = JordanSpec([(G(0, 1), 2), (G(0, -1), 2), (G(1), 1)])
        assert JordanSpec.from_json_dict(spec.to_json_dict()) == spec

    @pytest.mark.parametrize(
        "data, message",
        [
            ([], "the spec must be a JSON object"),
            ({}, 'missing key "blocks" in the spec'),
            ({"blocks": [], "note": 1}, 'unknown key "note" in the spec'),
            ({"blocks": {}}, "blocks must be a JSON array"),
            ({"blocks": [{"eigenvalue": "1", "size": 1}, ["1", 1]]}, "blocks\\[1\\] must be a JSON object"),
            ({"blocks": [{"eigenvalue": "1", "size": 2, "extra": 1}]}, 'unknown key "extra" in blocks\\[0\\]'),
            ({"blocks": [{"size": 2}]}, 'missing key "eigenvalue" in blocks\\[0\\]'),
        ],
    )
    def test_json_reader_refuses_other_shapes_and_keys(self, data, message):
        with pytest.raises(ValueError, match=message):
            JordanSpec.from_json_dict(data)


class TestJordanMatrix:
    def test_three_identical_blocks(self):
        spec = JordanSpec([(G(1), 2)] * 3)
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
        assert jordan_matrix(spec) == expected

    def test_single_scalar_block(self):
        lam = G(Fraction(2, 3), 1)
        assert jordan_matrix(JordanSpec([(lam, 1)])) == ExactMatrix([[lam]])

    def test_structure_442(self):
        spec = JordanSpec([(G(1), 4), (G(1), 4), (G(1), 2)])
        assert jordan_matrix(spec) == JORDAN_442

    @given(st.lists(st.tuples(EIGENVALUES, st.integers(1, 3)), min_size=1, max_size=5))
    def test_fields_equal_the_entrywise_constructor(self, blocks):
        # built without normalizing, over the lcm of the eigenvalue denominators
        spec = JordanSpec(blocks)
        grid = [[ZERO] * spec.n for _ in range(spec.n)]
        k = 0
        for eig, size in spec.blocks:
            for i in range(k, k + size):
                grid[i][i] = eig
                if i + 1 < k + size:
                    grid[i][i + 1] = ONE
            k += size
        m, expected = jordan_matrix(spec), ExactMatrix(grid)
        assert (m._re, m._im, m._d) == (expected._re, expected._im, expected._d)

    @given(st.lists(st.tuples(EIGENVALUES, st.integers(1, 3)), min_size=1, max_size=5))
    def test_equals_direct_sum_of_blocks(self, blocks):
        spec = JordanSpec(blocks)
        expected = direct_sum([jordan_block(eig, size) for eig, size in spec.blocks])
        assert jordan_matrix(spec) == expected


class TestBasicWeyrMatrix:
    def test_structure_3322(self):
        w = WeyrStructure(G(1), (3, 3, 2, 2))
        assert basic_weyr_matrix(w) == WEYR_3322

    def test_trivial_structure_is_scalar(self):
        w = WeyrStructure(G(5), (4,))
        assert basic_weyr_matrix(w) == ExactMatrix.diagonal([G(5)] * 4)

    def test_all_ones_structure_is_jordan_block(self):
        lam = G(Fraction(1, 3), Fraction(-2, 5))
        w = WeyrStructure(lam, (1,) * 5)
        assert basic_weyr_matrix(w) == jordan_block(lam, 5)

    def test_rejects_increasing_sizes(self):
        with pytest.raises(ValueError):
            WeyrStructure(G(1), (2, 3))


class TestHomogeneousWeyr:
    def test_k_one_is_jordan_block(self):
        lam = G(3, -1)
        assert homogeneous_weyr(lam, 1, 6) == jordan_block(lam, 6)

    def test_m_one_is_scalar(self):
        assert homogeneous_weyr(G(2), 3, 1) == ExactMatrix.diagonal([G(2)] * 3)

    def test_block_grid(self):
        m = homogeneous_weyr(G(1), 2, 2)
        assert m == ExactMatrix(
            [[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]]
        )


class TestWeyrForm:
    def test_unipotent_442(self):
        spec = JordanSpec([(G(1), 4), (G(1), 4), (G(1), 2)])
        wf = weyr_form(spec)
        assert len(wf.structures) == 1
        assert wf.structures[0].sizes == (3, 3, 2, 2)
        assert wf.matrix == WEYR_3322
        assert wf.permutation.conjugate(JORDAN_442) == WEYR_3322

    def test_single_block(self):
        lam = G(2, 1)
        spec = JordanSpec([(lam, 5)])
        wf = weyr_form(spec)
        assert wf.structures[0].sizes == (1,) * 5
        assert wf.matrix == jordan_matrix(spec)

    def test_semisimple_equals_jordan(self):
        spec = JordanSpec([(G(2), 1), (G(Fraction(1, 2)), 1), (G(3), 1)])
        wf = weyr_form(spec)
        assert wf.matrix == jordan_matrix(spec)

    def test_structures_are_conjugate_partitions(self):
        spec = JordanSpec([(G(1), 3), (G(1), 1), (G(-1), 2), (G(-1), 2)])
        wf = weyr_form(spec)
        for (eig, jordan_partition), w in zip(spec.structures(), wf.structures):
            assert w.eigenvalue == eig
            assert Partition(w.sizes) == jordan_partition.conjugate()

    def test_random_specs_conjugate_exactly(self):
        rng = random.Random(41)
        pool = [G(1), G(-1), G(2), G(Fraction(1, 2)), G(0, 1), G(0, -1)]
        for _ in range(200):
            n = rng.randint(1, 10)
            blocks = []
            remaining = n
            while remaining:
                size = rng.randint(1, remaining)
                blocks.append((rng.choice(pool), size))
                remaining -= size
            spec = JordanSpec(blocks)
            wf = weyr_form(spec)  # raises if the conjugation check fails
            assert wf.permutation.conjugate(jordan_matrix(spec)) == wf.matrix


class TestCentralizerPattern:
    def test_example_matrix_passes_and_commutes(self):
        w = WeyrStructure(G(1), (3, 3, 2, 2))
        b = centralizer_example_matrix()
        assert matches_centralizer_pattern(w, b)
        weyr = basic_weyr_matrix(w)
        assert b * weyr == weyr * b

    def test_identity_passes(self):
        for sizes in [(3, 3, 2, 2), (4,), (2, 1, 1), (1, 1, 1)]:
            w = WeyrStructure(G(1), sizes)
            assert matches_centralizer_pattern(w, ExactMatrix.identity(sum(sizes)))

    def test_below_diagonal_entry_fails(self):
        w = WeyrStructure(G(1), (2, 1))
        grid = [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]
        grid[2][0] = ONE
        assert not matches_centralizer_pattern(w, ExactMatrix(grid))

    def test_broken_nesting_fails(self):
        w = WeyrStructure(G(1), (3, 3, 2, 2))
        good = centralizer_example_matrix()
        grid = [list(good.row(i)) for i in range(10)]
        grid[3][3] = G(99)  # repeated top-left block no longer matches
        assert not matches_centralizer_pattern(w, ExactMatrix(grid))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            matches_centralizer_pattern(WeyrStructure(G(1), (2, 1)), ExactMatrix.identity(4))


class TestSampleCentralizer:
    def test_commutes_pattern_invertible(self):
        rng = random.Random(55)
        pool = [G(1), G(-1), G(2), G(0, 1)]
        for _ in range(200):
            n = rng.randint(1, 8)
            parts = []
            remaining = n
            while remaining:
                part = rng.randint(1, remaining)
                parts.append(part)
                remaining -= part
            w = WeyrStructure(rng.choice(pool), Partition(parts).parts)
            sample = sample_centralizer(w, rng.randrange(2**63))
            weyr = basic_weyr_matrix(w)
            assert sample * weyr == weyr * sample
            assert matches_centralizer_pattern(w, sample)
            assert sample.det()

    def test_trivial_structure_is_unconstrained(self):
        w = WeyrStructure(G(3), (4,))
        sample = sample_centralizer(w, 1)
        assert sample.det()
        assert matches_centralizer_pattern(w, sample)

    def test_all_ones_structure_is_toeplitz(self):
        w = WeyrStructure(G(1), (1,) * 5)
        sample = sample_centralizer(w, 9)
        for i in range(5):
            for j in range(5):
                if j < i:
                    assert not sample[i, j]
                else:
                    assert sample[i, j] == sample[0, j - i]

    def test_deterministic_in_seed(self):
        w = WeyrStructure(G(1), (2, 2, 1))
        assert sample_centralizer(w, 123) == sample_centralizer(w, 123)
        assert sample_centralizer(w, 123) != sample_centralizer(w, 124)
