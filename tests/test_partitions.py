import random

import pytest
from hypothesis import given, strategies as st

from strongrev.partitions import Partition, parity_sets


class TestConjugate:
    def test_paper_pair(self):
        assert Partition([4, 4, 2]).conjugate() == Partition([3, 3, 2, 2])
        assert Partition([3, 3, 2, 2]).conjugate() == Partition([4, 4, 2])

    def test_single_row(self):
        assert Partition([7]).conjugate() == Partition([1] * 7)

    def test_multiplicity_formula_example(self):
        # [5^2, 3^1, 1^4] -> [7^1, 3^(3-1), 2^(5-3)] = (7, 3, 3, 2, 2)
        p = Partition([5, 5, 3, 1, 1, 1, 1])
        assert p.conjugate() == Partition([7, 3, 3, 2, 2])
        assert p.conjugate_from_multiplicities() == Partition([7, 3, 3, 2, 2])

    def test_empty(self):
        assert Partition().conjugate() == Partition()
        assert Partition().total == 0

    def test_involution_on_random_partitions(self):
        rng = random.Random(17)
        for _ in range(500):
            n = rng.randint(1, 40)
            parts = []
            remaining = n
            while remaining:
                part = rng.randint(1, remaining)
                parts.append(part)
                remaining -= part
            p = Partition(parts)
            assert p.conjugate().conjugate() == p
            assert p.conjugate().total == n

    @given(st.lists(st.integers(min_value=1, max_value=30), max_size=12))
    def test_two_code_paths_agree(self, parts):
        p = Partition(parts)
        assert p.conjugate() == p.conjugate_from_multiplicities()


class TestMultiplicities:
    def test_view(self):
        assert Partition([4, 4, 2]).multiplicities() == ((4, 2), (2, 1))

    def test_round_trip(self):
        p = Partition([6, 6, 6, 3, 1, 1])
        assert Partition.from_multiplicities(p.multiplicities()) == p

    def test_input_order_does_not_matter(self):
        assert Partition([2, 4, 4]) == Partition([4, 4, 2])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition([3, 0])
        with pytest.raises(ValueError):
            Partition([-1])


class TestParitySets:
    def test_three_doubled_blocks(self):
        sets = parity_sets(Partition([2, 2, 2]))
        assert sets.odd_sizes == frozenset()
        assert sets.singly_even_sizes == frozenset({2})
        assert sets.singly_even_weight == 3

    def test_mixed_even_sizes(self):
        sets = parity_sets(Partition([4, 4, 2]))
        assert sets.odd_sizes == frozenset()
        assert sets.even_sizes == frozenset({4, 2})
        assert sets.singly_even_sizes == frozenset({2})
        assert sets.singly_even_weight == 1

    def test_single_odd_block(self):
        sets = parity_sets(Partition([3]))
        assert sets.odd_sizes == frozenset({3})
        assert sets.singly_even_sizes == frozenset()
        assert sets.singly_even_weight == 0

    def test_partition_of_sets(self):
        sets = parity_sets(Partition([6, 5, 4, 2, 2, 1]))
        assert sets.even_sizes | sets.odd_sizes == sets.sizes
        assert sets.even_sizes & sets.odd_sizes == frozenset()
        assert sets.singly_even_sizes <= sets.even_sizes
        assert all(d % 4 == 2 for d in sets.singly_even_sizes)
        assert sets.singly_even_weight == 3  # 6 once, 2 twice

    def test_weight_invariant_under_reordering(self):
        rng = random.Random(3)
        parts = [6, 2, 2, 5, 1]
        for _ in range(20):
            rng.shuffle(parts)
            assert parity_sets(Partition(parts)).singly_even_weight == 3


class TestYoungDiagram:
    def test_two_one(self):
        assert Partition([2, 1]).young_diagram() == "[][]\n[]"

    def test_single_box(self):
        assert Partition([1]).young_diagram() == "[]"

    def test_paper_pair_shapes(self):
        p = Partition([4, 4, 2])
        assert p.young_diagram().splitlines() == ["[]" * 4, "[]" * 4, "[]" * 2]
        q = p.conjugate()
        assert q.young_diagram().splitlines() == ["[]" * 3, "[]" * 3, "[]" * 2, "[]" * 2]
