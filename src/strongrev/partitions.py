"""Integer partitions, conjugation, Young diagrams and part-size parity data.

Strong reversibility depends on which part sizes are odd, which are even,
and which are singly even (that is, congruent to 2 mod 4), together with the
total multiplicity carried by the singly even sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .scalars import as_int

__all__ = ["Partition", "PartitionSets", "parity_sets"]


@dataclass(frozen=True, slots=True)
class Partition:
    """Weakly decreasing positive parts; the empty partition of 0 is allowed.

    Input parts may arrive in any order (block lists are not sorted); they
    are stored sorted descending, so conjugation and the multiplicity view
    are well defined.
    """

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int] = ()):
        ps = sorted((as_int(p) for p in parts), reverse=True)
        if any(p <= 0 for p in ps):
            raise ValueError("partition parts must be positive integers")
        object.__setattr__(self, "parts", tuple(ps))

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"

    def multiplicities(self) -> tuple[tuple[int, int], ...]:
        """The [d^t] view: (size, multiplicity) pairs, sizes strictly decreasing."""
        out: list[tuple[int, int]] = []
        for p in self.parts:
            if out and out[-1][0] == p:
                out[-1] = (p, out[-1][1] + 1)
            else:
                out.append((p, 1))
        return tuple(out)

    @classmethod
    def from_multiplicities(cls, pairs: Sequence[tuple[int, int]]) -> "Partition":
        parts: list[int] = []
        for size, count in pairs:
            if count < 0:
                raise ValueError("multiplicities must be nonnegative")
            parts.extend([size] * count)
        return cls(parts)

    def conjugate(self) -> "Partition":
        """Dual partition by transposing the Young diagram: the j-th
        conjugate part counts the rows of length at least j."""
        if not self.parts:
            return Partition()
        width = self.parts[0]
        counts = [0] * width
        for p in self.parts:
            for j in range(p):
                counts[j] += 1
        return Partition(counts)

    def conjugate_from_multiplicities(self) -> "Partition":
        """Dual partition computed on the [d^t] view alone: the running
        multiplicity total t_1 + ... + t_k repeats d_k - d_{k+1} times.

        Independent of :meth:`conjugate`; the two are cross-checked in tests.
        """
        mult = self.multiplicities()
        pairs: list[tuple[int, int]] = []
        running = 0
        for idx, (size, count) in enumerate(mult):
            running += count
            next_size = mult[idx + 1][0] if idx + 1 < len(mult) else 0
            pairs.append((running, size - next_size))
        return Partition.from_multiplicities(pairs)

    def young_diagram(self) -> str:
        """Left-justified rows of "[]" boxes, row i holding parts[i] boxes."""
        return "\n".join("[]" * p for p in self.parts)


@dataclass(frozen=True)
class PartitionSets:
    """Part-size classification of a partition.

    ``singly_even_sizes`` are the sizes congruent to 2 mod 4 and
    ``singly_even_weight`` is the total multiplicity they carry, the
    quantity the determinant bookkeeping depends on.
    """

    sizes: frozenset[int]
    even_sizes: frozenset[int]
    odd_sizes: frozenset[int]
    singly_even_sizes: frozenset[int]
    singly_even_weight: int


def parity_sets(p: Partition) -> PartitionSets:
    """Parity data of p, from its [d^t] view.  The classifier reads the same
    facts straight from block sizes; the special-case verdicts in
    :mod:`strongrev.verify` use this one, so the two stay independent."""
    mult = dict(p.multiplicities())
    sizes = frozenset(mult)
    even = frozenset(d for d in sizes if d % 2 == 0)
    odd = sizes - even
    singly_even = frozenset(d for d in even if d % 4 == 2)
    weight = sum(mult[d] for d in singly_even)
    return PartitionSets(sizes, even, odd, singly_even, weight)

