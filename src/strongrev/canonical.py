"""Jordan and Weyr canonical forms and the permutation relating them.

A conjugacy class of an invertible matrix is described by its Jordan data
(:class:`JordanSpec`).  Per eigenvalue, the Weyr structure is the conjugate
partition of the Jordan structure, and the two canonical matrices are
similar under an explicit basis permutation, which this module constructs
and verifies.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Iterable

from .matrices import ExactMatrix, PermutationMap, direct_sum, inflate, offsets
from .partitions import Partition
from .scalars import GaussianRational, ZERO, as_int, as_scalar, json_fields, parse

__all__ = [
    "JordanSpec",
    "WeyrStructure",
    "WeyrForm",
    "jordan_block",
    "jordan_matrix",
    "basic_weyr_matrix",
    "homogeneous_weyr",
    "weyr_form",
    "matches_centralizer_pattern",
    "sample_centralizer",
]

CENTRALIZER_COEFF_RANGE = 3
CENTRALIZER_SAMPLE_ATTEMPTS = 64


@dataclass(frozen=True, slots=True)
class JordanSpec:
    """Multiset of (eigenvalue, block size) pairs naming a conjugacy class.

    Blocks are stored in a canonical order (eigenvalues by the fixed total
    order on Q(i), sizes descending within an eigenvalue) so equal
    conjugacy classes always produce equal specs.
    """

    blocks: tuple[tuple[GaussianRational, int], ...]

    def __init__(self, blocks: Iterable[tuple]):
        entries = []
        for eig, size in blocks:
            eig = as_scalar(eig)
            size = as_int(size)
            if not eig:
                raise ValueError("eigenvalues must be nonzero (the matrix is invertible)")
            if size < 1:
                raise ValueError("block sizes must be positive")
            entries.append((eig.triple, eig, size))
        if not entries:
            raise ValueError("a spec needs at least one block")
        # Rank the distinct eigenvalues once by sort_key, compared exactly as
        # the numerator pairs over the common denominator lcm, then sort the
        # blocks on plain ints; the order is that of (sort_key, -size).
        triples = {triple for triple, _, _ in entries}
        lcm = math.lcm(*(d for _, _, d in triples))
        ranked = sorted(triples, key=lambda t: (t[0] * (lcm // t[2]), t[1] * (lcm // t[2])))
        rank = {triple: r for r, triple in enumerate(ranked)}
        entries.sort(key=lambda e: (rank[e[0]], -e[2]))
        object.__setattr__(self, "blocks", tuple((eig, size) for _, eig, size in entries))

    @classmethod
    def _from_canonical(cls, blocks: tuple[tuple[GaussianRational, int], ...]) -> "JordanSpec":
        """Spec from a block tuple that is already checked and in canonical
        order, with no validation or re-ranking: the caller guarantees that
        ``JordanSpec(blocks).blocks == blocks``."""
        spec = _new(cls)
        _set_blocks(spec, blocks)
        return spec

    @property
    def n(self) -> int:
        return sum(size for _, size in self.blocks)

    def __repr__(self) -> str:
        inner = ", ".join(f"({eig}, {size})" for eig, size in self.blocks)
        return f"JordanSpec([{inner}])"

    def eigenvalues(self) -> tuple[GaussianRational, ...]:
        """Distinct eigenvalues in canonical order."""
        return tuple(eig for eig, _ in groupby(self.blocks, key=itemgetter(0)))

    def structures(self) -> tuple[tuple[GaussianRational, Partition], ...]:
        """Per-eigenvalue Jordan structure, canonical eigenvalue order."""
        return tuple(
            (eig, Partition(size for _, size in run))
            for eig, run in groupby(self.blocks, key=itemgetter(0))
        )

    def multiplicity(self, eigenvalue) -> int:
        eigenvalue = as_scalar(eigenvalue)
        return sum(size for eig, size in self.blocks if eig == eigenvalue)

    def to_json_dict(self) -> dict:
        return {
            "blocks": [
                {"eigenvalue": str(eig), "size": size} for eig, size in self.blocks
            ]
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "JordanSpec":
        """Strict reader: an object whose one key "blocks" holds a list of
        objects with the keys "eigenvalue", scalar text, and "size", a JSON
        integer; nothing else is read or coerced."""
        (blocks,) = json_fields(data, ("blocks",), "the spec")
        if not isinstance(blocks, list):
            raise ValueError("blocks must be a JSON array")
        names = ("eigenvalue", "size")
        fields = (json_fields(b, names, f"blocks[{k}]") for k, b in enumerate(blocks))
        return cls([(parse(eig), as_int(size)) for eig, size in fields])


_new = object.__new__
_set_blocks = JordanSpec.blocks.__set__


def _jordan(blocks: list[tuple[tuple[int, int, int], int]]) -> ExactMatrix:
    """Direct sum of the Jordan blocks J(lam, m) given as (triple of lam, m)
    pairs, built in one pass over the lcm d of the eigenvalue denominators."""
    d = math.lcm(*(e for (_, _, e), _ in blocks))
    n = sum(size for _, size in blocks)
    re = [[0] * n for _ in range(n)]
    im = [[0] * n for _ in range(n)]
    k = 0
    for (a, b, e), size in blocks:
        a, b = a * (d // e), b * (d // e)
        for i in range(k, k + size):
            re[i][i], im[i][i] = a, b
        for i in range(k, k + size - 1):
            re[i][i + 1] = d
        k += size
    return ExactMatrix.from_numerators(re, im, d)


def jordan_block(eigenvalue, size: int) -> ExactMatrix:
    """J(lam, m): lam on the diagonal, 1 on the superdiagonal."""
    return _jordan([(as_scalar(eigenvalue).triple, size)])


def jordan_matrix(spec: JordanSpec) -> ExactMatrix:
    """Block-diagonal Jordan matrix in the spec's canonical block order."""
    return _jordan([(eig.triple, size) for eig, size in spec.blocks])


@dataclass(frozen=True)
class WeyrStructure:
    """Eigenvalue plus the weakly decreasing block sizes of a basic Weyr matrix."""

    eigenvalue: GaussianRational
    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(as_int(s) for s in self.sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError("sizes must be positive")
        if any(sizes[i] < sizes[i + 1] for i in range(len(sizes) - 1)):
            raise ValueError("sizes must be weakly decreasing")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "eigenvalue", as_scalar(self.eigenvalue))

    @property
    def n(self) -> int:
        return sum(self.sizes)


def basic_weyr_matrix(w: WeyrStructure) -> ExactMatrix:
    """Scalar diagonal blocks lam*I, reduced-echelon identity superdiagonal
    blocks (an identity atop zero rows), zeros elsewhere: J(lam, r) inflated
    to the structure's block sizes."""
    return inflate(jordan_block(w.eigenvalue, len(w.sizes)), w.sizes)


def homogeneous_weyr(eigenvalue, k: int, m: int) -> ExactMatrix:
    """Basic Weyr matrix with structure (k, ..., k), m repeats: an m x m block
    grid with lam*I_k on the diagonal and true I_k on the superdiagonal."""
    return basic_weyr_matrix(WeyrStructure(eigenvalue, (k,) * m))


@dataclass(frozen=True)
class WeyrForm:
    """Weyr matrix of a spec, its per-eigenvalue structures, and the
    basis permutation carrying the Jordan matrix onto it."""

    matrix: ExactMatrix
    structures: tuple[WeyrStructure, ...]
    permutation: PermutationMap


def weyr_form(spec: JordanSpec) -> WeyrForm:
    """Weyr form of the spec's Jordan matrix.

    The permutation is built by filling each eigenvalue's Young diagram with
    basis indices: the Jordan basis walks cells row-major (one row per
    Jordan block, largest first), the Weyr basis walks the same cells
    column-major.  The result is verified by explicit conjugation before it
    is returned.
    """
    jordan = spec.structures()
    structures = tuple(WeyrStructure(eig, p.conjugate().parts) for eig, p in jordan)
    images: list[int] = []
    bases = offsets(w.n for w in structures)
    for (_, jordan_partition), w, base in zip(jordan, structures, bases):
        column_starts = offsets(w.sizes)
        for i, row_len in enumerate(jordan_partition.parts):
            images.extend(base + column_starts[j] + i + 1 for j in range(row_len))
    matrix = direct_sum([basic_weyr_matrix(w) for w in structures])
    perm = PermutationMap(images)
    if perm.conjugate(jordan_matrix(spec)) != matrix:
        raise RuntimeError(
            "internal error: duality permutation does not carry the Jordan "
            f"matrix onto the Weyr matrix for {spec!r}"
        )
    return WeyrForm(matrix, structures, perm)


def matches_centralizer_pattern(w: WeyrStructure, m: ExactMatrix) -> bool:
    """Whether m has the commutant shape of the basic Weyr matrix of w.

    The shape is block upper triangular with nested blocks: the top-left
    corner of block (i, j) repeats block (i+1, j+1), the rows below that
    corner are zero in the first columns, and everything to the right is
    free.  Degenerate rows/columns vanish when consecutive sizes agree.
    """
    n = w.n
    if m.rows != n or m.cols != n:
        raise ValueError("matrix size does not match the Weyr structure")
    sizes = w.sizes
    offs = offsets(sizes)
    r = len(sizes)
    # block lower triangle must vanish
    for bi in range(r):
        for bj in range(bi):
            for i in range(sizes[bi]):
                row = m.row(offs[bi] + i)
                for j in range(sizes[bj]):
                    if row[offs[bj] + j]:
                        return False
    # nested condition on blocks (i, j) with i <= j <= r-2
    for bi in range(r - 1):
        for bj in range(bi, r - 1):
            inner_rows = sizes[bi + 1]
            inner_cols = sizes[bj + 1]
            for i in range(inner_rows):
                for j in range(inner_cols):
                    if m[offs[bi] + i, offs[bj] + j] != m[offs[bi + 1] + i, offs[bj + 1] + j]:
                        return False
            for i in range(inner_rows, sizes[bi]):
                for j in range(inner_cols):
                    if m[offs[bi] + i, offs[bj] + j]:
                        return False
    return True


def _random_scalar(rng: random.Random) -> GaussianRational:
    bound = CENTRALIZER_COEFF_RANGE
    return GaussianRational(rng.randint(-bound, bound), rng.randint(-bound, bound))


def _random_pattern_matrix(w: WeyrStructure, rng: random.Random) -> ExactMatrix:
    sizes = w.sizes
    r = len(sizes)
    blocks: dict[tuple[int, int], list[list[GaussianRational]]] = {}
    for d in range(r):
        # seed the diagonal-offset-d chain at its bottom block, then grow upward
        i = r - 1 - d
        blocks[(i, i + d)] = [
            [_random_scalar(rng) for _ in range(sizes[i + d])] for _ in range(sizes[i])
        ]
        for i in range(r - 2 - d, -1, -1):
            j = i + d
            inner = blocks[(i + 1, j + 1)]
            block = [[_random_scalar(rng) for _ in range(sizes[j])] for _ in range(sizes[i])]
            for rr in range(sizes[i + 1]):
                for cc in range(sizes[j + 1]):
                    block[rr][cc] = inner[rr][cc]
            for rr in range(sizes[i + 1], sizes[i]):
                for cc in range(sizes[j + 1]):
                    block[rr][cc] = ZERO
            blocks[(i, j)] = block
    offs = offsets(sizes)
    return ExactMatrix.from_blocks(
        w.n, [(offs[bi], offs[bj], ExactMatrix(block)) for (bi, bj), block in blocks.items()]
    )


def sample_centralizer(w: WeyrStructure, seed: int) -> ExactMatrix:
    """Random invertible matrix commuting exactly with basic_weyr_matrix(w).

    Free entries are small Gaussian rationals; singular draws are retried a
    bounded number of times, and the commutation is checked before return.
    """
    rng = random.Random(seed)
    weyr = basic_weyr_matrix(w)
    for _ in range(CENTRALIZER_SAMPLE_ATTEMPTS):
        candidate = _random_pattern_matrix(w, rng)
        if not candidate.det():
            continue
        if candidate * weyr != weyr * candidate:
            raise RuntimeError(
                "internal error: centralizer sample fails to commute for "
                f"structure {w.sizes}"
            )
        return candidate
    raise RuntimeError(
        f"could not draw an invertible centralizer element for structure {w.sizes}"
    )
