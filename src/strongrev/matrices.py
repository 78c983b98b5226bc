"""Dense exact matrices over the Gaussian rationals, and the exact check of
a candidate reverser.

Matrices are immutable values; all operations return fresh results, so a
verification transcript built from them cannot be invalidated later.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .scalars import GaussianRational, ONE, ZERO, as_int, as_scalar, parse

__all__ = [
    "ExactMatrix",
    "PermutationMap",
    "SingularMatrixError",
    "VerificationReport",
    "check_witness",
    "direct_sum",
    "format_grid",
    "inflate",
    "offsets",
]


class SingularMatrixError(ArithmeticError):
    """Inversion was asked of a matrix with determinant zero."""


def offsets(sizes: Iterable[int]) -> tuple[int, ...]:
    """Start index of each block when blocks of the given sizes are laid
    end to end from index 0."""
    return tuple(itertools.accumulate(sizes, initial=0))[:-1]


def format_grid(text: Sequence[Sequence[str]]) -> str:
    """Rows of entry text in brackets, each column right-aligned."""
    widths = [max(map(len, column)) for column in zip(*text)]
    return "\n".join(
        "[" + "  ".join(t.rjust(w) for t, w in zip(row, widths)) + "]" for row in text
    )


def _eliminate(m: list[list[GaussianRational]], n: int) -> int:
    """Bring the leading n x n block of the rows ``m`` to upper triangular
    form in place.  Row operations act on whole rows, so columns past n (an
    augmented block) are carried along.

    Each pivot is the first nonzero entry at or below the diagonal
    (exactness makes pivot magnitude irrelevant); it is inverted once, and
    only if a row below it needs clearing.  Returns the sign of the row
    permutation, or 0 if a column has no pivot (the block is singular).
    """
    sign = 1
    for col in range(n):
        for r in range(col, n):
            if m[r][col]:
                break
        else:
            return 0
        if r != col:
            m[col], m[r] = m[r], m[col]
            sign = -sign
        prow = m[col]
        pivot_inv = None
        for row in m[col + 1 : n]:
            if not row[col]:
                continue
            if pivot_inv is None:
                pivot_inv = prow[col].inverse()
                tail = prow[col:]
            ratio = row[col] * pivot_inv
            row[col:] = [a - ratio * b if b else a for a, b in zip(row[col:], tail)]
    return sign


@dataclass(frozen=True, slots=True)
class ExactMatrix:
    """Immutable rows x cols matrix with GaussianRational entries.

    Rows are held privately as lists, which CPython frees at once instead of
    keeping dead row tuples on its free lists; ``entries`` and ``row()``
    hand out tuples, so nothing reached through them can change a matrix.
    """

    rows: int
    cols: int
    _rows: list[list[GaussianRational]]

    def __init__(self, entries: Iterable[Iterable]):
        data = [
            [v if type(v) is GaussianRational else as_scalar(v) for v in row]
            for row in entries
        ]
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "_rows", data)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, values: Sequence) -> "ExactMatrix":
        vals = [as_scalar(v) for v in values]
        n = len(vals)
        return cls([[vals[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def from_blocks(
        cls, n: int, placements: Iterable[tuple[int, int, "ExactMatrix"]]
    ) -> "ExactMatrix":
        """n x n matrix that is zero except for each (row0, col0, block)
        placement, which puts the block's top-left entry at (row0, col0)."""
        grid = [[ZERO] * n for _ in range(n)]
        for row0, col0, block in placements:
            if not (0 <= row0 <= n - block.rows and 0 <= col0 <= n - block.cols):
                raise ValueError(
                    f"{block.rows}x{block.cols} block at ({row0}, {col0}) "
                    f"does not fit in {n}x{n}"
                )
            for i, brow in enumerate(block._rows):
                grid[row0 + i][col0 : col0 + block.cols] = brow
        return cls(grid)

    def __getitem__(self, key) -> GaussianRational:
        i, j = key
        return self._rows[i][j]

    def row(self, i: int) -> tuple[GaussianRational, ...]:
        return tuple(self._rows[i])

    @property
    def entries(self) -> tuple[tuple[GaussianRational, ...], ...]:
        return tuple(map(tuple, self._rows))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def first_difference(self, other: "ExactMatrix") -> tuple[int, int] | None:
        """First (row, col) where the two matrices differ, 0-based; None if equal."""
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        for i in range(self.rows):
            if self._rows[i] != other._rows[i]:
                for j in range(self.cols):
                    if self._rows[i][j] != other._rows[i][j]:
                        return (i, j)
        return None

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch in addition")
        return ExactMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._rows, other._rows)
            ]
        )

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return ExactMatrix([[-v for v in row] for row in self._rows])

    def scale(self, c) -> "ExactMatrix":
        c = as_scalar(c)
        return ExactMatrix([[c * v for v in row] for row in self._rows])

    def __rmul__(self, other):
        try:
            c = as_scalar(other)
        except TypeError:
            return NotImplemented
        return self.scale(c)

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return self.__rmul__(other)
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # The nonzero entries of each row of other, found once.
        nonzero = [[(j, v) for j, v in enumerate(row) if v] for row in other._rows]
        out = []
        for arow in self._rows:
            acc = [ZERO] * other.cols
            for aik, bnz in zip(arow, nonzero):
                if aik:
                    for j, bkj in bnz:
                        acc[j] = acc[j] + aik * bkj
            out.append(acc)
        return ExactMatrix(out)

    def det(self) -> GaussianRational:
        """Exact determinant: the signed product of the diagonal left by
        :func:`_eliminate`."""
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        m = [list(row) for row in self._rows]
        sign = _eliminate(m, self.rows)
        if not sign:
            return ZERO
        result = ONE if sign == 1 else -ONE
        for i, row in enumerate(m):
            result = result * row[i]
        return result

    def inverse(self) -> "ExactMatrix":
        """Exact inverse: :func:`_eliminate` on ``[A | I]``, then back
        substitution through the triangular ``A`` part."""
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        m = [row + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(self._rows)]
        if not _eliminate(m, n):
            raise SingularMatrixError("matrix is singular")
        inv: list[list[GaussianRational]] = [[]] * n
        for i in range(n - 1, -1, -1):
            row = m[i]
            acc = row[n:]
            for k in range(i + 1, n):
                u = row[k]
                if u:
                    acc = [a - u * b if b else a for a, b in zip(acc, inv[k])]
            pivot_inv = row[i].inverse()
            inv[i] = [pivot_inv * a for a in acc]
        return ExactMatrix(inv)

    def is_identity(self) -> bool:
        if not self.is_square():
            return False
        return self == ExactMatrix.identity(self.rows)

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[str(v) for v in row] for row in self._rows],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExactMatrix":
        """Strict reader: rows and cols are JSON integers and entries is a
        list of lists of scalar text; nothing else is coerced."""
        rows = as_int(data["rows"])
        cols = as_int(data["cols"])
        entries = data["entries"]
        if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
            raise ValueError("entries must be a list of rows, each a list")
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry grid does not match declared shape")
        return cls([[parse(v) for v in row] for row in entries])

    def __str__(self) -> str:
        return format_grid([[str(v) for v in row] for row in self._rows])

    def __repr__(self) -> str:
        return f"<ExactMatrix {self.rows}x{self.cols}>"


def direct_sum(blocks: Sequence[ExactMatrix]) -> ExactMatrix:
    """Block-diagonal assembly of square blocks, order preserved."""
    blocks = list(blocks)
    if not blocks:
        raise ValueError("direct_sum needs at least one block")
    if any(not b.is_square() for b in blocks):
        raise ValueError("direct_sum blocks must be square")
    starts = offsets(b.rows for b in blocks)
    return ExactMatrix.from_blocks(
        sum(b.rows for b in blocks), [(k, k, b) for k, b in zip(starts, blocks)]
    )


def inflate(coeffs: ExactMatrix, sizes: Sequence[int]) -> ExactMatrix:
    """Replace each entry c of the r x r matrix coeffs by the block
    c * I_{sizes[i] x sizes[j]}: c on the leading diagonal of block (i, j),
    zero elsewhere."""
    r = len(sizes)
    if coeffs.rows != r or coeffs.cols != r:
        raise ValueError("coefficient matrix size does not match the block sizes")
    starts = offsets(sizes)
    n = sum(sizes)
    grid = [[ZERO] * n for _ in range(n)]
    for i, row in enumerate(coeffs._rows):
        for j, c in enumerate(row):
            if c:
                for t in range(min(sizes[i], sizes[j])):
                    grid[starts[i] + t][starts[j] + t] = c
    return ExactMatrix(grid)


@dataclass(frozen=True, slots=True)
class PermutationMap:
    """Bijection of {1..n}, stored as the 1-based image list.

    As a matrix it is orthogonal with entries in {0,1}: column k carries a
    single 1 in row images[k].
    """

    images: tuple[int, ...]

    def __init__(self, images: Sequence[int]):
        imgs = tuple(as_int(v) for v in images)
        n = len(imgs)
        if sorted(imgs) != list(range(1, n + 1)):
            raise ValueError("images must be a permutation of 1..n")
        object.__setattr__(self, "images", imgs)

    def __len__(self) -> int:
        return len(self.images)

    def __repr__(self) -> str:
        return f"PermutationMap({list(self.images)})"

    @classmethod
    def identity(cls, n: int) -> "PermutationMap":
        return cls(range(1, n + 1))

    def inverse(self) -> "PermutationMap":
        inv = [0] * len(self.images)
        for k, img in enumerate(self.images):
            inv[img - 1] = k + 1
        return PermutationMap(inv)

    def matrix(self) -> ExactMatrix:
        n = len(self.images)
        grid = [[ZERO] * n for _ in range(n)]
        for k, img in enumerate(self.images):
            grid[img - 1][k] = ONE
        return ExactMatrix(grid)

    def sign(self) -> int:
        """Parity of the permutation via cycle decomposition."""
        seen = [False] * len(self.images)
        sign = 1
        for start in range(len(self.images)):
            if seen[start]:
                continue
            length = 0
            k = start
            while not seen[k]:
                seen[k] = True
                k = self.images[k] - 1
                length += 1
            if length % 2 == 0:
                sign = -sign
        return sign

    def conjugate(self, a: ExactMatrix) -> ExactMatrix:
        """P a P^{-1} for the permutation matrix P with P e_k = e_{images[k]}."""
        n = len(self.images)
        if a.rows != n or a.cols != n:
            raise ValueError("matrix size does not match the permutation")
        img0 = [v - 1 for v in self.images]
        grid = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            target = grid[img0[i]]
            arow = a._rows[i]
            for j in range(n):
                target[img0[j]] = arow[j]
        return ExactMatrix(grid)


@dataclass(frozen=True)
class VerificationReport:
    """Exact facts about a candidate reverser g of a matrix a.

    ``residuals`` lists, per failed matrix check, the first differing entry
    position (1-based), or None when the check failed without a comparable
    position (singular g).
    """

    reverses: bool
    involution: bool
    determinant: GaussianRational
    in_special: bool
    residuals: tuple[tuple[str, tuple[int, int] | None], ...]

    def all_good(self) -> bool:
        return self.reverses and self.involution and self.in_special

    def to_json_dict(self) -> dict:
        return {
            "reverses": self.reverses,
            "involution": self.involution,
            "determinant": str(self.determinant),
            "in_special": self.in_special,
            "residuals": [
                {"check": name, "position": list(pos) if pos else None}
                for name, pos in self.residuals
            ],
        }


def check_witness(a: ExactMatrix, g: ExactMatrix) -> VerificationReport:
    """Decide g a g^{-1} == a^{-1}, g^2 == I and det g exactly.

    For invertible a and g the reversal identity is equivalent to
    a g a == g, so a passing check inverts nothing.  Only a failed reversal
    check inverts both matrices, to report the first entry where
    g a g^{-1} and a^{-1} differ.
    """
    if not a.is_square() or not g.is_square() or a.rows != g.rows:
        raise ValueError("dimension mismatch between matrix and candidate reverser")
    if not a.det():
        raise SingularMatrixError("matrix is singular")
    residuals: list[tuple[str, tuple[int, int] | None]] = []
    det = g.det()
    if not det:
        reverses = False
        residuals.append(("reverses", None))
    else:
        ga = g * a
        reverses = a * ga == g
        if not reverses:
            i, j = (ga * g.inverse()).first_difference(a.inverse())
            residuals.append(("reverses", (i + 1, j + 1)))
    pos = (g * g).first_difference(ExactMatrix.identity(g.rows))
    involution = pos is None
    if pos is not None:
        residuals.append(("involution", (pos[0] + 1, pos[1] + 1)))
    return VerificationReport(reverses, involution, det, det == ONE, tuple(residuals))
