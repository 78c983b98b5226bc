"""Dense exact matrices over the Gaussian rationals, and the exact check of
a candidate reverser.

Matrices are immutable values; all operations return fresh results, so a
verification transcript built from them cannot be invalidated later.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from math import gcd, lcm, prod
from typing import Iterable, Sequence

from .scalars import (
    GaussianRational,
    MINUS_ONE,
    ONE,
    ZERO,
    as_int,
    as_scalar,
    format_triple,
    from_triple,
    json_fields,
    parse,
)

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


def _normalized(re: list[list[int]], im: list[list[int]], d: int):
    """(re, im, d) with the gcd of d and every numerator divided out."""
    if d == 1:
        return re, im, d
    g = d
    for row in itertools.chain(re, im):
        g = gcd(g, *row)
        if g == 1:
            return re, im, d
    return [[x // g for x in row] for row in re], [[x // g for x in row] for row in im], d // g


def _clear(re: list[list[int]], im: list[list[int]], den: list[int], r: int, c: int) -> None:
    """Subtract from row r the multiple of row c that makes its column-c
    entry zero.

    Row k holds the values (re[k] + im[k]*i)/den[k], normalized like a
    matrix.  With X, Y the numerator rows of r and c, p = Y[c] and x = X[c],
    the new row r is (p*X - x*Y)/(den[r]*p), that is
    (|p|^2 X - x conj(p) Y)/(den[r] |p|^2); the scale of row c cancels.  For
    a real p, |p| and x*sign(p) stand in for |p|^2 and x conj(p).  Both rows
    are zero before column s = min(r, c), so only the columns from there on
    are touched.
    """
    s = min(r, c)
    xr, yr, xi, yi = re[r][s:], re[c][s:], im[r][s:], im[c][s:]
    pa, pb, xa, xb = yr[c - s], yi[c - s], xr[c - s], xi[c - s]
    if pb:
        n2, qa, qb = pa * pa + pb * pb, xa * pa + xb * pb, xb * pa - xa * pb
    elif pa > 0:
        n2, qa, qb = pa, xa, xb
    else:
        n2, qa, qb = -pa, -xa, -xb
    if qb:
        nr = [n2 * u - qa * v + qb * w for u, v, w in zip(xr, yr, yi)]
        ni = [n2 * t - qa * w - qb * v for t, v, w in zip(xi, yr, yi)]
    else:
        nr = [n2 * u - qa * v for u, v in zip(xr, yr)]
        ni = [n2 * t - qa * w for t, w in zip(xi, yi)] if any(xi) or any(yi) else xi
    e = den[r] * n2
    if e != 1:
        g = gcd(e, *nr, *ni)
        if g > 1:
            nr = [u // g for u in nr]
            ni = [t // g for t in ni]
            e //= g
    den[r] = e
    re[r][s:] = nr
    im[r][s:] = ni


def _eliminate(re: list[list[int]], im: list[list[int]], den: list[int], n: int) -> int:
    """Bring the leading n x n block of the rows (re + im*i)/den to upper
    triangular form in place, by :func:`_clear`.  Row operations act on
    whole rows, so columns past n (an augmented block) are carried along.

    Each pivot is the first nonzero entry at or below the diagonal
    (exactness makes pivot magnitude irrelevant), and only rows with a
    nonzero in the pivot column are updated.  Returns the sign of the row
    permutation, or 0 if a column has no pivot (the block is singular).
    """
    sign = 1
    for col in range(n):
        for r in range(col, n):
            if re[r][col] or im[r][col]:
                break
        else:
            return 0
        if r != col:
            re[col], re[r] = re[r], re[col]
            im[col], im[r] = im[r], im[col]
            den[col], den[r] = den[r], den[col]
            sign = -sign
        for r in range(col + 1, n):
            if re[r][col] or im[r][col]:
                _clear(re, im, den, r, col)
    return sign


def _columns(re: list[list[int]], im: list[list[int]]):
    """The right factor re + im*i of :func:`_product`: each row with the
    columns of its nonzeros, and None for imaginary rows that are all zero."""
    cols = range(len(re[0]))
    re = [(list(itertools.compress(cols, row)), row) for row in re]
    if not any(map(any, im)):
        return re, None
    return re, [(list(itertools.compress(cols, row)), row) for row in im]


def _product(a_re: list[list[int]], a_im: list[list[int]], b) -> tuple[list, list]:
    """Real and imaginary rows of the product of the integer matrix a_re +
    a_im*i and b, given by its :func:`_columns`; a zero imaginary part, in a
    row of a or in all of b, skips half the work."""
    b_re, b_im = b
    width, inner = len(b_re[0][1]), range(len(b_re))
    out_re, out_im = [], []
    for arow, irow in zip(a_re, a_im):
        cr, ci = [0] * width, [0] * width
        for k in itertools.compress(inner, arow):
            x = arow[k]
            js, brow = b_re[k]
            for j in js:
                cr[j] += x * brow[j]
            if b_im:
                js, brow = b_im[k]
                for j in js:
                    ci[j] += x * brow[j]
        if any(irow):
            for k in itertools.compress(inner, irow):
                y = irow[k]
                js, brow = b_re[k]
                for j in js:
                    ci[j] += y * brow[j]
                if b_im:
                    js, brow = b_im[k]
                    for j in js:
                        cr[j] -= y * brow[j]
        out_re.append(cr)
        out_im.append(ci)
    return out_re, out_im


@dataclass(frozen=True, slots=True)
class ExactMatrix:
    """Immutable rows x cols matrix over the Gaussian rationals.

    Entry (i, j) is (_re[i][j] + _im[i][j]*i)/_d: two lists of Python-int
    rows and one positive denominator, normalized so that the gcd of _d and
    every numerator is 1.  Equal matrices therefore have equal fields, and
    the generated ``==`` is exact equality.  Arithmetic works on the ints;
    ``m[i, j]``, ``row()`` and ``entries`` hand out GaussianRational values
    in tuples, so nothing reached through them can change a matrix.
    """

    rows: int
    cols: int
    _re: list[list[int]]
    _im: list[list[int]]
    _d: int

    def __init__(self, entries: Iterable[Iterable]):
        data = [
            [(v if type(v) is GaussianRational else as_scalar(v)).triple for v in row]
            for row in entries
        ]
        if data and data[0] and any(len(row) != len(data[0]) for row in data):
            raise ValueError("ragged rows")
        d = lcm(*(e for row in data for _, _, e in row))
        re = [[a * (d // e) for a, _, e in row] for row in data]
        im = [[b * (d // e) for _, b, e in row] for row in data]
        _fill(self, *_normalized(re, im, d))

    @classmethod
    def from_numerators(
        cls, re: list[list[int]], im: list[list[int]], d: int
    ) -> "ExactMatrix":
        """The matrix (re + im*i)/d for equally long nonempty rows of ints
        and an int d > 0, with the gcd of d and every numerator divided out
        by :func:`_normalized`, as in every construction but the trusted
        build of :meth:`from_blocks`.  The row lists are taken over, not
        copied."""
        m = object.__new__(cls)
        _fill(m, *_normalized(re, im, d))
        return m

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        re = [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]
        return cls.from_numerators(re, [[0] * n for _ in range(n)], 1)

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
        placement, which puts the block's top-left entry at (row0, col0).
        Blocks may share rows, but a block placed over a nonzero entry of an
        earlier one raises ValueError.

        The result is normalized as built.  Over the lcm d of the block
        denominators, block k's numerators are multiplied by d / d_k.  For a
        prime p dividing d, take a block k whose d_k holds the highest power
        of p in d: p divides d_k but not d / d_k, and block k is normalized,
        so p misses one of its numerators and that numerator times d / d_k.
        So no prime divides d and every numerator.  A row is concatenated
        from zeros and block rows the first time a block reaches it.
        """
        placements = list(placements)
        d = lcm(*(block._d for _, _, block in placements))
        re: list = [None] * n
        im: list = [None] * n
        for row0, col0, block in placements:
            if not (0 <= row0 <= n - block.rows and 0 <= col0 <= n - block.cols):
                raise ValueError(
                    f"{block.rows}x{block.cols} block at ({row0}, {col0}) "
                    f"does not fit in {n}x{n}"
                )
            f, end = d // block._d, col0 + block.cols
            left, right = [0] * col0, [0] * (n - end)
            for i, br, bi in zip(range(row0, n), block._re, block._im):
                if f != 1:
                    br, bi = [x * f for x in br], [x * f for x in bi]
                if re[i] is None:
                    re[i], im[i] = left + br + right, left + bi + right
                elif any(re[i][col0:end]) or any(im[i][col0:end]):
                    raise ValueError(f"block at ({row0}, {col0}) overlaps an earlier block")
                else:
                    re[i][col0:end], im[i][col0:end] = br, bi
        for i in range(n):
            if re[i] is None:
                re[i], im[i] = [0] * n, [0] * n
        m = object.__new__(cls)
        _fill(m, re, im, d)
        return m

    def __getitem__(self, key) -> GaussianRational:
        i, j = key
        return from_triple(self._re[i][j], self._im[i][j], self._d)

    def row(self, i: int) -> tuple[GaussianRational, ...]:
        return tuple(map(from_triple, self._re[i], self._im[i], itertools.repeat(self._d)))

    @property
    def entries(self) -> tuple[tuple[GaussianRational, ...], ...]:
        return tuple(map(self.row, range(self.rows)))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def first_difference(self, other: "ExactMatrix") -> tuple[int, int] | None:
        """First (row, col) where the two matrices differ, 0-based; None if equal."""
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        # Entries are compared cross-multiplied by the other denominator.
        s, t = (1, 1) if self._d == other._d else (other._d, self._d)
        rows = zip(self._re, self._im, other._re, other._im)
        for i, (ar, ai, br, bi) in enumerate(rows):
            if s == t and ar == br and ai == bi:
                continue
            for j in range(self.cols):
                if ar[j] * s != br[j] * t or ai[j] * s != bi[j] * t:
                    return (i, j)
        return None

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch in addition")
        s, t = other._d, self._d
        return ExactMatrix.from_numerators(
            [[x * s + y * t for x, y in zip(a, b)] for a, b in zip(self._re, other._re)],
            [[x * s + y * t for x, y in zip(a, b)] for a, b in zip(self._im, other._im)],
            s * t,
        )

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "ExactMatrix":
        a, b, e = as_scalar(c).triple
        return ExactMatrix.from_numerators(
            [[a * x - b * y for x, y in zip(r, i)] for r, i in zip(self._re, self._im)],
            [[a * y + b * x for x, y in zip(r, i)] for r, i in zip(self._re, self._im)],
            self._d * e,
        )

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
        return ExactMatrix.from_numerators(
            *_product(self._re, self._im, _columns(other._re, other._im)), self._d * other._d
        )

    def _numerator_rows(self, extra: int = 0) -> tuple[list[list[int]], list[list[int]]]:
        """Fresh copies of the numerator rows, each followed by ``extra``
        columns of the identity."""
        re = [row + [int(i == j) for j in range(extra)] for i, row in enumerate(self._re)]
        return re, [row + [0] * extra for row in self._im]

    def det(self) -> GaussianRational:
        """Exact determinant: the signed product of the diagonal left by
        :func:`_eliminate` on the numerators M, and det(M/d) = det(M)/d^n."""
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        re, im = self._numerator_rows()
        den = [1] * n
        a, b = _eliminate(re, im, den, n), 0
        if not a:
            return ZERO
        for i in range(n):
            x, y = re[i][i], im[i][i]
            a, b = a * x - b * y, a * y + b * x
        return from_triple(a, b, prod(den) * self._d**n)

    def inverse(self) -> "ExactMatrix":
        """Exact inverse: :func:`_eliminate` on ``[M | I]`` for the numerators
        M = d*A, then :func:`_clear` above each pivot from the last column
        back.  That leaves in row i only the pivot p_i on the left and V_i
        on the right, over one row denominator, so row i of A^{-1} is
        d V_i / p_i."""
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        re, im = self._numerator_rows(n)
        den = [1] * n
        if not _eliminate(re, im, den, n):
            raise SingularMatrixError("matrix is singular")
        for col in range(n - 1, 0, -1):
            for r in range(col):
                if re[r][col] or im[r][col]:
                    _clear(re, im, den, r, col)
        # d V_i / p_i = d V_i conj(p_i) / |p_i|^2, over the least common
        # multiple of the |p_i|^2.
        norms = [re[i][i] ** 2 + im[i][i] ** 2 for i in range(n)]
        common = lcm(*norms)
        out_re, out_im = [], []
        for i, norm in enumerate(norms):
            f = common // norm * self._d
            pa, pb = re[i][i] * f, -im[i][i] * f
            vr, vi = re[i][n:], im[i][n:]
            out_re.append([pa * x - pb * y for x, y in zip(vr, vi)])
            out_im.append([pa * y + pb * x for x, y in zip(vr, vi)])
        return ExactMatrix.from_numerators(out_re, out_im, common)

    def is_identity(self) -> bool:
        return self == ExactMatrix.identity(self.rows)

    def to_json_dict(self) -> dict:
        """Rows, cols and the entry text.  Each row starts as a copy of a row
        of "0" and only its nonzero entries are formatted, a real row over
        denominator 1 by str of the numerator."""
        d, cols, zeros = self._d, range(self.cols), ["0"] * self.cols
        entries = []
        for r, i in zip(self._re, self._im):
            row = zeros.copy()
            if d == 1 and not any(i):
                for j in itertools.compress(cols, r):
                    row[j] = str(r[j])
            else:
                for j in itertools.compress(cols, map(operator.or_, r, i)):
                    row[j] = format_triple(r[j], i[j], d)
            entries.append(row)
        return {"rows": self.rows, "cols": self.cols, "entries": entries}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExactMatrix":
        """Strict reader: an object with the keys rows and cols, JSON
        integers, and entries, a list of lists of scalar text; nothing else
        is read or coerced.

        Each distinct text is parsed once, in order of first appearance, so
        a malformed grid raises what parsing its first bad entry in
        row-major order raises."""
        rows, cols, entries = json_fields(data, ("rows", "cols", "entries"), "the matrix")
        rows, cols = as_int(rows), as_int(cols)
        if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
            raise ValueError("entries must be a list of rows, each a list")
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry grid does not match declared shape")
        try:
            texts = dict.fromkeys(itertools.chain.from_iterable(entries))
        except TypeError:
            # An unhashable entry is not text; parse in row-major order up
            # to the first bad entry, which is that one or an earlier one.
            for v in itertools.chain.from_iterable(entries):
                parse(v)
            raise
        triples = [parse(v).triple for v in texts]
        d = lcm(*(e for _, _, e in triples))
        re_of = {v: a * (d // e) for v, (a, _, e) in zip(texts, triples)}
        im_of = {v: b * (d // e) for v, (_, b, e) in zip(texts, triples)}
        return cls.from_numerators(
            [list(map(re_of.__getitem__, row)) for row in entries],
            [list(map(im_of.__getitem__, row)) for row in entries],
            d,
        )

    def __str__(self) -> str:
        return format_grid(self.to_json_dict()["entries"])

    def __repr__(self) -> str:
        return f"<ExactMatrix {self.rows}x{self.cols}>"


def _fill(m: ExactMatrix, re: list[list[int]], im: list[list[int]], d: int) -> None:
    """Set the fields of a new matrix from rows and a denominator that are
    normalized: by :func:`_normalized`, or by the proof in
    :meth:`ExactMatrix.from_blocks`."""
    if not re or not re[0]:
        raise ValueError("matrix must have at least one row and column")
    set_field = object.__setattr__
    set_field(m, "rows", len(re))
    set_field(m, "cols", len(re[0]))
    set_field(m, "_re", re)
    set_field(m, "_im", im)
    set_field(m, "_d", d)


def _read_a(a: ExactMatrix):
    """(starts, columns) for an invertible a: the first index of each
    maximal run of indices joined by nonzero superdiagonal entries of a, or
    None if a is not upper bidiagonal, and the :func:`_columns` of a's
    numerators, found in the same scan of a's rows when it is.

    An upper bidiagonal a is triangular, so it is singular exactly when a
    diagonal entry is zero, and the scan raises SingularMatrixError then;
    any other a raises it when its determinant is zero."""
    n = a.cols
    starts, re_cols, im_cols, imaginary, singular = [0], [], [], False, False
    for i, (row_re, row_im) in enumerate(zip(a._re, a._im)):
        x, y = row_re[i], row_im[i]
        u, v = (row_re[i + 1], row_im[i + 1]) if i + 1 < n else (0, 0)
        # Zeros plus the nonzeros at i and i + 1 make the whole row exactly
        # when every nonzero lies at i or i + 1.
        if (
            row_re.count(0) + (x != 0) + (u != 0) != n
            or row_im.count(0) + (y != 0) + (v != 0) != n
        ):
            if not a.det():
                raise SingularMatrixError("matrix is singular")
            return None, _columns(a._re, a._im)
        if i + 1 < n and not (u or v):
            starts.append(i + 1)
        singular = singular or not (x or y)
        imaginary = imaginary or y or v
        re_cols.append(((([i, i + 1] if u else [i]) if x else [i + 1] if u else []), row_re))
        im_cols.append(((([i, i + 1] if v else [i]) if y else [i + 1] if v else []), row_im))
    if singular:
        raise SingularMatrixError("matrix is singular")
    return starts, (re_cols, im_cols if imaginary else None)


def _square_difference(
    g: ExactMatrix, sign: int = 1, starts: list[int] | None = None, columns=None
) -> tuple[int, int] | None:
    """first_difference of g * g and sign * I (sign 1 or -1), read from the
    rows of g * g at the indices starts, or at every index if starts is None;
    columns, if given, are the :func:`_columns` of g's numerators.

    Pass the starts of _read_a(a) only if a g a = g;
    check_witness shows why the rows at the run starts then decide
    g^2 = sign * I, and why the first of them that differs holds the first
    difference.
    """
    rows, columns = range(g.rows) if starts is None else starts, columns or _columns(g._re, g._im)
    out_re, out_im = _product([g._re[p] for p in rows], [g._im[p] for p in rows], columns)
    # Over the numerators G = d g, g^2 = sign * I reads G^2 = sign * d^2 * I.
    s = sign * g._d * g._d
    for p, row_re, row_im in zip(rows, out_re, out_im):
        row_re[p] -= s
        if any(row_re) or any(row_im):
            return p, next(j for j, (x, y) in enumerate(zip(row_re, row_im)) if x or y)
    return None


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
    re = [[0] * n for _ in range(n)]
    im = [[0] * n for _ in range(n)]
    for i, (crow, irow) in enumerate(zip(coeffs._re, coeffs._im)):
        for j, (a, b) in enumerate(zip(crow, irow)):
            if a or b:
                for t in range(min(sizes[i], sizes[j])):
                    re[starts[i] + t][starts[j] + t] = a
                    im[starts[i] + t][starts[j] + t] = b
    return ExactMatrix.from_numerators(re, im, coeffs._d)


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
        re = [[0] * n for _ in range(n)]
        for k, img in enumerate(self.images):
            re[img - 1][k] = 1
        return ExactMatrix.from_numerators(re, [[0] * n for _ in range(n)], 1)

    def sign(self) -> int:
        """Parity of the permutation: n minus its number of cycles."""
        seen, cycles = set(), 0
        for k in range(len(self.images)):
            cycles += k not in seen
            while k not in seen:
                seen.add(k)
                k = self.images[k] - 1
        return -1 if (len(self.images) - cycles) % 2 else 1

    def conjugate(self, a: ExactMatrix) -> ExactMatrix:
        """P a P^{-1} for the permutation matrix P with P e_k = e_{images[k]}."""
        n = len(self.images)
        if a.rows != n or a.cols != n:
            raise ValueError("matrix size does not match the permutation")
        # entry (r, c) of P a P^{-1} is entry (inv[r], inv[c]) of a
        inv = [k - 1 for k in self.inverse().images]

        def moved(rows: list[list[int]]) -> list[list[int]]:
            return [[row[k] for k in inv] for row in map(rows.__getitem__, inv)]

        return ExactMatrix.from_numerators(moved(a._re), moved(a._im), a._d)


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


def _reverses(a: ExactMatrix, g: ExactMatrix, a_columns, g_columns) -> bool:
    """a g a == g, decided on the numerators A = d_a a and G = d_g g as
    (A G) A == d_a^2 G, given the :func:`_columns` of A and G, with no
    matrix built and nothing normalized."""
    re, im = _product(*_product(a._re, a._im, g_columns), a_columns)
    s = a._d * a._d
    if s == 1:
        return re == g._re and im == g._im
    return all(x == [s * v for v in u] for x, u in zip(re + im, g._re + g._im))


def _involution_det(g: ExactMatrix) -> GaussianRational:
    """det g for a g with g^2 = I.  Every eigenvalue of g is 1 or -1, so
    tr g = n - 2m for the number m of eigenvalues -1, and det g = (-1)^m."""
    n, d = g.rows, g._d
    m, rest = divmod(n * d - sum(row[i] for i, row in enumerate(g._re)), 2 * d)
    if rest or sum(row[i] for i, row in enumerate(g._im)):
        raise RuntimeError("internal error: an involution with a trace that is not an integer")
    return MINUS_ONE if m % 2 else ONE


def check_witness(a: ExactMatrix, g: ExactMatrix) -> VerificationReport:
    """Decide g a g^{-1} == a^{-1}, g^2 == I and det g exactly.

    a must be invertible.  Once the shapes fit, a is read in one scan of
    its rows (:func:`_read_a`): an upper bidiagonal a is invertible exactly
    when its diagonal has no zero, and the same scan finds its run starts
    and the nonzero columns of its rows; any other a is checked by its
    determinant.  For invertible a and g the reversal identity is
    equivalent to a g a == g, decided first, on the numerators as
    (A G) A == d_a^2 G, inverting nothing.  The nonzero columns of G's rows
    are found once, for A G and for the rows of g^2.  Only a failed
    reversal check with an invertible g inverts both matrices, to report the
    first entry where g a g^{-1} and a^{-1} differ.

    Once a g a = g holds, g^2 = I is decided on a few rows of g^2 when a is
    upper bidiagonal.  Lemma: a g a = g gives g a = a^{-1} g and
    a g = g a^{-1}, so g^2 a = g a^{-1} g = a g^2, and c = g^2 commutes
    with a; g need not be invertible.  Split the indices into maximal runs
    p..q joined by nonzero superdiagonal entries.  Within a run
    e_{j+1}^T = e_j^T (a - a_jj) / a_{j,j+1}, so e_j^T c = (e_p^T c) P_j(a)
    for a polynomial P_j with e_j^T = e_p^T P_j(a); a row p of c equal to
    sign * e_p^T (sign 1 or -1) makes row j equal to sign * e_j^T
    throughout the run.  So only the rows of g^2 at the run starts are
    computed.  A failing start row p is the first differing row of its run,
    so the first failing start row holds the first difference of g^2 and
    I.  Every row of g^2 is computed when a g a != g or a is not
    upper bidiagonal; a diagonal a has a run start at every index.

    An involution has eigenvalues 1 and -1 only, so its determinant is
    read from its trace; only a g with g^2 != I is eliminated for det g,
    and a singular g fails the reversal check with no position.
    """
    return _check(a, g)


def _check(a: ExactMatrix, g: ExactMatrix, reading=None) -> VerificationReport:
    """check_witness(a, g), given reading = _read_a(a) or reading a here once
    the shapes fit; a caller with many g for one a reads it once."""
    if not a.is_square() or not g.is_square() or a.rows != g.rows:
        raise ValueError("dimension mismatch between matrix and candidate reverser")
    starts, a_columns = reading or _read_a(a)
    columns = _columns(g._re, g._im)
    reverses = _reverses(a, g, a_columns, columns)
    pos = _square_difference(g, 1, starts if reverses else None, columns)
    det = _involution_det(g) if pos is None else g.det()
    residuals: list[tuple[str, tuple[int, int] | None]] = []
    if not det:
        reverses = False
        residuals.append(("reverses", None))
    elif not reverses:
        i, j = (g * a * g.inverse()).first_difference(a.inverse())
        residuals.append(("reverses", (i + 1, j + 1)))
    if pos is not None:
        residuals.append(("involution", (pos[0] + 1, pos[1] + 1)))
    return VerificationReport(reverses, pos is None, det, det == ONE, tuple(residuals))
