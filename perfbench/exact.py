"""Exact Q(i) arithmetic and the verdict oracle, independent of strongrev.

Scalars are pairs ``(re, im)`` of ``Fraction``; matrices are lists of rows.
The benchmark builds its inputs and checks the program's outputs with this
module only, so a defect in the package under test cannot agree with itself.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))
MINUS_ONE = (Fraction(-1), Fraction(0))

STRONG, REVERSIBLE_ONLY, NOT_REVERSIBLE = "strong", "reversible-only", "not-reversible"


def scalar(re, im=0) -> tuple[Fraction, Fraction]:
    return (Fraction(re), Fraction(im))


def add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def mul(x, y):
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c)


def inv(x):
    norm = x[0] * x[0] + x[1] * x[1]
    if not norm:
        raise ZeroDivisionError("division by zero in Q(i)")
    return (x[0] / norm, -x[1] / norm)


def parse(text: str):
    """Read the scalar grammar ``real``, ``real imag`` or ``imag``."""
    if not text.endswith("i"):
        return (Fraction(text), Fraction(0))
    body = text[:-1]
    cut = max(body.rfind("+"), body.rfind("-"))
    real, imag = ("0", body) if cut <= 0 else (body[:cut], body[cut:])
    if imag in ("", "+", "-"):
        imag += "1"
    return (Fraction(real), Fraction(imag))


def fmt(x) -> str:
    re, im = x
    if not im:
        return str(re)
    mag = abs(im)
    imag = "i" if mag == 1 else f"{mag}i"
    if not re:
        return imag if im > 0 else "-" + imag
    return f"{re}{'+' if im > 0 else '-'}{imag}"


def height_bits(x) -> int:
    return max(
        max(abs(f.numerator).bit_length(), f.denominator.bit_length()) for f in x
    )


# ---------------------------------------------------------------- matrices


def zeros(n: int) -> list[list]:
    return [[ZERO] * n for _ in range(n)]


def identity(n: int) -> list[list]:
    m = zeros(n)
    for i in range(n):
        m[i][i] = ONE
    return m


def matmul(a, b):
    cols = len(b[0])
    out = []
    for arow in a:
        acc = [ZERO] * cols
        for k, aik in enumerate(arow):
            if aik == ZERO:
                continue
            for j, bkj in enumerate(b[k]):
                if bkj != ZERO:
                    acc[j] = add(acc[j], mul(aik, bkj))
        out.append(acc)
    return out


def det(m):
    """Determinant by elimination on a copy."""
    n = len(m)
    work = [list(row) for row in m]
    result = ONE
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col] != ZERO), None)
        if pivot_row is None:
            return ZERO
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            result = mul(result, MINUS_ONE)
        pivot_inv = inv(work[col][col])
        result = mul(result, work[col][col])
        for r in range(col + 1, n):
            if work[r][col] == ZERO:
                continue
            ratio = mul(work[r][col], pivot_inv)
            row, prow = work[r], work[col]
            for j in range(col, n):
                if prow[j] != ZERO:
                    row[j] = sub(row[j], mul(ratio, prow[j]))
    return result


def first_difference(a, b):
    for i, (ra, rb) in enumerate(zip(a, b)):
        if ra != rb:
            return next((i, j) for j, (x, y) in enumerate(zip(ra, rb)) if x != y)
    return None


def place(grid, block, row0: int, col0: int) -> None:
    for i, brow in enumerate(block):
        grid[row0 + i][col0 : col0 + len(brow)] = brow


def jordan(blocks) -> list[list]:
    """Block-diagonal Jordan matrix, blocks in the given order."""
    n = sum(size for _, size in blocks)
    m = zeros(n)
    offset = 0
    for eig, size in blocks:
        for i in range(size):
            m[offset + i][offset + i] = eig
            if i + 1 < size:
                m[offset + i][offset + i + 1] = ONE
        offset += size
    return m


def reverser(lam, n: int) -> list[list]:
    """R(lam, n) from its recurrence: R J(1/lam) = J(lam)^-1 R, and
    R(lam) R(1/lam) = I, so R(+-1, n) is an involutive reverser of J(+-1, n)."""
    lam_inv = inv(lam)
    lam_inv2 = mul(lam_inv, lam_inv)
    m = zeros(n)
    m[n - 1][n - 1] = ONE
    for i in range(n - 2, -1, -1):
        for j in range(i, n - 1):
            below = m[i + 1][j] if j > i else ZERO
            m[i][j] = sub(mul(MINUS_ONE, mul(lam_inv2, m[i + 1][j + 1])), mul(lam_inv, below))
    return m


# ---------------------------------------------------------------- oracle


def verdict(blocks) -> tuple[str, int]:
    """(verdict, parity value) of a Jordan class of SL(n) over Q(i).

    Restates the classification: reversible iff every eigenvalue other than
    +-1 has the same block sizes as its inverse; then strongly reversible iff
    d(p) or d(q) has an odd part or the parity value (parts = 2 mod 4 of d(p)
    and d(q), with multiplicity, plus (n - p - q)/2) is even.
    """
    sizes = defaultdict(list)
    for eig, size in blocks:
        sizes[eig].append(size)
    reversible = all(
        eig in (ONE, MINUS_ONE) or sorted(ss) == sorted(sizes.get(inv(eig), ()))
        for eig, ss in sizes.items()
    )
    signed = sizes.get(ONE, []) + sizes.get(MINUS_ONE, [])
    rest = sum(size for _, size in blocks) - sum(signed)
    parity = sum(1 for s in signed if s % 4 == 2) + rest // 2
    if not reversible:
        return NOT_REVERSIBLE, parity
    if any(s % 2 for s in signed) or parity % 2 == 0:
        return STRONG, parity
    return REVERSIBLE_ONLY, parity


def expected_exit(command: str, blocks, sl_only: bool = False) -> int:
    """Exit code `classify` or `witness` owes for a well-formed spec."""
    v, _ = verdict(blocks)
    if v == NOT_REVERSIBLE:
        return 2
    if v == STRONG or (command == "witness" and sl_only):
        return 0
    return 1


def conjugate_partition(parts) -> list[int]:
    width = max(parts, default=0)
    return [sum(1 for p in parts if p > j) for j in range(width)]


def basic_weyr(eig, sizes) -> list[list]:
    n = sum(sizes)
    m = zeros(n)
    offs = [sum(sizes[:b]) for b in range(len(sizes))]
    for b, size in enumerate(sizes):
        for t in range(size):
            m[offs[b] + t][offs[b] + t] = eig
        if b + 1 < len(sizes):
            for t in range(sizes[b + 1]):
                m[offs[b] + t][offs[b + 1] + t] = ONE
    return m


def verify_expectation(a, g) -> dict:
    """Flags and exit code `strongrev verify` owes for raw matrices a, g.

    For invertible g, g A g^-1 = A^-1 holds exactly when A g A = g.
    """
    d = det(g)
    reverses = d != ZERO and matmul(matmul(a, g), a) == g
    pos = first_difference(matmul(g, g), identity(len(g)))
    involution = pos is None
    return {
        "reverses": reverses,
        "involution": involution,
        "determinant": d,
        "in_special": d == ONE,
        "involution_position": None if pos is None else [pos[0] + 1, pos[1] + 1],
        "exit": 0 if reverses and involution and d == ONE else 1,
    }
