"""Independent oracles used by the tests.

These deliberately avoid the library's elimination code paths so that a
value computed here and a value computed by the package confirm each other.
"""

from fractions import Fraction
import random
import re

from strongrev.matrices import ExactMatrix, SingularMatrixError, VerificationReport
from strongrev.scalars import GaussianRational, MINUS_ONE, ONE, ScalarParseError, ZERO


def laplace_det(m: ExactMatrix) -> GaussianRational:
    """Determinant by cofactor expansion along the first row (O(n!))."""
    n = m.rows
    if n == 1:
        return m[0, 0]
    total = ZERO
    for j in range(n):
        coeff = m[0, j]
        if not coeff:
            continue
        minor = ExactMatrix(
            [[m[i, k] for k in range(n) if k != j] for i in range(1, n)]
        )
        term = coeff * laplace_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def dense_square_difference(
    m: ExactMatrix, sign: GaussianRational = ONE
) -> tuple[int, int] | None:
    """First (row, col), 0-based and row by row, where m*m differs from
    sign*I: each entry of the square summed from the scalars m[i, k], with
    no matrix product."""
    n = m.rows
    e = [[m[i, k] for k in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            total = ZERO
            for k in range(n):
                if e[i][k] and e[k][j]:
                    total = total + e[i][k] * e[k][j]
            if total != (sign if i == j else ZERO):
                return (i, j)
    return None


def reference_check_witness(a: ExactMatrix, g: ExactMatrix) -> VerificationReport:
    """check_witness as first written, from public operations only: the
    determinants first (by cofactors up to n = 6), then a*(g*a) == g, the
    first difference of g a g^{-1} and a^{-1} if that fails for an
    invertible g, and the dense square of g."""

    def det(m: ExactMatrix) -> GaussianRational:
        return laplace_det(m) if m.rows <= 6 else m.det()

    if not a.is_square() or not g.is_square() or a.rows != g.rows:
        raise ValueError("dimension mismatch between matrix and candidate reverser")
    if not det(a):
        raise SingularMatrixError("matrix is singular")
    residuals = []
    d = det(g)
    if not d:
        reverses = False
        residuals.append(("reverses", None))
    else:
        reverses = a * (g * a) == g
        if not reverses:
            i, j = (g * a * g.inverse()).first_difference(a.inverse())
            residuals.append(("reverses", (i + 1, j + 1)))
    pos = dense_square_difference(g)
    if pos is not None:
        residuals.append(("involution", (pos[0] + 1, pos[1] + 1)))
    return VerificationReport(reverses, pos is None, d, d == ONE, tuple(residuals))


_RAT = r"-?\d+(?:/\d+)?"
_SCALAR = re.compile(
    rf"(?:(?P<real>{_RAT})(?=[+-]|$))?"
    rf"(?:(?P<isign>[+-])?(?P<imag>\d+(?:/\d+)?)?(?P<unit>i))?",
    re.ASCII,
)


def _fraction(text: str, source: str, position: int) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ScalarParseError(source, position, "zero denominator") from None


def reference_parse(text: str) -> GaussianRational:
    """The scalar grammar parsed through Fraction(text) for each part, as
    scalars.parse did before it read the digits into ints directly."""
    if not isinstance(text, str):
        raise TypeError(f"scalar text must be a string, got {type(text).__name__}")
    s = text.strip()
    m = _SCALAR.match(s)
    end = m.end() if m else 0
    if not s or end != len(s) or (m.group("real") is None and m.group("unit") is None):
        raise ScalarParseError(text, end)
    re_part = Fraction(0)
    if m.group("real") is not None:
        re_part = _fraction(m.group("real"), text, m.start("real"))
    im_part = Fraction(0)
    if m.group("unit") is not None:
        mag = Fraction(1)
        if m.group("imag") is not None:
            mag = _fraction(m.group("imag"), text, m.start("imag"))
        if m.group("isign") == "-":
            mag = -mag
        im_part = mag
    return GaussianRational(re_part, im_part)


def random_scalar(rng: random.Random, bound: int = 5, den: int = 4) -> GaussianRational:
    return GaussianRational(
        Fraction(rng.randint(-bound, bound), rng.randint(1, den)),
        Fraction(rng.randint(-bound, bound), rng.randint(1, den)),
    )


def random_nonzero_scalar(rng: random.Random, bound: int = 5, den: int = 4) -> GaussianRational:
    while True:
        value = random_scalar(rng, bound, den)
        if value:
            return value


def _euler_product(n: int, weight) -> list[int]:
    """Coefficients of x^0..x^n in prod_k 1/(1 - weight(k) x^k), where
    weight(k) is 0, 1 or -1."""
    coeffs = [1] + [0] * n
    for k in range(1, n + 1):
        w = weight(k)
        if w:
            for m in range(k, n + 1):
                coeffs[m] += w * coeffs[m - k]
    return coeffs


def _times(f: list[int], g: list[int]) -> list[int]:
    n = len(f) - 1
    return [sum(f[i] * g[m - i] for i in range(m + 1)) for m in range(n + 1)]


def _power(f: list[int], e: int) -> list[int]:
    out = [1] + [0] * (len(f) - 1)
    for _ in range(e):
        out = _times(out, f)
    return out


def _at_square(f: list[int]) -> list[int]:
    """f(x^2), truncated to the length of f."""
    out = [0] * len(f)
    for j in range(0, len(f), 2):
        out[j] = f[j // 2]
    return out


def class_counts(max_n: int, pool) -> dict[str, int]:
    """Verdict tallies over every spec of total size 1..max_n with
    eigenvalues from an inversion-closed pool, from generating functions
    alone (no classifier, no pairing).

    With P(x) = prod 1/(1 - x^k), s values of the pool in {1, -1} and t
    pairs {lam, 1/lam}: all specs are P(x)^|pool|; reversible specs are
    P(x)^s P(x^2)^t, since a pair needs equal partitions at lam and 1/lam;
    reversible-only specs are (E - T)/2, where E counts reversible specs
    without an odd +-1 block and T weighs each of them by (-1)^parity, a
    +-1 part k carrying -1 iff k = 2 mod 4 and a paired size k carrying
    (-1)^k.
    """
    pool = list(pool)
    units = [v for v in pool if v == ONE or v == MINUS_ONE]
    others = [v for v in pool if v != ONE and v != MINUS_ONE]
    if any(v.inverse() not in others for v in others):
        raise ValueError("pool must be closed under inversion")
    s, t = len(units), len(others) // 2
    n = max_n
    plain = _euler_product(n, lambda k: 1)
    pair = _at_square(plain)
    twisted = _euler_product(n, lambda k: {0: 1, 2: -1}.get(k % 4, 0))
    pair_twisted = _at_square(_euler_product(n, lambda k: (-1) ** k))
    everything = _power(plain, len(pool))
    reversible = _times(_power(plain, s), _power(pair, t))
    even = _times(_power(pair, s), _power(pair, t))
    signed = _times(_power(twisted, s), _power(pair_twisted, t))
    total = sum(everything[1:])
    rev = sum(reversible[1:])
    only = sum(e - g for e, g in zip(even[1:], signed[1:])) // 2
    return {
        "cases": total,
        "not_reversible": total - rev,
        "strongly_reversible": rev - only,
        "reversible_only": only,
    }
