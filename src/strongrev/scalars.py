"""Exact arithmetic in the field Q(i) of Gaussian rationals.

Every matrix entry, eigenvalue and determinant in this package is a
:class:`GaussianRational`; nothing is ever rounded.  Any class offering the
same arithmetic protocol (``+ - * / ** ==``, ``inverse``, truthiness for
"nonzero") could be substituted as the scalar field.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "GaussianRational",
    "ScalarParseError",
    "as_scalar",
    "parse",
    "ZERO",
    "ONE",
    "MINUS_ONE",
    "I",
]


class ScalarParseError(ValueError):
    """Text does not match the scalar grammar."""

    def __init__(self, text: str, position: int, reason: str = "malformed scalar"):
        super().__init__(f"{reason} at position {position}: {text!r}")
        self.text = text
        self.position = position


@dataclass(frozen=True, slots=True)
class GaussianRational:
    """An element re + im*i of Q(i), held as two exact ``Fraction`` parts.

    Values are immutable; every operation returns a fresh, normalized value
    (coprime numerator/denominator, positive denominator, courtesy of
    ``Fraction``).
    """

    re: Fraction
    im: Fraction

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __add__(self, other):
        try:
            other = as_scalar(other)
        except TypeError:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            other = as_scalar(other)
        except TypeError:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        try:
            other = as_scalar(other)
        except TypeError:
            return NotImplemented
        return other - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        try:
            other = as_scalar(other)
        except TypeError:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            other = as_scalar(other)
        except TypeError:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        try:
            other = as_scalar(other)
        except TypeError:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        """Exact integer power; negative exponents go through the inverse."""
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = ONE
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        try:
            other = as_scalar(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # Matches hash(int)/hash(Fraction) on the real axis, so mixed-type
        # dict keys stay consistent with __eq__.
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """re**2 + im**2, the multiplicative rational norm."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(self.re / n, -self.im / n)

    @property
    def sort_key(self) -> tuple[Fraction, Fraction]:
        """Fixed total order on Q(i) used for canonical block ordering."""
        return (self.re, self.im)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re}, {self.im})"

    def __str__(self) -> str:
        """Render in the scalar grammar; parse(str(z)) == z."""
        if not self.im:
            return str(self.re)
        mag = abs(self.im)
        imag = "i" if mag == 1 else f"{mag}i"
        if not self.re:
            return imag if self.im > 0 else "-" + imag
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{imag}"


def as_scalar(value) -> GaussianRational:
    """The one coercion into Q(i): a GaussianRational passes through, an int
    or Fraction becomes a real scalar, and anything else (text, floats)
    raises TypeError."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    raise TypeError(
        f"expected an exact scalar (GaussianRational, int or Fraction), got {type(value).__name__}"
    )


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
MINUS_ONE = GaussianRational(-1)
I = GaussianRational(0, 1)


# scalar := real | real imag | imag
# real   := rat
# imag   := [+|-] rat "i" | [+|-] "i"
# rat    := [-] int [ "/" posint ]
_RAT = r"-?\d+(?:/\d+)?"
_SCALAR = _re.compile(
    rf"(?:(?P<real>{_RAT})(?=[+-]|$))?"
    rf"(?:(?P<isign>[+-])?(?P<imag>\d+(?:/\d+)?)?(?P<unit>i))?"
)


def _fraction(text: str, source: str, position: int) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ScalarParseError(source, position, "zero denominator") from None


def parse(text: str) -> GaussianRational:
    """Parse the scalar grammar, e.g. "2", "-1/3", "1/2+3/4i", "-i".

    Only text is parsed: any other type raises TypeError."""
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
