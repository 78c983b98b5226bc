"""Exact arithmetic in the field Q(i) of Gaussian rationals.

Every eigenvalue, determinant and matrix entry in this package is exact;
nothing is ever rounded.  A :class:`GaussianRational` is the normalized
triple of ints ``(a, b, d)`` for ``(a + b*i)/d``, and :func:`parse` reads
text straight into that triple.  :class:`~strongrev.matrices.ExactMatrix`
stores the same ints and does not go through this class.
"""

from __future__ import annotations

import json
import re as _re
import sys
from fractions import Fraction
from math import gcd

__all__ = [
    "GaussianRational",
    "ScalarParseError",
    "as_int",
    "as_scalar",
    "echo",
    "format_triple",
    "from_triple",
    "inverse_triple",
    "json_fields",
    "key_pair",
    "parse",
    "ZERO",
    "ONE",
    "MINUS_ONE",
    "I",
    "MAX_ECHO_LENGTH",
]


_HASH_MODULUS = sys.hash_info.modulus

# An error message echoes at most this many characters of an input text,
# then the text's length (see echo); cli.MAX_ENTRY_LENGTH caps the texts
# that are read at all.
MAX_ECHO_LENGTH = 40


class ScalarParseError(ValueError):
    """Text does not match the scalar grammar."""

    def __init__(self, text: str, position: int, reason: str = "malformed scalar"):
        super().__init__(f"{reason} at position {position}: {echo(repr(text))}")
        self.text = text
        self.position = position


class GaussianRational:
    """An element (a + b*i)/d of Q(i), held as three Python ints.

    The triple is normalized (d > 0 and gcd(a, b, d) == 1), so equal values
    have equal triples.  Values are immutable; every operation returns a
    fresh, normalized value.  Matrix arithmetic does not go through this
    class: :class:`~strongrev.matrices.ExactMatrix` works on the ints.

    The slot ``_keys`` keeps the pair (triple of z, triple of 1/z) once
    :func:`key_pair` has worked it out, on the first read of
    :attr:`inverse_key` or by ``reversal.classify``; it is derived from the
    triple, so it takes no part in ``==``, ``hash``, pickling or ``repr``.
    """

    __slots__ = ("_a", "_b", "_d", "_keys")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        if not isinstance(re, (int, Fraction)) or not isinstance(im, (int, Fraction)):
            raise TypeError(
                f"scalar parts must be int or Fraction, got {type(re).__name__} "
                f"and {type(im).__name__}"
            )
        p, q = re.as_integer_ratio()
        r, s = im.as_integer_ratio()
        # Over the least common denominator, gcd(a, b, d) is already 1.
        d = q // gcd(q, s) * s
        _set_a(self, p * (d // q))
        _set_b(self, r * (d // s))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError(f"GaussianRational is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GaussianRational is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return (GaussianRational, (self.re, self.im))

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @property
    def triple(self) -> tuple[int, int, int]:
        """The normalized ints (a, b, d) of the value (a + b*i)/d."""
        return (self._a, self._b, self._d)

    @property
    def inverse_key(self) -> tuple[int, int, int]:
        """The normalized triple of 1/z, the second item of the kept
        :func:`key_pair`; zero raises ZeroDivisionError."""
        try:
            return self._keys[1]
        except AttributeError:
            return key_pair(self)[1]

    def __add__(self, other):
        if type(other) is not GaussianRational:
            try:
                other = as_scalar(other)
            except TypeError:
                return NotImplemented
        d1, d2 = self._d, other._d
        return from_triple(self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            try:
                other = as_scalar(other)
            except TypeError:
                return NotImplemented
        d1, d2 = self._d, other._d
        return from_triple(self._a * d2 - other._a * d1, self._b * d2 - other._b * d1, d1 * d2)

    def __rsub__(self, other):
        try:
            other = as_scalar(other)
        except TypeError:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _triple(-self._a, -self._b, self._d)

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            try:
                other = as_scalar(other)
            except TypeError:
                return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        a = a1 * a2 - b1 * b2
        b = a1 * b2 + b1 * a2
        return from_triple(a, b, self._d * other._d)

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
        if type(other) is not GaussianRational:
            try:
                other = as_scalar(other)
            except TypeError:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        # Matches hash(int)/hash(Fraction) on the real axis, so mixed-type
        # dict keys stay consistent with __eq__.
        if self._b:
            return hash((self._a, self._b, self._d))
        if self._d == 1:
            return hash(self._a)
        # The rule for rationals in the Python docs ("Hashing of numeric
        # types"), taken from the ints without building a Fraction.
        try:
            inv = pow(self._d, -1, _HASH_MODULUS)
        except ValueError:  # d is a multiple of the modulus
            h = sys.hash_info.inf
        else:
            h = hash(hash(abs(self._a)) * inv)
        h = h if self._a >= 0 else -h
        return -2 if h == -1 else h

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def conjugate(self) -> "GaussianRational":
        return _triple(self._a, -self._b, self._d)

    def norm(self) -> Fraction:
        """re**2 + im**2, the multiplicative rational norm."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def inverse(self) -> "GaussianRational":
        return _triple(*inverse_triple(self._a, self._b, self._d))

    @property
    def sort_key(self) -> tuple[Fraction, Fraction]:
        """Canonical block order on Q(i); JordanSpec ranks by int pairs in this order."""
        return (self.re, self.im)

    def __repr__(self) -> str:
        return f"GaussianRational({_ratio(self._a, self._d)}, {_ratio(self._b, self._d)})"

    def __str__(self) -> str:
        """Render in the scalar grammar; parse(str(z)) == z."""
        return format_triple(self._a, self._b, self._d)


def format_triple(a: int, b: int, d: int) -> str:
    """(a + b*i)/d in the scalar grammar for any d > 0; each part is reduced
    on its own, so the triple need not be normalized."""
    if not b:
        return _ratio(a, d)
    mag = _ratio(abs(b), d)
    imag = "i" if mag == "1" else mag + "i"
    if not a:
        return imag if b > 0 else "-" + imag
    return f"{_ratio(a, d)}{'+' if b > 0 else '-'}{imag}"


_new = object.__new__
_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__
_set_keys = GaussianRational._keys.__set__


def _triple(a: int, b: int, d: int) -> GaussianRational:
    """The scalar (a + b*i)/d from an already normalized triple."""
    z = _new(GaussianRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def from_triple(a: int, b: int, d: int) -> GaussianRational:
    """The scalar (a + b*i)/d for any ints with d > 0."""
    g = gcd(a, b, d)
    if g == 1:
        return _triple(a, b, d)
    return _triple(a // g, b // g, d // g)


def inverse_triple(a: int, b: int, d: int) -> tuple[int, int, int]:
    """The normalized triple of 1/x for x = (a + b*i)/d with d > 0:
    d*(a - b*i)/(a^2 + b^2), reduced by the gcd of its three ints."""
    n = a * a + b * b
    if not n:
        raise ZeroDivisionError("division by zero in Q(i)")
    re, im = d * a, -d * b
    g = gcd(re, im, n)
    return (re // g, im // g, n // g)


def key_pair(z: GaussianRational) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Work out the pair (triple of z, triple of 1/z) and keep it on z;
    zero raises ZeroDivisionError and keeps nothing.  Readers take the kept
    pair from the ``_keys`` slot and call this only when it is unset, so a
    first read raises one AttributeError, not two."""
    a, b, d = z._a, z._b, z._d
    pair = ((a, b, d), inverse_triple(a, b, d))
    _set_keys(z, pair)
    return pair


def _ratio(n: int, d: int) -> str:
    """n/d in lowest terms, as Fraction renders it."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


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


def as_int(value) -> int:
    """The one check for sizes and indices: a non-bool int passes through,
    anything else (floats, bools, text) raises TypeError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"expected an integer, got {type(value).__name__} {echo(repr(value))}")


def echo(text: str) -> str:
    """text as an error message shows it: whole up to MAX_ECHO_LENGTH
    characters, else its first MAX_ECHO_LENGTH and its full length."""
    if len(text) <= MAX_ECHO_LENGTH:
        return text
    return f"{text[:MAX_ECHO_LENGTH]}... ({len(text)} characters)"


def json_fields(data, names: tuple[str, ...], what: str) -> tuple:
    """The one check of a JSON object read as input: the values under
    names, in that order.  Anything but an object with exactly these keys
    raises ValueError, naming the first unknown key, else the first
    missing one."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    for key in data:
        if key not in names:
            raise ValueError(f"unknown key {echo(json.dumps(key))} in {what}")
    for key in names:
        if key not in data:
            raise ValueError(f"missing key {json.dumps(key)} in {what}")
    return tuple(map(data.__getitem__, names))


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
MINUS_ONE = GaussianRational(-1)
I = GaussianRational(0, 1)


# scalar := real | real imag | imag
# real   := rat
# imag   := [+|-] rat "i" | [+|-] "i"
# rat    := [-] int [ "/" posint ]
_SCALAR = _re.compile(
    r"(?:(?P<real>(?P<rnum>-?\d+)(?:/(?P<rden>\d+))?)(?=[+-]|$))?"
    r"(?:(?P<isign>[+-])?(?P<imag>(?P<inum>\d+)(?:/(?P<iden>\d+))?)?(?P<unit>i))?",
    _re.ASCII,
)


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
    # a/p + (b/q)i == (a*q + b*p*i)/(p*q)
    a, p = 0, 1
    if m.group("real") is not None:
        a, p = int(m.group("rnum")), int(m.group("rden") or 1)
        if not p:
            raise ScalarParseError(text, m.start("real"), "zero denominator")
    b, q = 0, 1
    if m.group("unit") is not None:
        b, q = int(m.group("inum") or 1), int(m.group("iden") or 1)
        if not q:
            raise ScalarParseError(text, m.start("imag"), "zero denominator")
        if m.group("isign") == "-":
            b = -b
    return from_triple(a * q, b * p, p * q)
