import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import reference_parse
from strongrev.scalars import (
    GaussianRational,
    I,
    MINUS_ONE,
    ONE,
    ScalarParseError,
    ZERO,
    parse,
)

G = GaussianRational


class TestArithmetic:
    def test_product_of_conjugates(self):
        assert G(1, 1) * G(1, -1) == G(2)

    def test_rational_addition(self):
        assert G(Fraction(1, 2)) + G(Fraction(1, 3)) == G(Fraction(5, 6))

    def test_i_squared(self):
        assert I * I == MINUS_ONE

    def test_subtraction_and_negation(self):
        assert G(3, 2) - G(1, 5) == G(2, -3)
        assert -G(1, -1) == G(-1, 1)

    def test_division(self):
        z = G(Fraction(3, 2), Fraction(-1, 2))
        assert z / z == ONE
        assert (ONE + I) / (ONE - I) == I

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()

    def test_int_coercion_both_sides(self):
        assert 2 + I == G(2, 1)
        assert I + 2 == G(2, 1)
        assert 2 - I == G(2, -1)
        assert 3 * G(1, 1) == G(3, 3)
        assert 1 / I == -I


class TestPow:
    def test_negative_exponent(self):
        assert G(2) ** -3 == G(Fraction(1, 8))

    def test_i_fourth(self):
        assert I**4 == ONE

    def test_zero_exponent(self):
        assert G(Fraction(-7, 3), 5) ** 0 == ONE

    def test_zero_base_negative_exponent(self):
        with pytest.raises(ZeroDivisionError):
            ZERO**-1

    def test_power_additivity_random(self):
        rng = random.Random(11)
        for _ in range(200):
            a = G(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                  Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            if not a:
                continue
            m, n = rng.randint(-20, 20), rng.randint(-20, 20)
            assert a ** (m + n) == a**m * a**n


class TestFieldLaws:
    def test_random_triples(self):
        rng = random.Random(5)

        def draw():
            return G(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                     Fraction(rng.randint(-9, 9), rng.randint(1, 9)))

        for _ in range(1000):
            a, b, c = draw(), draw(), draw()
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    def test_inverse_identity(self):
        rng = random.Random(6)
        for _ in range(200):
            z = G(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                  Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            if z:
                assert z * z.inverse() == ONE

    def test_results_are_normalized(self):
        z = G(Fraction(2, 4), Fraction(-6, 9))
        assert z.re == Fraction(1, 2) and z.im == Fraction(-2, 3)
        w = z * z
        import math

        for part in (w.re, w.im):
            assert part.denominator >= 1
            assert math.gcd(abs(part.numerator), part.denominator) == 1


# Text in the shape of the scalar grammar: signs, leading zeros, "-0", bare
# units, zero denominators in either part, numerals of about 1 000 digits,
# surrounding whitespace and junk suffixes.
_numeral = st.one_of(
    st.text("0123456789", min_size=1, max_size=4),
    st.text("0123456789", min_size=990, max_size=1010),
)
_denominator = st.one_of(st.just(""), st.just("/0"), st.just("/00"), _numeral.map("/".__add__))
_real = st.one_of(
    st.just(""),
    st.just("-0"),
    st.builds(lambda sign, num, den: sign + num + den, st.sampled_from(["", "-"]), _numeral, _denominator),
)
_imag = st.one_of(
    st.just(""),
    st.builds(
        lambda sign, mag: sign + mag + "i",
        st.sampled_from(["", "+", "-"]),
        st.one_of(st.just(""), st.builds(str.__add__, _numeral, _denominator)),
    ),
)
_space = st.sampled_from(["", " ", "  ", "\t", "\n", " \r\n"])
_junk = st.one_of(
    st.just(""), st.sampled_from(["x", "i", "/", "+", "-", "1", "/0", " 1", "\u0663", "ii"])
)
scalar_texts = st.builds(
    lambda lead, real, imag, junk, trail: lead + real + imag + junk + trail,
    _space, _real, _imag, _junk, _space,
)


def _parse_outcome(parse_fn, text):
    try:
        return parse_fn(text).triple
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


class TestParseFormat:
    def test_parse_examples(self):
        assert parse("3/2-1/2i") == G(Fraction(3, 2), Fraction(-1, 2))
        assert parse("-1") == MINUS_ONE
        assert parse("i") == I
        assert parse("-i") == -I
        assert parse("2i") == G(0, 2)
        assert parse("1/2+3/4i") == G(Fraction(1, 2), Fraction(3, 4))
        assert parse("-1/3") == G(Fraction(-1, 3))
        assert parse("1+i") == G(1, 1)

    def test_format_examples(self):
        assert str(G(Fraction(3, 2), Fraction(-1, 2))) == "3/2-1/2i"
        assert str(MINUS_ONE) == "-1"
        assert str(I) == "i"
        assert str(-I) == "-i"
        assert str(ZERO) == "0"
        assert str(G(1, 1)) == "1+i"
        assert str(G(0, Fraction(-1, 3))) == "-1/3i"

    @pytest.mark.parametrize(
        "bad",
        ["", "abc", "1/0", "++i", "1+", "i2", "1 + i", "1/2/3", "\u0663", "1/\u0662", "\u0663i"],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(ScalarParseError) as info:
            parse(bad)
        assert info.value.position >= 0

    @given(text=scalar_texts)
    def test_parse_matches_reference(self, text):
        assert _parse_outcome(parse, text) == _parse_outcome(reference_parse, text)

    @given(
        re_part=st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4),
        im_part=st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4),
    )
    def test_round_trip(self, re_part, im_part):
        z = G(re_part, im_part)
        assert parse(str(z)) == z


class TestOrderingAndHash:
    def test_sort_key_total_order(self):
        values = [I, -I, ONE, MINUS_ONE, G(2), G(Fraction(1, 2))]
        ordered = sorted(values, key=lambda v: v.sort_key)
        assert ordered == [MINUS_ONE, -I, I, G(Fraction(1, 2)), ONE, G(2)]

    def test_hash_consistent_with_int_equality(self):
        assert G(1) == 1 and hash(G(1)) == hash(1)
        assert G(Fraction(1, 2)) == Fraction(1, 2)
        assert hash(G(Fraction(1, 2))) == hash(Fraction(1, 2))
        lookup = {G(2): "two", I: "i"}
        assert lookup[G(2)] == "two"

    @given(
        x=st.one_of(
            st.integers(),
            st.integers(-(2**200), 2**200),
            st.fractions(),
            st.builds(Fraction, st.integers(-(2**200), 2**200), st.integers(1, 2**200)),
            # denominators that are multiples of the hash modulus
            st.builds(
                Fraction,
                st.integers(-(2**80), 2**80),
                st.integers(1, 2**20).map(lambda k: k * sys.hash_info.modulus),
            ),
        )
    )
    def test_hash_of_real_values_matches_python(self, x):
        assert hash(G(x)) == hash(x)

    def test_hash_edge_cases(self):
        modulus = sys.hash_info.modulus
        # hash -1 is remapped to -2; a denominator divisible by the modulus
        # hashes as +-inf
        cases = (-1, Fraction(-1, modulus + 1), Fraction(1, modulus), Fraction(-3, 2 * modulus))
        for x in cases:
            assert hash(G(x)) == hash(x)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            ONE.re = Fraction(2)


# Reference arithmetic on (re, im) pairs of Fractions, written independently
# of the library's integer-triple representation.
def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_norm(x):
    return x[0] * x[0] + x[1] * x[1]


def ref_inverse(x):
    n = ref_norm(x)
    return (x[0] / n, -x[1] / n)


def ref_pow(x, k):
    if k < 0:
        return ref_pow(ref_inverse(x), -k)
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = ref_mul(out, x)
    return out


def ref_str(x):
    re_part, im_part = x
    if not im_part:
        return str(re_part)
    mag = abs(im_part)
    imag = "i" if mag == 1 else f"{mag}i"
    if not re_part:
        return imag if im_part > 0 else "-" + imag
    return f"{re_part}{'+' if im_part > 0 else '-'}{imag}"


def pair_of(z):
    return (z.re, z.im)


# Gaussian integers (the d == 1 path, zero included) and general rationals.
gaussian_integer_parts = st.integers(-30, 30).map(Fraction)
rational_parts = st.fractions(min_value=-50, max_value=50, max_denominator=40)
parts = st.one_of(gaussian_integer_parts, rational_parts)
pairs = st.tuples(parts, parts)


class TestDifferential:
    @given(x=pairs, y=pairs)
    def test_binary_operations(self, x, y):
        a, b = G(*x), G(*y)
        assert pair_of(a + b) == ref_add(x, y)
        assert pair_of(a - b) == ref_sub(x, y)
        assert pair_of(a * b) == ref_mul(x, y)
        assert (a == b) == (x == y)
        if any(y):
            assert pair_of(a / b) == ref_mul(x, ref_inverse(y))
        else:
            with pytest.raises(ZeroDivisionError):
                a / b

    @given(x=pairs, k=st.integers(-6, 6))
    def test_unary_operations(self, x, k):
        z = G(*x)
        assert pair_of(-z) == (-x[0], -x[1])
        assert pair_of(z.conjugate()) == (x[0], -x[1])
        assert z.norm() == ref_norm(x)
        assert type(z.norm()) is Fraction
        assert z.sort_key == x
        assert str(z) == ref_str(x)
        assert parse(str(z)) == z
        assert pickle.loads(pickle.dumps(z)) == z
        assert bool(z) == any(x)
        if any(x):
            assert pair_of(z.inverse()) == ref_inverse(x)
        if any(x) or k >= 0:
            assert pair_of(z**k) == ref_pow(x, k)
        else:
            with pytest.raises(ZeroDivisionError):
                z**k

    @given(x=pairs, y=pairs)
    def test_hash_and_mixed_equality(self, x, y):
        z = G(*x)
        # the same value reached by arithmetic hashes like the direct one
        assert hash(z) == hash(G(*y) + (z - G(*y)))
        if not x[1]:
            assert z == x[0] and hash(z) == hash(x[0])
            if x[0].denominator == 1:
                assert z == x[0].numerator and hash(z) == hash(x[0].numerator)

    @given(x=pairs)
    def test_parts_are_read_only_fractions(self, x):
        z = G(*x)
        assert type(z.re) is Fraction and type(z.im) is Fraction
        with pytest.raises(AttributeError):
            z.im = Fraction(0)

    @pytest.mark.parametrize("bad", [("1/2", 0.5), (0.5, 0), (1, "i"), (None, 0)])
    def test_constructor_takes_only_exact_parts(self, bad):
        with pytest.raises(TypeError):
            G(*bad)


class TestInverseKey:
    @given(x=pairs, read_first=st.booleans())
    def test_kept_key_is_the_inverse_triple_and_invisible(self, x, read_first):
        z, twin = G(*x), G(*x)
        if read_first and z:
            twin.inverse_key
        if not z:
            with pytest.raises(ZeroDivisionError):
                z.inverse_key
            return
        seen = (repr(z), hash(z), pickle.dumps(z))
        key = z.inverse_key
        assert key == z.inverse().triple
        assert z.inverse_key is key  # kept, not worked out again
        assert (repr(z), hash(z), pickle.dumps(z)) == seen
        assert z == twin and hash(z) == hash(twin) and repr(z) == repr(twin)
        back = pickle.loads(pickle.dumps(z))
        assert back == z and back.inverse_key == key
        with pytest.raises(AttributeError):
            z._inverse = key
        with pytest.raises(AttributeError):
            del z._inverse
        assert z.inverse_key is key
