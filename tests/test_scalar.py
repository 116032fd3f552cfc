import pytest
from hypothesis import given, strategies as st

from kregular.scalar import I, ONE, ZERO, Scalar, parse_int

small = st.integers(min_value=-50, max_value=50)
nonzero_den = st.integers(min_value=1, max_value=20)


def scalars():
    return st.builds(
        lambda a, b, c, d: Scalar(a, 0) / Scalar(b) + I * (Scalar(c) / Scalar(d)),
        small, nonzero_den, small, nonzero_den)


def test_construction_and_equality():
    assert Scalar(3) == 3
    assert Scalar(3, 0) == Scalar(3)
    assert Scalar(0, 1) == I
    assert Scalar(1) != I
    assert not Scalar(0)
    assert Scalar(0, 2)


def test_immutable():
    s = Scalar(1, 2)
    with pytest.raises(AttributeError):
        s.re = 5


def test_str_rendering():
    assert str(Scalar(3) / Scalar(2)) == "3/2"
    assert str(Scalar(1) + I / Scalar(2)) == "1+1/2i"
    assert str(Scalar(0, -1)) == "-1i"
    assert str(Scalar(-2)) == "-2"
    assert str(ZERO) == "0"


def test_quad_round_trip():
    s = Scalar(7) / Scalar(3) - I * Scalar(5) / Scalar(4)
    assert s.to_quad() == [7, 3, -5, 4]
    assert Scalar.from_quad(s.to_quad()) == s
    # base-10 strings allowed (arbitrary precision on the wire)
    big = Scalar.from_quad(["1" + "0" * 40, "1", "0", "1"])
    assert big == Scalar(10 ** 40)


def test_quad_rejects_garbage():
    with pytest.raises(ValueError):
        Scalar.from_quad([1, 2, 3])
    with pytest.raises(ValueError):
        Scalar.from_quad([1, 0, 0, 1])
    with pytest.raises(TypeError):
        Scalar.from_quad([1.5, 1, 0, 1])


@pytest.mark.parametrize("v", [True, False, "1_000", " 7", "7 ", "\u0663",
                               "", "+", "0x10", "1.0", 1.0, None, [1]])
def test_parse_int_refuses_all_but_ints_and_ascii_digit_strings(v):
    with pytest.raises((TypeError, ValueError)):
        parse_int(v)
    with pytest.raises((TypeError, ValueError)):
        Scalar.from_quad([v, 1, 0, 1])


def test_parse_int_accepts_ints_and_signed_ascii_digit_strings():
    assert [parse_int(v) for v in (7, -7, "7", "+7", "-7", "007", "-0")] == [
        7, -7, 7, 7, -7, 7, 0]
    assert parse_int("9" * 4000) == 10 ** 4000 - 1


def test_parse_int_refuses_strings_past_the_digit_limit():
    with pytest.raises(ValueError, match="limit"):
        parse_int("7" * 5000)


@pytest.mark.parametrize("quad", ["1111", {"a": 1, "b": 1, "c": 0, "d": 1}])
def test_quad_must_be_a_list(quad):
    with pytest.raises(ValueError, match="4 integers"):
        Scalar.from_quad(quad)


def test_division_and_inverse():
    assert (ONE + I) * (ONE + I).inverse() == ONE
    assert (Scalar(4) / Scalar(2)) == 2
    assert I * I == Scalar(-1)
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a
    assert a + (-a) == ZERO


@given(scalars())
def test_inverse_axiom(a):
    if a:
        assert a * a.inverse() == ONE


@given(scalars())
def test_hash_consistent(a):
    assert hash(a) == hash(Scalar(a.re, a.im))
