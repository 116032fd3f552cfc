import itertools

import pytest

from kregular.words import (
    DualWordEvaluator,
    LyndonWord,
    WordEvaluator,
    evaluate_word,
    is_lyndon,
    lyndon_basis,
    lyndon_words_of_degree,
    witt_dimension,
)
from kregular.algebra import bracket, decompose
from kregular.linalg import vec_add
from kregular.scalar import Scalar

from conftest import vec


def brute_lyndon(degree):
    out = []
    for letters in itertools.product("XY", repeat=degree):
        if all(letters < letters[k:] + letters[:k] for k in range(1, degree)):
            out.append("".join(letters))
    return out


def test_is_lyndon():
    assert is_lyndon("X")
    assert is_lyndon("XY")
    assert not is_lyndon("YX")
    assert not is_lyndon("XX")
    assert not is_lyndon("XYXY")
    assert is_lyndon("XXYXY")
    assert not is_lyndon("")


def test_duval_matches_brute_force():
    for d in range(1, 9):
        got = [str(w) for w in lyndon_words_of_degree(d)]
        assert got == brute_lyndon(d)


def test_witt_formula_matches_counts():
    expected = [2, 1, 2, 3, 6, 9, 18, 30, 56, 99, 186, 335]
    for j, e in enumerate(expected, start=1):
        assert witt_dimension(j) == e
        assert len(lyndon_words_of_degree(j)) == e


def test_lyndon_basis_grouping():
    groups = lyndon_basis(5)
    assert [len(g) for g in groups] == [2, 1, 2, 3, 6]
    assert all(w.degree == d for d, g in enumerate(groups, 1) for w in g)


def test_bracketings():
    assert LyndonWord.parse("XXY").bracket_string() == "[X,[X,Y]]"
    assert LyndonWord.parse("XYY").bracket_string() == "[[X,Y],Y]"
    assert LyndonWord.parse("XXYXY").bracket_string() == "[[X,[X,Y]],[X,Y]]"
    assert LyndonWord.parse("X").bracket_string() == "X"


def test_parse_rejects_non_lyndon():
    with pytest.raises(ValueError):
        LyndonWord.parse("YX")
    with pytest.raises(ValueError):
        LyndonWord.parse("XZ")


def test_evaluation_on_sl2(sl2):
    alg, cd = sl2
    # z = h + e - f: x = e - f, y = h
    z = vec(3, e0=1, e1=1, e2=-1)
    ez = decompose(cd, z)
    assert ez.x == vec(3, e1=1, e2=-1)
    assert ez.y == vec(3, e0=1)
    xy = evaluate_word(alg, LyndonWord.parse("XY"), ez.x, ez.y)
    assert xy == vec(3, e1=-2, e2=-2)  # [e - f, h] = -2e - 2f
    xxy = evaluate_word(alg, LyndonWord.parse("XXY"), ez.x, ez.y)
    assert xxy == bracket(alg, ez.x, xy)


def test_evaluator_matches_naive_recursion(sl3):
    alg, cd = sl3
    z = tuple(Scalar(k % 3 - 1, (k * 2) % 3 - 1) for k in range(8))
    ez = decompose(cd, z)
    ev = WordEvaluator(alg, ez.x, ez.y)

    def naive(tree):
        if tree == "X":
            return ez.x
        if tree == "Y":
            return ez.y
        return bracket(alg, naive(tree[0]), naive(tree[1]))

    for group in lyndon_basis(5):
        for w in group:
            assert ev.value(w) == naive(w.bracketing)


def test_dual_evaluation_product_rule(sl2):
    alg, cd = sl2
    z = vec(3, e0=1, e1=1, e2=-1)
    ez = decompose(cd, z)
    dx = vec(3, e1=1, e2=1)
    dy = vec(3, e0=2)
    dv = DualWordEvaluator(alg, ez.x, ez.y, dx, dy).value(
        LyndonWord.parse("XY"))
    assert dv.value == evaluate_word(alg, LyndonWord.parse("XY"), ez.x, ez.y)
    expected = vec_add(bracket(alg, dx, ez.y), bracket(alg, ez.x, dy))
    assert dv.deriv == expected


def test_dual_evaluation_matches_epsilon_expansion(sl3):
    """First-order coefficient of value(x + t dx, y + t dy) in t."""
    alg, cd = sl3
    z = tuple(Scalar((k * 5) % 4 - 2) for k in range(8))
    ez = decompose(cd, z)
    dx = tuple(Scalar((k * 3) % 3 - 1) for k in range(8))
    dy = tuple(Scalar((k * 7) % 3 - 1) for k in range(8))

    dev = DualWordEvaluator(alg, ez.x, ez.y, dx, dy)
    for w in lyndon_basis(3)[2]:
        dv = dev.value(w)
        # f(t) = f(0) + f'(0) t + c2 t^2 + c3 t^3 for a degree-3 word;
        # combine t = 1, -1, 2, -2 samples to isolate f'(0) exactly
        def at(s):
            xs = tuple(a + Scalar(s) * b for a, b in zip(ez.x, dx))
            ys = tuple(a + Scalar(s) * b for a, b in zip(ez.y, dy))
            return evaluate_word(alg, w, xs, ys)

        f1, fm1, f2, fm2 = at(1), at(-1), at(2), at(-2)
        twelfth = Scalar(1) / Scalar(12)
        deriv = tuple(
            (Scalar(8) * (a - b) - (c - d)) * twelfth
            for a, b, c, d in zip(f1, fm1, f2, fm2)
        )
        assert dv.deriv == deriv


def test_dual_evaluator_shares_cache(sl2):
    alg, cd = sl2
    z = vec(3, e0=1, e1=2, e2=3)
    ez = decompose(cd, z)
    dev = DualWordEvaluator(alg, ez.x, ez.y, ez.x, ez.y)
    a = dev.value(LyndonWord.parse("XXY"))
    b = dev.value(LyndonWord.parse("XXY"))
    assert a is b
