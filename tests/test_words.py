import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from kregular import words
from kregular.words import (
    DualWordEvaluator,
    LyndonWord,
    WordEvaluator,
    is_lyndon,
    lyndon_basis,
    lyndon_words_of_degree,
    witt_dimension,
)
from kregular.algebra import LieAlgebra, bracket, decompose
from kregular.linalg import vec_add
from kregular.scalar import I, ONE, ZERO, Scalar

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


def test_words_are_generated_once_per_degree():
    assert lyndon_words_of_degree(7) is lyndon_words_of_degree(7)
    assert lyndon_basis(3)[2] is lyndon_words_of_degree(3)
    assert [str(w) for w in lyndon_words_of_degree(3)] == ["XXY", "XYY"]


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
    xy = WordEvaluator(alg, ez.x, ez.y).value(LyndonWord.parse("XY"))
    assert xy == vec(3, e1=-2, e2=-2)  # [e - f, h] = -2e - 2f
    xxy = WordEvaluator(alg, ez.x, ez.y).value(LyndonWord.parse("XXY"))
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
    assert dv.value == WordEvaluator(alg, ez.x, ez.y).value(
        LyndonWord.parse("XY"))
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
            return WordEvaluator(alg, xs, ys).value(w)

        f1, fm1, f2, fm2 = at(1), at(-1), at(2), at(-2)
        twelfth = Scalar(1) / Scalar(12)
        deriv = tuple(
            (Scalar(8) * (a - b) - (c - d)) * twelfth
            for a, b, c, d in zip(f1, fm1, f2, fm2)
        )
        assert dv.deriv == deriv


def test_dual_evaluator_shares_cache(sl2, monkeypatch):
    # a word read again brackets nothing: its subtrees are kept, while its
    # Scalar value is divided out afresh
    alg, cd = sl2
    z = vec(3, e0=1, e1=2, e2=3)
    ez = decompose(cd, z)
    dev = DualWordEvaluator(alg, ez.x, ez.y, ez.x, ez.y)
    calls = []
    gaussian_bracket = words.gaussian_bracket

    def counting(*args):
        calls.append(args)
        return gaussian_bracket(*args)

    monkeypatch.setattr(words, "gaussian_bracket", counting)
    a = dev.value(LyndonWord.parse("XXY"))
    made = len(calls)
    b = dev.value(LyndonWord.parse("XXY"))
    assert a == b and made == 6 and len(calls) == made


class _ScalarWordEvaluator:
    """WordEvaluator as it was before it ran over the Gaussian integers:
    every subtree a Scalar bracket."""

    def __init__(self, alg, x, y):
        self.alg = alg
        self._cache = {"X": tuple(x), "Y": tuple(y)}

    def _eval(self, tree):
        v = self._cache.get(tree)
        if v is None:
            v = bracket(self.alg, self._eval(tree[0]), self._eval(tree[1]))
            self._cache[tree] = v
        return v

    def value(self, word):
        return self._eval(word.bracketing)


class _ScalarDualWordEvaluator:
    """DualWordEvaluator as it was before it ran over the Gaussian
    integers: (value, deriv) pairs of Scalar brackets."""

    def __init__(self, alg, x, y, dx, dy):
        self.alg = alg
        self._cache = {"X": (tuple(x), tuple(dx)), "Y": (tuple(y), tuple(dy))}

    def _eval(self, tree):
        v = self._cache.get(tree)
        if v is None:
            a, da = self._eval(tree[0])
            b, db = self._eval(tree[1])
            v = (bracket(self.alg, a, b),
                 vec_add(bracket(self.alg, da, b), bracket(self.alg, a, db)))
            self._cache[tree] = v
        return v

    def value(self, word):
        return self._eval(word.bracketing)


def _rescaled(alg, scales):
    """alg in the basis c_i b_i: [c_i b_i, c_j b_j] has coefficient
    c_i c_j c^k_ij / c_k on c_k b_k, so the constants become Gaussian
    rationals."""
    return LieAlgebra(alg.name + "-rescaled", alg.dim, {
        (i, j): tuple((k, c * scales[i] * scales[j] / scales[k])
                      for k, c in terms)
        for (i, j), terms in alg.structure.items()})


def _halved(alg):
    """alg with each structure constant written as two halves on the same
    output index: a table with a repeated output index and S = 2."""
    half = ONE / 2
    return LieAlgebra(alg.name + "-halved", alg.dim, {
        ij: tuple(t for k, c in terms for t in ((k, c * half), (k, c * half)))
        for ij, terms in alg.structure.items()})


_SCALES = (ONE, Scalar(2), Scalar(Fraction(1, 3)), Scalar(Fraction(3, 2)),
           Scalar(1, 1), ONE, Scalar(Fraction(2, 5)), I)

_TABLES = ("sl2", "sl3", "su21", "sl3-rescaled", "sl3-halved")


@pytest.fixture(scope="module")
def tables(sl2, sl3, su21):
    return {"sl2": sl2[0], "sl3": sl3[0], "su21": su21[0],
            "sl3-rescaled": _rescaled(sl3[0], _SCALES),
            "sl3-halved": _halved(sl3[0])}


_Q = st.fractions(-3, 3, max_denominator=4)
_COORDS = st.lists(st.builds(Scalar, _Q, _Q), min_size=8, max_size=8)


def _leaves(alg, zero, *coords):
    """Each coordinate list cut to dim g, with x (the first) or y (the
    second) replaced by zero when asked."""
    vectors = [tuple(c[:alg.dim]) for c in coords]
    if zero is not None:
        vectors["xy".index(zero)] = (ZERO,) * alg.dim
    return vectors


@settings(max_examples=25, deadline=None)
@given(table=st.sampled_from(_TABLES), zero=st.sampled_from((None, "x", "y")),
       degree=st.integers(1, 8), x=_COORDS, y=_COORDS)
@example(table="sl3-rescaled", zero=None, degree=8,
         x=[Scalar(Fraction(1, 2), -1)] * 8, y=[Scalar(k, Fraction(1, 3))
                                               for k in range(8)])
@example(table="sl3-halved", zero="x", degree=8, x=[ONE] * 8, y=[I] * 8)
def test_word_evaluator_matches_scalar_reference(tables, table, zero, degree,
                                                 x, y):
    alg = tables[table]
    x, y = _leaves(alg, zero, x, y)
    ev, ref = WordEvaluator(alg, x, y), _ScalarWordEvaluator(alg, x, y)
    for group in lyndon_basis(degree):
        for w in group:
            assert ev.value(w) == ref.value(w)


@settings(max_examples=25, deadline=None)
@given(table=st.sampled_from(_TABLES), zero=st.sampled_from((None, "x", "y")),
       degree=st.integers(1, 8), x=_COORDS, y=_COORDS, dx=_COORDS, dy=_COORDS)
@example(table="su21", zero="y", degree=8, x=[Scalar(1, -1)] * 8,
         y=[ONE] * 8, dx=[Scalar(Fraction(2, 3))] * 8,
         dy=[Scalar(0, Fraction(1, 4))] * 8)
def test_dual_word_evaluator_matches_scalar_reference(tables, table, zero,
                                                      degree, x, y, dx, dy):
    alg = tables[table]
    x, y, dx, dy = _leaves(alg, zero, x, y, dx, dy)
    dev = DualWordEvaluator(alg, x, y, dx, dy)
    ref = _ScalarDualWordEvaluator(alg, x, y, dx, dy)
    for group in lyndon_basis(degree):
        for w in group:
            dv = dev.value(w)
            assert (dv.value, dv.deriv) == ref.value(w)


def test_evaluators_make_no_scalar_products(sl3, monkeypatch):
    """Both evaluators bracket over the Gaussian integers: the 71 words up
    to degree 8 cost no Scalar multiplication, while one Scalar bracket
    costs many."""
    alg, cd = sl3
    ez = decompose(cd, tuple(Scalar(k % 3 - 1, (k * 2) % 3 - 1)
                             for k in range(8)))
    u = cd.k_basis[0]
    dx, dy = bracket(alg, u, ez.x), bracket(alg, u, ez.y)
    calls = []
    mul = Scalar.__mul__

    def counting(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counting)
    monkeypatch.setattr(Scalar, "__rmul__", counting)
    ev = WordEvaluator(alg, ez.x, ez.y)
    dev = DualWordEvaluator(alg, ez.x, ez.y, dx, dy)
    for group in lyndon_basis(8):
        for w in group:
            ev.value(w)
            dev.value(w)
    assert calls == []
    bracket(alg, ez.x, ez.y)
    assert calls
