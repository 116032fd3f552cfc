"""Lyndon-word basis of the free Lie algebra on X < Y, and evaluation.

Words are generated by Duval's algorithm, once per degree and process;
each word carries the canonical bracketing from its standard
factorization (w = uv with v the longest proper Lyndon suffix).
Evaluation maps X -> x, Y -> y and recurses over the bracketing,
memoising shared subtrees; a dual-number variant computes exact
first-order directional derivatives along a perturbation (dx, dy).

Both evaluators run over the Gaussian integers: x and y (and dx, dy) are
cleared once by one common denominator D, and each subtree is an
algebra.gaussian_bracket of its children.  gaussian_value gives a
degree-d word's integer entries, its value times S^(d-1) D^d, S the
structure table's denominator (gaussian_table), with that denominator,
which its derivative shares; value() divides them back to Scalars.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Sequence

from .algebra import LieAlgebra, gaussian_bracket
from .errors import SoundnessError
from .linalg import Vector, gaussian_rows, gaussian_scalar
from .scalar import Scalar

ALPHABET = ("X", "Y")


def is_lyndon(letters: Sequence[str]) -> bool:
    w = tuple(letters)
    n = len(w)
    if n == 0:
        return False
    return all(w < w[k:] + w[:k] for k in range(1, n))


def _standard_factorization(letters: tuple):
    """Bracketing tree: a letter, or a pair (left, right) of trees."""
    if len(letters) == 1:
        return letters[0]
    # longest proper suffix that is Lyndon
    for k in range(1, len(letters)):
        if is_lyndon(letters[k:]):
            return (_standard_factorization(letters[:k]),
                    _standard_factorization(letters[k:]))
    raise ValueError(f"{letters!r} is not a Lyndon word")


@dataclass(frozen=True)
class LyndonWord:
    letters: tuple

    def __post_init__(self):
        if not is_lyndon(self.letters):
            raise ValueError(f"{''.join(self.letters)!r} is not a Lyndon word")
        if any(c not in ALPHABET for c in self.letters):
            raise ValueError("letters must be X or Y")

    @classmethod
    def parse(cls, s: str) -> "LyndonWord":
        return cls(tuple(s))

    @property
    def degree(self) -> int:
        return len(self.letters)

    @cached_property
    def bracketing(self):
        return _standard_factorization(self.letters)

    def bracket_string(self) -> str:
        def render(t):
            if isinstance(t, str):
                return t
            return f"[{render(t[0])},{render(t[1])}]"
        return render(self.bracketing)

    def __str__(self) -> str:
        return "".join(self.letters)


@cache
def lyndon_words_of_degree(degree: int) -> tuple:
    """All Lyndon words of exactly this length, lexicographic, via Duval;
    computed once per degree, and shared, as words are immutable."""
    out = []
    w = [ALPHABET[0]]
    while w:
        if len(w) == degree:
            out.append(LyndonWord(tuple(w)))
        # extend periodically to full length, then increment
        ext = [w[i % len(w)] for i in range(degree)]
        while ext and ext[-1] == ALPHABET[-1]:
            ext.pop()
        if not ext:
            break
        ext[-1] = ALPHABET[ALPHABET.index(ext[-1]) + 1]
        w = ext
    return tuple(out)


def lyndon_basis(max_degree: int) -> list:
    """Tuples of Lyndon words grouped by degree 1..max_degree."""
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    return [lyndon_words_of_degree(d) for d in range(1, max_degree + 1)]


def witt_dimension(j: int) -> int:
    """Dimension of the degree-j homogeneous piece on 2 letters."""
    if j < 1:
        raise ValueError("degree must be >= 1")
    total = 0
    for d in range(1, j + 1):
        if j % d == 0:
            total += _mobius(d) * 2 ** (j // d)
    if total % j:
        raise SoundnessError(
            f"necklace sum {total} for degree {j} is not divisible by {j}")
    return total // j


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def _gaussian_leaves(alg: LieAlgebra, vectors) -> tuple:
    """(D, rows): the vectors cleared by one common denominator D."""
    vectors = [tuple(v) for v in vectors]
    if any(len(v) != alg.dim for v in vectors):
        raise ValueError("vector length must equal dim")
    return gaussian_rows(vectors)


def _word_denominator(alg: LieAlgebra, scale: int, degree: int) -> int:
    """S^(d-1) D^d, which divides a degree-d word's integer entries back
    to its value, for D = scale."""
    return alg.gaussian_table()[0] ** (degree - 1) * scale ** degree


class WordEvaluator:
    """Evaluates bracketings at a fixed (x, y), sharing subtree results,
    over the Gaussian integers."""

    def __init__(self, alg: LieAlgebra, x: Sequence[Scalar], y: Sequence[Scalar]):
        self.alg = alg
        self._scale, (gx, gy) = _gaussian_leaves(alg, (x, y))
        self._cache = {"X": gx, "Y": gy}

    def _eval(self, tree) -> tuple:
        v = self._cache.get(tree)
        if v is None:
            v = gaussian_bracket(self.alg, self._eval(tree[0]),
                                 self._eval(tree[1]))
            self._cache[tree] = v
        return v

    def gaussian_value(self, word: LyndonWord) -> tuple:
        """(den, row): the word's value is row / den, row its (re, im)
        integer pairs and den = S^(d-1) D^d for degree d."""
        return (_word_denominator(self.alg, self._scale, word.degree),
                self._eval(word.bracketing))

    def value(self, word: LyndonWord) -> Vector:
        """The word's bracketing evaluated with X -> x, Y -> y."""
        den, row = self.gaussian_value(word)
        return tuple(gaussian_scalar(z, den) for z in row)


@dataclass(frozen=True)
class DualVector:
    """value + t*deriv with t^2 = 0."""

    value: Vector
    deriv: Vector


class DualWordEvaluator:
    """Evaluation over dual numbers: exact first-order Lie derivatives,
    over the Gaussian integers."""

    def __init__(self, alg: LieAlgebra, x, y, dx, dy):
        self.alg = alg
        self._scale, (gx, gy, gdx, gdy) = _gaussian_leaves(
            alg, (x, y, dx, dy))
        self._cache = {"X": (gx, gdx), "Y": (gy, gdy)}

    def _eval(self, tree) -> tuple:
        v = self._cache.get(tree)
        if v is None:
            a, da = self._eval(tree[0])
            b, db = self._eval(tree[1])
            alg = self.alg
            left = gaussian_bracket(alg, da, b)
            right = gaussian_bracket(alg, a, db)
            v = (gaussian_bracket(alg, a, b),
                 tuple((p + r, q + s) for (p, q), (r, s) in zip(left, right)))
            self._cache[tree] = v
        return v

    def gaussian_value(self, word: LyndonWord) -> tuple:
        """(den, value_row, deriv_row): the word's value and derivative
        are the two integer rows over one den = S^(d-1) D^d."""
        return (_word_denominator(self.alg, self._scale, word.degree),
                *self._eval(word.bracketing))

    def value(self, word: LyndonWord) -> DualVector:
        den, value, deriv = self.gaussian_value(word)
        return DualVector(tuple(gaussian_scalar(z, den) for z in value),
                          tuple(gaussian_scalar(z, den) for z in deriv))
