"""Lyndon-word basis of the free Lie algebra on X < Y, and evaluation.

Words are generated by Duval's algorithm; each word carries the canonical
bracketing from its standard factorization (w = uv with v the longest
proper Lyndon suffix).  Evaluation maps X -> x, Y -> y and recurses over
the bracketing, memoising shared subtrees; a dual-number variant computes
exact first-order directional derivatives along a perturbation (dx, dy).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .algebra import LieAlgebra, bracket
from .errors import SoundnessError
from .linalg import Vector, vec_add
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


def lyndon_words_of_degree(degree: int) -> list:
    """All Lyndon words of exactly this length, lexicographic, via Duval."""
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
    return out


def lyndon_basis(max_degree: int) -> list:
    """Lists of Lyndon words grouped by degree 1..max_degree."""
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


class WordEvaluator:
    """Evaluates bracketings at a fixed (x, y), sharing subtree results."""

    def __init__(self, alg: LieAlgebra, x: Sequence[Scalar], y: Sequence[Scalar]):
        self.alg = alg
        self.x = tuple(x)
        self.y = tuple(y)
        self._cache = {"X": self.x, "Y": self.y}

    def _eval(self, tree) -> Vector:
        v = self._cache.get(tree)
        if v is None:
            v = bracket(self.alg, self._eval(tree[0]), self._eval(tree[1]))
            self._cache[tree] = v
        return v

    def value(self, word: LyndonWord) -> Vector:
        return self._eval(word.bracketing)


def evaluate_word(alg: LieAlgebra, word: LyndonWord,
                  x: Sequence[Scalar], y: Sequence[Scalar]) -> Vector:
    """The word's bracketing evaluated with X -> x, Y -> y."""
    return WordEvaluator(alg, x, y).value(word)


@dataclass(frozen=True)
class DualVector:
    """value + t*deriv with t^2 = 0."""

    value: Vector
    deriv: Vector


class DualWordEvaluator:
    """Evaluation over dual numbers: exact first-order Lie derivatives."""

    def __init__(self, alg: LieAlgebra, x, y, dx, dy):
        self.alg = alg
        self._cache = {
            "X": DualVector(tuple(x), tuple(dx)),
            "Y": DualVector(tuple(y), tuple(dy)),
        }

    def _eval(self, tree) -> DualVector:
        v = self._cache.get(tree)
        if v is None:
            a = self._eval(tree[0])
            b = self._eval(tree[1])
            value = bracket(self.alg, a.value, b.value)
            deriv = vec_add(
                bracket(self.alg, a.deriv, b.value),
                bracket(self.alg, a.value, b.deriv),
            )
            v = DualVector(value, deriv)
            self._cache[tree] = v
        return v

    def value(self, word: LyndonWord) -> DualVector:
        return self._eval(word.bracketing)

