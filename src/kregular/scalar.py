"""Exact Gaussian-rational scalars: a + b*i with a, b rational.

Inputs, reports and elimination use this class; bulk products run on
(re, im) integer pairs, and the stabilization bound mod a prime.
Nothing is ever rounded.  Both parts are fractions.Fraction.
"""

from __future__ import annotations

import re
from fractions import Fraction as _Q

_INT_STRING = re.compile(r"[+-]?[0-9]+")


def parse_int(v) -> int:
    """The integer rule for outside input: an int that is not a bool, or
    an ASCII string matching [+-]?[0-9]+ within Python's digit limit.
    Anything else raises TypeError or ValueError, which callers rename."""
    if type(v) is int:
        return v
    if not isinstance(v, str):
        raise TypeError(f"expected integer or base-10 string, got {v!r}")
    if not _INT_STRING.fullmatch(v):
        raise ValueError(f"invalid base-10 integer string {v!r}")
    return int(v)  # a ValueError past Python's digit limit


def _frac_str(q) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class Scalar:
    """An immutable element of Q(i)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is _Q else _Q(re))
        object.__setattr__(self, "im", im if type(im) is _Q else _Q(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @classmethod
    def from_quad(cls, quad) -> "Scalar":
        """Build from the 4-integer wire encoding [re_num, re_den, im_num, im_den]."""
        if not isinstance(quad, (list, tuple)) or len(quad) != 4:
            raise ValueError(f"scalar encoding needs 4 integers, got {quad!r}")
        rn, rd, im_n, im_d = (parse_int(v) for v in quad)
        if rd == 0 or im_d == 0:
            raise ValueError(f"zero denominator in scalar encoding {quad!r}")
        return cls(_Q(rn, rd), _Q(im_n, im_d))

    def to_quad(self) -> list:
        return [self.re.numerator, self.re.denominator,
                self.im.numerator, self.im.denominator]

    def __add__(self, other) -> "Scalar":
        other = _coerce(other)
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        other = _coerce(other)
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "Scalar":
        return _coerce(other) - self

    def __mul__(self, other) -> "Scalar":
        other = _coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return Scalar(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero Scalar")
        return Scalar(self.re / n, -self.im / n)

    def __truediv__(self, other) -> "Scalar":
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other) -> "Scalar":
        return _coerce(other) * self.inverse()

    def __neg__(self) -> "Scalar":
        return Scalar(-self.re, -self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.im == 0 and self.re == other
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __str__(self) -> str:
        if self.im == 0:
            return _frac_str(self.re)
        im = _frac_str(self.im) + "i"
        if self.re == 0:
            return im
        sign = "+" if self.im > 0 else "-"
        return f"{_frac_str(self.re)}{sign}{_frac_str(abs(self.im))}i"

    def __repr__(self) -> str:
        return f"Scalar({self})"


def _coerce(v) -> Scalar:
    if isinstance(v, Scalar):
        return v
    if isinstance(v, int):
        return Scalar(v)
    raise TypeError(f"cannot coerce {v!r} to Scalar")


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)
