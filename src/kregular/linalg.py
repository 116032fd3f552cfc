"""Dense exact matrices over Q(i), the dot products, and the one
elimination kernel, EchelonSpan.

Single inner products (matvec, the Killing matrix, killing_pair, root
values) are vec_dot over Scalars, and so is MatrixQ.matmul, which only
validate's theta-involution check still calls.  The bulk products run
over the Gaussian integers: gaussian_rows clears a vector list by the lcm
of its denominators, gaussian_dot, gaussian_matvec and gaussian_matmul
take exact (re, im) integer products, and gaussian_scalar divides a
result back into a Scalar where it is reported.  pairing_matrix builds
every Gram this way, from (den, integer row) pairs and the Killing form
as LieAlgebra.gaussian_killing clears it once per algebra; word-pair
invariants, power traces, the invariance suite's residuals and oracle,
and Lyndon-word evaluation use the same helpers.  nilpotency_exponent and
is_nilpotent_matrix take a square matrix as (re, im) integer rows, such
as the D ad u of algebra.ad_matrix, and power it over the Gaussian
integers: (D m)^e = D^e m^e, so every zero test and exponent is that of
m.

Elimination runs over the Gaussian integers too.  Every rank, witness
minor, reduced basis, nullspace, solve and span-membership test is an
EchelonSpan pass over the rows in their given order, followed where
needed by its rref(); EchelonSpan clears each vector once and eliminates
fraction-free (Bareiss), and only rref() divides its rows back into
Scalars.  The one elimination left on Fraction-backed Scalars is the
reduced-mode filtration's certify._FractionSpan, until ROADMAP item 2.
The witness of a rank is the first independent rows and, within them,
the first independent columns.  All of it is exact, so rank + nullity is
an identity, not an approximation.  ModpSpan is the one elimination
outside Q(i): the same add over the integers mod a prime, for
certify.stabilization_bound and the full-mode certificates' cross-check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import SoundnessError
from .scalar import ONE, ZERO, Scalar

Vector = tuple  # tuple[Scalar, ...]


def vector(coeffs: Iterable) -> Vector:
    return tuple(c if isinstance(c, Scalar) else Scalar(c) for c in coeffs)


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_dot(u: Vector, v: Vector) -> Scalar:
    """Sum of u_i * v_i, without conjugation; zero terms are skipped."""
    acc = ZERO
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


def vec_scale(c: Scalar, u: Vector) -> Vector:
    return tuple(c * a for a in u)


def vec_is_zero(u: Vector) -> bool:
    return all(not a for a in u)


def linear_combination(coeffs: Iterable, vectors: Iterable, dim: int) -> Vector:
    """Sum of c * v over paired coefficients and dim-vectors; zero
    coefficients and zero vector entries are skipped."""
    out = [ZERO] * dim
    for c, v in zip(coeffs, vectors):
        if c:
            for i, a in enumerate(v):
                if a:
                    out[i] = out[i] + c * a
    return tuple(out)


def gaussian_rows(vectors: Iterable) -> tuple:
    """(scale, rows): scale > 0 the lcm of every denominator in vectors,
    and each vector times scale as a tuple of (re, im) integer pairs."""
    vectors = [tuple(v) for v in vectors]
    scale = math.lcm(*{q.denominator for v in vectors for a in v
                       for q in (a.re, a.im)})
    return scale, [tuple((a.re.numerator * (scale // a.re.denominator),
                          a.im.numerator * (scale // a.im.denominator))
                         for a in v)
                   for v in vectors]


def gaussian_dot(u: Sequence[tuple], v: Sequence[tuple]) -> tuple:
    """Sum of u_i * v_i over (re, im) integer pairs, without conjugation."""
    re = im = 0
    for (a, b), (c, d) in zip(u, v):
        re += a * c - b * d
        im += a * d + b * c
    return re, im


def gaussian_matvec(rows: Sequence[Sequence[tuple]], v: Sequence[tuple]) -> tuple:
    """The gaussian_dot of each integer row with v."""
    return tuple(gaussian_dot(r, v) for r in rows)


def gaussian_matmul(a: Sequence[Sequence[tuple]],
                    b: Sequence[Sequence[tuple]]) -> list:
    """The product a b of two matrices given as rows of (re, im) integer
    pairs, as a list of rows; zero terms are skipped."""
    cols = len(b[0]) if b else 0
    sparse = [[(j, c, d) for j, (c, d) in enumerate(row) if c or d]
              for row in b]
    out = []
    for row in a:
        re = [0] * cols
        im = [0] * cols
        for (p, q), terms in zip(row, sparse):
            if p or q:
                for j, c, d in terms:
                    re[j] += p * c - q * d
                    im[j] += p * d + q * c
        out.append(tuple(zip(re, im)))
    return out


def gaussian_scalar(z: tuple, den: int) -> Scalar:
    """The Scalar (re + im i) / den of an integer pair z and den > 0."""
    re, im = z
    if not (re or im):
        return ZERO
    if den == 1:
        return Scalar(re, im)
    return Scalar(Fraction(re, den), Fraction(im, den))


def pairing_matrix(pairs: Sequence[tuple], form: tuple) -> "MatrixQ":
    """The Gram matrix of u_a . (F u_b), each u = row / d given as a pair
    (d, row) with row in (re, im) integer pairs, and F = rows / K given as
    form = (K, rows), the way gaussian_rows clears it.  Computed on and
    above the diagonal and mirrored below it (symmetric for a symmetric
    form), with one Scalar per computed entry."""
    form_scale, form_rows = form
    images = [gaussian_matvec(form_rows, row) for _, row in pairs]
    m = len(pairs)
    flat = [ZERO] * (m * m)
    for a, (den, u) in enumerate(pairs):
        den *= form_scale
        for b in range(a, m):
            flat[a * m + b] = flat[b * m + a] = gaussian_scalar(
                gaussian_dot(u, images[b]), den * pairs[b][0])
    return MatrixQ(m, m, flat)


class MatrixQ:
    """A dense rows x cols matrix of Scalars, row-major and immutable."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[Scalar]):
        if len(entries) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(entries)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(entries))

    def __setattr__(self, name, value):
        raise AttributeError("MatrixQ is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "MatrixQ":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        flat = []
        for r in rows:
            if len(r) != nc:
                raise ValueError("ragged rows")
            flat.extend(vector(r))
        return cls(nr, nc, flat)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence]) -> "MatrixQ":
        nc = len(cols)
        nr = len(cols[0]) if nc else 0
        return cls.from_rows([[cols[j][i] for j in range(nc)] for i in range(nr)])

    @classmethod
    def identity(cls, n: int) -> "MatrixQ":
        return cls(n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n)))

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        return self.entries[j :: self.cols]

    def matvec(self, v: Sequence[Scalar]) -> Vector:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(vec_dot(self.row(i), v) for i in range(self.rows))

    def matmul(self, other: "MatrixQ") -> "MatrixQ":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        rows = [self.row(i) for i in range(self.rows)]
        cols = [other.column(j) for j in range(other.cols)]
        return MatrixQ(self.rows, other.cols,
                       [vec_dot(row, col) for row in rows for col in cols])

    def add(self, other: "MatrixQ") -> "MatrixQ":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return MatrixQ(self.rows, self.cols,
                       tuple(a + b for a, b in zip(self.entries, other.entries)))

    def sub(self, other: "MatrixQ") -> "MatrixQ":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return MatrixQ(self.rows, self.cols,
                       tuple(a - b for a, b in zip(self.entries, other.entries)))

    def is_zero(self) -> bool:
        return all(not a for a in self.entries)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self[i, j] == self[j, i] for i in range(self.rows) for j in range(i)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixQ):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.entries == other.entries

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"MatrixQ({self.rows}x{self.cols}: {body})"


def rank_profile(m: MatrixQ) -> tuple:
    """(rank, pivot_rows, pivot_cols): the first independent rows and,
    within them, the first independent columns (the pivots of their
    echelon form).  They locate a nonsingular rank x rank minor, a
    principal one when m is symmetric."""
    span = EchelonSpan(m.cols)
    rows = []
    for i in range(m.rows):
        if span.add(m.row(i)):
            rows.append(i)
    return len(rows), rows, span.pivot_columns


def rank_of(m: MatrixQ) -> int:
    """Exact rank over the fraction field."""
    return rank_profile(m)[0]


def reduced_basis(vectors: Iterable, dim: int) -> list:
    """Reduced row echelon rows of span(vectors).

    The rows are fixed by the span alone, not by the spanning vectors, and
    their entries stay small: a spanning set of the whole space reduces to
    the identity basis.  Use it where only the span matters.
    """
    span = EchelonSpan(dim)
    span.extend(vectors)
    return [tuple(r) for r in span.rref()[1]]


def nullspace_of(m: MatrixQ) -> list:
    """Basis of the right nullspace; empty iff rank = cols."""
    span = EchelonSpan(m.cols)
    span.extend(m.row(i) for i in range(m.rows))
    pivots, rows = span.rref()
    basis = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [ZERO] * m.cols
        v[f] = ONE
        for row, pc in zip(rows, pivots):
            v[pc] = -row[f]
        basis.append(tuple(v))
    return basis


def solve_in_span(basis: MatrixQ, v: Sequence[Scalar]):
    """Coefficients c with basis @ c = v, or None if v is outside the column span."""
    if len(v) != basis.rows:
        raise ValueError("dimension mismatch")
    n = basis.cols
    span = EchelonSpan(n + 1)
    span.extend(basis.row(i) + (v[i],) for i in range(basis.rows))
    pivots, rows = span.rref()
    if n in pivots:
        return None
    coeffs = [ZERO] * n
    for row, pc in zip(rows, pivots):
        coeffs[pc] = row[n]
    return tuple(coeffs)


def _gaussian_is_zero(rows) -> bool:
    return all(z == (0, 0) for r in rows for z in r)


def _square_size(rows: Sequence[Sequence[tuple]]) -> int:
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError(f"expected a {n}x{n} matrix")
    return n


def is_nilpotent_matrix(rows: Sequence[Sequence[tuple]]) -> bool:
    """True iff m^n = 0 for the square matrix m given as n rows of
    (re, im) integer pairs, computed by repeated squaring.  Any positive
    multiple D m of a Gaussian-rational matrix serves: (D m)^e = D^e m^e
    vanishes exactly when m^e does."""
    n = _square_size(rows)
    p, e = rows, 1
    while e < n:
        if _gaussian_is_zero(p):
            return True
        p = gaussian_matmul(p, p)
        e *= 2
    return _gaussian_is_zero(p)


def nilpotency_exponent(rows: Sequence[Sequence[tuple]]):
    """Least e >= 1 with m^e = 0, or None if m is not nilpotent, for the
    square matrix m given as rows of (re, im) integer pairs; an n x n
    nilpotent m has m^n = 0, so the powers stop at e = max(n, 1).  As in
    is_nilpotent_matrix, D m for any D > 0 has the exponent of m."""
    n = _square_size(rows)
    p, e = rows, 1
    while not _gaussian_is_zero(p):
        if e >= max(n, 1):
            return None
        p, e = gaussian_matmul(p, rows), e + 1
    return e


def _split(row: Sequence[tuple]) -> tuple:
    """(re, im): a row of (re, im) integer pairs as two int lists."""
    return [a for a, _ in row], [b for _, b in row]


def _cleared(v: Sequence[Scalar]) -> tuple:
    """(re, im): v times the lcm of its denominators, as two int lists;
    gaussian_rows of the one vector without building its pairs, on the
    path of every add and contains."""
    scale = math.lcm(*{q.denominator for a in v for q in (a.re, a.im)})
    if scale == 1:
        return [a.re.numerator for a in v], [a.im.numerator for a in v]
    return ([a.re.numerator * (scale // a.re.denominator) for a in v],
            [a.im.numerator * (scale // a.im.denominator) for a in v])


def _bareiss_step(xr: list, xi: list, ar: int, ai: int, pr: int, pi: int,
                  rr: Sequence[int], ri: Sequence[int], qr: int, qi: int) -> None:
    """x <- (p x - a row) / q in place, over Z[i]: x, row given as their
    real and imaginary int lists, a = x[c] for the row's pivot column c,
    p = row[c] and q the previous pivot (1 before the first).  Bareiss's
    identity makes the division exact; a remainder means the stored
    echelon is corrupt and raises SoundnessError."""
    unit = not qi and qr in (1, -1)
    # x / q = x conj(q) / |q|^2, or x / q itself for a real q
    divisor = qr * qr + qi * qi if qi else qr
    for j in range(len(xr)):
        x_re, x_im, r_re, r_im = xr[j], xi[j], rr[j], ri[j]
        if not (x_re or x_im or r_re or r_im):
            continue
        re = pr * x_re - pi * x_im - ar * r_re + ai * r_im
        im = pr * x_im + pi * x_re - ar * r_im - ai * r_re
        if unit:
            xr[j], xi[j] = re * qr, im * qr
            continue
        if qi:
            re, im = re * qr + im * qi, im * qr - re * qi
        xr[j], rem_re = divmod(re, divisor)
        xi[j], rem_im = divmod(im, divisor)
        if rem_re or rem_im:
            raise SoundnessError(
                "inexact division in the fraction-free echelon; its stored "
                "rows are corrupt, which is a bug")


class EchelonSpan:
    """An incrementally built subspace with exact membership tests; the
    package's elimination kernel over Q(i), run fraction-free over Z[i].

    basis keeps the vectors as inserted.  Each inserted vector is cleared
    once by the lcm of its denominators and reduced against the rows
    before it, in insertion order, by Bareiss's step
    w <- (p_k w - w[c_k] row_k) / p_{k-1}, where c_k is row k's pivot
    column (its first nonzero entry), p_k = row_k[c_k] and p_0 = 1 (Bareiss,
    Math. Comp. 22, 1968).  Every entry stays a minor of the cleared
    vectors, so the division is exact and the sizes stay bounded; the
    reduced w is zero exactly when the vector lies in the span, and
    otherwise becomes the next row.  The pivot columns are distinct, so
    sorted they are those of the reduced row echelon form, which rref()
    derives by the same step run upward (fraction-free Gauss-Jordan).  A
    full span (dim = ambient_dim) answers at once: contains is True, rref()
    the identity, and extend pulls no more vectors, so a lazy generator of
    brackets stops.
    """

    def __init__(self, ambient_dim: int):
        self.ambient_dim = ambient_dim
        self.basis = []  # vectors as inserted, linearly independent
        # (c_k, re p_k, im p_k, re row_k, im row_k) in insertion order
        self._rows = []

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def full(self) -> bool:
        return len(self.basis) == self.ambient_dim

    @property
    def pivot_columns(self) -> list:
        """The pivot columns of the echelon form, ascending."""
        return sorted(row[0] for row in self._rows)

    def _check_length(self, v: Sequence) -> None:
        if len(v) != self.ambient_dim:
            raise ValueError(f"expected length {self.ambient_dim}, got {len(v)}")

    def _reduce(self, wr: list, wi: list) -> None:
        """Reduce the cleared vector (wr, wi) against every row, in place."""
        qr, qi = 1, 0
        for c, pr, pi, rr, ri in self._rows:
            _bareiss_step(wr, wi, wr[c], wi[c], pr, pi, rr, ri, qr, qi)
            qr, qi = pr, pi

    def _insert(self, wr: list, wi: list) -> bool:
        self._reduce(wr, wi)
        for c in range(self.ambient_dim):
            if wr[c] or wi[c]:
                self._rows.append((c, wr[c], wi[c], wr, wi))
                return True
        return False

    def _reduces_to_zero(self, wr: list, wi: list) -> bool:
        self._reduce(wr, wi)
        return not any(wr) and not any(wi)

    def contains(self, v: Sequence[Scalar]) -> bool:
        self._check_length(v)
        return self.full or self._reduces_to_zero(*_cleared(v))

    def contains_row(self, row: Sequence[tuple]) -> bool:
        """contains for the vector given as (re, im) integer pairs; any
        positive multiple of a vector has its answer."""
        self._check_length(row)
        return self.full or self._reduces_to_zero(*_split(row))

    def add(self, v: Sequence[Scalar]) -> bool:
        """Insert v; returns True if it enlarged the span."""
        self._check_length(v)
        if self.full or not self._insert(*_cleared(v)):
            return False
        self.basis.append(tuple(v))
        return True

    def add_row(self, row: Sequence[tuple]) -> bool:
        """add for the vector given as (re, im) integer pairs, which joins
        basis as Scalars when it enlarges the span."""
        self._check_length(row)
        if self.full or not self._insert(*_split(row)):
            return False
        self.basis.append(tuple(Scalar(a, b) for a, b in row))
        return True

    def rref(self) -> tuple:
        """(pivot_cols, rows) of the reduced row echelon form, which depends
        only on the span; works on copies, leaving the span as is.

        Running the step upward over the rows, each row i < k by row k,
        leaves row i as p_r times its reduced row (p_r the last pivot), so
        each entry is divided by p_r once, at the end.
        """
        pivots = self.pivot_columns
        if self.full:
            return pivots, [[ONE if i == j else ZERO for j in pivots] for i in pivots]
        rows = [(c, list(rr), list(ri)) for c, _, _, rr, ri in self._rows]
        qr, qi = 1, 0
        for k, (c, pr, pi, rr, ri) in enumerate(self._rows):
            for _, xr, xi in rows[:k]:
                _bareiss_step(xr, xi, xr[c], xi[c], pr, pi, rr, ri, qr, qi)
            qr, qi = pr, pi
        # x / p_r = x conj(p_r) / |p_r|^2
        norm = qr * qr + qi * qi
        rows.sort(key=lambda t: t[0])
        return pivots, [[gaussian_scalar((a * qr + b * qi, b * qr - a * qi), norm)
                         for a, b in zip(xr, xi)] for _, xr, xi in rows]

    def extend(self, vectors: Iterable) -> None:
        if not self.full:
            for v in vectors:
                if self.add(v) and self.full:
                    return

    def equals(self, other: "EchelonSpan") -> bool:
        return (
            self.dim == other.dim
            and all(other.contains(v) for v in self.basis)
        )


class ModpSpan:
    """EchelonSpan's add, dim and full over F_p, p prime, for vectors of
    integers: each row is kept reduced mod p with a unit pivot.  A full
    span adds nothing more without reducing."""

    def __init__(self, ambient_dim: int, p: int):
        self.ambient_dim = ambient_dim
        self.p = p
        self._reduced = []  # list of (pivot_index, row), sorted by pivot

    @property
    def dim(self) -> int:
        return len(self._reduced)

    @property
    def full(self) -> bool:
        return len(self._reduced) == self.ambient_dim

    def add(self, v: Sequence[int]) -> bool:
        """Insert v; returns True if it enlarged the span."""
        if len(v) != self.ambient_dim:
            raise ValueError(f"expected length {self.ambient_dim}, got {len(v)}")
        if self.full:
            return False
        p = self.p
        w = [a % p for a in v]
        for pc, row in self._reduced:
            c = w[pc]
            if c:
                for j in range(pc, self.ambient_dim):
                    w[j] = (w[j] - c * row[j]) % p
        for pc, a in enumerate(w):
            if a:
                inv = pow(a, -1, p)
                self._reduced.append((pc, [inv * b % p for b in w]))
                self._reduced.sort(key=lambda t: t[0])
                return True
        return False
