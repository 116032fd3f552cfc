"""Built-in split sl(n) models, n = 2..5.

Basis order (fixed so reports are reproducible bit-for-bit):
H_1, ..., H_{n-1} with H_i = E_ii - E_{i+1,i+1}, followed by E_ij for
i != j in lexicographic (i, j) order.  For sl(2) this is (h, e, f).
The involution is theta(X) = -X^T (the complexified split form).
"""

from __future__ import annotations

import functools
import re

from .algebra import CartanDecomposition, LieAlgebra, validate
from .errors import CatalogError, SoundnessError
from .linalg import MatrixQ
from .scalar import ONE, ZERO

FAMILIES = ("split-sl",)
MIN_SIZE = 2
MAX_SIZE = 5


def _basis_matrices(n: int) -> tuple:
    """Basis of sl(n) as n x n Scalar matrices, plus labels."""
    mats = []
    labels = []
    for i in range(n - 1):
        m = [[ZERO] * n for _ in range(n)]
        m[i][i] = ONE
        m[i + 1][i + 1] = -ONE
        mats.append(m)
        labels.append(f"H{i + 1}")
    for i in range(n):
        for j in range(n):
            if i != j:
                m = [[ZERO] * n for _ in range(n)]
                m[i][j] = ONE
                mats.append(m)
                labels.append(f"E{i + 1}{j + 1}")
    return mats, labels


def _coords_of(m, n: int) -> list:
    """Coordinates of a traceless n x n matrix in the documented basis."""
    coords = []
    partial = ZERO
    for i in range(n - 1):
        partial = partial + m[i][i]
        coords.append(partial)
    for i in range(n):
        for j in range(n):
            if i != j:
                coords.append(m[i][j])
    return coords


def _mat_bracket(a, b, n: int):
    out = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            aik = a[i][k]
            bik = b[i][k]
            for j in range(n):
                if aik and b[k][j]:
                    out[i][j] = out[i][j] + aik * b[k][j]
                if bik and a[k][j]:
                    out[i][j] = out[i][j] - bik * a[k][j]
    return out


def matrix_index(n: int, i: int, j: int) -> int:
    """Basis index of E_ij (1-based i, j; i != j) or H_i for j == i."""
    if i == j:
        if not 1 <= i <= n - 1:
            raise ValueError("H index out of range")
        return i - 1
    off = (n - 1)
    k = 0
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a != b:
                if (a, b) == (i, j):
                    return off + k
                k += 1
    raise ValueError("index out of range")


@functools.lru_cache(maxsize=None)
def catalog_build(family: str, size: int) -> tuple:
    """Build a catalog algebra with its Cartan decomposition; validated."""
    if family not in FAMILIES:
        raise CatalogError(f"unknown family {family!r}; known: {FAMILIES}")
    if not MIN_SIZE <= size <= MAX_SIZE:
        raise CatalogError(
            f"size {size} out of range [{MIN_SIZE}, {MAX_SIZE}] for {family}")
    n = size
    dim = n * n - 1
    mats, labels = _basis_matrices(n)

    lower = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            coords = _coords_of(_mat_bracket(mats[i], mats[j], n), n)
            if any(coords):
                lower[(i, j)] = coords
    alg = LieAlgebra.from_lower_table(
        f"sl{n}", dim, lower, basis_labels=labels, family=family)

    # theta(X) = -X^T in coordinates: H_i -> -H_i, E_ij -> -E_ji
    cols = []
    for m in mats:
        mt = [[-m[j][i] for j in range(n)] for i in range(n)]
        cols.append(_coords_of(mt, n))
    theta = MatrixQ.from_columns(cols)
    cd = CartanDecomposition(theta)

    report = validate(alg, cd)
    if not report.ok:
        raise SoundnessError(
            f"catalog construction failed validation: {report.first_failure}")
    return alg, cd


def parse_algebra_name(name: str) -> tuple:
    """Accepts exactly 'sl<n>' or 'split-sl:<n>', n in ASCII digits."""
    match = re.fullmatch(r"(?:sl|split-sl:)([0-9]+)", name)
    if match is not None:
        try:
            return "split-sl", int(match[1])
        except ValueError:  # past Python's digit limit
            pass
    raise CatalogError(f"unrecognized catalog algebra name {name!r}")
