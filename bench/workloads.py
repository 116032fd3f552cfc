"""Seeded inputs for the three benchmark workloads.

Every input is a pure function of (workload, seed): a certificate op is a
(class, element) pair drawn from a per-class pool, a suite op is a
verify_suite entry with a suite seed drawn from a per-entry pool.  Each
class fixes the verdict the op must return, so a wrong verdict is a failed
op.

Elements are built as n x n matrices over the Gaussian integers (or, for
the wide class, drawn directly as coordinates) and mapped to the catalog
basis of split sl(n): H_1..H_{n-1}, then E_ij in lexicographic order.
Gaussian numbers are (re, im) pairs of ints or Fractions, never Scalar,
so the checks in checks.py can reuse them without the library.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

CLASSES = ("regular", "wide", "deficient", "nil", "nilmiss")

# class -> (library call, expected verdict)
CLASS_CALL = {
    "regular": ("is_k_regular", "k-regular"),
    "wide": ("is_k_regular", "k-regular"),
    "deficient": ("is_k_regular", "neither"),
    "nil": ("nilcone_test", "nil-k"),
    "nilmiss": ("nilcone_test", "k-regular"),
}

# workload -> (sl(n) size, distinct elements per class).  Every round runs
# one op of each class, so the classes have equal weight.
CERT_WORKLOADS = {
    "sl3-full": (3, 3),
    "sl4-reduced": (4, 6),
}

# suite-sweep runs one op of each (size, suite, class slot) entry per round.
# The slot names the per-class latency metric the entry fills, so every
# workload reports the same metric names; it is the verdict path the entry
# mostly exercises.
SUITE_ENTRIES = (
    (2, "all", "nil"),
    (3, "invariance", "wide"),
    (3, "stabilization", "deficient"),
    (4, "nilcone", "nilmiss"),
    (4, "appendix", "regular"),
)
# The CI calls use 100 (the CLI default, for `all`), 25 (invariance),
# 100 (stabilization), 200 (nilcone) and 1 (appendix) samples; divided by
# 200 and rounded up to at least one, every entry runs one sample.  200 is
# the smallest common factor that keeps a round near 5 s, so a run holds
# enough rounds for the 11th-largest latency to stay in one entry.
SUITE_SAMPLES = 1
# Distinct suite seeds per entry; the ops cycle through them like the
# certificate pools, so every op of the default seed has a pinned digest.
SUITE_POOL = 8

WORKLOADS = tuple(CERT_WORKLOADS) + ("suite-sweep",)

REGULAR_BOX = 3
BLOCK_BOX = 6  # wide enough that rank-dropping coincidences are rare
WIDE_BITS = 20


@dataclass(frozen=True)
class Element:
    """One certificate input; x_mat/y_mat are kept for the nil checks."""

    coords: tuple
    x_mat: Optional[tuple] = None
    y_mat: Optional[tuple] = None


@dataclass(frozen=True)
class Op:
    """One library call of the closed loop."""

    key: str
    cls: str
    size: int
    element: Optional[Element] = None
    suite: Optional[str] = None
    suite_seed: int = 0
    samples: int = 0


def coords_of(mat) -> tuple:
    """Catalog coordinates of a traceless n x n matrix of Gaussian pairs."""
    n = len(mat)
    coords = []
    re = im = 0
    for i in range(n - 1):
        re += mat[i][i][0]
        im += mat[i][i][1]
        coords.append((re, im))
    for i in range(n):
        for j in range(n):
            if i != j:
                coords.append(mat[i][j])
    return tuple(coords)


def _gauss(rng, box):
    return (rng.randint(-box, box), rng.randint(-box, box))


def regular_coords(rng, dim):
    return tuple(_gauss(rng, REGULAR_BOX) for _ in range(dim))


def wide_coords(rng, dim, k):
    """Alternately 20-bit Gaussian integers and Gaussian rationals."""
    if k % 2 == 0:
        return tuple(_gauss(rng, 1 << WIDE_BITS) for _ in range(dim))

    def q():
        return Fraction(rng.randint(-(1 << 5), 1 << 5), rng.randint(1, 1 << 4))

    return tuple((q(), q()) for _ in range(dim))


def block_matrix(rng, blocks):
    """Random traceless block-diagonal matrix, e.g. blocks (2, 1) = gl(2)."""
    n = sum(blocks)
    mat = [[(0, 0)] * n for _ in range(n)]
    start = 0
    for b in blocks:
        for i in range(start, start + b):
            for j in range(start, start + b):
                mat[i][j] = _gauss(rng, BLOCK_BOX)
        start += b
    tr_re = sum(mat[i][i][0] for i in range(n))
    tr_im = sum(mat[i][i][1] for i in range(n))
    last = mat[n - 1][n - 1]
    mat[n - 1][n - 1] = (last[0] - tr_re, last[1] - tr_im)
    return mat


def _outer(u, v):
    return [[(a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]) for b in v]
            for a in u]


def _sub(a, b):
    return [[(p[0] - q[0], p[1] - q[1]) for p, q in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def _add(a, b):
    return [[(p[0] + q[0], p[1] + q[1]) for p, q in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def nil_matrices(rng, n):
    """(x, y) with y = u u^T, u.u = 0, and for n = 4 x = u v^T - v u^T.

    u = (m^2 - k^2, 2mk, i(m^2 + k^2)) is isotropic; for sl(4),
    v = (2mk, k^2 - m^2, 0, i(m^2 + k^2)) completes an isotropic plane.
    Both get the same random signed permutation, which keeps every dot
    product.  y is symmetric (in p), x antisymmetric (in k), and both map
    into the plane and vanish on it, so g(z) = span{x, y} is abelian and
    nilpotent: the verdict is nil-k.
    """
    m = rng.randint(2, 7)
    k = rng.randint(1, m - 1)  # no zero coordinate: keeps the op cost even
    a, b, c = m * m - k * k, 2 * m * k, m * m + k * k
    u = [(a, 0), (b, 0), (0, c)] + [(0, 0)] * (n - 3)
    v = [(b, 0), (-a, 0), (0, 0), (0, c)] if n == 4 else [(0, 0)] * n
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    u = [(signs[i] * u[perm[i]][0], signs[i] * u[perm[i]][1]) for i in range(n)]
    v = [(signs[i] * v[perm[i]][0], signs[i] * v[perm[i]][1]) for i in range(n)]
    y = _outer(u, u)
    x = _sub(_outer(u, v), _outer(v, u))
    return x, y


def _freeze(mat):
    return tuple(tuple(r) for r in mat)


def make_element(cls, n, k, rng):
    dim = n * n - 1
    if cls in ("regular", "nilmiss"):
        return Element(regular_coords(rng, dim))
    if cls == "wide":
        return Element(wide_coords(rng, dim, k))
    if cls == "deficient":
        # on sl(4), one s(gl2 x gl2) element per five gl(3) ones, so the
        # class median falls inside the bulk of the slower cost mode
        blocks = (2, 1) if n == 3 else (3, 1) if k % 6 else (2, 2)
        return Element(coords_of(block_matrix(rng, blocks)))
    x, y = nil_matrices(rng, n)
    return Element(coords_of(_add(x, y)), _freeze(x), _freeze(y))


def pool(workload, seed):
    """class -> list of distinct ops, fixed by (workload, seed)."""
    if workload in CERT_WORKLOADS:
        n, size = CERT_WORKLOADS[workload]
        out = {}
        for cls in CLASSES:
            rng = random.Random(f"{workload}/{cls}/{seed}")
            out[cls] = [Op(f"{cls}/{k}", cls, n,
                           element=make_element(cls, n, k, rng))
                        for k in range(size)]
        return out
    out = {}
    for n, suite, cls in SUITE_ENTRIES:
        rng = random.Random(f"suite-sweep/sl{n}/{suite}/{seed}")
        seeds = [rng.getrandbits(31) for _ in range(SUITE_POOL)]
        out[cls] = [Op(f"sl{n}/{suite}/{s}", cls, n, suite=suite,
                       suite_seed=s, samples=SUITE_SAMPLES) for s in seeds]
    return out


def pool_rounds(ops_pool):
    """Rounds after which every op of the pool has run once."""
    return max(map(len, ops_pool.values()))


def ops_for_round(ops_pool, r):
    """The ops of round r: one per class, each class cycling its pool."""
    return [ops[r % len(ops)] for ops in ops_pool.values()]


def sizes(workload):
    """sl(n) sizes the workload needs at set-up."""
    if workload in CERT_WORKLOADS:
        return (CERT_WORKLOADS[workload][0],)
    return tuple(sorted({e[0] for e in SUITE_ENTRIES}))
