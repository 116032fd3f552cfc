import dataclasses
from fractions import Fraction

import pytest

from kregular import certify
from kregular import (
    CartanDecomposition,
    LieAlgebra,
    MatrixQ,
    RestrictedRoot,
    RestrictedRootDatum,
    Scalar,
    bracket,
    catalog_build,
)
from kregular.catalog import _coords_of
from kregular.scalar import ONE, ZERO


# names that are neither 'sl<digits>' nor 'split-sl:<digits>' with ASCII
# digits within Python's digit limit
MALFORMED_CATALOG_NAMES = [
    "split-sl:x", "split-sl:", "split-sl:3.0", "split-sl: 3", "split-sl:+3",
    pytest.param("sl\u0663", id="sl-arabic-indic-3"),
    pytest.param("sl" + "9" * 5000, id="sl-5000-nines"),
]


def sc(re=0, im=0):
    return Scalar(re, im)


def matrix_element(n, entries):
    """sl(n) coordinates of the traceless n x n matrix with the given
    {(i, j): Scalar} entries (0-based), zero elsewhere."""
    return tuple(_coords_of([[entries.get((i, j), ZERO) for j in range(n)]
                             for i in range(n)], n))


def _sl4_nil():
    """x + y with y = u u^T and x = u v^T - v u^T for the isotropic plane
    u = (3, 4, 5i, 0), v = (4, -3, 0, 5i): g(z) = span{x, y} is abelian."""
    u = (Scalar(3), Scalar(4), Scalar(0, 5), ZERO)
    v = (Scalar(4), Scalar(-3), ZERO, Scalar(0, 5))
    return matrix_element(4, {(i, j): u[i] * u[j] + u[i] * v[j] - v[i] * u[j]
                              for i in range(4) for j in range(4)})


SL4_NIL = _sl4_nil()
# (1+i)(E12 - E21) + (1-i)(E34 - E43), an element of k: B(x, x) = 0, so
# its reduced Gram vanishes, but ad x is not nilpotent
Z_SL4_ZERO_GRAM = matrix_element(
    4, {(0, 1): Scalar(1, 1), (1, 0): Scalar(-1, -1),
        (2, 3): Scalar(1, -1), (3, 2): Scalar(-1, 1)})


def vec(dim, **coords):
    """Sparse constructor: vec(8, e3=1, e6=-1) -> unit coords at 3 and 6."""
    out = [ZERO] * dim
    for key, val in coords.items():
        out[int(key[1:])] = Scalar(val)
    return tuple(out)


def scalar_ad(alg, u):
    """ad u as a Scalar MatrixQ whose column j is bracket(alg, u, b_j): the
    reference that ad_matrix's integer rows are tested against."""
    return MatrixQ.from_columns([bracket(alg, u, alg.basis_vector(j))
                                 for j in range(alg.dim)])


def rescaled(alg, scales):
    """alg in the basis s_i b_i: [s_i b_i, s_j b_j] = sum_k
    (s_i s_j / s_k) c^k_ij (s_k b_k), so B'_ij = s_i s_j B_ij."""
    lower = {(i, j): [Scalar(scales[i] * scales[j] / scales[k]) * c
                      for k, c in enumerate(alg.table(i, j))]
             for i in range(alg.dim) for j in range(i + 1, alg.dim)
             if any(alg.table(i, j))}
    return LieAlgebra.from_lower_table(alg.name + "-rescaled", alg.dim, lower)


def rescaled_theta(cd, scales):
    """theta in the basis s_i b_i: S^-1 theta S, S = diag(scales)."""
    n = cd.theta.rows
    return CartanDecomposition(MatrixQ.from_rows(
        [[Scalar(Fraction(scales[j]) / scales[i]) * cd.theta[i, j]
          for j in range(n)] for i in range(n)]))


# basis scales that make the sl(3) table, Killing form and theta
# non-integral
SCALES = [Fraction(k + 1, 2 + k % 3) for k in range(8)]


def count_filtrations(monkeypatch, *modules):
    """Count calls of generated_subalgebra through the name each module
    uses; returns the list of recorded argument tuples."""
    calls = []
    original = certify.generated_subalgebra

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (certify, *modules):
        monkeypatch.setattr(module, "generated_subalgebra", counting)
    return calls


def flip_regularity(monkeypatch):
    """Make every exact filtration report claim the opposite of g(z) = g,
    so a reduced-mode certificate's rank/dimension cross-check, and a
    full-mode certificate's fallback to the exact filtration, must fail.
    Full-mode certificates on ordinary inputs run no exact filtration."""
    original = certify.generated_subalgebra

    def flipped(alg, cd, z):
        rep = original(alg, cd, z)
        dim = alg.dim - 1 if rep.dim == alg.dim else alg.dim
        return dataclasses.replace(rep, dim=dim)

    monkeypatch.setattr(certify, "generated_subalgebra", flipped)


def claim_modp_span_at_degree_one(monkeypatch):
    """Make the F_p pass claim a full span at degree 1 for every element,
    so every full-mode certificate's F_p cross-check must fail: a word
    span below dim g contradicts the full F_p span, and a full one
    stabilizes past degree 1."""
    monkeypatch.setattr(certify, "_modp_bound", lambda alg, x, y: 1)


@pytest.fixture(scope="session")
def sl2():
    return catalog_build("split-sl", 2)


@pytest.fixture(scope="session")
def sl3():
    return catalog_build("split-sl", 3)


@pytest.fixture(scope="session")
def sl4():
    return catalog_build("split-sl", 4)


@pytest.fixture(scope="session")
def sl3_rescaled(sl3):
    alg, cd = sl3
    return rescaled(alg, SCALES), rescaled_theta(cd, SCALES)


def _sl3_lower_table():
    alg, _ = catalog_build("split-sl", 3)
    return {
        (i, j): alg.table(i, j)
        for i in range(alg.dim)
        for j in range(i + 1, alg.dim)
        if any(alg.table(i, j))
    }


@pytest.fixture(scope="session")
def su21():
    """An indefinite-unitary-type decomposition of the sl(3) bracket table.

    The involution is conjugation by diag(1, 1, -1); k is the upper-left
    2x2 block plus the last diagonal entry, p is the off-block.  Basis
    order is H1, H2, E12, E13, E21, E23, E31, E32.
    """
    alg3, _ = catalog_build("split-sl", 3)
    alg = LieAlgebra.from_lower_table(
        "su21", 8, _sl3_lower_table(), basis_labels=alg3.basis_labels)
    signs = [1, 1, 1, -1, 1, -1, -1, -1]
    theta = MatrixQ.from_rows([
        [Scalar(signs[i]) if i == j else ZERO for j in range(8)]
        for i in range(8)
    ])
    return alg, CartanDecomposition(theta)


@pytest.fixture(scope="session")
def su21_datum():
    """Restricted-root datum for the su21 fixture: a = C(E13 + E31),
    roots +-1 (multiplicity 2) and +-2, m = C(H1 - H2)."""
    a1 = vec(8, e3=1, e6=1)
    hm = vec(8, e0=1, e1=-1)
    plus_one = RestrictedRoot(
        (sc(1),), (vec(8, e2=1, e7=1), vec(8, e4=1, e5=-1)))
    minus_one = RestrictedRoot(
        (sc(-1),), (vec(8, e2=1, e7=-1), vec(8, e4=1, e5=1)))
    plus_two = RestrictedRoot(
        (sc(2),), (vec(8, e3=1, e6=-1, e0=-1, e1=-1),))
    minus_two = RestrictedRoot(
        (sc(-2),), (vec(8, e3=1, e6=-1, e0=1, e1=1),))
    return RestrictedRootDatum(
        a_basis=(a1,),
        hm_basis=(hm,),
        roots=(plus_one, minus_one, plus_two, minus_two),
        positive=(0, 2),
    )
