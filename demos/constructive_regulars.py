"""Build certified K-regular elements deterministically from restricted-root
data, for the split catalog and for a non-split decomposition supplied as
data.

Run:  python3 demos/constructive_regulars.py
"""

from kregular import (
    catalog_build,
    catalog_datum,
    centralizer_in_k,
    construct_regular,
)


def show(alg, cd, datum, title):
    ez = construct_regular(alg, cd, datum)
    cert = ez.certificate
    rep = cert.subalgebra
    cz = centralizer_in_k(alg, cd, rep)
    print(title)
    print(f"  y (regular in a): ({', '.join(str(c) for c in ez.y)})")
    print(f"  x (root-vector sum): ({', '.join(str(c) for c in ez.x)})")
    print(f"  verdict: {cert.verdict}; g(z) stabilizes at step "
          f"{rep.stabilization_degree} with dim {rep.dim}")
    print(f"  centralizer of g(z) in k: dim {len(cz)}")
    print()


for n in (2, 3, 4):
    alg, cd = catalog_build("split-sl", n)
    show(alg, cd, catalog_datum(alg, cd), f"split sl({n}):")

# A non-split decomposition of the same sl(3) bracket table: conjugation
# by diag(1, 1, -1).  Its restricted-root system has one root with a
# 2-dimensional root space, so the construction needs a nonzero x0 drawn
# from the centralizer of a in k to act cyclically on that space.
from kregular import (
    CartanDecomposition,
    LieAlgebra,
    MatrixQ,
    RestrictedRoot,
    RestrictedRootDatum,
    Scalar,
)
from kregular.scalar import ZERO


def unit(*entries):
    v = [ZERO] * 8
    for idx, val in entries:
        v[idx] = Scalar(val)
    return tuple(v)


alg3, _ = catalog_build("split-sl", 3)
lower = {(i, j): alg3.table(i, j)
         for i in range(8) for j in range(i + 1, 8) if any(alg3.table(i, j))}
alg = LieAlgebra.from_lower_table("su21", 8, lower,
                                  basis_labels=alg3.basis_labels)
# basis order H1, H2, E12, E13, E21, E23, E31, E32
signs = [1, 1, 1, -1, 1, -1, -1, -1]
theta = MatrixQ.from_rows([[Scalar(signs[i]) if i == j else ZERO
                            for j in range(8)] for i in range(8)])
cd = CartanDecomposition(theta)
datum = RestrictedRootDatum(
    a_basis=(unit((3, 1), (6, 1)),),            # E13 + E31
    hm_basis=(unit((0, 1), (1, -1)),),          # diag(1, -2, 1)
    roots=(
        RestrictedRoot((Scalar(1),),
                       (unit((2, 1), (7, 1)), unit((4, 1), (5, -1)))),
        RestrictedRoot((Scalar(-1),),
                       (unit((2, 1), (7, -1)), unit((4, 1), (5, 1)))),
        RestrictedRoot((Scalar(2),),
                       (unit((3, 1), (6, -1), (0, -1), (1, -1)),)),
        RestrictedRoot((Scalar(-2),),
                       (unit((3, 1), (6, -1), (0, 1), (1, 1)),)),
    ),
    positive=(0, 2),
)
show(alg, cd, datum, "indefinite-unitary-type decomposition of sl(3):")
