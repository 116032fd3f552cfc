from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kregular.algebra import (
    CartanDecomposition,
    LieAlgebra,
    ad_matrix,
    bracket,
    decompose,
    killing_pair,
    validate,
)
from kregular.catalog import catalog_build, parse_algebra_name
from kregular.errors import CatalogError
from kregular.linalg import MatrixQ, vec_add, vec_dot, vec_is_zero
from kregular.scalar import ONE, ZERO, Scalar

from conftest import MALFORMED_CATALOG_NAMES, scalar_ad, vec


def sl2_lower():
    # basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h
    return {
        (0, 1): (ZERO, Scalar(2), ZERO),
        (0, 2): (ZERO, ZERO, Scalar(-2)),
        (1, 2): (ONE, ZERO, ZERO),
    }


def test_sl2_brackets(sl2):
    alg, _ = sl2
    h, e, f = (alg.basis_vector(i) for i in range(3))
    assert bracket(alg, h, e) == vec(3, e1=2)
    assert bracket(alg, h, f) == vec(3, e2=-2)
    assert bracket(alg, e, f) == h
    assert bracket(alg, e, h) == vec(3, e1=-2)
    assert vec_is_zero(bracket(alg, h, h))


def _dense_killing(alg):
    """Reference Killing entries: n dense ad matrices, their transposes
    and n^2 dot products of length n^2."""
    ads = [scalar_ad(alg, alg.basis_vector(i)) for i in range(alg.dim)]
    transposed = [tuple(e for r in range(alg.dim) for e in b.column(r))
                  for b in ads]
    return [vec_dot(a.entries, bt) for a in ads for bt in transposed]


def _dense_jacobi(alg):
    """Reference Jacobi check over dense vectors: the first triple
    i < j < k whose cyclic sum [b_a, [b_b, b_c]] is nonzero, or None."""
    adj = {}
    for (i, j), terms in alg.structure.items():
        adj.setdefault(i, []).append((j, terms))

    def bracket_basis(i, v):
        out = [ZERO] * alg.dim
        for j, terms in adj.get(i, ()):
            if v[j]:
                for k, s in terms:
                    out[k] = out[k] + v[j] * s
        return tuple(out)

    n = alg.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                s = vec_add(vec_add(bracket_basis(i, alg.table(j, k)),
                                    bracket_basis(j, alg.table(k, i))),
                            bracket_basis(k, alg.table(i, j)))
                if not vec_is_zero(s):
                    return (i, j, k)
    return None


def _assert_matches_dense_reference(alg):
    assert list(alg.killing.entries) == _dense_killing(alg)
    jacobi = [c for c in validate(alg).checks if c.name == "jacobi"][0]
    bad = _dense_jacobi(alg)
    assert jacobi.passed == (bad is None)
    assert jacobi.detail == ("jacobi({},{},{})".format(*bad) if bad else "")


@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_catalog_matches_dense_reference(size):
    _assert_matches_dense_reference(catalog_build("split-sl", size)[0])


def test_su21_matches_dense_reference(su21):
    _assert_matches_dense_reference(su21[0])


gaussian_rationals = st.builds(
    lambda a, b, c, d: Scalar(Fraction(a, b), Fraction(c, d)),
    st.integers(-3, 3), st.integers(1, 3), st.integers(-3, 3),
    st.integers(1, 3))


@st.composite
def sparse_tables(draw):
    """A sparse table on 2..5 basis vectors: either an antisymmetric
    closure (usually violating Jacobi) or a raw table on ordered pairs,
    not antisymmetric, whose terms may repeat an index or hold a zero."""
    dim = draw(st.integers(2, 5))
    pairs = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    terms = st.lists(st.tuples(st.integers(0, dim - 1), gaussian_rationals),
                     min_size=1, max_size=4).map(tuple)
    if draw(st.booleans()):
        lower = draw(st.dictionaries(pairs.filter(lambda p: p[0] < p[1]),
                                     terms, max_size=6))
        return LieAlgebra.from_lower_table("drawn", dim, lower)
    return LieAlgebra("drawn", dim, draw(st.dictionaries(pairs, terms,
                                                         max_size=8)))


@settings(max_examples=150, deadline=None)
@given(sparse_tables())
def test_sparse_table_matches_dense_reference(alg):
    _assert_matches_dense_reference(alg)


def test_repeated_index_matches_dense_reference():
    # [b0, b1] lists b0 twice and [b1, b2] lists b1 twice, cancelling: the
    # table sums a repeated index for every reader, so [b0, b1] = 3 b0
    # (B_01 = 3) and [b1, b2] = 0, and triple (0, 1, 2) satisfies Jacobi
    structure = {(0, 1): ((0, ONE), (0, Scalar(2))),
                 (1, 0): ((1, ONE),),
                 (1, 2): ((1, ONE), (1, -ONE))}
    alg = LieAlgebra("repeated", 3, structure)
    _assert_matches_dense_reference(alg)
    assert alg.killing[0, 1] == Scalar(3)
    assert alg.structure == {(0, 1): ((0, Scalar(3)),), (1, 0): ((1, ONE),)}
    jacobi = validate(alg).checks[1]
    assert jacobi.name == "jacobi" and jacobi.passed and jacobi.detail == ""


def test_repeated_index_is_read_once_by_every_check():
    # [b0, b1] = b2 + b2 = 2 b2 and [b1, b0] = -b2 is not antisymmetric,
    # as bracket, ad and the Killing form see it; the table and the
    # validate checks must see the same sum
    alg = LieAlgebra("bad", 3, {(0, 1): ((2, ONE), (2, ONE)),
                                (1, 0): ((2, -ONE),)})
    b0, b1 = alg.basis_vector(0), alg.basis_vector(1)
    assert bracket(alg, b0, b1) == alg.table(0, 1) == vec(3, e2=2)
    assert bracket(alg, b1, b0) == alg.table(1, 0) == vec(3, e2=-1)
    antisymmetry = validate(alg).checks[0]
    assert antisymmetry.name == "antisymmetry"
    assert not antisymmetry.passed and antisymmetry.detail == "(0,1)"


def test_canonical_table_keeps_catalog_entries_as_built():
    # catalog and JSON tables come from _sparsify: no repeat, no zero, so
    # the canonical table holds the very same term tuples
    alg, _ = catalog_build("split-sl", 3)
    rebuilt = LieAlgebra("copy", alg.dim, alg.structure)
    assert rebuilt.structure == alg.structure
    assert all(rebuilt.structure[ij] is terms
               for ij, terms in alg.structure.items())


def test_ad_matrix(sl2):
    alg, _ = sl2
    h = alg.basis_vector(0)
    assert ad_matrix(alg, h) == (1, [
        ((0, 0), (0, 0), (0, 0)),
        ((0, 0), (2, 0), (0, 0)),
        ((0, 0), (0, 0), (-2, 0)),
    ])
    assert scalar_ad(alg, h) == MatrixQ.from_rows([
        [ZERO, ZERO, ZERO],
        [ZERO, Scalar(2), ZERO],
        [ZERO, ZERO, Scalar(-2)],
    ])
    # u = (1/2 + i) e: [u, h] = -(1 + 2i) e and [u, f] = (1/2 + i) h,
    # over den 2, the lcm of u's denominators (the table is integral)
    assert ad_matrix(alg, (ZERO, Scalar(Fraction(1, 2), 1), ZERO)) == (2, [
        ((0, 0), (0, 0), (1, 2)),
        ((-2, -4), (0, 0), (0, 0)),
        ((0, 0), (0, 0), (0, 0)),
    ])


def test_killing_values(sl2):
    alg, _ = sl2
    h, e, f = (alg.basis_vector(i) for i in range(3))
    assert killing_pair(alg, h, h) == Scalar(8)
    assert killing_pair(alg, e, f) == Scalar(4)
    assert killing_pair(alg, h, e) == ZERO
    assert killing_pair(alg, e, e) == ZERO


def test_killing_matches_trace_oracle(sl3):
    alg, _ = sl3
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            u = alg.basis_vector(i)
            v = alg.basis_vector(j)
            product = scalar_ad(alg, u).matmul(scalar_ad(alg, v))
            oracle = sum((product[k, k] for k in range(alg.dim)), ZERO)
            assert killing_pair(alg, u, v) == oracle


def test_decompose(sl2):
    alg, cd = sl2
    e = alg.basis_vector(1)
    ez = decompose(cd, e)
    half = Scalar(1) / Scalar(2)
    assert ez.x == (ZERO, half, -half)  # (e - f)/2
    assert ez.y == (ZERO, half, half)  # (e + f)/2
    assert tuple(a + b for a, b in zip(ez.x, ez.y)) == e


def test_catalog_validates(sl2, sl3, sl4):
    for alg, cd in (sl2, sl3, sl4):
        report = validate(alg, cd)
        assert report.ok, report.first_failure


@pytest.mark.parametrize("name", MALFORMED_CATALOG_NAMES)
def test_parse_algebra_name_refuses_all_but_ascii_digits(name):
    with pytest.raises(CatalogError, match="unrecognized catalog algebra name"):
        parse_algebra_name(name)


@pytest.mark.parametrize("name", ["sl3", "split-sl:3", "sl03"])
def test_parse_algebra_name_reads_sl3(name):
    assert parse_algebra_name(name) == ("split-sl", 3)


def test_validate_names_antisymmetry_defect():
    # only one orientation stored: [b1, b2] = b0 but [b2, b1] = 0
    structure = {(1, 2): ((0, ONE),)}
    alg = LieAlgebra("broken", 3, structure)
    report = validate(alg)
    bad = [c for c in report.checks if c.name == "antisymmetry"][0]
    assert not bad.passed
    assert bad.detail == "(1,2)"


def test_validate_names_jacobi_defect():
    lower = {
        (0, 1): (ZERO, ZERO, ONE),   # [b0,b1] = b2
        (0, 2): (ONE, ZERO, ZERO),   # [b0,b2] = b0
        (1, 2): (ONE, ZERO, ZERO),   # [b1,b2] = b0
    }
    alg = LieAlgebra.from_lower_table("broken", 3, lower)
    report = validate(alg)
    bad = [c for c in report.checks if c.name == "jacobi"][0]
    assert not bad.passed
    assert bad.detail == "jacobi(0,1,2)"


def test_validate_flags_identity_theta(sl2):
    alg, _ = sl2
    cd = CartanDecomposition(MatrixQ.identity(3))
    report = validate(alg, cd)
    names = {c.name: c.passed for c in report.checks}
    assert not names["properness"]  # p = 0 cannot bracket onto k


def test_validate_flags_non_automorphism(sl2):
    alg, _ = sl2
    # swap e and f, fix h: an involution but not a bracket homomorphism
    swap = MatrixQ.from_rows([
        [ONE, ZERO, ZERO], [ZERO, ZERO, ONE], [ZERO, ONE, ZERO]])
    report = validate(alg, CartanDecomposition(swap))
    names = {c.name: c.passed for c in report.checks}
    assert names["theta-involution"]
    assert not names["theta-automorphism"]


def test_su21_fixture_validates(su21):
    alg, cd = su21
    assert cd.dim_k == 4 and cd.dim_p == 4
    report = validate(alg, cd)
    assert report.ok, report.first_failure


def test_bracket_dimension_mismatch(sl2):
    alg, _ = sl2
    with pytest.raises(ValueError):
        bracket(alg, (ONE,), alg.basis_vector(0))


def _dense_antisymmetry(alg):
    """Reference antisymmetry check: every pair i <= j compared densely."""
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            if alg.table(i, j) != tuple(-c for c in alg.table(j, i)):
                return (i, j)
    return None


def _dense_theta_automorphism(alg, cd):
    """Reference automorphism check: a dense theta matvec per pair."""
    for i in range(alg.dim):
        ti = cd.theta.column(i)
        for j in range(i + 1, alg.dim):
            if cd.theta.matvec(alg.table(i, j)) != bracket(
                    alg, ti, cd.theta.column(j)):
                return (i, j)
    return None


def _assert_validate_matches_dense_loops(alg, cd):
    checks = {c.name: c for c in validate(alg, cd).checks}
    for name, bad in (("antisymmetry", _dense_antisymmetry(alg)),
                      ("theta-automorphism",
                       _dense_theta_automorphism(alg, cd))):
        assert checks[name].passed == (bad is None), name
        assert checks[name].detail == ("({},{})".format(*bad) if bad else "")
    orthogonal = not any(killing_pair(alg, u, v)
                         for u in cd.k_basis for v in cd.p_basis)
    assert checks["killing-k-p-orthogonal"].passed == orthogonal


def _theta_swapping(n, a, b):
    return MatrixQ.from_rows([[ONE if j == {a: b, b: a}.get(i, i) else ZERO
                               for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_validate_matches_dense_loops_on_catalog(size):
    _assert_validate_matches_dense_loops(*catalog_build("split-sl", size))


def test_validate_matches_dense_loops_on_su21_and_broken_theta(su21, sl2, sl3):
    _assert_validate_matches_dense_loops(*su21)
    # swapping e and f is an involution but not an automorphism of sl(2)
    swap = _theta_swapping(3, 1, 2)
    _assert_validate_matches_dense_loops(sl2[0], CartanDecomposition(swap))
    alg, cd = sl3
    flipped = MatrixQ.from_columns(
        [tuple(-c for c in col) if j == 4 else col
         for j, col in enumerate(cd.theta.column(j) for j in range(8))])
    _assert_validate_matches_dense_loops(alg, CartanDecomposition(flipped))
    assert not validate(alg, CartanDecomposition(flipped)).ok


@pytest.mark.parametrize("structure", [
    {(1, 2): ((0, ONE),)},  # one orientation only
    {(0, 1): ((0, ONE), (0, Scalar(2))), (1, 0): ((1, ONE),),
     (1, 2): ((1, ONE), (1, -ONE))},  # a repeated index
    {(1, 1): ((0, ONE),), (1, 2): ((0, ONE),)},  # a diagonal key first
    {(2, 1): ((2, ONE),), (2, 2): ((1, ONE),)},  # out of order, then diagonal
], ids=["one-orientation", "repeated-index", "diagonal", "diagonal-later"])
def test_validate_matches_dense_loops_on_raw_tables(structure):
    alg = LieAlgebra("raw", 3, structure)
    for theta in (MatrixQ.identity(3), _theta_swapping(3, 0, 2)):
        _assert_validate_matches_dense_loops(alg, CartanDecomposition(theta))


@st.composite
def tables_with_theta(draw):
    """A drawn sparse table with a signed-permutation or a dense theta."""
    alg = draw(sparse_tables())
    n = alg.dim
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from((ONE, -ONE)), min_size=n,
                              max_size=n))
        rows = [[signs[i] if j == perm[i] else ZERO for j in range(n)]
                for i in range(n)]
    else:
        rows = draw(st.lists(st.lists(gaussian_rationals, min_size=n,
                                      max_size=n), min_size=n, max_size=n))
    return alg, CartanDecomposition(MatrixQ.from_rows(rows))


@settings(max_examples=150, deadline=None)
@given(tables_with_theta())
def test_validate_matches_dense_loops_on_drawn_tables(drawn):
    _assert_validate_matches_dense_loops(*drawn)
