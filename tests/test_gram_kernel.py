"""Differential tests of the Gaussian-integer Killing pairings and of the
rank profile stopped at a proven bound.

The reference is an in-file copy of the Scalar Gram build the kernel
replaced: each vector paired with the Killing matrix applied to the other
through vec_dot, entry by entry, on and above the diagonal.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kregular import certify, linalg
from kregular.algebra import LieAlgebra, killing_pair
from kregular.catalog import catalog_build
from kregular.linalg import (
    MatrixQ,
    gaussian_dot,
    gaussian_pairing,
    gaussian_rows,
    gaussian_scalar,
    pairing_matrix,
    rank_profile,
    vec_dot,
)
from kregular.roots import catalog_datum
from kregular.scalar import ZERO, Scalar
from kregular.verify import sample_element


def _old_gram_of_vectors(alg, vectors):
    m = len(vectors)
    paired = [alg.killing.matvec(v) for v in vectors]
    flat = [[ZERO] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            flat[i][j] = flat[j][i] = vec_dot(vectors[i], paired[j])
    return MatrixQ.from_rows(flat)


def _rescaled(alg, scales):
    """alg in the basis s_i b_i: [s_i b_i, s_j b_j] = sum_k
    (s_i s_j / s_k) c^k_ij (s_k b_k), so B'_ij = s_i s_j B_ij."""
    lower = {(i, j): [Scalar(scales[i] * scales[j] / scales[k]) * c
                      for k, c in enumerate(alg.table(i, j))]
             for i in range(alg.dim) for j in range(i + 1, alg.dim)
             if any(alg.table(i, j))}
    return LieAlgebra.from_lower_table(alg.name + "-rescaled", alg.dim, lower)


SL2, _ = catalog_build("split-sl", 2)
SL3, _ = catalog_build("split-sl", 3)
SL3_RESCALED = _rescaled(SL3, [Fraction(k + 1, 2 + k % 3) for k in range(8)])

gaussian_integers = st.builds(Scalar, st.integers(-9, 9), st.integers(-9, 9))
# like the benchmark's wide class: 20-bit Gaussian integers and Gaussian
# rationals with denominators up to 16
wide_integers = st.builds(Scalar, st.integers(-(1 << 20), 1 << 20),
                          st.integers(-(1 << 20), 1 << 20))
fractions = st.builds(Fraction, st.integers(-32, 32), st.integers(1, 16))
gaussian_rationals = st.builds(Scalar, fractions, fractions)
entries = st.one_of(st.just(ZERO), gaussian_integers, wide_integers,
                    gaussian_rationals)


def _vector_lists(dim, entry=entries):
    vector = st.one_of(
        st.lists(entry, min_size=dim, max_size=dim).map(tuple),
        st.just((ZERO,) * dim))
    return st.lists(vector, min_size=0, max_size=10)


def test_rescaled_killing_form_is_not_integral():
    assert any(q.denominator > 1 for e in SL3_RESCALED.killing.entries
               for q in (e.re, e.im))
    assert SL3_RESCALED.killing.is_symmetric()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_gram_matches_old_scalar_build(data):
    alg = data.draw(st.sampled_from((SL2, SL3, SL3_RESCALED)))
    entry = data.draw(st.sampled_from(
        (gaussian_integers, gaussian_rationals, entries)))
    vectors = data.draw(_vector_lists(alg.dim, entry))
    gram = pairing_matrix(vectors, alg.killing)
    assert gram == _old_gram_of_vectors(alg, vectors)
    assert all(isinstance(e, Scalar) for e in gram.entries)


@pytest.mark.parametrize("alg", (SL2, SL3, SL3_RESCALED),
                         ids=("sl2", "sl3", "sl3-rescaled"))
def test_gram_of_no_vectors_and_of_zero_vectors(alg):
    assert pairing_matrix([], alg.killing) == MatrixQ(0, 0, ())
    zeros = [(ZERO,) * alg.dim] * 3
    assert pairing_matrix(zeros, alg.killing) == MatrixQ(3, 3, (ZERO,) * 9)
    assert _old_gram_of_vectors(alg, zeros) == MatrixQ(3, 3, (ZERO,) * 9)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n,
             max_size=n),
    _vector_lists(n))))
def test_pairing_matches_vec_dot_for_any_form(case):
    # the invariance residual pairs through a form that need not be
    # symmetric, so every ordered pair is checked, not only a <= b
    form_rows, vectors = case
    form = MatrixQ.from_rows(form_rows)
    den, rows, images = gaussian_pairing(vectors, form)
    assert den > 0
    for a, u in enumerate(vectors):
        for b, v in enumerate(vectors):
            expected = vec_dot(u, form.matvec(v))
            assert gaussian_scalar(gaussian_dot(rows[a], images[b]), den) \
                == expected


@settings(max_examples=80, deadline=None)
@given(_vector_lists(3))
def test_gaussian_rows_clear_by_the_lcm(vectors):
    scale, rows = gaussian_rows(vectors)
    dens = [q.denominator for v in vectors for a in v for q in (a.re, a.im)]
    # scale clears every denominator, and no proper divisor does
    assert all(scale % d == 0 for d in dens)
    assert all(any((scale // p) % d for d in dens)
               for p in (2, 3, 5, 7, 11, 13) if scale % p == 0)
    for v, row in zip(vectors, rows):
        assert [Scalar(Fraction(re, scale), Fraction(im, scale))
                for re, im in row] == list(v)
        assert all(type(re) is int and type(im) is int for re, im in row)


def test_appendix_a_gram_matches_killing_pair_loop(su21, su21_datum):
    cases = [(catalog_build("split-sl", n), None) for n in (2, 3, 4)]
    cases.append((su21, su21_datum))
    for (alg, cd), datum in cases:
        datum = datum or catalog_datum(alg, cd)
        old = MatrixQ.from_rows([[killing_pair(alg, hi, hj)
                                  for hj in datum.a_basis]
                                 for hi in datum.a_basis])
        assert pairing_matrix(datum.a_basis, alg.killing) == old


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n,
             max_size=n),
    st.lists(st.lists(entries, min_size=n, max_size=n).map(tuple),
             min_size=0, max_size=9))))
def test_bounded_rank_profile_matches_unbounded(case):
    # G = V^T B V with V's columns of length n has rank at most n
    n, b_rows, vectors = case
    half = [[b_rows[i][j] if j <= i else b_rows[j][i] for j in range(n)]
            for i in range(n)]
    gram = pairing_matrix(vectors, MatrixQ.from_rows(half))
    assert rank_profile(gram, max_rank=n) == rank_profile(gram)


def test_certificate_elimination_stops_at_dim_g(monkeypatch):
    alg, cd = catalog_build("split-sl", 3)
    z = sample_element(alg, random.Random(2), 3)
    bounds = []

    def recording(m, max_rank=None):
        bounds.append(max_rank)
        return rank_profile(m, max_rank=max_rank)

    monkeypatch.setattr(certify, "rank_profile", recording)
    cert = certify.is_k_regular(alg, cd, z)
    assert bounds == [alg.dim] and cert.rank == alg.dim
    assert cert.gram.rows == 71
    adds = []
    add = linalg.EchelonSpan.add

    def counting(self, v):
        adds.append(v)
        return add(self, v)

    monkeypatch.setattr(linalg.EchelonSpan, "add", counting)
    assert rank_profile(cert.gram, max_rank=alg.dim) == rank_profile(cert.gram)
    # the bounded pass reduces the dim g witness rows only, the full pass
    # every row
    assert len(adds) == alg.dim + cert.gram.rows
