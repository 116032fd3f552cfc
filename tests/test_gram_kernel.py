"""Differential tests of the Gaussian-integer Killing pairings and power
traces, of the certificate's elimination on the pivot words' Gram, and
of the k/p split.

The references are in-file copies of the code each kernel replaced: the
Scalar Gram build (each vector paired with the Killing matrix applied to
the other through vec_dot, entry by entry, on and above the diagonal),
the pairing of Scalar vectors that cleared them and the form on every
call, the invariance residuals as one integer dot product each, the power
traces of ad z from a running MatrixQ.matmul product, and decompose
through the projections (1 +/- theta)/2 and through one Scalar theta
matvec and a halving.  ad_matrix's integer rows are tested against ad u
built column by column from the Scalar bracket (conftest.scalar_ad).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kregular import certify, linalg, verify
from kregular.algebra import (
    ad_matrix,
    decompose,
    killing_pair,
    validate,
)
from kregular.catalog import catalog_build
from kregular.linalg import (
    MatrixQ,
    gaussian_dot,
    gaussian_matvec,
    gaussian_rows,
    gaussian_scalar,
    pairing_matrix,
    rank_profile,
    vec_dot,
)
from kregular.roots import catalog_datum
from kregular.scalar import ZERO, Scalar
from kregular.verify import sample_element
from kregular.words import WordEvaluator, lyndon_basis

from conftest import SCALES, rescaled, rescaled_theta, scalar_ad


def _old_gram_of_vectors(alg, vectors):
    m = len(vectors)
    paired = [alg.killing.matvec(v) for v in vectors]
    flat = [[ZERO] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            flat[i][j] = flat[j][i] = vec_dot(vectors[i], paired[j])
    return MatrixQ.from_rows(flat)


def _scalar_pairing_matrix(vectors, form):
    """pairing_matrix as it was when it took Scalar vectors and a MatrixQ
    form: both cleared on every call, one common denominator."""
    scale, rows = gaussian_rows(vectors)
    form_scale, form_rows = gaussian_rows(form.row(i)
                                          for i in range(form.rows))
    images = [gaussian_matvec(form_rows, w) for w in rows]
    den = scale * scale * form_scale
    m = len(rows)
    flat = [ZERO] * (m * m)
    for a in range(m):
        for b in range(a, m):
            flat[a * m + b] = flat[b * m + a] = gaussian_scalar(
                gaussian_dot(rows[a], images[b]), den)
    return MatrixQ(m, m, flat)


def _pairs(vectors):
    """(den, row) pairs, each vector cleared by its own denominator."""
    return [(scale, row) for scale, (row,) in
            (gaussian_rows([v]) for v in vectors)]


def _cleared(form):
    return gaussian_rows(form.row(i) for i in range(form.rows))


SL2, SL2_CD = catalog_build("split-sl", 2)
SL3, SL3_CD = catalog_build("split-sl", 3)
SL4, SL4_CD = catalog_build("split-sl", 4)
SL3_RESCALED = rescaled(SL3, SCALES)
SL3_RESCALED_CD = rescaled_theta(SL3_CD, SCALES)

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
    gram = pairing_matrix(_pairs(vectors), alg.gaussian_killing())
    assert gram == _old_gram_of_vectors(alg, vectors)
    assert all(isinstance(e, Scalar) for e in gram.entries)


@pytest.mark.parametrize("alg", (SL2, SL3, SL3_RESCALED),
                         ids=("sl2", "sl3", "sl3-rescaled"))
def test_gram_of_no_vectors_and_of_zero_vectors(alg):
    form = alg.gaussian_killing()
    assert pairing_matrix([], form) == MatrixQ(0, 0, ())
    zeros = [(ZERO,) * alg.dim] * 3
    assert pairing_matrix(_pairs(zeros), form) == MatrixQ(3, 3, (ZERO,) * 9)
    assert _old_gram_of_vectors(alg, zeros) == MatrixQ(3, 3, (ZERO,) * 9)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pairing_of_word_rows_matches_scalar_pairing(su21, data):
    # word rows of degrees 1-6 have denominators S^(d-1) D^d, mixed within
    # one Gram; zero rows come from a zero x or y, and the empty list
    # from no words
    alg = data.draw(st.sampled_from((SL2, SL3, su21[0], SL3_RESCALED)))
    entry = data.draw(st.sampled_from((gaussian_integers, gaussian_rationals,
                                       entries)))
    x, y = (data.draw(st.one_of(
        st.just((ZERO,) * alg.dim),
        st.lists(entry, min_size=alg.dim, max_size=alg.dim).map(tuple)))
        for _ in range(2))
    words = [w for group in lyndon_basis(data.draw(st.integers(1, 6)))
             for w in group]
    words = words[:data.draw(st.integers(0, len(words)))]
    ev = WordEvaluator(alg, x, y)
    pairs = [ev.gaussian_value(w) for w in words]
    values = [ev.value(w) for w in words]
    gram = pairing_matrix(pairs, alg.gaussian_killing())
    assert gram == _scalar_pairing_matrix(values, alg.killing)
    assert gram == _old_gram_of_vectors(alg, values)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n,
             max_size=n),
    _vector_lists(n))))
def test_pairing_matches_vec_dot_for_any_form(case):
    # for a form that is not symmetric only the computed entries, on and
    # above the diagonal, are u_a . (F u_b); those below mirror them
    form_rows, vectors = case
    form = MatrixQ.from_rows(form_rows)
    gram = pairing_matrix(_pairs(vectors), _cleared(form))
    assert gram == _scalar_pairing_matrix(vectors, form)
    for a, u in enumerate(vectors):
        for b in range(a, len(vectors)):
            assert gram[a, b] == vec_dot(u, form.matvec(vectors[b]))
            assert gram[b, a] == gram[a, b]


def _old_residuals(values, derivs, form):
    """The invariance residuals as one integer dot product each, as the
    suite took them before they were read from one Gram: values and
    derivatives cleared together, left_a = (v_a, d_a) and
    right_b = (F d_b, F v_b)."""
    scale, rows = gaussian_rows(v for pair in zip(values, derivs)
                                for v in pair)
    form_scale, form_rows = gaussian_rows(form.row(i)
                                          for i in range(form.rows))
    images = [tuple(gaussian_dot(f, w) for f in form_rows) for w in rows]
    den = scale * scale * form_scale
    k = len(values)
    left = [rows[2 * a] + rows[2 * a + 1] for a in range(k)]
    right = [images[2 * b + 1] + images[2 * b] for b in range(k)]
    return [((a, b), gaussian_scalar(gaussian_dot(left[a], right[b]), den))
            for a in range(k) for b in range(a, k)]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_residuals_match_one_integer_dot_product_each(data):
    # any form, symmetric or not: both sides read v_a . F d_b + d_a . F v_b
    n = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(0, 6))
    vector = st.lists(gaussian_rationals, min_size=n, max_size=n).map(tuple)
    values = data.draw(st.lists(vector, min_size=k, max_size=k))
    derivs = data.draw(st.lists(vector, min_size=k, max_size=k))
    form = MatrixQ.identity(n)
    if data.draw(st.booleans()):
        form = MatrixQ.from_rows(data.draw(st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n,
            max_size=n)))
    duals = [(den, *rows) for den, rows in
             (gaussian_rows(pair) for pair in zip(values, derivs))]
    cleared = gaussian_rows(form.row(i) for i in range(n))
    assert [(ab, gaussian_scalar(res, den)) for ab, res, den
            in verify._residual_sums(duals, cleared)] \
        == _old_residuals(values, derivs, form)


def _projection_split(cd, z):
    """(x, y) as decompose took them before: the projections
    (1 + theta)/2 and (1 - theta)/2 applied to z."""
    n = cd.theta.rows
    ident = MatrixQ.identity(n)
    half = Scalar(Fraction(1, 2))
    proj_k = MatrixQ(n, n, [half * a for a in ident.add(cd.theta).entries])
    proj_p = MatrixQ(n, n, [half * a for a in ident.sub(cd.theta).entries])
    return proj_k.matvec(z), proj_p.matvec(z)


def test_rescaled_theta_is_not_integral():
    assert any(q.denominator > 1 for e in SL3_RESCALED_CD.theta.entries
               for q in (e.re, e.im))
    assert validate(SL3_RESCALED, SL3_RESCALED_CD).ok


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_decompose_matches_projection_split(su21, data):
    alg, cd = data.draw(st.sampled_from((
        (SL2, SL2_CD), (SL3, SL3_CD), (SL4, SL4_CD), su21,
        (SL3_RESCALED, SL3_RESCALED_CD))))
    z = data.draw(st.lists(entries, min_size=alg.dim, max_size=alg.dim))
    ez = decompose(cd, z)
    assert ez.z == tuple(z)
    assert (ez.x, ez.y) == _projection_split(cd, z)


def _scalar_power_traces(alg, z):
    """tr((ad z)^m) for m = 1, ..., 2 dim g as they were taken before the
    Gaussian-integer kernel: one running MatrixQ.matmul product over
    Scalars."""
    p = a = scalar_ad(alg, z)
    traces = []
    for m in range(1, 2 * alg.dim + 1):
        if m > 1:
            p = p.matmul(a)
        traces.append(sum((p[i, i] for i in range(alg.dim)), ZERO))
    return traces


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_power_traces_match_scalar_running_product(su21, data):
    # wide-style z: all 20-bit Gaussian integers or all Gaussian rationals
    # with small denominators; the rescaled table is not integral either
    alg = data.draw(st.sampled_from((SL2, SL3, su21[0], SL3_RESCALED)))
    entry = data.draw(st.sampled_from((wide_integers, gaussian_rationals)))
    z = data.draw(st.lists(entry, min_size=alg.dim, max_size=alg.dim))
    assert list(certify._power_traces(alg, z)) == _scalar_power_traces(alg, z)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ad_matrix_rows_match_scalar_bracket(su21, data):
    # Gaussian-rational u on the catalog tables and su(2,1), and on the
    # rescaled sl(3), whose table is not integral either
    alg = data.draw(st.sampled_from((SL2, SL3, su21[0], SL4, SL3_RESCALED)))
    u = data.draw(st.lists(st.one_of(st.just(ZERO), gaussian_integers,
                                     gaussian_rationals),
                           min_size=alg.dim, max_size=alg.dim))
    den, rows = ad_matrix(alg, u)
    assert den > 0 and len(rows) == alg.dim
    assert all(isinstance(c, int) for r in rows for z in r for c in z)
    ref = scalar_ad(alg, u)
    assert [[gaussian_scalar(z, den) for z in r] for r in rows] \
        == [list(ref.row(i)) for i in range(alg.dim)]


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
        scale, rows = gaussian_rows(datum.a_basis)
        assert pairing_matrix([(scale, row) for row in rows],
                              alg.gaussian_killing()) == old


def test_certificate_elimination_stops_at_dim_g(monkeypatch):
    # a regular sl(3) certificate eliminates only the dim g x dim g Gram
    # of its pivot words, not the 71 x 71 one it hashes, and finds there
    # the profile that eliminating the whole Gram gives
    alg, cd = catalog_build("split-sl", 3)
    z = sample_element(alg, random.Random(2), 3)
    sides = []

    def recording(m):
        sides.append((m.rows, m.cols))
        return rank_profile(m)

    monkeypatch.setattr(certify, "rank_profile", recording)
    cert = certify.is_k_regular(alg, cd, z)
    assert sides == [(alg.dim, alg.dim)] and cert.rank == alg.dim
    assert cert.gram.rows == 71
    assert rank_profile(cert.gram) == (cert.rank, cert.pivot_rows,
                                       cert.pivot_cols)


def _matvec_split(cd, z):
    """(x, y) as decompose took them before the integer split: one Scalar
    theta matvec, x = (z + theta z) / 2 and y = z - x."""
    half = Scalar(Fraction(1, 2))
    x = tuple((a + b) * half for a, b in zip(z, cd.theta.matvec(z)))
    return x, tuple(a - b for a, b in zip(z, x))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_decompose_matches_matvec_split(su21, data):
    alg, cd = data.draw(st.sampled_from((
        (SL2, SL2_CD), (SL3, SL3_CD), (SL4, SL4_CD), su21,
        (SL3_RESCALED, SL3_RESCALED_CD))))
    z = tuple(data.draw(st.lists(entries, min_size=alg.dim,
                                 max_size=alg.dim)))
    ez = decompose(cd, z)
    assert ez.z == z
    assert (ez.x, ez.y) == _matvec_split(cd, z)
    # equal as Fractions, so equal in lowest terms, as printed
    assert [str(a) for a in ez.x + ez.y] \
        == [str(a) for a in sum(_matvec_split(cd, z), ())]


def test_theta_is_cleared_once_per_decomposition():
    cd = rescaled_theta(SL3_CD, SCALES)
    assert cd._gaussian_theta is None
    z = sample_element(SL3, random.Random(4), 3)
    first = decompose(cd, z)
    cleared = cd._gaussian_theta
    scale, rows = cleared
    # the rescaled theta is a signed permutation with rational entries:
    # one nonzero entry per row survives, over a common scale
    assert scale > 1 and [len(r) for r in rows] == [1] * 8
    assert decompose(cd, z) == first and cd._gaussian_theta is cleared
    with pytest.raises(ValueError, match="dimension"):
        decompose(cd, z[:-1])
