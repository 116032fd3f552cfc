import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kregular.catalog import catalog_build
from kregular.errors import SoundnessError
from kregular.linalg import (
    EchelonSpan,
    MatrixQ,
    ModpSpan,
    gaussian_matmul,
    gaussian_rows,
    gaussian_scalar,
    is_nilpotent_matrix,
    linear_combination,
    nilpotency_exponent,
    nullspace_of,
    pairing_matrix,
    rank_of,
    rank_profile,
    reduced_basis,
    solve_in_span,
    vec_is_zero,
)
from kregular.roots import RestrictedRoot
from kregular.scalar import I, ONE, ZERO, Scalar

from conftest import scalar_ad


def random_matrix(rng, rows, cols, density=0.7):
    return MatrixQ.from_rows([
        [
            Scalar(rng.randint(-5, 5), rng.randint(-2, 2))
            if rng.random() < density else ZERO
            for _ in range(cols)
        ]
        for _ in range(rows)
    ])


def zeros(rows, cols):
    return MatrixQ(rows, cols, (ZERO,) * (rows * cols))


def transpose(m):
    return MatrixQ.from_columns([m.row(i) for i in range(m.rows)])


def row_list(m):
    return [list(m.row(i)) for i in range(m.rows)]


def test_rank_basics():
    assert rank_of(MatrixQ.identity(4)) == 4
    assert rank_of(zeros(3, 5)) == 0
    m = MatrixQ.from_rows([[Scalar(1), Scalar(2)], [Scalar(2), Scalar(4)]])
    assert rank_of(m) == 1


def test_rank_of_complex_matrix():
    # rows are (1, i) and (i, -1): the second is i times the first
    m = MatrixQ.from_rows([[ONE, I], [I, -ONE]])
    assert rank_of(m) == 1


def test_rank_plus_nullity_identity():
    rng = random.Random(7)
    for _ in range(30):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        assert rank_of(m) + len(nullspace_of(m)) == cols


def test_nullspace_vectors_are_in_kernel():
    rng = random.Random(8)
    for _ in range(20):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        for v in nullspace_of(m):
            assert vec_is_zero(m.matvec(v))


def test_rank_invariant_under_row_operations():
    rng = random.Random(9)
    for _ in range(15):
        m = random_matrix(rng, 4, 4)
        rows = row_list(m)
        rows[0], rows[2] = rows[2], rows[0]
        rows[1] = [Scalar(3) * a + b for a, b in zip(rows[0], rows[1])]
        assert rank_of(MatrixQ.from_rows(rows)) == rank_of(m)


def test_rank_profile_minor_is_nonsingular():
    rng = random.Random(10)
    for _ in range(20):
        m = random_matrix(rng, rng.randint(2, 6), rng.randint(2, 6), density=0.5)
        r, prows, pcols = rank_profile(m)
        assert len(prows) == len(pcols) == r
        if r:
            minor = MatrixQ.from_rows(
                [[m[i, j] for j in pcols] for i in prows])
            assert rank_of(minor) == r


def test_solve_in_span():
    basis = MatrixQ.from_columns([
        (ONE, ZERO, ONE), (ZERO, ONE, ONE)])
    c = solve_in_span(basis, (Scalar(2), Scalar(3), Scalar(5)))
    assert c == (Scalar(2), Scalar(3))
    assert solve_in_span(basis, (ONE, ZERO, ZERO)) is None
    assert solve_in_span(basis, (ZERO, ZERO, ZERO)) == (ZERO, ZERO)


def test_linear_combination_matches_matvec():
    rng = random.Random(5)
    m = random_matrix(rng, 4, 3)
    coeffs = (Scalar(2, -1), ZERO, Scalar(-3), Scalar(1, 4))
    # sum of c_j times column j is the matrix-vector product
    assert linear_combination(coeffs, [m.column(j) for j in range(3)], 4) \
        == m.matvec(coeffs[:3])
    assert linear_combination(coeffs, [m.row(i) for i in range(4)], 3) \
        == transpose(m).matvec(coeffs)
    assert linear_combination([], [], 2) == (ZERO, ZERO)
    assert linear_combination([ZERO], [(ONE, I)], 2) == (ZERO, ZERO)


def test_reduced_basis_depends_only_on_the_span():
    rng = random.Random(3)
    for rows, cols in ((3, 5), (6, 4), (4, 4)):
        m = random_matrix(rng, rows, cols, density=0.5)
        vectors = [m.row(i) for i in range(rows)]
        basis = reduced_basis(vectors, cols)
        assert len(basis) == rank_of(m)
        # any invertible recombination of the vectors has the same rows
        mixed = [tuple(a + Scalar(k + 1, 1) * b for a, b in zip(v, vectors[0]))
                 for k, v in enumerate(vectors[1:])] + [vectors[0]]
        assert reduced_basis(mixed[::-1], cols) == basis
        span = EchelonSpan(cols)
        span.extend(vectors)
        assert all(span.contains(b) for b in basis)


def test_reduced_basis_of_a_spanning_set_is_the_identity():
    m = MatrixQ.from_rows([[Scalar(7, 2), Scalar(1, 5)], [Scalar(3), ZERO],
                           [ZERO, ZERO]])
    assert reduced_basis([m.row(i) for i in range(3)], 2) == [
        (ONE, ZERO), (ZERO, ONE)]
    assert reduced_basis([], 3) == []
    assert reduced_basis([(ZERO, ZERO)], 2) == []


def int_rows(m):
    """m cleared by the lcm of its denominators, as the (re, im) integer
    rows the nilpotency routines take."""
    return gaussian_rows(m.row(i) for i in range(m.rows))[1]


def test_nilpotency():
    shift = MatrixQ.from_rows([
        [ZERO, ONE, ZERO], [ZERO, ZERO, ONE], [ZERO, ZERO, ZERO]])
    assert is_nilpotent_matrix(int_rows(shift))
    assert nilpotency_exponent(int_rows(shift)) == 3
    assert nilpotency_exponent(int_rows(zeros(2, 2))) == 1
    assert nilpotency_exponent(int_rows(MatrixQ.identity(2))) is None
    for bad in ([((0, 0),)] * 2, [((0, 0), (0, 0)), ((0, 0),)]):
        with pytest.raises(ValueError, match="2x2"):
            is_nilpotent_matrix(bad)
        with pytest.raises(ValueError, match="2x2"):
            nilpotency_exponent(bad)


def _poly_mul(p, q):
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] = out[i + j] + a * b
    return out


def _poly_add(p, q):
    n = max(len(p), len(q))
    p = p + [ZERO] * (n - len(p))
    q = q + [ZERO] * (n - len(q))
    return [a + b for a, b in zip(p, q)]


def _char_poly(m):
    """det(tI - m) by cofactor expansion, coefficients low to high."""
    n = m.rows
    # entries of tI - m as degree-1 polynomials
    grid = [[[-m[i, j], ONE] if i == j else [-m[i, j]] for j in range(n)]
            for i in range(n)]

    def det(rows, cols):
        if len(rows) == 1:
            return grid[rows[0]][cols[0]]
        total = [ZERO]
        r = rows[0]
        for k, c in enumerate(cols):
            minor = det(rows[1:], cols[:k] + cols[k + 1:])
            term = _poly_mul(grid[r][c], minor)
            if k % 2:
                term = [-a for a in term]
            total = _poly_add(total, term)
        return total

    return det(list(range(n)), list(range(n)))


def test_nilpotency_matches_char_poly_oracle():
    # nilpotent iff the characteristic polynomial is t^d exactly
    rng = random.Random(12)
    seen_nilpotent = 0
    for _ in range(40):
        d = rng.choice((3, 4))
        m = random_matrix(rng, d, d, density=0.3)
        cp = _char_poly(m)
        assert len(cp) == d + 1 and cp[-1] == ONE
        is_t_to_d = all(not c for c in cp[:-1])
        assert is_nilpotent_matrix(int_rows(m)) == is_t_to_d
        seen_nilpotent += is_t_to_d
    # strictly upper-triangular matrices keep the oracle honest on the
    # nilpotent side
    for d in (3, 4):
        rows = [[Scalar(rng.randint(-3, 3), rng.randint(-1, 1)) if j > i
                 else ZERO for j in range(d)] for i in range(d)]
        m = MatrixQ.from_rows(rows)
        assert all(not c for c in _char_poly(m)[:-1])
        assert is_nilpotent_matrix(int_rows(m))


def test_nilpotency_matches_power_oracle():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n, density=0.4)
        p = m
        for _ in range(n - 1):
            p = p.matmul(m)
        assert is_nilpotent_matrix(int_rows(m)) == p.is_zero()


def test_echelon_span():
    span = EchelonSpan(3)
    assert span.add((ONE, ZERO, ZERO))
    assert span.add((ONE, ONE, ZERO))
    assert not span.add((Scalar(2), ONE, ZERO))
    assert span.dim == 2
    assert span.contains((Scalar(5), Scalar(-1), ZERO))
    assert not span.contains((ZERO, ZERO, ONE))

    other = EchelonSpan(3)
    other.extend([(ZERO, ONE, ZERO), (ONE, ZERO, ZERO)])
    assert span.equals(other)
    other.add((ZERO, ZERO, ONE))
    assert not span.equals(other)


def test_modp_span():
    span = ModpSpan(3, 13)
    assert span.add((1, 2, 0))
    # independent over Q, but 19 - 3 * 2 = 13 = 0 mod 13
    assert not span.add((3, 19, 0))
    assert span.add((0, 1, 5))
    assert (span.dim, span.full) == (2, False)
    assert not span.add((27, 3, -21))  # (1, 2, 0) + (0, 1, 5) mod 13
    assert span.add((0, 0, 14))
    assert (span.dim, span.full) == (3, True)
    assert not span.add((4, 5, 6))
    with pytest.raises(ValueError, match="length 3"):
        span.add((1, 2))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-9, 9), min_size=n, max_size=n), max_size=8)))
def test_modp_span_matches_the_exact_span_on_small_integers(rows):
    """Every minor of these rows is below p = 10^9 + 9 in absolute value
    (Hadamard: (9 sqrt 6)^6 < 1.2 * 10^8), so a minor vanishes mod p only
    if it vanishes; mod 13 the rank can only drop."""
    n = len(rows[0]) if rows else 1
    exact = EchelonSpan(n)
    big, small = ModpSpan(n, 1_000_000_009), ModpSpan(n, 13)
    for row in rows:
        added = exact.add(tuple(Scalar(a) for a in row))
        assert big.add(row) == added
        small.add(row)
    assert big.dim == exact.dim and big.full == exact.full
    assert small.dim <= exact.dim


@pytest.mark.parametrize("full", [False, True])
def test_contains_rejects_a_vector_of_the_wrong_length(full):
    span = EchelonSpan(2)
    span.extend([(ONE, ZERO), (ZERO, ONE)] if full else [(ONE, ZERO)])
    assert span.full == full
    for bad in ((ONE,), (ONE, ZERO, ZERO), (ZERO, ZERO, ONE)):
        with pytest.raises(ValueError, match="length 2"):
            span.contains(bad)


def test_extend_stops_pulling_once_the_span_is_full():
    pulled = []

    def vectors():
        for v in [(ONE, ONE), (ONE, ONE), (ZERO, I)] + [(ONE, ZERO)] * 5:
            pulled.append(v)
            yield v

    span = EchelonSpan(2)
    span.extend(vectors())
    assert span.dim == 2 and len(pulled) == 3
    span.extend(vectors())
    assert len(pulled) == 3
    assert span.contains((Scalar(7, 1), Scalar(0, -2)))
    assert span.rref() == ([0, 1], [[ONE, ZERO], [ZERO, ONE]])


def test_matrix_shape_errors():
    with pytest.raises(ValueError):
        MatrixQ(2, 2, (ZERO,) * 3)
    with pytest.raises(ValueError):
        MatrixQ.identity(2).matvec((ONE,))


# Differential tests: EchelonSpan answers every rank, minor, nullspace and
# solve; the in-file copies below are the kernels it replaced (full-pivoting
# Bareiss with bit-size pivots, and a division-based RREF) and serve as the
# reference.

def _old_bit_size(s):
    return sum(abs(v).bit_length() for v in s.to_quad())


def _old_cleared_rows(m):
    out = []
    for i in range(m.rows):
        row = list(m.row(i))
        lcm = 1
        for s in row:
            lcm = math.lcm(lcm, s.re.denominator, s.im.denominator)
        if lcm != 1:
            row = [Scalar(lcm) * s for s in row]
        out.append(row)
    return out


def _old_rank_profile(m):
    a = _old_cleared_rows(m)
    nr, nc = m.rows, m.cols
    row_idx = list(range(nr))
    col_idx = list(range(nc))
    prev = ONE
    rank = 0
    for k in range(min(nr, nc)):
        best = None
        for i in range(k, nr):
            for j in range(k, nc):
                s = a[i][j]
                if s and (best is None or _old_bit_size(s) < best[0]):
                    best = (_old_bit_size(s), i, j)
        if best is None:
            break
        _, pi, pj = best
        a[k], a[pi] = a[pi], a[k]
        row_idx[k], row_idx[pi] = row_idx[pi], row_idx[k]
        for r in a:
            r[k], r[pj] = r[pj], r[k]
        col_idx[k], col_idx[pj] = col_idx[pj], col_idx[k]
        piv = a[k][k]
        for i in range(k + 1, nr):
            aik = a[i][k]
            for j in range(k + 1, nc):
                a[i][j] = (piv * a[i][j] - aik * a[k][j]) / prev
            a[i][k] = ZERO
        prev = piv
        rank += 1
    return rank, sorted(row_idx[:rank]), sorted(col_idx[:rank])


def _old_rref(rows, ncols):
    pivots = []
    r = 0
    nr = len(rows)
    for c in range(ncols):
        best = None
        for i in range(r, nr):
            s = rows[i][c]
            if s and (best is None or _old_bit_size(s) < best[0]):
                best = (_old_bit_size(s), i)
        if best is None:
            continue
        pi = best[1]
        rows[r], rows[pi] = rows[pi], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [inv * x for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return r, pivots


def _old_reduced_basis(vectors, dim):
    rows = [list(v) for v in vectors]
    rank, _ = _old_rref(rows, dim)
    return [tuple(r) for r in rows[:rank]]


def _old_nullspace_of(m):
    rows = row_list(m)
    _, pivots = _old_rref(rows, m.cols)
    basis = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [ZERO] * m.cols
        v[f] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][f]
        basis.append(tuple(v))
    return basis


def _old_solve_in_span(basis, v):
    rows = [list(basis.row(i)) + [v[i]] for i in range(basis.rows)]
    _, pivots = _old_rref(rows, basis.cols + 1)
    if basis.cols in pivots:
        return None
    coeffs = [ZERO] * basis.cols
    for r, pc in enumerate(pivots):
        coeffs[pc] = rows[r][basis.cols]
    return tuple(coeffs)


gaussian_rationals = st.builds(
    lambda a, b, c, d: Scalar(Fraction(a, b), Fraction(c, d)),
    st.integers(-4, 4), st.integers(1, 3), st.integers(-4, 4),
    st.integers(1, 3))
entries = st.one_of(st.just(ZERO), gaussian_rationals)


@st.composite
def qi_matrices(draw, max_side=6, rows=None):
    """Rectangular Q(i) matrices with denominators, where each row is
    drawn, zero, or a combination of two earlier rows; rows fixes the
    row count."""
    nr = rows or draw(st.integers(1, max_side))
    nc = draw(st.integers(1, max_side))
    rows = []
    for i in range(nr):
        kind = draw(st.sampled_from(("drawn", "zero", "combination")))
        if kind == "zero":
            rows.append([ZERO] * nc)
        elif kind == "combination" and i >= 2:
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            a, b = draw(gaussian_rationals), draw(gaussian_rationals)
            rows.append([a * x + b * y for x, y in zip(rows[j], rows[k])])
        else:
            rows.append(draw(st.lists(entries, min_size=nc, max_size=nc)))
    return MatrixQ.from_rows(rows)


def _minor(m, rows, cols):
    return MatrixQ(len(rows), len(cols), [m[i, j] for i in rows for j in cols])


@settings(max_examples=150, deadline=None)
@given(qi_matrices())
def test_rank_profile_matches_bareiss(m):
    rank, rows, cols = rank_profile(m)
    assert rank == _old_rank_profile(m)[0]
    assert len(rows) == len(cols) == rank
    # the witness: first independent rows, then first independent columns
    # within them; nonsingular under the old kernel
    assert _old_rank_profile(_minor(m, rows, cols))[0] == rank
    assert rows == [i for i in range(m.rows)
                    if _old_rank_profile(_minor(m, range(i + 1), range(m.cols)))[0]
                    > _old_rank_profile(_minor(m, range(i), range(m.cols)))[0]]
    assert cols == [j for j in range(m.cols)
                    if _old_rank_profile(_minor(m, rows, range(j + 1)))[0]
                    > _old_rank_profile(_minor(m, rows, range(j)))[0]]


@settings(max_examples=60, deadline=None)
@given(qi_matrices(max_side=5))
def test_symmetric_witness_is_principal(a):
    gram = a.matmul(transpose(a))
    rank, rows, cols = rank_profile(gram)
    assert rank == _old_rank_profile(gram)[0]
    assert rows == cols


@settings(max_examples=150, deadline=None)
@given(qi_matrices())
def test_rref_nullspace_and_solve_match_old_kernel(m):
    vectors = [m.row(i) for i in range(m.rows)]
    assert reduced_basis(vectors, m.cols) == _old_reduced_basis(vectors, m.cols)
    assert nullspace_of(m) == _old_nullspace_of(m)
    inside = linear_combination([Scalar(j + 1, -j) for j in range(m.cols)],
                                [m.column(j) for j in range(m.cols)], m.rows)
    outside = tuple(Scalar(i * i - 2, 1) for i in range(m.rows))
    for v in (inside, outside):
        assert solve_in_span(m, v) == _old_solve_in_span(m, v)
    assert solve_in_span(m, inside) is not None


@settings(max_examples=40, deadline=None)
@given(qi_matrices(max_side=5))
def test_rank_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    sm = sympy.Matrix(m.rows, m.cols, [
        sympy.Rational(s.re.numerator, s.re.denominator)
        + sympy.I * sympy.Rational(s.im.numerator, s.im.denominator)
        for s in m.entries])
    assert rank_of(m) == sm.rank(simplify=True)


def test_rref_leaves_the_span_unchanged():
    span = EchelonSpan(3)
    span.extend([(ONE, Scalar(2), ZERO), (ONE, ZERO, ONE)])
    before = (list(span.basis), span.pivot_columns)
    pivots, rows = span.rref()
    assert pivots == [0, 1]
    assert rows == [[ONE, ZERO, ONE], [ZERO, ONE, Scalar(Fraction(-1, 2))]]
    assert (span.basis, span.pivot_columns) == before
    # the rows are copies, and the echelon behind them is intact
    rows[0][0] = ZERO
    assert span.rref() == (pivots, [[ONE, ZERO, ONE],
                                    [ZERO, ONE, Scalar(Fraction(-1, 2))]])
    assert span.contains((Scalar(3), Scalar(2), Scalar(2)))
    assert not span.contains((ZERO, ZERO, ONE))
    assert span.add((ZERO, ZERO, ONE)) and span.rref()[1] == [
        [ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]


def _back_substituted_rref(m):
    """The back-substituted rref() of m's rows, through a span that is
    never full: each row gets a zero last coordinate, which the result
    drops again."""
    span = EchelonSpan(m.cols + 1)
    span.extend(m.row(i) + (ZERO,) for i in range(m.rows))
    assert not span.full
    pivots, rows = span.rref()
    return pivots, [row[:-1] for row in rows]


nonzero_gaussians = gaussian_rationals.filter(bool)


@st.composite
def invertible_qi_matrices(draw, max_side=6):
    """L @ U with L unit lower triangular and U upper triangular with a
    nonzero diagonal, so the product is invertible."""
    n = draw(st.integers(1, max_side))
    lower = [[ONE if i == j else draw(entries) if j < i else ZERO
              for j in range(n)] for i in range(n)]
    upper = [[draw(nonzero_gaussians) if i == j else draw(entries) if j > i
              else ZERO for j in range(n)] for i in range(n)]
    return MatrixQ.from_rows(lower).matmul(MatrixQ.from_rows(upper))


@settings(max_examples=100, deadline=None)
@given(invertible_qi_matrices())
def test_full_span_rref_is_the_back_substituted_rref(m):
    span = EchelonSpan(m.cols)
    span.extend(m.row(i) for i in range(m.rows))
    assert span.full
    assert span.rref() == _back_substituted_rref(m)
    assert [tuple(r) for r in span.rref()[1]] == _old_reduced_basis(
        [m.row(i) for i in range(m.rows)], m.cols)


# Differential tests: vec_dot is the only inner product and EchelonSpan the
# only span test; the in-file copies below are the loops and the augmented
# RREF span test they replaced, and serve as the reference.

def _old_matvec(m, v):
    out = []
    for i in range(m.rows):
        acc = ZERO
        for a, b in zip(m.row(i), v):
            if a and b:
                acc = acc + a * b
        out.append(acc)
    return tuple(out)


def _old_matmul(m, other):
    cols = [other.column(j) for j in range(other.cols)]
    flat = []
    for i in range(m.rows):
        row = m.row(i)
        for col in cols:
            acc = ZERO
            for a, b in zip(row, col):
                if a and b:
                    acc = acc + a * b
            flat.append(acc)
    return MatrixQ(m.rows, other.cols, flat)


def _old_gram_of_vectors(alg, vectors):
    m = len(vectors)
    paired = [_old_matvec(alg.killing, v) for v in vectors]
    flat = [[ZERO] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            acc = ZERO
            for a, b in zip(vectors[i], paired[j]):
                if a and b:
                    acc = acc + a * b
            flat[i][j] = acc
            flat[j][i] = acc
    return MatrixQ.from_rows(flat)


def _old_compute_killing(alg):
    ads = [scalar_ad(alg, alg.basis_vector(i)) for i in range(alg.dim)]
    flat = []
    for a in ads:
        for b in ads:
            acc = ZERO
            for r in range(alg.dim):
                row = a.row(r)
                for c in range(alg.dim):
                    x = row[c]
                    if x:
                        y = b[c, r]
                        if y:
                            acc = acc + x * y
            flat.append(acc)
    return MatrixQ(alg.dim, alg.dim, flat)


def _old_value_at(values, coeffs):
    acc = ZERO
    for c, v in zip(coeffs, values):
        if c and v:
            acc = acc + c * v
    return acc


def _old_span_contains(basis, v):
    return _old_solve_in_span(basis, v) is not None


def _vectors(dim, size):
    return st.lists(st.lists(entries, min_size=dim, max_size=dim).map(tuple),
                    min_size=size, max_size=size)


@settings(max_examples=100, deadline=None)
@given(qi_matrices(), st.data())
def test_matvec_and_matmul_match_old_loops(m, data):
    v = data.draw(st.lists(entries, min_size=m.cols, max_size=m.cols))
    assert m.matvec(v) == _old_matvec(m, v)
    other = data.draw(qi_matrices(rows=m.cols))
    assert m.matmul(other) == _old_matmul(m, other)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gram_of_vectors_matches_old_loop(sl2, sl3, data):
    alg, _ = data.draw(st.sampled_from((sl2, sl3)))
    vectors = data.draw(_vectors(alg.dim, data.draw(st.integers(0, 5))))
    scale, rows = gaussian_rows(vectors)
    assert pairing_matrix([(scale, row) for row in rows],
                          alg.gaussian_killing()) \
        == _old_gram_of_vectors(alg, vectors)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.tuples(
    st.lists(entries, min_size=d, max_size=d),
    st.lists(entries, min_size=d, max_size=d))))
def test_root_value_matches_old_loop(pair):
    values, coeffs = pair
    root = RestrictedRoot(tuple(values), ())
    assert root.value_at(coeffs) == _old_value_at(values, coeffs)


def test_killing_matches_old_loop(su21):
    algebras = [catalog_build("split-sl", n)[0] for n in (2, 3, 4, 5)]
    for alg in algebras + [su21[0]]:
        assert alg.killing == _old_compute_killing(alg)


@settings(max_examples=150, deadline=None)
@given(qi_matrices(), st.data())
def test_span_contains_matches_old_rref_path(m, data):
    span = EchelonSpan(m.rows)
    span.extend(m.column(j) for j in range(m.cols))
    inside = linear_combination(
        data.draw(st.lists(entries, min_size=m.cols, max_size=m.cols)),
        [m.column(j) for j in range(m.cols)], m.rows)
    drawn = tuple(data.draw(st.lists(entries, min_size=m.rows,
                                     max_size=m.rows)))
    assert span.contains(inside) and _old_span_contains(m, inside)
    assert span.contains(drawn) == _old_span_contains(m, drawn)


def test_add_rejects_a_vector_of_the_wrong_length():
    for n, bad in ((3, (ONE,)), (2, (ONE, ZERO, ONE))):
        span = EchelonSpan(n)
        with pytest.raises(ValueError, match=f"length {n}"):
            span.add(bad)
        assert span.basis == [] and span.dim == 0


def _old_nilpotency_exponent(m):
    """The Scalar routine the Gaussian-integer one replaced: MatrixQ.matmul
    powers m, m^2, ..., m^n until one is zero, None if m^n is not."""
    n = m.rows
    p, e = m, 1
    while not p.is_zero():
        if e >= max(n, 1):
            return None
        p, e = p.matmul(m), e + 1
    return e


@st.composite
def conjugated_nilpotents(draw):
    """U N U^-1 for N strictly upper triangular and U a product of
    elementary matrices I + c e_ij, each with inverse I - c e_ij, with
    Gaussian-rational entries, so the powers are cleared by an lcm."""
    n = draw(st.integers(1, 5))
    rows = [[draw(entries) if j > i else ZERO for j in range(n)]
            for i in range(n)]
    m = MatrixQ.from_rows(rows)
    for _ in range(draw(st.integers(0, 4)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(entries)
        e = [[ONE if r == s else ZERO for s in range(n)] for r in range(n)]
        e_inv = [list(r) for r in e]
        e[i][j], e_inv[i][j] = c, -c
        m = MatrixQ.from_rows(e).matmul(m).matmul(MatrixQ.from_rows(e_inv))
    assert _old_nilpotency_exponent(m) is not None
    return m


@settings(max_examples=100, deadline=None)
@given(st.one_of(conjugated_nilpotents(), st.integers(1, 5).flatmap(
    lambda n: _vectors(n, n).map(MatrixQ.from_rows))))
def test_nilpotency_exponent_matches_old_routine(m):
    e = _old_nilpotency_exponent(m)
    assert nilpotency_exponent(int_rows(m)) == e
    assert is_nilpotent_matrix(int_rows(m)) == (e is not None)


@pytest.mark.parametrize("m", [zeros(0, 0), MatrixQ.identity(1),
                               MatrixQ.identity(3), zeros(1, 1)])
def test_nilpotency_exponent_edge_cases_match_old_routine(m):
    e = _old_nilpotency_exponent(m)
    assert nilpotency_exponent(int_rows(m)) == e
    assert is_nilpotent_matrix(int_rows(m)) == (e is not None)


@settings(max_examples=100, deadline=None)
@given(qi_matrices(), st.data())
def test_gaussian_matmul_matches_matmul(m, data):
    # (D m)(E n) = D E (m n), each side cleared by the lcm of its own
    # denominators
    other = data.draw(qi_matrices(rows=m.cols))
    d, a = gaussian_rows(m.row(i) for i in range(m.rows))
    e, b = gaussian_rows(other.row(i) for i in range(other.rows))
    product = gaussian_matmul(a, b)
    assert [[gaussian_scalar(z, d * e) for z in row] for row in product] \
        == [list(m.matmul(other).row(i)) for i in range(m.rows)]


# Differential tests: EchelonSpan runs fraction-free over the Gaussian
# integers.  The in-file copy below is the Fraction-backed EchelonSpan it
# replaced, with rank_profile, nullspace_of and solve_in_span as they ran
# on it, and serves as the reference; sympy's Gaussian-rational RREF is a
# third oracle.

class _FractionEchelonSpan:
    def __init__(self, ambient_dim):
        self.ambient_dim = ambient_dim
        self.basis = []
        self._reduced = []  # list of (pivot_index, row), sorted by pivot

    @property
    def dim(self):
        return len(self.basis)

    @property
    def full(self):
        return len(self.basis) == self.ambient_dim

    def _reduce(self, v):
        w = list(v)
        for pc, row in self._reduced:
            c = w[pc]
            if c:
                for j in range(pc, self.ambient_dim):
                    w[j] = w[j] - c * row[j]
        return w

    def contains(self, v):
        return self.full or all(not a for a in self._reduce(v))

    def add(self, v):
        w = self._reduce(v)
        for pc in range(self.ambient_dim):
            if w[pc]:
                inv = w[pc].inverse()
                self._reduced.append((pc, [inv * a for a in w]))
                self._reduced.sort(key=lambda t: t[0])
                self.basis.append(tuple(v))
                return True
        return False

    def rref(self):
        pivots = [pc for pc, _ in self._reduced]
        if self.full:
            return pivots, [[ONE if i == j else ZERO for j in pivots] for i in pivots]
        rows = [list(row) for _, row in self._reduced]
        for k in range(len(rows) - 1, 0, -1):
            pk, row_k = pivots[k], rows[k]
            for row in rows[:k]:
                c = row[pk]
                if c:
                    for j in range(pk, self.ambient_dim):
                        row[j] = row[j] - c * row_k[j]
        return pivots, rows


def _fraction_span(m):
    span = _FractionEchelonSpan(m.cols)
    for i in range(m.rows):
        span.add(m.row(i))
    return span


def _fraction_rank_profile(m):
    span = _FractionEchelonSpan(m.cols)
    rows = [i for i in range(m.rows) if span.add(m.row(i))]
    return len(rows), rows, [pc for pc, _ in span._reduced]


def _fraction_nullspace_of(m):
    pivots, rows = _fraction_span(m).rref()
    basis = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [ZERO] * m.cols
        v[f] = ONE
        for row, pc in zip(rows, pivots):
            v[pc] = -row[f]
        basis.append(tuple(v))
    return basis


def _fraction_solve_in_span(basis, v):
    n = basis.cols
    augmented = MatrixQ.from_rows([basis.row(i) + (v[i],)
                                   for i in range(basis.rows)])
    pivots, rows = _fraction_span(augmented).rref()
    if n in pivots:
        return None
    coeffs = [ZERO] * n
    for row, pc in zip(rows, pivots):
        coeffs[pc] = row[n]
    return tuple(coeffs)


# about 700-bit Gaussian integers and rationals, as the benchmark's wide
# class reaches in its Gram entries
wide_gaussians = st.builds(
    lambda a, b, c, d: Scalar(Fraction(a, b), Fraction(c, d)),
    st.integers(-2 ** 700, 2 ** 700), st.sampled_from((1, 1, 3, 2 ** 20 - 3)),
    st.integers(-2 ** 700, 2 ** 700), st.sampled_from((1, 1, 7, 2 ** 19 + 1)))


@st.composite
def span_matrices(draw, max_side=6):
    """Rows that are drawn (small Gaussian rationals, or about 700 bits),
    zero, a duplicate of an earlier row, or a combination of two, so most
    matrices are rank-deficient."""
    nr = draw(st.integers(1, max_side))
    nc = draw(st.integers(1, max_side))
    scalars = draw(st.sampled_from((entries, st.one_of(
        st.just(ZERO), wide_gaussians), st.one_of(entries, wide_gaussians))))
    rows = []
    for i in range(nr):
        kind = draw(st.sampled_from(("drawn", "drawn", "zero", "duplicate",
                                     "combination")))
        if kind == "zero":
            rows.append([ZERO] * nc)
        elif kind == "duplicate" and rows:
            rows.append(list(rows[draw(st.integers(0, i - 1))]))
        elif kind == "combination" and rows:
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            a, b = draw(scalars), draw(scalars)
            rows.append([a * x + b * y for x, y in zip(rows[j], rows[k])])
        else:
            rows.append(draw(st.lists(scalars, min_size=nc, max_size=nc)))
    return MatrixQ.from_rows(rows)


def _inside_and_drawn(m, data):
    """A combination of m's rows, and a drawn vector of their length."""
    inside = linear_combination(
        data.draw(st.lists(gaussian_rationals, min_size=m.rows,
                           max_size=m.rows)),
        [m.row(i) for i in range(m.rows)], m.cols)
    drawn = tuple(data.draw(st.lists(entries, min_size=m.cols,
                                     max_size=m.cols)))
    return inside, drawn


@settings(max_examples=200, deadline=None)
@given(span_matrices(), st.data())
def test_echelon_span_matches_the_fraction_span(m, data):
    new, old = EchelonSpan(m.cols), _FractionEchelonSpan(m.cols)
    for i in range(m.rows):
        assert new.add(m.row(i)) == old.add(m.row(i))
        assert (new.dim, new.full) == (old.dim, old.full)
    assert new.basis == old.basis
    assert new.pivot_columns == [pc for pc, _ in old._reduced]
    assert new.rref() == old.rref()
    inside, drawn = _inside_and_drawn(m, data)
    assert new.contains(inside) and old.contains(inside)
    assert new.contains(drawn) == old.contains(drawn)
    assert rank_profile(m) == _fraction_rank_profile(m)
    assert nullspace_of(m) == _fraction_nullspace_of(m)
    # columns of m as the span basis: a combination of them, and not
    column_mix = linear_combination(
        [Scalar(j + 1, -j) for j in range(m.cols)],
        [m.column(j) for j in range(m.cols)], m.rows)
    outside = tuple(Scalar(i * i - 2, 1) for i in range(m.rows))
    for v in (column_mix, outside):
        assert solve_in_span(m, v) == _fraction_solve_in_span(m, v)
    assert solve_in_span(m, column_mix) is not None


@settings(max_examples=100, deadline=None)
@given(span_matrices(), st.data())
def test_integer_rows_enter_the_span_as_their_scalars(m, data):
    """add_row and contains_row on the cleared rows answer as add and
    contains on the Scalar rows; basis keeps each added row's Scalars."""
    _, rows = gaussian_rows(m.row(i) for i in range(m.rows))
    by_rows, by_scalars = EchelonSpan(m.cols), EchelonSpan(m.cols)
    added = []
    for i, row in enumerate(rows):
        if by_rows.add_row(row):
            added.append(i)
        assert by_scalars.add(m.row(i)) == (added[-1:] == [i])
    assert by_rows.pivot_columns == by_scalars.pivot_columns
    assert by_rows.rref() == by_scalars.rref()
    assert by_rows.basis == [tuple(Scalar(re, im) for re, im in rows[i])
                             for i in added]
    for v in _inside_and_drawn(m, data):
        _, (row,) = gaussian_rows((v,))
        assert by_rows.contains_row(row) == by_scalars.contains(v)


def _sympy_rref(m):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    def gaussian(s):
        return sympy.QQ_I(sympy.QQ(s.re.numerator, s.re.denominator),
                          sympy.QQ(s.im.numerator, s.im.denominator))

    def scalar(e):
        return Scalar(Fraction(int(e.x.numerator), int(e.x.denominator)),
                      Fraction(int(e.y.numerator), int(e.y.denominator)))

    dm = DomainMatrix([[gaussian(m[i, j]) for j in range(m.cols)]
                       for i in range(m.rows)], (m.rows, m.cols), sympy.QQ_I)
    reduced, pivots = dm.rref()
    return list(pivots), [[scalar(e) for e in row]
                          for row in reduced.to_list()[:len(pivots)]]


@settings(max_examples=60, deadline=None)
@given(span_matrices(max_side=5))
def test_echelon_span_matches_sympy(m):
    pivots, rows = _sympy_rref(m)
    span = EchelonSpan(m.cols)
    span.extend(m.row(i) for i in range(m.rows))
    assert span.rref() == (pivots, rows)
    assert rank_of(m) == len(pivots)


def test_inexact_division_is_a_soundness_error():
    span = EchelonSpan(3)
    span.extend([(ONE, ZERO, ZERO), (ZERO, ONE, ZERO)])
    assert span.contains((ONE, ONE, ZERO))
    # claim the first pivot is 2: reducing (1, 1, 0) by the second row
    # then divides (1, 0, 0) by it
    c, _, pi, rr, ri = span._rows[0]
    span._rows[0] = (c, 2, pi, rr, ri)
    with pytest.raises(SoundnessError, match="inexact division"):
        span.contains((ONE, ONE, ZERO))
    with pytest.raises(SoundnessError, match="inexact division"):
        span.rref()
