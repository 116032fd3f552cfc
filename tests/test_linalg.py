import random

import pytest

from kregular.linalg import (
    EchelonSpan,
    MatrixQ,
    is_nilpotent_matrix,
    linear_combination,
    nilpotency_exponent,
    nullspace_of,
    rank_of,
    rank_profile,
    reduced_basis,
    solve_in_span,
    span_contains,
    vec_is_zero,
)
from kregular.scalar import I, ONE, ZERO, Scalar


def random_matrix(rng, rows, cols, density=0.7):
    return MatrixQ.from_rows([
        [
            Scalar(rng.randint(-5, 5), rng.randint(-2, 2))
            if rng.random() < density else ZERO
            for _ in range(cols)
        ]
        for _ in range(rows)
    ])


def test_rank_basics():
    assert rank_of(MatrixQ.identity(4)) == 4
    assert rank_of(MatrixQ.zeros(3, 5)) == 0
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
        rows = m.row_list()
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
    assert span_contains(basis, (ZERO, ZERO, ZERO))


def test_linear_combination_matches_matvec():
    rng = random.Random(5)
    m = random_matrix(rng, 4, 3)
    coeffs = (Scalar(2, -1), ZERO, Scalar(-3), Scalar(1, 4))
    # sum of c_j times column j is the matrix-vector product
    assert linear_combination(coeffs, [m.column(j) for j in range(3)], 4) \
        == m.matvec(coeffs[:3])
    assert linear_combination(coeffs, [m.row(i) for i in range(4)], 3) \
        == m.transpose().matvec(coeffs)
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


def test_nilpotency():
    shift = MatrixQ.from_rows([
        [ZERO, ONE, ZERO], [ZERO, ZERO, ONE], [ZERO, ZERO, ZERO]])
    assert is_nilpotent_matrix(shift, 3)
    assert nilpotency_exponent(shift) == 3
    assert nilpotency_exponent(MatrixQ.zeros(2, 2)) == 1
    assert nilpotency_exponent(MatrixQ.identity(2)) is None


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
        assert is_nilpotent_matrix(m, d) == is_t_to_d
        seen_nilpotent += is_t_to_d
    # strictly upper-triangular matrices keep the oracle honest on the
    # nilpotent side
    for d in (3, 4):
        rows = [[Scalar(rng.randint(-3, 3), rng.randint(-1, 1)) if j > i
                 else ZERO for j in range(d)] for i in range(d)]
        m = MatrixQ.from_rows(rows)
        assert all(not c for c in _char_poly(m)[:-1])
        assert is_nilpotent_matrix(m, d)


def test_nilpotency_matches_power_oracle():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n, density=0.4)
        p = m
        for _ in range(n - 1):
            p = p.matmul(m)
        assert is_nilpotent_matrix(m, n) == p.is_zero()


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


def test_matrix_shape_errors():
    with pytest.raises(ValueError):
        MatrixQ(2, 2, (ZERO,) * 3)
    with pytest.raises(ValueError):
        MatrixQ.identity(2).matvec((ONE,))
    with pytest.raises(ValueError):
        MatrixQ.zeros(2, 3).trace()
