"""Independent re-checks of certificate outputs.

Nothing here uses kregular's linear algebra: the witness minor is tested
by its own fraction-free determinant over the Gaussian integers, and the
nilpotency exponents of ad x and ad y are recomputed from the n x n
matrices the input was built from.  Gaussian numbers are (re, im) pairs.
"""

from __future__ import annotations

import math


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _exact_div(a, b):
    """a / b in Z[i]; raises if b does not divide a."""
    norm = b[0] * b[0] + b[1] * b[1]
    re, r1 = divmod(a[0] * b[0] + a[1] * b[1], norm)
    im, r2 = divmod(a[1] * b[0] - a[0] * b[1], norm)
    if r1 or r2:
        raise ArithmeticError("inexact Gaussian-integer division")
    return (re, im)


def cleared_rows(quad_rows):
    """Rows of [re_num, re_den, im_num, im_den] quads scaled to Z[i].

    Scaling a row by a nonzero integer keeps singularity, so the minor
    stays nonsingular or singular exactly as before.
    """
    out = []
    for row in quad_rows:
        lcm = 1
        for rn, rd, im_n, im_d in row:
            lcm = math.lcm(lcm, rd, im_d)
        out.append([(rn * (lcm // rd), im_n * (lcm // im_d))
                    for rn, rd, im_n, im_d in row])
    return out


def is_nonsingular(rows):
    """Bareiss elimination over Z[i] with row pivoting; exact."""
    a = [list(r) for r in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        return False
    prev = (1, 0)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != (0, 0)), None)
        if p is None:
            return False
        a[k], a[p] = a[p], a[k]
        piv = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            for j in range(k + 1, n):
                t = _mul(piv, a[i][j])
                u = _mul(aik, a[k][j])
                a[i][j] = _exact_div((t[0] - u[0], t[1] - u[1]), prev)
        prev = piv
    return True


def quad_is_zero(q):
    return q[0] == 0 and q[2] == 0


def ad_operator(x):
    """ad x on gl(n) as an n^2 x n^2 matrix, basis E_kl at index k*n + l.

    ad x kills the identity and preserves sl(n), so its nilpotency
    exponent on gl(n) equals the one on sl(n).
    """
    n = len(x)
    zero = (0, 0)
    m = [[zero] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            row = m[i * n + j]
            for k in range(n):
                # (x E_kj)_ij = x_ik and (E_il x)_ij = x_lj
                a = row[k * n + j]
                row[k * n + j] = (a[0] + x[i][k][0], a[1] + x[i][k][1])
                b = row[i * n + k]
                row[i * n + k] = (b[0] - x[k][j][0], b[1] - x[k][j][1])
    return m


def _matmul(a, b):
    n = len(a)
    cols = list(zip(*b))
    out = []
    for r in a:
        out_row = []
        for c in cols:
            re = im = 0
            for p, q in zip(r, c):
                if p != (0, 0) and q != (0, 0):
                    re += p[0] * q[0] - p[1] * q[1]
                    im += p[0] * q[1] + p[1] * q[0]
            out_row.append((re, im))
        out.append(out_row)
    return out


def _is_zero_matrix(a):
    return all(e == (0, 0) for r in a for e in r)


def nilpotency_exponent(m):
    """Least e >= 1 with m^e = 0, or None when m^size != 0."""
    size = len(m)
    p = m
    for e in range(1, size + 1):
        if _is_zero_matrix(p):
            return e
        p = _matmul(p, m)
    return None
