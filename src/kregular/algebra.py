"""Lie algebra structure: brackets, ad, Killing form, Cartan decompositions.

A LieAlgebra is given by structure constants over a fixed basis, held in
one sparse table, LieAlgebra.structure, which every operation here reads;
it holds one nonzero coefficient per output index.  The Killing matrix is
computed from it at construction; gaussian_killing clears it once, on
first use, for every Killing pairing of word values or basis vectors.

Three brackets read the table.  gaussian_bracket works on vectors of
(re, im) integer pairs, over the table cleared of denominators by their
lcm S (LieAlgebra.gaussian_table, built on first use); Lyndon-word
evaluation runs on it.  modp_bracket reduces that same cleared table mod
a prime p, with i sent to a square root of -1, for the filtration over
F_p that proves the stabilization bound; its reduced table is built once
per algebra and (p, s).  bracket works on Scalar vectors
and serves the exact filtration, centralizer, derived series and
validate().  ad_matrix builds
ad u over the Gaussian integers too, as (den, rows) with rows = den * ad u
in (re, im) integer pairs, which the nilpotency tests, power traces and
the invariance suite's equivariance oracle multiply as they are.  It walks
the table in a loop of its own, reading neither gaussian_table nor
gaussian_bracket, so that oracle, which applies ad u to the word values,
stays independent of word evaluation.

decompose splits z over the integers too, on theta as
CartanDecomposition.gaussian_theta clears it once, keeping only its
nonzero entries: every catalog theta is a signed permutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import TYPE_CHECKING, Optional, Sequence

from .linalg import (
    EchelonSpan,
    MatrixQ,
    Vector,
    gaussian_rows,
    gaussian_scalar,
    linear_combination,
    nullspace_of,
    rank_of,
    vec_dot,
)
from .scalar import ONE, ZERO, Scalar

if TYPE_CHECKING:
    from .certify import GramCertificate

# sparse bracket value: tuple of (basis_index, coefficient)
SparseVec = tuple


def _sparsify(coeffs: Sequence[Scalar]) -> SparseVec:
    return tuple((k, c) for k, c in enumerate(coeffs) if c)


def _canonical(structure: dict) -> dict:
    """structure with a repeated output index summed and zero terms and
    empty entries dropped; an entry with neither is kept as it is."""
    out = {}
    for ij, terms in structure.items():
        if len({k for k, c in terms if c}) < len(terms):
            sums = {}
            for k, c in terms:
                sums[k] = sums.get(k, ZERO) + c
            terms = tuple((k, c) for k, c in sums.items() if c)
        if terms:
            out[ij] = terms
    return out


def _densify(sv: SparseVec, dim: int) -> Vector:
    out = [ZERO] * dim
    for k, c in sv:
        out[k] = c
    return tuple(out)


class LieAlgebra:
    """A complex semisimple Lie algebra in a fixed basis.

    structure is the one table of structure constants: it maps an ordered
    pair (i, j) to the sparse coefficient vector of [b_i, b_j], a tuple of
    (k, c^k_ij) pairs with distinct k and nonzero c, and leaves out a zero
    bracket.  Both orientations are stored so that a defective
    (non-antisymmetric) table can be represented and caught by validate().
    """

    __slots__ = ("name", "dim", "basis_labels", "structure", "killing", "family",
                 "_gaussian", "_gaussian_killing", "_modp_brackets")

    def __init__(self, name: str, dim: int, structure: dict,
                 basis_labels: Optional[Sequence[str]] = None,
                 family: Optional[str] = None):
        self.name = name
        self.dim = dim
        self.basis_labels = tuple(basis_labels) if basis_labels else tuple(
            f"b{i}" for i in range(dim))
        self.structure = _canonical(structure)
        self.family = family
        self.killing = self._compute_killing()
        self._gaussian = None
        self._gaussian_killing = None
        self._modp_brackets = {}

    @classmethod
    def from_lower_table(cls, name: str, dim: int, lower: dict,
                         basis_labels=None, family=None) -> "LieAlgebra":
        """Build from a table given on pairs i < j only (antisymmetric closure)."""
        structure = {}
        for (i, j), coeffs in lower.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"lower table needs 0 <= i < j < dim, got ({i},{j})")
            sv = _sparsify(coeffs) if not _is_sparse(coeffs) else tuple(coeffs)
            structure[(i, j)] = sv
            structure[(j, i)] = tuple((k, -c) for k, c in sv)
        return cls(name, dim, structure, basis_labels, family)

    def table(self, i: int, j: int) -> Vector:
        """[b_i, b_j] as a dense vector."""
        return _densify(self.structure.get((i, j), ()), self.dim)

    def basis_vector(self, i: int) -> Vector:
        return tuple(ONE if k == i else ZERO for k in range(self.dim))

    def gaussian_table(self) -> tuple:
        """(S, rows): S > 0 the lcm of the structure constants'
        denominators, and rows the pairs (i, ((j, terms), ...)) of the
        table times S, grouped by i, each term a (k, re, im) integer
        triple.  Built on first use and kept."""
        if self._gaussian is None:
            pairs = list(self.structure.items())
            scale, cleared = gaussian_rows(
                tuple(c for _, c in terms) for _, terms in pairs)
            rows = {}
            for ((i, j), terms), ints in zip(pairs, cleared):
                rows.setdefault(i, []).append((j, tuple(
                    (k, re, im) for (k, _), (re, im) in zip(terms, ints))))
            self._gaussian = scale, tuple(
                (i, tuple(row)) for i, row in rows.items())
        return self._gaussian

    def gaussian_killing(self) -> tuple:
        """(K, rows): the Killing matrix's rows cleared by gaussian_rows, K
        the lcm of its denominators.  Built on first use and kept."""
        if self._gaussian_killing is None:
            self._gaussian_killing = gaussian_rows(
                self.killing.row(i) for i in range(self.dim))
        return self._gaussian_killing

    def _compute_killing(self) -> MatrixQ:
        # B_ij = tr(ad_i ad_j) over sparse (ad_i)[k, l] = c^k_il; all n^2
        # entries, so validate() checks symmetry
        ads = [{} for _ in range(self.dim)]
        for (i, l), terms in self.structure.items():
            for k, c in terms:
                ads[i][k, l] = c
        return MatrixQ(self.dim, self.dim, [
            vec_dot(a.values(), [b.get((l, k), ZERO) for k, l in a])
            for a in ads for b in ads])

    def __repr__(self) -> str:
        return f"LieAlgebra({self.name}, dim={self.dim})"


def _is_sparse(coeffs) -> bool:
    return bool(coeffs) and isinstance(coeffs[0], tuple)


def bracket(alg: LieAlgebra, u: Sequence[Scalar], v: Sequence[Scalar]) -> Vector:
    """[u, v], extended bilinearly from the structure table."""
    if len(u) != alg.dim or len(v) != alg.dim:
        raise ValueError("vector length must equal dim")
    out = [ZERO] * alg.dim
    for (i, j), terms in alg.structure.items():
        ui = u[i]
        vj = v[j]
        if ui and vj:
            c = ui * vj
            for k, s in terms:
                out[k] = out[k] + c * s
    return tuple(out)


def gaussian_bracket(alg: LieAlgebra, u: Sequence[tuple],
                     v: Sequence[tuple]) -> tuple:
    """S [u, v] for u, v given as (re, im) integer pairs, S from
    alg.gaussian_table()."""
    out_re = [0] * alg.dim
    out_im = [0] * alg.dim
    for i, row in alg.gaussian_table()[1]:
        a, b = u[i]
        if a or b:
            for j, terms in row:
                c, d = v[j]
                if c or d:
                    re = a * c - b * d
                    im = a * d + b * c
                    for k, sr, si in terms:
                        out_re[k] += re * sr - im * si
                        out_im[k] += re * si + im * sr
    return tuple(zip(out_re, out_im))


def modp_bracket(alg: LieAlgebra, p: int, s: int):
    """The map (u, v) -> S [u, v] mod p on vectors of integers mod p, for
    p prime and s^2 = -1 mod p: gaussian_table() with i sent to s.  When
    p does not divide S it is the bracket of the image of g under i -> s,
    up to the unit S.  Built once per algebra and (p, s), and kept."""
    bracket_mod_p = alg._modp_brackets.get((p, s))
    if bracket_mod_p is None:
        bracket_mod_p = alg._modp_brackets[p, s] = _modp_bracket(alg, p, s)
    return bracket_mod_p


def _modp_bracket(alg: LieAlgebra, p: int, s: int):
    n = alg.dim
    table = tuple(
        (i, tuple((j, tuple((k, (re + im * s) % p) for k, re, im in terms))
                  for j, terms in row))
        for i, row in alg.gaussian_table()[1])

    def bracket_mod_p(u: Sequence[int], v: Sequence[int]) -> tuple:
        out = [0] * n
        for i, row in table:
            a = u[i]
            if a:
                for j, terms in row:
                    b = v[j]
                    if b:
                        c = a * b
                        for k, t in terms:
                            out[k] += c * t
        return tuple(c % p for c in out)

    return bracket_mod_p


def ad_matrix(alg: LieAlgebra, u: Sequence[Scalar]) -> tuple:
    """(den, rows): den > 0 and den * ad u as rows of (re, im) integer
    pairs; column j is den [u, b_j].  u is cleared by the lcm of its
    denominators and the table's constants by the lcm of those that u
    touches, in a loop of its own over alg.structure."""
    if len(u) != alg.dim:
        raise ValueError("vector length must equal dim")
    n = alg.dim
    u_scale, (cleared,) = gaussian_rows((u,))
    terms = []
    for (i, j), ts in alg.structure.items():
        a, b = cleared[i]
        if a or b:
            terms.extend((k, j, a, b, s) for k, s in ts)
    s_scale = math.lcm(*{q.denominator for *_, s in terms
                         for q in (s.re, s.im)})
    re = [[0] * n for _ in range(n)]
    im = [[0] * n for _ in range(n)]
    for k, j, a, b, s in terms:
        c = s.re.numerator * (s_scale // s.re.denominator)
        d = s.im.numerator * (s_scale // s.im.denominator)
        re[k][j] += a * c - b * d
        im[k][j] += a * d + b * c
    return u_scale * s_scale, [tuple(zip(r, i)) for r, i in zip(re, im)]


def centralizer(alg: LieAlgebra, basis: Sequence, vectors: Sequence) -> list:
    """Basis of {u in span(basis) : [u, v] = 0 for every v in vectors}.

    basis must be linearly independent.  The condition is stacked for each
    of vectors, and the result is the RREF nullspace of that stack, so it
    depends only on the two spans and on the order of basis.  Callers with
    a long or redundant spanning set pass its reduced_basis, which gives
    fewer and smaller rows.
    """
    if not vectors:
        return [tuple(u) for u in basis]
    rows = []
    for v in vectors:
        cols = [bracket(alg, u, v) for u in basis]
        for r in range(alg.dim):
            rows.append([col[r] for col in cols])
    return [linear_combination(coeffs, basis, alg.dim)
            for coeffs in nullspace_of(MatrixQ.from_rows(rows))]


def killing_pair(alg: LieAlgebra, u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    """B(u, v) = tr(ad u ad v), via the cached Killing matrix."""
    return vec_dot(u, alg.killing.matvec(v))


class CartanDecomposition:
    """The involution theta and bases of its eigenspaces k (+1), p (-1)."""

    __slots__ = ("theta", "k_basis", "p_basis", "_gaussian_theta")

    def __init__(self, theta: MatrixQ):
        if theta.cols != theta.rows:
            raise ValueError("theta must be square")
        self.theta = theta
        ident = MatrixQ.identity(theta.rows)
        self.k_basis = tuple(nullspace_of(theta.sub(ident)))
        self.p_basis = tuple(nullspace_of(theta.add(ident)))
        self._gaussian_theta = None

    def gaussian_theta(self) -> tuple:
        """(T, rows): theta's rows cleared by gaussian_rows, T the lcm of
        its denominators, each row kept as the (j, re, im) integer triples
        of its nonzero entries.  Built on first use and kept."""
        if self._gaussian_theta is None:
            scale, rows = gaussian_rows(
                self.theta.row(i) for i in range(self.theta.rows))
            self._gaussian_theta = scale, tuple(
                tuple((j, re, im) for j, (re, im) in enumerate(row)
                      if re or im)
                for row in rows)
        return self._gaussian_theta

    @property
    def dim_k(self) -> int:
        return len(self.k_basis)

    @property
    def dim_p(self) -> int:
        return len(self.p_basis)

    def __repr__(self) -> str:
        return f"CartanDecomposition(dim_k={self.dim_k}, dim_p={self.dim_p})"


@dataclass(frozen=True)
class ElementZ:
    """z = x + y with x the k-part and y the p-part; construct_regular
    attaches the regularity certificate it computed as `certificate`."""

    z: Vector
    x: Vector
    y: Vector
    certificate: Optional["GramCertificate"] = field(
        default=None, compare=False, repr=False)


def decompose(cd: CartanDecomposition, z: Sequence[Scalar]) -> ElementZ:
    """Split z into its k-part x = (z + theta z)/2 and its p-part
    y = (z - theta z)/2, over the integers: with z = u/D cleared by
    gaussian_rows and theta = R/T by gaussian_theta, theta z = R u/(T D),
    so x and y are (T u +/- R u)/(2 T D), divided back into Scalars."""
    z = tuple(z)
    scale, theta_rows = cd.gaussian_theta()
    if len(z) != len(theta_rows):
        raise ValueError("dimension mismatch")
    den, (u,) = gaussian_rows((z,))
    den *= 2 * scale
    x, y = [], []
    for (a, b), row in zip(u, theta_rows):
        re = im = 0
        for j, c, d in row:
            p, q = u[j]
            re += c * p - d * q
            im += c * q + d * p
        a *= scale
        b *= scale
        x.append(gaussian_scalar((a + re, b + im), den))
        y.append(gaussian_scalar((a - re, b - im), den))
    return ElementZ(z=z, x=tuple(x), y=tuple(y))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)

    def record(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, passed, detail))

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def first_failure(self) -> Optional[CheckResult]:
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def validate(alg: LieAlgebra, cd: Optional[CartanDecomposition] = None) -> ValidationReport:
    """Exact pass/fail report for every structural invariant.

    Failures are report entries, never exceptions; the first violating
    basis tuple is named in the detail string.
    """
    rep = ValidationReport()
    n = alg.dim

    # a pair absent from structure in both orders is zero both ways, so
    # the stored pairs in order hold the first bad pair
    bad = None
    for i, j in sorted({(min(a, b), max(a, b)) for a, b in alg.structure
                        if 0 <= min(a, b) and max(a, b) < n}):
        if alg.table(i, j) != tuple(-c for c in alg.table(j, i)):
            bad = (i, j)
            break
    rep.record("antisymmetry", bad is None, f"({bad[0]},{bad[1]})" if bad else "")

    bad = None
    st = alg.structure
    for i, j, k in combinations(range(n), 3):
        # [b_a, [b_b, b_c]] summed over the cyclic orders
        s = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, cm in st.get((b, c), ()):
                for t, ct in st.get((a, m), ()):
                    s[t] = s.get(t, ZERO) + cm * ct
        if any(s.values()):
            bad = (i, j, k)
            break
    rep.record("jacobi", bad is None,
               f"jacobi({bad[0]},{bad[1]},{bad[2]})" if bad else "")

    rep.record("killing-symmetric", alg.killing.is_symmetric())
    kr = rank_of(alg.killing)
    rep.record("killing-nondegenerate", kr == n, f"rank {kr} of {n}")

    if cd is None:
        return rep

    ident = MatrixQ.identity(n)
    rep.record("theta-involution", cd.theta.matmul(cd.theta) == ident)

    # theta[b_i, b_j] as a combination of theta's columns, which skips the
    # zero coefficients of a sparse bracket and the zero entries of a
    # sparse theta
    cols = [cd.theta.column(j) for j in range(n)]
    bad = next(((i, j) for i, j in combinations(range(n), 2)
                if linear_combination(alg.table(i, j), cols, n)
                != bracket(alg, cols[i], cols[j])), None)
    rep.record("theta-automorphism", bad is None,
               f"({bad[0]},{bad[1]})" if bad else "")

    rep.record("eigenspace-dims", cd.dim_k + cd.dim_p == n,
               f"dim k {cd.dim_k} + dim p {cd.dim_p} != {n}"
               if cd.dim_k + cd.dim_p != n else "")

    pp = EchelonSpan(n)
    for a in range(cd.dim_p):
        for b in range(a + 1, cd.dim_p):
            pp.add(bracket(alg, cd.p_basis[a], cd.p_basis[b]))
    k_span = EchelonSpan(n)
    k_span.extend(cd.k_basis)
    proper = pp.equals(k_span)
    rep.record("properness", proper,
               "" if proper else f"span[p,p] dim {pp.dim}, k dim {k_span.dim}")

    paired = [alg.killing.matvec(v) for v in cd.p_basis]
    orthogonal = not any(vec_dot(u, w) for u in cd.k_basis for w in paired)
    rep.record("killing-k-p-orthogonal", orthogonal)

    return rep
